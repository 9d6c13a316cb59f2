//! Typed validation for `repro`'s numeric flags.
//!
//! The binary used to silently fall back to the usage text on any bad
//! value; these helpers turn each rejection into a [`RunError`] that
//! names the flag, the offending value, and the accepted range — and
//! they put *upper* bounds on values where a typo (`--jobs 100000`)
//! would otherwise exhaust the machine before anything useful ran.

use sttgpu_core::LlcPolicy;

use crate::error::RunError;

/// Upper bound on `--jobs`: far beyond any real core count, low enough
/// that a mistyped value cannot spawn tens of thousands of threads.
pub const MAX_JOBS: usize = 4096;

/// Upper bound on `--run-timeout`, seconds (one day — anything longer
/// is indistinguishable from no watchdog at all).
pub const MAX_RUN_TIMEOUT_S: u64 = 86_400;

/// Upper bound on `--scale`: the reference scale is 1.0 and nothing in
/// the tree goes past single digits, so beyond this a typo is certain.
pub const MAX_SCALE: f64 = 64.0;

fn invalid(what: String) -> RunError {
    RunError::InvalidConfig { what }
}

fn value_of<'a>(flag: &str, value: Option<&'a str>) -> Result<&'a str, RunError> {
    value.ok_or_else(|| invalid(format!("{flag} needs a value")))
}

/// Parses and bounds-checks `--jobs N` (executor worker threads).
pub fn parse_jobs(value: Option<&str>) -> Result<usize, RunError> {
    let raw = value_of("--jobs", value)?;
    let n: usize = raw
        .parse()
        .map_err(|_| invalid(format!("--jobs wants an integer, got '{raw}'")))?;
    if n == 0 || n > MAX_JOBS {
        return Err(invalid(format!(
            "--jobs must be in 1..={MAX_JOBS}, got {n}"
        )));
    }
    Ok(n)
}

/// Parses and bounds-checks `--run-timeout SECS`.
pub fn parse_run_timeout(value: Option<&str>) -> Result<u64, RunError> {
    let raw = value_of("--run-timeout", value)?;
    let n: u64 = raw
        .parse()
        .map_err(|_| invalid(format!("--run-timeout wants seconds, got '{raw}'")))?;
    if n == 0 || n > MAX_RUN_TIMEOUT_S {
        return Err(invalid(format!(
            "--run-timeout must be in 1..={MAX_RUN_TIMEOUT_S} seconds, got {n}"
        )));
    }
    Ok(n)
}

/// Parses `--llc-policy NAME` against the shipped policy registry.
pub fn parse_llc_policy(value: Option<&str>) -> Result<LlcPolicy, RunError> {
    let raw = value_of("--llc-policy", value)?;
    LlcPolicy::parse(raw).ok_or_else(|| {
        let names: Vec<&str> = LlcPolicy::ALL.iter().map(|p| p.name()).collect();
        invalid(format!(
            "--llc-policy wants one of {}, got '{raw}'",
            names.join("|")
        ))
    })
}

/// Parses and bounds-checks `--scale F`.
pub fn parse_scale(value: Option<&str>) -> Result<f64, RunError> {
    let raw = value_of("--scale", value)?;
    let v: f64 = raw
        .parse()
        .map_err(|_| invalid(format!("--scale wants a number, got '{raw}'")))?;
    if !v.is_finite() || v <= 0.0 || v > MAX_SCALE {
        return Err(invalid(format!(
            "--scale must be a finite value in (0, {MAX_SCALE}], got {raw}"
        )));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rejects(result: Result<impl std::fmt::Debug, RunError>, fragment: &str) {
        match result {
            Err(RunError::InvalidConfig { what }) => {
                assert!(what.contains(fragment), "'{what}' missing '{fragment}'");
            }
            other => panic!("expected InvalidConfig containing '{fragment}', got {other:?}"),
        }
    }

    #[test]
    fn jobs_bounds_and_typos_are_typed() {
        assert_eq!(parse_jobs(Some("8")).unwrap(), 8);
        assert_eq!(parse_jobs(Some("4096")).unwrap(), MAX_JOBS);
        rejects(parse_jobs(Some("0")), "1..=4096");
        rejects(parse_jobs(Some("4097")), "1..=4096");
        rejects(parse_jobs(Some("eight")), "integer");
        rejects(parse_jobs(None), "needs a value");
    }

    #[test]
    fn run_timeout_bounds_are_typed() {
        assert_eq!(parse_run_timeout(Some("30")).unwrap(), 30);
        rejects(parse_run_timeout(Some("0")), "seconds, got 0");
        rejects(parse_run_timeout(Some("90000")), "1..=86400");
        rejects(parse_run_timeout(Some("soon")), "seconds, got 'soon'");
    }

    #[test]
    fn llc_policy_names_round_trip_and_typos_are_typed() {
        for policy in LlcPolicy::ALL {
            assert_eq!(parse_llc_policy(Some(policy.name())).unwrap(), policy);
        }
        rejects(parse_llc_policy(Some("adaptive")), "fixed|");
        rejects(parse_llc_policy(None), "needs a value");
    }

    #[test]
    fn scale_rejects_nonsense() {
        assert_eq!(parse_scale(Some("0.25")).unwrap(), 0.25);
        rejects(parse_scale(Some("0")), "(0, 64]");
        rejects(parse_scale(Some("-1")), "(0, 64]");
        rejects(parse_scale(Some("inf")), "(0, 64]");
        rejects(parse_scale(Some("NaN")), "(0, 64]");
        rejects(parse_scale(Some("65")), "(0, 64]");
        rejects(parse_scale(Some("big")), "number");
    }
}
