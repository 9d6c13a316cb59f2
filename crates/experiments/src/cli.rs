//! The one argument parser shared by `repro`, `explore` and `diag`.
//!
//! Each binary walks its arguments with [`Args`], takes a flag's value
//! with [`Args::value`] and hands it to a bounded `parse_*` function.
//! Every rejection is a [`RunError::InvalidConfig`] that names the flag,
//! the offending value and the accepted range, so a bad value never
//! falls back to a default or panics deep in the simulator. Upper bounds
//! catch typos (`--jobs 100000`) that would otherwise exhaust the
//! machine before anything useful ran.

use std::str::FromStr;

use sttgpu_core::LlcPolicy;
use sttgpu_device::mtj::{ATTEMPT_PERIOD_NS, MAX_DELTA, MIN_DELTA};
use sttgpu_workloads::suite;

use crate::error::RunError;

/// Upper bound on `--jobs`: far beyond any real core count, low enough
/// that a mistyped value cannot spawn tens of thousands of threads.
pub(crate) const MAX_JOBS: usize = 4096;

/// Upper bound on `--scale`: the reference scale is 1.0 and nothing in
/// the tree goes past single digits, so beyond this a typo is certain.
pub(crate) const MAX_SCALE: f64 = 64.0;

/// Upper bound on a cache-part capacity, KB (64 MB, some 40× the
/// paper's 1.5 MB LLC), so `KB * 1024` cannot overflow.
pub(crate) const MAX_KB: u64 = 65_536;

/// The command line after the program name, consumed front to back.
pub struct Args(std::vec::IntoIter<String>);

impl Args {
    /// The process's own arguments.
    pub fn from_env() -> Self {
        Args(std::env::args().skip(1).collect::<Vec<_>>().into_iter())
    }

    /// The value that must follow `flag`.
    pub fn value(&mut self, flag: &str) -> Result<String, RunError> {
        self.0
            .next()
            .ok_or_else(|| RunError::invalid(format!("{flag} needs a value")))
    }
}

impl Iterator for Args {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        self.0.next()
    }
}

/// The rejection for a flag the binary does not know.
pub fn unknown_flag(flag: &str) -> RunError {
    RunError::invalid(format!("unknown flag '{flag}'"))
}

/// Parses `raw` as a `T` that satisfies `ok`; anything else is rejected
/// with "`flag` wants `range`".
fn bounded<T: FromStr>(
    flag: &str,
    raw: &str,
    ok: impl Fn(&T) -> bool,
    range: &str,
) -> Result<T, RunError> {
    raw.parse()
        .ok()
        .filter(ok)
        .ok_or_else(|| RunError::invalid(format!("{flag} wants {range}, got '{raw}'")))
}

/// Parses `--jobs N` (executor worker threads).
pub fn parse_jobs(raw: &str) -> Result<usize, RunError> {
    let range = format!("an integer in 1..={MAX_JOBS}");
    bounded("--jobs", raw, |n| (1..=MAX_JOBS).contains(n), &range)
}

/// Parses `--llc-policy NAME` against the shipped policy registry.
pub fn parse_llc_policy(raw: &str) -> Result<LlcPolicy, RunError> {
    LlcPolicy::parse(raw).ok_or_else(|| {
        let names: Vec<&str> = LlcPolicy::ALL.iter().map(|p| p.name()).collect();
        RunError::invalid(format!(
            "--llc-policy wants one of {}, got '{raw}'",
            names.join("|")
        ))
    })
}

/// Parses `--scale F`. Besides the range, every suite workload must
/// keep a kernel above the floors at `F` ([`suite::try_scaled`]), so a
/// too-small factor is rejected here rather than panicking mid-run.
pub fn parse_scale(raw: &str) -> Result<f64, RunError> {
    let range = format!("a finite number in (0, {MAX_SCALE}]");
    let scale = bounded("--scale", raw, |v| *v > 0.0 && *v <= MAX_SCALE, &range)?;
    for w in suite::all() {
        suite::try_scaled(&w, scale).map_err(|e| {
            RunError::invalid(format!(
                "--scale wants a factor every workload can shrink to, got '{raw}' ({e})"
            ))
        })?;
    }
    Ok(scale)
}

/// Parses `--faults RATE`, a per-mechanism probability.
pub fn parse_faults(raw: &str) -> Result<f64, RunError> {
    bounded(
        "--faults",
        raw,
        |r| (0.0..=1.0).contains(r),
        "a rate in [0, 1]",
    )
}

/// Parses `--fuzz N`, the differential-fuzz case count.
pub fn parse_fuzz(raw: &str) -> Result<u64, RunError> {
    bounded("--fuzz", raw, |n| *n >= 1, "a case count of at least 1")
}

/// Parses a seed flag (`--fault-seed`, `--fuzz-seed`).
pub fn parse_seed(flag: &str, raw: &str) -> Result<u64, RunError> {
    bounded(flag, raw, |_| true, "an integer in 0..=2^64-1")
}

/// Parses a comma-separated list, each element through `parse`.
pub fn parse_list<T>(
    raw: &str,
    parse: impl Fn(&str) -> Result<T, RunError>,
) -> Result<Vec<T>, RunError> {
    raw.split(',').map(|v| parse(v.trim())).collect()
}

/// Parses a cache-part capacity flag (`--lr-kb`, `--hr-kb`). Only the
/// overflow bound is checked here; whether the capacity divides into
/// sets is [`TwoPartConfig::validate`](sttgpu_core::TwoPartConfig::validate)'s call.
pub fn parse_kb(flag: &str, raw: &str) -> Result<u64, RunError> {
    let range = format!("KB in 0..={MAX_KB}");
    bounded(flag, raw, |kb| *kb <= MAX_KB, &range)
}

/// Parses a retention flag whose unit is `unit_ns` nanoseconds. A value
/// is accepted exactly when the device model can build an MTJ for it:
/// thermal stability Δ = ln(τ/τ₀) within `[MIN_DELTA, MAX_DELTA]`.
pub fn parse_retention(flag: &str, raw: &str, unit_ns: f64) -> Result<f64, RunError> {
    let in_unit = |delta: f64| ATTEMPT_PERIOD_NS * delta.exp() / unit_ns;
    let range = format!(
        "a retention in [{:.3e}, {:.3e}]",
        in_unit(MIN_DELTA),
        in_unit(MAX_DELTA)
    );
    let delta = |v: &f64| (v * unit_ns / ATTEMPT_PERIOD_NS).ln();
    bounded(
        flag,
        raw,
        |v| (MIN_DELTA..=MAX_DELTA).contains(&delta(v)),
        &range,
    )
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
        assert_eq!(parse_jobs("8").unwrap(), 8);
        assert_eq!(parse_jobs("4096").unwrap(), MAX_JOBS);
        rejects(parse_jobs("0"), "1..=4096");
        rejects(parse_jobs("4097"), "1..=4096");
        rejects(parse_jobs("eight"), "integer");
        rejects(
            Args(Vec::new().into_iter()).value("--jobs"),
            "needs a value",
        );
    }

    #[test]
    fn llc_policy_names_round_trip_and_typos_are_typed() {
        for policy in LlcPolicy::ALL {
            assert_eq!(parse_llc_policy(policy.name()).unwrap(), policy);
        }
        rejects(parse_llc_policy("adaptive"), "fixed|");
    }

    #[test]
    fn scale_rejects_nonsense() {
        assert_eq!(parse_scale("0.25").unwrap(), 0.25);
        rejects(parse_scale("0"), "(0, 64]");
        rejects(parse_scale("-1"), "(0, 64]");
        rejects(parse_scale("inf"), "(0, 64]");
        rejects(parse_scale("NaN"), "(0, 64]");
        rejects(parse_scale("65"), "(0, 64]");
        rejects(parse_scale("big"), "number");
        rejects(
            parse_scale("1e-9"),
            "--scale wants a factor every workload can shrink to",
        );
    }

    #[test]
    fn fault_and_fuzz_flags_are_typed() {
        assert_eq!(parse_faults("2e-4").unwrap(), 2e-4);
        rejects(
            parse_faults("2"),
            "--faults wants a rate in [0, 1], got '2'",
        );
        rejects(parse_faults("NaN"), "[0, 1]");
        assert_eq!(parse_fuzz("75000").unwrap(), 75_000);
        rejects(parse_fuzz("0"), "--fuzz wants a case count of at least 1");
        assert_eq!(parse_seed("--fuzz-seed", "7").unwrap(), 7);
        rejects(
            parse_seed("--fuzz-seed", "x"),
            "--fuzz-seed wants an integer",
        );
        rejects(parse_seed("--fault-seed", "-1"), "--fault-seed");
    }
}
