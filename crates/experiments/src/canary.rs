//! The perf canary's constants and its pass/fail rule.
//!
//! `repro --canary` times a fixed deterministic workload (the Fig. 8
//! suite at [`CANARY_SCALE`] on one executor job, so the number is
//! comparable across hosts with different core counts)
//! [`CANARY_SAMPLES`] times and compares the median simulated-cycle
//! throughput with the baseline committed at [`CANARY_BASELINE_PATH`].
//! The decision itself is the pure [`Verdict::judge`], so the gate's
//! ability to fail is unit-tested without timing anything.

use std::path::{Path, PathBuf};

/// The canary's fixed workload scale — small enough to finish in seconds,
/// large enough that throughput is not dominated by startup.
pub const CANARY_SCALE: f64 = 0.25;

/// Timed samples per canary run; their median is judged, so one sample
/// slowed by a noisy neighbour cannot fail the gate on its own.
pub const CANARY_SAMPLES: usize = 3;

/// Throughput below this fraction of the committed baseline fails.
pub const CANARY_FLOOR: f64 = 0.7;

/// Where the committed baseline lives, relative to the repo root. Its
/// name is one no `repro` report uses, so regenerating the artefacts
/// with `--out results` leaves it intact.
pub const CANARY_BASELINE_PATH: &str = "results/canary_baseline.json";

/// The committed baseline's absolute path, resolved from this crate's
/// source directory so that `repro --canary` finds it from any working
/// directory.
pub fn baseline_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("the crate sits at crates/experiments under the repo root")
        .join(CANARY_BASELINE_PATH)
}

/// The median of `samples` (the upper middle one for an even count).
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

/// The JSON key holding the baseline throughput, cycles/s.
pub const BASELINE_KEY: &str = "canary_baseline_cycles_per_second";

/// Extracts `"key": <number>` from hand-rolled JSON, no parser needed.
pub fn json_number(text: &str, key: &str) -> Option<f64> {
    let tail = &text[text.find(&format!("\"{key}\""))?..];
    let tail = &tail[tail.find(':')? + 1..];
    let end = tail
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == ' '))
        .unwrap_or(tail.len());
    tail[..end].trim().parse().ok()
}

/// The canary's outcome for one measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// No baseline to compare against: the measurement is only recorded.
    Unbaselined,
    /// At or above [`CANARY_FLOOR`] of the baseline; `fraction` is
    /// measured / baseline.
    Pass {
        /// Measured throughput over the baseline.
        fraction: f64,
    },
    /// Below [`CANARY_FLOOR`] of the baseline.
    Fail {
        /// Measured throughput over the baseline.
        fraction: f64,
    },
}

impl Verdict {
    /// Judges a measured throughput (cycles/s) against the baseline.
    pub fn judge(measured: f64, baseline: Option<f64>) -> Self {
        match baseline {
            None => Verdict::Unbaselined,
            Some(b) if measured < b * CANARY_FLOOR => Verdict::Fail {
                fraction: measured / b,
            },
            Some(b) => Verdict::Pass {
                fraction: measured / b,
            },
        }
    }

    /// The process exit status this verdict maps to (nonzero = failed).
    pub fn exit_status(self) -> u8 {
        match self {
            Verdict::Fail { .. } => 1,
            Verdict::Unbaselined | Verdict::Pass { .. } => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed_baseline() -> f64 {
        let text = std::fs::read_to_string(baseline_path()).expect("the baseline is committed");
        json_number(&text, BASELINE_KEY).expect("the baseline names its throughput")
    }

    #[test]
    fn baseline_path_resolves_from_any_directory() {
        let path = baseline_path();
        assert!(path.is_absolute(), "{} depends on the cwd", path.display());
        assert!(path.is_file(), "{} is missing", path.display());
        assert!(path.ends_with(CANARY_BASELINE_PATH));
    }

    #[test]
    fn the_median_sample_is_judged() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[5.0]), 5.0);
        // One slow sample out of three cannot fail the gate.
        let b = committed_baseline();
        let samples = [b * 0.5, b, b * 1.1];
        assert_eq!(Verdict::judge(median(&samples), Some(b)).exit_status(), 0);
    }

    #[test]
    fn a_slow_measurement_fails_the_gate() {
        let b = committed_baseline();
        let v = Verdict::judge(b * 0.5, Some(b));
        assert!(matches!(v, Verdict::Fail { .. }), "{v:?}");
        assert_ne!(v.exit_status(), 0);
        let just_under = Verdict::judge(b * CANARY_FLOOR - 1.0, Some(b));
        assert_ne!(just_under.exit_status(), 0);
    }

    #[test]
    fn a_measurement_at_the_threshold_passes() {
        let b = committed_baseline();
        let v = Verdict::judge(b * CANARY_FLOOR, Some(b));
        assert!(matches!(v, Verdict::Pass { .. }), "{v:?}");
        assert_eq!(v.exit_status(), 0);
        assert_eq!(Verdict::judge(b * 2.0, Some(b)).exit_status(), 0);
    }

    #[test]
    fn no_baseline_only_records() {
        assert_eq!(Verdict::judge(1.0, None), Verdict::Unbaselined);
        assert_eq!(Verdict::Unbaselined.exit_status(), 0);
    }

    #[test]
    fn json_number_reads_hand_rolled_json() {
        let text = "{\n  \"a\": 12,\n  \"b\": -3.5\n}";
        assert_eq!(json_number(text, "a"), Some(12.0));
        assert_eq!(json_number(text, "b"), Some(-3.5));
        assert_eq!(json_number(text, "c"), None);
    }
}
