//! Seeded random request-stream generation.
//!
//! A trace is a flat list of [`Op`]s with *relative* timestamps and
//! line-granular addresses. Relative time is what makes traces
//! shrinkable: removing any subsequence of ops leaves a stream that is
//! still monotone in time and still well formed, so the shrinker never
//! has to repair a candidate.

use sttgpu_stats::Rng;

/// One request: wait `dt_ns`, then access `line` (read or write); on a
/// miss the driver immediately fills the line (dirty iff the access
/// was a write) — the requests discipline every replay harness runs on
/// a [`RequestClock`](sttgpu_core::RequestClock).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Nanoseconds since the previous op (clamped to at least 1).
    pub dt_ns: u64,
    /// Line address (the driver scales by the configured line size).
    pub line: u64,
    /// Write (`true`) or read (`false`).
    pub write: bool,
}

/// Shape of a generated trace: length, address-locality mix,
/// read/write ratio and inter-arrival bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSpec {
    /// Number of operations.
    pub ops: usize,
    /// Size of the full address pool, lines.
    pub lines: u64,
    /// Size of the hot subset (lines `0..hot_lines`).
    pub hot_lines: u64,
    /// Probability an op targets the hot subset.
    pub hot_fraction: f64,
    /// Probability an op is a write.
    pub write_fraction: f64,
    /// Upper bound on the inter-arrival gap, ns (inclusive).
    pub max_dt_ns: u64,
}

/// Expands `(seed, spec)` into a concrete trace, deterministically.
pub fn generate(seed: u64, spec: &TraceSpec) -> Vec<Op> {
    assert!(spec.lines >= 1 && spec.hot_lines >= 1, "empty address pool");
    assert!(spec.max_dt_ns >= 1, "ops need to advance time");
    let mut rng = Rng::new(seed);
    (0..spec.ops)
        .map(|_| {
            let dt_ns = rng.range_u64(1, spec.max_dt_ns + 1);
            let line = if rng.chance(spec.hot_fraction) {
                rng.range_u64(0, spec.hot_lines)
            } else {
                rng.range_u64(0, spec.lines)
            };
            let write = rng.chance(spec.write_fraction);
            Op { dt_ns, line, write }
        })
        .collect()
}

/// Renders a trace as Rust `Op` literals, one per line — the format
/// regression tests check minimized traces in as.
pub fn format_trace(ops: &[Op]) -> String {
    let mut out = String::new();
    for op in ops {
        out.push_str(&format!(
            "Op {{ dt_ns: {}, line: {}, write: {} }},\n",
            op.dt_ns, op.line, op.write
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> TraceSpec {
        TraceSpec {
            ops: 200,
            lines: 100,
            hot_lines: 8,
            hot_fraction: 0.5,
            write_fraction: 0.4,
            max_dt_ns: 300,
        }
    }

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        assert_eq!(generate(42, &spec()), generate(42, &spec()));
        assert_ne!(generate(42, &spec()), generate(43, &spec()));
    }

    #[test]
    fn ops_respect_the_spec_bounds() {
        for op in generate(7, &spec()) {
            assert!((1..=300).contains(&op.dt_ns));
            assert!(op.line < 100);
        }
    }

    #[test]
    fn format_round_trips_visually() {
        let ops = [Op {
            dt_ns: 5,
            line: 3,
            write: true,
        }];
        assert_eq!(
            format_trace(&ops),
            "Op { dt_ns: 5, line: 3, write: true },\n"
        );
    }
}
