//! Seeded scenario generation: composable phases lowered to [`Op`]s.
//!
//! Where [`TraceSpec`](crate::TraceSpec) describes one homogeneous
//! request mix, a [`ScenarioSpec`] composes **phases** — each with its
//! own working-set window, Zipf skew, write-fraction ramp, optional
//! grid-end write burst and optional rewrite-interval target — into a
//! single stream. That is the access-pattern vocabulary the paper's §4
//! characterisation uses (small furiously-rewritten WWS, writes bursting
//! at grid ends, sub-10 µs rewrite intervals) and the one the 16
//! synthetic workloads are tuned in; the scenario engine makes the same
//! vocabulary available to the differential oracle, so every class of
//! stream is fuzzable, shrinkable and regression-pinnable through the
//! unchanged [`run_case`](crate::run_case)/[`shrink`](crate::shrink)
//! machinery.
//!
//! [`scenario_families`] names the built-in classes. Each family is a
//! seeded *generator of specs*: `make(seed)` draws the phase parameters
//! from family-characteristic ranges, so one family covers arbitrarily
//! many concrete scenarios while staying deterministic in the seed.

use sttgpu_stats::Rng;

use crate::trace_gen::Op;

/// One phase of a scenario: a working-set window with its own mix.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// Operations in this phase (including the trailing burst).
    pub ops: usize,
    /// First line of the phase's working set (working-set shifts move
    /// this between phases).
    pub base_line: u64,
    /// Working-set size, lines (≥ 1).
    pub working_set: u64,
    /// Zipf skew exponent over the working set (0 = uniform; rank 0 is
    /// the hottest line).
    pub zipf_s: f64,
    /// Write fraction at the start of the phase.
    pub write_start: f64,
    /// Write fraction at the end of the phase (linear ramp between).
    pub write_end: f64,
    /// Inclusive upper bound on inter-arrival gaps, ns (≥ 1).
    pub max_dt_ns: u64,
    /// Trailing ops that model a grid-end write burst: back-to-back
    /// writes (1 ns apart) into the hottest eighth of the working set.
    pub burst_ops: usize,
    /// When set, written lines are re-written ~this many ns later —
    /// the Fig. 6 rewrite-interval behaviour the LR part feeds on.
    pub rewrite_interval_ns: Option<u64>,
}

impl Phase {
    fn validate(&self) {
        assert!(self.working_set >= 1, "empty working set");
        assert!(self.max_dt_ns >= 1, "ops need to advance time");
        assert!(self.burst_ops <= self.ops, "burst longer than phase");
        for f in [self.write_start, self.write_end] {
            assert!((0.0..=1.0).contains(&f), "write fraction outside [0, 1]");
        }
        assert!(self.zipf_s >= 0.0, "negative Zipf exponent");
    }
}

/// A named composition of phases, lowered to a concrete trace by
/// [`lower`](ScenarioSpec::lower).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Human-readable name (family plus the drawing seed).
    pub name: String,
    /// The phases, replayed in order.
    pub phases: Vec<Phase>,
}

impl ScenarioSpec {
    /// Total operations across all phases.
    pub(crate) fn total_ops(&self) -> usize {
        self.phases.iter().map(|p| p.ops).sum()
    }

    /// Expands the spec into a concrete [`Op`] stream, deterministically
    /// in `seed`. The result obeys the same well-formedness contract as
    /// [`generate`](crate::generate) — `dt_ns ≥ 1` everywhere, every
    /// subsequence still valid — so shrinking works unchanged.
    pub fn lower(&self, seed: u64) -> Vec<Op> {
        let mut rng = Rng::new(seed);
        let mut ops = Vec::with_capacity(self.total_ops());
        let mut now = 0u64;
        // Rewrite targets outlive phases: a line written late in phase k
        // comes due early in phase k+1, exactly like a grid consuming its
        // predecessor's output.
        let mut due: std::collections::VecDeque<(u64, u64)> = std::collections::VecDeque::new();
        for phase in &self.phases {
            phase.validate();
            let cdf = zipf_cdf(phase.working_set, phase.zipf_s);
            let steady = phase.ops - phase.burst_ops;
            for i in 0..phase.ops {
                let burst = i >= steady;
                let dt_ns = if burst {
                    1
                } else {
                    rng.range_u64(1, phase.max_dt_ns + 1)
                };
                now += dt_ns;
                let t = if steady <= 1 {
                    0.0
                } else {
                    i.min(steady - 1) as f64 / (steady - 1) as f64
                };
                let write_fraction = phase.write_start + (phase.write_end - phase.write_start) * t;
                let (line, write) = if burst {
                    let hot = (phase.working_set / 8).max(1);
                    (phase.base_line + rng.range_u64(0, hot), true)
                } else if due.front().is_some_and(|&(_, due_ns)| due_ns <= now) {
                    // A rewrite-interval target came due: re-write it.
                    let (line, _) = due.pop_front().expect("front checked");
                    (line, true)
                } else {
                    let rank = sample_rank(&mut rng, &cdf, phase.working_set);
                    (phase.base_line + rank, rng.chance(write_fraction))
                };
                if write {
                    if let Some(interval) = phase.rewrite_interval_ns {
                        due.push_back((line, now + interval));
                    }
                }
                ops.push(Op { dt_ns, line, write });
            }
        }
        ops
    }
}

/// Cumulative Zipf weights for ranks `0..n` with exponent `s`; `None`
/// for the uniform case (`s == 0`), which needs no table.
fn zipf_cdf(n: u64, s: f64) -> Option<Vec<f64>> {
    if s == 0.0 {
        return None;
    }
    // Large working sets with skew concentrate on the head anyway; cap
    // the table and fold the tail into the last bucket.
    let m = n.min(4096) as usize;
    let mut cdf = Vec::with_capacity(m);
    let mut total = 0.0;
    for r in 0..m {
        total += 1.0 / ((r + 1) as f64).powf(s);
        cdf.push(total);
    }
    for w in &mut cdf {
        *w /= total;
    }
    Some(cdf)
}

fn sample_rank(rng: &mut Rng, cdf: &Option<Vec<f64>>, n: u64) -> u64 {
    match cdf {
        None => rng.range_u64(0, n),
        Some(cdf) => {
            let u = rng.f64_unit();
            let idx = cdf.partition_point(|&c| c < u);
            (idx as u64).min(n - 1)
        }
    }
}

/// A named scenario class: a seeded generator of [`ScenarioSpec`]s.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioFamily {
    /// Stable family name (CLI `--scenario NAME`, fuzz reports, memo keys).
    pub name: &'static str,
    /// One-line description for listings.
    pub what: &'static str,
    /// Draws a concrete spec from the family's parameter ranges.
    pub make: fn(u64) -> ScenarioSpec,
}

/// Salt separating family parameter draws from trace lowering draws.
const FAMILY_SALT: u64 = 0xA076_1D64_78BD_642F;

fn family_rng(name: &str, seed: u64) -> Rng {
    let mut h = FAMILY_SALT ^ seed;
    for b in name.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
    }
    Rng::new(h)
}

fn steady_phase(ws: u64, base: u64, wf: f64, ops: usize, max_dt: u64) -> Phase {
    Phase {
        ops,
        base_line: base,
        working_set: ws,
        zipf_s: 0.0,
        write_start: wf,
        write_end: wf,
        max_dt_ns: max_dt,
        burst_ops: 0,
        rewrite_interval_ns: None,
    }
}

fn make_phase_shift(seed: u64) -> ScenarioSpec {
    let mut rng = family_rng("phase-shift", seed);
    let phases = rng.range_usize(2, 6);
    let ws = rng.range_u64(48, 200);
    let wf = rng.range_f64(0.2, 0.6);
    let max_dt = rng.range_u64(100, 500);
    let specs = (0..phases)
        .map(|p| {
            // Each phase slides the window; overlap is partial, so some
            // lines survive the shift and some are cold-missed anew.
            let base = p as u64 * ws / rng.range_u64(1, 4);
            steady_phase(ws, base, wf, rng.range_usize(60, 140), max_dt)
        })
        .collect();
    ScenarioSpec {
        name: format!("phase-shift:{seed}"),
        phases: specs,
    }
}

fn make_zipf_hot(seed: u64) -> ScenarioSpec {
    let mut rng = family_rng("zipf-hot", seed);
    let ws = rng.range_u64(100, 600);
    let phase = Phase {
        ops: rng.range_usize(200, 400),
        base_line: rng.range_u64(0, 64),
        working_set: ws,
        zipf_s: rng.range_f64(0.7, 1.8),
        write_start: rng.range_f64(0.2, 0.7),
        write_end: rng.range_f64(0.2, 0.7),
        max_dt_ns: rng.range_u64(100, 500),
        burst_ops: 0,
        rewrite_interval_ns: None,
    };
    ScenarioSpec {
        name: format!("zipf-hot:{seed}"),
        phases: vec![phase],
    }
}

fn make_write_ramp(seed: u64) -> ScenarioSpec {
    let mut rng = family_rng("write-ramp", seed);
    let ws = rng.range_u64(64, 300);
    let up = Phase {
        ops: rng.range_usize(120, 250),
        base_line: 0,
        working_set: ws,
        zipf_s: rng.range_f64(0.0, 0.8),
        write_start: 0.0,
        write_end: rng.range_f64(0.7, 0.95),
        max_dt_ns: rng.range_u64(100, 400),
        burst_ops: 0,
        rewrite_interval_ns: None,
    };
    let down = Phase {
        write_start: up.write_end,
        write_end: 0.05,
        ops: rng.range_usize(60, 150),
        ..up.clone()
    };
    ScenarioSpec {
        name: format!("write-ramp:{seed}"),
        phases: vec![up, down],
    }
}

fn make_grid_burst(seed: u64) -> ScenarioSpec {
    let mut rng = family_rng("grid-burst", seed);
    let grids = rng.range_usize(2, 5);
    let ws = rng.range_u64(64, 250);
    let phases = (0..grids)
        .map(|_| {
            let ops = rng.range_usize(80, 160);
            Phase {
                ops,
                // Grids share the footprint: each consumes its
                // predecessor's output, so base_line stays put.
                base_line: 0,
                working_set: ws,
                zipf_s: rng.range_f64(0.0, 0.6),
                write_start: rng.range_f64(0.02, 0.15),
                write_end: rng.range_f64(0.02, 0.15),
                max_dt_ns: rng.range_u64(100, 400),
                burst_ops: (ops / rng.range_usize(4, 8)).max(4),
                rewrite_interval_ns: None,
            }
        })
        .collect();
    ScenarioSpec {
        name: format!("grid-burst:{seed}"),
        phases,
    }
}

fn make_rewrite_clock(seed: u64) -> ScenarioSpec {
    let mut rng = family_rng("rewrite-clock", seed);
    let ws = rng.range_u64(32, 160);
    let phase = Phase {
        ops: rng.range_usize(200, 400),
        base_line: 0,
        working_set: ws,
        zipf_s: rng.range_f64(0.0, 1.0),
        write_start: rng.range_f64(0.25, 0.5),
        write_end: rng.range_f64(0.25, 0.5),
        max_dt_ns: rng.range_u64(80, 300),
        burst_ops: 0,
        // Sub-10 µs rewrite intervals: the temporal-WWS regime the LR
        // part's short retention is sized for.
        rewrite_interval_ns: Some(rng.range_u64(200, 8_000)),
    };
    ScenarioSpec {
        name: format!("rewrite-clock:{seed}"),
        phases: vec![phase],
    }
}

fn make_scan_thrash(seed: u64) -> ScenarioSpec {
    let mut rng = family_rng("scan-thrash", seed);
    let hot_ws = rng.range_u64(16, 64);
    let scan_ws = rng.range_u64(400, 1_200);
    let rounds = rng.range_usize(1, 3);
    let mut phases = Vec::new();
    for r in 0..rounds {
        phases.push(Phase {
            ops: rng.range_usize(60, 120),
            base_line: 0,
            working_set: hot_ws,
            zipf_s: rng.range_f64(0.8, 1.5),
            write_start: rng.range_f64(0.3, 0.6),
            write_end: rng.range_f64(0.3, 0.6),
            max_dt_ns: rng.range_u64(100, 300),
            burst_ops: 0,
            rewrite_interval_ns: None,
        });
        // A streaming scan bigger than any corner cache thrashes every
        // set between visits to the hot phase.
        phases.push(steady_phase(
            scan_ws,
            1_000 + r as u64 * scan_ws,
            rng.range_f64(0.1, 0.4),
            rng.range_usize(80, 160),
            rng.range_u64(100, 300),
        ));
    }
    ScenarioSpec {
        name: format!("scan-thrash:{seed}"),
        phases,
    }
}

/// The built-in scenario families, in stable order (fuzz case indices
/// and memo keys depend on it).
pub fn scenario_families() -> Vec<ScenarioFamily> {
    vec![
        ScenarioFamily {
            name: "phase-shift",
            what: "working set slides between phases; partial overlap",
            make: make_phase_shift,
        },
        ScenarioFamily {
            name: "zipf-hot",
            what: "single phase, Zipf-skewed hot set",
            make: make_zipf_hot,
        },
        ScenarioFamily {
            name: "write-ramp",
            what: "write fraction ramps up then back down",
            make: make_write_ramp,
        },
        ScenarioFamily {
            name: "grid-burst",
            what: "read-mostly grids, writes bursting at grid ends",
            make: make_grid_burst,
        },
        ScenarioFamily {
            name: "rewrite-clock",
            what: "written lines re-written on a target interval",
            make: make_rewrite_clock,
        },
        ScenarioFamily {
            name: "scan-thrash",
            what: "hot Zipf set alternating with cache-busting scans",
            make: make_scan_thrash,
        },
    ]
}

/// Looks a family up by name.
pub fn scenario_by_name(name: &str) -> Option<ScenarioFamily> {
    scenario_families().into_iter().find(|f| f.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_are_uniquely_named_and_at_least_four() {
        let fams = scenario_families();
        assert!(fams.len() >= 4, "acceptance floor: four scenario families");
        let mut names: Vec<_> = fams.iter().map(|f| f.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), fams.len(), "duplicate family names");
    }

    #[test]
    fn lowering_is_deterministic_and_seed_sensitive() {
        for fam in scenario_families() {
            let a = (fam.make)(11);
            let b = (fam.make)(11);
            assert_eq!(a, b, "{}: spec must be deterministic", fam.name);
            assert_eq!(
                a.lower(3),
                b.lower(3),
                "{}: lowering must be deterministic",
                fam.name
            );
            assert_ne!(
                a.lower(3),
                a.lower(4),
                "{}: lowering must vary in the seed",
                fam.name
            );
            assert_ne!(
                (fam.make)(11),
                (fam.make)(12),
                "{}: spec must vary in the seed",
                fam.name
            );
        }
    }

    #[test]
    fn lowered_ops_are_well_formed() {
        for fam in scenario_families() {
            for seed in [0, 7, 99] {
                let spec = (fam.make)(seed);
                let ops = spec.lower(seed);
                assert_eq!(ops.len(), spec.total_ops(), "{}", fam.name);
                assert!(!ops.is_empty(), "{}: empty scenario", fam.name);
                for op in &ops {
                    assert!(op.dt_ns >= 1, "{}: dt must advance time", fam.name);
                }
            }
        }
    }

    #[test]
    fn write_ramp_actually_ramps() {
        let spec = (scenario_by_name("write-ramp").expect("family").make)(5);
        let ops = spec.lower(5);
        let first = &ops[..ops.len() / 4];
        let up_end = spec.phases[0].ops;
        let peak = &ops[3 * up_end / 4..up_end];
        let frac = |s: &[Op]| s.iter().filter(|o| o.write).count() as f64 / s.len() as f64;
        assert!(
            frac(peak) > frac(first) + 0.2,
            "ramp must raise the write fraction: start {:.2}, peak {:.2}",
            frac(first),
            frac(peak)
        );
    }

    #[test]
    fn grid_burst_ends_in_writes() {
        let spec = (scenario_by_name("grid-burst").expect("family").make)(5);
        let ops = spec.lower(5);
        let burst = spec.phases[0].burst_ops;
        let end = spec.phases[0].ops;
        assert!(burst >= 4);
        for op in &ops[end - burst..end] {
            assert!(op.write, "grid-end ops must all be writes");
            assert_eq!(op.dt_ns, 1, "burst ops are back to back");
        }
    }

    #[test]
    fn zipf_concentrates_on_the_head() {
        let spec = (scenario_by_name("zipf-hot").expect("family").make)(1);
        let ops = spec.lower(1);
        let base = spec.phases[0].base_line;
        let ws = spec.phases[0].working_set;
        let head = ops
            .iter()
            .filter(|o| o.line - base < (ws / 10).max(1))
            .count();
        assert!(
            head as f64 > ops.len() as f64 * 0.3,
            "a Zipf head must draw well over its uniform share ({head}/{})",
            ops.len()
        );
    }

    #[test]
    fn rewrite_clock_rewrites_written_lines() {
        let spec = (scenario_by_name("rewrite-clock").expect("family").make)(3);
        let ops = spec.lower(3);
        let mut seen = std::collections::HashMap::new();
        let mut rewrites = 0usize;
        for op in &ops {
            if op.write {
                rewrites += usize::from(seen.contains_key(&op.line));
                seen.insert(op.line, ());
            }
        }
        assert!(
            rewrites > ops.len() / 10,
            "rewrite targets must produce repeated writes ({rewrites})"
        );
    }

    #[test]
    fn phase_shift_moves_the_window() {
        let spec = (scenario_by_name("phase-shift").expect("family").make)(9);
        assert!(spec.phases.len() >= 2);
        let bases: std::collections::HashSet<u64> =
            spec.phases.iter().map(|p| p.base_line).collect();
        assert!(bases.len() >= 2, "phases must not all share a base");
    }
}
