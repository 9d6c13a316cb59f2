//! The differential driver: run a trace through the implementation and
//! the reference model in lockstep and report the first divergence.

use std::convert::Infallible;
use std::fmt;

use sttgpu_cache::AccessKind;
use sttgpu_core::{LlcModel, RequestClock, TwoPartConfig, TwoPartLlc};
use sttgpu_tracefile::{TraceError, TraceRecord};

use crate::corner::corner_geometries;
use crate::io::request_ops;
use crate::model::OracleLlc;
use crate::scenario::scenario_families;
use crate::shrink::shrink;
use crate::trace_gen::{generate, Op};

/// The first observable disagreement between model and implementation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Index of the op after which the disagreement surfaced (`None`
    /// for pre-trace checks such as the maintenance cadence).
    pub op_index: Option<usize>,
    /// Which observation differed (`hit`, `writebacks`, a residency
    /// bit, a counter named as in
    /// [`TwoPartStats::fields`](sttgpu_core::TwoPartStats::fields), or
    /// a `buffer.*` counter).
    pub field: &'static str,
    /// The reference model's value (booleans as 0/1).
    pub model: u64,
    /// The implementation's value.
    pub dut: u64,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.op_index {
            Some(i) => write!(
                f,
                "after op #{i}: {} diverged (model {}, implementation {})",
                self.field, self.model, self.dut
            ),
            None => write!(
                f,
                "before the trace: {} diverged (model {}, implementation {})",
                self.field, self.model, self.dut
            ),
        }
    }
}

/// Compares every post-op observation; returns the first mismatch.
fn compare_state(
    op_index: usize,
    la: u64,
    byte_addr: u64,
    dut: &TwoPartLlc,
    model: &OracleLlc,
) -> Option<Divergence> {
    let diverge = |field, model: u64, dut: u64| {
        (model != dut).then_some(Divergence {
            op_index: Some(op_index),
            field,
            model,
            dut,
        })
    };
    let dut_lr = dut.lr_contains(byte_addr);
    let dut_hr = dut.hr_contains(byte_addr);
    if dut_lr && dut_hr {
        // Not model-vs-implementation, but the exclusivity invariant is
        // free to check here and a residency bug often trips it first.
        return Some(Divergence {
            op_index: Some(op_index),
            field: "exclusive-residency",
            model: 0,
            dut: 2,
        });
    }
    diverge("lr_resident", model.lr_resident(la) as u64, dut_lr as u64)
        .or_else(|| diverge("hr_resident", model.hr_resident(la) as u64, dut_hr as u64))
        .or_else(|| {
            if dut.stats() == model.stats() {
                return None;
            }
            for ((field, m), (_, d)) in model.stats().fields().into_iter().zip(dut.stats().fields())
            {
                if m != d {
                    return Some(Divergence {
                        op_index: Some(op_index),
                        field,
                        model: m,
                        dut: d,
                    });
                }
            }
            unreachable!("unequal stats with equal fields");
        })
        .or_else(|| {
            diverge(
                "buffer.overflows",
                model.buffer_overflows(),
                dut.buffer_overflows(),
            )
        })
        .or_else(|| {
            let (m_hl, m_lh) = model.buffer_peaks();
            let (d_hl, d_lh) = dut.buffer_peaks();
            diverge("buffer.hr_to_lr_peak", m_hl as u64, d_hl as u64)
                .or_else(|| diverge("buffer.lr_to_hr_peak", m_lh as u64, d_lh as u64))
        })
}

/// Replays `ops` against a fresh implementation and a fresh model in
/// lockstep on one [`RequestClock`] — the requests discipline every
/// LLC-only harness shares: maintenance swept at the cadence both
/// machines agree on, fill-on-miss — and returns the first divergence,
/// or `None` when the machines stay observationally identical end to
/// end.
pub fn run_case(cfg: &TwoPartConfig, ops: &[Op]) -> Option<Divergence> {
    let Ok(verdict) = lockstep(cfg, ops.iter().map(|&op| Ok::<_, Infallible>(op)));
    verdict
}

/// [`run_case`] over a requests-mode record stream, such as an
/// [`open`](sttgpu_tracefile::open)ed trace file, converted one record
/// at a time by [`request_ops`], so memory stays constant in the stream
/// length. A malformed stream stops the run with its typed error.
pub fn run_case_records<I>(
    cfg: &TwoPartConfig,
    records: I,
) -> Result<Option<Divergence>, TraceError>
where
    I: IntoIterator<Item = Result<TraceRecord, TraceError>>,
{
    lockstep(cfg, request_ops(records))
}

/// The differential driver behind [`run_case`] and
/// [`run_case_records`]: both machines advance on one
/// [`RequestClock`], and the run stops at the first divergence or
/// stream error.
fn lockstep<E>(
    cfg: &TwoPartConfig,
    ops: impl Iterator<Item = Result<Op, E>>,
) -> Result<Option<Divergence>, E> {
    let mut dut = TwoPartLlc::new(cfg.clone());
    let mut model = OracleLlc::new(cfg);

    let cadence = dut.maintenance_interval_ns();
    if cadence != model.maintenance_interval_ns() {
        return Ok(Some(Divergence {
            op_index: None,
            field: "maintenance_interval_ns",
            model: model.maintenance_interval_ns(),
            dut: cadence,
        }));
    }

    let line_bytes = cfg.line_bytes as u64;
    let mut clock = RequestClock::new(cadence);
    for (i, op) in ops.enumerate() {
        let op = op?;
        let now = clock.advance(op.dt_ns, |t| {
            dut.maintain(t);
            model.maintain(t);
        });
        let byte_addr = op.line * line_bytes;
        let kind = if op.write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };

        let dut_probe = dut.probe(byte_addr, kind, now);
        let (model_hit, model_probe_wb) = model.probe(op.line, op.write, now);
        if dut_probe.hit != model_hit {
            return Ok(Some(Divergence {
                op_index: Some(i),
                field: "hit",
                model: model_hit as u64,
                dut: dut_probe.hit as u64,
            }));
        }

        let mut dut_wb = dut_probe.writebacks;
        let mut model_wb = model_probe_wb;
        if !dut_probe.hit {
            dut_wb += dut.fill(byte_addr, op.write, now).writebacks;
        }
        if !model_hit {
            model_wb += model.fill(op.line, op.write, now);
        }
        if dut_wb != model_wb {
            return Ok(Some(Divergence {
                op_index: Some(i),
                field: "writebacks",
                model: model_wb as u64,
                dut: dut_wb as u64,
            }));
        }

        if let Some(d) = compare_state(i, op.line, byte_addr, &dut, &model) {
            return Ok(Some(d));
        }
    }
    Ok(None)
}

/// One diverging fuzz case, minimized and ready to report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzFailure {
    /// Global case index within the campaign.
    pub case: u64,
    /// Corner the case ran on.
    pub corner: &'static str,
    /// Seed that generated the diverging trace.
    pub seed: u64,
    /// Scenario family the trace was drawn from, or `None` for a
    /// legacy corner-spec trace.
    pub scenario: Option<&'static str>,
    /// The divergence observed on the *original* trace.
    pub divergence: Divergence,
    /// The greedily minimized trace (still diverging).
    pub minimized: Vec<Op>,
}

/// Outcome of a fuzz campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzReport {
    /// Cases executed.
    pub cases: u64,
    /// Corner geometries rotated through.
    pub corners: usize,
    /// Every diverging case, minimized, in global case order.
    pub failures: Vec<FuzzFailure>,
}

/// Runs the contiguous case range `[lo, hi)` of a campaign seeded with
/// `base_seed`. Corner rotation, scenario rotation, per-case seeds and
/// shrinking depend only on the *global* case index, so a range's
/// results are identical whether it runs inside a serial sweep or on a
/// pool shard.
///
/// Even case indices draw the corner's own [`TraceSpec`](crate::TraceSpec) (the legacy
/// homogeneous mix, tuned per geometry); odd indices draw a scenario
/// family instead, rotating through [`scenario_families`] — so every
/// campaign exercises every family against every corner geometry.
fn fuzz_range(lo: u64, hi: u64, base_seed: u64) -> Vec<FuzzFailure> {
    let corners = corner_geometries();
    let families = scenario_families();
    let mut failures = Vec::new();
    for i in lo..hi {
        let corner = &corners[(i % corners.len() as u64) as usize];
        let seed = base_seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let (scenario, ops) = if i % 2 == 1 {
            let fam = &families[((i / 2) % families.len() as u64) as usize];
            let spec = (fam.make)(seed);
            (Some(fam.name), spec.lower(seed.rotate_left(17)))
        } else {
            (None, generate(seed, &corner.spec))
        };
        if let Some(divergence) = run_case(&corner.cfg, &ops) {
            let minimized = shrink(&corner.cfg, &ops);
            failures.push(FuzzFailure {
                case: i,
                corner: corner.name,
                seed,
                scenario,
                divergence,
                minimized,
            });
        }
    }
    failures
}

/// Runs `cases` seeded differential cases, round-robin across
/// [`corner_geometries`], deriving per-case seeds from `base_seed`.
/// Every divergence is minimized before it is reported.
pub fn fuzz(cases: u64, base_seed: u64) -> FuzzReport {
    fuzz_sharded(cases, base_seed, 1)
}

/// [`fuzz`], with the campaign split into `shards` contiguous case
/// ranges executed on scoped worker threads.
///
/// Each case derives its seed and corner from its global index exactly as
/// the serial sweep does, each shard shrinks its own failures, and shard
/// results are concatenated in shard (= case) order — so the report is
/// byte-identical to `fuzz(cases, base_seed)` for any shard count.
pub fn fuzz_sharded(cases: u64, base_seed: u64, shards: u64) -> FuzzReport {
    let corners = corner_geometries().len();
    let shards = shards.clamp(1, cases.max(1));
    let per_shard = cases.div_ceil(shards);
    let mut failures = Vec::new();
    if shards <= 1 {
        failures = fuzz_range(0, cases, base_seed);
    } else {
        let ranges: Vec<(u64, u64)> = (0..shards)
            .map(|s| ((s * per_shard).min(cases), ((s + 1) * per_shard).min(cases)))
            .filter(|(lo, hi)| lo < hi)
            .collect();
        let mut shard_results: Vec<Vec<FuzzFailure>> = std::thread::scope(|scope| {
            let handles: Vec<_> = ranges
                .iter()
                .map(|&(lo, hi)| scope.spawn(move || fuzz_range(lo, hi, base_seed)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("fuzz shard panicked"))
                .collect()
        });
        for shard in &mut shard_results {
            failures.append(shard);
        }
    }
    FuzzReport {
        cases,
        corners,
        failures,
    }
}
