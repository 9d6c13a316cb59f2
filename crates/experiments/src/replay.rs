//! Trace-driven replay: driving a [`TwoPartLlc`] from a trace file or a
//! generated scenario, without the SM front-end.
//!
//! The entry points:
//!
//! * [`record_workload`] runs a built-in workload with the simulator's
//!   LLC call log on and returns the verbatim probe/fill/maintain
//!   stream as raw-mode trace records — replaying them through
//!   [`replay_records`] reproduces the run's [`TwoPartStats`] bit for
//!   bit, which is the property the record/replay equivalence test
//!   pins.
//! * [`replay_records`] replays either trace mode against a fresh LLC,
//!   one record at a time: raw records are issued exactly as written;
//!   requests-mode records run on a [`RequestClock`], the requests
//!   discipline the oracle's lockstep driver shares (maintenance swept
//!   at the cadence, miss filled immediately, dirty iff the access was
//!   a write).
//!   [`replay_trace_file`] is `repro --trace`: the same replay, then
//!   the oracle differential, each a streaming pass over the file.
//! * [`run_scenario`] lowers a named scenario family under a seed,
//!   differential-tests the resulting trace across every oracle corner
//!   geometry and replays it on the C1 geometry for a stats block.

use std::cell::RefCell;
use std::path::Path;
use std::rc::Rc;

use sttgpu_cache::AccessKind;
use sttgpu_core::{close_check, LlcModel, RequestClock, TwoPartConfig, TwoPartLlc, TwoPartStats};
use sttgpu_oracle::{
    corner_geometries, ops_to_records, request_ops, run_case, run_case_records, scenario_by_name,
    Divergence, Op, ScenarioFamily, ScenarioSpec,
};
use sttgpu_sim::Gpu;
use sttgpu_trace::{CheckReport, Trace};
use sttgpu_tracefile::{TraceError, TraceHeader, TraceMode, TraceRecord};
use sttgpu_workloads::suite;

use crate::configs::{gpu_config, two_part_config, L2Choice};
use crate::runner::{checker_for, RunPlan};

/// Everything captured from one trace replay.
#[derive(Debug, Clone)]
pub struct ReplayOutput {
    /// The replayed LLC's full statistics block.
    pub stats: TwoPartStats,
    /// Records replayed.
    pub records: u64,
    /// Timestamp of the last replayed call, ns.
    pub end_ns: u64,
    /// Invariant-checker report when requested; `None` otherwise.
    pub check: Option<CheckReport>,
}

/// A recorded workload run: the raw-mode call stream plus the stats the
/// recording run itself produced (the replay must reproduce them).
#[derive(Debug, Clone)]
pub struct Recording {
    /// Raw-mode header (the recording config's line size).
    pub header: TraceHeader,
    /// The verbatim LLC call stream.
    pub records: Vec<TraceRecord>,
    /// The recording run's own LLC statistics block.
    pub stats: TwoPartStats,
}

/// Replays trace records against a fresh [`TwoPartLlc`] built from
/// `cfg`, streaming the slice through the same replay as
/// [`replay_trace_file`]: raw records verbatim, requests on a
/// [`RequestClock`]; a checked replay ends in [`close_check`].
pub fn replay_records(
    cfg: &TwoPartConfig,
    header: &TraceHeader,
    records: &[TraceRecord],
    check: bool,
) -> Result<ReplayOutput, String> {
    replay_stream(cfg, header, records.iter().map(|&rec| Ok(rec)), check)
}

/// Replays a record stream against a fresh [`TwoPartLlc`] built from
/// `cfg`, one record at a time, so memory does not grow with the
/// stream's length.
///
/// Raw-mode records are issued verbatim — every probe, fill and
/// maintain exactly as recorded, in recorded order — so the resulting
/// statistics block matches the recording run's. Requests-mode records
/// pass through the oracle's [`request_ops`] adapter and run on a
/// [`RequestClock`]: the clock starts one tick past the epoch,
/// maintenance sweeps at the cadence before each access, and every miss
/// fills immediately (dirty iff the access was a write).
///
/// Fails (with a printable message, never a panic) when the trace's
/// line size does not match the geometry's, or when the stream yields
/// an error, such as a truncated file or a requests-discipline
/// violation.
fn replay_stream<I>(
    cfg: &TwoPartConfig,
    header: &TraceHeader,
    records: I,
    check: bool,
) -> Result<ReplayOutput, String>
where
    I: IntoIterator<Item = Result<TraceRecord, TraceError>>,
{
    if header.line_bytes != cfg.line_bytes {
        return Err(format!(
            "trace is {}-byte-line granular but the replay geometry uses {}-byte lines",
            header.line_bytes, cfg.line_bytes
        ));
    }
    let mut llc = TwoPartLlc::new(cfg.clone());
    let checker = check.then(|| {
        // Recorded probes trail the maintenance engines exactly as in
        // the simulator, so the replay gets C1's timing slack.
        let checker = checker_for(
            cfg.check_config(),
            llc.maintenance_interval_ns(),
            gpu_config(L2Choice::TwoPartC1).icnt_latency_ns,
        );
        let checker = Rc::new(RefCell::new(checker));
        llc.set_trace(Trace::to_sink(Rc::clone(&checker)));
        checker
    });
    let (replayed, end_ns) = match header.mode {
        TraceMode::Raw => replay_raw(&mut llc, records),
        TraceMode::Requests => replay_requests(&mut llc, request_ops(records)),
    }
    .map_err(|e| e.to_string())?;
    let check = checker.map(|c| close_check(&mut c.borrow_mut(), &llc, true));
    Ok(ReplayOutput {
        stats: *llc.stats(),
        records: replayed,
        end_ns,
        check,
    })
}

/// Issues raw records verbatim; returns how many, and the last one's
/// timestamp.
fn replay_raw(
    llc: &mut TwoPartLlc,
    records: impl IntoIterator<Item = Result<TraceRecord, TraceError>>,
) -> Result<(u64, u64), TraceError> {
    let line_bytes = u64::from(llc.config().line_bytes);
    let (mut replayed, mut end_ns) = (0, 0);
    for rec in records {
        let rec = rec?;
        replayed += 1;
        end_ns = rec.at_ns();
        match rec {
            TraceRecord::Access { at_ns, line, write } => {
                let kind = if write {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                llc.probe(line * line_bytes, kind, at_ns);
            }
            TraceRecord::Fill { at_ns, line, dirty } => {
                llc.fill(line * line_bytes, dirty, at_ns);
            }
            TraceRecord::Maintain { at_ns } => llc.maintain(at_ns),
        }
    }
    Ok((replayed, end_ns))
}

/// Drives `llc` through requests on a [`RequestClock`]; returns how
/// many, and the final clock.
fn replay_requests(
    llc: &mut TwoPartLlc,
    ops: impl Iterator<Item = Result<Op, TraceError>>,
) -> Result<(u64, u64), TraceError> {
    let mut clock = RequestClock::new(llc.maintenance_interval_ns());
    let mut replayed = 0;
    for op in ops {
        let op = op?;
        replayed += 1;
        clock.access(llc, op.dt_ns, op.line, op.write);
    }
    Ok((replayed, clock.now_ns()))
}

/// What `repro --trace` learns from one trace file.
#[derive(Debug, Clone)]
pub struct TraceFileRun {
    /// The file's header.
    pub header: TraceHeader,
    /// The replay on the given geometry.
    pub replay: ReplayOutput,
    /// The first divergence from the oracle. Only requests-mode files
    /// are compared: a raw file encodes an exact call sequence that the
    /// oracle's discipline cannot re-derive, so it is always `None`.
    pub divergence: Option<Divergence>,
}

/// Replays the trace file at `path` against `cfg` in two streaming
/// passes, so memory stays constant however long the file is: the
/// replay (with the invariant checker when `check`), then, for a
/// requests-mode file, the oracle differential ([`run_case_records`]).
/// Every failure to read the file is a message naming it.
pub fn replay_trace_file(
    cfg: &TwoPartConfig,
    path: &Path,
    check: bool,
) -> Result<TraceFileRun, String> {
    let named = |e: &dyn std::fmt::Display| format!("{}: {e}", path.display());
    let records = sttgpu_tracefile::open(path).map_err(|e| named(&e))?;
    let header = records.header();
    let replay = replay_stream(cfg, &header, records, check).map_err(|e| named(&e))?;
    let divergence = match header.mode {
        TraceMode::Raw => None,
        TraceMode::Requests => sttgpu_tracefile::open(path)
            .and_then(|records| run_case_records(cfg, records))
            .map_err(|e| named(&e))?,
    };
    Ok(TraceFileRun {
        header,
        replay,
        divergence,
    })
}

/// Runs `workload` (scaled by the plan) on the `choice` GPU with the
/// LLC call log on, and returns the verbatim call stream as raw-mode
/// records together with the run's own stats block.
///
/// Fails when `choice` is not a two-part design point: raw traces exist
/// to replay against [`TwoPartLlc`].
pub fn record_workload(
    choice: L2Choice,
    workload_name: &str,
    plan: &RunPlan,
) -> Result<Recording, String> {
    if two_part_config(choice).is_none() {
        return Err(format!(
            "{} is not a two-part configuration; record against C1/C2/C3",
            choice.label()
        ));
    }
    let workload = suite::by_name(workload_name)
        .ok_or_else(|| format!("unknown workload: {workload_name}"))?;
    let scaled = plan.scaled(&workload);
    let cfg = gpu_config(choice);
    let line_bytes = cfg.l2_line_bytes;
    let mut gpu = Gpu::new(cfg);
    gpu.start_llc_call_log();
    gpu.run_workload(&scaled, plan.max_cycles);
    let records = gpu.take_llc_call_log().expect("call log was started");
    let stats = *gpu
        .llc()
        .as_two_part()
        .expect("two-part choice checked above")
        .stats();
    Ok(Recording {
        header: TraceHeader::raw(line_bytes),
        records,
        stats,
    })
}

/// Outcome of one scenario run: the differential verdict across every
/// corner geometry plus a C1 stats block.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Family the trace was drawn from.
    pub family: &'static str,
    /// Seed the spec and trace were drawn under.
    pub seed: u64,
    /// Display name of the concrete spec (family plus seed).
    pub spec_name: String,
    /// Operations in the lowered trace.
    pub ops: usize,
    /// Corners that diverged (empty = differential clean).
    pub divergences: Vec<(&'static str, Divergence)>,
    /// Replay of the trace on the C1 geometry.
    pub replay: ReplayOutput,
}

impl ScenarioOutcome {
    /// Whether the differential ran clean and any attached checker
    /// stayed green.
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty() && self.replay.check.as_ref().is_none_or(CheckReport::is_clean)
    }
}

/// The spec and request stream scenario family `fam` lowers to under
/// `seed`.
fn lower_family(fam: &ScenarioFamily, seed: u64) -> (ScenarioSpec, Vec<Op>) {
    let spec = (fam.make)(seed);
    let ops = spec.lower(seed.rotate_left(17));
    (spec, ops)
}

fn family_named(family: &str) -> Result<ScenarioFamily, String> {
    scenario_by_name(family).ok_or_else(|| format!("unknown scenario family: {family}"))
}

/// The request stream [`run_scenario`] replays for `family`
/// under `seed`, in the oracle's [`Op`] form.
pub fn scenario_ops(family: &str, seed: u64) -> Result<Vec<Op>, String> {
    Ok(lower_family(&family_named(family)?, seed).1)
}

/// Lowers scenario `family` under `seed`, differential-tests the trace
/// across every corner geometry and replays it on C1 (with the
/// invariant checker when `check`).
pub fn run_scenario(family: &str, seed: u64, check: bool) -> Result<ScenarioOutcome, String> {
    let fam = family_named(family)?;
    let (spec, ops) = lower_family(&fam, seed);
    let divergences: Vec<(&'static str, Divergence)> = corner_geometries()
        .iter()
        .filter_map(|corner| run_case(&corner.cfg, &ops).map(|d| (corner.name, d)))
        .collect();
    let cfg = two_part_config(L2Choice::TwoPartC1).expect("C1 is two-part");
    let header = TraceHeader::requests(cfg.line_bytes);
    let replay = replay_records(&cfg, &header, &ops_to_records(&ops), check)?;
    Ok(ScenarioOutcome {
        family: fam.name,
        seed,
        spec_name: spec.name,
        ops: ops.len(),
        divergences,
        replay,
    })
}

/// Renders a [`TwoPartStats`] block, one `name value` line per counter —
/// the block `--trace`, `--scenario` and `--record` print, and the one
/// record/replay equivalence compares.
pub fn render_stats(s: &TwoPartStats) -> String {
    let mut out = String::new();
    for (name, v) in s.fields() {
        out.push_str(&format!("{name:<22} {v}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_plan() -> RunPlan {
        RunPlan::full().with_scale(0.05)
    }

    #[test]
    fn recording_refuses_non_two_part_choices() {
        let err = record_workload(L2Choice::SramBaseline, "nw", &tiny_plan()).unwrap_err();
        assert!(err.contains("not a two-part"), "{err}");
    }

    #[test]
    fn recording_an_unknown_workload_fails_cleanly() {
        let err = record_workload(L2Choice::TwoPartC1, "no-such", &tiny_plan()).unwrap_err();
        assert!(err.contains("unknown workload"), "{err}");
    }

    #[test]
    fn replay_rejects_mismatched_line_sizes() {
        let cfg = two_part_config(L2Choice::TwoPartC1).expect("C1");
        let header = TraceHeader::requests(64);
        let err = replay_records(&cfg, &header, &[], false).unwrap_err();
        assert!(err.contains("line"), "{err}");
    }

    #[test]
    fn unknown_scenario_families_fail_cleanly() {
        let err = run_scenario("no-such-family", 1, false).unwrap_err();
        assert!(err.contains("unknown scenario family"), "{err}");
    }

    #[test]
    fn scenario_replay_with_checker_stays_green() {
        let out = run_scenario("grid-burst", 3, true).expect("known family");
        let report = out.replay.check.as_ref().expect("checker attached");
        assert!(
            report.is_clean(),
            "checker violations: {:?}",
            report.samples
        );
        assert!(out.is_clean(), "grid-burst:3 must be divergence-free");
        assert!(out.ops > 0);
    }

    #[test]
    fn rendered_stats_cover_every_counter() {
        let s = TwoPartStats::default();
        let text = render_stats(&s);
        assert_eq!(text.lines().count(), 27);
        assert!(text.contains("second_search_hits"));
    }
}
