//! Driving a `TwoPartLlc` from outside the simulator: the trace codec
//! calls, the two replay disciplines, and the inputs the LLC-only
//! workloads replay.

use sttgpu_cache::AccessKind;
use sttgpu_core::{LlcModel, TwoPartConfig, TwoPartLlc, TwoPartStats};
use sttgpu_oracle::{generate, Corner, Op, Phase, ScenarioFamily, ScenarioSpec};
use sttgpu_stats::Rng;
use sttgpu_tracefile::{TraceError, TraceHeader, TraceReader, TraceRecord, TraceWriter};

use crate::spans::{Call, Off, Tracing};
use crate::workloads::mix;

/// LLC calls issued directly by the benchmark.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Calls {
    /// `probe` calls.
    pub probes: u64,
    /// `fill` calls.
    pub fills: u64,
    /// `maintain` calls.
    pub maintains: u64,
}

impl Calls {
    /// Every call.
    pub fn total(&self) -> u64 {
        self.probes + self.fills + self.maintains
    }

    /// Adds `o`'s calls.
    pub fn add(&mut self, o: Calls) {
        self.probes += o.probes;
        self.fills += o.fills;
        self.maintains += o.maintains;
    }
}

/// Encodes a raw call stream in the binary trace format.
pub fn encode(records: &[TraceRecord], line_bytes: u32) -> Vec<u8> {
    let mut w = TraceWriter::new(Vec::new(), TraceHeader::raw(line_bytes))
        .expect("the line size comes from a valid configuration");
    for rec in records {
        w.write(rec).expect("raw mode takes every record");
    }
    w.finish().expect("writing to memory cannot fail")
}

/// Decodes a binary trace.
pub fn decode(bytes: &[u8]) -> Result<Vec<TraceRecord>, TraceError> {
    TraceReader::new(bytes)?.collect()
}

/// Issues a raw call stream verbatim, as `replay_records` does.
pub fn replay_raw<T: Tracing>(llc: &mut TwoPartLlc, records: &[TraceRecord], t: &mut T) -> Calls {
    let line_bytes = u64::from(llc.config().line_bytes);
    let mut calls = Calls::default();
    for rec in records {
        match *rec {
            TraceRecord::Access { at_ns, line, write } => {
                let kind = if write {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                t.call(Call::Probe, || llc.probe(line * line_bytes, kind, at_ns));
                calls.probes += 1;
            }
            TraceRecord::Fill { at_ns, line, dirty } => {
                t.call(Call::Fill, || llc.fill(line * line_bytes, dirty, at_ns));
                calls.fills += 1;
            }
            TraceRecord::Maintain { at_ns } => {
                t.call(Call::Maintain, || llc.maintain(at_ns));
                calls.maintains += 1;
            }
        }
    }
    calls
}

/// Replays requests under the oracle's discipline, as `replay_records`
/// does in requests mode: the clock starts one tick past the epoch,
/// maintenance sweeps at the LLC's cadence before each access, and every
/// miss fills at once, dirty if the access was a write.
pub fn replay_requests<T: Tracing>(llc: &mut TwoPartLlc, ops: &[Op], t: &mut T) -> Calls {
    let cadence = llc.maintenance_interval_ns();
    let line_bytes = u64::from(llc.config().line_bytes);
    let mut calls = Calls::default();
    let mut now = 1u64;
    let mut last_maintain = now;
    for op in ops {
        now += op.dt_ns.max(1);
        while now - last_maintain >= cadence {
            last_maintain += cadence;
            t.call(Call::Maintain, || llc.maintain(last_maintain));
            calls.maintains += 1;
        }
        let addr = op.line * line_bytes;
        let kind = if op.write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        calls.probes += 1;
        if !t.call(Call::Probe, || llc.probe(addr, kind, now)).hit {
            t.call(Call::Fill, || llc.fill(addr, op.write, now));
            calls.fills += 1;
        }
    }
    calls
}

/// The llc-retention stream's phases. C1's LR part holds 192 KB of
/// 256 B lines, 768 lines, for 26.5 µs. Working sets of 512–1152 lines
/// sit around that capacity, and rewrite clocks of 20–34 µs sit around
/// that retention, so most LR lines reach their last retention tick
/// before their next write and must be refreshed. Requests arrive about
/// 80 ns apart, so maintenance sweeps, not probes, take most of the
/// replay. 32 phases average the drawn parameters, which keeps the work
/// of one stream within a few percent across seeds.
pub fn retention_spec(seed: u64, ops: usize) -> ScenarioSpec {
    const PHASES: usize = 32;
    let mut rng = Rng::new(mix(seed, 0x5245_5445));
    let phases = (0..PHASES)
        .map(|p| {
            let n = ops / PHASES + usize::from(p < ops % PHASES);
            Phase {
                ops: n,
                base_line: p as u64 * 2_048,
                working_set: rng.range_u64(512, 1_152),
                zipf_s: rng.range_f64(0.0, 0.6),
                write_start: rng.range_f64(0.3, 0.6),
                write_end: rng.range_f64(0.3, 0.6),
                max_dt_ns: rng.range_u64(120, 200),
                burst_ops: n / 100,
                rewrite_interval_ns: Some(rng.range_u64(20_000, 34_000)),
            }
        })
        .collect();
    ScenarioSpec {
        name: format!("llc-retention:{seed}"),
        phases,
    }
}

/// The corner and requests of fuzz case `i`, derived exactly as
/// `oracle::fuzz` derives them: corners round-robin by case index, even
/// cases draw the corner's own trace shape and odd cases rotate through
/// the scenario families.
pub fn fuzz_case<'a>(
    corners: &'a [Corner],
    families: &[ScenarioFamily],
    seed: u64,
    i: u64,
) -> (&'a Corner, Vec<Op>) {
    let corner = &corners[(i % corners.len() as u64) as usize];
    let seed = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let ops = if i % 2 == 1 {
        let fam = &families[((i / 2) % families.len() as u64) as usize];
        (fam.make)(seed).lower(seed.rotate_left(17))
    } else {
        generate(seed, &corner.spec)
    };
    (corner, ops)
}

/// Replays a fuzz case's requests on a fresh LLC of its corner, alone.
pub fn dut_replay(cfg: &TwoPartConfig, ops: &[Op]) -> TwoPartStats {
    let mut llc = TwoPartLlc::new(cfg.clone());
    replay_requests(&mut llc, ops, &mut Off);
    *llc.stats()
}
