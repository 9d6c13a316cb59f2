//! Record/replay equivalence: recording a built-in workload's LLC call
//! stream and replaying the file against a fresh LLC must reproduce the
//! recording run's statistics block exactly — the property that pins
//! the trace format as capturing everything the LLC observes.

use std::path::PathBuf;

use sttgpu_cache::AccessKind;
use sttgpu_core::{LlcModel, TwoPartConfig, TwoPartLlc, TwoPartStats};
use sttgpu_device::energy::EnergyEvent;
use sttgpu_device::mtj::RetentionTime;
use sttgpu_experiments::{record_workload, replay_records, L2Choice, RunPlan};
use sttgpu_tracefile::{open, save, TraceRecord};

fn tmp(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn plan() -> RunPlan {
    RunPlan::full().with_scale(0.05)
}

#[test]
fn record_then_replay_is_stats_identical_for_three_workloads() {
    for workload in ["lud", "nw", "bfs"] {
        let recording =
            record_workload(L2Choice::TwoPartC1, workload, &plan()).expect("known workload");
        assert!(
            !recording.records.is_empty(),
            "{workload}: the run must touch the LLC"
        );

        // Through the file: save, read back, replay — the on-disk format
        // is part of the property, not just the in-memory records.
        let path = tmp(&format!("{workload}.trc"));
        save(&path, recording.header, &recording.records).expect("save");
        let reader = open(&path).expect("open");
        let header = reader.header();
        let records: Vec<TraceRecord> = reader.collect::<Result<_, _>>().expect("records");
        assert_eq!(records.len(), recording.records.len());

        let cfg = sttgpu_experiments::configs::two_part_config(L2Choice::TwoPartC1).expect("C1");
        let replay = replay_records(&cfg, &header, &records, true).expect("replay");
        assert_eq!(
            replay.stats, recording.stats,
            "{workload}: replayed stats must match the recording run exactly"
        );
        let report = replay.check.expect("checker attached");
        assert!(
            report.is_clean(),
            "{workload}: checker violations in replay: {:?}",
            report.samples
        );
    }
}

#[test]
fn recording_does_not_perturb_the_run() {
    // The call log is observation only: a recorded run's stats must
    // equal an unrecorded run's.
    let recording = record_workload(L2Choice::TwoPartC1, "nw", &plan()).expect("known workload");
    let direct = sttgpu_experiments::runner::run(
        L2Choice::TwoPartC1,
        &sttgpu_workloads::suite::by_name("nw").expect("nw"),
        &plan(),
    );
    assert_eq!(
        Some(recording.stats),
        direct.two_part,
        "logging must not change what the LLC observes"
    );
}

/// Replays a raw call stream into a fresh LLC built from `cfg`. With
/// `own_cadence`, the recorded maintains give way to maintains at the
/// LLC's own cadence, issued as the record clock passes each deadline,
/// the way `MemSystem` issues them.
fn replay_raw(cfg: TwoPartConfig, records: &[TraceRecord], own_cadence: bool) -> TwoPartLlc {
    let line_bytes = cfg.line_bytes as u64;
    let mut llc = TwoPartLlc::new(cfg);
    let cadence = llc.maintenance_interval_ns();
    let mut next_maintain_ns = cadence;
    for rec in records {
        if own_cadence {
            while next_maintain_ns <= rec.at_ns() {
                llc.maintain(next_maintain_ns);
                next_maintain_ns += cadence;
            }
        }
        match *rec {
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
            TraceRecord::Maintain { at_ns } if !own_cadence => llc.maintain(at_ns),
            TraceRecord::Maintain { .. } => {}
        }
    }
    llc
}

/// The LLC's dynamic energy per category, as exact `f64` bit patterns.
fn energy_bits(llc: &TwoPartLlc) -> [u64; 8] {
    EnergyEvent::ALL.map(|ev| llc.energy().dynamic_nj_for(ev).to_bits())
}

/// Pins the raw GPU call stream's outcome to literal numbers, so a change
/// to the LLC's lookup or retention machinery that alters any statistic
/// fails here even though record and replay would still agree with each
/// other. The stream reaches the LLC out of time order across banks,
/// which the oracle's time-monotone traces never do. The verbatim C1
/// replay pins the demand path. The stream is too short for C1's
/// retention, so it is also replayed on C1 with 2 us LR and 3 us HR
/// retention, maintained at that LLC's own cadence: hundreds of
/// refreshes, HR expiries and evacuations on a full buffer, whose order
/// depends on how out-of-order deadlines are queued.
#[test]
fn raw_gpu_stream_replays_to_the_pinned_snapshot() {
    let recording = record_workload(L2Choice::TwoPartC1, "nw", &plan()).expect("known workload");
    let out_of_order = recording
        .records
        .windows(2)
        .filter(|pair| pair[1].at_ns() < pair[0].at_ns())
        .count();
    assert!(out_of_order > 0, "the GPU stream must be non-monotone");

    let c1 = sttgpu_experiments::configs::two_part_config(L2Choice::TwoPartC1).expect("C1");
    let short = c1
        .clone()
        .with_lr_retention(RetentionTime::from_micros(2.0))
        .with_hr_retention(RetentionTime::from_micros(3.0));
    let llc = replay_raw(c1, &recording.records, false);
    assert_eq!(
        *llc.stats(),
        TwoPartStats {
            lr_read_hits: 69,
            hr_read_hits: 24,
            lr_write_hits: 348,
            hr_write_hits: 53,
            read_misses: 164,
            write_misses: 437,
            demand_writes_lr: 851,
            lr_array_writes: 851,
            hr_array_writes: 185,
            migrations_to_lr: 53,
            demotions_to_hr: 34,
            second_search_hits: 122,
            fills_to_lr: 450,
            fills_to_hr: 151,
            ..TwoPartStats::default()
        }
    );
    assert_eq!(
        energy_bits(&llc),
        [
            0x40399edc06648229,
            0x403ab9ee1c9620da,
            0x405e5324646cc698,
            0,
            0x402ac634afb89d32,
            0x3febd70a3d70a3dc,
            0,
            0,
        ]
    );

    let llc = replay_raw(short, &recording.records, true);
    assert_eq!(
        *llc.stats(),
        TwoPartStats {
            lr_read_hits: 64,
            hr_read_hits: 21,
            lr_write_hits: 334,
            hr_write_hits: 44,
            read_misses: 172,
            write_misses: 460,
            demand_writes_lr: 828,
            lr_array_writes: 1033,
            hr_array_writes: 178,
            migrations_to_lr: 44,
            demotions_to_hr: 27,
            refreshes: 205,
            hr_expirations: 67,
            writebacks: 109,
            overflow_writebacks: 103,
            second_search_hits: 108,
            fills_to_lr: 450,
            fills_to_hr: 151,
            ..TwoPartStats::default()
        }
    );
    assert_eq!(
        energy_bits(&llc),
        [
            0x4039e33cd240b7ea,
            0x403705e5926a9c31,
            0x405a1cb17a5064ee,
            0x4045c5fae2f20d51,
            0x40226aacd3ef04bb,
            0x4006147ae147adf3,
            0x4029d138f7ba2fa6,
            0,
        ]
    );
}
