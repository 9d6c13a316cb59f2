//! Streaming requests-mode replay against pinned values. Every scenario
//! family, and a long phase-varying stream shaped like the
//! `llc-retention` benchmark, must replay to the statistics block and
//! final clock pinned from the replay that first collected the stream
//! into a `Vec<Op>` — from the op list's record view, from collected
//! records and from a trace file alike. A
//! discipline violation at record k fails with the message that replay
//! gave. The file `save_ops` writes for a scenario keeps its pinned
//! bytes.

use std::path::PathBuf;

use sttgpu_core::TwoPartConfig;
use sttgpu_experiments::configs::two_part_config;
use sttgpu_experiments::{render_stats, replay_records, replay_trace_file, scenario_ops, L2Choice};
use sttgpu_oracle::{
    ops_to_records, records_to_ops, run_case_records, save_ops, Op, Phase, ScenarioSpec,
};
use sttgpu_stats::Rng;
use sttgpu_tracefile::{TraceError, TraceHeader, TraceRecord};

fn c1() -> TwoPartConfig {
    two_part_config(L2Choice::TwoPartC1).expect("C1 is two-part")
}

/// FNV-1a over `bytes`: a rendered statistics block or a trace file.
fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Replays `ops` on C1 from their record view, from those records
/// collected into a `Vec`, then from a trace file; each must give the
/// pinned final clock and stats digest, and the file pass must find no
/// divergence from the oracle.
fn assert_replays_to(name: &str, ops: &[Op], end_ns: u64, stats_digest: u64) {
    let cfg = c1();
    let header = TraceHeader::requests(cfg.line_bytes);
    let out = replay_records(&cfg, &header, ops_to_records(ops), false).expect("clean stream");
    assert_eq!(out.records, ops.len() as u64, "{name}");
    assert_eq!(
        (out.end_ns, digest(render_stats(&out.stats).as_bytes())),
        (end_ns, stats_digest),
        "{name}: view replay moved from the pinned values"
    );
    let collected: Vec<TraceRecord> = ops_to_records(ops).into_iter().collect();
    let from_vec = replay_records(&cfg, &header, &collected, false).expect("clean records");
    assert_eq!(from_vec.stats, out.stats, "{name}: collected records");
    assert_eq!(from_vec.end_ns, end_ns, "{name}: collected records");
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("stream-{name}.trc"));
    save_ops(&path, cfg.line_bytes, ops).expect("save");
    let run = replay_trace_file(&cfg, &path, false).expect("clean file");
    assert_eq!(run.replay.stats, out.stats, "{name}.trc");
    assert_eq!(run.replay.end_ns, end_ns, "{name}.trc");
    assert_eq!(run.replay.records, ops.len() as u64, "{name}.trc");
    assert_eq!(run.divergence, None, "{name}.trc");
    let _ = std::fs::remove_file(path);
}

#[test]
fn scenario_families_replay_to_the_pinned_stats() {
    // (family, ops, end_ns, stats digest) at seed 11.
    let pins: [(&str, usize, u64, u64); 6] = [
        ("phase-shift", 385, 96_031, 0x658c_5285_a40c_c89b),
        ("zipf-hot", 287, 71_192, 0x0641_3df0_b881_3b3d),
        ("write-ramp", 297, 15_965, 0xea2c_bb20_956a_3ce6),
        ("grid-burst", 493, 43_664, 0x57a0_4ef0_1e69_8b85),
        ("rewrite-clock", 259, 40_520, 0x8fc7_1f4c_787f_d868),
        ("scan-thrash", 458, 53_499, 0x28c6_9369_bef3_1014),
    ];
    for (family, len, end_ns, stats_digest) in pins {
        let ops = scenario_ops(family, 11).expect("known family");
        assert_eq!(ops.len(), len, "{family}");
        assert_replays_to(family, &ops, end_ns, stats_digest);
    }
}

#[test]
fn a_saved_scenario_keeps_its_pinned_bytes() {
    // The file `repro --scenario zipf-hot:7 --trace-out` writes: its
    // length and FNV-1a digest, pinned from the writer that first
    // collected the records into a `Vec`.
    let ops = scenario_ops("zipf-hot", 7).expect("known family");
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("pinned-zipf-hot-7.trc");
    save_ops(&path, c1().line_bytes, &ops).expect("save");
    let bytes = std::fs::read(&path).expect("read back");
    let _ = std::fs::remove_file(path);
    assert_eq!(
        (bytes.len(), digest(&bytes)),
        (1_268, 0x3a4b_0c0a_965b_b16b)
    );
}

/// A 32-phase stream in the shape of the `llc-retention` benchmark:
/// working sets around C1's 768-line LR part and rewrite clocks around
/// its 26.5 us retention, so the maintain and refresh path dominates.
fn retention_shaped(ops: usize) -> Vec<Op> {
    const PHASES: usize = 32;
    let mut rng = Rng::new(0x5245_5445);
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
        name: "retention-shaped".into(),
        phases,
    }
    .lower(17)
}

#[test]
fn retention_shaped_stream_replays_to_the_pinned_stats() {
    // 18 537 refreshes and 14 357 overflow write-backs in this stream.
    assert_replays_to(
        "retention-shaped",
        &retention_shaped(40_000),
        3_152_491,
        0x286f_c1a6_61ec_363b,
    );
}

#[test]
fn discipline_violations_fail_at_their_index() {
    let access = |at_ns| TraceRecord::Access {
        at_ns,
        line: at_ns % 7,
        write: at_ns % 20 == 0,
    };
    let cfg = c1();
    let header = TraceHeader::requests(cfg.line_bytes);
    let only = "only accesses are allowed";
    let increase = "timestamps must strictly increase";
    for k in [0usize, 2, 4] {
        let prev_ns = k as u64 * 10;
        let cases = [
            (
                TraceRecord::Fill {
                    at_ns: prev_ns + 5,
                    line: 1,
                    dirty: true,
                },
                only,
            ),
            (TraceRecord::Maintain { at_ns: prev_ns + 5 }, only),
            (access(prev_ns), increase),
            (access(prev_ns.saturating_sub(5)), increase),
        ];
        for (bad, what) in cases {
            let mut records: Vec<TraceRecord> = (1..=5).map(|i| access(i * 10)).collect();
            records.insert(k, bad);
            let want = format!("record #{k} violates the requests-mode discipline: {what}");
            let err = replay_records(&cfg, &header, &records, false).unwrap_err();
            assert_eq!(err, want, "{bad:?} at {k}");
            let err = records_to_ops(&records).unwrap_err();
            assert!(
                matches!(err, TraceError::Discipline { record, .. } if record == k as u64),
                "{bad:?} at {k}: {err}"
            );
            let err = run_case_records(&cfg, records.iter().map(|&r| Ok(r))).unwrap_err();
            assert_eq!(err.to_string(), want, "{bad:?} at {k}");
        }
    }
}
