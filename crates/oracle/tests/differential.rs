//! Bounded differential sweep: every corner geometry, several seeds.
//!
//! This is the tier-1 face of the fuzzing oracle — small enough to run
//! in every `cargo test`, broad enough that a semantic drift between
//! `TwoPartLlc` and the reference model shows up here first. On
//! failure the diverging trace is minimized and printed as checkable
//! `Op` literals.

use sttgpu_core::{SearchMode, TwoPartConfig};
use sttgpu_device::mtj::RetentionTime;
use sttgpu_oracle::{
    corner_geometries, format_trace, fuzz, fuzz_sharded, generate, run_case, scenario_families,
    shrink, Op,
};

/// Panics with the minimized trace if `ops` diverges on `cfg`.
fn assert_agrees(label: &str, cfg: &TwoPartConfig, ops: &[Op]) {
    if let Some(divergence) = run_case(cfg, ops) {
        let minimized = shrink(cfg, ops);
        panic!(
            "[{label}] {divergence}\nminimized trace ({} ops):\n{}",
            minimized.len(),
            format_trace(&minimized)
        );
    }
}

#[test]
fn oracle_matches_the_implementation_across_corner_geometries() {
    for (c, corner) in corner_geometries().iter().enumerate() {
        for s in 0..4u64 {
            let seed = 0xD1FF_0000 + (c as u64) * 16 + s;
            let ops = generate(seed, &corner.spec);
            assert_agrees(
                &format!("{} seed {seed:#x}", corner.name),
                &corner.cfg,
                &ops,
            );
        }
    }
}

/// Every corner geometry has power-of-two set counts, so the set index
/// of both machines is a mask there. This geometry (24 LR sets, 48 HR
/// sets) sends the implementation through its reciprocal set index and
/// the reference model through `%`. It stays out of
/// `corner_geometries()` so the fuzz campaign is unchanged.
#[test]
fn oracle_matches_the_implementation_on_non_power_of_two_sets() {
    let base = TwoPartConfig::new(12, 2, 84, 7, 256);
    assert_eq!((base.lr_sets(), base.hr_sets()), (24, 48));
    let variants = [
        ("npot", base.clone()),
        (
            "npot-parallel",
            base.clone().with_search(SearchMode::Parallel),
        ),
        (
            "npot-th3-tight-buffers",
            base.clone().with_write_threshold(3).with_buffer_blocks(1),
        ),
        ("npot-slack", base.clone().with_refresh_slack_ticks(14)),
        (
            "npot-odd-retention",
            base.with_lr_retention(RetentionTime::from_nanos(1000.0))
                .with_hr_retention(RetentionTime::from_micros(20.0)),
        ),
    ];
    let corners = corner_geometries();
    let families = scenario_families();
    for (name, cfg) in &variants {
        for s in 0..8u64 {
            let seed = 0x0DD5_E700 + s;
            for corner in &corners {
                let ops = generate(seed, &corner.spec);
                let label = format!("{name} {} spec seed {seed:#x}", corner.name);
                assert_agrees(&label, cfg, &ops);
            }
            for fam in &families {
                let ops = (fam.make)(seed).lower(seed.rotate_left(17));
                let label = format!("{name} scenario {} seed {seed:#x}", fam.name);
                assert_agrees(&label, cfg, &ops);
            }
        }
    }
}

#[test]
fn fuzz_campaign_smoke_run_is_clean() {
    let report = fuzz(27, 0xF422_5EED);
    assert_eq!(report.cases, 27);
    assert!(report.corners >= 6);
    if let Some(f) = report.failures.first() {
        panic!(
            "[{} seed {:#x}] {}\nminimized trace:\n{}",
            f.corner,
            f.seed,
            f.divergence,
            format_trace(&f.minimized)
        );
    }
}

/// Sharding a campaign across worker threads must not change the report:
/// per-case seeds and corners are functions of the global case index, and
/// shard results merge back in case order.
#[test]
fn sharded_fuzz_report_is_identical_to_serial() {
    let serial = fuzz(53, 0x5AD_5EED);
    for shards in [1u64, 2, 3, 4, 8, 64, 1000] {
        let sharded = fuzz_sharded(53, 0x5AD_5EED, shards);
        assert_eq!(serial, sharded, "report diverged at shards={shards}");
    }
}
