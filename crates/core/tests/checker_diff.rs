//! Differential replay with the invariant checker attached.
//!
//! The same pseudo-random, write-heavy access stream is replayed twice
//! through [`TwoPartLlc`] — once bare, once with a [`Checker`] sink
//! observing every event — across corner geometries of [`TwoPartConfig`]
//! (1-way LR, equal-size parts, refresh-tail extremes, single-slot swap
//! buffers). Attaching the checker must not perturb a single hit/miss
//! outcome, counter, or energy ledger entry, and the checker must report
//! zero invariant violations on every stream.

use std::cell::RefCell;
use std::rc::Rc;

use sttgpu_cache::AccessKind;
use sttgpu_core::{LlcModel, LlcStats, TwoPartConfig, TwoPartLlc};
use sttgpu_device::energy::EnergyEvent;
use sttgpu_stats::Rng;
use sttgpu_trace::{CheckReport, Checker, EventSink, Trace, TraceEvent, ENERGY_CATEGORIES};

/// One random op: (is_write, line index, time advance in ns).
type Op = (bool, u64, u64);

fn stream(seed: u64, ops: usize, write_fraction: f64) -> Vec<Op> {
    let mut rng = Rng::new(seed);
    (0..ops)
        .map(|_| {
            (
                rng.chance(write_fraction),
                rng.range_u64(0, 150),
                rng.range_u64(1, 400),
            )
        })
        .collect()
}

/// Replays `ops`, calling `maintain` at the model's own cadence. Returns
/// the per-op hit outcomes, final stats, total dynamic energy, and the
/// checker's report when one was attached.
fn replay(
    cfg: &TwoPartConfig,
    ops: &[Op],
    check: bool,
) -> (Vec<bool>, LlcStats, f64, Option<CheckReport>) {
    let mut llc = TwoPartLlc::new(cfg.clone());
    let cadence = llc.maintenance_interval_ns();
    let checker = check.then(|| {
        // Deadlines are serviced up to one maintenance interval late, so
        // the age-based invariants get exactly that much slack.
        let c = Rc::new(RefCell::new(Checker::new(
            cfg.check_config().with_slack_ns(cadence),
        )));
        llc.set_trace(Trace::to_sink(Rc::clone(&c)));
        c
    });
    let mut hits = Vec::with_capacity(ops.len());
    let mut now = 1u64;
    let mut last_maintain = now;
    for &(is_write, line, dt) in ops {
        now += dt;
        while now - last_maintain >= cadence {
            last_maintain += cadence;
            llc.maintain(last_maintain);
        }
        let kind = if is_write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let addr = line * cfg.line_bytes as u64;
        let hit = llc.probe(addr, kind, now).hit;
        if !hit {
            llc.fill(addr, is_write, now);
        }
        hits.push(hit);
    }
    let stats = llc.summary();
    let energy = llc.energy().dynamic_nj();
    let report = checker.map(|c| {
        let mut c = c.borrow_mut();
        // Feed the model's own ledgers back so the conservation
        // invariants (accesses = hits + misses, energy totals = sum of
        // per-event deposits) are enforced as well.
        c.emit(&TraceEvent::MetricsReport {
            read_hits: stats.read_hits,
            read_misses: stats.read_misses,
            write_hits: stats.write_hits,
            write_misses: stats.write_misses,
            writebacks: stats.writebacks,
        });
        let mut by_category = [0.0; ENERGY_CATEGORIES];
        for ev in EnergyEvent::ALL {
            by_category[ev.index()] = llc.energy().dynamic_nj_for(ev);
        }
        c.emit(&TraceEvent::EnergyReport {
            by_category,
            total_nj: energy,
        });
        c.finish_run(true);
        c.report()
    });
    (hits, stats, energy, report)
}

fn corner_configs() -> Vec<(&'static str, TwoPartConfig)> {
    let base = TwoPartConfig::new(8, 2, 56, 7, 256);
    vec![
        ("paper-shape", base.clone()),
        ("one-way-lr", TwoPartConfig::new(4, 1, 56, 7, 256)),
        ("equal-parts", TwoPartConfig::new(32, 4, 32, 4, 256)),
        ("tail-slack-max", base.clone().with_refresh_slack_ticks(14)),
        ("single-slot-buffers", base.with_buffer_blocks(1)),
    ]
}

fn stats_tuple(s: &LlcStats) -> (u64, u64, u64, u64, u64) {
    (
        s.read_hits,
        s.read_misses,
        s.write_hits,
        s.write_misses,
        s.writebacks,
    )
}

/// High write intensity across every corner geometry: the checker sees
/// zero violations, and attaching it changes nothing observable.
#[test]
fn checker_is_clean_and_transparent_across_corner_geometries() {
    for (name, cfg) in corner_configs() {
        for seed in [0xD1FF, 0xD2FF, 0xD3FF] {
            let ops = stream(seed, 4_000, 0.8);
            let (bare_hits, bare_stats, bare_energy, none) = replay(&cfg, &ops, false);
            assert!(none.is_none());
            let (checked_hits, checked_stats, checked_energy, report) = replay(&cfg, &ops, true);
            assert_eq!(
                bare_hits, checked_hits,
                "[{name}/{seed:#x}] checker perturbed hit/miss outcomes"
            );
            assert_eq!(
                stats_tuple(&bare_stats),
                stats_tuple(&checked_stats),
                "[{name}/{seed:#x}] checker perturbed counters"
            );
            assert_eq!(
                bare_energy.to_bits(),
                checked_energy.to_bits(),
                "[{name}/{seed:#x}] checker perturbed the energy ledger"
            );
            let report = report.expect("checker attached");
            assert!(
                report.events_seen > 0,
                "[{name}/{seed:#x}] no events observed"
            );
            assert!(
                report.is_clean(),
                "[{name}/{seed:#x}] {} violation(s):\n{}",
                report.violations,
                report.samples.join("\n")
            );
        }
    }
}

/// Read-mostly traffic at the other extreme keeps the checker clean too
/// (regression guard for the HR expiry horizon).
#[test]
fn checker_is_clean_on_read_mostly_traffic() {
    for (name, cfg) in corner_configs() {
        let ops = stream(0xEAD, 4_000, 0.05);
        let (_, _, _, report) = replay(&cfg, &ops, true);
        let report = report.expect("checker attached");
        assert!(
            report.is_clean(),
            "[{name}] {} violation(s):\n{}",
            report.violations,
            report.samples.join("\n")
        );
    }
}
