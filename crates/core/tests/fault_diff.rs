//! Differential tests of the fault-injection subsystem.
//!
//! Three properties anchor trust in the fault model:
//!
//! 1. **Rate-0 transparency** — a zero-rate [`FaultConfig`] (even with a
//!    nonzero seed) must leave every hit/miss outcome, counter, energy
//!    ledger entry and trace event byte-identical to a fault-free run,
//!    across the same corner geometries `checker_diff` sweeps.
//! 2. **Checker-green under injection** — a seeded nonzero plan may
//!    degrade performance but must never produce an invariant violation:
//!    every ECC drop, dropped refresh and stalled buffer flows through
//!    the event vocabulary the [`Checker`] understands.
//! 3. **Corrected reads are architecturally invisible** — runs where
//!    SECDED corrected flips but nothing worse happened must match their
//!    fault-free twin in every outcome, counter and event except the
//!    correction bookkeeping itself.

use std::cell::RefCell;
use std::rc::Rc;

use sttgpu_core::{
    close_check, FaultConfig, LlcModel, RequestClock, TwoPartConfig, TwoPartLlc, TwoPartStats,
};
use sttgpu_device::energy::EnergyEvent;
use sttgpu_stats::Rng;
use sttgpu_trace::{Checker, Trace, TraceEvent, VecSink, ENERGY_CATEGORIES};

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

/// Everything observable from one replay: per-op hits, two-part
/// counters, the per-category energy ledger (bit patterns), and the full
/// event stream.
struct Observed {
    hits: Vec<bool>,
    stats: TwoPartStats,
    energy_bits: [u64; ENERGY_CATEGORIES],
    events: Vec<TraceEvent>,
}

fn replay(cfg: &TwoPartConfig, ops: &[Op]) -> Observed {
    let mut llc = TwoPartLlc::new(cfg.clone());
    let sink = Rc::new(RefCell::new(VecSink::new()));
    llc.set_trace(Trace::to_sink(Rc::clone(&sink)));
    let mut clock = RequestClock::new(llc.maintenance_interval_ns());
    let hits = ops
        .iter()
        .map(|&(is_write, line, dt)| clock.access(&mut llc, dt, line, is_write))
        .collect();
    let mut energy_bits = [0u64; ENERGY_CATEGORIES];
    for ev in EnergyEvent::ALL {
        energy_bits[ev.index()] = llc.energy().dynamic_nj_for(ev).to_bits();
    }
    let stats = *llc.stats();
    drop(llc);
    let events = Rc::try_unwrap(sink)
        .unwrap_or_else(|_| unreachable!("llc dropped its trace handle"))
        .into_inner()
        .take();
    Observed {
        hits,
        stats,
        energy_bits,
        events,
    }
}

/// A zero-rate plan — even with a seed — changes nothing, to the byte.
#[test]
fn zero_rate_fault_plan_is_byte_transparent() {
    let zero = FaultConfig {
        seed: 0xBEEF,
        ..FaultConfig::disabled()
    };
    for (name, cfg) in corner_configs() {
        for seed in [0xFA01, 0xFA02] {
            let ops = stream(seed, 3_000, 0.6);
            let clean = replay(&cfg, &ops);
            let zeroed = replay(&cfg.clone().with_fault(zero), &ops);
            assert_eq!(
                clean.hits, zeroed.hits,
                "[{name}/{seed:#x}] zero-rate plan perturbed hit/miss outcomes"
            );
            assert_eq!(
                clean.stats, zeroed.stats,
                "[{name}/{seed:#x}] zero-rate plan perturbed counters"
            );
            assert_eq!(
                clean.energy_bits, zeroed.energy_bits,
                "[{name}/{seed:#x}] zero-rate plan perturbed the energy ledger"
            );
            assert_eq!(
                clean.events, zeroed.events,
                "[{name}/{seed:#x}] zero-rate plan perturbed the event stream"
            );
        }
    }
}

/// Replays with the invariant checker attached and a live fault plan.
fn replay_checked(cfg: &TwoPartConfig, ops: &[Op]) -> (TwoPartStats, sttgpu_trace::CheckReport) {
    let mut llc = TwoPartLlc::new(cfg.clone());
    let cadence = llc.maintenance_interval_ns();
    let mut clock = RequestClock::new(cadence);
    let checker = Rc::new(RefCell::new(Checker::new(
        cfg.check_config().with_slack_ns(cadence),
    )));
    llc.set_trace(Trace::to_sink(Rc::clone(&checker)));
    for &(is_write, line, dt) in ops {
        clock.access(&mut llc, dt, line, is_write);
    }
    let report = close_check(&mut checker.borrow_mut(), &llc, true);
    (*llc.stats(), report)
}

/// A seeded nonzero plan injects real faults, and the checker stays
/// green through all of them on every corner geometry.
#[test]
fn checker_stays_green_under_seeded_injection() {
    let mut total_injected = 0u64;
    for (name, cfg) in corner_configs() {
        for rate in [1e-4, 1e-2] {
            let fault = FaultConfig::uniform(0x5EED, rate);
            let ops = stream(0xFA11, 4_000, 0.6);
            let (stats, report) = replay_checked(&cfg.clone().with_fault(fault), &ops);
            assert!(
                report.is_clean(),
                "[{name}/rate {rate}] {} violation(s):\n{}",
                report.violations,
                report.samples.join("\n")
            );
            total_injected += stats.ecc_corrections
                + stats.ecc_uncorrectable
                + stats.refresh_drops
                + stats.buffer_stalls
                + stats.bank_faults;
        }
    }
    assert!(
        total_injected > 0,
        "the sweep must actually inject something"
    );
}

/// Strips the correction bookkeeping (EccCorrected + the matching ECC
/// energy deposits) from an event stream.
fn without_correction_events(events: &[TraceEvent]) -> Vec<TraceEvent> {
    let ecc_category = EnergyEvent::Ecc.index() as u8;
    events
        .iter()
        .filter(|ev| {
            !matches!(ev, TraceEvent::EccCorrected { .. })
                && !matches!(ev, TraceEvent::EnergyDeposit { category, .. } if *category == ecc_category)
        })
        .cloned()
        .collect()
}

/// Property: a run where SECDED only ever *corrected* (no uncorrectable
/// errors, drops, stalls or bank faults) is architecturally identical to
/// its fault-free twin — same hits, same counters, same events, same
/// energy — apart from the correction bookkeeping itself.
#[test]
fn corrected_lines_never_alter_architectural_state() {
    let cfg = TwoPartConfig::new(8, 2, 56, 7, 256);
    let mut verified = 0;
    for seed in 0..12u64 {
        // A small flip rate keeps the per-epoch Poisson mass tiny, where
        // single-bit (correctable) flips dominate.
        let fault = FaultConfig {
            seed: 0xC0DE + seed,
            flip_rate: 2e-5,
            ..FaultConfig::disabled()
        };
        let ops = stream(0xAB0 + seed, 3_000, 0.5);
        let faulted = replay(&cfg.clone().with_fault(fault), &ops);
        let s = faulted.stats;
        if s.ecc_corrections == 0
            || s.ecc_uncorrectable != 0
            || s.refresh_drops != 0
            || s.buffer_stalls != 0
            || s.bank_faults != 0
        {
            continue; // not a corrected-only run; try the next seed
        }
        let clean = replay(&cfg, &ops);
        assert_eq!(
            clean.hits, faulted.hits,
            "[{seed}] corrected reads changed outcomes"
        );
        let mut masked = s;
        masked.ecc_corrections = 0;
        assert_eq!(
            clean.stats, masked,
            "[{seed}] corrected reads changed counters"
        );
        for ev in EnergyEvent::ALL {
            if ev != EnergyEvent::Ecc {
                assert_eq!(
                    clean.energy_bits[ev.index()],
                    faulted.energy_bits[ev.index()],
                    "[{seed}] corrected reads changed the {ev} ledger"
                );
            }
        }
        assert_eq!(
            clean.events,
            without_correction_events(&faulted.events),
            "[{seed}] corrected reads changed the event stream"
        );
        verified += 1;
    }
    assert!(
        verified >= 3,
        "only {verified} corrected-only runs found — recalibrate the rate"
    );
}
