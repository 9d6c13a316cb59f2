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

use sttgpu_core::{
    close_check, AnyLlc, FaultConfig, LlcModel, LlcPolicy, LlcStats, RequestClock, SearchMode,
    SingleLlc, TwoPartConfig, TwoPartLlc,
};
use sttgpu_device::cell::MemTechnology;
use sttgpu_device::energy::EnergyEvent;
use sttgpu_device::mtj::RetentionTime;
use sttgpu_stats::Rng;
use sttgpu_trace::{CheckReport, Checker, Trace, TraceEvent, VecSink};

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

/// Replays `ops` under the requests discipline. Returns the per-op hit
/// outcomes, final stats, total dynamic energy, and the checker's report
/// when one was attached.
fn replay(
    cfg: &TwoPartConfig,
    ops: &[Op],
    check: bool,
) -> (Vec<bool>, LlcStats, f64, Option<CheckReport>) {
    let mut llc = TwoPartLlc::new(cfg.clone());
    let cadence = llc.maintenance_interval_ns();
    let mut clock = RequestClock::new(cadence);
    let checker = check.then(|| {
        // Deadlines are serviced up to one maintenance interval late, so
        // the age-based invariants get exactly that much slack.
        let c = Rc::new(RefCell::new(Checker::new(
            cfg.check_config().with_slack_ns(cadence),
        )));
        llc.set_trace(Trace::to_sink(Rc::clone(&c)));
        c
    });
    let hits = ops
        .iter()
        .map(|&(is_write, line, dt)| clock.access(&mut llc, dt, line, is_write))
        .collect();
    // The model's own ledgers close the run, so the conservation
    // invariants (accesses = hits + misses, energy totals = sum of
    // per-event deposits) are enforced as well.
    let report = checker.map(|c| close_check(&mut c.borrow_mut(), &llc, true));
    (hits, llc.summary(), llc.energy().dynamic_nj(), report)
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

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Replays `ops` into `llc` with a [`VecSink`] attached and digests what
/// it observed: every event's `Debug` rendering in emission order, then
/// the energy ledger per category. Returns the digest and the events.
fn event_digest(mut llc: AnyLlc, ops: &[Op]) -> (u64, Vec<TraceEvent>) {
    let sink = Rc::new(RefCell::new(VecSink::new()));
    llc.set_trace(Trace::to_sink(Rc::clone(&sink)));
    let mut clock = RequestClock::new(llc.maintenance_interval_ns());
    for &(is_write, line, dt) in ops {
        clock.access(&mut llc, dt, line, is_write);
    }
    let events = sink.borrow_mut().take();
    let mut h = 0xcbf2_9ce4_8422_2325;
    for ev in &events {
        h = fnv1a(h, format!("{ev:?}").as_bytes());
    }
    for ev in EnergyEvent::ALL {
        h = fnv1a(h, &llc.energy().dynamic_nj_for(ev).to_bits().to_le_bytes());
    }
    (h, events)
}

/// Every LLC flavour's exact event stream and energy ledger, pinned per
/// configuration: a refactor of the LLC models must keep every event,
/// every deposit and their order. Idle gaps past the HR retention make
/// expiries fire everywhere, and each non-corner config is checked to
/// fire the mechanism it exists for.
#[test]
fn event_streams_are_pinned() {
    let base = TwoPartConfig::new(8, 2, 56, 7, 256);
    let stt = MemTechnology::stt_for_retention(RetentionTime::from_years(10.0));
    let mut cases: Vec<(&str, AnyLlc)> = corner_configs()
        .into_iter()
        .chain([
            (
                "parallel-search",
                base.clone().with_search(SearchMode::Parallel),
            ),
            ("write-threshold-3", base.clone().with_write_threshold(3)),
            ("lr-rotation", base.clone().with_lr_rotation_ms(0.2)),
            (
                "faults",
                base.clone().with_fault(FaultConfig::uniform(7, 3e-3)),
            ),
            (
                "adaptive-retention",
                base.with_policy(LlcPolicy::AdaptiveRetention),
            ),
        ])
        .map(|(name, cfg)| (name, TwoPartLlc::new(cfg).into()))
        .collect();
    cases.push((
        "single-sram",
        SingleLlc::new(16, 4, 256, 4, MemTechnology::Sram).into(),
    ));
    cases.push(("single-stt", SingleLlc::new(16, 4, 256, 4, stt).into()));
    let pinned: [(&str, u64); 12] = [
        ("paper-shape", 0x9ea41103f0357958),
        ("one-way-lr", 0x9e09fee4c2a67f21),
        ("equal-parts", 0xa0abf5a9b15c7f08),
        ("tail-slack-max", 0x55a175e31e99353c),
        ("single-slot-buffers", 0x063aa3ec4981593e),
        ("parallel-search", 0x7fbbb0d3311b641d),
        ("write-threshold-3", 0xe954200f38637df5),
        ("lr-rotation", 0x4df9528631025d19),
        ("faults", 0xdf125bc89cde64e2),
        ("adaptive-retention", 0x387a1f47df2085e4),
        ("single-sram", 0x0004e849bcda2484),
        ("single-stt", 0x9884ce3ba06a1290),
    ];
    let ops: Vec<Op> = stream(0xE7E7, 6_000, 0.4)
        .into_iter()
        .enumerate()
        .map(|(i, (w, line, dt))| (w, line, if i % 1000 == 999 { 5_000_000 } else { dt }))
        .collect();
    assert_eq!(cases.len(), pinned.len());
    for ((name, llc), &(pinned_name, want)) in cases.into_iter().zip(&pinned) {
        assert_eq!(name, pinned_name);
        let (digest, events) = event_digest(llc, &ops);
        let fired = |pred: fn(&TraceEvent) -> bool| events.iter().any(pred);
        let exercised = match name {
            "faults" => {
                fired(|e| matches!(e, TraceEvent::EccCorrected { .. }))
                    && fired(|e| matches!(e, TraceEvent::EccUncorrectable { .. }))
                    && fired(|e| matches!(e, TraceEvent::RefreshDropped { .. }))
                    && fired(|e| matches!(e, TraceEvent::BufferStall { .. }))
                    && fired(|e| matches!(e, TraceEvent::BankFault { .. }))
            }
            "adaptive-retention" => fired(|e| matches!(e, TraceEvent::PolicySwitch { .. })),
            "single-slot-buffers" => fired(|e| matches!(e, TraceEvent::BufferOverflow { .. })),
            "single-sram" | "single-stt" => fired(|e| matches!(e, TraceEvent::Evict { .. })),
            _ => fired(|e| matches!(e, TraceEvent::Expire { .. })),
        };
        assert!(
            exercised,
            "[{name}] the stream misses the config's mechanism"
        );
        assert_eq!(digest, want, "[{name}] event stream digest {digest:#018x}");
    }
}
