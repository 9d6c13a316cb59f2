//! Runtime-adaptive policy tests against the live invariant checker.
//!
//! Two properties anchor the policy engine:
//!
//! 1. **Fixed is free** — selecting [`LlcPolicy::Fixed`] explicitly is
//!    byte-identical (every event, counter and energy bit) to the
//!    default configuration, and emits no `PolicySwitch` events.
//! 2. **Retention ladder switches keep the checker in step** — under
//!    [`LlcPolicy::AdaptiveRetention`] the ladder climbs when refreshes
//!    dominate, descends when demand writes dominate, and the
//!    `PolicySwitch`-driven window updates keep every post-switch
//!    refresh legal (the stale-window bugfix).

use std::cell::RefCell;
use std::rc::Rc;

use sttgpu_core::{
    close_check, LlcModel, LlcPolicy, RequestClock, TwoPartConfig, TwoPartLlc, TwoPartStats,
};
use sttgpu_device::mtj::RetentionTime;
use sttgpu_stats::Rng;
use sttgpu_trace::{CheckReport, Checker, Trace, TraceEvent, VecSink};

/// One op: (is_write, line index, time advance in ns).
type Op = (bool, u64, u64);

fn paper_shape() -> TwoPartConfig {
    TwoPartConfig::new(8, 2, 56, 7, 256)
}

/// Replays `ops` with the oracle's fill-on-miss discipline, recording
/// the full event stream.
fn replay_traced(cfg: &TwoPartConfig, ops: &[Op]) -> (TwoPartStats, Vec<TraceEvent>) {
    let mut llc = TwoPartLlc::new(cfg.clone());
    let sink = Rc::new(RefCell::new(VecSink::new()));
    llc.set_trace(Trace::to_sink(Rc::clone(&sink)));
    drive(&mut llc, ops);
    let stats = *llc.stats();
    drop(llc);
    let events = Rc::try_unwrap(sink)
        .unwrap_or_else(|_| unreachable!("llc dropped its trace handle"))
        .into_inner()
        .take();
    (stats, events)
}

/// Replays `ops` with the invariant checker attached, closing the run
/// with the metrics and energy reports.
fn replay_checked(cfg: &TwoPartConfig, ops: &[Op]) -> CheckReport {
    let mut llc = TwoPartLlc::new(cfg.clone());
    let cadence = llc.maintenance_interval_ns();
    let checker = Rc::new(RefCell::new(Checker::new(
        cfg.check_config().with_slack_ns(cadence),
    )));
    llc.set_trace(Trace::to_sink(Rc::clone(&checker)));
    drive(&mut llc, ops);
    let mut checker = checker.borrow_mut();
    close_check(&mut checker, &llc, true)
}

fn drive(llc: &mut TwoPartLlc, ops: &[Op]) {
    let mut clock = RequestClock::new(llc.maintenance_interval_ns());
    for &(is_write, line, dt) in ops {
        clock.access(llc, dt, line, is_write);
    }
}

/// The `lr_max_hit_age_ns` values carried by a run's LR `PolicySwitch`
/// events, in emission order.
fn retention_switches(events: &[TraceEvent]) -> Vec<u64> {
    events
        .iter()
        .filter_map(|ev| match *ev {
            TraceEvent::PolicySwitch {
                lr_max_hit_age_ns, ..
            } => Some(lr_max_hit_age_ns),
            _ => None,
        })
        .collect()
}

/// A mixed read/write stream over `lines` distinct lines.
fn stream(seed: u64, ops: usize, lines: u64, write_fraction: f64, max_dt: u64) -> Vec<Op> {
    let mut rng = Rng::new(seed);
    (0..ops)
        .map(|_| {
            (
                rng.chance(write_fraction),
                rng.range_u64(0, lines),
                rng.range_u64(1, max_dt),
            )
        })
        .collect()
}

#[test]
fn explicit_fixed_policy_is_byte_identical_to_the_default() {
    let ops = stream(0xF1DE, 3_000, 150, 0.6, 400);
    let default_run = replay_traced(&paper_shape(), &ops);
    let fixed_run = replay_traced(&paper_shape().with_policy(LlcPolicy::Fixed), &ops);
    assert_eq!(default_run.0, fixed_run.0);
    assert_eq!(default_run.1, fixed_run.1, "event streams must match");
    assert!(
        !default_run
            .1
            .iter()
            .any(|ev| matches!(ev, TraceEvent::PolicySwitch { .. })),
        "the fixed policy never reconfigures"
    );
}

#[test]
fn adaptive_retention_ladder_follows_refresh_pressure() {
    // A short 1 µs base retention makes refresh pressure visible within
    // a handful of 10 µs policy epochs.
    let cfg = paper_shape()
        .with_lr_retention(RetentionTime::from_nanos(1000.0))
        .with_hr_retention(RetentionTime::from_micros(20.0))
        .with_policy(LlcPolicy::AdaptiveRetention);

    // Park two dirty lines in LR, hold them read-only across many
    // retention periods (refresh-dominated epochs), then hammer them
    // with demand writes (write-dominated epochs).
    let mut ops: Vec<Op> = vec![(true, 1, 1), (true, 2, 1)];
    ops.extend((0..400).map(|i| (false, 1 + i % 2, 100)));
    ops.extend((0..600).map(|i| (true, 1 + i % 2, 20)));

    let (stats, events) = replay_traced(&cfg, &ops);
    let switches = retention_switches(&events);
    assert!(
        switches.contains(&2000),
        "refresh pressure must climb the ladder (saw {switches:?})"
    );
    assert!(
        switches.windows(2).any(|w| w[1] < w[0]),
        "write pressure must step back down (saw {switches:?})"
    );
    assert!(
        stats.refreshes > 0,
        "the run must exercise the refresh engine"
    );

    let report = replay_checked(&cfg, &ops);
    assert!(
        report.is_clean(),
        "{} violation(s):\n{}",
        report.violations,
        report.samples.join("\n")
    );
}
