//! The runtime LLC policy engine.
//!
//! The paper fixes three decisions at design time: the WWS write-threshold
//! migration rule, the per-part retention targets, and the LR/HR capacity
//! split. [`PolicyEngine`] holds the first two as plain data selected
//! from [`TwoPartConfig`]: the threshold comparisons are inline, and
//! [`PolicyEngine::poll`] takes the runtime retention step.
//!
//! Two policies ship:
//!
//! * [`LlcPolicy::Fixed`] — the paper-exact configuration. The engine
//!   never evaluates an epoch, so the cache is observationally identical
//!   (to the byte) to one with the decisions hard-coded.
//! * [`LlcPolicy::AdaptiveRetention`] — HALLS-style runtime retention
//!   scaling: per epoch, if the LR part refreshes more than it absorbs
//!   demand writes, the retention ladder steps up (fewer refreshes);
//!   if demand writes dominate refreshes 4:1 it steps back down (cheaper
//!   writes). Levels multiply the base LR retention by
//!   [`RETENTION_LADDER`].
//!
//! The LR/HR capacity split stays fixed at design time under both, as
//! in the paper.
//!
//! The same engine is embedded by both [`TwoPartLlc`](crate::TwoPartLlc)
//! and the differential oracle, so adaptive decisions provably coincide:
//! the oracle harness compares the full statistics block after every
//! operation, and the engine's decisions are a pure function of those
//! statistics plus time.

use std::fmt;

use sttgpu_device::mtj::RetentionTime;

use crate::config::TwoPartConfig;
use crate::retention::RetentionTracker;
use crate::two_part::TwoPartStats;

/// Length of one policy-evaluation epoch, ns. Short enough that fuzz
/// traces (tens of microseconds) cross several epochs, long enough to
/// accumulate a meaningful stats delta.
pub(crate) const POLICY_EPOCH_NS: u64 = 10_000;

/// Retention multipliers the adaptive-retention ladder steps through,
/// level 0 first. Level 0 is the configured (paper) retention target.
pub(crate) const RETENTION_LADDER: [u64; 3] = [1, 2, 4];

/// Which shipped policy bundle a [`TwoPartConfig`] selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LlcPolicy {
    /// The paper-exact fixed policy (default): threshold migration,
    /// static retention, static partition.
    #[default]
    Fixed,
    /// HALLS-style runtime retention-level adaptation of the LR part.
    AdaptiveRetention,
}

impl LlcPolicy {
    /// Every shipped policy, `Fixed` first.
    pub const ALL: [LlcPolicy; 2] = [LlcPolicy::Fixed, LlcPolicy::AdaptiveRetention];

    /// The policy's registry name (the `--llc-policy` CLI value).
    pub fn name(self) -> &'static str {
        match self {
            LlcPolicy::Fixed => "fixed",
            LlcPolicy::AdaptiveRetention => "adaptive-retention",
        }
    }

    /// Looks a policy up by its registry name.
    pub fn parse(name: &str) -> Option<LlcPolicy> {
        LlcPolicy::ALL.into_iter().find(|p| p.name() == name)
    }
}

impl fmt::Display for LlcPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The runtime policy engine both the cache implementation and the
/// differential oracle embed.
///
/// All decision state (epoch clock, stats baseline, ladder level) lives
/// here, in one shared type — the two machines cannot drift apart by
/// hand-mirroring a state machine, because there is only one.
#[derive(Debug, Clone)]
pub struct PolicyEngine {
    policy: LlcPolicy,
    write_threshold: u32,
    retention_level: u32,
    next_epoch_ns: u64,
    /// `refreshes` and `demand_writes_lr` at the last evaluation: the
    /// only two counters an epoch's delta reads.
    base_refreshes: u64,
    base_demand_writes_lr: u64,
    switches: u64,
}

impl PolicyEngine {
    /// Instantiates the engine the configuration names.
    pub fn new(cfg: &TwoPartConfig) -> Self {
        PolicyEngine {
            policy: cfg.policy,
            write_threshold: cfg.write_threshold,
            retention_level: 0,
            next_epoch_ns: POLICY_EPOCH_NS,
            base_refreshes: 0,
            base_demand_writes_lr: 0,
            switches: 0,
        }
    }

    /// The selected policy.
    pub fn policy(&self) -> LlcPolicy {
        self.policy
    }

    /// Number of reconfigurations applied so far.
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// Whether a block whose (post-write) HR write count is `write_count`
    /// migrates to LR now: the paper's saturating threshold rule.
    pub fn should_migrate(&self, write_count: u32) -> bool {
        write_count >= self.write_threshold
    }

    /// Whether the next demand write to a block at `count_before_write`
    /// migrates — `should_migrate` one write later (the fault model's ECC
    /// prediction hook).
    pub(crate) fn migration_due(&self, count_before_write: u32) -> bool {
        count_before_write.saturating_add(1) >= self.write_threshold
    }

    /// Whether a DRAM fill of the given dirtiness lands in LR: a dirty
    /// fill is one write, so it does iff one write meets the threshold.
    pub fn fill_to_lr(&self, dirty: bool) -> bool {
        dirty && 1 >= self.write_threshold
    }

    /// Evaluates at most one policy epoch. Call from `maintain` before
    /// the refresh/expiry engines, passing the machine's current
    /// statistics; apply any returned LR retention level immediately. A
    /// fixed engine returns `None` without touching any state.
    pub fn poll(&mut self, now_ns: u64, stats: &TwoPartStats) -> Option<u32> {
        if self.policy == LlcPolicy::Fixed || now_ns < self.next_epoch_ns {
            return None;
        }
        // One evaluation per crossing, re-armed on the epoch grid, so
        // sparse maintenance (long idle gaps) costs one evaluation, not
        // one per elapsed epoch.
        self.next_epoch_ns = (now_ns / POLICY_EPOCH_NS + 1) * POLICY_EPOCH_NS;
        let level = halls_step(
            stats.refreshes.saturating_sub(self.base_refreshes),
            stats
                .demand_writes_lr
                .saturating_sub(self.base_demand_writes_lr),
            self.retention_level,
        );
        self.base_refreshes = stats.refreshes;
        self.base_demand_writes_lr = stats.demand_writes_lr;
        if let Some(level) = level {
            self.retention_level = level;
            self.switches += 1;
        }
        level
    }

    /// Re-zeroes the stats-delta baseline; call wherever the embedding
    /// machine resets its statistics, or the first post-reset epoch would
    /// see a wildly negative (saturated-to-zero) delta window.
    pub(crate) fn reset_baseline(&mut self) {
        self.base_refreshes = 0;
        self.base_demand_writes_lr = 0;
    }
}

/// HALLS-style retention step over one epoch's LR refreshes and demand
/// writes: a refresh-dominated epoch climbs the ladder (longer retention,
/// fewer refreshes); a write-dominated one (demand writes outnumbering
/// refreshes 4:1) descends it (cheaper LR writes). Returns the new level,
/// or `None` to stay.
fn halls_step(refreshes: u64, demand_writes: u64, level: u32) -> Option<u32> {
    let top = (RETENTION_LADDER.len() - 1) as u32;
    if refreshes > demand_writes && level < top {
        Some(level + 1)
    } else if refreshes * 4 < demand_writes && level > 0 {
        Some(level - 1)
    } else {
        None
    }
}

/// The LR retention tracker at ladder level `level` (level 0 = the
/// configured base retention).
pub fn lr_tracker_at(base: RetentionTime, bits: u32, level: u32) -> RetentionTracker {
    let mult = RETENTION_LADDER[level as usize];
    let scaled = RetentionTime::from_nanos((base.as_nanos_u64() * mult) as f64);
    RetentionTracker::new(scaled, bits)
}

/// The LR maintenance-cadence floor under `policy`: the minimum safe
/// sweep interval over every retention level the policy can select, so a
/// cadence chosen at setup stays sound across runtime switches.
pub fn lr_maintenance_floor_ns(policy: LlcPolicy, base: RetentionTime, bits: u32) -> u64 {
    match policy {
        LlcPolicy::AdaptiveRetention => (0..RETENTION_LADDER.len() as u32)
            .map(|level| lr_tracker_at(base, bits, level).maintenance_interval_ns())
            .min()
            .expect("ladder is non-empty"),
        LlcPolicy::Fixed => RetentionTracker::new(base, bits).maintenance_interval_ns(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(policy: LlcPolicy) -> TwoPartConfig {
        let mut c = TwoPartConfig::new(8, 2, 56, 7, 256);
        c.policy = policy;
        c
    }

    #[test]
    fn names_round_trip() {
        for p in LlcPolicy::ALL {
            assert_eq!(LlcPolicy::parse(p.name()), Some(p));
            assert_eq!(p.to_string(), p.name());
        }
        assert_eq!(LlcPolicy::parse("nope"), None);
        assert_eq!(LlcPolicy::default(), LlcPolicy::Fixed);
    }

    fn fixed_at(threshold: u32) -> PolicyEngine {
        let mut c = cfg(LlcPolicy::Fixed);
        c.write_threshold = threshold;
        PolicyEngine::new(&c)
    }

    #[test]
    fn threshold_migration_matches_the_paper_rules() {
        let th3 = fixed_at(3);
        assert!(!th3.should_migrate(2));
        assert!(th3.should_migrate(3));
        assert!(!th3.migration_due(1), "write 2 of 3 is not due");
        assert!(th3.migration_due(2), "write 3 of 3 is due");
        assert!(!th3.fill_to_lr(true), "dirty fill stays in HR above TH=1");
        assert!(!th3.fill_to_lr(false));
        let th1 = fixed_at(1);
        assert!(th1.should_migrate(1), "the first write migrates at TH=1");
        assert!(th1.migration_due(0));
        assert!(th1.fill_to_lr(true), "a dirty fill is the modified bit");
        assert!(!th1.fill_to_lr(false));
    }

    #[test]
    fn migration_due_is_should_migrate_one_write_later() {
        for threshold in [1, 2, 3, 7, 15] {
            let e = fixed_at(threshold);
            for c in 0..=16 {
                assert_eq!(
                    e.should_migrate(c),
                    c >= threshold,
                    "TH {threshold}, count {c}"
                );
                assert_eq!(
                    e.migration_due(c),
                    e.should_migrate(c + 1),
                    "TH {threshold}, count {c}"
                );
            }
        }
    }

    #[test]
    fn fixed_engine_never_evaluates() {
        let mut e = PolicyEngine::new(&cfg(LlcPolicy::Fixed));
        assert_eq!(e.policy(), LlcPolicy::Fixed);
        let stats = TwoPartStats {
            refreshes: 1_000_000,
            ..TwoPartStats::default()
        };
        for t in [0, POLICY_EPOCH_NS, 100 * POLICY_EPOCH_NS] {
            assert_eq!(e.poll(t, &stats), None);
        }
        assert_eq!(e.switches(), 0);
    }

    #[test]
    fn halls_ladder_steps_on_refresh_pressure() {
        let mut e = PolicyEngine::new(&cfg(LlcPolicy::AdaptiveRetention));
        // Epoch 1: refresh-dominated -> step up.
        let mut stats = TwoPartStats {
            refreshes: 50,
            demand_writes_lr: 10,
            ..TwoPartStats::default()
        };
        assert_eq!(e.poll(POLICY_EPOCH_NS, &stats), Some(1));
        // Epoch 2: balanced delta -> hold.
        stats.refreshes += 20;
        stats.demand_writes_lr += 30;
        assert_eq!(e.poll(2 * POLICY_EPOCH_NS, &stats), None);
        // Epoch 3: write-dominated -> step down.
        stats.demand_writes_lr += 400;
        assert_eq!(e.poll(3 * POLICY_EPOCH_NS, &stats), Some(0));
        assert_eq!(e.switches(), 2);
    }

    #[test]
    fn halls_ladder_clamps_at_both_ends() {
        let mut e = PolicyEngine::new(&cfg(LlcPolicy::AdaptiveRetention));
        let top = (RETENTION_LADDER.len() - 1) as u32;
        // Every epoch refresh-dominated: climb to the top, then hold.
        let mut stats = TwoPartStats::default();
        let mut t = 0;
        for expected in (1..=top).map(Some).chain([None, None]) {
            t += POLICY_EPOCH_NS;
            stats.refreshes += 100;
            assert_eq!(e.poll(t, &stats), expected);
        }
        assert_eq!(e.retention_level, top, "clamped at top");
        // Every epoch write-dominated: descend to 0, then hold.
        for expected in (0..top).rev().map(Some).chain([None, None]) {
            t += POLICY_EPOCH_NS;
            stats.demand_writes_lr += 100;
            assert_eq!(e.poll(t, &stats), expected);
        }
        assert_eq!(e.retention_level, 0, "clamped at bottom");
        assert_eq!(e.switches(), 2 * top as u64);
    }

    #[test]
    fn poll_is_once_per_epoch_crossing() {
        let mut e = PolicyEngine::new(&cfg(LlcPolicy::AdaptiveRetention));
        let mut stats = TwoPartStats::default();
        // Refresh pressure climbs one level per epoch, not per call.
        stats.refreshes += 100;
        assert_eq!(e.poll(POLICY_EPOCH_NS, &stats), Some(1));
        stats.refreshes += 100;
        assert_eq!(
            e.poll(POLICY_EPOCH_NS + 1, &stats),
            None,
            "same epoch: no re-evaluation"
        );
        // A long gap still evaluates exactly once.
        assert_eq!(e.poll(50 * POLICY_EPOCH_NS, &stats), Some(2));
        assert_eq!(e.switches(), 2);
    }

    #[test]
    fn engine_clone_preserves_decision_state() {
        let mut e = PolicyEngine::new(&cfg(LlcPolicy::AdaptiveRetention));
        let stats = TwoPartStats {
            refreshes: 50,
            ..TwoPartStats::default()
        };
        e.poll(POLICY_EPOCH_NS, &stats);
        let c = e.clone();
        assert_eq!(c.retention_level, e.retention_level);
        assert_eq!(c.switches(), e.switches());
        assert_eq!(c.policy(), e.policy());
    }

    #[test]
    fn ladder_trackers_scale_retention() {
        let base = RetentionTime::from_micros(26.5);
        assert_eq!(lr_tracker_at(base, 4, 0).retention_ns(), 26_500);
        assert_eq!(lr_tracker_at(base, 4, 1).retention_ns(), 53_000);
        assert_eq!(lr_tracker_at(base, 4, 2).retention_ns(), 106_000);
    }

    #[test]
    fn maintenance_floor_covers_every_ladder_level() {
        let base = RetentionTime::from_micros(26.5);
        let floor = lr_maintenance_floor_ns(LlcPolicy::AdaptiveRetention, base, 4);
        for level in 0..RETENTION_LADDER.len() as u32 {
            assert!(floor <= lr_tracker_at(base, 4, level).maintenance_interval_ns());
        }
        assert_eq!(
            lr_maintenance_floor_ns(LlcPolicy::Fixed, base, 4),
            RetentionTracker::new(base, 4).maintenance_interval_ns()
        );
    }
}
