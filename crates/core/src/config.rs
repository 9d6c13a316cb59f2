//! Configuration of the two-part LLC.

use std::fmt;

use sttgpu_device::array::{ArrayDesign, ArrayGeometry};
use sttgpu_device::cell::MemTechnology;
use sttgpu_device::mtj::{MtjDesign, RetentionTime};

use crate::fault::FaultConfig;
use crate::policy::LlcPolicy;
use crate::retention::RetentionTracker;
use crate::search::Part;

/// Width of the saturating per-block WWS write counter, bits (paper: 4).
/// A write threshold must be reachable: at most `2^WWS_COUNTER_BITS - 1`.
const WWS_COUNTER_BITS: u32 = 4;

/// Banks per part: both arrays of every evaluated design are 8-way
/// banked ("the HR part should be sufficiently banked").
const PART_BANKS: u32 = 8;

/// Both parts, each with the name its [`ConfigError`]s carry.
const NAMED_PARTS: [(Part, &str); 2] = [(Part::Lr, "LR"), (Part::Hr, "HR")];

/// A structured reason why a [`TwoPartConfig`] describes an impossible
/// geometry. Returned by [`TwoPartConfig::validate`]; the panicking
/// constructors print the same message.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The line size is not a power of two.
    LineSize {
        /// Offending line size, bytes.
        line_bytes: u32,
    },
    /// The migration write threshold is zero.
    WriteThreshold,
    /// The migration write threshold cannot be reached by the saturating
    /// 4-bit WWS write counter — a block's count would stick below the
    /// threshold and migration silently never fires.
    UnreachableWriteThreshold {
        /// Configured write threshold.
        threshold: u32,
    },
    /// A swap buffer has no capacity.
    BufferCapacity,
    /// A part's capacity does not divide into whole sets.
    PartialSets {
        /// Part name ("LR" or "HR").
        part: &'static str,
        /// Capacity, KB.
        kb: u64,
        /// Associativity.
        ways: u32,
    },
    /// A retention-counter width is outside `[1, 16]`.
    CounterWidth {
        /// Part name ("LR" or "HR").
        part: &'static str,
        /// Offending width, bits.
        bits: u32,
    },
    /// A retention target is so short that one counter tick rounds to
    /// zero nanoseconds (the condition `retention.rs` asserts).
    RetentionTooShort {
        /// Part name ("LR" or "HR").
        part: &'static str,
        /// Retention-counter width, bits.
        bits: u32,
    },
    /// The early-write-termination savings fraction is outside `[0, 0.9]`.
    EwtSavings {
        /// Offending fraction.
        savings: f64,
    },
    /// The refresh slack leaves no retention life before the deadline.
    RefreshSlack {
        /// Offending slack, ticks.
        slack: u32,
    },
    /// The LR wear-rotation period is zero.
    RotationPeriod,
    /// An injected fault rate is outside `[0, 1]` or not finite.
    FaultRate {
        /// Which mechanism ("flip", "refresh-drop", "buffer-stall",
        /// "bank-fault").
        mechanism: &'static str,
        /// Offending rate.
        rate: f64,
    },
    /// A latency derived from the device model is NaN, negative,
    /// infinite, or too large for integer-nanosecond timing — the `as
    /// u64` cast in the cache would silently turn it into garbage.
    DeviceLatency {
        /// Part name ("LR" or "HR").
        part: &'static str,
        /// Which latency ("tag", "read", "write", "read-occupancy",
        /// "write-occupancy").
        which: &'static str,
        /// Offending latency, ns.
        ns: f64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::LineSize { line_bytes } => {
                write!(f, "line size must be a power of two (got {line_bytes} B)")
            }
            ConfigError::WriteThreshold => write!(f, "write threshold must be at least 1"),
            ConfigError::UnreachableWriteThreshold { threshold } => write!(
                f,
                "write threshold {threshold} does not fit a {WWS_COUNTER_BITS}-bit WWS counter"
            ),
            ConfigError::BufferCapacity => write!(f, "swap buffers need capacity"),
            ConfigError::PartialSets { part, kb, ways } => write!(
                f,
                "{part} capacity must form whole sets ({kb} KB does not divide into {ways}-way sets)"
            ),
            ConfigError::CounterWidth { part, bits } => {
                write!(f, "{part} retention-counter width {bits} out of range [1, 16]")
            }
            ConfigError::RetentionTooShort { part, bits } => {
                write!(f, "{part} retention too short for a {bits}-bit counter")
            }
            ConfigError::EwtSavings { savings } => {
                write!(f, "EWT savings out of range: {savings} not in [0, 0.9]")
            }
            ConfigError::RefreshSlack { slack } => {
                write!(f, "refresh slack {slack} leaves no retention life")
            }
            ConfigError::RotationPeriod => write!(f, "rotation period must be positive"),
            ConfigError::FaultRate { mechanism, rate } => {
                write!(f, "fault {mechanism} rate {rate} outside [0, 1]")
            }
            ConfigError::DeviceLatency { part, which, ns } => write!(
                f,
                "{part} {which} latency {ns} ns is not a usable finite non-negative duration"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Upper bound on a single device latency, ns (~11.5 days). Anything
/// larger is a device-table bug, and values approaching 2^63 would make
/// the `ceil() as u64` casts in the cache wrap.
const MAX_DEVICE_LATENCY_NS: f64 = 1e15;

/// Checks that one device-derived latency is a finite, non-negative
/// duration small enough for integer-nanosecond timing.
pub(crate) fn check_latency_ns(
    part: &'static str,
    which: &'static str,
    ns: f64,
) -> Result<(), ConfigError> {
    if !ns.is_finite() || !(0.0..=MAX_DEVICE_LATENCY_NS).contains(&ns) {
        return Err(ConfigError::DeviceLatency { part, which, ns });
    }
    Ok(())
}

/// How the two tag arrays are searched on an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SearchMode {
    /// Probe one part first (chosen by access type: writes→LR, reads→HR)
    /// and the other only on a first-part miss. Slower on
    /// "wrong-first-guess" accesses but cheaper — the paper's default.
    #[default]
    Sequential,
    /// Probe both tag arrays at once. Faster misses, two tag energies per
    /// access.
    Parallel,
}

/// Full configuration of a [`TwoPartLlc`](crate::TwoPartLlc).
///
/// Defaults follow the paper: 2-way LR, write threshold 1, 4-bit LR / 2-bit
/// HR retention counters, 26.5 µs LR and 4 ms HR retention, 10-block swap
/// buffers, sequential search.
///
/// # Example
///
/// ```
/// use sttgpu_core::TwoPartConfig;
///
/// // The paper's C1 geometry: 192 KB 2-way LR + 1344 KB 7-way HR.
/// let cfg = TwoPartConfig::new(192, 2, 1344, 7, 256);
/// assert_eq!(cfg.lr_sets(), 384);
/// assert_eq!(cfg.hr_sets(), 768);
/// assert_eq!(cfg.write_threshold, 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TwoPartConfig {
    /// Cache line size, bytes (paper: 256 B).
    pub line_bytes: u32,
    /// LR data capacity, KB.
    pub lr_kb: u64,
    /// LR associativity (paper: 2).
    pub lr_ways: u32,
    /// HR data capacity, KB.
    pub hr_kb: u64,
    /// HR associativity (paper: 7).
    pub hr_ways: u32,
    /// LR retention target.
    pub lr_retention: RetentionTime,
    /// HR retention target (paper §4: 4 ms handles >90 % of HR rewrites).
    pub hr_retention: RetentionTime,
    /// LR retention-counter width, bits (paper: 4).
    pub lr_rc_bits: u32,
    /// HR retention-counter width, bits (paper: 2).
    pub hr_rc_bits: u32,
    /// HR write count at which a block migrates to LR (paper: 1 — the
    /// modified bit suffices; Fig. 4 sweeps {1, 3, 7, 15}).
    pub write_threshold: u32,
    /// Runtime policy bundle steering migration/retention/partitioning
    /// (default: the paper-exact fixed policy).
    pub policy: LlcPolicy,
    /// Capacity of each swap buffer, blocks (paper: 10).
    pub buffer_blocks: usize,
    /// Wear-rotation period for the LR part, ns: every period the LR is
    /// drained into HR and its address→set mapping is rotated, spreading
    /// the (deliberately concentrated) write working set over different
    /// physical sets across epochs. `None` disables rotation (the paper's
    /// design). This is the endurance countermeasure our ablation 5
    /// motivates.
    pub lr_rotation_period_ns: Option<u64>,
    /// How many retention-counter ticks *before* the last one the refresh
    /// engine may act (0 = the paper's policy: postpone refresh to the
    /// last tick; larger values refresh earlier and more often).
    pub refresh_slack_ticks: u32,
    /// Early-write-termination energy-savings fraction applied to both
    /// parts' write drivers (0.0 = disabled; Zhou et al.'s mechanism the
    /// paper's §3 discusses).
    pub ewt_savings: f64,
    /// Tag search strategy.
    pub search: SearchMode,
    /// Injected-fault configuration (all-zero = no injection, the
    /// default; the model is then exactly transparent).
    pub fault: FaultConfig,
}

impl TwoPartConfig {
    /// Creates a configuration with paper defaults for the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if a capacity does not divide into whole sets of `ways`
    /// lines of `line_bytes`.
    pub fn new(lr_kb: u64, lr_ways: u32, hr_kb: u64, hr_ways: u32, line_bytes: u32) -> Self {
        let cfg = TwoPartConfig {
            line_bytes,
            lr_kb,
            lr_ways,
            hr_kb,
            hr_ways,
            lr_retention: RetentionTime::from_micros(26.5),
            hr_retention: RetentionTime::from_millis(4.0),
            lr_rc_bits: 4,
            hr_rc_bits: 2,
            write_threshold: 1,
            buffer_blocks: 10,
            lr_rotation_period_ns: None,
            refresh_slack_ticks: 0,
            ewt_savings: 0.0,
            search: SearchMode::Sequential,
            policy: LlcPolicy::Fixed,
            fault: FaultConfig::disabled(),
        };
        cfg.assert_valid();
        cfg
    }

    /// Checks every geometry and parameter constraint up front, returning
    /// a structured reason instead of letting a deep component (e.g. the
    /// `tick_ns > 0` assert in the retention tracker) panic mid-build.
    ///
    /// The panicking constructors call this and `panic!` with the same
    /// message on `Err`, so user-reachable code paths (CLI config
    /// plumbing) can surface the error gracefully instead.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.line_bytes.is_power_of_two() {
            return Err(ConfigError::LineSize {
                line_bytes: self.line_bytes,
            });
        }
        if self.write_threshold < 1 {
            return Err(ConfigError::WriteThreshold);
        }
        // The WWS counter saturates at 2^bits - 1; a threshold beyond
        // that is silently unreachable and migration never fires.
        if self.write_threshold > (1u32 << WWS_COUNTER_BITS) - 1 {
            return Err(ConfigError::UnreachableWriteThreshold {
                threshold: self.write_threshold,
            });
        }
        if self.buffer_blocks < 1 {
            return Err(ConfigError::BufferCapacity);
        }
        for (part, name) in NAMED_PARTS {
            let (kb, ways, retention, rc_bits) = self.part_knobs(part);
            let lines = kb * 1024 / self.line_bytes as u64;
            if ways == 0 || lines < ways as u64 || !lines.is_multiple_of(ways as u64) {
                return Err(ConfigError::PartialSets {
                    part: name,
                    kb,
                    ways,
                });
            }
            if !(1..=16).contains(&rc_bits) {
                return Err(ConfigError::CounterWidth {
                    part: name,
                    bits: rc_bits,
                });
            }
            // Mirror of the retention tracker's tick-granularity assert:
            // one counter tick must be at least 1 ns.
            if retention.as_nanos_u64() >> rc_bits == 0 {
                return Err(ConfigError::RetentionTooShort {
                    part: name,
                    bits: rc_bits,
                });
            }
        }
        if !(0.0..=0.9).contains(&self.ewt_savings) {
            return Err(ConfigError::EwtSavings {
                savings: self.ewt_savings,
            });
        }
        if self.refresh_slack_ticks >= (1 << self.lr_rc_bits) - 1 {
            return Err(ConfigError::RefreshSlack {
                slack: self.refresh_slack_ticks,
            });
        }
        if self.lr_rotation_period_ns == Some(0) {
            return Err(ConfigError::RotationPeriod);
        }
        let rates = [
            ("flip", self.fault.flip_rate),
            ("refresh-drop", self.fault.refresh_drop_rate),
            ("buffer-stall", self.fault.buffer_stall_rate),
            ("bank-fault", self.fault.bank_fault_rate),
        ];
        for (mechanism, rate) in rates {
            if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
                return Err(ConfigError::FaultRate { mechanism, rate });
            }
        }
        // Device-model latencies: price both arrays exactly as
        // `TwoPartLlc::new` will and reject any latency the
        // integer-nanosecond timing cannot represent, so a malformed
        // device table fails here with a structured reason instead of
        // silently casting NaN to 0 deep in the cache.
        for (part, name) in NAMED_PARTS {
            let (geometry, tech) = self.part_array(part);
            let design = ArrayDesign::new(geometry, tech);
            for (which, ns) in [
                ("tag", design.tag_latency_ns()),
                ("read", design.read_latency_ns()),
                ("write", design.write_latency_ns()),
                ("read-occupancy", design.read_occupancy_ns()),
                ("write-occupancy", design.write_occupancy_ns()),
            ] {
                check_latency_ns(name, which, ns)?;
            }
        }
        Ok(())
    }

    /// Panicking wrapper used by the infallible constructors/builders.
    fn assert_valid(&self) {
        if let Err(e) = self.validate() {
            panic!("{e}");
        }
    }

    /// `part`'s own knobs: capacity (KB), associativity, retention
    /// target and retention-counter width.
    fn part_knobs(&self, part: Part) -> (u64, u32, RetentionTime, u32) {
        match part {
            Part::Lr => (self.lr_kb, self.lr_ways, self.lr_retention, self.lr_rc_bits),
            Part::Hr => (self.hr_kb, self.hr_ways, self.hr_retention, self.hr_rc_bits),
        }
    }

    /// `part`'s data array: its geometry and its STT-RAM technology, an
    /// MTJ designed for the part's retention target with the configured
    /// early-write-termination savings. Validation, the LLC and the
    /// reference model all price a part from this.
    pub fn part_array(&self, part: Part) -> (ArrayGeometry, MemTechnology) {
        let (kb, ways, retention, _) = self.part_knobs(part);
        let geometry = ArrayGeometry::new(kb * 1024, self.line_bytes, ways, PART_BANKS);
        let mtj = MtjDesign::for_retention(retention).with_ewt_savings(self.ewt_savings);
        (geometry, MemTechnology::SttRam(mtj))
    }

    /// The retention tracker that dates `part`'s lines: the part's
    /// retention target counted by its retention-counter width.
    pub fn part_tracker(&self, part: Part) -> RetentionTracker {
        let (_, _, retention, rc_bits) = self.part_knobs(part);
        RetentionTracker::new(retention, rc_bits)
    }

    /// Number of LR lines.
    pub fn lr_lines(&self) -> u64 {
        self.lr_kb * 1024 / self.line_bytes as u64
    }

    /// Number of HR lines.
    pub(crate) fn hr_lines(&self) -> u64 {
        self.hr_kb * 1024 / self.line_bytes as u64
    }

    /// Number of LR sets.
    pub fn lr_sets(&self) -> u64 {
        self.lr_lines() / self.lr_ways as u64
    }

    /// Number of HR sets.
    pub fn hr_sets(&self) -> u64 {
        self.hr_lines() / self.hr_ways as u64
    }

    /// Total data capacity (both parts), KB.
    pub fn total_kb(&self) -> u64 {
        self.lr_kb + self.hr_kb
    }

    /// Returns a copy with a different write threshold (Fig. 4 sweeps).
    pub fn with_write_threshold(mut self, threshold: u32) -> Self {
        self.write_threshold = threshold;
        self.assert_valid();
        self
    }

    /// Returns a copy selecting a runtime policy bundle by registry
    /// value (`--llc-policy`).
    pub fn with_policy(mut self, policy: LlcPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Returns a copy with different LR associativity, keeping capacity
    /// (Fig. 5 sweeps). Pass `ways == lr_lines()` for fully associative.
    ///
    /// # Panics
    ///
    /// Panics if the LR capacity cannot form whole sets of `ways`.
    pub fn with_lr_ways(mut self, ways: u32) -> Self {
        self.lr_ways = ways;
        self.assert_valid();
        self
    }

    /// Returns a copy with a different search mode (ablation).
    pub fn with_search(mut self, search: SearchMode) -> Self {
        self.search = search;
        self
    }

    /// Returns a copy with different swap-buffer capacity (ablation).
    pub fn with_buffer_blocks(mut self, blocks: usize) -> Self {
        self.buffer_blocks = blocks;
        self.assert_valid();
        self
    }

    /// Returns a copy with a different HR retention target (ablation).
    pub fn with_hr_retention(mut self, retention: RetentionTime) -> Self {
        self.hr_retention = retention;
        self
    }

    /// Returns a copy with a different LR retention target (ablation).
    pub fn with_lr_retention(mut self, retention: RetentionTime) -> Self {
        self.lr_retention = retention;
        self
    }

    /// Returns a copy with early write termination enabled at the given
    /// energy-savings fraction (ablation).
    pub fn with_ewt_savings(mut self, savings: f64) -> Self {
        self.ewt_savings = savings;
        self.assert_valid();
        self
    }

    /// Returns a copy with LR wear-rotation every `ms` milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `ms` is not positive.
    pub fn with_lr_rotation_ms(mut self, ms: f64) -> Self {
        assert!(ms > 0.0, "rotation period must be positive");
        self.lr_rotation_period_ns = Some((ms * 1e6) as u64);
        self.assert_valid();
        self
    }

    /// Returns a copy refreshing `slack` ticks before the deadline
    /// (ablation of the paper's last-tick policy).
    ///
    /// # Panics
    ///
    /// Panics if the slack does not leave at least one tick of life
    /// (`slack >= 2^lr_rc_bits - 1`).
    pub fn with_refresh_slack_ticks(mut self, slack: u32) -> Self {
        self.refresh_slack_ticks = slack;
        self.assert_valid();
        self
    }

    /// Returns a copy with the given fault-injection configuration
    /// (`repro --faults` and the fault-rate ablation).
    ///
    /// # Panics
    ///
    /// Panics if any rate is outside `[0, 1]`.
    pub fn with_fault(mut self, fault: FaultConfig) -> Self {
        self.fault = fault;
        self.assert_valid();
        self
    }

    /// Derives the invariant-checker thresholds this geometry's retention
    /// protocol promises: LR hits and expiries bounded by the LR retention
    /// period, refreshes confined to the configured tail of that period,
    /// HR hits and expiries bounded by the last-tick invalidation horizon.
    ///
    /// The returned config carries no timing slack; callers add the
    /// maintenance cadence via
    /// [`CheckConfig::with_slack_ns`](sttgpu_trace::CheckConfig::with_slack_ns).
    pub fn check_config(&self) -> sttgpu_trace::CheckConfig {
        let lr_rc = self.part_tracker(Part::Lr);
        let hr_rc = self.part_tracker(Part::Hr);
        let hr_horizon_ns = hr_rc.tick_ns().saturating_mul(hr_rc.max_count());
        sttgpu_trace::CheckConfig {
            lr_max_hit_age_ns: lr_rc.retention_ns(),
            lr_tail_start_ns: lr_rc
                .refresh_deadline_with_slack_ns(0, self.refresh_slack_ticks as u64),
            lr_min_expire_age_ns: lr_rc.retention_ns(),
            hr_max_hit_age_ns: hr_horizon_ns,
            hr_min_expire_age_ns: hr_horizon_ns,
            slack_ns: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn c1_geometry_derivations() {
        let cfg = TwoPartConfig::new(192, 2, 1344, 7, 256);
        assert_eq!(cfg.lr_lines(), 768);
        assert_eq!(cfg.lr_sets(), 384);
        assert_eq!(cfg.hr_lines(), 5376);
        assert_eq!(cfg.hr_sets(), 768);
        assert_eq!(cfg.total_kb(), 1536);
    }

    #[test]
    fn paper_defaults() {
        let cfg = TwoPartConfig::new(48, 2, 336, 7, 256);
        assert_eq!(cfg.write_threshold, 1);
        assert_eq!(cfg.lr_rc_bits, 4);
        assert_eq!(cfg.hr_rc_bits, 2);
        assert_eq!(cfg.buffer_blocks, 10);
        assert_eq!(cfg.search, SearchMode::Sequential);
    }

    #[test]
    fn builder_style_overrides() {
        let cfg = TwoPartConfig::new(48, 2, 336, 7, 256)
            .with_write_threshold(7)
            .with_lr_ways(4)
            .with_search(SearchMode::Parallel)
            .with_buffer_blocks(2);
        assert_eq!(cfg.write_threshold, 7);
        assert_eq!(cfg.lr_ways, 4);
        assert_eq!(cfg.search, SearchMode::Parallel);
        assert_eq!(cfg.buffer_blocks, 2);
    }

    #[test]
    fn fully_associative_lr() {
        let cfg = TwoPartConfig::new(48, 2, 336, 7, 256);
        let fa = cfg.clone().with_lr_ways(cfg.lr_lines() as u32);
        assert_eq!(fa.lr_sets(), 1);
    }

    #[test]
    #[should_panic(expected = "whole sets")]
    fn rejects_fractional_sets() {
        TwoPartConfig::new(48, 5, 336, 7, 256);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn rejects_zero_threshold() {
        let _ = TwoPartConfig::new(48, 2, 336, 7, 256).with_write_threshold(0);
    }

    fn base() -> TwoPartConfig {
        TwoPartConfig::new(48, 2, 336, 7, 256)
    }

    /// Applies `f` to a valid config and asserts validation rejects the
    /// result with the expected message fragment.
    fn rejected_with(f: impl FnOnce(&mut TwoPartConfig), fragment: &str) {
        let mut cfg = base();
        f(&mut cfg);
        let err = cfg.validate().expect_err("geometry should be rejected");
        let msg = err.to_string();
        assert!(msg.contains(fragment), "message {msg:?} lacks {fragment:?}");
    }

    #[test]
    fn validate_accepts_every_paper_geometry() {
        for (lr, hr) in [(192, 1344), (48, 336), (96, 672)] {
            assert_eq!(TwoPartConfig::new(lr, 2, hr, 7, 256).validate(), Ok(()));
        }
    }

    #[test]
    fn validate_rejects_non_power_of_two_line_size() {
        rejected_with(|c| c.line_bytes = 192, "power of two");
    }

    #[test]
    fn validate_rejects_zero_write_threshold() {
        rejected_with(|c| c.write_threshold = 0, "at least 1");
    }

    #[test]
    fn validate_rejects_zero_buffer_capacity() {
        rejected_with(|c| c.buffer_blocks = 0, "swap buffers need capacity");
    }

    #[test]
    fn validate_rejects_fractional_sets_in_either_part() {
        rejected_with(|c| c.lr_ways = 5, "LR capacity must form whole sets");
        rejected_with(|c| c.hr_ways = 5, "HR capacity must form whole sets");
        rejected_with(|c| c.hr_ways = 0, "HR capacity must form whole sets");
    }

    #[test]
    fn validate_rejects_bad_counter_widths() {
        rejected_with(|c| c.lr_rc_bits = 0, "out of range");
        rejected_with(|c| c.hr_rc_bits = 17, "out of range");
    }

    #[test]
    fn validate_rejects_sub_tick_retention() {
        // 10 ns of LR retention across a 4-bit counter rounds each tick
        // to zero — the condition retention.rs asserts, caught up front.
        rejected_with(
            |c| c.lr_retention = RetentionTime::from_nanos(10.0),
            "LR retention too short for a 4-bit counter",
        );
        rejected_with(
            |c| c.hr_retention = RetentionTime::from_nanos(3.0),
            "HR retention too short for a 2-bit counter",
        );
    }

    #[test]
    fn validate_rejects_unreachable_write_threshold() {
        // A 4-bit saturating counter tops out at 15: a threshold of 16
        // would silently never migrate anything.
        rejected_with(
            |c| c.write_threshold = 16,
            "write threshold 16 does not fit a 4-bit WWS counter",
        );
        // The saturation value itself is reachable.
        let cfg = base().with_write_threshold(15);
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn with_policy_selects_named_bundle() {
        let cfg = base().with_policy(LlcPolicy::AdaptiveRetention);
        assert_eq!(cfg.policy, LlcPolicy::AdaptiveRetention);
        assert_eq!(base().policy, LlcPolicy::Fixed);
    }

    #[test]
    fn validate_rejects_out_of_range_ewt() {
        rejected_with(|c| c.ewt_savings = 0.95, "EWT savings out of range");
        rejected_with(|c| c.ewt_savings = -0.1, "EWT savings out of range");
    }

    #[test]
    fn validate_rejects_lifeless_refresh_slack() {
        rejected_with(|c| c.refresh_slack_ticks = 15, "leaves no retention life");
    }

    #[test]
    fn validate_rejects_zero_rotation_period() {
        rejected_with(|c| c.lr_rotation_period_ns = Some(0), "must be positive");
    }

    #[test]
    fn validate_rejects_out_of_range_fault_rates() {
        rejected_with(|c| c.fault.flip_rate = 1.5, "fault flip rate");
        rejected_with(
            |c| c.fault.refresh_drop_rate = -0.2,
            "fault refresh-drop rate",
        );
        rejected_with(
            |c| c.fault.buffer_stall_rate = f64::NAN,
            "fault buffer-stall rate",
        );
        rejected_with(|c| c.fault.bank_fault_rate = 2.0, "fault bank-fault rate");
    }

    #[test]
    fn with_fault_accepts_valid_rates() {
        let cfg = base().with_fault(FaultConfig::uniform(7, 1e-4));
        assert!(cfg.fault.is_enabled());
        assert_eq!(cfg.fault.seed, 7);
    }

    #[test]
    fn latency_check_rejects_unusable_durations() {
        for bad in [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -1.0,
            -1e-9,
            1e16,
        ] {
            let err = check_latency_ns("LR", "tag", bad).expect_err("latency should be rejected");
            let msg = err.to_string();
            assert!(msg.contains("LR tag latency"), "message {msg:?}");
        }
    }

    #[test]
    fn latency_check_accepts_real_durations() {
        for good in [0.0, 0.4, 3.0, 17.25, 1e6] {
            assert_eq!(check_latency_ns("HR", "write", good), Ok(()));
        }
    }

    #[test]
    fn validate_prices_every_paper_geometry_latency() {
        // The real device tables must pass the latency gate on every
        // geometry the experiments sweep, including EWT-adjusted writes.
        for (lr, hr) in [(192, 1344), (48, 336), (96, 672)] {
            let cfg = TwoPartConfig::new(lr, 2, hr, 7, 256).with_ewt_savings(0.4);
            assert_eq!(cfg.validate(), Ok(()));
        }
    }
}
