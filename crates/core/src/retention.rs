//! Per-line retention counters and refresh deadlines.
//!
//! The paper attaches an n-bit **retention counter (RC)** to every line —
//! 4 bits in the LR part, 2 bits in the HR part — ticking at a rate such
//! that the counter spans exactly one retention period. A line whose RC
//! reaches the **last tick** is refreshed (LR) or expired (HR): "postpone
//! refresh of data blocks to the last cycles of retention period".
//!
//! Rather than simulating counter flip-flops cycle by cycle, we store the
//! time of the last array write per line and derive the RC value on
//! demand; the semantics are identical and the cost is O(1) per query.

use sttgpu_device::mtj::RetentionTime;

/// Derives retention-counter values and refresh/expiry deadlines for one
/// cache part.
///
/// # Example
///
/// ```
/// use sttgpu_core::RetentionTracker;
/// use sttgpu_device::mtj::RetentionTime;
///
/// // The LR part: 26.5 us retention tracked by a 4-bit counter.
/// let rc = RetentionTracker::new(RetentionTime::from_micros(26.5), 4);
/// assert_eq!(rc.max_count(), 15);
///
/// let written_at = 0;
/// assert_eq!(rc.count(written_at, 0), 0);
/// assert!(!rc.needs_refresh(written_at, 10_000));       // mid-life
/// assert!(rc.needs_refresh(written_at, 25_000));        // last tick
/// assert!(rc.is_expired(written_at, 27_000));           // beyond retention
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetentionTracker {
    retention_ns: u64,
    bits: u32,
    tick_ns: u64,
}

impl RetentionTracker {
    /// Creates a tracker for a retention period divided into `2^bits`
    /// counter ticks.
    ///
    /// The tick is the retention period over `2^bits` rounded to the
    /// *nearest* nanosecond, not truncated: for a non-power-of-two period
    /// (the paper's 26.5 µs LR point) a floor tick leaves up to
    /// `2^bits - 1` ns of every period uncovered, pulling each refresh
    /// deadline early by that much. Rounding up is clamped back to the
    /// floor whenever it would push the last-tick deadline to or past the
    /// expiry deadline, so `refresh_deadline_ns(w) < w + retention_ns`
    /// holds for every constructible tracker.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 16, or if the tick period
    /// would round to zero nanoseconds.
    pub fn new(retention: RetentionTime, bits: u32) -> Self {
        assert!(
            (1..=16).contains(&bits),
            "counter width {bits} out of range"
        );
        let retention_ns = retention.as_nanos_u64();
        let floor = retention_ns >> bits;
        assert!(floor > 0, "retention too short for a {bits}-bit counter");
        // `rem < 2^bits <= 2^16`, so the doubling cannot overflow.
        let rem = retention_ns & ((1u64 << bits) - 1);
        let mut tick_ns = floor + u64::from(rem * 2 >= (1u64 << bits));
        let max_count = (1u64 << bits) - 1;
        if tick_ns.saturating_mul(max_count) >= retention_ns {
            tick_ns = floor;
        }
        RetentionTracker {
            retention_ns,
            bits,
            tick_ns,
        }
    }

    /// The retention period, ns.
    pub fn retention_ns(&self) -> u64 {
        self.retention_ns
    }

    /// Retention-counter width in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Duration of one counter tick, ns.
    pub(crate) fn tick_ns(&self) -> u64 {
        self.tick_ns
    }

    /// Saturation value of the counter (`2^bits - 1`).
    pub fn max_count(&self) -> u64 {
        (1u64 << self.bits) - 1
    }

    /// The counter value a line written at `written_at_ns` shows at
    /// `now_ns` (saturating).
    pub fn count(&self, written_at_ns: u64, now_ns: u64) -> u64 {
        let age = now_ns.saturating_sub(written_at_ns);
        (age / self.tick_ns).min(self.max_count())
    }

    /// Whether the line has entered its last retention tick — the moment
    /// the refresh engine must act.
    pub fn needs_refresh(&self, written_at_ns: u64, now_ns: u64) -> bool {
        self.needs_refresh_with_slack(written_at_ns, now_ns, 0)
    }

    /// Like [`needs_refresh`](Self::needs_refresh) but triggering `slack`
    /// ticks early (0 = the paper's postpone-to-the-last-tick policy).
    pub(crate) fn needs_refresh_with_slack(
        &self,
        written_at_ns: u64,
        now_ns: u64,
        slack: u64,
    ) -> bool {
        self.count(written_at_ns, now_ns) >= self.max_count().saturating_sub(slack)
    }

    /// Whether the line's data has outlived the retention period entirely
    /// (data loss if still unrefreshed).
    pub fn is_expired(&self, written_at_ns: u64, now_ns: u64) -> bool {
        now_ns.saturating_sub(written_at_ns) >= self.retention_ns
    }

    /// The absolute time at which the line enters its last tick; the
    /// refresh engine must run before the line expires but may wait
    /// until here.
    pub fn refresh_deadline_ns(&self, written_at_ns: u64) -> u64 {
        written_at_ns.saturating_add(self.tick_ns.saturating_mul(self.max_count()))
    }

    /// Like [`refresh_deadline_ns`](Self::refresh_deadline_ns) but `slack`
    /// ticks earlier: the first instant at which
    /// `needs_refresh_with_slack` holds.
    pub fn refresh_deadline_with_slack_ns(&self, written_at_ns: u64, slack: u64) -> u64 {
        written_at_ns.saturating_add(
            self.tick_ns
                .saturating_mul(self.max_count().saturating_sub(slack)),
        )
    }

    /// Longest gap between maintenance sweeps that still guarantees a
    /// line reaching its refresh deadline is visited before it expires:
    /// the window between the last-tick deadline and the expiry deadline,
    /// capped at one tick so counters are observed at tick granularity.
    ///
    /// With a floor tick the window is at least one tick wide and the cap
    /// is what binds; with a rounded-up tick the window shrinks below a
    /// tick (e.g. 1000 ns / 4-bit: deadline 945, expiry 1000, window 55)
    /// and a tick-cadence sweep could first visit a due line after it
    /// already expired.
    pub fn maintenance_interval_ns(&self) -> u64 {
        let window = self
            .retention_ns
            .saturating_sub(self.tick_ns.saturating_mul(self.max_count()));
        window.min(self.tick_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lr() -> RetentionTracker {
        // 16 us retention, 4-bit counter -> 1 us ticks.
        RetentionTracker::new(RetentionTime::from_micros(16.0), 4)
    }

    #[test]
    fn tick_is_retention_over_two_pow_bits() {
        let rc = lr();
        assert_eq!(rc.tick_ns(), 1_000);
        assert_eq!(rc.max_count(), 15);
        assert_eq!(rc.retention_ns(), 16_000);
    }

    #[test]
    fn count_advances_per_tick_and_saturates() {
        let rc = lr();
        assert_eq!(rc.count(0, 0), 0);
        assert_eq!(rc.count(0, 999), 0);
        assert_eq!(rc.count(0, 1_000), 1);
        assert_eq!(rc.count(0, 14_999), 14);
        assert_eq!(rc.count(0, 15_000), 15);
        assert_eq!(rc.count(0, 1_000_000), 15, "saturates");
    }

    #[test]
    fn refresh_in_last_tick_only() {
        let rc = lr();
        assert!(!rc.needs_refresh(0, 14_999));
        assert!(rc.needs_refresh(0, 15_000));
        assert!(!rc.is_expired(0, 15_999));
        assert!(rc.is_expired(0, 16_000));
    }

    #[test]
    fn rewrite_resets_the_clock() {
        let rc = lr();
        // A line rewritten at t=10_000 is young again.
        assert_eq!(rc.count(10_000, 10_500), 0);
        assert!(!rc.needs_refresh(10_000, 24_000));
        assert!(rc.needs_refresh(10_000, 25_000));
    }

    #[test]
    fn deadlines() {
        let rc = lr();
        assert_eq!(rc.refresh_deadline_ns(2_000), 17_000);
        assert!(!rc.is_expired(2_000, 17_999) && rc.is_expired(2_000, 18_000));
        assert!(rc.refresh_deadline_ns(0) < rc.retention_ns());
    }

    #[test]
    fn slack_triggers_refresh_earlier() {
        let rc = lr();
        // Slack 4 on a 4-bit counter: refresh from tick 11 instead of 15.
        assert!(!rc.needs_refresh_with_slack(0, 10_999, 4));
        assert!(rc.needs_refresh_with_slack(0, 11_000, 4));
        assert!(!rc.needs_refresh(0, 11_000), "lazy policy waits");
    }

    #[test]
    fn slack_deadline_is_the_predicate_threshold() {
        let rc = lr();
        for slack in 0..rc.max_count() {
            for written in [0u64, 2_000, 7_777] {
                let deadline = rc.refresh_deadline_with_slack_ns(written, slack);
                assert!(!rc.needs_refresh_with_slack(written, deadline - 1, slack));
                assert!(rc.needs_refresh_with_slack(written, deadline, slack));
            }
        }
        // Saturated slack: the threshold collapses to zero ticks and the
        // deadline degenerates to the write time itself.
        assert_eq!(rc.refresh_deadline_with_slack_ns(500, 99), 500);
        assert_eq!(
            rc.refresh_deadline_with_slack_ns(0, 0),
            rc.refresh_deadline_ns(0)
        );
    }

    #[test]
    fn hr_two_bit_counter() {
        // 4 ms retention, 2-bit counter -> 1 ms ticks.
        let rc = RetentionTracker::new(RetentionTime::from_millis(4.0), 2);
        assert_eq!(rc.tick_ns(), 1_000_000);
        assert_eq!(rc.max_count(), 3);
        assert!(rc.needs_refresh(0, 3_000_000));
    }

    #[test]
    fn rounded_tick_covers_the_remainder_window() {
        // 1000 ns / 4-bit: the floor tick 62 spans only 62·16 = 992 ns,
        // so every refresh deadline drifted 70 ns early (62·15 = 930).
        // Nearest-rounding picks 63; the last-tick deadline lands at 945,
        // still strictly inside the retention period.
        let rc = RetentionTracker::new(RetentionTime::from_nanos(1_000.0), 4);
        assert_eq!(rc.tick_ns(), 63);
        assert_eq!(rc.refresh_deadline_ns(0), 945);
        assert!(rc.refresh_deadline_ns(0) < rc.retention_ns());
        assert_eq!(rc.count(0, 945), 15, "deadline is the last tick");
        assert!(!rc.is_expired(0, 999));
    }

    #[test]
    fn paper_lr_retention_keeps_its_floor_tick() {
        // 26.5 µs / 4-bit: remainder 4 of 16 rounds down, so the tick —
        // and with it every published run — is unchanged at 1656 ns.
        let rc = RetentionTracker::new(RetentionTime::from_micros(26.5), 4);
        assert_eq!(rc.tick_ns(), 1_656);
    }

    #[test]
    fn round_up_is_clamped_when_it_would_reach_expiry() {
        // 24 ns / 4-bit: rounding 24/16 to 2 would put the last tick at
        // 2·15 = 30 ≥ 24, past expiry; the tick must fall back to 1.
        let rc = RetentionTracker::new(RetentionTime::from_nanos(24.0), 4);
        assert_eq!(rc.tick_ns(), 1);
        assert!(rc.refresh_deadline_ns(0) < rc.retention_ns());
    }

    #[test]
    fn deadline_invariant_holds_across_odd_retentions() {
        for ns in [
            17u64, 100, 999, 1_000, 1_001, 26_500, 65_535, 65_537, 1_000_003,
        ] {
            for bits in 1..=8u32 {
                if ns >> bits == 0 {
                    continue;
                }
                let rc = RetentionTracker::new(RetentionTime::from_nanos(ns as f64), bits);
                assert!(
                    rc.refresh_deadline_ns(0) < rc.retention_ns(),
                    "{ns} ns / {bits} bits"
                );
                assert!(rc.maintenance_interval_ns() >= 1, "{ns} ns / {bits} bits");
            }
        }
    }

    #[test]
    fn maintenance_interval_respects_the_rounded_tail() {
        // Rounded tick: sweeps must come at least every 55 ns (expiry
        // 1000 minus deadline 945) or a due line can expire unseen.
        let rounded = RetentionTracker::new(RetentionTime::from_nanos(1_000.0), 4);
        assert_eq!(rounded.maintenance_interval_ns(), 55);
        // Exact division: the window equals one tick and the cap binds.
        let exact = RetentionTracker::new(RetentionTime::from_micros(16.0), 4);
        assert_eq!(exact.maintenance_interval_ns(), 1_000);
    }

    #[test]
    fn wide_counter_deadlines_saturate_instead_of_overflowing() {
        // A century of retention on a 16-bit counter, with a line stamped
        // near the end of representable time: the deadline math must
        // saturate in order (slack ≤ plain ≤ expiry), not overflow.
        let rc = RetentionTracker::new(RetentionTime::from_years(100.0), 16);
        let written = u64::MAX - 10;
        let refresh = rc.refresh_deadline_ns(written);
        let relaxed = rc.refresh_deadline_with_slack_ns(written, 3);
        assert_eq!(refresh, u64::MAX);
        assert!(relaxed <= refresh);
        assert!(refresh <= written.saturating_add(rc.retention_ns()));
        assert!(rc.is_expired(0, u64::MAX) || rc.retention_ns() > 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_zero_bits() {
        RetentionTracker::new(RetentionTime::from_millis(1.0), 0);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn rejects_sub_tick_retention() {
        RetentionTime::from_nanos(8.0); // fine on its own
        RetentionTracker::new(RetentionTime::from_nanos(8.0), 4);
    }
}
