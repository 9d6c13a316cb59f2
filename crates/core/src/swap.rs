//! Swap buffers between the LR and HR parts.
//!
//! "Write latency gap between HR and LR parts may cause problem when a
//! block leaves [one] part; so, small buffers are needed to support data
//! block migration." Each direction (HR→LR, LR→HR) gets a small buffer;
//! the LR→HR buffer doubles as the staging point for LR refresh. "On
//! buffer full, dirty lines are forced to be written back in main memory,
//! in order to avoid data loss" — an overflow therefore does not stall the
//! cache, it costs a DRAM write-back instead.
//!
//! A buffer entry occupies a slot from when the migration is accepted
//! until the destination array finishes writing the block; the model keeps
//! the completion time per slot and prunes lazily.

/// A capacity-limited migration buffer between the two cache parts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SwapBuffer {
    capacity: usize,
    completions: Vec<u64>,
    overflows: u64,
    peak_occupancy: usize,
}

impl SwapBuffer {
    /// Creates a buffer holding up to `capacity` in-flight blocks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "swap buffer needs capacity");
        SwapBuffer {
            capacity,
            completions: Vec::with_capacity(capacity),
            overflows: 0,
            peak_occupancy: 0,
        }
    }

    fn prune(&mut self, now_ns: u64) {
        self.completions.retain(|&c| c > now_ns);
    }

    /// Attempts to admit a block whose destination write completes at
    /// `completes_at_ns`. Returns `false` — and counts an overflow — when
    /// every slot is still occupied at `now_ns`.
    pub(crate) fn try_reserve(&mut self, now_ns: u64, completes_at_ns: u64) -> bool {
        self.prune(now_ns);
        if self.completions.len() >= self.capacity {
            self.overflows += 1;
            return false;
        }
        self.completions.push(completes_at_ns);
        self.peak_occupancy = self.peak_occupancy.max(self.completions.len());
        true
    }

    /// Number of blocks in flight at `now_ns`.
    #[cfg(test)]
    fn occupancy(&mut self, now_ns: u64) -> usize {
        self.prune(now_ns);
        self.completions.len()
    }

    /// Total admission failures (each costs a forced DRAM write-back for
    /// dirty blocks).
    pub(crate) fn overflows(&self) -> u64 {
        self.overflows
    }

    /// Highest simultaneous occupancy seen (for sizing studies).
    pub(crate) fn peak_occupancy(&self) -> usize {
        self.peak_occupancy
    }

    /// Clears in-flight state and statistics.
    pub(crate) fn reset(&mut self) {
        self.completions.clear();
        self.overflows = 0;
        self.peak_occupancy = 0;
    }
}

#[cfg(test)]
mod tests {
    use sttgpu_stats::Rng;

    use super::*;

    #[test]
    fn admits_until_full() {
        let mut b = SwapBuffer::new(3);
        assert!(b.try_reserve(0, 10));
        assert!(b.try_reserve(0, 20));
        assert!(b.try_reserve(0, 30));
        assert!(!b.try_reserve(5, 40));
        assert_eq!(b.occupancy(5), 3);
        assert_eq!(b.overflows(), 1);
    }

    #[test]
    fn full_until_the_first_write_retires() {
        let mut buf = SwapBuffer::new(2);
        assert!(buf.try_reserve(0, 100)); // occupied until t=100
        assert!(buf.try_reserve(0, 120));
        assert!(
            !buf.try_reserve(50, 130),
            "full until the first write retires"
        );
        assert!(buf.try_reserve(100, 180), "slot freed at t=100");
        assert_eq!(buf.overflows(), 1);
    }

    #[test]
    fn slots_free_at_completion_time() {
        let mut b = SwapBuffer::new(1);
        assert!(b.try_reserve(0, 100));
        assert!(!b.try_reserve(99, 200), "still occupied at t=99");
        assert!(b.try_reserve(100, 200), "free exactly at completion");
    }

    #[test]
    fn occupancy_reflects_in_flight() {
        let mut b = SwapBuffer::new(4);
        b.try_reserve(0, 10);
        b.try_reserve(0, 20);
        assert_eq!(b.occupancy(5), 2);
        assert_eq!(b.occupancy(15), 1);
        assert_eq!(b.occupancy(25), 0);
    }

    #[test]
    fn peak_occupancy_is_sticky() {
        let mut b = SwapBuffer::new(4);
        b.try_reserve(0, 10);
        b.try_reserve(0, 10);
        b.try_reserve(0, 10);
        assert_eq!(b.occupancy(50), 0);
        assert_eq!(b.peak_occupancy(), 3);
    }

    #[test]
    fn reset_clears_everything() {
        let mut b = SwapBuffer::new(1);
        b.try_reserve(0, 10);
        b.try_reserve(0, 10);
        b.reset();
        assert_eq!(b.overflows(), 0);
        assert_eq!(b.occupancy(0), 0);
        assert_eq!(b.peak_occupancy(), 0);
    }

    #[test]
    #[should_panic(expected = "needs capacity")]
    fn rejects_zero_capacity() {
        SwapBuffer::new(0);
    }

    /// SwapBuffer under arbitrary reserve/advance interleavings: occupancy
    /// never exceeds capacity, every attempt is counted exactly once as an
    /// admission or an overflow, and the peak tracks the true maximum.
    #[test]
    fn swap_buffer_occupancy_bounded_under_random_interleavings() {
        let mut rng = Rng::new(0x800);
        for _ in 0..50 {
            let capacity = rng.range_usize(1, 9);
            let mut buf = SwapBuffer::new(capacity);
            let mut now = 1u64;
            let mut attempts = 0u64;
            let mut admissions = 0u64;
            let mut observed_peak = 0usize;
            for _ in 0..rng.range_usize(10, 400) {
                if rng.chance(0.6) {
                    let completes = now + rng.range_u64(1, 300);
                    admissions += buf.try_reserve(now, completes) as u64;
                    attempts += 1;
                } else {
                    now += rng.range_u64(0, 200);
                }
                let occ = buf.occupancy(now);
                assert!(
                    occ <= capacity,
                    "occupancy {occ} exceeds capacity {capacity}"
                );
                observed_peak = observed_peak.max(occ);
            }
            assert_eq!(
                admissions + buf.overflows(),
                attempts,
                "every reserve attempt is exactly one admission or one overflow"
            );
            assert!(buf.peak_occupancy() <= capacity);
            assert!(
                buf.peak_occupancy() >= observed_peak,
                "peak must dominate every observed occupancy"
            );
        }
    }

    /// SwapBuffer slots drain deterministically: occupancy is non-increasing
    /// as time advances with no new reservations, reaches zero past the last
    /// completion, and a freed slot is immediately reusable.
    #[test]
    fn swap_buffer_drains_and_frees_slots() {
        let mut rng = Rng::new(0x900);
        for _ in 0..50 {
            let capacity = rng.range_usize(1, 6);
            let mut buf = SwapBuffer::new(capacity);
            let now = 1u64;
            let mut last_completion = now;
            for _ in 0..capacity {
                let completes = now + rng.range_u64(1, 500);
                assert!(buf.try_reserve(now, completes), "empty buffer admits");
                last_completion = last_completion.max(completes);
            }
            assert_eq!(buf.occupancy(now), capacity);
            // A full buffer rejects until a slot's write completes.
            assert!(!buf.try_reserve(now, now + 1));
            let mut prev = capacity;
            let mut t = now;
            while t <= last_completion {
                t += rng.range_u64(1, 100);
                let occ = buf.occupancy(t);
                assert!(occ <= prev, "occupancy must be non-increasing while idle");
                prev = occ;
            }
            assert_eq!(buf.occupancy(last_completion + 1), 0, "all slots drain");
            assert!(
                buf.try_reserve(last_completion + 1, last_completion + 50),
                "a drained buffer admits again"
            );
        }
    }
}
