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
///
/// # Example
///
/// ```
/// use sttgpu_core::SwapBuffer;
///
/// let mut buf = SwapBuffer::new(2);
/// assert!(buf.try_reserve(0, 100)); // occupied until t=100
/// assert!(buf.try_reserve(0, 120));
/// assert!(!buf.try_reserve(50, 130), "full until the first write retires");
/// assert!(buf.try_reserve(100, 180), "slot freed at t=100");
/// assert_eq!(buf.overflows(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwapBuffer {
    capacity: usize,
    completions: Vec<u64>,
    overflows: u64,
    admissions: u64,
    peak_occupancy: usize,
}

impl SwapBuffer {
    /// Creates a buffer holding up to `capacity` in-flight blocks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "swap buffer needs capacity");
        SwapBuffer {
            capacity,
            completions: Vec::with_capacity(capacity),
            overflows: 0,
            admissions: 0,
            peak_occupancy: 0,
        }
    }

    /// The buffer's slot capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn prune(&mut self, now_ns: u64) {
        self.completions.retain(|&c| c > now_ns);
    }

    /// Attempts to admit a block whose destination write completes at
    /// `completes_at_ns`. Returns `false` — and counts an overflow — when
    /// every slot is still occupied at `now_ns`.
    pub fn try_reserve(&mut self, now_ns: u64, completes_at_ns: u64) -> bool {
        self.prune(now_ns);
        if self.completions.len() >= self.capacity {
            self.overflows += 1;
            return false;
        }
        self.completions.push(completes_at_ns);
        self.admissions += 1;
        self.peak_occupancy = self.peak_occupancy.max(self.completions.len());
        true
    }

    /// Number of blocks in flight at `now_ns`.
    pub fn occupancy(&mut self, now_ns: u64) -> usize {
        self.prune(now_ns);
        self.completions.len()
    }

    /// Total blocks admitted.
    pub fn admissions(&self) -> u64 {
        self.admissions
    }

    /// Total admission failures (each costs a forced DRAM write-back for
    /// dirty blocks).
    pub fn overflows(&self) -> u64 {
        self.overflows
    }

    /// Highest simultaneous occupancy seen (for sizing studies).
    pub fn peak_occupancy(&self) -> usize {
        self.peak_occupancy
    }

    /// Clears in-flight state and statistics.
    pub fn reset(&mut self) {
        self.completions.clear();
        self.overflows = 0;
        self.admissions = 0;
        self.peak_occupancy = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admits_until_full() {
        let mut b = SwapBuffer::new(3);
        assert!(b.try_reserve(0, 10));
        assert!(b.try_reserve(0, 20));
        assert!(b.try_reserve(0, 30));
        assert!(!b.try_reserve(5, 40));
        assert_eq!(b.admissions(), 3);
        assert_eq!(b.overflows(), 1);
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
        assert_eq!(b.admissions(), 0);
        assert_eq!(b.overflows(), 0);
        assert_eq!(b.occupancy(0), 0);
        assert_eq!(b.peak_occupancy(), 0);
    }

    #[test]
    #[should_panic(expected = "needs capacity")]
    fn rejects_zero_capacity() {
        SwapBuffer::new(0);
    }
}
