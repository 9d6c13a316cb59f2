//! Bank occupancy arbitration.
//!
//! The performance cost of STT-RAM's long write pulse is not (mostly) the
//! latency of one write — GPUs hide latency — it is **bank occupancy**: a
//! bank busy with a 10 ns write cannot serve the reads piling up behind it.
//! [`BankArbiter`] models that serialisation: each access reserves a bank
//! from the first free time and holds it for its service duration.

use crate::Divisor;

/// Per-bank busy-until bookkeeping.
///
/// # Example
///
/// ```
/// use sttgpu_cache::BankArbiter;
///
/// let mut arb = BankArbiter::new(2);
/// // Two back-to-back 10 ns writes to bank 0 serialise...
/// assert_eq!(arb.reserve(0, 100, 10), 100);
/// assert_eq!(arb.reserve(0, 100, 10), 110);
/// // ...while bank 1 is still free.
/// assert_eq!(arb.reserve(1, 100, 10), 100);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BankArbiter {
    free_at: Vec<u64>,
    banks: Divisor,
}

impl BankArbiter {
    /// Creates an arbiter over `banks` initially free banks.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is zero.
    pub fn new(banks: usize) -> Self {
        assert!(banks > 0, "need at least one bank");
        BankArbiter {
            free_at: vec![0; banks],
            banks: Divisor::new(banks as u64),
        }
    }

    /// Number of banks.
    pub fn banks(&self) -> usize {
        self.free_at.len()
    }

    /// Maps a line address to its bank (line-interleaved).
    pub fn bank_of(&self, line_addr: u64) -> usize {
        self.banks.modulo(line_addr) as usize
    }

    /// Reserves `bank` for `duration` time units starting no earlier than
    /// `now`. Returns the actual service **start** time; the access
    /// completes at `start + duration`.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn reserve(&mut self, bank: usize, now: u64, duration: u64) -> u64 {
        let start = self.free_at[bank].max(now);
        self.free_at[bank] = start + duration;
        start
    }

    /// Forgets all reservations (new kernel / new measurement window).
    pub fn reset(&mut self) {
        self.free_at.iter_mut().for_each(|t| *t = 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialises_same_bank() {
        let mut a = BankArbiter::new(1);
        assert_eq!(a.reserve(0, 0, 5), 0);
        assert_eq!(a.reserve(0, 0, 5), 5);
        assert_eq!(a.reserve(0, 0, 5), 10);
        assert_eq!(a.free_at[0], 15);
    }

    #[test]
    fn idle_bank_starts_immediately() {
        let mut a = BankArbiter::new(1);
        a.reserve(0, 0, 5);
        // Arriving long after the bank went idle.
        assert_eq!(a.reserve(0, 100, 5), 100);
    }

    #[test]
    fn banks_are_independent() {
        let mut a = BankArbiter::new(3);
        a.reserve(0, 0, 100);
        assert_eq!(a.reserve(1, 0, 10), 0);
        assert_eq!(a.reserve(2, 0, 10), 0);
    }

    #[test]
    fn queue_delay_reflects_backlog() {
        let mut a = BankArbiter::new(1);
        a.reserve(0, 0, 30);
        // A zero-length probe reservation starts when the backlog clears.
        assert_eq!(a.reserve(0, 10, 0) - 10, 20);
        assert_eq!(a.reserve(0, 50, 0) - 50, 0);
    }

    #[test]
    fn bank_mapping_is_interleaved() {
        let a = BankArbiter::new(4);
        assert_eq!(a.bank_of(0), 0);
        assert_eq!(a.bank_of(5), 1);
        assert_eq!(a.bank_of(7), 3);
    }

    #[test]
    fn bank_mapping_matches_modulo_for_any_bank_count() {
        for banks in [1usize, 3, 6, 12, 64] {
            let a = BankArbiter::new(banks);
            for la in [0u64, 1, 5, 255, 1 << 40, u64::MAX - 1, u64::MAX] {
                assert_eq!(a.bank_of(la), (la % banks as u64) as usize);
            }
        }
    }

    #[test]
    fn reset_clears_reservations() {
        let mut a = BankArbiter::new(2);
        a.reserve(0, 0, 100);
        a.reset();
        assert_eq!(a.free_at[0], 0);
    }
}
