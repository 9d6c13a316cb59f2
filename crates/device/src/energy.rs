//! Event-based energy accounting.
//!
//! The simulator reports Fig. 8b (dynamic power) and Fig. 8c (total power)
//! by integrating per-access energies over the run and adding leakage ×
//! time. [`EnergyAccount`] is the ledger: every L2-side event deposits its
//! nanojoules under a category so the breakdown (how much of C1's dynamic
//! energy is LR writes vs. migrations vs. refresh) stays inspectable.

use std::fmt;

/// Categories of dynamic-energy expenditure in an LLC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EnergyEvent {
    /// Tag-array lookup (always SRAM).
    TagLookup,
    /// Data-array read of a line.
    DataRead,
    /// Data-array write of a line.
    DataWrite,
    /// Refresh of a low-retention line (read + rewrite via buffer).
    Refresh,
    /// Migration of a line between the LR and HR parts.
    Migration,
    /// Swap-buffer read/write.
    Buffer,
    /// Forced write-back to DRAM (expiry or buffer overflow).
    Writeback,
    /// SECDED check/correct work on a faulted line (fault injection).
    Ecc,
}

impl EnergyEvent {
    /// All categories, in display order.
    pub const ALL: [EnergyEvent; 8] = [
        EnergyEvent::TagLookup,
        EnergyEvent::DataRead,
        EnergyEvent::DataWrite,
        EnergyEvent::Refresh,
        EnergyEvent::Migration,
        EnergyEvent::Buffer,
        EnergyEvent::Writeback,
        EnergyEvent::Ecc,
    ];

    /// Position of this category in [`EnergyEvent::ALL`] — the category
    /// code used by the trace layer's energy-conservation events.
    pub fn index(self) -> usize {
        match self {
            EnergyEvent::TagLookup => 0,
            EnergyEvent::DataRead => 1,
            EnergyEvent::DataWrite => 2,
            EnergyEvent::Refresh => 3,
            EnergyEvent::Migration => 4,
            EnergyEvent::Buffer => 5,
            EnergyEvent::Writeback => 6,
            EnergyEvent::Ecc => 7,
        }
    }
}

impl fmt::Display for EnergyEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            EnergyEvent::TagLookup => "tag-lookup",
            EnergyEvent::DataRead => "data-read",
            EnergyEvent::DataWrite => "data-write",
            EnergyEvent::Refresh => "refresh",
            EnergyEvent::Migration => "migration",
            EnergyEvent::Buffer => "buffer",
            EnergyEvent::Writeback => "writeback",
            EnergyEvent::Ecc => "ecc",
        };
        f.write_str(name)
    }
}

/// A ledger of dynamic energy (nJ) by category plus a leakage-power rate.
///
/// # Example
///
/// ```
/// use sttgpu_device::energy::{EnergyAccount, EnergyEvent};
///
/// let mut acct = EnergyAccount::with_leakage_mw(100.0);
/// acct.deposit(EnergyEvent::DataWrite, 0.85);
/// acct.deposit(EnergyEvent::DataRead, 0.25);
///
/// assert!((acct.dynamic_nj() - 1.10).abs() < 1e-12);
/// // Over 1 us: dynamic power = 1.10 nJ / 1000 ns = 1.1 mW,
/// // total = dynamic + 100 mW leakage.
/// assert!((acct.dynamic_power_mw(1_000) - 1.1).abs() < 1e-9);
/// assert!((acct.total_power_mw(1_000) - 101.1).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EnergyAccount {
    by_event: [f64; 8],
    leakage_mw: f64,
}

impl EnergyAccount {
    /// Creates an account with zero leakage.
    pub fn new() -> Self {
        EnergyAccount::default()
    }

    /// Creates an account with a constant leakage power in mW.
    pub fn with_leakage_mw(leakage_mw: f64) -> Self {
        EnergyAccount {
            by_event: [0.0; 8],
            leakage_mw,
        }
    }

    /// The configured leakage power, mW.
    pub fn leakage_mw(&self) -> f64 {
        self.leakage_mw
    }

    /// Deposits `nj` nanojoules under `event`.
    pub fn deposit(&mut self, event: EnergyEvent, nj: f64) {
        debug_assert!(nj >= 0.0, "negative energy deposit");
        self.by_event[event.index()] += nj;
    }

    /// Total dynamic energy so far, nJ.
    pub fn dynamic_nj(&self) -> f64 {
        self.by_event.iter().sum()
    }

    /// Dynamic energy for one category, nJ.
    pub fn dynamic_nj_for(&self, event: EnergyEvent) -> f64 {
        self.by_event[event.index()]
    }

    /// Average dynamic power over `elapsed_ns` of simulated time, mW
    /// (1 nJ / 1 ns == 1 W == 1000 mW).
    ///
    /// Returns 0.0 when no time has elapsed.
    pub fn dynamic_power_mw(&self, elapsed_ns: u64) -> f64 {
        if elapsed_ns == 0 {
            0.0
        } else {
            self.dynamic_nj() / elapsed_ns as f64 * 1000.0
        }
    }

    /// Average total power (dynamic + leakage) over `elapsed_ns`, mW.
    pub fn total_power_mw(&self, elapsed_ns: u64) -> f64 {
        self.dynamic_power_mw(elapsed_ns) + self.leakage_mw
    }

    /// Merges another account's deposits into this one (leakage rate of
    /// `self` is kept).
    pub fn merge(&mut self, other: &EnergyAccount) {
        for (a, b) in self.by_event.iter_mut().zip(&other.by_event) {
            *a += b;
        }
    }

    /// Clears all deposits (keeps the leakage rate).
    pub fn reset(&mut self) {
        self.by_event = [0.0; 8];
    }
}

impl fmt::Display for EnergyAccount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in EnergyEvent::ALL {
            writeln!(f, "  {e:<10} {:.3} nJ", self.dynamic_nj_for(e))?;
        }
        writeln!(f, "  leakage    {:.3} mW", self.leakage_mw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deposits_accumulate_by_category() {
        let mut a = EnergyAccount::new();
        a.deposit(EnergyEvent::DataRead, 1.0);
        a.deposit(EnergyEvent::DataRead, 2.0);
        a.deposit(EnergyEvent::Refresh, 0.5);
        assert_eq!(a.dynamic_nj_for(EnergyEvent::DataRead), 3.0);
        assert_eq!(a.dynamic_nj_for(EnergyEvent::Refresh), 0.5);
        assert_eq!(a.dynamic_nj_for(EnergyEvent::DataWrite), 0.0);
        assert_eq!(a.dynamic_nj(), 3.5);
    }

    #[test]
    fn power_conversion() {
        let mut a = EnergyAccount::new();
        a.deposit(EnergyEvent::DataWrite, 100.0);
        // 100 nJ over 1e6 ns = 1e-7 J / 1e-3 s = 0.1 mW.
        assert!((a.dynamic_power_mw(1_000_000) - 0.1).abs() < 1e-12);
        assert_eq!(a.dynamic_power_mw(0), 0.0);
    }

    #[test]
    fn leakage_integration() {
        let a = EnergyAccount::with_leakage_mw(50.0);
        // 50 mW for 1000 ns = 50e-3 J/s * 1e-6 s = 5e-8 J = 50 nJ.
        assert!((a.total_power_mw(1_000) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn merge_sums_deposits_keeps_own_leakage() {
        let mut a = EnergyAccount::with_leakage_mw(10.0);
        let mut b = EnergyAccount::with_leakage_mw(99.0);
        a.deposit(EnergyEvent::Migration, 1.0);
        b.deposit(EnergyEvent::Migration, 2.0);
        a.merge(&b);
        assert_eq!(a.dynamic_nj_for(EnergyEvent::Migration), 3.0);
        assert_eq!(a.leakage_mw(), 10.0);
    }

    #[test]
    fn reset_keeps_leakage() {
        let mut a = EnergyAccount::with_leakage_mw(5.0);
        a.deposit(EnergyEvent::Buffer, 1.0);
        a.reset();
        assert_eq!(a.dynamic_nj(), 0.0);
        assert_eq!(a.leakage_mw(), 5.0);
    }

    #[test]
    fn display_is_nonempty() {
        let a = EnergyAccount::new();
        assert!(!a.to_string().is_empty());
    }
}
