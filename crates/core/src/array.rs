//! One priced LLC data array and the ledger its accesses are charged to.
//!
//! Every LLC array — a [`SingleLlc`](crate::SingleLlc)'s one array and
//! each part of a [`TwoPartLlc`](crate::TwoPartLlc) — is the same bundle:
//! a set-associative tag/data store, its bank arbiter, the device model's
//! price of the array, and that price's latencies as integer
//! nanoseconds. The arrays differ only in geometry and technology.

use sttgpu_cache::{AccessKind, BankArbiter, SetAssocCache};
use sttgpu_device::array::{ArrayDesign, ArrayGeometry};
use sttgpu_device::cell::MemTechnology;
use sttgpu_device::energy::{EnergyAccount, EnergyEvent};
use sttgpu_trace::{Trace, TraceEvent};

/// An LLC's energy ledger and the trace that mirrors it.
#[derive(Debug, Clone)]
pub(crate) struct Ledger {
    pub(crate) energy: EnergyAccount,
    pub(crate) trace: Trace,
}

impl Ledger {
    /// An empty ledger accruing `leakage_mw` of static power, untraced.
    pub(crate) fn new(leakage_mw: f64) -> Self {
        Ledger {
            energy: EnergyAccount::with_leakage_mw(leakage_mw),
            trace: Trace::off(),
        }
    }

    /// Deposits energy and mirrors the deposit into the trace, so a
    /// checker can prove the ledger equals the sum of its events.
    pub(crate) fn deposit(&mut self, ev: EnergyEvent, nj: f64) {
        self.energy.deposit(ev, nj);
        self.trace.emit(|| TraceEvent::EnergyDeposit {
            category: ev.index() as u8,
            nj,
        });
    }
}

/// Converts a device latency to integer nanoseconds (ceiling).
///
/// [`TwoPartConfig::validate`](crate::TwoPartConfig::validate) rejects
/// unusable latencies up front; this guards the constructors that take a
/// raw technology directly, so a malformed device table panics with a
/// clear message instead of `as` silently casting NaN or a negative to 0.
fn latency_to_ns(what: &'static str, ns: f64) -> u64 {
    assert!(
        ns.is_finite() && (0.0..=1e15).contains(&ns),
        "{what} latency {ns} ns is not a usable finite non-negative duration"
    );
    ns.ceil() as u64
}

/// A set-associative array priced by the device model: its lines, its
/// banks, its design, and the design's timings in integer ns.
#[derive(Debug, Clone)]
pub(crate) struct PricedArray<M> {
    pub(crate) cache: SetAssocCache<M>,
    pub(crate) design: ArrayDesign,
    arbiter: BankArbiter,
    pub(crate) tag_ns: u64,
    pub(crate) read_ns: u64,
    pub(crate) write_ns: u64,
    read_occ_ns: u64,
    write_occ_ns: u64,
}

impl<M: Default> PricedArray<M> {
    /// An empty LRU array of `geometry` built in `tech`.
    ///
    /// # Panics
    ///
    /// Panics if the device model prices a latency that is not a usable
    /// finite non-negative duration.
    pub(crate) fn new(geometry: ArrayGeometry, tech: MemTechnology) -> Self {
        let design = ArrayDesign::new(geometry, tech);
        let [tag_ns, read_ns, write_ns, read_occ_ns, write_occ_ns] = [
            ("tag", design.tag_latency_ns()),
            ("read", design.read_latency_ns()),
            ("write", design.write_latency_ns()),
            ("read-occupancy", design.read_occupancy_ns()),
            ("write-occupancy", design.write_occupancy_ns()),
        ]
        .map(|(what, ns)| latency_to_ns(what, ns));
        PricedArray {
            cache: SetAssocCache::new(
                geometry.sets() as usize,
                geometry.associativity() as usize,
                geometry.line_bytes(),
            ),
            design,
            arbiter: BankArbiter::new(geometry.banks() as usize),
            tag_ns,
            read_ns,
            write_ns,
            read_occ_ns,
            write_occ_ns,
        }
    }

    /// Charges one tag lookup; returns how long it takes, ns.
    pub(crate) fn tag_lookup(&self, ledger: &mut Ledger) -> u64 {
        ledger.deposit(EnergyEvent::TagLookup, self.design.tag_energy_nj());
        self.tag_ns
    }

    /// Services a demand read or write of line `la` whose tag lookup
    /// resolved at `tag_done_ns`: charges the data access and reserves
    /// the line's bank. The bank is blocked for the (pipelined)
    /// occupancy; the requester waits for the full access latency.
    /// Returns the completion time.
    pub(crate) fn demand(
        &mut self,
        la: u64,
        kind: AccessKind,
        tag_done_ns: u64,
        ledger: &mut Ledger,
    ) -> u64 {
        let (ev, nj, occupancy, latency) = if kind.is_write() {
            let nj = self.design.write_energy_nj();
            (EnergyEvent::DataWrite, nj, self.write_occ_ns, self.write_ns)
        } else {
            let nj = self.design.read_energy_nj();
            (EnergyEvent::DataRead, nj, self.read_occ_ns, self.read_ns)
        };
        ledger.deposit(ev, nj);
        let bank = self.arbiter.bank_of(la);
        self.arbiter.reserve(bank, tag_done_ns, occupancy) + latency
    }

    /// Charges a fill write at `now_ns`. Fills drain through fill
    /// buffers into idle bank slots, so they cost energy and latency but
    /// do not block demand accesses. Returns when the write retires.
    pub(crate) fn fill_write(&self, now_ns: u64, ledger: &mut Ledger) -> u64 {
        ledger.deposit(EnergyEvent::DataWrite, self.design.write_energy_nj());
        now_ns + self.write_ns
    }

    /// Sends a victim leaving this array to DRAM if it is `dirty`:
    /// counts the write-back in `writebacks` and charges reading the
    /// line out. Returns the write-backs caused (0 or 1).
    pub(crate) fn write_back(&self, dirty: bool, writebacks: &mut u64, ledger: &mut Ledger) -> u32 {
        if !dirty {
            return 0;
        }
        *writebacks += 1;
        ledger.deposit(EnergyEvent::Writeback, self.design.read_energy_nj());
        1
    }
}
