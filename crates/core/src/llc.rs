//! The last-level-cache model interface and the evaluation's baselines.
//!
//! The GPU simulator talks to any L2 through [`LlcModel`]: it `probe`s on
//! demand accesses, `fill`s after DRAM responses and calls `maintain`
//! periodically so refresh/expiry engines can run. Three implementations
//! exist:
//!
//! * [`SingleLlc`] over SRAM — the paper's baseline GPU,
//! * [`SingleLlc`] over 10-year STT-RAM — the paper's "STT-RAM baseline"
//!   (4× capacity, long write pulses, no refresh),
//! * [`TwoPartLlc`](crate::TwoPartLlc) — the contribution.
//!
//! [`AnyLlc`] packages them behind one concrete type so simulator configs
//! stay plain data.

use sttgpu_cache::AccessKind;
use sttgpu_device::array::ArrayGeometry;
use sttgpu_device::cell::MemTechnology;
use sttgpu_device::energy::EnergyAccount;
use sttgpu_trace::{PartId, Trace, TraceEvent};

use crate::array::{Ledger, PricedArray};
use crate::TwoPartLlc;

/// Result of a demand probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeOutcome {
    /// Whether the access hit in the LLC.
    pub hit: bool,
    /// Absolute time (ns) at which the access completes: data available
    /// for a read hit, write retired for a write hit, or miss determined
    /// (tag search finished) for a miss.
    pub ready_ns: u64,
    /// Dirty lines pushed toward DRAM as a side effect (migration
    /// overflows, evictions).
    pub writebacks: u32,
}

/// Result of installing a line after a DRAM fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FillOutcome {
    /// Absolute time (ns) at which the fill write retires in the array.
    pub ready_ns: u64,
    /// Dirty victims pushed toward DRAM.
    pub writebacks: u32,
}

/// Technology-agnostic summary statistics of an LLC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LlcStats {
    /// Read probes that hit.
    pub read_hits: u64,
    /// Read probes that missed.
    pub read_misses: u64,
    /// Write probes that hit.
    pub write_hits: u64,
    /// Write probes that missed.
    pub write_misses: u64,
    /// Dirty lines sent to DRAM (evictions, expiries, overflows).
    pub writebacks: u64,
}

impl LlcStats {
    /// Total probes.
    pub fn accesses(&self) -> u64 {
        self.read_hits + self.read_misses + self.write_hits + self.write_misses
    }

    /// Hit rate over all probes (0.0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let a = self.accesses();
        if a == 0 {
            0.0
        } else {
            (self.read_hits + self.write_hits) as f64 / a as f64
        }
    }

    /// Total misses.
    pub fn misses(&self) -> u64 {
        self.read_misses + self.write_misses
    }
}

/// Behavioural interface of a last-level cache model.
///
/// Time is carried in absolute nanoseconds of simulated time. The owner
/// must call [`maintain`](LlcModel::maintain) at least once per
/// [`maintenance_interval_ns`](LlcModel::maintenance_interval_ns) of
/// simulated time for refresh guarantees to hold.
pub trait LlcModel {
    /// Cache line size, bytes.
    fn line_bytes(&self) -> u32;

    /// Issues a demand access. On a miss the caller must fetch the line
    /// from DRAM and then call [`fill`](LlcModel::fill).
    fn probe(&mut self, byte_addr: u64, kind: AccessKind, now_ns: u64) -> ProbeOutcome;

    /// Installs a line after a DRAM response. `dirty` marks write-allocate
    /// fills.
    fn fill(&mut self, byte_addr: u64, dirty: bool, now_ns: u64) -> FillOutcome;

    /// Runs refresh/expiry engines up to `now_ns`.
    fn maintain(&mut self, now_ns: u64);

    /// Longest tolerable gap between `maintain` calls, ns.
    fn maintenance_interval_ns(&self) -> u64;

    /// The accumulated energy ledger.
    fn energy(&self) -> &EnergyAccount;

    /// Technology-agnostic summary statistics.
    fn summary(&self) -> LlcStats;

    /// Cumulative per-(set, way) data-array write counts for
    /// write-variation analysis (two-part models concatenate LR and HR
    /// rows).
    fn write_count_matrix(&self) -> Vec<Vec<u64>>;

    /// Resets statistics and energy (not cache contents) — used to discard
    /// warm-up.
    fn reset_measurement(&mut self);
}

/// A conventional single-array LLC (SRAM or uniform STT-RAM), write-back /
/// write-allocate with line-interleaved banks.
///
/// # Example
///
/// ```
/// use sttgpu_cache::AccessKind;
/// use sttgpu_core::{LlcModel, SingleLlc};
/// use sttgpu_device::cell::MemTechnology;
///
/// // The paper's SRAM baseline: 384 KB, 8-way, 256 B lines, 6 banks.
/// let mut l2 = SingleLlc::new(384, 8, 256, 6, MemTechnology::Sram);
/// let miss = l2.probe(0x1234, AccessKind::Read, 0);
/// assert!(!miss.hit);
/// l2.fill(0x1234, false, 100);
/// assert!(l2.probe(0x1234, AccessKind::Read, 200).hit);
/// ```
#[derive(Debug, Clone)]
pub struct SingleLlc {
    array: PricedArray<()>,
    ledger: Ledger,
    stats: LlcStats,
}

impl SingleLlc {
    /// Creates a single-array LLC of `kb` kilobytes.
    ///
    /// # Panics
    ///
    /// Panics if the capacity does not form whole sets (see
    /// [`ArrayGeometry::new`]).
    pub fn new(kb: u64, ways: u32, line_bytes: u32, banks: u32, tech: MemTechnology) -> Self {
        let array = PricedArray::new(ArrayGeometry::new(kb * 1024, line_bytes, ways, banks), tech);
        SingleLlc {
            ledger: Ledger::new(array.design.leakage_mw()),
            array,
            stats: LlcStats::default(),
        }
    }

    /// Attaches a trace sink observing this cache's events.
    pub fn set_trace(&mut self, trace: Trace) {
        self.ledger.trace = trace;
    }
}

impl LlcModel for SingleLlc {
    fn line_bytes(&self) -> u32 {
        self.array.cache.line_bytes()
    }

    fn probe(&mut self, byte_addr: u64, kind: AccessKind, now_ns: u64) -> ProbeOutcome {
        let la = self.array.cache.line_addr(byte_addr);
        let tag_done = now_ns + self.array.tag_lookup(&mut self.ledger);
        if self.array.cache.lookup(la, kind).is_some() {
            match kind {
                AccessKind::Read => self.stats.read_hits += 1,
                AccessKind::Write => self.stats.write_hits += 1,
            }
            self.ledger.trace.emit(|| TraceEvent::Hit {
                part: PartId::Mono,
                la,
                write: kind.is_write(),
                now_ns,
                written_at_ns: now_ns,
            });
            ProbeOutcome {
                hit: true,
                ready_ns: self.array.demand(la, kind, tag_done, &mut self.ledger),
                writebacks: 0,
            }
        } else {
            match kind {
                AccessKind::Read => self.stats.read_misses += 1,
                AccessKind::Write => self.stats.write_misses += 1,
            }
            self.ledger.trace.emit(|| TraceEvent::Miss {
                la,
                write: kind.is_write(),
                now_ns,
            });
            ProbeOutcome {
                hit: false,
                ready_ns: tag_done,
                writebacks: 0,
            }
        }
    }

    fn fill(&mut self, byte_addr: u64, dirty: bool, now_ns: u64) -> FillOutcome {
        let la = self.array.cache.line_addr(byte_addr);
        let ready_ns = self.array.fill_write(now_ns, &mut self.ledger);
        let mut writebacks = 0;
        if let Some(victim) = self.array.cache.fill(la, dirty) {
            self.ledger.trace.emit(|| TraceEvent::Evict {
                part: PartId::Mono,
                la: victim.line_addr,
                wrote_back: victim.dirty,
                now_ns,
            });
            writebacks =
                self.array
                    .write_back(victim.dirty, &mut self.stats.writebacks, &mut self.ledger);
        }
        self.ledger.trace.emit(|| TraceEvent::Fill {
            part: PartId::Mono,
            la,
            now_ns,
        });
        FillOutcome {
            ready_ns,
            writebacks,
        }
    }

    fn maintain(&mut self, _now_ns: u64) {}

    fn maintenance_interval_ns(&self) -> u64 {
        u64::MAX
    }

    fn energy(&self) -> &EnergyAccount {
        &self.ledger.energy
    }

    fn summary(&self) -> LlcStats {
        self.stats
    }

    fn write_count_matrix(&self) -> Vec<Vec<u64>> {
        self.array.cache.write_count_matrix()
    }

    fn reset_measurement(&mut self) {
        self.array.cache.clear_write_counts();
        self.ledger.energy.reset();
        self.stats = LlcStats::default();
        self.ledger.trace.emit(|| TraceEvent::ResetMeasurement);
    }
}

/// A concrete sum over every LLC flavour, so simulator configurations stay
/// plain data (no trait objects in configs).
///
/// The variants intentionally differ in size: exactly one `AnyLlc` exists
/// per simulated GPU, so boxing the smaller variant would buy nothing.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)]
pub enum AnyLlc {
    /// Conventional single-array LLC (SRAM or uniform STT-RAM).
    Single(SingleLlc),
    /// The paper's two-part LR/HR LLC.
    TwoPart(Box<TwoPartLlc>),
}

impl AnyLlc {
    /// Access to the two-part internals when applicable (experiment
    /// harness uses this for LR/HR breakdowns).
    pub fn as_two_part(&self) -> Option<&TwoPartLlc> {
        match self {
            AnyLlc::Single(_) => None,
            AnyLlc::TwoPart(t) => Some(t),
        }
    }

    /// Attaches a trace sink observing this cache's events.
    pub fn set_trace(&mut self, trace: Trace) {
        match self {
            AnyLlc::Single(s) => s.set_trace(trace),
            AnyLlc::TwoPart(t) => t.set_trace(trace),
        }
    }

    fn inner(&self) -> &dyn LlcModel {
        match self {
            AnyLlc::Single(s) => s,
            AnyLlc::TwoPart(t) => t.as_ref(),
        }
    }

    fn inner_mut(&mut self) -> &mut dyn LlcModel {
        match self {
            AnyLlc::Single(s) => s,
            AnyLlc::TwoPart(t) => t.as_mut(),
        }
    }
}

impl From<SingleLlc> for AnyLlc {
    fn from(s: SingleLlc) -> Self {
        AnyLlc::Single(s)
    }
}

impl From<TwoPartLlc> for AnyLlc {
    fn from(t: TwoPartLlc) -> Self {
        AnyLlc::TwoPart(Box::new(t))
    }
}

impl LlcModel for AnyLlc {
    fn line_bytes(&self) -> u32 {
        self.inner().line_bytes()
    }

    fn probe(&mut self, byte_addr: u64, kind: AccessKind, now_ns: u64) -> ProbeOutcome {
        self.inner_mut().probe(byte_addr, kind, now_ns)
    }

    fn fill(&mut self, byte_addr: u64, dirty: bool, now_ns: u64) -> FillOutcome {
        self.inner_mut().fill(byte_addr, dirty, now_ns)
    }

    fn maintain(&mut self, now_ns: u64) {
        self.inner_mut().maintain(now_ns);
    }

    fn maintenance_interval_ns(&self) -> u64 {
        self.inner().maintenance_interval_ns()
    }

    fn energy(&self) -> &EnergyAccount {
        self.inner().energy()
    }

    fn summary(&self) -> LlcStats {
        self.inner().summary()
    }

    fn write_count_matrix(&self) -> Vec<Vec<u64>> {
        self.inner().write_count_matrix()
    }

    fn reset_measurement(&mut self) {
        self.inner_mut().reset_measurement();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sttgpu_device::mtj::RetentionTime;

    fn sram() -> SingleLlc {
        SingleLlc::new(64, 8, 256, 4, MemTechnology::Sram)
    }

    fn stt() -> SingleLlc {
        SingleLlc::new(
            256,
            8,
            256,
            4,
            MemTechnology::stt_for_retention(RetentionTime::from_years(10.0)),
        )
    }

    #[test]
    fn miss_fill_hit_cycle() {
        let mut l2 = sram();
        assert!(!l2.probe(0x8000, AccessKind::Read, 0).hit);
        l2.fill(0x8000, false, 50);
        assert!(l2.probe(0x8000, AccessKind::Read, 100).hit);
        let s = l2.summary();
        assert_eq!(s.read_misses, 1);
        assert_eq!(s.read_hits, 1);
    }

    #[test]
    fn hit_latency_includes_tag_and_data() {
        let mut l2 = sram();
        l2.fill(0x100, false, 0);
        let out = l2.probe(0x100, AccessKind::Read, 1_000);
        assert!(out.hit);
        assert!(out.ready_ns > 1_000, "some latency must accrue");
    }

    #[test]
    fn stt_write_occupies_bank_longer_than_read() {
        let mut l2 = stt();
        l2.fill(0x100, false, 0);
        let t0 = 1_000;
        let w = l2.probe(0x100, AccessKind::Write, t0);
        let mut l2b = stt();
        l2b.fill(0x100, false, 0);
        let r = l2b.probe(0x100, AccessKind::Read, t0);
        assert!(
            w.ready_ns - t0 > r.ready_ns - t0 + 5,
            "write {} vs read {}",
            w.ready_ns - t0,
            r.ready_ns - t0
        );
    }

    #[test]
    fn bank_contention_serialises_same_bank_accesses() {
        let mut l2 = stt();
        l2.fill(0x0, false, 0);
        let a = l2.probe(0x0, AccessKind::Write, 1_000);
        let b = l2.probe(0x0, AccessKind::Write, 1_000);
        // The second write to the same bank waits for the first pulse's
        // occupancy (10y pulse / subarray parallelism, ~5 ns).
        assert!(
            b.ready_ns >= a.ready_ns + 5,
            "a {} b {}",
            a.ready_ns,
            b.ready_ns
        );
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        // 1-line-per-set cache: 4 KB, 1-way, 16 sets.
        let mut l2 = SingleLlc::new(4, 1, 256, 1, MemTechnology::Sram);
        l2.fill(0, true, 0);
        // Same set: line addr 16 sets apart.
        let conflicting = 16 * 256;
        let out = l2.fill(conflicting as u64, false, 10);
        assert_eq!(out.writebacks, 1);
        assert_eq!(l2.summary().writebacks, 1);
    }

    #[test]
    fn energy_accrues_per_event() {
        let mut l2 = sram();
        let before = l2.energy().dynamic_nj();
        l2.probe(0x0, AccessKind::Read, 0); // miss: tag energy only
        let after_miss = l2.energy().dynamic_nj();
        assert!(after_miss > before);
        l2.fill(0x0, false, 10);
        l2.probe(0x0, AccessKind::Read, 20); // hit: tag + data
        assert!(l2.energy().dynamic_nj() > after_miss);
    }

    #[test]
    fn leakage_is_configured_from_design() {
        let l2 = sram();
        assert!(l2.energy().leakage_mw() > 0.0);
        let stt = stt();
        // 4x capacity STT still leaks less than 1x SRAM.
        assert!(stt.energy().leakage_mw() < l2.energy().leakage_mw());
    }

    #[test]
    fn reset_measurement_keeps_contents() {
        let mut l2 = sram();
        l2.fill(0x40, false, 0);
        l2.probe(0x40, AccessKind::Read, 10);
        l2.reset_measurement();
        assert_eq!(l2.summary().accesses(), 0);
        assert!(
            l2.probe(0x40, AccessKind::Read, 20).hit,
            "contents survive reset"
        );
    }

    #[test]
    fn any_llc_delegates() {
        let mut any: AnyLlc = sram().into();
        assert!(any.as_two_part().is_none());
        assert!(!any.probe(0x0, AccessKind::Read, 0).hit);
        any.fill(0x0, false, 1);
        assert!(any.probe(0x0, AccessKind::Read, 2).hit);
        assert_eq!(any.line_bytes(), 256);
        assert_eq!(any.maintenance_interval_ns(), u64::MAX);
    }
}
