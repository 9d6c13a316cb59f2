//! "CACTI-lite": an analytical cache-array model.
//!
//! The paper uses CACTI 6.5 (slightly modified for STT-RAM) to obtain area,
//! latency and power of each L2 candidate. This module reimplements the
//! parts of that flow the evaluation actually depends on, as simple
//! analytical scaling laws:
//!
//! * **area** — bits × cell footprint (F²) × layout overhead, at 40 nm;
//! * **latency** — a fixed decode/sense term plus a wire term growing with
//!   √(bank capacity), plus the technology's cell term (for STT writes this
//!   is the MTJ pulse, which dominates);
//! * **energy/access** — a fixed periphery term plus a √(bank capacity)
//!   bitline/H-tree term plus the cell term;
//! * **leakage** — proportional to capacity, with the technology's per-KB
//!   coefficient.
//!
//! Tag arrays are always SRAM ("we keep tag array SRAM so it is fast",
//! paper §6) and are priced separately.

use crate::cell::{MemTechnology, SRAM_LEAKAGE_MW_PER_KB};

/// Process feature size, nanometres (paper's Table 2: 40 nm node).
pub(crate) const FEATURE_NM: f64 = 40.0;

/// mm² per F² at [`FEATURE_NM`].
pub(crate) const MM2_PER_F2: f64 = (FEATURE_NM * FEATURE_NM) * 1e-12;

/// Array layout overhead multiplier (decoders, drivers, spare columns).
pub(crate) const LAYOUT_OVERHEAD: f64 = 1.4;

/// Fixed (capacity-independent) array access latency: decode + mux + sense
/// control, ns.
pub(crate) const ACCESS_FIXED_NS: f64 = 1.2;

/// Wire/bitline latency coefficient, ns per √KB of bank capacity.
pub(crate) const ACCESS_WIRE_NS_PER_SQRT_KB: f64 = 0.25;

/// Fixed periphery energy per access, nJ.
pub(crate) const ENERGY_FIXED_NJ: f64 = 0.025;

/// Bitline/H-tree energy coefficient, nJ per √KB of bank capacity.
pub(crate) const ENERGY_WIRE_NJ_PER_SQRT_KB: f64 = 0.01;

/// Bank pipeline cycle time, ns: a bank accepts a new access at this rate
/// even though one access's full latency is longer — arrays are pipelined.
/// The exception is an STT-RAM **write**, whose MTJ current pulse holds the
/// selected wordline and blocks the bank for the whole pulse (this
/// non-pipelineable occupancy is the performance problem the paper's LR
/// partition attacks).
pub(crate) const BANK_CYCLE_NS: f64 = 1.5;

/// Subarrays per bank that can hold concurrent write pulses: consecutive
/// writes to different subarrays of one bank overlap, so the effective
/// per-bank write occupancy is `pulse / SUBARRAY_WRITE_PARALLELISM`.
pub(crate) const SUBARRAY_WRITE_PARALLELISM: f64 = 2.0;

/// Physical address width assumed for tag sizing, bits.
pub(crate) const ADDR_BITS: u32 = 32;

/// Per-line status bits held in the tag array (valid, dirty, replacement
/// state, write counter / modified bit).
pub(crate) const TAG_STATE_BITS: u32 = 6;

/// Geometry of one cache array: total data capacity, line size,
/// associativity and bank count.
///
/// # Example
///
/// ```
/// use sttgpu_device::array::ArrayGeometry;
///
/// // The paper's SRAM baseline L2: 384 KB, 8-way, 256 B lines, 6 banks.
/// let g = ArrayGeometry::new(384 * 1024, 256, 8, 6);
/// assert_eq!(g.lines(), 1536);
/// assert_eq!(g.sets(), 192);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArrayGeometry {
    data_bytes: u64,
    line_bytes: u32,
    associativity: u32,
    banks: u32,
}

impl ArrayGeometry {
    /// Creates a geometry.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero, if the capacity is not divisible
    /// into whole sets of `associativity` lines, or if the line count is
    /// not divisible by the bank count.
    pub fn new(data_bytes: u64, line_bytes: u32, associativity: u32, banks: u32) -> Self {
        assert!(data_bytes > 0 && line_bytes > 0 && associativity > 0 && banks > 0);
        let lines = data_bytes / line_bytes as u64;
        assert_eq!(
            lines * line_bytes as u64,
            data_bytes,
            "capacity must be a whole number of lines"
        );
        assert_eq!(
            lines % associativity as u64,
            0,
            "capacity must form whole sets"
        );
        ArrayGeometry {
            data_bytes,
            line_bytes,
            associativity,
            banks,
        }
    }

    /// Cache line size in bytes.
    pub fn line_bytes(&self) -> u32 {
        self.line_bytes
    }

    /// Associativity (ways per set).
    pub fn associativity(&self) -> u32 {
        self.associativity
    }

    /// Number of banks.
    pub fn banks(&self) -> u32 {
        self.banks
    }

    /// Total number of cache lines.
    pub fn lines(&self) -> u64 {
        self.data_bytes / self.line_bytes as u64
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.lines() / self.associativity as u64
    }

    /// Capacity of one bank, KB.
    pub(crate) fn bank_kb(&self) -> f64 {
        self.data_bytes as f64 / 1024.0 / self.banks as f64
    }

    /// Tag width in bits for one line (address tag + status bits).
    pub(crate) fn tag_bits_per_line(&self) -> u32 {
        let index_bits = (self.sets() as f64).log2().ceil() as u32;
        let offset_bits = (self.line_bytes as f64).log2().ceil() as u32;
        ADDR_BITS.saturating_sub(index_bits + offset_bits) + TAG_STATE_BITS
    }

    /// Total tag-array capacity in KB.
    pub(crate) fn tag_kb(&self) -> f64 {
        self.lines() as f64 * self.tag_bits_per_line() as f64 / 8.0 / 1024.0
    }
}

/// A fully priced cache array: geometry + data technology (+ SRAM tags).
///
/// # Example
///
/// ```
/// use sttgpu_device::array::{ArrayDesign, ArrayGeometry};
/// use sttgpu_device::cell::MemTechnology;
/// use sttgpu_device::mtj::RetentionTime;
///
/// let geom = ArrayGeometry::new(384 * 1024, 256, 8, 6);
/// let sram = ArrayDesign::new(geom, MemTechnology::Sram);
/// let stt4x = ArrayDesign::new(
///     ArrayGeometry::new(1536 * 1024, 256, 8, 6),
///     MemTechnology::stt_for_retention(RetentionTime::from_years(10.0)),
/// );
/// // 4x the capacity in (approximately) the same area:
/// let ratio = stt4x.area_mm2() / sram.area_mm2();
/// assert!(ratio < 1.25, "area ratio {ratio}");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrayDesign {
    geometry: ArrayGeometry,
    tech: MemTechnology,
    // Per-access energies memoized at construction: they are pure
    // functions of (geometry, tech), but the LLC charges them on every
    // access, and the sqrt/exp chains behind them showed up in profiles.
    read_energy_nj: f64,
    write_energy_nj: f64,
    tag_energy_nj: f64,
}

impl ArrayDesign {
    /// Creates a priced array from a geometry and a data-array technology.
    pub fn new(geometry: ArrayGeometry, tech: MemTechnology) -> Self {
        let mut d = ArrayDesign {
            geometry,
            tech,
            read_energy_nj: 0.0,
            write_energy_nj: 0.0,
            tag_energy_nj: 0.0,
        };
        d.read_energy_nj = d.wire_nj() + d.tech.cell_read_energy_nj();
        d.write_energy_nj = d.wire_nj() + d.tech.cell_write_energy_nj();
        d.tag_energy_nj = 0.01 + 0.005 * (d.geometry.tag_kb() / d.geometry.banks as f64).sqrt();
        d
    }

    /// The array's geometry.
    pub fn geometry(&self) -> &ArrayGeometry {
        &self.geometry
    }

    /// The data-array technology.
    pub fn technology(&self) -> &MemTechnology {
        &self.tech
    }

    /// Data-array silicon area, mm².
    pub(crate) fn data_area_mm2(&self) -> f64 {
        let bits = self.geometry.data_bytes as f64 * 8.0;
        bits * self.tech.cell_area_f2() * MM2_PER_F2 * LAYOUT_OVERHEAD
    }

    /// Tag-array silicon area (always SRAM), mm².
    pub(crate) fn tag_area_mm2(&self) -> f64 {
        let bits = self.geometry.tag_kb() * 1024.0 * 8.0;
        bits * crate::cell::SRAM_CELL_AREA_F2 * MM2_PER_F2 * LAYOUT_OVERHEAD
    }

    /// Total silicon area (data + tags), mm².
    pub fn area_mm2(&self) -> f64 {
        self.data_area_mm2() + self.tag_area_mm2()
    }

    fn wire_ns(&self) -> f64 {
        ACCESS_FIXED_NS + ACCESS_WIRE_NS_PER_SQRT_KB * self.geometry.bank_kb().sqrt()
    }

    fn wire_nj(&self) -> f64 {
        ENERGY_FIXED_NJ + ENERGY_WIRE_NJ_PER_SQRT_KB * self.geometry.bank_kb().sqrt()
    }

    /// Data read latency, ns (decode + wire + cell sensing).
    pub fn read_latency_ns(&self) -> f64 {
        self.wire_ns() + self.tech.cell_read_latency_ns()
    }

    /// Data write latency, ns. For STT-RAM arrays the MTJ write pulse
    /// dominates — this is the bank-occupancy cost the paper attacks.
    pub fn write_latency_ns(&self) -> f64 {
        self.wire_ns() + self.tech.cell_write_latency_ns()
    }

    /// How long a read blocks its bank, ns (pipelined: one bank cycle).
    pub fn read_occupancy_ns(&self) -> f64 {
        BANK_CYCLE_NS
    }

    /// How long a write blocks its bank, ns: one pipeline cycle for SRAM;
    /// for STT-RAM the MTJ pulse is not pipelineable, but two subarrays
    /// per bank can hold pulses concurrently
    /// (`SUBARRAY_WRITE_PARALLELISM`).
    pub fn write_occupancy_ns(&self) -> f64 {
        (self.tech.cell_write_latency_ns() / SUBARRAY_WRITE_PARALLELISM).max(BANK_CYCLE_NS)
    }

    /// Data read energy per line access, nJ.
    pub fn read_energy_nj(&self) -> f64 {
        self.read_energy_nj
    }

    /// Data write energy per line access, nJ.
    pub fn write_energy_nj(&self) -> f64 {
        self.write_energy_nj
    }

    /// Tag lookup latency, ns (small SRAM array).
    pub fn tag_latency_ns(&self) -> f64 {
        0.3 + 0.1 * (self.geometry.tag_kb() / self.geometry.banks as f64).sqrt()
    }

    /// Tag lookup energy, nJ.
    pub fn tag_energy_nj(&self) -> f64 {
        self.tag_energy_nj
    }

    /// Total leakage power (data + SRAM tags), mW.
    pub fn leakage_mw(&self) -> f64 {
        let data_kb = self.geometry.data_bytes as f64 / 1024.0;
        data_kb * self.tech.leakage_mw_per_kb() + self.geometry.tag_kb() * SRAM_LEAKAGE_MW_PER_KB
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mtj::RetentionTime;
    use sttgpu_stats::Rng;

    /// How many bytes of data array built in `tech` fit in the silicon
    /// area of `sram_bytes` of SRAM data array (the paper's "saved area"
    /// arithmetic for configurations C1–C3).
    fn stt_capacity_for_sram_area(sram_bytes: u64, tech: &MemTechnology) -> u64 {
        let ratio = crate::cell::SRAM_CELL_AREA_F2 / tech.cell_area_f2();
        (sram_bytes as f64 * ratio) as u64
    }

    /// The SRAM-equivalent byte count of `bytes` built in `tech` (inverse
    /// of [`stt_capacity_for_sram_area`]).
    fn sram_equivalent_bytes(bytes: u64, tech: &MemTechnology) -> u64 {
        let ratio = tech.cell_area_f2() / crate::cell::SRAM_CELL_AREA_F2;
        (bytes as f64 * ratio) as u64
    }

    fn sram_l2() -> ArrayDesign {
        ArrayDesign::new(
            ArrayGeometry::new(384 * 1024, 256, 8, 6),
            MemTechnology::Sram,
        )
    }

    fn stt_l2(kb: u64, assoc: u32) -> ArrayDesign {
        ArrayDesign::new(
            ArrayGeometry::new(kb * 1024, 256, assoc, 6),
            MemTechnology::stt_for_retention(RetentionTime::from_years(10.0)),
        )
    }

    #[test]
    fn geometry_derived_quantities() {
        let g = ArrayGeometry::new(1536 * 1024, 256, 8, 6);
        assert_eq!(g.lines(), 6144);
        assert_eq!(g.sets(), 768);
        assert_eq!(g.bank_kb(), 256.0);
        assert_eq!(ArrayGeometry::new(384 * 1024, 256, 8, 6).bank_kb(), 64.0);
        // 32-bit address, 768 sets (10 bits), 256 B line (8 bits):
        // 14 tag bits + 6 state bits.
        assert_eq!(g.tag_bits_per_line(), 20);
    }

    #[test]
    #[should_panic(expected = "whole sets")]
    fn rejects_fractional_sets() {
        ArrayGeometry::new(100 * 1024, 256, 7, 1);
    }

    #[test]
    fn four_x_stt_fits_in_sram_area() {
        let sram = sram_l2();
        let stt = stt_l2(1536, 8);
        // Data arrays match exactly (4x cells, 1/4 area); tags grow a bit.
        assert!((stt.data_area_mm2() / sram.data_area_mm2() - 1.0).abs() < 1e-9);
        assert!(stt.area_mm2() / sram.area_mm2() < 1.25);
    }

    #[test]
    fn stt_leaks_far_less_despite_4x_capacity() {
        let sram = sram_l2();
        let stt = stt_l2(1536, 8);
        assert!(stt.leakage_mw() < 0.7 * sram.leakage_mw());
    }

    #[test]
    fn sram_baseline_leakage_calibration() {
        // Calibration target: 384 KB SRAM L2 leaks ~290 mW (data) plus a
        // little tag leakage — leakage dominates SRAM L2 power at 40 nm.
        let l = sram_l2().leakage_mw();
        assert!((280.0..330.0).contains(&l), "leakage {l} mW");
    }

    #[test]
    fn bigger_banks_are_slower_and_hungrier() {
        let small = stt_l2(384, 8);
        let big = stt_l2(1536, 8);
        assert!(big.read_latency_ns() > small.read_latency_ns());
        assert!(big.read_energy_nj() > small.read_energy_nj());
    }

    #[test]
    fn stt_write_dominated_by_pulse() {
        let stt = stt_l2(1536, 8);
        assert!(stt.write_latency_ns() - stt.read_latency_ns() > 8.0);
    }

    #[test]
    fn sram_access_energy_calibration() {
        // Calibration target: ~0.15 nJ per access for the 64 KB-bank SRAM
        // L2 (fixed periphery + wire + cell terms).
        let e = sram_l2().read_energy_nj();
        assert!((0.1..0.25).contains(&e), "energy {e} nJ");
    }

    #[test]
    fn area_capacity_conversions_roundtrip() {
        let stt = MemTechnology::stt_for_retention(RetentionTime::from_years(10.0));
        let cap = stt_capacity_for_sram_area(384 * 1024, &stt);
        assert_eq!(cap, 1536 * 1024);
        assert_eq!(sram_equivalent_bytes(cap, &stt), 384 * 1024);
    }

    #[test]
    fn ten_year_stt_fits_four_x_capacity_in_sram_area() {
        let stt = MemTechnology::stt_for_retention(RetentionTime::from_years(10.0));
        assert_eq!(stt_capacity_for_sram_area(384 * 1024, &stt), 4 * 384 * 1024);
    }

    /// Area-capacity conversion round-trips within rounding.
    #[test]
    fn area_conversion_roundtrip() {
        let mut rng = Rng::new(0xFEED);
        for _ in 0..200 {
            let kb = rng.range_u64(16, 4096);
            let stt = MemTechnology::stt_for_retention(RetentionTime::from_years(10.0));
            let bytes = kb * 1024;
            let cap = stt_capacity_for_sram_area(bytes, &stt);
            let back = sram_equivalent_bytes(cap, &stt);
            assert!(
                (back as i64 - bytes as i64).abs() <= 1,
                "round trip at {kb} KB"
            );
        }
    }

    #[test]
    fn tag_costs_are_small() {
        let stt = stt_l2(1536, 8);
        assert!(stt.tag_latency_ns() < stt.read_latency_ns());
        assert!(stt.tag_energy_nj() < 0.1 * stt.read_energy_nj());
        assert!(stt.tag_area_mm2() < 0.15 * stt.data_area_mm2());
    }
}
