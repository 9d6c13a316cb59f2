//! Memory cell technologies: 6T SRAM vs. 1T1J STT-RAM.
//!
//! Two facts about the cells drive the whole paper:
//!
//! 1. **Density** — an STT-RAM cell (one access transistor + one MTJ) is
//!    about 4× denser than a 6T SRAM cell at the same node, so the same die
//!    area holds a 4× larger L2 (configuration C1) or frees area for other
//!    resources (C2/C3).
//! 2. **Leakage** — the MTJ stores state magnetically; only the periphery
//!    leaks. At 40 nm, where "leakage current increases by 10× per
//!    technology node", this dominates total cache power (Fig. 8c).

use crate::mtj::MtjDesign;

/// 6T SRAM cell footprint in F² (feature-size-squared), typical for a
/// high-performance 40 nm macro.
pub(crate) const SRAM_CELL_AREA_F2: f64 = 146.0;

/// 1T1J STT-RAM cell footprint in F²: 4× denser than SRAM, as assumed by
/// the paper when sizing C1–C3.
pub(crate) const STT_CELL_AREA_F2: f64 = SRAM_CELL_AREA_F2 / 4.0;

/// SRAM leakage power per kilobyte of data array, in milliwatts (40 nm,
/// high-performance cells; calibrated so a 384 KB L2 leaks ~290 mW —
/// leakage dominates SRAM L2 power at 40 nm, which is what makes the
/// near-zero-leakage STT designs win on total power in Fig. 8c).
pub(crate) const SRAM_LEAKAGE_MW_PER_KB: f64 = 0.75;

/// STT-RAM array leakage per kilobyte (periphery only — row/column logic
/// and sense amps; the cells themselves do not leak).
pub(crate) const STT_LEAKAGE_MW_PER_KB: f64 = 0.03;

/// SRAM cell read/write latency contribution, ns (bitline + sense).
pub(crate) const SRAM_CELL_ACCESS_NS: f64 = 0.4;

/// SRAM cell-array energy per line access, nJ.
pub(crate) const SRAM_CELL_ENERGY_NJ: f64 = 0.05;

/// A memory technology choice for a cache data array.
///
/// # Example
///
/// ```
/// use sttgpu_device::array::{ArrayDesign, ArrayGeometry};
/// use sttgpu_device::cell::MemTechnology;
/// use sttgpu_device::mtj::RetentionTime;
///
/// let geometry = ArrayGeometry::new(384 * 1024, 256, 8, 6);
/// let sram = ArrayDesign::new(geometry, MemTechnology::Sram);
/// let stt = MemTechnology::stt_for_retention(RetentionTime::from_years(10.0));
/// let stt = ArrayDesign::new(geometry, stt);
/// // STT is denser...
/// assert!(stt.area_mm2() < sram.area_mm2());
/// // ...but its writes are slower.
/// assert!(stt.write_latency_ns() > sram.write_latency_ns());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MemTechnology {
    /// Conventional 6T SRAM.
    Sram,
    /// STT-RAM with the given MTJ design point.
    SttRam(MtjDesign),
}

impl MemTechnology {
    /// Convenience constructor: STT-RAM sized for a retention target.
    pub fn stt_for_retention(retention: crate::mtj::RetentionTime) -> Self {
        MemTechnology::SttRam(MtjDesign::for_retention(retention))
    }

    /// Cell footprint in F².
    pub(crate) fn cell_area_f2(&self) -> f64 {
        match self {
            MemTechnology::Sram => SRAM_CELL_AREA_F2,
            MemTechnology::SttRam(_) => STT_CELL_AREA_F2,
        }
    }

    /// Array leakage in mW per KB of capacity.
    pub(crate) fn leakage_mw_per_kb(&self) -> f64 {
        match self {
            MemTechnology::Sram => SRAM_LEAKAGE_MW_PER_KB,
            MemTechnology::SttRam(_) => STT_LEAKAGE_MW_PER_KB,
        }
    }

    /// Cell-level read latency contribution, ns.
    pub(crate) fn cell_read_latency_ns(&self) -> f64 {
        match self {
            MemTechnology::Sram => SRAM_CELL_ACCESS_NS,
            MemTechnology::SttRam(m) => m.read_latency_ns(),
        }
    }

    /// Cell-level write latency contribution, ns. For STT-RAM this is the
    /// MTJ write pulse — the quantity the paper's LR partition shrinks.
    pub(crate) fn cell_write_latency_ns(&self) -> f64 {
        match self {
            MemTechnology::Sram => SRAM_CELL_ACCESS_NS,
            MemTechnology::SttRam(m) => m.write_latency_ns(),
        }
    }

    /// Cell-array read energy per line access, nJ.
    pub(crate) fn cell_read_energy_nj(&self) -> f64 {
        match self {
            MemTechnology::Sram => SRAM_CELL_ENERGY_NJ,
            MemTechnology::SttRam(m) => m.read_energy_nj(),
        }
    }

    /// Cell-array write energy per line access, nJ.
    pub(crate) fn cell_write_energy_nj(&self) -> f64 {
        match self {
            MemTechnology::Sram => SRAM_CELL_ENERGY_NJ,
            MemTechnology::SttRam(m) => m.write_energy_nj(),
        }
    }

    /// The MTJ design point, if this is STT-RAM.
    pub fn mtj(&self) -> Option<&MtjDesign> {
        match self {
            MemTechnology::Sram => None,
            MemTechnology::SttRam(m) => Some(m),
        }
    }

    /// Whether arrays of this technology require refresh (low-retention
    /// STT-RAM only).
    pub fn needs_refresh(&self) -> bool {
        self.mtj().is_some_and(MtjDesign::needs_refresh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mtj::RetentionTime;

    #[test]
    fn density_ratio_is_four() {
        let sram = MemTechnology::Sram;
        let stt = MemTechnology::stt_for_retention(RetentionTime::from_years(10.0));
        assert!((sram.cell_area_f2() / stt.cell_area_f2() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn stt_leaks_an_order_of_magnitude_less() {
        let sram = MemTechnology::Sram;
        let stt = MemTechnology::stt_for_retention(RetentionTime::from_years(10.0));
        assert!(sram.leakage_mw_per_kb() / stt.leakage_mw_per_kb() >= 10.0);
    }

    #[test]
    fn stt_write_is_the_expensive_operation() {
        let stt = MemTechnology::stt_for_retention(RetentionTime::from_years(10.0));
        assert!(stt.cell_write_latency_ns() > 5.0 * stt.cell_read_latency_ns());
        assert!(stt.cell_write_latency_ns() > MemTechnology::Sram.cell_write_latency_ns());
        assert!(stt.cell_write_energy_nj() > 5.0 * stt.cell_read_energy_nj());
    }

    #[test]
    fn sram_reads_and_writes_symmetric() {
        let sram = MemTechnology::Sram;
        assert_eq!(sram.cell_read_latency_ns(), sram.cell_write_latency_ns());
        assert_eq!(sram.cell_read_energy_nj(), sram.cell_write_energy_nj());
    }

    #[test]
    fn refresh_only_for_low_retention_stt() {
        assert!(!MemTechnology::Sram.needs_refresh());
        assert!(!MemTechnology::stt_for_retention(RetentionTime::from_years(10.0)).needs_refresh());
        assert!(MemTechnology::stt_for_retention(RetentionTime::from_millis(4.0)).needs_refresh());
    }

    #[test]
    fn mtj_accessor() {
        assert!(MemTechnology::Sram.mtj().is_none());
        let stt = MemTechnology::stt_for_retention(RetentionTime::from_millis(1.0));
        assert!(stt.mtj().is_some());
    }
}
