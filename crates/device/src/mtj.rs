//! Magnetic-tunnel-junction (MTJ) retention / write-cost model.
//!
//! An STT-RAM cell stores a bit in the relative magnetisation of an MTJ's
//! free layer. Its **thermal stability factor** Δ = E_b/k_BT sets both how
//! long the cell retains data without power and how hard it is to write:
//!
//! * retention time follows the Arrhenius/Néel relation
//!   **τ(Δ) = τ₀ · e^Δ** with attempt period τ₀ ≈ 1 ns, and
//! * the switching current (hence write pulse width and energy at a fixed
//!   driver) grows with Δ; over the Δ range used in cache design the
//!   published trade-off (Smullen HPCA'11 fig. 5, Sun MICRO'12 tab. 2) is
//!   well captured by an affine fit.
//!
//! This module exposes exactly that model, calibrated so that the 10-year
//! cell lands at Δ ≈ 40.3 with a 10 ns / ~0.42 nJ write — the corner the
//! DAC 2014 paper's Table 1 starts from — and millisecond/microsecond cells
//! get proportionally cheaper writes, which is what makes the paper's
//! low-retention (LR) L2 partition attractive.

use std::fmt;

/// Néel–Arrhenius attempt period τ₀, in nanoseconds.
pub const ATTEMPT_PERIOD_NS: f64 = 1.0;

/// Write-pulse latency model: `WL(Δ) = WRITE_LATENCY_BASE_NS +
/// WRITE_LATENCY_SLOPE_NS * Δ` (calibrated to 10 ns at Δ = 40.3).
pub(crate) const WRITE_LATENCY_BASE_NS: f64 = 0.6;
/// Slope of the write-latency fit, ns per unit Δ.
pub(crate) const WRITE_LATENCY_SLOPE_NS: f64 = 0.2333;

/// Cell write-energy model: `WE(Δ) = WRITE_ENERGY_BASE_NJ +
/// WRITE_ENERGY_QUAD_NJ * Δ²` (calibrated to ~0.83 nJ at Δ = 40.3).
/// Energy grows superlinearly with Δ because both the switching current
/// and the pulse width rise with the stability barrier (E ≈ I²·R·t).
pub(crate) const WRITE_ENERGY_BASE_NJ: f64 = 0.01;
/// Quadratic coefficient of the write-energy fit, nJ per unit Δ².
pub(crate) const WRITE_ENERGY_QUAD_NJ: f64 = 0.00025;

/// MTJ read sensing latency, ns (read cost is essentially Δ-independent).
pub(crate) const READ_LATENCY_NS: f64 = 1.0;
/// MTJ read sensing energy, nJ per line access.
pub(crate) const READ_ENERGY_NJ: f64 = 0.04;

/// Smallest Δ this model accepts; below ~5 the cell is not a memory.
pub const MIN_DELTA: f64 = 5.0;
/// Largest Δ this model accepts.
pub const MAX_DELTA: f64 = 80.0;

/// Thermal stability factor Δ (dimensionless, E_b / k_B·T).
///
/// # Example
///
/// ```
/// use sttgpu_device::mtj::Delta;
///
/// let d = Delta::new(40.3);
/// assert_eq!(d.get(), 40.3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Delta(f64);

impl Delta {
    /// Creates a thermal stability factor.
    ///
    /// # Panics
    ///
    /// Panics if `delta` is outside `[MIN_DELTA, MAX_DELTA]` or not finite.
    pub fn new(delta: f64) -> Self {
        assert!(
            delta.is_finite() && (MIN_DELTA..=MAX_DELTA).contains(&delta),
            "thermal stability factor {delta} outside [{MIN_DELTA}, {MAX_DELTA}]"
        );
        Delta(delta)
    }

    /// Returns the raw factor.
    pub fn get(self) -> f64 {
        self.0
    }
}

impl fmt::Display for Delta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}", self.0)
    }
}

/// A data retention time, stored in nanoseconds.
///
/// # Example
///
/// ```
/// use sttgpu_device::mtj::RetentionTime;
///
/// let r = RetentionTime::from_millis(4.0);
/// assert_eq!(r.as_nanos(), 4_000_000.0);
/// assert_eq!(r.to_string(), "4.0 ms");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct RetentionTime(f64);

impl RetentionTime {
    /// Creates a retention time from nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `ns` is not finite and positive.
    pub fn from_nanos(ns: f64) -> Self {
        assert!(
            ns.is_finite() && ns > 0.0,
            "retention must be positive, got {ns}"
        );
        RetentionTime(ns)
    }

    /// Creates a retention time from microseconds.
    pub fn from_micros(us: f64) -> Self {
        Self::from_nanos(us * 1e3)
    }

    /// Creates a retention time from milliseconds.
    pub fn from_millis(ms: f64) -> Self {
        Self::from_nanos(ms * 1e6)
    }

    /// Creates a retention time from seconds.
    pub(crate) fn from_secs(s: f64) -> Self {
        Self::from_nanos(s * 1e9)
    }

    /// Creates a retention time from (Julian) years.
    pub fn from_years(y: f64) -> Self {
        Self::from_secs(y * 365.25 * 24.0 * 3600.0)
    }

    /// Retention in nanoseconds.
    pub fn as_nanos(self) -> f64 {
        self.0
    }

    /// Retention in integer nanoseconds, saturating at `u64::MAX` (useful
    /// as a simulator deadline).
    pub fn as_nanos_u64(self) -> u64 {
        if self.0 >= u64::MAX as f64 {
            u64::MAX
        } else {
            self.0 as u64
        }
    }
}

impl fmt::Display for RetentionTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 365.25 * 24.0 * 3600.0 * 1e9 {
            write!(f, "{:.1} years", ns / (365.25 * 24.0 * 3600.0 * 1e9))
        } else if ns >= 1e9 {
            write!(f, "{:.1} s", ns / 1e9)
        } else if ns >= 1e6 {
            write!(f, "{:.1} ms", ns / 1e6)
        } else if ns >= 1e3 {
            write!(f, "{:.1} us", ns / 1e3)
        } else {
            write!(f, "{ns:.1} ns")
        }
    }
}

/// A concrete MTJ design point: a chosen Δ and everything that follows
/// from it (retention, write pulse, write energy).
///
/// # Example
///
/// ```
/// use sttgpu_device::mtj::{Delta, MtjDesign, RetentionTime};
///
/// // Sizing by retention target (the usual direction in cache design):
/// let lr = MtjDesign::for_retention(RetentionTime::from_micros(26.5));
/// let hr = MtjDesign::for_retention(RetentionTime::from_millis(4.0));
/// assert!(lr.write_energy_nj() < hr.write_energy_nj());
///
/// // Or directly by Δ:
/// let cell = MtjDesign::new(Delta::new(40.3));
/// assert!(cell.retention().as_nanos() > 1e17); // ~10 years
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MtjDesign {
    delta: Delta,
    ewt_savings: f64,
}

impl MtjDesign {
    /// Creates a design point from a thermal stability factor.
    pub fn new(delta: Delta) -> Self {
        MtjDesign {
            delta,
            ewt_savings: 0.0,
        }
    }

    /// Enables **early write termination** (Zhou et al., ICCAD 2009, the
    /// mechanism the paper's §3 relates to): write drivers sense bits that
    /// already hold the target value and cut their current early, saving
    /// `savings` of the write energy on average.
    ///
    /// # Panics
    ///
    /// Panics if `savings` is outside `[0, 0.9]`.
    pub fn with_ewt_savings(mut self, savings: f64) -> Self {
        assert!(
            (0.0..=0.9).contains(&savings),
            "EWT savings {savings} outside [0, 0.9]"
        );
        self.ewt_savings = savings;
        self
    }

    /// The configured early-write-termination energy savings fraction.
    pub fn ewt_savings(&self) -> f64 {
        self.ewt_savings
    }

    /// Creates the design point whose retention equals `retention`
    /// (Δ = ln(τ/τ₀)).
    ///
    /// # Panics
    ///
    /// Panics if the resulting Δ is outside the supported range — i.e. for
    /// retention targets below ~150 ns or above ~10ⁱ⁸ years.
    pub fn for_retention(retention: RetentionTime) -> Self {
        let delta = (retention.as_nanos() / ATTEMPT_PERIOD_NS).ln();
        MtjDesign::new(Delta::new(delta))
    }

    /// The design's thermal stability factor.
    pub fn delta(&self) -> Delta {
        self.delta
    }

    /// Retention time τ = τ₀·e^Δ.
    pub fn retention(&self) -> RetentionTime {
        RetentionTime::from_nanos(ATTEMPT_PERIOD_NS * self.delta.get().exp())
    }

    /// Write pulse width in nanoseconds (per line write).
    pub fn write_latency_ns(&self) -> f64 {
        WRITE_LATENCY_BASE_NS + WRITE_LATENCY_SLOPE_NS * self.delta.get()
    }

    /// Cell-array write energy in nanojoules (per line write), after any
    /// early-write-termination savings.
    pub fn write_energy_nj(&self) -> f64 {
        (WRITE_ENERGY_BASE_NJ + WRITE_ENERGY_QUAD_NJ * self.delta.get() * self.delta.get())
            * (1.0 - self.ewt_savings)
    }

    /// Read sensing latency in nanoseconds (per line read).
    pub fn read_latency_ns(&self) -> f64 {
        READ_LATENCY_NS
    }

    /// Read sensing energy in nanojoules (per line read).
    pub fn read_energy_nj(&self) -> f64 {
        READ_ENERGY_NJ
    }

    /// Whether a cache built from this cell needs refresh within a typical
    /// application run (retention below one hour).
    pub fn needs_refresh(&self) -> bool {
        self.retention().as_nanos() < 3600.0 * 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_year_cell_matches_literature_delta() {
        let d = MtjDesign::for_retention(RetentionTime::from_years(10.0));
        assert!((d.delta().get() - 40.3).abs() < 0.2, "got {}", d.delta());
    }

    #[test]
    fn retention_roundtrip() {
        for target_ns in [1e3, 1e6, 1e9, 3.15e17] {
            let d = MtjDesign::for_retention(RetentionTime::from_nanos(target_ns));
            let back = d.retention().as_nanos();
            assert!((back / target_ns - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn lower_retention_means_cheaper_writes() {
        let hi = MtjDesign::for_retention(RetentionTime::from_years(10.0));
        let mid = MtjDesign::for_retention(RetentionTime::from_millis(4.0));
        let lo = MtjDesign::for_retention(RetentionTime::from_micros(26.5));
        assert!(hi.write_latency_ns() > mid.write_latency_ns());
        assert!(mid.write_latency_ns() > lo.write_latency_ns());
        assert!(hi.write_energy_nj() > mid.write_energy_nj());
        assert!(mid.write_energy_nj() > lo.write_energy_nj());
    }

    #[test]
    fn ten_year_write_cost_calibration() {
        let hi = MtjDesign::for_retention(RetentionTime::from_years(10.0));
        assert!((hi.write_latency_ns() - 10.0).abs() < 0.2);
        assert!((hi.write_energy_nj() - 0.42).abs() < 0.03);
    }

    #[test]
    fn refresh_need_threshold() {
        assert!(MtjDesign::for_retention(RetentionTime::from_millis(4.0)).needs_refresh());
        assert!(!MtjDesign::for_retention(RetentionTime::from_years(1.0)).needs_refresh());
    }

    #[test]
    fn read_cost_is_delta_independent() {
        let a = MtjDesign::new(Delta::new(10.0));
        let b = MtjDesign::new(Delta::new(40.0));
        assert_eq!(a.read_latency_ns(), b.read_latency_ns());
        assert_eq!(a.read_energy_nj(), b.read_energy_nj());
    }

    #[test]
    fn ewt_scales_write_energy_only() {
        let base = MtjDesign::for_retention(RetentionTime::from_millis(4.0));
        let ewt = base.with_ewt_savings(0.6);
        assert!((ewt.write_energy_nj() / base.write_energy_nj() - 0.4).abs() < 1e-12);
        assert_eq!(ewt.write_latency_ns(), base.write_latency_ns());
        assert_eq!(ewt.read_energy_nj(), base.read_energy_nj());
        assert_eq!(ewt.ewt_savings(), 0.6);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn rejects_excessive_ewt() {
        let _ = MtjDesign::for_retention(RetentionTime::from_millis(4.0)).with_ewt_savings(0.95);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn rejects_tiny_delta() {
        Delta::new(1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_retention() {
        RetentionTime::from_nanos(0.0);
    }

    #[test]
    fn retention_display_units() {
        assert_eq!(RetentionTime::from_nanos(500.0).to_string(), "500.0 ns");
        assert_eq!(RetentionTime::from_micros(26.5).to_string(), "26.5 us");
        assert_eq!(RetentionTime::from_millis(4.0).to_string(), "4.0 ms");
        assert_eq!(RetentionTime::from_secs(2.0).to_string(), "2.0 s");
        assert_eq!(RetentionTime::from_years(10.0).to_string(), "10.0 years");
    }

    #[test]
    fn nanos_u64_saturates() {
        assert_eq!(RetentionTime::from_years(1e9).as_nanos_u64(), u64::MAX);
        assert_eq!(RetentionTime::from_micros(1.0).as_nanos_u64(), 1_000);
    }
}
