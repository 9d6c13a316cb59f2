//! Write-endurance and lifetime estimation.
//!
//! The paper quantifies write variation with the COV metrics of i2WAP
//! (Wang et al., HPCA 2013), whose underlying concern is **lifetime**:
//! an STT-RAM cell survives a bounded number of write pulses, and a cache
//! dies when its *most-written* line wears out — so concentrating the
//! write working set (exactly what the LR partition does on purpose!)
//! trades lifetime for energy/latency. This module turns the simulator's
//! per-line write matrices into lifetime estimates so that trade-off can
//! be measured instead of guessed.

/// Writes an STT-RAM cell endures before its oxide barrier degrades
/// (literature values range 10¹²–10¹⁵; 4×10¹² is the common planning
/// number for cache-class MTJs).
pub(crate) const CELL_ENDURANCE_WRITES: f64 = 4e12;

/// Seconds per (Julian) year.
const SECONDS_PER_YEAR: f64 = 365.25 * 24.0 * 3600.0;

/// Lifetime estimate of one cache array under an observed write load.
///
/// # Example
///
/// ```
/// use sttgpu_device::endurance::LifetimeEstimate;
///
/// // Two sets x two ways, one line twice as hot as the rest, observed
/// // over 1 ms of simulated time.
/// let matrix = vec![vec![200u64, 100], vec![100, 100]];
/// let est = LifetimeEstimate::from_write_matrix(&matrix, 1_000_000);
/// assert!(est.lifetime_years() > 0.0);
/// assert!(est.leveling_headroom() < 1.0, "variation costs lifetime");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifetimeEstimate {
    max_line_writes: u64,
    mean_line_writes: f64,
    lines: usize,
    elapsed_ns: u64,
}

impl LifetimeEstimate {
    /// Builds an estimate from a per-(set, way) write-count matrix
    /// observed over `elapsed_ns` of simulated time.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is empty or `elapsed_ns` is zero.
    pub fn from_write_matrix(matrix: &[Vec<u64>], elapsed_ns: u64) -> Self {
        assert!(elapsed_ns > 0, "need elapsed time to extrapolate a rate");
        let mut max = 0u64;
        let mut sum = 0u128;
        let mut lines = 0usize;
        for row in matrix {
            for &w in row {
                max = max.max(w);
                sum += w as u128;
                lines += 1;
            }
        }
        assert!(lines > 0, "write matrix must not be empty");
        LifetimeEstimate {
            max_line_writes: max,
            mean_line_writes: sum as f64 / lines as f64,
            lines,
            elapsed_ns,
        }
    }

    /// Writes seen by the hottest line.
    pub fn max_line_writes(&self) -> u64 {
        self.max_line_writes
    }

    /// Number of physical lines in the array.
    pub fn lines(&self) -> usize {
        self.lines
    }

    /// Write rate of the hottest line, writes per second.
    pub(crate) fn max_line_write_rate_per_sec(&self) -> f64 {
        self.max_line_writes as f64 / (self.elapsed_ns as f64 * 1e-9)
    }

    /// Estimated array lifetime in years: the hottest line's cells reach
    /// `CELL_ENDURANCE_WRITES` first. Returns `f64::INFINITY` when no
    /// writes were observed.
    pub fn lifetime_years(&self) -> f64 {
        let rate = self.max_line_write_rate_per_sec();
        if rate == 0.0 {
            f64::INFINITY
        } else {
            CELL_ENDURANCE_WRITES / rate / SECONDS_PER_YEAR
        }
    }

    /// mean/max write ratio ∈ [0, 1]: the fraction of the ideal lifetime
    /// actually achieved (i2WAP's figure of merit; 1.0 = perfectly level).
    pub fn leveling_headroom(&self) -> f64 {
        if self.max_line_writes == 0 {
            1.0
        } else {
            self.mean_line_writes / self.max_line_writes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_writes_are_perfectly_level() {
        let est = LifetimeEstimate::from_write_matrix(&[vec![10, 10], vec![10, 10]], 1_000);
        assert!((est.leveling_headroom() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hot_line_bounds_lifetime() {
        let even = LifetimeEstimate::from_write_matrix(&[vec![100, 100]], 1_000_000);
        let skewed = LifetimeEstimate::from_write_matrix(&[vec![190, 10]], 1_000_000);
        // Same total writes, but the skewed array dies ~1.9x sooner.
        assert!(skewed.lifetime_years() < even.lifetime_years());
        let ratio = even.lifetime_years() / skewed.lifetime_years();
        assert!((ratio - 1.9).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn no_writes_means_infinite_lifetime() {
        let est = LifetimeEstimate::from_write_matrix(&[vec![0, 0]], 1_000);
        assert_eq!(est.lifetime_years(), f64::INFINITY);
        assert_eq!(est.leveling_headroom(), 1.0);
    }

    #[test]
    fn rate_extrapolation() {
        // 1000 writes on the hot line over 1 ms -> 1e6 writes/s.
        let est = LifetimeEstimate::from_write_matrix(&[vec![1_000]], 1_000_000);
        assert!((est.max_line_write_rate_per_sec() - 1e6).abs() < 1e-6);
        // 4e12 endurance / 1e6 per s = 4e6 s ≈ 0.1267 years.
        assert!((est.lifetime_years() - 4e6 / SECONDS_PER_YEAR).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn rejects_empty_matrix() {
        LifetimeEstimate::from_write_matrix(&[], 1_000);
    }

    #[test]
    #[should_panic(expected = "elapsed time")]
    fn rejects_zero_elapsed() {
        LifetimeEstimate::from_write_matrix(&[vec![1]], 0);
    }
}
