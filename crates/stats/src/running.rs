//! Single-pass mean/variance accumulation (Welford's algorithm).

/// Running mean and variance over a stream of samples.
///
/// Uses Welford's numerically stable single-pass algorithm, so the whole
/// sample stream never has to be materialised. This is the building block
/// for the coefficient-of-variation computations of Fig. 3.
///
/// # Example
///
/// ```
/// use sttgpu_stats::RunningStats;
///
/// let mut rs = RunningStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     rs.push(x);
/// }
/// assert!((rs.mean() - 5.0).abs() < 1e-12);
/// assert!((rs.population_variance() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
        }
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
    }

    /// Number of samples pushed so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (divides by *n*), or 0.0 for fewer than 1 sample.
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub(crate) fn population_std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Coefficient of variation (population std-dev / mean), or 0.0 when the
    /// mean is zero.
    pub(crate) fn cov(&self) -> f64 {
        let m = self.mean();
        if m == 0.0 {
            0.0
        } else {
            self.population_std_dev() / m
        }
    }
}

impl Extend<f64> for RunningStats {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for RunningStats {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut rs = RunningStats::new();
        rs.extend(iter);
        rs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_all_zero() {
        let rs = RunningStats::new();
        assert_eq!(rs.count(), 0);
        assert_eq!(rs.mean(), 0.0);
        assert_eq!(rs.population_variance(), 0.0);
    }

    #[test]
    fn single_sample() {
        let rs: RunningStats = [3.5].into_iter().collect();
        assert_eq!(rs.mean(), 3.5);
        assert_eq!(rs.population_variance(), 0.0);
    }

    #[test]
    fn known_variance() {
        let rs: RunningStats = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert!((rs.mean() - 5.0).abs() < 1e-12);
        assert!((rs.population_variance() - 4.0).abs() < 1e-12);
        assert!((rs.population_std_dev() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn cov_of_constant_stream_is_zero() {
        let rs: RunningStats = [5.0; 10].into_iter().collect();
        assert_eq!(rs.cov(), 0.0);
    }

    #[test]
    fn cov_zero_mean_guard() {
        let rs: RunningStats = [1.0, -1.0].into_iter().collect();
        assert_eq!(rs.cov(), 0.0);
    }
}
