//! Bucketed histogram with explicit upper bounds.

use std::fmt;

/// One histogram bucket: samples with `value <= upper_bound` (and greater
/// than the previous bucket's bound) land here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bucket {
    /// Inclusive upper bound of the bucket, `u64::MAX` for the overflow
    /// bucket.
    pub(crate) upper_bound: u64,
    /// Number of samples recorded into the bucket.
    pub count: u64,
}

/// A histogram over `u64` samples with caller-supplied bucket upper bounds.
///
/// An implicit overflow bucket (`> last bound`) is always appended, so Fig. 6
/// of the paper ("rewrite interval time distribution": ≤1 µs, ≤5 µs, ≤10 µs,
/// ≤1 ms, >2.5 ms) maps onto bounds `[1_000, 5_000, 10_000, 1_000_000,
/// 2_500_000]` nanoseconds plus the implicit `>2.5 ms` bucket.
///
/// # Example
///
/// ```
/// use sttgpu_stats::Histogram;
///
/// let mut h = Histogram::new(&[10, 100]);
/// h.record(5);
/// h.record(50);
/// h.record(500);
/// assert_eq!(h.counts(), vec![1, 1, 1]);
/// assert!((h.fraction(0) - 1.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with the given strictly increasing inclusive
    /// upper bounds. An overflow bucket is appended automatically.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is not strictly increasing.
    pub fn new(bounds: &[u64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            total: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let idx = self.bucket_index(value);
        self.counts[idx] += 1;
        self.total += 1;
    }

    fn bucket_index(&self, value: u64) -> usize {
        // partition_point returns the count of bounds < value, i.e. the
        // first bucket whose inclusive upper bound admits the value.
        self.bounds.partition_point(|&b| b < value)
    }

    /// Total number of samples.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of buckets, including the overflow bucket.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Returns `true` when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Per-bucket counts (last entry is the overflow bucket).
    pub fn counts(&self) -> Vec<u64> {
        self.counts.clone()
    }

    /// Fraction of samples in bucket `idx`, or 0.0 when empty.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.len()`.
    pub fn fraction(&self, idx: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.counts[idx] as f64 / self.total as f64
        }
    }

    /// All bucket fractions, in bucket order.
    pub fn fractions(&self) -> Vec<f64> {
        (0..self.len()).map(|i| self.fraction(i)).collect()
    }

    /// Iterates over buckets as [`Bucket`] values; the overflow bucket is
    /// reported with `upper_bound == u64::MAX`.
    pub fn iter(&self) -> impl Iterator<Item = Bucket> + '_ {
        self.counts
            .iter()
            .enumerate()
            .map(move |(i, &count)| Bucket {
                upper_bound: self.bounds.get(i).copied().unwrap_or(u64::MAX),
                count,
            })
    }

    /// Fraction of samples at or below `bound` (bound must equal one of the
    /// configured bucket bounds to be meaningful).
    pub fn cumulative_fraction_at(&self, bound: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let upto: u64 = self
            .bounds
            .iter()
            .zip(&self.counts)
            .filter(|(&b, _)| b <= bound)
            .map(|(_, &c)| c)
            .sum();
        upto as f64 / self.total as f64
    }

    /// Clears all counts, keeping the bucket layout.
    pub fn reset(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.total = 0;
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.iter() {
            if b.upper_bound == u64::MAX {
                writeln!(f, "  >rest: {}", b.count)?;
            } else {
                writeln!(f, "  <={}: {}", b.upper_bound, b.count)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundaries_are_inclusive() {
        let mut h = Histogram::new(&[10, 100]);
        h.record(10);
        h.record(11);
        h.record(100);
        h.record(101);
        assert_eq!(h.counts(), vec![1, 2, 1]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_non_increasing_bounds() {
        Histogram::new(&[10, 10]);
    }

    #[test]
    fn fractions_sum_to_one() {
        let mut h = Histogram::new(&[1, 2, 3]);
        for v in [0, 1, 2, 3, 4, 5] {
            h.record(v);
        }
        let sum: f64 = h.fractions().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cumulative_fraction() {
        let mut h = Histogram::new(&[10, 100, 1000]);
        h.record(5); // <=10
        h.record(50); // <=100
        h.record(500); // <=1000
        h.record(5000); // overflow
        assert!((h.cumulative_fraction_at(100) - 0.5).abs() < 1e-12);
        assert!((h.cumulative_fraction_at(1000) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn reset_keeps_layout() {
        let mut h = Histogram::new(&[10]);
        h.record(1);
        h.reset();
        assert_eq!(h.total(), 0);
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn empty_fraction_is_zero() {
        let h = Histogram::new(&[10]);
        assert_eq!(h.fraction(0), 0.0);
        assert!(h.is_empty());
    }

    #[test]
    fn fig6_bucket_layout() {
        // The exact layout used for Fig. 6 reproduction.
        let mut h = Histogram::new(&[1_000, 5_000, 10_000, 1_000_000, 2_500_000]);
        h.record(999); // <=1us
        h.record(4_999); // <=5us
        h.record(9_000); // <=10us
        h.record(999_999); // <=1ms
        h.record(2_400_000); // <=2.5ms
        h.record(3_000_000); // >2.5ms
        assert_eq!(h.counts(), vec![1, 1, 1, 1, 1, 1]);
    }
}
