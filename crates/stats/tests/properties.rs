//! Randomized property tests for the statistics substrate, driven by the
//! in-tree deterministic [`Rng`] (no external fuzzing dependency).

use sttgpu_stats::{coefficient_of_variation, Histogram, Rng, RunningStats, WriteVariation};

/// Welford accumulation matches the naive two-pass formulas.
#[test]
fn welford_matches_naive() {
    let mut rng = Rng::new(0xC0FFEE);
    for _ in 0..50 {
        let n = rng.range_usize(1, 200);
        let xs: Vec<f64> = (0..n).map(|_| rng.range_f64(-1e6, 1e6)).collect();
        let rs: RunningStats = xs.iter().copied().collect();
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        assert!((rs.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        assert!((rs.population_variance() - var).abs() < 1e-4 * (1.0 + var.abs()));
    }
}

/// Draws a sorted set of distinct histogram bounds.
fn random_bounds(rng: &mut Rng, lo: u64, hi: u64, min_n: usize, max_n: usize) -> Vec<u64> {
    let n = rng.range_usize(min_n, max_n);
    let mut set = std::collections::BTreeSet::new();
    while set.len() < n {
        set.insert(rng.range_u64(lo, hi));
    }
    set.into_iter().collect()
}

/// Every recorded sample lands in exactly one bucket.
#[test]
fn histogram_conserves_samples() {
    let mut rng = Rng::new(0xD00D);
    for _ in 0..50 {
        let bounds = random_bounds(&mut rng, 1, 10_000, 1, 8);
        let values: Vec<u64> = (0..rng.range_usize(0, 200))
            .map(|_| rng.range_u64(0, 20_000))
            .collect();
        let mut h = Histogram::new(&bounds);
        for &v in &values {
            h.record(v);
        }
        assert_eq!(h.total(), values.len() as u64);
        assert_eq!(h.counts().iter().sum::<u64>(), values.len() as u64);
    }
}

/// Bucketing respects the inclusive upper bounds.
#[test]
fn histogram_bucket_ordering() {
    let mut rng = Rng::new(0xF00D);
    for _ in 0..200 {
        let bounds = random_bounds(&mut rng, 1, 1_000, 2, 6);
        let v = rng.range_u64(0, 2_000);
        let mut h = Histogram::new(&bounds);
        h.record(v);
        let counts = h.counts();
        let idx = counts
            .iter()
            .position(|&c| c == 1)
            .expect("one bucket must hold the sample");
        if idx < bounds.len() {
            assert!(v <= bounds[idx]);
        }
        if idx > 0 {
            assert!(v > bounds[idx - 1]);
        }
    }
}

/// COV is invariant under positive scaling.
#[test]
fn cov_scale_invariant() {
    let mut rng = Rng::new(0xACE);
    for _ in 0..50 {
        let xs: Vec<f64> = (0..rng.range_usize(2, 100))
            .map(|_| rng.range_f64(0.1, 1e3))
            .collect();
        let scale = rng.range_f64(0.1, 100.0);
        let scaled: Vec<f64> = xs.iter().map(|x| x * scale).collect();
        let a = coefficient_of_variation(&xs);
        let b = coefficient_of_variation(&scaled);
        assert!((a - b).abs() < 1e-6 * (1.0 + a.abs()));
    }
}

/// Write-variation metrics are non-negative and zero for uniform matrices.
#[test]
fn write_variation_sanity() {
    let mut rng = Rng::new(0x5150);
    for _ in 0..50 {
        let sets = rng.range_usize(1, 16);
        let ways = rng.range_usize(1, 16);
        let fill = rng.range_u64(0, 100);
        let uniform = vec![vec![fill; ways]; sets];
        let wv = WriteVariation::from_counts(&uniform);
        assert_eq!(wv.inter_set, 0.0);
        assert_eq!(wv.intra_set, 0.0);
    }
}

/// Permuting ways within each set leaves intra-set variation unchanged.
#[test]
fn intra_set_permutation_invariant() {
    let mut rng = Rng::new(0x1234);
    for _ in 0..50 {
        let sets = rng.range_usize(2, 8);
        let ways = rng.range_usize(4, 6);
        let mut matrix: Vec<Vec<u64>> = (0..sets)
            .map(|_| (0..ways).map(|_| rng.range_u64(0, 50)).collect())
            .collect();
        let before = WriteVariation::from_counts(&matrix);
        for set in &mut matrix {
            set.reverse();
        }
        let after = WriteVariation::from_counts(&matrix);
        assert!((before.inter_set - after.inter_set).abs() < 1e-9);
        assert!((before.intra_set - after.intra_set).abs() < 1e-9);
    }
}
