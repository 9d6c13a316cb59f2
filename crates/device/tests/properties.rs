//! Randomized property tests for the device models, driven by the in-tree
//! deterministic [`Rng`] (no external fuzzing dependency).

use sttgpu_device::array::{ArrayDesign, ArrayGeometry};
use sttgpu_device::cell::MemTechnology;
use sttgpu_device::mtj::{Delta, MtjDesign, RetentionTime, MAX_DELTA, MIN_DELTA};
use sttgpu_stats::Rng;

/// Draws an ordered pair `(a, b)` with `a < b` from `[MIN_DELTA, MAX_DELTA)`.
fn delta_pair(rng: &mut Rng) -> (f64, f64) {
    loop {
        let a = rng.range_f64(MIN_DELTA, MAX_DELTA);
        let b = rng.range_f64(MIN_DELTA, MAX_DELTA);
        if a < b {
            return (a, b);
        }
        if b < a {
            return (b, a);
        }
    }
}

/// Retention is strictly monotone in Δ.
#[test]
fn retention_monotone_in_delta() {
    let mut rng = Rng::new(0xA11CE);
    for _ in 0..200 {
        let (a, b) = delta_pair(&mut rng);
        let ra = MtjDesign::new(Delta::new(a)).retention().as_nanos();
        let rb = MtjDesign::new(Delta::new(b)).retention().as_nanos();
        assert!(ra < rb, "retention not monotone at Δ {a} vs {b}");
    }
}

/// Write latency and energy are strictly monotone in Δ and positive.
#[test]
fn write_cost_monotone_in_delta() {
    let mut rng = Rng::new(0xB0B);
    for _ in 0..200 {
        let (a, b) = delta_pair(&mut rng);
        let ma = MtjDesign::new(Delta::new(a));
        let mb = MtjDesign::new(Delta::new(b));
        assert!(ma.write_latency_ns() > 0.0);
        assert!(ma.write_energy_nj() > 0.0);
        assert!(ma.write_latency_ns() < mb.write_latency_ns());
        assert!(ma.write_energy_nj() < mb.write_energy_nj());
    }
}

/// `for_retention` inverts `retention()` within floating-point slack.
#[test]
fn retention_inversion() {
    let mut rng = Rng::new(0xCAFE);
    for _ in 0..200 {
        // Log-uniform over the huge target range [200 ns, 1e18 ns).
        let exp = rng.range_f64(200.0f64.log10(), 18.0);
        let ns = 10f64.powf(exp);
        let m = MtjDesign::for_retention(RetentionTime::from_nanos(ns));
        let back = m.retention().as_nanos();
        assert!((back / ns - 1.0).abs() < 1e-9, "round trip failed at {ns}");
    }
}

/// Array area, latency, energy and leakage are positive and grow with
/// capacity (same tech, same banking).
#[test]
fn array_costs_grow_with_capacity() {
    let mut rng = Rng::new(0xDADA);
    for _ in 0..50 {
        let kb_small = rng.range_u64(32, 256) * 2; // whole 8-way sets of 256 B lines
        let factor = rng.range_u64(2, 8);
        let tech = MemTechnology::Sram;
        let small = ArrayDesign::new(ArrayGeometry::new(kb_small * 1024, 256, 8, 4), tech);
        let big = ArrayDesign::new(
            ArrayGeometry::new(kb_small * factor * 1024, 256, 8, 4),
            tech,
        );
        assert!(small.area_mm2() > 0.0);
        assert!(big.area_mm2() > small.area_mm2());
        assert!(big.read_latency_ns() > small.read_latency_ns());
        assert!(big.read_energy_nj() > small.read_energy_nj());
        assert!(big.leakage_mw() > small.leakage_mw());
    }
}

/// More banks never make a bank slower (smaller banks are faster).
#[test]
fn banking_helps_latency() {
    let tech = MemTechnology::Sram;
    for banks_a in 1u32..8 {
        for banks_b in (banks_a + 1)..8 {
            let a = ArrayDesign::new(ArrayGeometry::new(1024 * 1024, 256, 8, banks_a), tech);
            let b = ArrayDesign::new(ArrayGeometry::new(1024 * 1024, 256, 8, banks_b), tech);
            assert!(b.read_latency_ns() <= a.read_latency_ns());
        }
    }
}

/// STT-RAM of 4x the capacity never exceeds the SRAM area by more than
/// the tag overhead (25 %).
#[test]
fn four_x_density_holds() {
    let mut rng = Rng::new(0x4444);
    for _ in 0..100 {
        let kb = rng.range_u64(32, 512) * 2;
        let sram = ArrayDesign::new(
            ArrayGeometry::new(kb * 1024, 256, 8, 4),
            MemTechnology::Sram,
        );
        let stt = ArrayDesign::new(
            ArrayGeometry::new(4 * kb * 1024, 256, 8, 4),
            MemTechnology::stt_for_retention(RetentionTime::from_years(10.0)),
        );
        assert!(stt.area_mm2() <= 1.25 * sram.area_mm2(), "at {kb} KB");
    }
}
