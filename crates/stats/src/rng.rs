//! Small deterministic pseudo-random number generator.
//!
//! The simulator needs reproducible randomness (warp-program generation,
//! randomized tests) without pulling an external crate into the offline
//! build. This is xoshiro256++ seeded through splitmix64 — the same
//! construction `rand`'s `SmallRng` uses on 64-bit targets — so stream
//! quality is well understood while every byte stays in-tree.
//!
//! Streams are a stable part of the simulator's contract: two runs with the
//! same seed produce bit-identical traces, and the experiment runner's
//! memoization relies on that.
//!
//! ```
//! use sttgpu_stats::Rng;
//! let mut a = Rng::new(42);
//! let mut b = Rng::new(42);
//! assert_eq!(a.f64_unit(), b.f64_unit());
//! assert!(a.range_u64(0, 10) < 10);
//! ```

/// Deterministic xoshiro256++ generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

/// One step of splitmix64; used to expand a single seed word into the
/// four-word xoshiro state so that similar seeds give unrelated streams.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Creates a generator from a 64-bit seed. Any seed is fine, including
    /// zero; the splitmix expansion guarantees a non-degenerate state.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        Rng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub(crate) fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `u64` in `[lo, hi)`. Panics if the range is empty.
    /// Uses multiply-shift rejection so the distribution is unbiased.
    #[inline]
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        let span = hi - lo;
        // Lemire's multiply-shift with rejection on the low word.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (span as u128);
        let mut l = m as u64;
        if l < span {
            let t = span.wrapping_neg() % span;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (span as u128);
                l = m as u64;
            }
        }
        lo + (m >> 64) as u64
    }

    /// Uniform `usize` in `[lo, hi)`.
    #[inline]
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range_u64(lo as u64, hi as u64) as usize
    }

    /// Uniform `u32` in `[lo, hi)`.
    #[inline]
    pub fn range_u32(&mut self, lo: u32, hi: u32) -> u32 {
        self.range_u64(lo as u64, hi as u64) as u32
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64_unit()
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.f64_unit() < p
    }
}

/// A Bernoulli probability prepared once for many draws.
///
/// `Chance::new(p).draw(rng)` returns exactly what `rng.chance(p)` returns
/// and consumes the same stream, but compares integers instead of
/// converting every draw to `f64`: for the 53-bit draw `u = next_u64() >> 11`,
/// `u · 2⁻⁵³ < p` is an exact real comparison (both sides are exactly
/// representable), which holds iff `u < ⌈p · 2⁵³⌉`. As with
/// [`Rng::chance`], `p ≤ 0` and `p ≥ 1` consume no draw.
///
/// One word: a threshold in `0..=2⁵³`, or one of two sentinels above
/// that range for the no-draw cases.
///
/// ```
/// use sttgpu_stats::{Chance, Rng};
/// let (mut a, mut b) = (Rng::new(5), Rng::new(5));
/// let c = Chance::new(0.3);
/// for _ in 0..100 {
///     assert_eq!(c.draw(&mut a), b.chance(0.3));
/// }
/// assert_eq!(a, b);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chance(u64);

impl Chance {
    /// `p ≤ 0`: always `false`, no draw.
    pub const NEVER: Chance = Chance(u64::MAX - 1);
    /// `p ≥ 1`: always `true`, no draw.
    pub(crate) const ALWAYS: Chance = Chance(u64::MAX);

    /// Prepares probability `p` (clamped to `[0, 1]` like [`Rng::chance`]).
    pub fn new(p: f64) -> Self {
        if p <= 0.0 {
            Chance::NEVER
        } else if p >= 1.0 {
            Chance::ALWAYS
        } else {
            // Exact: scaling by a power of two; `as` maps NaN to 0, which
            // keeps `chance(NaN)`'s draw-and-return-false behaviour.
            Chance((p * (1u64 << 53) as f64).ceil() as u64)
        }
    }

    /// One Bernoulli draw from `rng`.
    #[inline]
    pub fn draw(self, rng: &mut Rng) -> bool {
        if self.0 <= 1 << 53 {
            (rng.next_u64() >> 11) < self.0
        } else {
            self == Chance::ALWAYS
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn zero_seed_is_not_degenerate() {
        let mut r = Rng::new(0);
        let first = r.next_u64();
        assert_ne!(first, 0);
        assert_ne!(first, r.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = Rng::new(123);
        for _ in 0..10_000 {
            let v = r.range_u64(10, 17);
            assert!((10..17).contains(&v));
        }
        for _ in 0..1000 {
            let f = r.range_f64(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&f));
        }
    }

    #[test]
    fn range_covers_all_values() {
        let mut r = Rng::new(9);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[r.range_usize(0, 7)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn unit_floats_are_half_on_average() {
        let mut r = Rng::new(5);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| r.f64_unit()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn chance_matches_probability() {
        let mut r = Rng::new(11);
        let n = 50_000;
        let hits = (0..n).filter(|_| r.chance(0.3)).count();
        let frac = hits as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.01, "frac {frac}");
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn prepared_chance_matches_float_chance_and_stream() {
        let eps = 1.0 / (1u64 << 53) as f64;
        for p in [0.0, eps, 0.12, 0.5, 1.0 - eps, 1.0, -0.5, 1.5, f64::NAN] {
            let c = Chance::new(p);
            let mut a = Rng::new(0xC4A7);
            let mut b = Rng::new(0xC4A7);
            for _ in 0..10_000 {
                assert_eq!(c.draw(&mut a), b.chance(p), "p = {p}");
            }
            assert_eq!(a, b, "stream position diverged at p = {p}");
        }
        // The thresholds at the edges of the 53-bit grid.
        assert_eq!(Chance::new(eps), Chance(1));
        assert_eq!(Chance::new(1.0 - eps), Chance((1 << 53) - 1));
        assert_eq!(Chance::new(f64::NAN), Chance(0));
        assert_eq!(Chance::new(0.0), Chance::NEVER);
        assert_eq!(Chance::new(1.0), Chance::ALWAYS);
    }

    #[test]
    fn prepared_chance_agrees_at_every_boundary_draw() {
        // Drive the comparison directly at u = T-1, T, T+1 for each
        // threshold: the integer test must agree with the float test.
        let eps = 1.0 / (1u64 << 53) as f64;
        for p in [eps, 0.12, 0.5, 1.0 - eps, 0.1 + 0.2, 1.0 / 3.0] {
            let t = Chance::new(p).0;
            for u in [t.saturating_sub(1), t, t + 1] {
                if u >= 1 << 53 {
                    continue;
                }
                let float = (u as f64) * eps < p;
                assert_eq!(u < t, float, "p = {p}, u = {u}");
            }
        }
    }

    #[test]
    fn chance_extremes_consume_no_stream() {
        let mut a = Rng::new(3);
        let mut b = Rng::new(3);
        assert!(!a.chance(-1.0));
        assert!(a.chance(2.0));
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
