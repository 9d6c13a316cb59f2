//! Division-free quotient and remainder by a divisor fixed at setup.
//!
//! Set, bank and memory-controller mapping reduce every access address
//! modulo a geometry constant. A hardware 64-bit divide costs tens of
//! cycles; [`Divisor`] precomputes a reciprocal once so each reduction is
//! a mask and shift (powers of two) or four multiplications (any other
//! divisor, e.g. the 384- and 768-set arrays of the paper's C1 LLC).

/// A non-zero `u64` divisor with its reciprocal precomputed.
///
/// For a divisor `d` that is not a power of two the reciprocal is
/// `c = ceil(2^128 / d)`. Writing `n = q·d + r` and `c·d = 2^128 + e`
/// with `0 < e < d`, the 192-bit product `c·n` equals
/// `q·2^128 + (q·e + r·c)`, and the low part stays below `2^128` for every
/// 64-bit `n` as long as `d ≤ 2^63`. So `c·n >> 128` is exactly `q`, and
/// `((c·n mod 2^128)·d) >> 128 = r + e·n / 2^128` is exactly `r` because
/// `e·n < d·2^64 ≤ 2^128` (Lemire, Kaser and Kurz, "Faster remainder by
/// direct computation", 2019).
///
/// # Example
///
/// ```
/// use sttgpu_cache::Divisor;
///
/// let sets = Divisor::new(384);
/// assert_eq!(sets.div_rem(u64::MAX), (u64::MAX / 384, u64::MAX % 384));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Divisor {
    d: u64,
    /// `log2(d)` when `d` is a power of two.
    shift: u32,
    /// `ceil(2^128 / d)`, or 0 when `d` is a power of two.
    recip: u128,
}

impl Divisor {
    /// Precomputes the reciprocal of `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d` is zero, or if it exceeds `2^63` without being a
    /// power of two (the reciprocal is exact only up to there).
    pub fn new(d: u64) -> Self {
        assert!(d > 0, "divisor must be non-zero");
        if d.is_power_of_two() {
            return Divisor {
                d,
                shift: d.trailing_zeros(),
                recip: 0,
            };
        }
        assert!(
            d <= 1 << 63,
            "divisor {d} is too large for an exact reciprocal"
        );
        Divisor {
            d,
            shift: 0,
            recip: u128::MAX / d as u128 + 1,
        }
    }

    /// The divisor.
    pub fn get(self) -> u64 {
        self.d
    }

    /// The low 128 bits of `recip · n` and the bits above them.
    #[inline]
    fn scaled(self, n: u64) -> (u128, u64) {
        let lo = (self.recip as u64) as u128 * n as u128;
        let hi = (self.recip >> 64) * n as u128;
        let mid = (lo >> 64) + (hi as u64) as u128;
        let frac = (mid << 64) | (lo as u64) as u128;
        (frac, ((hi >> 64) + (mid >> 64)) as u64)
    }

    /// `d`'s remainder from the fractional part of `recip · n`.
    #[inline]
    fn frac_rem(self, frac: u128) -> u64 {
        let low = ((frac as u64) as u128 * self.d as u128) >> 64;
        (((frac >> 64) * self.d as u128 + low) >> 64) as u64
    }

    /// `n % d`.
    #[inline]
    pub(crate) fn modulo(self, n: u64) -> u64 {
        if self.recip == 0 {
            return n & (self.d - 1);
        }
        self.frac_rem(self.scaled(n).0)
    }

    /// `n / d`.
    #[inline]
    pub fn quotient(self, n: u64) -> u64 {
        if self.recip == 0 {
            return n >> self.shift;
        }
        self.scaled(n).1
    }

    /// `(n / d, n % d)`.
    #[inline]
    pub fn div_rem(self, n: u64) -> (u64, u64) {
        if self.recip == 0 {
            return (n >> self.shift, n & (self.d - 1));
        }
        let (frac, q) = self.scaled(n);
        (q, self.frac_rem(frac))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Numerators that stress every carry in the 192-bit product.
    fn numerators(d: u64) -> Vec<u64> {
        let mut ns = vec![0, 1, 2, d - 1, d, d + 1, u64::MAX, u64::MAX - 1];
        ns.extend([u64::MAX / 2, u64::MAX / 2 + 1, 1 << 32, (1 << 32) - 1]);
        // Multiples of d and their neighbours near the top of the range.
        let top = u64::MAX / d * d;
        ns.extend([top, top - 1, top.wrapping_add(d - 1)]);
        if top >= d {
            ns.extend([top - d, top - d + 1]);
        }
        let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ d;
        for _ in 0..64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            ns.push(x);
            ns.push(x >> 20);
        }
        ns
    }

    fn check(d: u64) {
        let div = Divisor::new(d);
        assert_eq!(div.get(), d);
        for n in numerators(d) {
            assert_eq!(div.modulo(n), n % d, "{n} % {d}");
            assert_eq!(div.quotient(n), n / d, "{n} / {d}");
            assert_eq!(div.div_rem(n), (n / d, n % d));
        }
    }

    #[test]
    fn matches_hardware_division_for_small_divisors() {
        for d in 1..5000 {
            check(d);
        }
    }

    #[test]
    fn matches_hardware_division_for_powers_of_two_and_c1_sets() {
        for k in 0..64 {
            check(1 << k);
        }
        for d in [3, 6, 7, 384, 768, 1536, 3 << 20, 1_000_003] {
            check(d);
        }
    }

    #[test]
    fn matches_hardware_division_for_large_divisors() {
        for d in [
            u32::MAX as u64,
            u32::MAX as u64 + 2,
            (1 << 40) + 7,
            (1 << 62) + 1,
            (1 << 63) - 1,
            1 << 63,
        ] {
            check(d);
        }
    }

    #[test]
    fn salted_set_indices_match_modulo() {
        for d in [1u64, 2, 3, 16, 384, 768, 4999] {
            let div = Divisor::new(d);
            for salt in [1u64, 2593, 2593 * 7, u64::MAX, u64::MAX - 2592] {
                for n in numerators(d) {
                    let m = n.wrapping_add(salt);
                    assert_eq!(div.modulo(m), m % d, "({n} + {salt}) % {d}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn rejects_zero() {
        let _ = Divisor::new(0);
    }
}
