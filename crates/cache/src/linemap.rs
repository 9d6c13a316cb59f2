//! A `HashMap` keyed by line addresses with a cheap multiplicative hasher.
//!
//! The MSHR tables and the memory system's pending-miss map are keyed by
//! `u64` line addresses and sit on the per-access hot path, where the
//! standard library's DoS-resistant SipHash is measurable overhead. Line
//! addresses come from a simulator-internal address stream, so hash-flood
//! hardening buys nothing here. The replacement is a Fibonacci multiply
//! followed by an XOR fold of the high bits into the low bits — the fold
//! matters because line addresses share their low alignment bits, and
//! hashbrown derives both the bucket index and its control tag from
//! opposite ends of the hash.
//!
//! Swapping the hasher is invisible to simulation results: neither map is
//! ever iterated, so only keyed lookups (order-free) observe the layout.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Hasher for simulator-internal `u64` keys. Only `write_u64` is on the
/// hot path; the byte fallback exists to satisfy the `Hasher` contract.
#[derive(Default)]
pub struct LineHasher(u64);

impl Hasher for LineHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// `HashMap<u64, V>` with the [`LineHasher`].
pub type LineMap<V> = HashMap<u64, V, BuildHasherDefault<LineHasher>>;

/// An empty [`LineMap`] with room for `capacity` entries.
pub(crate) fn line_map_with_capacity<V>(capacity: usize) -> LineMap<V> {
    LineMap::with_capacity_and_hasher(capacity, BuildHasherDefault::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyed_operations_behave_like_a_map() {
        let mut m: LineMap<u32> = LineMap::default();
        for i in 0..1000u64 {
            m.insert(i * 128, i as u32);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u64 {
            assert_eq!(m.get(&(i * 128)), Some(&(i as u32)));
        }
        assert_eq!(m.remove(&(5 * 128)), Some(5));
        assert!(!m.contains_key(&(5 * 128)));
    }

    #[test]
    fn aligned_keys_spread_over_low_bits() {
        // Line addresses are 64/128-byte aligned; the XOR fold must keep
        // the low hash bits (hashbrown's bucket index) varied anyway.
        let mut low_bits = std::collections::HashSet::new();
        for i in 0..256u64 {
            let mut h = LineHasher::default();
            h.write_u64(i * 128);
            low_bits.insert(h.finish() & 0x7f);
        }
        assert!(
            low_bits.len() > 100,
            "low bits collapsed: {}",
            low_bits.len()
        );
    }
}
