//! Randomized property tests for the cache substrate's invariants, driven
//! by the in-tree deterministic [`Rng`] (no external fuzzing dependency).

use sttgpu_cache::{AccessKind, MshrOutcome, MshrTable, SetAssocCache};
use sttgpu_stats::Rng;

/// Draws a random op trace: (op selector, line address).
fn random_ops(rng: &mut Rng, max_addr: u64, max_len: usize) -> Vec<(u8, u64)> {
    let len = rng.range_usize(1, max_len);
    (0..len)
        .map(|_| (rng.range_u32(0, 4) as u8, rng.range_u64(0, max_addr)))
        .collect()
}

/// Applies a random mix of fills/lookups/extracts and checks structural
/// invariants after every step.
fn run_ops(sets: usize, ways: usize, ops: &[(u8, u64)]) {
    let mut c: SetAssocCache<()> = SetAssocCache::new(sets, ways, 128);
    for &(op, addr) in ops {
        match op % 4 {
            0 => {
                c.lookup(addr, AccessKind::Read);
            }
            1 => {
                c.lookup(addr, AccessKind::Write);
            }
            2 => {
                c.fill(addr, op % 2 == 0);
            }
            _ => {
                c.extract(addr);
            }
        }

        // Invariant 1: a line address appears at most once among valid lines.
        let mut seen = std::collections::HashSet::new();
        for (_, la, _) in c.iter() {
            assert!(seen.insert(la), "duplicate line {la:#x}");
        }
        // Invariant 2: every valid line sits in its home set, and its
        // address finds it there.
        for (slot, la, _) in c.iter() {
            assert_eq!(c.set_index(la), slot.index() / ways, "line in wrong set");
            assert_eq!(c.find(la), Some(slot));
        }
    }
}

/// No duplicate tags, correct set placement.
#[test]
fn structural_invariants_lru() {
    let mut rng = Rng::new(0x10);
    for _ in 0..40 {
        run_ops(4, 2, &random_ops(&mut rng, 64, 300));
    }
}

/// A fill makes the line resident; hits never change residency.
#[test]
fn fill_then_hit() {
    let mut rng = Rng::new(0x40);
    for _ in 0..40 {
        let mut c: SetAssocCache<()> = SetAssocCache::new(8, 4, 128);
        let n = rng.range_usize(1, 100);
        for _ in 0..n {
            let a = rng.range_u64(0, 256);
            c.fill(a, false);
            assert!(c.contains(a), "line must be resident right after fill");
            assert!(c.lookup(a, AccessKind::Read).is_some());
            assert!(c.contains(a));
        }
    }
}

/// The number of valid lines never exceeds capacity, and evictions are
/// reported exactly when a valid line is displaced.
#[test]
fn eviction_accounting() {
    let mut rng = Rng::new(0x60);
    for _ in 0..40 {
        let mut c: SetAssocCache<()> = SetAssocCache::new(4, 2, 128);
        let mut resident = std::collections::HashSet::new();
        let n = rng.range_usize(1, 300);
        for _ in 0..n {
            let a = rng.range_u64(0, 1024);
            if resident.contains(&a) {
                c.fill(a, false);
                continue;
            }
            let evicted = c.fill(a, false);
            resident.insert(a);
            if let Some(ev) = evicted {
                assert!(
                    resident.remove(&ev.line_addr),
                    "evicted a non-resident line"
                );
            }
            assert!(resident.len() <= c.capacity_lines());
        }
        assert_eq!(c.iter().count(), resident.len());
    }
}

/// LRU property: within a set, filling a full set evicts the line whose
/// last touch is oldest.
#[test]
fn lru_evicts_oldest_touch() {
    for n in 2usize..8 {
        let mut c: SetAssocCache<()> = SetAssocCache::new(1, n, 128);
        for a in 0..n as u64 {
            c.fill(a, false);
        }
        // Touch all but line `n/2` in some later order.
        let skip = (n / 2) as u64;
        for a in (0..n as u64).filter(|&a| a != skip) {
            c.lookup(a, AccessKind::Read);
        }
        let ev = c.fill(999, false).expect("set was full");
        assert_eq!(ev.line_addr, skip);
    }
}

/// MSHR: tokens in equal tokens out, entries drain to empty.
#[test]
fn mshr_conserves_tokens() {
    let mut rng = Rng::new(0x70);
    for _ in 0..40 {
        let mut m = MshrTable::new(8, 4);
        let mut expected: std::collections::HashMap<u64, Vec<u64>> = Default::default();
        let n = rng.range_usize(1, 200);
        for _ in 0..n {
            let line = rng.range_u64(0, 16);
            let token = rng.range_u64(0, 1000);
            match m.allocate(line, token) {
                MshrOutcome::Allocated | MshrOutcome::Merged => {
                    expected.entry(line).or_default().push(token);
                }
                MshrOutcome::Full => {}
            }
        }
        let lines: Vec<u64> = expected.keys().copied().collect();
        for line in lines {
            let got = m.complete(line);
            assert_eq!(got, expected.remove(&line).unwrap_or_default());
        }
        assert!(m.is_empty());
    }
}
