//! Generic set-associative cache array.

use crate::Divisor;

/// Kind of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A read (load, fetch, fill probe).
    Read,
    /// A write (store, write-through from an inner level).
    Write,
}

impl AccessKind {
    /// `true` for [`AccessKind::Write`].
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

/// One resident line's state: the dirty bit plus caller-defined metadata
/// `M`.
///
/// The line address and replacement stamp live in parallel rows on
/// [`SetAssocCache`] (not here): way lookups and victim scans read one
/// contiguous `u64` row per set instead of striding across these
/// records.
#[derive(Debug, Clone)]
pub struct Line<M> {
    dirty: bool,
    /// Caller-defined metadata (e.g. retention clocks and write-working-set
    /// history in the two-part LLC). Set by the fill that places the line.
    pub meta: M,
}

/// Where a resident line sits in a [`SetAssocCache`], as returned by
/// [`find`](SetAssocCache::find) and [`fill_with`](SetAssocCache::fill_with).
///
/// A handle lets one address lookup serve every later step of an access
/// (hit bookkeeping, metadata updates, extraction). It stays valid until
/// the next call that changes residency: `fill`, `fill_with`, `extract`,
/// `extract_slot`, `flush` or `flush_into`.
///
/// Each slot is one physical position with a dense index in
/// `[0, capacity_lines)`, (set, way) order, so owners can keep per-slot
/// side tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot(usize);

impl Slot {
    /// The handle of the position at `index` (see [`index`](Self::index)).
    pub fn new(index: usize) -> Slot {
        Slot(index)
    }

    /// The slot's dense position index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// What [`fill_with`](SetAssocCache::fill_with) did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement<M> {
    /// The slot now holding the line.
    pub slot: Slot,
    /// `true` when the fill wrote the line into `slot`; `false` when the
    /// line was already resident there and only its dirty bit merged.
    pub placed: bool,
    /// The valid line the fill displaced, if any.
    pub evicted: Option<Evicted<M>>,
}

/// A line evicted (or extracted) from the array, with everything the owner
/// needs to write it back or migrate it elsewhere.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Evicted<M> {
    /// Line-granular address of the victim.
    pub line_addr: u64,
    /// Whether the victim was dirty (needs a write-back).
    pub dirty: bool,
    /// Caller metadata carried by the victim.
    pub meta: M,
}

/// A set-associative cache array with LRU replacement and per-line
/// metadata.
///
/// Addresses are handled at line granularity (`line_addr = byte_addr /
/// line_bytes`); the [`line_addr`](SetAssocCache::line_addr) helper does the
/// conversion. Physical (set, way) write counts are accumulated across
/// evictions for write-variation analysis (Fig. 3 of the paper). The array
/// keeps no access statistics: its owners count what they report.
///
/// # Example
///
/// ```
/// use sttgpu_cache::{AccessKind, SetAssocCache};
///
/// let mut c: SetAssocCache<()> = SetAssocCache::new(16, 4, 128);
/// let la = c.line_addr(0xABCD);
/// assert!(c.lookup(la, AccessKind::Write).is_none());
/// c.fill(la, true);
/// assert!(c.lookup(la, AccessKind::Read).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache<M> {
    sets: usize,
    ways: usize,
    line_bytes: u32,
    lines: Vec<Line<M>>,
    /// Per-slot line address, [`INVALID_TAG`] when the slot is empty: the
    /// one record of residency, so the per-access way scan touches one
    /// cache-friendly `u64` row per set.
    tags: Vec<u64>,
    /// Per-slot recency stamp, bumped on every fill and hit; the LRU
    /// victim is the minimum.
    stamps: Vec<u64>,
    position_writes: Vec<u64>,
    /// `sets` as a [`Divisor`]: the set index is a mask or a multiply.
    set_div: Divisor,
    set_salt: u64,
    stamp: u64,
}

/// Tag sentinel for an empty slot. Line addresses are byte addresses
/// divided by the line size, so no valid line can reach it.
const INVALID_TAG: u64 = u64::MAX;

impl<M: Default> SetAssocCache<M> {
    /// Creates an empty cache of `sets` × `ways` lines of `line_bytes`.
    ///
    /// A fully-associative cache is `sets == 1`; a direct-mapped one is
    /// `ways == 1`.
    ///
    /// # Panics
    ///
    /// Panics if `sets`, `ways` or `line_bytes` is zero, or if `line_bytes`
    /// is not a power of two.
    pub fn new(sets: usize, ways: usize, line_bytes: u32) -> Self {
        assert!(sets > 0 && ways > 0, "cache must have at least one line");
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two, got {line_bytes}"
        );
        let lines = (0..sets * ways)
            .map(|_| Line {
                dirty: false,
                meta: M::default(),
            })
            .collect();
        SetAssocCache {
            sets,
            ways,
            line_bytes,
            lines,
            tags: vec![INVALID_TAG; sets * ways],
            stamps: vec![0; sets * ways],
            position_writes: vec![0; sets * ways],
            set_div: Divisor::new(sets as u64),
            set_salt: 0,
            stamp: 0,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Ways per set.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u32 {
        self.line_bytes
    }

    /// Total line capacity.
    pub fn capacity_lines(&self) -> usize {
        self.sets * self.ways
    }

    /// Converts a byte address to this cache's line-granular address.
    pub fn line_addr(&self, byte_addr: u64) -> u64 {
        byte_addr / self.line_bytes as u64
    }

    /// Set index of a line address (offset by the current set salt).
    pub fn set_index(&self, line_addr: u64) -> usize {
        self.set_div.modulo(line_addr.wrapping_add(self.set_salt)) as usize
    }

    /// Changes the address→set mapping salt, used by wear-rotation schemes
    /// to spread hot blocks over different physical sets across epochs.
    ///
    /// The caller **must flush the cache first**: resident lines were
    /// placed under the old mapping and become unreachable otherwise.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any valid line remains.
    pub fn set_salt(&mut self, salt: u64) {
        debug_assert!(
            self.tags.iter().all(|&t| t == INVALID_TAG),
            "set_salt requires a flushed cache"
        );
        self.set_salt = salt;
    }

    fn slot(&self, set: usize, way: usize) -> usize {
        set * self.ways + way
    }

    /// The set index of `line_addr` and its slot when resident — the one
    /// address reduction every lookup path makes.
    fn locate(&self, line_addr: u64) -> (usize, Option<usize>) {
        let set = self.set_index(line_addr);
        let base = set * self.ways;
        let way = self.tags[base..base + self.ways]
            .iter()
            .position(|&t| t == line_addr);
        (set, way.map(|w| base + w))
    }

    fn next_stamp(&mut self) -> u64 {
        self.stamp += 1;
        self.stamp
    }

    /// Looks a line up, updating replacement state and, for a write, the
    /// dirty bit. Returns the line on a hit, `None` on a miss.
    pub fn lookup(&mut self, line_addr: u64, kind: AccessKind) -> Option<&mut Line<M>> {
        self.find(line_addr).map(|slot| self.hit(slot, kind))
    }

    /// Finds a resident line without updating any state. The handle
    /// serves [`line`](Self::line), [`line_mut`](Self::line_mut),
    /// [`hit`](Self::hit) and [`extract_slot`](Self::extract_slot) until
    /// residency next changes.
    pub fn find(&self, line_addr: u64) -> Option<Slot> {
        self.locate(line_addr).1.map(Slot)
    }

    /// The line at a handle from [`find`](Self::find).
    pub fn line(&self, slot: Slot) -> &Line<M> {
        &self.lines[slot.0]
    }

    /// The line at a handle, mutably, without updating replacement state
    /// (for metadata such as retention clocks).
    pub fn line_mut(&mut self, slot: Slot) -> &mut Line<M> {
        &mut self.lines[slot.0]
    }

    /// Records a hit on the line at `slot` exactly as
    /// [`lookup`](Self::lookup) does on a hit: replacement stamp and, for
    /// a write, the position write count and the dirty bit.
    pub fn hit(&mut self, slot: Slot, kind: AccessKind) -> &mut Line<M> {
        let slot = slot.0;
        self.stamps[slot] = self.next_stamp();
        let line = &mut self.lines[slot];
        if kind.is_write() {
            self.position_writes[slot] += 1;
            line.dirty = true;
        }
        line
    }

    /// Whether the line is present and valid.
    pub fn contains(&self, line_addr: u64) -> bool {
        self.find(line_addr).is_some()
    }

    fn victim_way(&self, set: usize) -> usize {
        // Invalid lines are free slots.
        let row = set * self.ways..(set + 1) * self.ways;
        if let Some(w) = self.tags[row.clone()]
            .iter()
            .position(|&t| t == INVALID_TAG)
        {
            return w;
        }
        self.stamps[row]
            .iter()
            .enumerate()
            .min_by_key(|&(_, s)| s)
            .map(|(w, _)| w)
            .expect("ways > 0")
    }

    /// Fills `line_addr` into the array with default metadata, evicting a
    /// victim if the set is full. Returns the victim, if any was valid.
    ///
    /// Filling an already-present line just merges the dirty bit and
    /// returns `None` (this happens when an in-flight fill races a
    /// write-allocate).
    pub fn fill(&mut self, line_addr: u64, dirty: bool) -> Option<Evicted<M>> {
        self.fill_with(line_addr, dirty, M::default()).evicted
    }

    /// Fills a line carrying owner metadata — the two-part LLC dates its
    /// lines and carries their write history this way. Semantics
    /// otherwise match [`fill`](Self::fill); the [`Placement`] also names
    /// the slot the line now occupies and whether the fill wrote it (a
    /// merge into a resident line drops `meta`).
    pub fn fill_with(&mut self, line_addr: u64, dirty: bool, meta: M) -> Placement<M> {
        let (set, found) = self.locate(line_addr);
        if let Some(slot) = found {
            self.lines[slot].dirty |= dirty;
            return Placement {
                slot: Slot(slot),
                placed: false,
                evicted: None,
            };
        }
        let way = self.victim_way(set);
        let stamp = self.next_stamp();
        let slot = self.slot(set, way);
        // The fill itself writes the data array at this position.
        self.position_writes[slot] += 1;
        let evicted = (self.tags[slot] != INVALID_TAG).then(|| self.take(slot));
        self.lines[slot] = Line { dirty, meta };
        self.tags[slot] = line_addr;
        self.stamps[slot] = stamp;
        Placement {
            slot: Slot(slot),
            placed: true,
            evicted,
        }
    }

    /// Empties the resident `slot`, returning what it held.
    fn take(&mut self, slot: usize) -> Evicted<M> {
        let line = &mut self.lines[slot];
        Evicted {
            line_addr: std::mem::replace(&mut self.tags[slot], INVALID_TAG),
            dirty: line.dirty,
            meta: std::mem::take(&mut line.meta),
        }
    }

    /// Removes a line from the array, returning its state for write-back
    /// or migration. Returns `None` when the line is absent.
    pub fn extract(&mut self, line_addr: u64) -> Option<Evicted<M>> {
        self.find(line_addr).map(|s| self.extract_slot(s))
    }

    /// Removes the line at a handle from [`find`](Self::find), returning
    /// its state as [`extract`](Self::extract) does.
    pub fn extract_slot(&mut self, slot: Slot) -> Evicted<M> {
        self.take(slot.0)
    }

    /// Invalidates every line, returning the dirty victims (for flush).
    pub fn flush(&mut self) -> Vec<Evicted<M>> {
        let mut dirty = Vec::new();
        self.flush_into(&mut dirty);
        dirty
    }

    /// Like [`flush`](Self::flush) but appends the dirty victims to a
    /// caller-owned buffer, so periodic flushes can reuse one allocation.
    pub fn flush_into(&mut self, dirty: &mut Vec<Evicted<M>>) {
        for slot in 0..self.lines.len() {
            if self.tags[slot] != INVALID_TAG {
                let victim = self.take(slot);
                if victim.dirty {
                    dirty.push(victim);
                }
            }
        }
    }

    /// Iterates over the resident lines in (set, way) order, which is
    /// [`Slot::index`] order, each with its slot and line address.
    pub fn iter(&self) -> impl Iterator<Item = (Slot, u64, &Line<M>)> {
        self.tags
            .iter()
            .zip(&self.lines)
            .enumerate()
            .filter(|&(_, (&tag, _))| tag != INVALID_TAG)
            .map(|(i, (&tag, line))| (Slot(i), tag, line))
    }

    /// Iterates mutably over the resident lines in (set, way) order, as
    /// [`iter`](Self::iter) does.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (Slot, u64, &mut Line<M>)> {
        self.tags
            .iter()
            .zip(&mut self.lines)
            .enumerate()
            .filter(|&(_, (&tag, _))| tag != INVALID_TAG)
            .map(|(i, (&tag, line))| (Slot(i), tag, line))
    }

    /// Cumulative per-(set, way) data-array write counts (write hits plus
    /// fills) — the matrix behind the paper's Fig. 3 COV analysis.
    pub fn write_count_matrix(&self) -> Vec<Vec<u64>> {
        self.position_writes
            .chunks(self.ways)
            .map(<[u64]>::to_vec)
            .collect()
    }

    /// Zeroes the write-count matrix (a new measurement window).
    pub fn clear_write_counts(&mut self) {
        self.position_writes.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(sets: usize, ways: usize) -> SetAssocCache<()> {
        SetAssocCache::new(sets, ways, 128)
    }

    fn dirty_at(c: &SetAssocCache<()>, line_addr: u64) -> bool {
        c.line(c.find(line_addr).expect("line present")).dirty
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = cache(4, 2);
        assert!(c.lookup(7, AccessKind::Read).is_none());
        assert!(!c.contains(7), "a miss allocates nothing");
        c.fill(7, false);
        assert!(c.lookup(7, AccessKind::Read).is_some());
        assert!(!dirty_at(&c, 7), "a read hit leaves the line clean");
    }

    #[test]
    fn line_addr_conversion() {
        let c = cache(4, 2);
        assert_eq!(c.line_addr(0), 0);
        assert_eq!(c.line_addr(127), 0);
        assert_eq!(c.line_addr(128), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = cache(1, 2);
        c.fill(0, false);
        c.fill(1, false);
        c.lookup(0, AccessKind::Read); // 0 is now MRU
        let ev = c.fill(2, false).expect("set full, someone evicted");
        assert_eq!(ev.line_addr, 1);
        assert!(c.contains(0));
        assert!(c.contains(2));
    }

    #[test]
    fn eviction_reports_victim_state() {
        let mut c = cache(1, 1);
        c.fill(3, false);
        c.lookup(3, AccessKind::Write);
        let ev = c.fill(4, false).expect("victim");
        assert_eq!(ev.line_addr, 3);
        assert!(ev.dirty, "the write hit dirtied the victim");
        assert!(!dirty_at(&c, 4), "the clean newcomer starts clean");
    }

    #[test]
    fn refill_of_present_line_merges_dirty() {
        let mut c = cache(4, 2);
        c.fill(5, false);
        assert!(c.fill(5, true).is_none());
        assert!(dirty_at(&c, 5));
        // No phantom second copy.
        let copies = c.iter().filter(|&(_, la, _)| la == 5).count();
        assert_eq!(copies, 1);
    }

    #[test]
    fn extract_removes_line() {
        let mut c = cache(4, 2);
        c.fill(9, true);
        let ev = c.extract(9).expect("present");
        assert!(ev.dirty);
        assert!(!c.contains(9));
        assert!(c.extract(9).is_none());
    }

    #[test]
    fn flush_returns_only_dirty_lines() {
        let mut c = cache(4, 2);
        c.fill(1, true);
        c.fill(2, false);
        let dirty = c.flush();
        assert_eq!(dirty.len(), 1);
        assert_eq!(dirty[0].line_addr, 1);
        assert_eq!(c.iter().count(), 0);
    }

    #[test]
    fn fill_with_reports_its_slot_and_whether_it_placed() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(4, 1, 128);
        let first = c.fill_with(6, false, 5);
        assert!(first.placed && first.evicted.is_none());
        assert_eq!(Some(first.slot), c.find(6));
        assert_eq!(first.slot.index(), c.set_index(6), "one way: slot = set");
        assert_eq!(Slot::new(first.slot.index()), first.slot);
        // A merge names the resident slot and keeps its metadata.
        let merged = c.fill_with(6, true, 9);
        assert_eq!((merged.slot, merged.placed), (first.slot, false));
        assert!(merged.evicted.is_none());
        assert_eq!(c.line(merged.slot).meta, 5);
        assert!(c.line(merged.slot).dirty);
        // A conflicting fill reuses the slot and reports the victim.
        let conflict = c.fill_with(10, false, 7);
        assert_eq!((conflict.slot, conflict.placed), (first.slot, true));
        assert_eq!(
            conflict.evicted.map(|v| (v.line_addr, v.meta)),
            Some((6, 5))
        );
        let (slot, la, line) = c
            .iter()
            .find(|&(s, _, _)| s == conflict.slot)
            .expect("slot resident");
        assert_eq!((slot, la, line.meta), (conflict.slot, 10, 7));
    }

    #[test]
    fn set_mapping_is_modulo() {
        let c = cache(4, 2);
        assert_eq!(c.set_index(0), 0);
        assert_eq!(c.set_index(5), 1);
        assert_eq!(c.set_index(7), 3);
    }

    #[test]
    fn set_salt_rotates_the_mapping() {
        let mut c = cache(4, 2);
        c.fill(0, false);
        c.flush();
        c.set_salt(1);
        assert_eq!(c.set_index(0), 1);
        assert_eq!(c.set_index(7), 0);
        // Lines filled under the new mapping are found under it.
        c.fill(0, false);
        assert!(c.contains(0));
    }

    #[test]
    fn position_writes_accumulate_across_evictions() {
        let mut c = cache(1, 1);
        c.fill(0, false); // fill writes position
        c.lookup(0, AccessKind::Write); // write hit
        c.fill(1, false); // evicts, writes position again
        assert_eq!(c.write_count_matrix(), vec![vec![3]]);
        c.clear_write_counts();
        assert_eq!(c.write_count_matrix(), vec![vec![0]]);
        assert!(c.contains(1), "a reset keeps the contents");
    }

    #[test]
    fn occupancy_tracks_valid_lines() {
        let mut c = cache(2, 2);
        assert_eq!(c.iter().count(), 0);
        c.fill(0, false);
        c.fill(1, false);
        let resident: Vec<u64> = c.iter().map(|(_, la, _)| la).collect();
        assert_eq!(resident, vec![0, 1], "(set, way) order");
        c.extract(0);
        assert_eq!(c.iter().count(), 1);
    }

    #[test]
    fn capacity_accessors() {
        let c = cache(16, 4);
        assert_eq!(c.capacity_lines(), 64);
        assert_eq!(c.sets(), 16);
        assert_eq!(c.ways(), 4);
        assert_eq!(c.line_bytes(), 128);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_odd_line_size() {
        let _: SetAssocCache<()> = SetAssocCache::new(4, 2, 100);
    }

    #[test]
    fn fully_associative_uses_whole_array() {
        let mut c: SetAssocCache<()> = SetAssocCache::new(1, 8, 128);
        for a in 0..8 {
            assert!(c.fill(a, false).is_none(), "no eviction while not full");
        }
        assert!(c.fill(8, false).is_some());
    }

    #[test]
    fn slot_handles_match_address_lookups() {
        let mut by_slot: SetAssocCache<u32> = SetAssocCache::new(3, 2, 128);
        let mut by_addr = by_slot.clone();
        for c in [&mut by_slot, &mut by_addr] {
            for a in [0u64, 3, 1, 5] {
                c.fill(a, a == 3);
            }
        }
        assert_eq!(by_slot.find(4), None);
        let s3 = by_slot.find(3).expect("resident");
        by_slot.hit(s3, AccessKind::Write).meta = 7;
        by_addr.lookup(3, AccessKind::Write).expect("hit").meta = 7;
        let s0 = by_slot.find(0).expect("resident");
        by_slot.hit(s0, AccessKind::Read);
        by_addr.lookup(0, AccessKind::Read);
        by_slot.line_mut(s0).meta = 4;
        let s0_addr = by_addr.find(0).expect("resident");
        by_addr.line_mut(s0_addr).meta = 4;
        // Same replacement state: both evict line 3, the LRU of set 0.
        let victim = by_slot.fill(6, false);
        assert_eq!(victim.as_ref().map(|v| v.line_addr), Some(3));
        assert_eq!(victim, by_addr.fill(6, false));
        let s0 = by_slot.find(0).expect("still resident");
        assert_eq!(Some(by_slot.extract_slot(s0)), by_addr.extract(0));
        assert_eq!(by_slot.write_count_matrix(), by_addr.write_count_matrix());
        for ((sa, la, a), (sb, lb, b)) in by_slot.iter().zip(by_addr.iter()) {
            assert_eq!((sa, la, a.dirty, a.meta), (sb, lb, b.dirty, b.meta));
        }
        assert_eq!(by_slot.iter().count(), by_addr.iter().count());
    }

    #[test]
    fn set_index_matches_modulo_for_non_power_of_two_sets() {
        for sets in [3usize, 384, 768] {
            let mut c: SetAssocCache<()> = SetAssocCache::new(sets, 2, 128);
            for salt in [0u64, 2593, u64::MAX] {
                c.set_salt(salt);
                for la in [0u64, 1, 383, 384, 767, 768, 1 << 50, u64::MAX - 1] {
                    let want = la.wrapping_add(salt) % sets as u64;
                    assert_eq!(c.set_index(la), want as usize, "{la} + {salt} mod {sets}");
                }
            }
        }
    }

    #[test]
    fn metadata_survives_on_hits_resets_on_fill() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(1, 1, 128);
        c.fill(0, false);
        let s0 = c.find(0).expect("line");
        c.line_mut(s0).meta = 77;
        assert_eq!(c.lookup(0, AccessKind::Read).expect("hit").meta, 77);
        c.fill(1, false); // evicts line 0
        let s1 = c.find(1).expect("line");
        assert_eq!(c.line(s1).meta, 0, "fresh fill gets default meta");
    }
}
