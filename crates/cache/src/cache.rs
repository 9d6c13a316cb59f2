//! Generic set-associative cache array.

use crate::{CacheStats, Divisor, ReplacementPolicy};

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

/// One cache line's bookkeeping state plus caller-defined metadata `M`.
///
/// The line address and replacement stamp live in parallel arrays on
/// [`SetAssocCache`] (not here): way lookups and victim scans read one
/// contiguous `u64` row per set instead of striding across these fatter
/// records.
#[derive(Debug, Clone)]
pub struct Line<M> {
    line_addr: u64,
    valid: bool,
    dirty: bool,
    write_count: u32,
    last_write_ns: u64,
    /// Caller-defined metadata (e.g. retention counters in the two-part
    /// LLC). Reset to `M::default()` on fill.
    pub meta: M,
}

impl<M> Line<M> {
    /// The line-granular address cached here (only meaningful when valid).
    pub fn line_addr(&self) -> u64 {
        self.line_addr
    }

    /// Whether the line holds valid data.
    pub fn is_valid(&self) -> bool {
        self.valid
    }

    /// Whether the line has been written since fill (the "modified bit" the
    /// paper reuses as its write-working-set monitor at threshold 1).
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Marks the line dirty without going through a lookup (used by
    /// migration paths that move dirty data between arrays).
    pub fn set_dirty(&mut self, dirty: bool) {
        self.dirty = dirty;
    }

    /// Saturating count of writes this line has received since fill.
    pub fn write_count(&self) -> u32 {
        self.write_count
    }

    /// Simulation time (ns) of the last write to this line, 0 if never.
    pub fn last_write_ns(&self) -> u64 {
        self.last_write_ns
    }

    /// Records a write for WWS accounting (normally done by `lookup`).
    pub fn note_write(&mut self, now_ns: u64) {
        self.write_count = self.write_count.saturating_add(1);
        self.dirty = true;
        self.last_write_ns = now_ns;
    }

    /// Overwrites the WWS write count (used by demotion paths whose
    /// residency restarts the count regardless of the fill's dirtiness).
    pub fn set_write_count(&mut self, count: u32) {
        self.write_count = count;
    }
}

/// Where a resident line sits in a [`SetAssocCache`], as returned by
/// [`find`](SetAssocCache::find).
///
/// A handle lets one address lookup serve every later step of an access
/// (hit bookkeeping, metadata updates, extraction). It stays valid until
/// the next call that changes residency: `fill`, `fill_with`, `extract`,
/// `extract_slot`, `flush`, `flush_into` or `drain_ways_into`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot(usize);

/// A line evicted (or extracted) from the array, with everything the owner
/// needs to write it back or migrate it elsewhere.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Evicted<M> {
    /// Line-granular address of the victim.
    pub line_addr: u64,
    /// Whether the victim was dirty (needs a write-back).
    pub dirty: bool,
    /// Accumulated write count of the victim.
    pub write_count: u32,
    /// Time of the victim's last write, ns.
    pub last_write_ns: u64,
    /// Caller metadata carried by the victim.
    pub meta: M,
}

/// A set-associative cache array with pluggable replacement and per-line
/// metadata.
///
/// Addresses are handled at line granularity (`line_addr = byte_addr /
/// line_bytes`); the [`line_addr`](SetAssocCache::line_addr) helper does the
/// conversion. Physical (set, way) write counts are accumulated across
/// evictions for write-variation analysis (Fig. 3 of the paper).
///
/// # Example
///
/// ```
/// use sttgpu_cache::{AccessKind, ReplacementPolicy, SetAssocCache};
///
/// let mut c: SetAssocCache<()> = SetAssocCache::new(16, 4, 128, ReplacementPolicy::Lru);
/// let la = c.line_addr(0xABCD);
/// assert!(c.lookup(la, AccessKind::Write, 10).is_none());
/// c.fill(la, true, 10);
/// let line = c.peek(la).expect("filled");
/// assert!(line.is_dirty());
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache<M> {
    sets: usize,
    ways: usize,
    /// Ways `[0, active_ways)` are in service; the rest are parked by a
    /// runtime reconfiguration policy and never selected as victims.
    active_ways: usize,
    line_bytes: u32,
    policy: ReplacementPolicy,
    lines: Vec<Line<M>>,
    /// Per-slot line address, [`INVALID_TAG`] when the slot is empty.
    /// Mirrors `lines[slot].{line_addr, valid}` so the per-access way scan
    /// touches one cache-friendly `u64` row per set.
    tags: Vec<u64>,
    /// Per-slot replacement stamp (monotone; LRU/FIFO victim = min).
    stamps: Vec<u64>,
    position_writes: Vec<u64>,
    /// `sets` as a [`Divisor`]: the set index is a mask or a multiply.
    set_div: Divisor,
    set_salt: u64,
    stamp: u64,
    rng_state: u64,
    stats: CacheStats,
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
    pub fn new(sets: usize, ways: usize, line_bytes: u32, policy: ReplacementPolicy) -> Self {
        assert!(sets > 0 && ways > 0, "cache must have at least one line");
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two, got {line_bytes}"
        );
        let mut lines = Vec::with_capacity(sets * ways);
        for _ in 0..sets * ways {
            lines.push(Line {
                line_addr: 0,
                valid: false,
                dirty: false,
                write_count: 0,
                last_write_ns: 0,
                meta: M::default(),
            });
        }
        SetAssocCache {
            sets,
            ways,
            active_ways: ways,
            line_bytes,
            policy,
            lines,
            tags: vec![INVALID_TAG; sets * ways],
            stamps: vec![0; sets * ways],
            position_writes: vec![0; sets * ways],
            set_div: Divisor::new(sets as u64),
            set_salt: 0,
            stamp: 0,
            rng_state: 0x9E37_79B9_7F4A_7C15,
            stats: CacheStats::new(),
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

    /// Ways per set currently in service (≤ [`ways`](Self::ways)).
    pub fn active_ways(&self) -> usize {
        self.active_ways
    }

    /// Changes the number of in-service ways. Shrinking callers must
    /// first evacuate the parked range with
    /// [`drain_ways_into`](Self::drain_ways_into): victim selection only
    /// ever picks ways `[0, n)`, so a valid line left behind in a parked
    /// way would sit unreachable-for-replacement forever.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds the physical associativity;
    /// panics in debug builds if a shrink leaves valid lines parked.
    pub fn set_active_ways(&mut self, n: usize) {
        assert!(
            (1..=self.ways).contains(&n),
            "active ways {n} outside [1, {}]",
            self.ways
        );
        debug_assert!(
            n >= self.active_ways
                || (0..self.sets)
                    .all(|s| { (n..self.ways).all(|w| !self.lines[self.slot(s, w)].valid) }),
            "shrinking active ways requires draining the parked range first"
        );
        self.active_ways = n;
    }

    /// Invalidates every valid line in ways `[from_way, ways)` across all
    /// sets — the evacuation step before parking those ways — appending
    /// each victim (dirty or clean) to `out` in (set, way) order.
    pub fn drain_ways_into(&mut self, from_way: usize, out: &mut Vec<Evicted<M>>) {
        for set in 0..self.sets {
            for way in from_way..self.ways {
                let slot = self.slot(set, way);
                if self.lines[slot].valid {
                    self.stats.invalidations.inc();
                    self.tags[slot] = INVALID_TAG;
                    let line = &mut self.lines[slot];
                    line.valid = false;
                    out.push(Evicted {
                        line_addr: line.line_addr,
                        dirty: line.dirty,
                        write_count: line.write_count,
                        last_write_ns: line.last_write_ns,
                        meta: std::mem::take(&mut line.meta),
                    });
                }
            }
        }
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u32 {
        self.line_bytes
    }

    /// Total line capacity.
    pub fn capacity_lines(&self) -> usize {
        self.sets * self.ways
    }

    /// Total data capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_lines() as u64 * self.line_bytes as u64
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
            self.lines.iter().all(|l| !l.valid),
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

    fn xorshift(&mut self) -> u64 {
        let mut x = self.rng_state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng_state = x;
        x
    }

    /// Looks a line up, updating replacement state, dirty/write counters
    /// and statistics. Returns the line on a hit, `None` on a miss.
    pub fn lookup(
        &mut self,
        line_addr: u64,
        kind: AccessKind,
        now_ns: u64,
    ) -> Option<&mut Line<M>> {
        match self.find(line_addr) {
            Some(slot) => Some(self.hit(slot, kind, now_ns)),
            None => {
                if kind.is_write() {
                    self.stats.write_misses.inc();
                } else {
                    self.stats.read_misses.inc();
                }
                None
            }
        }
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

    /// The line at a handle, mutably, without updating replacement or
    /// statistics state (for metadata such as retention counters).
    pub fn line_mut(&mut self, slot: Slot) -> &mut Line<M> {
        &mut self.lines[slot.0]
    }

    /// Records a hit on the line at `slot` exactly as
    /// [`lookup`](Self::lookup) does on a hit: replacement stamp, hit
    /// statistics and, for a write, the position write count and the
    /// line's WWS state.
    pub fn hit(&mut self, slot: Slot, kind: AccessKind, now_ns: u64) -> &mut Line<M> {
        let slot = slot.0;
        if self.policy.touches_on_hit() {
            self.stamps[slot] = self.next_stamp();
        }
        let line = &mut self.lines[slot];
        if kind.is_write() {
            self.stats.write_hits.inc();
            self.position_writes[slot] += 1;
            line.note_write(now_ns);
        } else {
            self.stats.read_hits.inc();
        }
        line
    }

    /// Returns the line without updating any state, or `None` when absent.
    pub fn peek(&self, line_addr: u64) -> Option<&Line<M>> {
        self.find(line_addr).map(|s| self.line(s))
    }

    /// Returns a mutable reference to the line without updating replacement
    /// or statistics state (for metadata maintenance such as retention
    /// counters).
    pub fn peek_mut(&mut self, line_addr: u64) -> Option<&mut Line<M>> {
        self.find(line_addr).map(|s| self.line_mut(s))
    }

    /// Whether the line is present and valid.
    pub fn contains(&self, line_addr: u64) -> bool {
        self.find(line_addr).is_some()
    }

    fn victim_way(&mut self, set: usize) -> usize {
        // Only in-service ways participate; parked ways stay invalid.
        // Invalid lines are free slots.
        let row = &self.tags[set * self.ways..set * self.ways + self.active_ways];
        if let Some(w) = row.iter().position(|&t| t == INVALID_TAG) {
            return w;
        }
        match self.policy {
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo => {
                let stamps = &self.stamps[set * self.ways..set * self.ways + self.active_ways];
                stamps
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, s)| s)
                    .map(|(w, _)| w)
                    .expect("ways > 0")
            }
            ReplacementPolicy::Random => (self.xorshift() % self.active_ways as u64) as usize,
        }
    }

    /// Fills `line_addr` into the array with default metadata, evicting a
    /// victim if the set is full. Returns the victim, if any was valid.
    ///
    /// Filling an already-present line just merges the dirty bit and
    /// returns `None` (this happens when an in-flight fill races a
    /// write-allocate).
    pub fn fill(&mut self, line_addr: u64, dirty: bool, now_ns: u64) -> Option<Evicted<M>> {
        self.fill_with(line_addr, dirty, 0, M::default(), now_ns)
    }

    /// Fills a line carrying existing `write_count` and metadata — the
    /// migration path between the LR and HR arrays uses this so WWS history
    /// survives the move. Semantics otherwise match [`fill`](Self::fill).
    pub fn fill_with(
        &mut self,
        line_addr: u64,
        dirty: bool,
        write_count: u32,
        meta: M,
        now_ns: u64,
    ) -> Option<Evicted<M>> {
        let (set, found) = self.locate(line_addr);
        if let Some(slot) = found {
            self.lines[slot].dirty |= dirty;
            return None;
        }
        let way = self.victim_way(set);
        let stamp = self.next_stamp();
        let slot = self.slot(set, way);
        self.stats.fills.inc();
        // The fill itself writes the data array at this position.
        self.position_writes[slot] += 1;

        let line = &mut self.lines[slot];
        let evicted = if line.valid {
            self.stats.evictions.inc();
            if line.dirty {
                self.stats.dirty_evictions.inc();
            }
            Some(Evicted {
                line_addr: line.line_addr,
                dirty: line.dirty,
                write_count: line.write_count,
                last_write_ns: line.last_write_ns,
                meta: std::mem::take(&mut line.meta),
            })
        } else {
            None
        };
        line.line_addr = line_addr;
        line.valid = true;
        line.dirty = dirty;
        line.write_count = write_count.saturating_add(dirty as u32);
        line.last_write_ns = if dirty { now_ns } else { 0 };
        line.meta = meta;
        self.tags[slot] = line_addr;
        self.stamps[slot] = stamp;
        evicted
    }

    /// Removes a line from the array, returning its state for write-back
    /// or migration. Returns `None` when the line is absent.
    pub fn extract(&mut self, line_addr: u64) -> Option<Evicted<M>> {
        self.find(line_addr).map(|s| self.extract_slot(s))
    }

    /// Removes the line at a handle from [`find`](Self::find), returning
    /// its state as [`extract`](Self::extract) does.
    pub fn extract_slot(&mut self, slot: Slot) -> Evicted<M> {
        let slot = slot.0;
        self.stats.invalidations.inc();
        self.tags[slot] = INVALID_TAG;
        let line = &mut self.lines[slot];
        line.valid = false;
        Evicted {
            line_addr: line.line_addr,
            dirty: line.dirty,
            write_count: line.write_count,
            last_write_ns: line.last_write_ns,
            meta: std::mem::take(&mut line.meta),
        }
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
            let line = &mut self.lines[slot];
            if line.valid {
                line.valid = false;
                self.tags[slot] = INVALID_TAG;
                self.stats.invalidations.inc();
                if line.dirty {
                    dirty.push(Evicted {
                        line_addr: line.line_addr,
                        dirty: true,
                        write_count: line.write_count,
                        last_write_ns: line.last_write_ns,
                        meta: std::mem::take(&mut line.meta),
                    });
                }
            }
        }
    }

    /// Iterates over all lines (valid and invalid) in (set, way) order.
    pub fn iter(&self) -> impl Iterator<Item = &Line<M>> {
        self.lines.iter()
    }

    /// Iterates mutably over all lines in (set, way) order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Line<M>> {
        self.lines.iter_mut()
    }

    /// Fraction of lines currently valid.
    pub fn occupancy(&self) -> f64 {
        let valid = self.lines.iter().filter(|l| l.valid).count();
        valid as f64 / self.lines.len() as f64
    }

    /// Cumulative per-(set, way) data-array write counts (write hits plus
    /// fills) — the matrix behind the paper's Fig. 3 COV analysis.
    pub fn write_count_matrix(&self) -> Vec<Vec<u64>> {
        (0..self.sets)
            .map(|s| {
                (0..self.ways)
                    .map(|w| self.position_writes[self.slot(s, w)])
                    .collect()
            })
            .collect()
    }

    /// Access statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets access statistics and the write-count matrix.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
        self.position_writes.iter_mut().for_each(|c| *c = 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(sets: usize, ways: usize) -> SetAssocCache<()> {
        SetAssocCache::new(sets, ways, 128, ReplacementPolicy::Lru)
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = cache(4, 2);
        assert!(c.lookup(7, AccessKind::Read, 0).is_none());
        c.fill(7, false, 0);
        assert!(c.lookup(7, AccessKind::Read, 1).is_some());
        assert_eq!(c.stats().read_misses.get(), 1);
        assert_eq!(c.stats().read_hits.get(), 1);
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
        c.fill(0, false, 0);
        c.fill(1, false, 1);
        c.lookup(0, AccessKind::Read, 2); // 0 is now MRU
        let ev = c.fill(2, false, 3).expect("set full, someone evicted");
        assert_eq!(ev.line_addr, 1);
        assert!(c.contains(0));
        assert!(c.contains(2));
    }

    #[test]
    fn fifo_ignores_hits() {
        let mut c: SetAssocCache<()> = SetAssocCache::new(1, 2, 128, ReplacementPolicy::Fifo);
        c.fill(0, false, 0);
        c.fill(1, false, 1);
        c.lookup(0, AccessKind::Read, 2); // would save 0 under LRU
        let ev = c.fill(2, false, 3).expect("eviction");
        assert_eq!(
            ev.line_addr, 0,
            "FIFO evicts oldest fill regardless of hits"
        );
    }

    #[test]
    fn random_policy_evicts_some_valid_line() {
        let mut c: SetAssocCache<()> = SetAssocCache::new(1, 4, 128, ReplacementPolicy::Random);
        for a in 0..4 {
            c.fill(a, false, a);
        }
        let ev = c.fill(99, false, 10).expect("eviction");
        assert!(ev.line_addr < 4);
        assert!(c.contains(99));
    }

    #[test]
    fn write_sets_dirty_and_counts() {
        let mut c = cache(4, 2);
        c.fill(5, false, 0);
        c.lookup(5, AccessKind::Write, 10);
        c.lookup(5, AccessKind::Write, 20);
        let l = c.peek(5).expect("line present");
        assert!(l.is_dirty());
        assert_eq!(l.write_count(), 2);
        assert_eq!(l.last_write_ns(), 20);
    }

    #[test]
    fn dirty_fill_counts_as_one_write() {
        let mut c = cache(4, 2);
        c.fill(5, true, 7);
        let l = c.peek(5).expect("line");
        assert!(l.is_dirty());
        assert_eq!(l.write_count(), 1);
        assert_eq!(l.last_write_ns(), 7);
    }

    #[test]
    fn eviction_reports_victim_state() {
        let mut c = cache(1, 1);
        c.fill(3, false, 0);
        c.lookup(3, AccessKind::Write, 5);
        let ev = c.fill(4, false, 6).expect("victim");
        assert_eq!(ev.line_addr, 3);
        assert!(ev.dirty);
        assert_eq!(ev.write_count, 1);
        assert_eq!(c.stats().dirty_evictions.get(), 1);
    }

    #[test]
    fn refill_of_present_line_merges_dirty() {
        let mut c = cache(4, 2);
        c.fill(5, false, 0);
        assert!(c.fill(5, true, 1).is_none());
        assert!(c.peek(5).expect("line").is_dirty());
        // No phantom second copy.
        let copies = c
            .iter()
            .filter(|l| l.is_valid() && l.line_addr() == 5)
            .count();
        assert_eq!(copies, 1);
    }

    #[test]
    fn extract_removes_line() {
        let mut c = cache(4, 2);
        c.fill(9, true, 0);
        let ev = c.extract(9).expect("present");
        assert!(ev.dirty);
        assert!(!c.contains(9));
        assert!(c.extract(9).is_none());
    }

    #[test]
    fn flush_returns_only_dirty_lines() {
        let mut c = cache(4, 2);
        c.fill(1, true, 0);
        c.fill(2, false, 0);
        let dirty = c.flush();
        assert_eq!(dirty.len(), 1);
        assert_eq!(dirty[0].line_addr, 1);
        assert_eq!(c.occupancy(), 0.0);
    }

    #[test]
    fn fill_with_carries_history() {
        let mut c = cache(4, 2);
        c.fill_with(11, true, 6, (), 42);
        let l = c.peek(11).expect("line");
        assert_eq!(l.write_count(), 7, "6 carried + 1 for the dirty fill");
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
        c.fill(0, false, 0);
        c.flush();
        c.set_salt(1);
        assert_eq!(c.set_index(0), 1);
        assert_eq!(c.set_index(7), 0);
        // Lines filled under the new mapping are found under it.
        c.fill(0, false, 1);
        assert!(c.contains(0));
    }

    #[test]
    fn position_writes_accumulate_across_evictions() {
        let mut c = cache(1, 1);
        c.fill(0, false, 0); // fill writes position
        c.lookup(0, AccessKind::Write, 1); // write hit
        c.fill(1, false, 2); // evicts, writes position again
        let m = c.write_count_matrix();
        assert_eq!(m, vec![vec![3]]);
    }

    #[test]
    fn occupancy_tracks_valid_lines() {
        let mut c = cache(2, 2);
        assert_eq!(c.occupancy(), 0.0);
        c.fill(0, false, 0);
        c.fill(1, false, 0);
        assert_eq!(c.occupancy(), 0.5);
    }

    #[test]
    fn capacity_accessors() {
        let c = cache(16, 4);
        assert_eq!(c.capacity_lines(), 64);
        assert_eq!(c.capacity_bytes(), 64 * 128);
        assert_eq!(c.sets(), 16);
        assert_eq!(c.ways(), 4);
        assert_eq!(c.line_bytes(), 128);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_odd_line_size() {
        let _: SetAssocCache<()> = SetAssocCache::new(4, 2, 100, ReplacementPolicy::Lru);
    }

    #[test]
    fn fully_associative_uses_whole_array() {
        let mut c: SetAssocCache<()> = SetAssocCache::new(1, 8, 128, ReplacementPolicy::Lru);
        for a in 0..8 {
            assert!(c.fill(a, false, a).is_none(), "no eviction while not full");
        }
        assert!(c.fill(8, false, 9).is_some());
    }

    #[test]
    fn drain_then_shrink_parks_ways() {
        let mut c = cache(2, 4);
        // Fill every way of set 0 (addresses 0,2,4,6 map to set 0) and one
        // line of set 1.
        for a in [0u64, 2, 4, 6] {
            c.fill(a, a == 4, a);
        }
        c.fill(1, false, 9);
        let mut out = Vec::new();
        c.drain_ways_into(2, &mut out);
        // Set 0 loses ways 2 and 3 (fill order = way order in an empty
        // set); set 1 only had way 0 occupied.
        assert_eq!(out.len(), 2);
        assert!(out.iter().any(|e| e.line_addr == 4 && e.dirty));
        assert!(out.iter().any(|e| e.line_addr == 6 && !e.dirty));
        c.set_active_ways(2);
        assert_eq!(c.active_ways(), 2);
        // New fills never land in the parked range.
        c.fill(8, false, 10); // set 0 is full at 2 ways -> evicts
        for (i, l) in c.iter().enumerate() {
            let way = i % 4;
            assert!(way < 2 || !l.is_valid(), "parked way {way} stayed empty");
        }
        // Growing back re-enables the ways with no residual state.
        c.set_active_ways(4);
        assert!(c.fill(10, false, 11).is_none(), "free parked way reused");
    }

    #[test]
    fn victim_selection_respects_active_ways_for_every_policy() {
        for policy in [
            ReplacementPolicy::Lru,
            ReplacementPolicy::Fifo,
            ReplacementPolicy::Random,
        ] {
            let mut c: SetAssocCache<()> = SetAssocCache::new(1, 4, 128, policy);
            c.set_active_ways(2);
            for a in 0..10 {
                c.fill(a, false, a);
            }
            let valid = c.iter().filter(|l| l.is_valid()).count();
            assert_eq!(valid, 2, "{policy:?} overflowed the active prefix");
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn rejects_zero_active_ways() {
        let mut c = cache(2, 4);
        c.set_active_ways(0);
    }

    #[test]
    fn set_write_count_overwrites_wws_history() {
        let mut c = cache(4, 2);
        c.fill(5, true, 7);
        c.peek_mut(5).expect("line").set_write_count(0);
        assert_eq!(c.peek(5).expect("line").write_count(), 0);
        assert!(c.peek(5).expect("line").is_dirty(), "dirty bit untouched");
    }

    #[test]
    fn slot_handles_match_address_lookups() {
        let mut by_slot: SetAssocCache<u32> = SetAssocCache::new(3, 2, 128, ReplacementPolicy::Lru);
        let mut by_addr = by_slot.clone();
        for c in [&mut by_slot, &mut by_addr] {
            for a in [0u64, 3, 1, 5] {
                c.fill(a, a == 3, a);
            }
        }
        assert_eq!(by_slot.find(4), None);
        let s3 = by_slot.find(3).expect("resident");
        assert_eq!(by_slot.line(s3).line_addr(), 3);
        by_slot.hit(s3, AccessKind::Write, 10).meta = 7;
        by_addr.lookup(3, AccessKind::Write, 10).expect("hit").meta = 7;
        let s0 = by_slot.find(0).expect("resident");
        by_slot.hit(s0, AccessKind::Read, 11);
        by_addr.lookup(0, AccessKind::Read, 11);
        by_slot.line_mut(s0).set_write_count(4);
        by_addr.peek_mut(0).expect("resident").set_write_count(4);
        // Same replacement state: both evict line 3, the LRU of set 0.
        let victim = by_slot.fill(6, false, 12);
        assert_eq!(victim.as_ref().map(|v| v.line_addr), Some(3));
        assert_eq!(victim, by_addr.fill(6, false, 12));
        let s0 = by_slot.find(0).expect("still resident");
        assert_eq!(Some(by_slot.extract_slot(s0)), by_addr.extract(0));
        assert_eq!(by_slot.stats(), by_addr.stats());
        assert_eq!(by_slot.write_count_matrix(), by_addr.write_count_matrix());
        for (a, b) in by_slot.iter().zip(by_addr.iter()) {
            assert_eq!(
                (a.is_valid(), a.line_addr(), a.write_count(), a.meta),
                (b.is_valid(), b.line_addr(), b.write_count(), b.meta)
            );
        }
    }

    #[test]
    fn set_index_matches_modulo_for_non_power_of_two_sets() {
        for sets in [3usize, 384, 768] {
            let mut c: SetAssocCache<()> = SetAssocCache::new(sets, 2, 128, ReplacementPolicy::Lru);
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
        let mut c: SetAssocCache<u32> = SetAssocCache::new(1, 1, 128, ReplacementPolicy::Lru);
        c.fill(0, false, 0);
        c.peek_mut(0).expect("line").meta = 77;
        assert_eq!(c.lookup(0, AccessKind::Read, 1).expect("hit").meta, 77);
        c.fill(1, false, 2); // evicts line 0
        assert_eq!(
            c.peek(1).expect("line").meta,
            0,
            "fresh fill gets default meta"
        );
    }
}
