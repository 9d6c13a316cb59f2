//! Per-SM L1 data cache with GPU write semantics.
//!
//! Implements the policy of the paper's Fig. 1-b for global data: reads
//! allocate normally, write hits **evict** the line and forward the write
//! to L2, write misses forward without allocating. MSHRs merge secondary
//! misses to in-flight lines.

use sttgpu_cache::{AccessKind, MshrOutcome, MshrTable, SetAssocCache};
use sttgpu_trace::Trace;

use crate::config::L1Config;

/// Outcome of a read access to the L1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum L1ReadOutcome {
    /// Data present — no L2 traffic.
    Hit,
    /// Miss; a new fill request must be sent to L2.
    MissIssued,
    /// Miss on an already in-flight line; the request was merged.
    MissMerged,
    /// Miss, but the MSHR table is full — the instruction must replay.
    MshrFull,
}

/// A non-coherent GPU L1 data cache.
#[derive(Debug, Clone)]
pub(crate) struct L1Cache {
    cache: SetAssocCache<()>,
    mshr: MshrTable,
    line_bytes: u32,
    read_hits: u64,
    read_misses: u64,
}

impl L1Cache {
    /// Builds an L1 from its configuration.
    pub(crate) fn new(cfg: &L1Config) -> Self {
        let lines = cfg.kb * 1024 / cfg.line_bytes as u64;
        let sets = (lines / cfg.ways as u64) as usize;
        L1Cache {
            cache: SetAssocCache::new(sets, cfg.ways as usize, cfg.line_bytes),
            mshr: MshrTable::new(cfg.mshr_entries, cfg.mshr_targets),
            line_bytes: cfg.line_bytes,
            read_hits: 0,
            read_misses: 0,
        }
    }

    /// L1 line size, bytes.
    pub(crate) fn line_bytes(&self) -> u32 {
        self.line_bytes
    }

    /// Attaches a trace sink to this L1's MSHR table; `space` names the
    /// table in the event stream (`1 + sm_id`).
    pub(crate) fn set_trace(&mut self, trace: Trace, space: u32) {
        self.mshr.set_trace(trace, space);
    }

    /// Line-granular address of a byte address.
    pub(crate) fn line_addr(&self, byte_addr: u64) -> u64 {
        byte_addr / self.line_bytes as u64
    }

    /// Issues a read for `byte_addr` on behalf of `warp_token`.
    pub(crate) fn read(&mut self, byte_addr: u64, warp_token: u64) -> L1ReadOutcome {
        let la = self.line_addr(byte_addr);
        if self.cache.lookup(la, AccessKind::Read).is_some() {
            self.read_hits += 1;
            return L1ReadOutcome::Hit;
        }
        self.read_misses += 1;
        match self.mshr.allocate(la, warp_token) {
            MshrOutcome::Allocated => L1ReadOutcome::MissIssued,
            MshrOutcome::Merged => L1ReadOutcome::MissMerged,
            MshrOutcome::Full => L1ReadOutcome::MshrFull,
        }
    }

    /// Issues a global write: write-evict on hit, write-no-allocate on
    /// miss. The write itself always continues to L2 (the caller forwards
    /// it); this method only maintains L1 state.
    pub(crate) fn write(&mut self, byte_addr: u64) {
        // Write-evict: the (now stale) local copy is dropped. Global
        // lines are never dirty in L1, so nothing is written back.
        self.cache.extract(self.line_addr(byte_addr));
    }

    /// Issues a **local** (per-thread) write: write-back / write-allocate
    /// (paper Fig. 1-b). A hit dirties the line in place; a miss allocates
    /// the line dirty (spill frames are written whole, no fetch needed).
    /// Returns the byte address of a dirty victim that must be written
    /// back to L2, if the allocation displaced one.
    pub(crate) fn write_local(&mut self, byte_addr: u64) -> Option<u64> {
        let la = self.line_addr(byte_addr);
        if self.cache.lookup(la, AccessKind::Write).is_some() {
            return None;
        }
        let victim = self.cache.fill(la, true);
        self.victim_of(victim)
    }

    fn victim_of(&self, victim: Option<sttgpu_cache::Evicted<()>>) -> Option<u64> {
        victim
            .filter(|v| v.dirty)
            .map(|v| v.line_addr * self.line_bytes as u64)
    }

    /// Completes an in-flight fill: installs the line (clean) and returns
    /// the warp tokens waiting on it plus the byte address of a dirty
    /// (local) victim needing write-back, if any.
    pub(crate) fn fill(&mut self, byte_addr: u64) -> (Vec<u64>, Option<u64>) {
        let la = self.line_addr(byte_addr);
        let evicted = self.cache.fill(la, false);
        let victim = self.victim_of(evicted);
        (self.mshr.complete(la), victim)
    }

    /// (read hits, read misses) so far.
    pub(crate) fn counters(&self) -> (u64, u64) {
        (self.read_hits, self.read_misses)
    }

    /// Invalidates all contents (kernel boundary), keeping statistics.
    pub(crate) fn invalidate_all(&mut self) {
        self.cache.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l1() -> L1Cache {
        L1Cache::new(&L1Config::default())
    }

    #[test]
    fn geometry_from_config() {
        let c = l1();
        // 16 KB / 128 B / 4 ways = 32 sets.
        assert_eq!(c.cache.sets(), 32);
        assert_eq!(c.line_bytes(), 128);
    }

    #[test]
    fn read_miss_fill_then_hit() {
        let mut l1 = l1();
        assert_eq!(l1.read(0x1000, 7), L1ReadOutcome::MissIssued);
        let (woken, dirty_victim) = l1.fill(0x1000);
        assert_eq!(woken, vec![7]);
        assert_eq!(dirty_victim, None);
        assert_eq!(l1.read(0x1000, 7), L1ReadOutcome::Hit);
    }

    #[test]
    fn miss_then_merge_then_fill_wakes_all() {
        let mut c = l1();
        assert_eq!(c.read(0x100, 1), L1ReadOutcome::MissIssued);
        assert_eq!(c.read(0x100, 2), L1ReadOutcome::MissMerged);
        assert_eq!(
            c.read(0x140, 3),
            L1ReadOutcome::MissMerged,
            "same 128B line"
        );
        let (woken, victim) = c.fill(0x100);
        assert_eq!(woken, vec![1, 2, 3]);
        assert_eq!(victim, None);
        assert_eq!(c.read(0x100, 4), L1ReadOutcome::Hit);
    }

    #[test]
    fn write_evicts_resident_line() {
        let mut c = l1();
        c.read(0x100, 1);
        c.fill(0x100);
        assert_eq!(c.read(0x100, 1), L1ReadOutcome::Hit);
        c.write(0x100);
        assert_eq!(
            c.read(0x100, 1),
            L1ReadOutcome::MissIssued,
            "write-evict removed the line"
        );
    }

    #[test]
    fn read_counts_conserve() {
        // Over a seeded mix of reads, writes, local writes and fills,
        // every read is counted once: as a hit or as a miss.
        let mut rng = sttgpu_stats::Rng::new(0x51);
        let mut c = l1();
        let mut reads = 0u64;
        for t in 0..2_000u64 {
            let addr = rng.range_u64(0, 256) * 128;
            match rng.range_u32(0, 4) {
                0 => {
                    c.read(addr, t);
                    reads += 1;
                }
                1 => c.write(addr),
                2 => {
                    c.write_local(addr);
                }
                _ => {
                    c.fill(addr);
                }
            }
        }
        let counters = c.counters();
        assert_eq!(counters.0 + counters.1, reads);
        assert!(counters.0 > 0 && counters.1 > 0, "the mix hits and misses");
    }

    #[test]
    fn write_miss_does_not_allocate() {
        let mut c = l1();
        c.write(0x200);
        assert_eq!(c.read(0x200, 1), L1ReadOutcome::MissIssued);
    }

    #[test]
    fn mshr_full_reported() {
        let cfg = L1Config {
            mshr_entries: 1,
            ..L1Config::default()
        };
        let mut c = L1Cache::new(&cfg);
        assert_eq!(c.read(0x100, 1), L1ReadOutcome::MissIssued);
        assert_eq!(c.read(0x900, 2), L1ReadOutcome::MshrFull);
    }

    #[test]
    fn invalidate_all_clears_contents() {
        let mut c = l1();
        c.read(0x100, 1);
        c.fill(0x100);
        c.invalidate_all();
        assert_eq!(c.read(0x100, 1), L1ReadOutcome::MissIssued);
    }

    #[test]
    fn local_write_allocates_dirty_without_fetch() {
        let mut c = l1();
        assert_eq!(c.write_local(0x400), None, "empty cache, no victim");
        // The line is now resident: a read hits without any fill.
        assert_eq!(c.read(0x400, 1), L1ReadOutcome::Hit);
    }

    #[test]
    fn dirty_local_victim_is_reported_for_writeback() {
        // Direct-mapped-ish pressure: fill one set's 4 ways with dirty
        // local lines, then displace one with a 5th conflicting line.
        let mut c = l1();
        let sets = 32u64;
        for i in 0..4 {
            assert_eq!(c.write_local(i * sets * 128), None);
        }
        let victim = c.write_local(4 * sets * 128);
        assert!(victim.is_some(), "displacing a dirty line must report it");
        assert_eq!(victim.expect("victim") % (sets * 128), 0, "same set");
    }

    #[test]
    fn clean_fill_eviction_reports_no_victim() {
        let mut c = l1();
        let sets = 32u64;
        for i in 0..5 {
            c.read(i * sets * 128, 1);
            let (_, victim) = c.fill(i * sets * 128);
            assert_eq!(victim, None, "clean global lines never write back");
        }
    }
}
