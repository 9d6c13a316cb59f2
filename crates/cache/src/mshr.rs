//! Miss-status holding registers (MSHRs).
//!
//! GPU caches are heavily non-blocking: dozens of warps miss concurrently
//! and secondary misses to an in-flight line must merge rather than issue
//! duplicate memory requests. The [`MshrTable`] tracks in-flight line
//! fills and the opaque tokens (warp/request ids) waiting on them.

use sttgpu_trace::{Trace, TraceEvent};

use crate::linemap::{line_map_with_capacity, LineMap};

/// Result of trying to allocate an MSHR for a missing line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// A new entry was allocated — the caller must send a fill request.
    Allocated,
    /// The line is already in flight — the token was merged, no new
    /// request needed.
    Merged,
    /// The table (or the entry's target list) is full — the access must
    /// stall and retry.
    Full,
}

/// A table of in-flight misses keyed by line address.
///
/// # Example
///
/// ```
/// use sttgpu_cache::{MshrOutcome, MshrTable};
///
/// let mut mshr = MshrTable::new(32, 8);
/// assert_eq!(mshr.allocate(0x10, 1), MshrOutcome::Allocated);
/// assert_eq!(mshr.allocate(0x10, 2), MshrOutcome::Merged);
/// assert_eq!(mshr.complete(0x10), vec![1, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct MshrTable {
    capacity: usize,
    targets_per_entry: usize,
    entries: LineMap<Vec<u64>>,
    trace: Trace,
    space: u32,
}

impl MshrTable {
    /// Creates a table of at most `capacity` in-flight lines, each holding
    /// up to `targets_per_entry` waiting tokens.
    ///
    /// # Panics
    ///
    /// Panics if either limit is zero.
    pub fn new(capacity: usize, targets_per_entry: usize) -> Self {
        assert!(capacity > 0 && targets_per_entry > 0);
        MshrTable {
            capacity,
            targets_per_entry,
            entries: line_map_with_capacity(capacity),
            trace: Trace::off(),
            space: 0,
        }
    }

    /// Attaches a trace sink; `space` distinguishes this table in the
    /// event stream (0 is the L2 miss tracker, `1 + sm_id` an L1's).
    pub fn set_trace(&mut self, trace: Trace, space: u32) {
        self.trace = trace;
        self.space = space;
    }

    /// Attempts to register `token` as waiting for `line_addr`.
    pub fn allocate(&mut self, line_addr: u64, token: u64) -> MshrOutcome {
        if let Some(targets) = self.entries.get_mut(&line_addr) {
            if targets.len() >= self.targets_per_entry {
                return MshrOutcome::Full;
            }
            targets.push(token);
            self.trace.emit(|| TraceEvent::MshrMerge {
                space: self.space,
                la: line_addr,
            });
            return MshrOutcome::Merged;
        }
        if self.entries.len() >= self.capacity {
            return MshrOutcome::Full;
        }
        self.entries.insert(line_addr, vec![token]);
        self.trace.emit(|| TraceEvent::MshrAlloc {
            space: self.space,
            la: line_addr,
        });
        MshrOutcome::Allocated
    }

    /// Completes the fill of `line_addr`, releasing and returning the
    /// waiting tokens (empty when the line was not in flight).
    pub fn complete(&mut self, line_addr: u64) -> Vec<u64> {
        match self.entries.remove(&line_addr) {
            Some(targets) => {
                self.trace.emit(|| TraceEvent::MshrComplete {
                    space: self.space,
                    la: line_addr,
                });
                targets
            }
            None => Vec::new(),
        }
    }

    /// Number of in-flight lines.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no fills are in flight.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `line_addr` currently has an in-flight fill.
    fn is_pending(m: &MshrTable, line_addr: u64) -> bool {
        m.entries.contains_key(&line_addr)
    }

    /// Whether the table can accept a brand-new line miss.
    fn has_free_entry(m: &MshrTable) -> bool {
        m.entries.len() < m.capacity
    }

    #[test]
    fn allocate_then_merge() {
        let mut m = MshrTable::new(2, 2);
        assert_eq!(m.allocate(1, 100), MshrOutcome::Allocated);
        assert_eq!(m.allocate(1, 101), MshrOutcome::Merged);
        assert!(is_pending(&m, 1));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn entry_target_limit() {
        let mut m = MshrTable::new(2, 2);
        m.allocate(1, 100);
        m.allocate(1, 101);
        assert_eq!(m.allocate(1, 102), MshrOutcome::Full);
    }

    #[test]
    fn table_capacity_limit() {
        let mut m = MshrTable::new(1, 4);
        assert_eq!(m.allocate(1, 0), MshrOutcome::Allocated);
        assert_eq!(m.allocate(2, 0), MshrOutcome::Full);
        assert!(!has_free_entry(&m));
    }

    #[test]
    fn complete_releases_tokens_in_order() {
        let mut m = MshrTable::new(4, 4);
        m.allocate(9, 1);
        m.allocate(9, 2);
        m.allocate(9, 3);
        assert_eq!(m.complete(9), vec![1, 2, 3]);
        assert!(!is_pending(&m, 9));
        assert!(m.is_empty());
    }

    #[test]
    fn complete_unknown_line_is_empty() {
        let mut m = MshrTable::new(4, 4);
        assert!(m.complete(42).is_empty());
    }

    #[test]
    fn capacity_frees_after_completion() {
        let mut m = MshrTable::new(1, 1);
        m.allocate(1, 0);
        m.complete(1);
        assert_eq!(m.allocate(2, 0), MshrOutcome::Allocated);
    }

    // MSHR: a `Full` outcome is a pure rejection — the entry it bounced off
    // keeps exactly the targets it had, and completing it releases each
    // token exactly once while freeing the entry's capacity.
    #[test]
    fn mshr_full_leaves_entry_unmodified() {
        // Target-list saturation: third merge into a 2-target entry bounces.
        let mut m = MshrTable::new(8, 2);
        assert_eq!(m.allocate(7, 1), MshrOutcome::Allocated);
        assert_eq!(m.allocate(7, 2), MshrOutcome::Merged);
        assert_eq!(m.allocate(7, 3), MshrOutcome::Full);
        assert_eq!(m.allocate(7, 4), MshrOutcome::Full);
        assert!(is_pending(&m, 7));
        assert_eq!(m.len(), 1);
        assert_eq!(
            m.complete(7),
            vec![1, 2],
            "rejected tokens must not leak in"
        );
        assert!(m.is_empty(), "complete frees the entry");
        assert!(!is_pending(&m, 7));
        assert_eq!(
            m.complete(7),
            Vec::<u64>::new(),
            "tokens release exactly once"
        );

        // Table saturation: with every entry taken, a new line bounces but
        // existing entries still merge, and completing one frees an entry
        // for the previously rejected line.
        let mut m = MshrTable::new(2, 4);
        assert_eq!(m.allocate(10, 100), MshrOutcome::Allocated);
        assert_eq!(m.allocate(20, 200), MshrOutcome::Allocated);
        assert!(!has_free_entry(&m));
        assert_eq!(m.allocate(30, 300), MshrOutcome::Full);
        assert!(
            !is_pending(&m, 30),
            "a rejected line must not appear pending"
        );
        assert_eq!(m.allocate(10, 101), MshrOutcome::Merged);
        assert_eq!(m.complete(10), vec![100, 101]);
        assert!(has_free_entry(&m), "completion frees table capacity");
        assert_eq!(m.allocate(30, 300), MshrOutcome::Allocated);
        assert_eq!(m.complete(30), vec![300]);
        assert_eq!(m.complete(20), vec![200]);
        assert!(m.is_empty());
    }
}
