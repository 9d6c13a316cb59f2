//! Per-SM ready queues for the two warp schedulers.
//!
//! Loose round-robin (LRR) keeps queued warps in a rotation: the first
//! issuable warp in rotation order is taken, the not-ready warps in front
//! of it move to the back, and a re-queued warp joins at the back. Greedy
//! -then-oldest (GTO) keeps issuing one warp until it stalls, then takes
//! the oldest ready warp.
//!
//! Both are served by one [`ReadyQueue`] whose scan, when no warp can
//! issue, also yields the exact earliest `ready_at` over every queued warp
//! — the wake cycle the driver's idle skip needs — so no second pass is
//! ever made for it.
//!
//! **LRR ring.** Entries live in a `Vec` read cyclically from `head`.
//! Taking the entry at physical index `i` leaves a *hole* there and moves
//! `head` to `i + 1`; the rotation order that results is exactly what
//! `rotate_left` + `pop_front` on a deque would produce, without moving
//! any entry. The back of the queue is then the slot just before `head`,
//! which is the hole, so the usual issue → re-queue step writes the warp
//! straight back where it was. Holes carry `ready_at == u64::MAX`, so
//! scans skip them without a test of their own; they are squeezed out
//! only when a push finds no hole at the back.
//!
//! **GTO.** The order of the non-greedy entries is irrelevant (ages are
//! unique, so "oldest ready" is order-independent), so removal is a plain
//! `swap_remove`. The greedy warp parks outside the ring while queued,
//! which makes sticking with it O(1).

use crate::config::WarpScheduler;

/// One queued warp. `ready_at` and `age` are copied out of the warp at
/// enqueue time — both are immutable while the warp is queued — so scans
/// stay inside the queue's contiguous storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ReadyEntry {
    /// The warp's slot in its SM.
    slot: usize,
    /// Earliest cycle the warp may issue.
    ready_at: u64,
    /// Launch order within the SM (lower = older).
    age: u64,
}

/// A vacated ring position (its `ready_at` is `u64::MAX`): never
/// issuable, never the minimum.
fn is_hole(e: &ReadyEntry) -> bool {
    e.ready_at == u64::MAX
}

/// The queued warps of one SM, ordered per the scheduling policy.
#[derive(Debug, Clone)]
pub(crate) struct ReadyQueue {
    scheduler: WarpScheduler,
    /// LRR: the rotation, read cyclically from `head`, holes included.
    /// GTO: the non-greedy entries in no particular order (no holes).
    buf: Vec<ReadyEntry>,
    head: usize,
    holes: usize,
    /// GTO: the warp issued from until it stalls.
    greedy: Option<usize>,
    /// GTO: the greedy warp's entry while it is queued.
    parked: Option<ReadyEntry>,
}

impl ReadyQueue {
    /// An empty queue for `scheduler`.
    pub(crate) fn new(scheduler: WarpScheduler) -> Self {
        ReadyQueue {
            scheduler,
            buf: Vec::new(),
            head: 0,
            holes: 0,
            greedy: None,
            parked: None,
        }
    }

    /// Whether entries' ages matter (GTO). Loose round-robin never reads
    /// them, so callers may pass any age.
    #[inline]
    pub(crate) fn orders_by_age(&self) -> bool {
        self.scheduler == WarpScheduler::GreedyThenOldest
    }

    /// Queues `slot`'s warp, issuable from cycle `ready_at`, at the back
    /// of the rotation (GTO: parks it if it is the greedy warp). Fields
    /// are passed as scalars so an out-of-line call never round-trips a
    /// struct through the stack.
    #[inline]
    pub(crate) fn push(&mut self, slot: usize, ready_at: u64, age: u64) {
        debug_assert!(
            ready_at != u64::MAX,
            "ready_at u64::MAX is reserved for holes"
        );
        if self.greedy == Some(slot) {
            self.parked = Some(ReadyEntry {
                slot,
                ready_at,
                age,
            });
            return;
        }
        let n = self.buf.len();
        if n > 0 {
            let back = if self.head == 0 { n - 1 } else { self.head - 1 };
            let d = &mut self.buf[back];
            if is_hole(d) {
                // Field by field: a whole-entry copy goes through a stack
                // temporary whose wide reload stalls on the narrow stores.
                d.slot = slot;
                d.ready_at = ready_at;
                d.age = age;
                self.holes -= 1;
                return;
            }
        }
        let e = ReadyEntry {
            slot,
            ready_at,
            age,
        };
        if self.head == 0 && self.holes == 0 {
            self.buf.push(e);
        } else {
            self.insert_at_back(e);
        }
    }

    /// The rare push: the back of the rotation is a live entry and the
    /// buffer is not in rotation order from index 0.
    #[cold]
    #[inline(never)]
    fn insert_at_back(&mut self, e: ReadyEntry) {
        if self.holes > 0 {
            self.compact();
        }
        if self.head == 0 {
            self.buf.push(e);
        } else {
            self.buf.insert(self.head, e);
            self.head += 1;
        }
    }

    /// Removes the holes, keeping the rotation order (`head` becomes 0).
    fn compact(&mut self) {
        self.buf.rotate_left(self.head);
        self.buf.retain(|e| !is_hole(e));
        self.head = 0;
        self.holes = 0;
    }

    /// Takes the next warp that may issue at `cycle`, per the policy.
    /// When none can, the queue is unchanged and the error carries the
    /// exact earliest `ready_at` over every queued warp (`u64::MAX` when
    /// the queue is empty).
    #[inline]
    pub(crate) fn pop(&mut self, cycle: u64) -> Result<usize, u64> {
        match self.scheduler {
            WarpScheduler::LooseRoundRobin => self.pop_round_robin(cycle),
            WarpScheduler::GreedyThenOldest => self.pop_greedy_then_oldest(cycle),
        }
    }

    #[inline]
    fn pop_round_robin(&mut self, cycle: u64) -> Result<usize, u64> {
        let mut min = u64::MAX;
        let (wrapped, first) = self.buf.split_at(self.head);
        let found = match first_ready(first, cycle, &mut min) {
            Some(i) => self.head + i,
            None => first_ready(wrapped, cycle, &mut min).ok_or(min)?,
        };
        let slot = self.buf[found].slot;
        // Only the marker field is written: a whole-entry store here
        // would be read back by the re-queue's hole test moments later.
        self.buf[found].ready_at = u64::MAX;
        self.holes += 1;
        if self.holes == self.buf.len() {
            self.buf.clear();
            self.head = 0;
            self.holes = 0;
        } else {
            self.head = if found + 1 == self.buf.len() {
                0
            } else {
                found + 1
            };
        }
        Ok(slot)
    }

    #[inline]
    fn pop_greedy_then_oldest(&mut self, cycle: u64) -> Result<usize, u64> {
        // Stick with the greedy warp while it can issue...
        if let Some(p) = self.parked {
            if p.ready_at <= cycle {
                self.parked = None;
                return Ok(p.slot);
            }
        }
        // ...otherwise the oldest ready warp becomes greedy.
        let mut min = self.parked.map_or(u64::MAX, |p| p.ready_at);
        let mut best: Option<(usize, u64)> = None;
        for (i, e) in self.buf.iter().enumerate() {
            if e.ready_at <= cycle {
                if best.is_none_or(|(_, age)| e.age < age) {
                    best = Some((i, e.age));
                }
            } else {
                min = min.min(e.ready_at);
            }
        }
        let Some((i, _)) = best else {
            return Err(min);
        };
        let entry = self.buf.swap_remove(i);
        // The stalled ex-greedy warp rejoins the others.
        if let Some(p) = self.parked.take() {
            self.buf.push(p);
        }
        self.greedy = Some(entry.slot);
        Ok(entry.slot)
    }
}

/// Index of the first entry issuable at `cycle`, folding every entry
/// scanned before it into `min`. Holes never match and never lower `min`.
#[inline]
fn first_ready(entries: &[ReadyEntry], cycle: u64, min: &mut u64) -> Option<usize> {
    for (i, e) in entries.iter().enumerate() {
        if e.ready_at <= cycle {
            return Some(i);
        }
        *min = (*min).min(e.ready_at);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use sttgpu_stats::Rng;

    /// The reference semantics: the deque-based pop/rotate (LRR) and
    /// scan + `swap_remove_back` with a parked greedy warp (GTO) that the
    /// SM used before, with the earliest `ready_at` recomputed by a
    /// separate scan.
    struct Reference {
        scheduler: WarpScheduler,
        ready: VecDeque<ReadyEntry>,
        greedy: Option<usize>,
        parked: Option<ReadyEntry>,
    }

    impl Reference {
        fn push(&mut self, e: ReadyEntry) {
            if self.greedy == Some(e.slot) {
                self.parked = Some(e);
            } else {
                self.ready.push_back(e);
            }
        }

        fn min_ready_at(&self) -> u64 {
            let ring = self.ready.iter().map(|e| e.ready_at).min();
            let parked = self.parked.map(|p| p.ready_at);
            ring.into_iter().chain(parked).min().unwrap_or(u64::MAX)
        }

        fn pop(&mut self, cycle: u64) -> Result<usize, u64> {
            match self.scheduler {
                WarpScheduler::LooseRoundRobin => {
                    let Some(pos) = self.ready.iter().position(|e| e.ready_at <= cycle) else {
                        return Err(self.min_ready_at());
                    };
                    self.ready.rotate_left(pos);
                    Ok(self.ready.pop_front().expect("found").slot)
                }
                WarpScheduler::GreedyThenOldest => {
                    if let Some(p) = self.parked {
                        if p.ready_at <= cycle {
                            self.parked = None;
                            return Ok(p.slot);
                        }
                    }
                    let Some(best) = self
                        .ready
                        .iter()
                        .enumerate()
                        .filter(|(_, e)| e.ready_at <= cycle)
                        .min_by_key(|(_, e)| e.age)
                        .map(|(i, _)| i)
                    else {
                        return Err(self.min_ready_at());
                    };
                    let entry = self.ready.swap_remove_back(best).expect("index valid");
                    if let Some(p) = self.parked.take() {
                        self.ready.push_back(p);
                    }
                    self.greedy = Some(entry.slot);
                    Ok(entry.slot)
                }
            }
        }

        /// The LRR rotation order, for comparing queue contents exactly.
        fn order(&self) -> Vec<usize> {
            self.ready.iter().map(|e| e.slot).collect()
        }
    }

    impl ReadyQueue {
        fn order(&self) -> Vec<usize> {
            let (wrapped, first) = self.buf.split_at(self.head);
            first
                .iter()
                .chain(wrapped)
                .filter(|e| !is_hole(e))
                .map(|e| e.slot)
                .collect()
        }
    }

    /// Drives both structures through the SM's traffic pattern: each
    /// cycle pops up to `width` warps; a popped warp re-queues at `+dep`
    /// (ALU), at `+8` (MSHR-full replay), or blocks on memory and comes
    /// back later through a fill wake-up whose `ready_at` is already in
    /// the past. Launches add fresh warps with `ready_at = cycle`.
    fn differential(scheduler: WarpScheduler, seed: u64) {
        const WARPS: usize = 24;
        let mut rng = Rng::new(seed);
        let mut dut = ReadyQueue::new(scheduler);
        let mut reference = Reference {
            scheduler,
            ready: VecDeque::new(),
            greedy: None,
            parked: None,
        };
        // Per slot: None = free, Some(false) = blocked, Some(true) = queued.
        let mut state: [Option<bool>; WARPS] = [None; WARPS];
        let mut ready_at = [0u64; WARPS];
        let mut ages = [0u64; WARPS];
        let mut next_age = 0u64;
        let dep = rng.range_u64(1, 6);
        let width = rng.range_u32(1, 3);
        let mut cycle = 0u64;
        let push_both = |dut: &mut ReadyQueue, reference: &mut Reference, e: ReadyEntry| {
            dut.push(e.slot, e.ready_at, e.age);
            reference.push(e);
        };
        for _ in 0..3_000 {
            for slot in 0..WARPS {
                let e = ReadyEntry {
                    slot,
                    ready_at: ready_at[slot],
                    age: ages[slot],
                };
                if state[slot].is_none() && rng.chance(0.05) {
                    // Launch a fresh warp, issuable now.
                    ages[slot] = next_age;
                    next_age += 1;
                    ready_at[slot] = cycle;
                    state[slot] = Some(true);
                    let e = ReadyEntry {
                        ready_at: cycle,
                        age: ages[slot],
                        ..e
                    };
                    push_both(&mut dut, &mut reference, e);
                } else if state[slot] == Some(false) && rng.chance(0.2) {
                    // A fill wakes a blocked warp: ready_at is in the past.
                    state[slot] = Some(true);
                    push_both(&mut dut, &mut reference, e);
                }
            }
            for _ in 0..width {
                let got = dut.pop(cycle);
                let want = reference.pop(cycle);
                assert_eq!(got, want, "pop diverged at cycle {cycle} ({scheduler:?})");
                let Ok(slot) = got else {
                    break;
                };
                match rng.range_u32(0, 10) {
                    // Re-queued after an ALU instruction or an MSHR-full stall.
                    0..=5 => ready_at[slot] = cycle + dep,
                    6 => ready_at[slot] = cycle + 8,
                    // Blocked on memory, or retired.
                    7 | 8 => {
                        state[slot] = Some(false);
                        continue;
                    }
                    _ => {
                        state[slot] = None;
                        continue;
                    }
                }
                let e = ReadyEntry {
                    slot,
                    ready_at: ready_at[slot],
                    age: ages[slot],
                };
                push_both(&mut dut, &mut reference, e);
            }
            assert_eq!(
                dut.parked, reference.parked,
                "parked warp diverged at {cycle}"
            );
            if scheduler == WarpScheduler::LooseRoundRobin {
                assert_eq!(
                    dut.order(),
                    reference.order(),
                    "rotation diverged at {cycle}"
                );
            }
            cycle += rng.range_u64(1, 4);
        }
    }

    #[test]
    fn round_robin_matches_the_deque_rotation() {
        for seed in 0..40 {
            differential(WarpScheduler::LooseRoundRobin, seed);
        }
    }

    #[test]
    fn greedy_then_oldest_matches_the_deque_model() {
        for seed in 0..40 {
            differential(WarpScheduler::GreedyThenOldest, seed);
        }
    }

    #[test]
    fn empty_queue_reports_no_wake() {
        let mut q = ReadyQueue::new(WarpScheduler::LooseRoundRobin);
        assert_eq!(q.pop(10), Err(u64::MAX));
        assert!(q.order().is_empty());
    }

    #[test]
    fn reissue_refills_the_hole_it_left() {
        let mut q = ReadyQueue::new(WarpScheduler::LooseRoundRobin);
        for slot in 0..4 {
            q.push(slot, 5, slot as u64);
        }
        assert_eq!(q.pop(5), Ok(0));
        q.push(0, 9, 0);
        assert_eq!(q.order(), vec![1, 2, 3, 0]);
        assert_eq!(q.buf.len(), 4, "the re-queue reused the hole");
        assert_eq!(q.pop(5), Ok(1));
        assert_eq!(q.pop(5), Ok(2));
        assert_eq!(q.pop(5), Ok(3));
        assert_eq!(q.pop(5), Err(9));
    }
}
