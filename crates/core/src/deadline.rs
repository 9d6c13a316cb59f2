//! The retention engines' queue of pending deadlines.

/// One pending retention deadline: `(deadline_ns, line_addr,
/// written_at_ns)`.
///
/// Every physical array write pushes one entry and nothing is removed
/// early. When an entry comes due, the engine compares its
/// `written_at_ns` stamp with the line's current retention clock: if the
/// line was rewritten, refreshed, migrated or evicted since the push, the
/// stamp no longer matches and the entry is skipped. Each maintenance
/// tick therefore costs `O(due entries)` instead of a full array scan.
pub(crate) type DeadlineEntry = (u64, u64, u64);

/// A min-queue of [`DeadlineEntry`]s kept as one sorted run: a `Vec` in
/// ascending `(deadline, line, stamp)` order plus a cursor past the
/// consumed prefix.
///
/// Deadlines are write time plus a fixed retention offset, so nearly
/// every push lands at the tail: an in-order push is an append and a pop
/// bumps the cursor. Recorded GPU streams reach the LLC slightly out of
/// time order across banks; those pushes walk back a few entries from the
/// tail and insert there. Pops come out in exactly the order a
/// `BinaryHeap<Reverse<DeadlineEntry>>` would give them, which is the
/// order the oracle's reference model sorts due lines by.
#[derive(Debug, Clone, Default)]
pub(crate) struct DeadlineRun {
    entries: Vec<DeadlineEntry>,
    head: usize,
}

impl DeadlineRun {
    /// Entries an out-of-order push walks back over before it switches to
    /// a binary search of the rest of the run.
    const SCAN: usize = 32;

    /// Consumed entries tolerated before the prefix is dropped; dropping
    /// only once it is also half the run keeps pushes amortised `O(1)`.
    const COMPACT_AFTER: usize = 1024;

    /// Queues an entry.
    pub(crate) fn push(&mut self, entry: DeadlineEntry) {
        if self.head >= Self::COMPACT_AFTER && 2 * self.head >= self.entries.len() {
            self.entries.drain(..self.head);
            self.head = 0;
        }
        let live = &self.entries[self.head..];
        match live.last() {
            Some(&last) if last > entry => {}
            _ => {
                self.entries.push(entry);
                return;
            }
        }
        // The tail sorts after `entry`: walk back a short way, then
        // binary-search whatever is left. Equal entries stay ahead of it.
        let mut pos = live.len() - 1;
        let floor = pos.saturating_sub(Self::SCAN);
        while pos > floor && live[pos - 1] > entry {
            pos -= 1;
        }
        if pos == floor {
            pos = live[..pos].partition_point(|&e| e <= entry);
        }
        self.entries.insert(self.head + pos, entry);
    }

    /// Removes and returns the smallest entry if its deadline is at or
    /// before `now_ns`.
    pub(crate) fn pop_due(&mut self, now_ns: u64) -> Option<DeadlineEntry> {
        let entry = *self.entries.get(self.head)?;
        if entry.0 > now_ns {
            return None;
        }
        self.head += 1;
        if self.head == self.entries.len() {
            self.entries.clear();
            self.head = 0;
        }
        Some(entry)
    }

    /// Drops every pending entry.
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.head = 0;
    }

    /// Number of pending entries.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.entries.len() - self.head
    }
}

#[cfg(test)]
mod tests {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use sttgpu_stats::Rng;

    use super::*;

    /// The reference: the lazy-deletion min-heap the run replaces.
    #[derive(Default)]
    struct Reference(BinaryHeap<Reverse<DeadlineEntry>>);

    impl Reference {
        fn pop_due(&mut self, now_ns: u64) -> Option<DeadlineEntry> {
            let &Reverse(entry) = self.0.peek()?;
            if entry.0 > now_ns {
                return None;
            }
            self.0.pop();
            Some(entry)
        }
    }

    /// Pops everything due at `now` from both queues and asserts the two
    /// sequences are identical.
    fn sweep(run: &mut DeadlineRun, reference: &mut Reference, now: u64) -> usize {
        let mut popped = 0;
        loop {
            let got = run.pop_due(now);
            assert_eq!(got, reference.pop_due(now), "pop {popped} at t={now}");
            if got.is_none() {
                break;
            }
            popped += 1;
        }
        assert_eq!(run.len(), reference.0.len());
        popped
    }

    /// The shape of a randomized push stream: deadlines run a fixed
    /// retention after a clock that advances by up to `max_step` per
    /// push, displaced backwards by up to `near` (most pushes) or `far`
    /// (every `far_every`-th push, 0 for none), over `lines` distinct
    /// line addresses, with a due-sweep every `sweep_every` pushes.
    struct Shape {
        max_step: u64,
        near: u64,
        far: u64,
        far_every: usize,
        lines: u64,
        sweep_every: usize,
    }

    /// Drives both queues with `ops` pushes of the given shape and
    /// returns how many entries popped.
    fn differential(seed: u64, ops: usize, shape: Shape) -> usize {
        let Shape {
            max_step,
            near,
            far,
            far_every,
            lines,
            sweep_every,
        } = shape;
        let mut rng = Rng::new(seed);
        let mut run = DeadlineRun::default();
        let mut reference = Reference::default();
        let retention = 26_500;
        let mut now = 0u64;
        let mut popped = 0;
        for i in 0..ops {
            now += rng.range_u64(0, max_step + 1);
            let back = if far_every > 0 && i % far_every == 0 {
                rng.range_u64(0, far + 1)
            } else {
                rng.range_u64(0, near + 1)
            };
            let written = now.saturating_sub(back);
            let entry = (written + retention, rng.range_u64(0, lines), written);
            run.push(entry);
            reference.0.push(Reverse(entry));
            if i % sweep_every == sweep_every - 1 {
                popped += sweep(&mut run, &mut reference, now);
            }
        }
        popped + sweep(&mut run, &mut reference, u64::MAX)
    }

    #[test]
    fn monotone_deadlines_pop_like_the_heap() {
        for seed in 0..4 {
            let shape = Shape {
                max_step: 40,
                near: 0,
                far: 0,
                far_every: 0,
                lines: 768,
                sweep_every: 7,
            };
            let popped = differential(seed, 20_000, shape);
            assert_eq!(popped, 20_000);
        }
    }

    #[test]
    fn equal_deadline_ties_order_by_line_then_stamp() {
        // A clock that rarely moves gives long runs of equal deadlines,
        // and few lines give equal (deadline, line) pairs too.
        for seed in 0..4 {
            let shape = Shape {
                max_step: 1,
                near: 0,
                far: 0,
                far_every: 0,
                lines: 8,
                sweep_every: 13,
            };
            differential(seed, 20_000, shape);
            let shape = Shape {
                max_step: 1,
                near: 1,
                far: 0,
                far_every: 0,
                lines: 3,
                sweep_every: 5,
            };
            differential(seed, 20_000, shape);
        }
    }

    #[test]
    fn near_tail_out_of_order_pushes() {
        for seed in 0..4 {
            let shape = Shape {
                max_step: 30,
                near: 200,
                far: 0,
                far_every: 0,
                lines: 768,
                sweep_every: 11,
            };
            differential(seed, 30_000, shape);
        }
    }

    #[test]
    fn far_out_of_order_pushes_fall_back_to_binary_search() {
        for seed in 0..4 {
            let shape = Shape {
                max_step: 30,
                near: 50,
                far: 20_000,
                far_every: 9,
                lines: 768,
                sweep_every: 17,
            };
            differential(seed, 30_000, shape);
            let shape = Shape {
                max_step: 30,
                near: 0,
                far: 26_000,
                far_every: 2,
                lines: 64,
                sweep_every: 3,
            };
            differential(seed, 30_000, shape);
        }
    }

    #[test]
    fn long_runs_compact_the_consumed_prefix() {
        // Sweep rarely, so the run holds thousands of entries, many of
        // them consumed, when the next push arrives.
        let mut rng = Rng::new(9);
        let mut run = DeadlineRun::default();
        let mut reference = Reference::default();
        let mut now = 0;
        for i in 0..50_000u64 {
            now += 3;
            let entry = (now + 5_000 - rng.range_u64(0, 100), i % 500, now);
            run.push(entry);
            reference.0.push(Reverse(entry));
            if i % 1_500 == 0 {
                // Pop only part of what is due, like a sweep interrupted
                // by new writes between maintenance ticks.
                for _ in 0..1_200 {
                    assert_eq!(run.pop_due(now), reference.pop_due(now));
                }
                assert!(run.head <= run.entries.len());
            }
        }
        sweep(&mut run, &mut reference, u64::MAX);
        assert_eq!(run.len(), 0);
    }

    #[test]
    fn pushes_below_the_cursor_pop_next() {
        let mut run = DeadlineRun::default();
        for d in [10, 20, 30, 40] {
            run.push((d, 0, 0));
        }
        assert_eq!(run.pop_due(25), Some((10, 0, 0)));
        assert_eq!(run.pop_due(25), Some((20, 0, 0)));
        // Earlier than everything already consumed: it is the new minimum.
        run.push((5, 1, 1));
        run.push((30, 0, 0));
        assert_eq!(run.pop_due(25), Some((5, 1, 1)));
        assert_eq!(run.pop_due(25), None);
        assert_eq!(run.pop_due(30), Some((30, 0, 0)));
        assert_eq!(run.pop_due(30), Some((30, 0, 0)));
        run.clear();
        assert_eq!(run.pop_due(u64::MAX), None);
    }
}
