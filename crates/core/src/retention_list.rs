//! The retention engines' per-part list of resident lines in deadline
//! order.

/// The `prev` and `next` of a detached node.
const NIL: u32 = u32::MAX;

/// One slot's place in the list: its neighbours, its due time and the
/// line it holds, in one record so a walk reads one record per node.
#[derive(Debug, Clone, Copy)]
struct Node {
    prev: u32,
    next: u32,
    due: u64,
    line: u64,
}

impl Node {
    const DETACHED: Node = Node {
        prev: NIL,
        next: NIL,
        due: 0,
        line: 0,
    };

    fn key(&self) -> (u64, u64) {
        (self.due, self.line)
    }
}

/// Every resident line of one cache part, one node per slot, linked in
/// ascending `(due, line)` order: the order the oracle's reference model
/// sorts due lines by.
///
/// The owner relinks a slot whenever the array physically writes it (its
/// due time moves) and unlinks it whenever its line leaves, so the list
/// holds exactly the resident lines, each once, and
/// [`pop_due`](Self::pop_due) yields only lines that really are due.
/// Due times are write time plus a fixed retention offset, so nearly
/// every relink lands at the tail; a write that reaches the cache
/// slightly out of time order walks back a few nodes from there.
///
/// The nodes form a ring closed by a sentinel at index `slots`, so a
/// linked node always has both neighbours and a detached one has
/// `prev == NIL`.
#[derive(Debug, Clone)]
pub(crate) struct RetentionList {
    nodes: Vec<Node>,
}

impl RetentionList {
    /// An empty list over `slots` slots.
    ///
    /// # Panics
    ///
    /// Panics if `slots` does not fit the `u32` links.
    pub(crate) fn new(slots: usize) -> Self {
        let sentinel = u32::try_from(slots)
            .ok()
            .filter(|&s| s < NIL)
            .expect("retention list slot count fits u32 links");
        let mut nodes = vec![Node::DETACHED; slots + 1];
        nodes[slots].prev = sentinel;
        nodes[slots].next = sentinel;
        RetentionList { nodes }
    }

    fn sentinel(&self) -> u32 {
        (self.nodes.len() - 1) as u32
    }

    fn node(&self, i: u32) -> &Node {
        &self.nodes[i as usize]
    }

    /// Splices detached node `i` in right after linked node `at`.
    fn insert_after(&mut self, at: u32, i: u32) {
        let next = self.node(at).next;
        self.nodes[at as usize].next = i;
        self.nodes[next as usize].prev = i;
        let node = &mut self.nodes[i as usize];
        node.prev = at;
        node.next = next;
    }

    /// Detaches `slot`'s node; a no-op when it is not linked.
    pub(crate) fn unlink(&mut self, slot: usize) {
        let Node { prev, next, .. } = self.nodes[slot];
        if prev == NIL {
            return;
        }
        self.nodes[prev as usize].next = next;
        self.nodes[next as usize].prev = prev;
        self.nodes[slot].prev = NIL;
        self.nodes[slot].next = NIL;
    }

    /// Detaches `slot` and stores its new key.
    fn rekey(&mut self, slot: usize, due: u64, line: u64) -> u32 {
        self.unlink(slot);
        let node = &mut self.nodes[slot];
        node.due = due;
        node.line = line;
        slot as u32
    }

    /// Moves `slot`, now holding `line`, to due time `due`, searching
    /// for its place back from the tail — where a fresh write's deadline
    /// belongs.
    pub(crate) fn relink(&mut self, slot: usize, due: u64, line: u64) {
        let i = self.rekey(slot, due, line);
        let s = self.sentinel();
        let mut at = self.node(s).prev;
        while at != s && self.node(at).key() > (due, line) {
            at = self.node(at).prev;
        }
        self.insert_after(at, i);
    }

    /// [`relink`](Self::relink) searching forward from the head instead:
    /// for a due time at or just past everything already popped.
    pub(crate) fn relink_near_head(&mut self, slot: usize, due: u64, line: u64) {
        let i = self.rekey(slot, due, line);
        let s = self.sentinel();
        let mut before = self.node(s).next;
        while before != s && self.node(before).key() < (due, line) {
            before = self.node(before).next;
        }
        self.insert_after(self.node(before).prev, i);
    }

    /// Detaches and returns the first node's `(slot, line)` if its due
    /// time is at or before `now_ns`.
    pub(crate) fn pop_due(&mut self, now_ns: u64) -> Option<(usize, u64)> {
        let s = self.sentinel();
        let head = self.node(s).next;
        if head == s {
            return None;
        }
        let Node { due, line, .. } = *self.node(head);
        if due > now_ns {
            return None;
        }
        self.unlink(head as usize);
        Some((head as usize, line))
    }

    /// Detaches every node.
    pub(crate) fn clear(&mut self) {
        let s = self.sentinel();
        let mut at = self.node(s).next;
        while at != s {
            let next = self.node(at).next;
            self.nodes[at as usize] = Node::DETACHED;
            at = next;
        }
        self.nodes[s as usize].prev = s;
        self.nodes[s as usize].next = s;
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use sttgpu_stats::Rng;

    use super::*;

    /// The reference: an ordered set of `(due, line, slot)`, plus each
    /// slot's current key so relinks and unlinks can find the old entry.
    struct Reference {
        set: BTreeSet<(u64, u64, usize)>,
        keys: Vec<Option<(u64, u64)>>,
    }

    impl Reference {
        fn new(slots: usize) -> Self {
            Reference {
                set: BTreeSet::new(),
                keys: vec![None; slots],
            }
        }

        fn unlink(&mut self, slot: usize) {
            if let Some((due, line)) = self.keys[slot].take() {
                assert!(self.set.remove(&(due, line, slot)));
            }
        }

        fn relink(&mut self, slot: usize, due: u64, line: u64) {
            self.unlink(slot);
            self.keys[slot] = Some((due, line));
            self.set.insert((due, line, slot));
        }

        fn pop_due(&mut self, now_ns: u64) -> Option<(usize, u64)> {
            let &(due, line, slot) = self.set.first()?;
            if due > now_ns {
                return None;
            }
            self.unlink(slot);
            Some((slot, line))
        }

        fn clear(&mut self) {
            self.set.clear();
            self.keys.iter_mut().for_each(|k| *k = None);
        }
    }

    /// Walks the ring both ways and checks it against the reference:
    /// same members in the same order, consistent back links, and every
    /// detached node detached.
    fn assert_matches(list: &RetentionList, reference: &Reference) {
        let s = list.sentinel();
        let mut forward = Vec::new();
        let mut at = list.node(s).next;
        while at != s {
            let node = list.node(at);
            assert_eq!(list.node(node.next).prev, at, "back link of {at}");
            forward.push((node.due, node.line, at as usize));
            at = node.next;
        }
        let want: Vec<_> = reference.set.iter().copied().collect();
        assert_eq!(forward, want);
        for (slot, key) in reference.keys.iter().enumerate() {
            assert_eq!(list.nodes[slot].prev == NIL, key.is_none(), "slot {slot}");
        }
    }

    /// Pops everything due at `now` from both and asserts the two
    /// sequences are identical.
    fn sweep(list: &mut RetentionList, reference: &mut Reference, now: u64) -> usize {
        let mut popped = 0;
        loop {
            let got = list.pop_due(now);
            assert_eq!(got, reference.pop_due(now), "pop {popped} at t={now}");
            if got.is_none() {
                break;
            }
            popped += 1;
        }
        popped
    }

    /// The shape of a randomized operation stream over `slots` slots,
    /// each holding one of `lines` line addresses of its own (two slots
    /// never hold one line, as in a cache part). Each write relinks a
    /// random slot at `retention` after a clock that advances by up to
    /// `max_step`, displaced backwards by up to
    /// `near` (most writes) or `far` (every `far_every`-th, 0 for none).
    /// Every `sweep_every` writes, due slots pop; one in `rearm_one_in`
    /// popped slots is re-armed at `now + 1` from the head, as a dropped
    /// refresh is. One in `unlink_one_in` writes is an unlink instead,
    /// and the list is cleared every `clear_every` writes (0 for never).
    struct Shape {
        slots: usize,
        lines: u64,
        retention: u64,
        max_step: u64,
        near: u64,
        far: u64,
        far_every: usize,
        sweep_every: usize,
        rearm_one_in: u64,
        unlink_one_in: u64,
        clear_every: usize,
    }

    impl Default for Shape {
        fn default() -> Self {
            Shape {
                slots: 768,
                lines: 1 << 20,
                retention: 26_500,
                max_step: 40,
                near: 0,
                far: 0,
                far_every: 0,
                sweep_every: 7,
                rearm_one_in: 0,
                unlink_one_in: 0,
                clear_every: 0,
            }
        }
    }

    /// Drives list and reference with `ops` operations of the given
    /// shape and returns how many slots popped.
    fn differential(seed: u64, ops: usize, shape: Shape) -> usize {
        let mut rng = Rng::new(seed);
        let mut list = RetentionList::new(shape.slots);
        let mut reference = Reference::new(shape.slots);
        let mut now = 0u64;
        let mut popped = 0;
        for i in 0..ops {
            now += rng.range_u64(0, shape.max_step + 1);
            let slot = rng.range_u64(0, shape.slots as u64) as usize;
            if shape.unlink_one_in > 0 && rng.range_u64(0, shape.unlink_one_in) == 0 {
                list.unlink(slot);
                reference.unlink(slot);
            } else {
                let back = if shape.far_every > 0 && i % shape.far_every == 0 {
                    rng.range_u64(0, shape.far + 1)
                } else {
                    rng.range_u64(0, shape.near + 1)
                };
                let due = now.saturating_sub(back) + shape.retention;
                let line = rng.range_u64(0, shape.lines) * shape.slots as u64 + slot as u64;
                list.relink(slot, due, line);
                reference.relink(slot, due, line);
            }
            if i % shape.sweep_every == shape.sweep_every - 1 {
                loop {
                    let got = list.pop_due(now);
                    assert_eq!(got, reference.pop_due(now), "pop at t={now}");
                    let Some((slot, line)) = got else { break };
                    popped += 1;
                    if shape.rearm_one_in > 0 && rng.range_u64(0, shape.rearm_one_in) == 0 {
                        list.relink_near_head(slot, now + 1, line);
                        reference.relink(slot, now + 1, line);
                    }
                }
            }
            if shape.clear_every > 0 && i % shape.clear_every == shape.clear_every - 1 {
                list.clear();
                reference.clear();
            }
            if i % 997 == 0 {
                assert_matches(&list, &reference);
            }
        }
        assert_matches(&list, &reference);
        assert!(popped > 0, "the shape must make slots due before the end");
        popped + sweep(&mut list, &mut reference, u64::MAX)
    }

    #[test]
    fn monotone_deadlines_pop_in_key_order() {
        for seed in 0..4 {
            differential(seed, 20_000, Shape::default());
        }
    }

    #[test]
    fn equal_due_ties_order_by_line() {
        // A clock that rarely moves gives long runs of equal due times,
        // ordered only by line.
        for seed in 0..4 {
            let shape = Shape {
                lines: 8,
                retention: 200,
                max_step: 1,
                sweep_every: 13,
                ..Shape::default()
            };
            differential(seed, 20_000, shape);
            let shape = Shape {
                slots: 16,
                lines: 3,
                retention: 10,
                max_step: 1,
                near: 1,
                sweep_every: 5,
                ..Shape::default()
            };
            differential(seed, 20_000, shape);
        }
    }

    #[test]
    fn near_tail_out_of_order_relinks() {
        for seed in 0..4 {
            let shape = Shape {
                max_step: 30,
                near: 200,
                sweep_every: 11,
                ..Shape::default()
            };
            differential(seed, 30_000, shape);
        }
    }

    #[test]
    fn far_out_of_order_relinks_walk_the_whole_list() {
        for seed in 0..4 {
            let shape = Shape {
                max_step: 30,
                near: 50,
                far: 20_000,
                far_every: 9,
                sweep_every: 17,
                ..Shape::default()
            };
            differential(seed, 30_000, shape);
            let shape = Shape {
                slots: 64,
                lines: 64,
                max_step: 30,
                far: 26_000,
                far_every: 2,
                sweep_every: 3,
                ..Shape::default()
            };
            differential(seed, 30_000, shape);
        }
    }

    #[test]
    fn near_head_rearms_unlinks_and_clears() {
        for seed in 0..4 {
            let shape = Shape {
                slots: 128,
                lines: 16,
                retention: 100,
                max_step: 3,
                near: 20,
                sweep_every: 5,
                rearm_one_in: 2,
                unlink_one_in: 6,
                clear_every: 4_000,
                ..Shape::default()
            };
            differential(seed, 30_000, shape);
            // Every pop re-armed: the re-arms pile up at `now + 1` and
            // later ones must slot in by line among them.
            let shape = Shape {
                slots: 32,
                lines: 32,
                retention: 20,
                max_step: 2,
                sweep_every: 3,
                rearm_one_in: 1,
                ..Shape::default()
            };
            differential(seed, 10_000, shape);
        }
    }

    #[test]
    fn relinked_slots_pop_once_at_their_latest_due_time() {
        let mut list = RetentionList::new(4);
        list.relink(0, 10, 7);
        list.relink(1, 20, 3);
        list.relink(2, 20, 1);
        // Rewrite slot 0: it moves behind everything, and is not due at 10.
        list.relink(0, 30, 7);
        assert_eq!(list.pop_due(10), None);
        assert_eq!(
            list.pop_due(25),
            Some((2, 1)),
            "equal due: lower line first"
        );
        assert_eq!(list.pop_due(25), Some((1, 3)));
        assert_eq!(list.pop_due(25), None);
        // A re-arm lands ahead of later deadlines.
        list.relink_near_head(1, 26, 3);
        list.unlink(3);
        assert_eq!(list.pop_due(30), Some((1, 3)));
        assert_eq!(list.pop_due(30), Some((0, 7)));
        assert_eq!(list.pop_due(u64::MAX), None);
        list.relink(3, 5, 0);
        list.clear();
        assert_eq!(list.pop_due(u64::MAX), None);
        list.relink(3, 5, 0);
        assert_eq!(list.pop_due(5), Some((3, 0)));
    }
}
