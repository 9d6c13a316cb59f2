//! Warp execution state.

use crate::program::{Draw, WarpInstr, WarpProgram};

/// One resident warp's scheduler-visible state.
///
/// Laid out (`repr(C)`, cache-line aligned) so that everything an ALU
/// instruction *reads* — `queued` (which also carries `Option<Warp>`'s
/// niche), the replay slot and the head of the [`WarpProgram`] — sits in
/// the first 64 bytes. `ready_at`, which the re-queue only writes, and
/// the fields of memory instructions follow.
#[derive(Debug, Clone)]
#[repr(C, align(64))]
pub(crate) struct Warp {
    /// Whether the warp currently sits in the SM's ready queue.
    pub queued: bool,
    /// Outstanding load requests (the warp stalls at the SM's
    /// `max_pending_loads`).
    pub(crate) pending_loads: u32,
    /// An instruction that must replay (e.g. after an MSHR-full stall).
    /// Boxed: replays are rare, and inline it would push the program's
    /// hot fields out of the first cache line.
    pub replay: Option<Box<WarpInstr>>,
    /// The warp's instruction stream.
    pub program: WarpProgram,
    /// Earliest cycle the warp may issue again.
    pub(crate) ready_at: u64,
    /// Launch order within the SM (lower = older), used by GTO scheduling.
    pub age: u64,
    /// Index of the owning block in the SM's block table.
    pub(crate) block_slot: usize,
}

impl Warp {
    /// Creates a warp ready to issue at cycle 0.
    pub(crate) fn new(program: WarpProgram, block_slot: usize) -> Self {
        Warp {
            program,
            block_slot,
            age: 0,
            pending_loads: 0,
            ready_at: 0,
            queued: false,
            replay: None,
        }
    }

    /// Whether the warp has issued its whole stream (it may still have
    /// loads in flight).
    pub(crate) fn stream_done(&self) -> bool {
        self.program.is_finished() && self.replay.is_none()
    }

    /// Whether the warp can retire: stream done and no loads in flight.
    pub(crate) fn can_retire(&self) -> bool {
        self.stream_done() && self.pending_loads == 0
    }

    /// Draws the warp's next instruction class: a pending replay (always
    /// a memory instruction) first, otherwise the stream's next draw. A
    /// [`Draw::Mem`] is completed by [`take_mem`](Self::take_mem).
    #[inline]
    pub(crate) fn draw(&mut self) -> Draw {
        if self.replay.is_some() {
            Draw::Mem
        } else {
            self.program.draw()
        }
    }

    /// The memory instruction of a [`Draw::Mem`]: the pending replay, or
    /// a freshly generated one.
    pub(crate) fn take_mem(&mut self) -> WarpInstr {
        match self.replay.take() {
            Some(instr) => *instr,
            None => self.program.gen_mem(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelParams;
    use std::sync::Arc;

    /// The next instruction the way the SM takes it, `Some(None)` for an
    /// ALU instruction.
    fn take(w: &mut Warp) -> Option<Option<WarpInstr>> {
        match w.draw() {
            Draw::Done => None,
            Draw::Alu => Some(None),
            Draw::Mem => Some(Some(w.take_mem())),
        }
    }

    fn warp(instrs: u32) -> Warp {
        let k = Arc::new(KernelParams::new("k", 1, 32).with_instructions(instrs));
        Warp::new(WarpProgram::new(k, 0, 0, 1, 128), 0)
    }

    #[test]
    fn fresh_warp_is_issuable() {
        let w = warp(10);
        assert!(!w.stream_done());
        assert!(!w.can_retire());
        assert_eq!(w.pending_loads, 0);
    }

    #[test]
    fn drains_to_retirement() {
        let mut w = warp(3);
        assert!(take(&mut w).is_some());
        assert!(take(&mut w).is_some());
        assert!(take(&mut w).is_some());
        assert!(take(&mut w).is_none());
        assert!(w.can_retire());
    }

    #[test]
    fn pending_loads_block_retirement() {
        let mut w = warp(1);
        let _ = take(&mut w);
        w.pending_loads = 1;
        assert!(w.stream_done());
        assert!(!w.can_retire());
        w.pending_loads = 0;
        assert!(w.can_retire());
    }

    #[test]
    fn replay_takes_priority() {
        let mut w = warp(5);
        let first = w.take_mem();
        w.replay = Some(Box::new(first.clone()));
        assert!(!w.stream_done());
        assert_eq!(take(&mut w), Some(Some(first)));
    }
}
