//! Streaming multiprocessor: warp scheduling and instruction issue.
//!
//! Each cycle the SM issues up to `issue_width` instructions from ready
//! warps (loose round-robin or greedy-then-oldest, see `ready.rs`).
//! Warps stall when they exceed the outstanding-load limit and wake when
//! fill responses arrive — interleaving many resident warps is how the
//! GPU hides memory latency, and why occupancy (hence register-file size,
//! hence configurations C2/C3) matters.
//!
//! The SM talks to the shared [`MemSystem`] directly: L1 misses and
//! global writes are requested as they issue, and a dirty L1 victim is
//! written back as soon as the fill that displaced it lands.

use std::sync::Arc;

use sttgpu_trace::{Trace, TraceEvent};

use crate::config::GpuConfig;
use crate::kernel::KernelParams;
use crate::l1::{L1Cache, L1ReadOutcome};
use crate::mem::MemSystem;
use crate::program::{Draw, WarpInstr, WarpProgram};
use crate::ready::ReadyQueue;
use crate::warp::Warp;

/// Replay delay after an MSHR-full stall, cycles.
const MSHR_RETRY_CYCLES: u64 = 8;

/// What one [`Sm::step`] call produced, for the driver to aggregate.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StepOutcome {
    /// Thread blocks that retired during the issue pass.
    pub(crate) blocks_retired: u32,
    /// Earliest cycle any queued warp can issue (`u64::MAX` when none).
    pub(crate) next_wake: u64,
}

/// One streaming multiprocessor.
#[derive(Debug)]
pub(crate) struct Sm {
    id: u32,
    warps: Vec<Option<Warp>>,
    ready: ReadyQueue,
    /// Lower bound on the earliest `ready_at` over all queued warps
    /// (`u64::MAX` when none is queued). Enqueues lower it in O(1); the
    /// issue pass makes it exact whenever the queue runs out of issuable
    /// warps, from the same scan that found none (see
    /// [`ReadyQueue::pop`]).
    next_ready: u64,
    /// Live warps per resident block slot (0 = slot free).
    blocks: Vec<u32>,
    /// Live warp count (cached; `warps` holds exactly this many `Some`s).
    warps_live: u32,
    /// Live block count (cached; `blocks` holds this many nonzero slots).
    blocks_live: u32,
    l1: L1Cache,
    issue_width: u32,
    dep_interval: u64,
    max_pending: u32,
    warp_size: u32,
    trace: Trace,
    /// Monotone launch counter assigning warp ages.
    age_counter: u64,
    /// Thread instructions committed.
    pub instructions: u64,
    /// Cycles with no issuable warp.
    pub(crate) idle_cycles: u64,
    /// Instruction replays due to full L1 MSHRs.
    pub mshr_stalls: u64,
}

impl Sm {
    /// Creates an empty SM.
    pub(crate) fn new(cfg: &GpuConfig, id: u32) -> Self {
        Sm {
            id,
            warps: (0..cfg.max_warps_per_sm).map(|_| None).collect(),
            ready: ReadyQueue::new(cfg.scheduler),
            next_ready: u64::MAX,
            blocks: Vec::new(),
            warps_live: 0,
            blocks_live: 0,
            l1: L1Cache::new(&cfg.l1),
            issue_width: cfg.issue_width,
            dep_interval: cfg.dep_interval_cycles as u64,
            max_pending: cfg.max_pending_loads,
            warp_size: cfg.warp_size,
            trace: Trace::off(),
            age_counter: 0,
            instructions: 0,
            idle_cycles: 0,
            mshr_stalls: 0,
        }
    }

    /// Free warp contexts.
    pub(crate) fn free_warp_slots(&self) -> usize {
        self.warps.len() - self.warps_live as usize
    }

    /// Live blocks.
    pub(crate) fn live_blocks(&self) -> u32 {
        self.blocks_live
    }

    /// Whether nothing is resident.
    pub(crate) fn is_idle(&self) -> bool {
        self.warps_live == 0
    }

    /// The SM's L1 data cache (for statistics).
    pub(crate) fn l1(&self) -> &L1Cache {
        &self.l1
    }

    /// Attaches a trace sink observing this SM's launch invariants and
    /// its L1 MSHR table.
    pub(crate) fn set_trace(&mut self, trace: Trace) {
        self.l1.set_trace(trace.clone(), 1 + self.id);
        self.trace = trace;
    }

    /// Invalidates the L1 (kernel boundary — GPU L1s hold no dirty global
    /// data, so this is traffic-free).
    pub(crate) fn flush_l1(&mut self) {
        self.l1.invalidate_all();
    }

    /// Launches one thread block; returns `false` when warp contexts are
    /// insufficient.
    pub(crate) fn launch_block(
        &mut self,
        kernel: &Arc<KernelParams>,
        block_id: u32,
        seed: u64,
        cycle: u64,
    ) -> bool {
        let needed = kernel.warps_per_block() as usize;
        if self.free_warp_slots() < needed {
            return false;
        }
        // Claim or reuse a block slot.
        let block_slot = match self.blocks.iter().position(|&c| c == 0) {
            Some(i) => {
                self.blocks[i] = needed as u32;
                i
            }
            None => {
                self.blocks.push(needed as u32);
                self.blocks.len() - 1
            }
        };
        self.blocks_live += 1;
        let mut placed = 0u32;
        for slot in 0..self.warps.len() {
            if placed == needed as u32 {
                break;
            }
            if self.warps[slot].is_none() {
                let program = WarpProgram::new(
                    Arc::clone(kernel),
                    block_id,
                    placed,
                    seed,
                    self.l1.line_bytes(),
                );
                let mut warp = Warp::new(program, block_slot);
                warp.age = self.age_counter;
                self.age_counter += 1;
                warp.ready_at = cycle;
                warp.queued = true;
                self.warps[slot] = Some(warp);
                self.warps_live += 1;
                self.enqueue(slot);
                placed += 1;
            }
        }
        if placed != needed as u32 {
            // The free-slot check above should make this unreachable; the
            // checker reports it instead of silently under-launching.
            self.trace.emit(|| TraceEvent::LaunchUnderfill {
                sm: self.id,
                placed,
                needed: needed as u32,
            });
            debug_assert_eq!(placed, needed as u32);
        }
        true
    }

    /// Retires `slot`'s warp; returns `true` when its whole block retired.
    fn retire_warp(&mut self, slot: usize) -> bool {
        let warp = self.warps[slot].take().expect("retiring a live warp");
        self.warps_live -= 1;
        let left = &mut self.blocks[warp.block_slot];
        *left -= 1;
        if *left == 0 {
            self.blocks_live -= 1;
            true
        } else {
            false
        }
    }

    /// Queues `slot`'s (live, `queued`) warp for issue and folds its
    /// `ready_at` into the wake bound.
    #[inline(always)]
    fn enqueue(&mut self, slot: usize) {
        let warp = self.warps[slot].as_ref().expect("enqueueing a live warp");
        let ready_at = warp.ready_at;
        // LRR never reads ages: skip the load from the warp's cold line.
        let age = if self.ready.orders_by_age() {
            warp.age
        } else {
            0
        };
        self.next_ready = self.next_ready.min(ready_at);
        self.ready.push(slot, ready_at, age);
    }

    /// Earliest cycle at which any queued warp can issue, or `None` when
    /// none is queued (the SM is empty or every warp is blocked on
    /// memory). O(1): reads the incrementally maintained bound.
    pub(crate) fn next_ready_cycle(&self) -> Option<u64> {
        (self.next_ready != u64::MAX).then_some(self.next_ready)
    }

    /// Records `n` cycles in which this SM had live warps but could not
    /// issue — exactly the accounting [`step`](Sm::step) would have
    /// produced had it been called once per skipped cycle.
    pub(crate) fn count_idle(&mut self, n: u64) {
        if self.warps_live > 0 {
            self.idle_cycles += n;
        }
    }

    /// Runs this SM's issue pass for one cycle: gates on the earliest
    /// queued warp and issues, sending L1 misses and global writes
    /// straight to `mem` as they issue. The driver applies the cycle's
    /// fills (see [`apply_fill`](Sm::apply_fill)) before stepping any SM.
    ///
    /// The gate is inlined into the driver's SM loop, so an SM with no
    /// issuable warp costs no call.
    #[inline]
    pub(crate) fn step(&mut self, cycle: u64, now_ns: u64, mem: &mut MemSystem) -> StepOutcome {
        let mut blocks_retired = 0;
        match self.next_ready_cycle() {
            Some(ready) if ready <= cycle => {
                blocks_retired = self.issue_cycle(cycle, now_ns, mem);
            }
            _ => self.count_idle(1),
        }
        StepOutcome {
            blocks_retired,
            next_wake: self.next_ready,
        }
    }

    /// Applies an L1 fill response, waking warps; a dirty L1 victim is
    /// written back to `mem` at once. Returns the number of blocks that
    /// retired as a result.
    pub(crate) fn apply_fill(&mut self, byte_addr: u64, now_ns: u64, mem: &mut MemSystem) -> u32 {
        let (tokens, dirty_victim) = self.l1.fill(byte_addr);
        if let Some(victim_addr) = dirty_victim {
            mem.write_request(self.id, victim_addr, now_ns);
        }
        let mut blocks_retired = 0;
        for token in tokens {
            let slot = token as usize;
            let Some(warp) = self.warps[slot].as_mut() else {
                continue;
            };
            warp.pending_loads = warp.pending_loads.saturating_sub(1);
            if warp.queued {
                continue;
            }
            if warp.can_retire() {
                if self.retire_warp(slot) {
                    blocks_retired += 1;
                }
            } else if warp.pending_loads < self.max_pending && !warp.stream_done() {
                warp.queued = true;
                self.enqueue(slot);
            }
        }
        blocks_retired
    }

    /// Executes one instruction's memory reads, sending each newly
    /// allocated miss to `mem`. Returns `(misses_issued, true)` on
    /// success or `(partial, false)` on an MSHR-full abort.
    fn issue_reads(
        &mut self,
        slot: usize,
        addrs: &[u64],
        now_ns: u64,
        mem: &mut MemSystem,
    ) -> (u32, bool) {
        let mut misses = 0;
        for &addr in addrs {
            match self.l1.read(addr, slot as u64) {
                L1ReadOutcome::Hit => {}
                L1ReadOutcome::MissIssued => {
                    mem.read_request(self.id, addr, now_ns);
                    misses += 1;
                }
                L1ReadOutcome::MissMerged => {
                    misses += 1;
                }
                L1ReadOutcome::MshrFull => {
                    return (misses, false);
                }
            }
        }
        (misses, true)
    }

    /// Re-queues `slot`'s warp after an issued instruction: it may issue
    /// again `delay` cycles from now.
    #[inline(always)]
    fn requeue(&mut self, slot: usize, cycle: u64, delay: u64) {
        let warp = self.warps[slot].as_mut().expect("live");
        warp.ready_at = cycle + delay;
        self.enqueue(slot);
    }

    /// Issues one memory instruction for `slot`'s warp. Returns the
    /// number of blocks retired (1 when the warp's last load completed
    /// its block, else 0). Kept out of line so the ALU path of
    /// [`issue_cycle`](Sm::issue_cycle) never moves a [`WarpInstr`].
    #[inline(never)]
    fn issue_mem(
        &mut self,
        slot: usize,
        instr: WarpInstr,
        cycle: u64,
        now_ns: u64,
        mem: &mut MemSystem,
    ) -> u32 {
        let dep = self.dep_interval;
        match instr {
            WarpInstr::MemWrite(addrs) => {
                for &addr in &addrs {
                    self.l1.write(addr);
                    mem.write_request(self.id, addr, now_ns);
                }
                self.instructions += self.warp_size as u64;
                self.requeue(slot, cycle, dep);
            }
            WarpInstr::LocalWrite(addrs) => {
                // Write-back/write-allocate (paper Fig. 1-b): the write
                // stays in L1; only displaced dirty lines reach L2.
                for &addr in &addrs {
                    if let Some(victim) = self.l1.write_local(addr) {
                        mem.write_request(self.id, victim, now_ns);
                    }
                }
                self.instructions += self.warp_size as u64;
                self.requeue(slot, cycle, dep);
            }
            WarpInstr::MemRead(addrs) | WarpInstr::LocalRead(addrs) => {
                let (misses, ok) = self.issue_reads(slot, &addrs, now_ns, mem);
                let max_pending = self.max_pending;
                let warp = self.warps[slot].as_mut().expect("live");
                warp.pending_loads += misses;
                if !ok {
                    // MSHR full: replay the whole instruction later.
                    self.mshr_stalls += 1;
                    warp.replay = Some(Box::new(WarpInstr::MemRead(addrs)));
                    self.requeue(slot, cycle, MSHR_RETRY_CYCLES);
                    return 0;
                }
                self.instructions += self.warp_size as u64;
                if warp.pending_loads >= max_pending {
                    // Stalled: wakes via apply_fill.
                    warp.queued = false;
                } else if warp.stream_done() {
                    warp.queued = false;
                    if warp.can_retire() && self.retire_warp(slot) {
                        return 1;
                    }
                } else {
                    self.requeue(slot, cycle, dep);
                }
            }
        }
        0
    }

    /// Runs one cycle of issue. Returns the number of blocks retired.
    #[inline(never)]
    fn issue_cycle(&mut self, cycle: u64, now_ns: u64, mem: &mut MemSystem) -> u32 {
        let mut blocks_retired = 0;
        let mut issued = 0u32;
        let dep = self.dep_interval;

        while issued < self.issue_width {
            let slot = match self.ready.pop(cycle) {
                Ok(slot) => slot,
                Err(earliest) => {
                    // `next_ready` is a lower bound (pops only raise the
                    // true minimum; enqueues fold in via `min`). A
                    // stale-low bound merely costs one futile step whose
                    // idle accounting matches `count_idle`, so it is made
                    // exact only here, when the queue proved empty of
                    // issuable warps — which is precisely when the driver
                    // needs it to compute a skip.
                    self.next_ready = earliest;
                    break;
                }
            };
            let warp = self.warps[slot].as_mut().expect("queued warp is live");
            match warp.draw() {
                Draw::Done => {
                    // Stream exhausted: retire or wait for loads to drain.
                    warp.queued = false;
                    if warp.can_retire() && self.retire_warp(slot) {
                        blocks_retired += 1;
                    }
                }
                Draw::Alu => {
                    issued += 1;
                    self.instructions += self.warp_size as u64;
                    self.requeue(slot, cycle, dep);
                }
                Draw::Mem => {
                    issued += 1;
                    let instr = warp.take_mem();
                    blocks_retired += self.issue_mem(slot, instr, cycle, now_ns, mem);
                }
            }
        }

        if issued == 0 && !self.is_idle() {
            self.idle_cycles += 1;
        }
        blocks_retired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{GpuConfig, L2ModelConfig};
    use sttgpu_core::LlcModel;

    fn setup(kernel: KernelParams) -> (Sm, MemSystem, Arc<KernelParams>) {
        let mut cfg = GpuConfig::gtx480();
        cfg.l2 = L2ModelConfig::Sram {
            kb: 64,
            ways: 8,
            banks: 2,
        };
        (Sm::new(&cfg, 0), MemSystem::new(&cfg), Arc::new(kernel))
    }

    /// Runs the SM until idle, delivering memory responses the way the
    /// `Gpu` driver does: fills first, in tick order, then the issue pass.
    fn run_to_completion(sm: &mut Sm, mem: &mut MemSystem, max_cycles: u64) -> u32 {
        let mut retired = 0;
        let mut fills = Vec::new();
        for cycle in 0..max_cycles {
            let now_ns = cycle * 5 / 7;
            mem.tick(now_ns, &mut fills);
            for fill in &fills {
                retired += sm.apply_fill(fill.byte_addr, now_ns, mem);
            }
            retired += sm.step(cycle, now_ns, mem).blocks_retired;
            if sm.is_idle() && mem.is_idle() {
                return retired;
            }
        }
        panic!("SM did not drain in {max_cycles} cycles");
    }

    #[test]
    fn launch_and_drain_alu_only_block() {
        let k = KernelParams::new("k", 1, 64)
            .with_instructions(100)
            .with_mem_fraction(0.0);
        let (mut sm, mut mem, k) = setup(k);
        assert!(sm.launch_block(&k, 0, 1, 0));
        assert_eq!(sm.warps_live, 2);
        let retired = run_to_completion(&mut sm, &mut mem, 10_000);
        assert_eq!(retired, 1);
        assert!(sm.is_idle());
        // 2 warps * 100 instr * 32 threads.
        assert_eq!(sm.instructions, 6_400);
    }

    #[test]
    fn memory_kernel_completes_with_l2_traffic() {
        let k = KernelParams::new("k", 1, 64)
            .with_instructions(300)
            .with_mem_fraction(0.5)
            .with_write_fraction(0.2)
            .with_footprint_kb(128);
        let (mut sm, mut mem, k) = setup(k);
        sm.launch_block(&k, 0, 2, 0);
        run_to_completion(&mut sm, &mut mem, 2_000_000);
        assert!(mem.llc().summary().accesses() > 0, "L2 must see traffic");
        assert!(mem.dram_reads > 0, "cold misses must reach DRAM");
    }

    #[test]
    fn capacity_respected() {
        let k = KernelParams::new("k", 4, 32 * 48); // 48 warps per block
        let (mut sm, _mem, k) = setup(k);
        assert!(sm.launch_block(&k, 0, 1, 0));
        assert_eq!(sm.free_warp_slots(), 0);
        assert!(!sm.launch_block(&k, 1, 1, 0), "no contexts left");
    }

    #[test]
    fn multiple_blocks_share_the_sm() {
        let k = KernelParams::new("k", 2, 64)
            .with_instructions(50)
            .with_mem_fraction(0.0);
        let (mut sm, mut mem, k) = setup(k);
        assert!(sm.launch_block(&k, 0, 1, 0));
        assert!(sm.launch_block(&k, 1, 1, 0));
        assert_eq!(sm.live_blocks(), 2);
        let retired = run_to_completion(&mut sm, &mut mem, 100_000);
        assert_eq!(retired, 2);
    }

    #[test]
    fn block_slot_reuse_after_retirement() {
        let k = KernelParams::new("k", 3, 64)
            .with_instructions(10)
            .with_mem_fraction(0.0);
        let (mut sm, mut mem, k) = setup(k);
        sm.launch_block(&k, 0, 1, 0);
        run_to_completion(&mut sm, &mut mem, 10_000);
        assert!(sm.launch_block(&k, 1, 1, 0), "slots must be reusable");
        assert_eq!(sm.live_blocks(), 1);
    }

    #[test]
    fn idle_cycles_counted_when_warps_stall() {
        // One warp, pure loads over a big footprint: it will stall on
        // DRAM and the SM will idle.
        let k = KernelParams::new("k", 1, 32)
            .with_instructions(50)
            .with_mem_fraction(1.0)
            .with_write_fraction(0.0)
            .with_read_locality(0.0)
            .with_footprint_kb(4 * 1024);
        let (mut sm, mut mem, k) = setup(k);
        sm.launch_block(&k, 0, 3, 0);
        run_to_completion(&mut sm, &mut mem, 2_000_000);
        assert!(sm.idle_cycles > 0, "a single warp cannot hide DRAM latency");
    }
}
