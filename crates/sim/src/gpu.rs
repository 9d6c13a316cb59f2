//! The top-level GPU: SMs + memory system + kernel dispatch.

use std::sync::Arc;

use sttgpu_core::LlcModel;
use sttgpu_trace::Trace;

use crate::config::GpuConfig;
use crate::kernel::{GridDispatcher, KernelParams, Workload};
use crate::mem::{FillDelivery, MemSystem};
use crate::metrics::{KernelSpan, RunMetrics};
use crate::occupancy::Occupancy;
use crate::sm::Sm;

/// Default seed used by [`Gpu::run`]; use [`Gpu::run_workload`] for
/// workload-specific seeds.
const DEFAULT_SEED: u64 = 0x5EED;

/// A whole simulated GPU.
///
/// # Example
///
/// ```
/// use sttgpu_sim::{Gpu, GpuConfig, KernelParams, L2ModelConfig};
///
/// let mut cfg = GpuConfig::gtx480();
/// cfg.num_sms = 2;
/// cfg.l2 = L2ModelConfig::Sram { kb: 64, ways: 8, banks: 4 };
/// let mut gpu = Gpu::new(cfg);
/// let k = KernelParams::new("k", 4, 64).with_instructions(100);
/// let m = gpu.run(&[k], 1_000_000);
/// assert!(m.finished);
/// ```
#[derive(Debug)]
pub struct Gpu {
    cfg: GpuConfig,
    sms: Vec<Sm>,
    mem: MemSystem,
    trace: Trace,
    cycle: u64,
    /// Advance one cycle at a time instead of jumping over provably idle
    /// spans: the reference semantics the `skip_equivalence` tests run
    /// the skipping driver against. Observable behaviour (metrics,
    /// traces, artefacts) must not depend on it.
    single_step: bool,
}

impl Gpu {
    /// Builds a GPU from its configuration.
    pub fn new(cfg: GpuConfig) -> Self {
        let sms = (0..cfg.num_sms).map(|i| Sm::new(&cfg, i as u32)).collect();
        let mem = MemSystem::new(&cfg);
        Gpu {
            sms,
            mem,
            trace: Trace::off(),
            cfg,
            cycle: 0,
            single_step: false,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Attaches one trace sink observing the whole machine: the L2 and
    /// its miss tracker, every SM's launch invariants and L1 MSHRs, and
    /// the grid dispatchers of subsequent runs. Events arrive in the
    /// order the simulation produces them.
    pub fn set_trace(&mut self, trace: Trace) {
        self.mem.set_trace(trace.clone());
        for sm in &mut self.sms {
            sm.set_trace(trace.clone());
        }
        self.trace = trace;
    }

    /// The L2 under test (for deep inspection: two-part stats, write-count
    /// matrices, rewrite-interval histograms).
    pub fn llc(&self) -> &sttgpu_core::AnyLlc {
        self.mem.llc()
    }

    /// Starts recording the verbatim LLC call stream — every probe,
    /// fill and maintain the memory system issues, in exact order.
    pub fn start_llc_call_log(&mut self) {
        self.mem.start_call_log();
    }

    /// Stops recording and returns the LLC call log, or `None` when
    /// recording was never started.
    pub fn take_llc_call_log(&mut self) -> Option<Vec<sttgpu_tracefile::TraceRecord>> {
        self.mem.take_call_log()
    }

    /// Current cycle count.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Runs a full workload (its seed makes traces reproducible).
    pub fn run_workload(&mut self, workload: &Workload, max_cycles: u64) -> RunMetrics {
        let mut m = self.run_seeded(&workload.kernels, workload.seed, max_cycles);
        m.workload = workload.name.clone();
        m
    }

    /// Runs a kernel sequence with the default seed. Convenience wrapper
    /// for by-value kernels; sweep code should build `Arc<KernelParams>`
    /// once and use [`run_seeded`](Self::run_seeded) directly.
    pub fn run(&mut self, kernels: &[KernelParams], max_cycles: u64) -> RunMetrics {
        let kernels: Vec<Arc<KernelParams>> = kernels.iter().cloned().map(Arc::new).collect();
        self.run_seeded(&kernels, DEFAULT_SEED, max_cycles)
    }

    /// Runs a kernel sequence with an explicit seed. Kernels execute in
    /// order with a global barrier (and L1 invalidation) between them.
    ///
    /// The driver is event-driven: after processing a cycle it computes
    /// the earliest cycle at which anything can change — a queued warp's
    /// `ready_at`, the memory system's next event or maintenance
    /// deadline, or a freshly freed block-launch slot — and jumps
    /// straight there, crediting the skipped span to each busy SM's
    /// `idle_cycles`. Because ticks that do work still happen at exactly
    /// the cycles the per-cycle driver would have visited, with the same
    /// machine state, every emitted time stamp and artefact byte is
    /// identical to single-stepping (see the `skip_equivalence` tests).
    pub fn run_seeded(
        &mut self,
        kernels: &[Arc<KernelParams>],
        seed: u64,
        max_cycles: u64,
    ) -> RunMetrics {
        let deadline = self.cycle + max_cycles;
        let mut finished = true;
        let mut kernels_skipped = 0;
        let mut kernel_spans = Vec::with_capacity(kernels.len());
        // Reused across every cycle of the run so the hot loop does not
        // allocate a fresh delivery vector per tick.
        let mut fills: Vec<FillDelivery> = Vec::new();

        'kernels: for (k_idx, kernel) in kernels.iter().enumerate() {
            let kernel_start_cycle = self.cycle;
            let kernel_start_instr: u64 = self.sms.iter().map(|s| s.instructions).sum();
            let occ = Occupancy::compute(&self.cfg, kernel);
            if occ.blocks_per_sm == 0 {
                kernels_skipped += 1;
                continue;
            }
            let kernel_seed = seed.wrapping_add(1 + k_idx as u64 * 0x10_0001);
            let mut dispatcher = GridDispatcher::new(Arc::clone(kernel));
            dispatcher.set_trace(self.trace.clone());
            let warps_per_block = kernel.warps_per_block() as usize;

            loop {
                if self.cycle >= deadline {
                    finished = false;
                    break 'kernels;
                }
                // Keep SMs fed up to the kernel's occupancy limit,
                // distributing blocks round-robin (one per SM per pass) as
                // real block schedulers do — otherwise small grids would
                // pile onto the first SMs.
                if dispatcher.remaining() > 0 {
                    'feed: loop {
                        let mut launched_any = false;
                        for sm in &mut self.sms {
                            if sm.live_blocks() < occ.blocks_per_sm
                                && sm.free_warp_slots() >= warps_per_block
                            {
                                match dispatcher.next_block() {
                                    Some(block_id) => {
                                        let launched = sm.launch_block(
                                            kernel,
                                            block_id,
                                            kernel_seed,
                                            self.cycle,
                                        );
                                        debug_assert!(launched, "capacity was checked");
                                        launched_any = true;
                                    }
                                    None => break 'feed,
                                }
                            }
                        }
                        if !launched_any {
                            break;
                        }
                    }
                }

                let now_ns = self.cfg.ns_of_cycle(self.cycle);
                self.mem.tick(now_ns, &mut fills);
                // Fills land in tick order, each dirty L1 victim written
                // back at once; then every SM, in id order, gates on its
                // earliest queued warp and issues, its misses and writes
                // reaching the memory system as they issue. `sm_wake` is
                // the minimum wake cycle the skip logic needs below.
                let mut retired = 0;
                for fill in &fills {
                    retired += self.sms[fill.sm as usize].apply_fill(
                        fill.byte_addr,
                        now_ns,
                        &mut self.mem,
                    );
                }
                let mut sm_wake = u64::MAX;
                for sm in &mut self.sms {
                    let out = sm.step(self.cycle, now_ns, &mut self.mem);
                    retired += out.blocks_retired;
                    sm_wake = sm_wake.min(out.next_wake);
                }
                for _ in 0..retired {
                    dispatcher.retire_block();
                }
                self.cycle += 1;

                if dispatcher.is_done() && self.sms.iter().all(Sm::is_idle) && self.mem.is_idle() {
                    break;
                }
                if self.single_step {
                    continue;
                }

                // ---- cycle skipping ----
                // A retirement this cycle may have freed launch capacity;
                // the next cycle's feed pass must then run (launch order
                // and warp `ready_at` stamps depend on it).
                if dispatcher.remaining() > 0
                    && self.sms.iter().any(|sm| {
                        sm.live_blocks() < occ.blocks_per_sm
                            && sm.free_warp_slots() >= warps_per_block
                    })
                {
                    continue;
                }
                // Otherwise nothing can happen before the earliest of:
                // a queued warp's ready cycle (`sm_wake`, collected during
                // the issue pass above), or the memory system's next
                // event/maintenance deadline. With no wake source at all
                // (deadlock until the budget runs out), jump straight to
                // the deadline — the per-cycle driver would have spun
                // idly to the same end state.
                let mut wake = sm_wake;
                if let Some(t) = self.mem.next_wake_ns() {
                    wake = wake.min(self.cfg.cycle_of_ns_ceil(t));
                }
                let target = wake.clamp(self.cycle, deadline);
                if target > self.cycle {
                    let skipped = target - self.cycle;
                    for sm in &mut self.sms {
                        sm.count_idle(skipped);
                    }
                    self.cycle = target;
                }
            }

            // Kernel barrier: L1s are invalidated between grids.
            for sm in &mut self.sms {
                sm.flush_l1();
            }
            let end_instr: u64 = self.sms.iter().map(|s| s.instructions).sum();
            kernel_spans.push(KernelSpan {
                name: kernel.name.clone(),
                cycles: self.cycle - kernel_start_cycle,
                instructions: end_instr - kernel_start_instr,
            });
        }

        let mut metrics = self.collect_metrics(finished, kernels_skipped);
        metrics.kernel_spans = kernel_spans;
        metrics
    }

    fn collect_metrics(&self, finished: bool, kernels_skipped: u32) -> RunMetrics {
        let mut instructions = 0;
        let mut l1_read_hits = 0;
        let mut l1_read_misses = 0;
        let mut mshr_stalls = 0;
        let mut sm_idle_cycles = 0;
        for sm in &self.sms {
            instructions += sm.instructions;
            let (hits, misses) = sm.l1().counters();
            l1_read_hits += hits;
            l1_read_misses += misses;
            mshr_stalls += sm.mshr_stalls;
            sm_idle_cycles += sm.idle_cycles;
        }
        RunMetrics {
            workload: String::new(),
            cycles: self.cycle,
            elapsed_ns: self.cfg.ns_of_cycle(self.cycle),
            instructions,
            finished,
            kernels_skipped,
            l2: self.mem.llc().summary(),
            l2_energy: self.mem.llc().energy().clone(),
            l1_read_hits,
            l1_read_misses,
            dram_reads: self.mem.dram_reads,
            dram_writes: self.mem.dram_writes,
            dram_row_hits: self.mem.dram_row_hits,
            mshr_stalls,
            sm_idle_cycles,
            l2_read_hit_latency_ns: if self.mem.read_hit_count == 0 {
                0.0
            } else {
                self.mem.read_hit_latency_sum_ns as f64 / self.mem.read_hit_count as f64
            },
            kernel_spans: Vec::new(),
        }
    }
}

#[cfg(test)]
mod skip_equivalence;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::L2ModelConfig;
    use crate::kernel::Workload;

    fn small_cfg() -> GpuConfig {
        let mut cfg = GpuConfig::gtx480();
        cfg.num_sms = 4;
        cfg.l2 = L2ModelConfig::Sram {
            kb: 64,
            ways: 8,
            banks: 4,
        };
        cfg
    }

    fn toy_kernel() -> KernelParams {
        KernelParams::new("toy", 16, 64)
            .with_instructions(300)
            .with_mem_fraction(0.3)
            .with_write_fraction(0.2)
            .with_footprint_kb(256)
    }

    #[test]
    fn runs_to_completion() {
        let mut gpu = Gpu::new(small_cfg());
        let m = gpu.run(&[toy_kernel()], 2_000_000);
        assert!(m.finished);
        assert_eq!(m.kernels_skipped, 0);
        // 16 blocks * 2 warps * 300 instr * 32 threads.
        assert_eq!(m.instructions, 16 * 2 * 300 * 32);
        assert!(m.ipc() > 0.0);
        assert!(m.l2.accesses() > 0);
        assert!(m.dram_reads > 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let w = Workload::new("w", vec![toy_kernel()], 99);
        let mut gpu_a = Gpu::new(small_cfg());
        let mut gpu_b = Gpu::new(small_cfg());
        let a = gpu_a.run_workload(&w, 2_000_000);
        let b = gpu_b.run_workload(&w, 2_000_000);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.instructions, b.instructions);
        assert_eq!(a.l2.accesses(), b.l2.accesses());
        assert_eq!(a.dram_reads, b.dram_reads);
    }

    #[test]
    fn cycle_budget_respected() {
        let mut gpu = Gpu::new(small_cfg());
        let m = gpu.run(&[toy_kernel()], 500);
        assert!(!m.finished, "500 cycles cannot complete the kernel");
        assert!(m.cycles <= 501);
    }

    #[test]
    fn unlaunchable_kernel_is_skipped() {
        let mut gpu = Gpu::new(small_cfg());
        let huge = KernelParams::new("huge", 4, 1024).with_regs_per_thread(64);
        let m = gpu.run(&[huge, toy_kernel()], 2_000_000);
        assert_eq!(m.kernels_skipped, 1);
        assert!(m.finished, "the runnable kernel still completes");
        assert!(m.instructions > 0);
    }

    #[test]
    fn multi_kernel_sequence_runs_in_order() {
        let k1 = toy_kernel();
        let k2 = KernelParams::new("k2", 8, 64)
            .with_instructions(100)
            .with_mem_fraction(0.1);
        let mut gpu = Gpu::new(small_cfg());
        let m = gpu.run(&[k1, k2], 4_000_000);
        assert!(m.finished);
        let expected = 16 * 2 * 300 * 32 + 8 * 2 * 100 * 32;
        assert_eq!(m.instructions, expected);
        // Per-kernel spans partition the run.
        assert_eq!(m.kernel_spans.len(), 2);
        assert_eq!(m.kernel_spans[0].name, "toy");
        assert_eq!(m.kernel_spans[1].name, "k2");
        assert_eq!(
            m.kernel_spans.iter().map(|s| s.instructions).sum::<u64>(),
            m.instructions
        );
        assert_eq!(
            m.kernel_spans.iter().map(|s| s.cycles).sum::<u64>(),
            m.cycles
        );
    }

    #[test]
    fn gto_scheduler_completes_same_work() {
        use crate::config::WarpScheduler;
        let w = Workload::new("w", vec![toy_kernel()], 5);
        let mut lrr_cfg = small_cfg();
        lrr_cfg.scheduler = WarpScheduler::LooseRoundRobin;
        let mut gto_cfg = small_cfg();
        gto_cfg.scheduler = WarpScheduler::GreedyThenOldest;
        let mut lrr = Gpu::new(lrr_cfg);
        let mut gto = Gpu::new(gto_cfg);
        let a = lrr.run_workload(&w, 4_000_000);
        let b = gto.run_workload(&w, 4_000_000);
        assert!(a.finished && b.finished);
        assert_eq!(a.instructions, b.instructions, "same trace, same work");
        assert!(b.ipc() > 0.0);
    }

    #[test]
    fn two_part_l2_runs_under_the_gpu() {
        use sttgpu_core::TwoPartConfig;
        let mut cfg = small_cfg();
        cfg.l2 = L2ModelConfig::TwoPart(TwoPartConfig::new(8, 2, 56, 7, 256));
        let mut gpu = Gpu::new(cfg);
        let k = toy_kernel();
        let m = gpu.run(&[k], 4_000_000);
        assert!(m.finished);
        let tp = gpu.llc().as_two_part().expect("two-part L2");
        assert!(tp.stats().demand_writes() > 0, "writes must reach the L2");
        assert_eq!(tp.stats().lr_expirations, 0, "no LR data loss");
    }

    #[test]
    fn more_sms_do_not_change_per_workload_instruction_count() {
        let w = Workload::new("w", vec![toy_kernel()], 3);
        let mut small = Gpu::new(small_cfg());
        let mut big_cfg = small_cfg();
        big_cfg.num_sms = 8;
        let mut big = Gpu::new(big_cfg);
        let a = small.run_workload(&w, 4_000_000);
        let b = big.run_workload(&w, 4_000_000);
        assert_eq!(a.instructions, b.instructions);
        // More SMs parallelise the grid; allow a small slack because the
        // doubled request rate costs some DRAM row locality.
        assert!(
            b.cycles <= a.cycles * 21 / 20,
            "more SMs cannot be materially slower ({} vs {})",
            b.cycles,
            a.cycles
        );
    }
}
