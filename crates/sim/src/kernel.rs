//! Kernel (grid) parameterisation and dispatch.
//!
//! A GPGPU application is "one or more kernels", each launching a grid of
//! thread blocks that the hardware distributes over SMs; grids run
//! sequentially with a global barrier between them (the paper leans on
//! this: "grids have a small amount of writes happening usually at the end
//! of their execution"). [`KernelParams`] captures the statistics of one
//! kernel that the memory system responds to; [`Workload`] strings kernels
//! together; [`GridDispatcher`] hands blocks to SMs.

use std::sync::Arc;

/// When during a kernel's execution its writes happen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WritePhase {
    /// Writes spread uniformly over the kernel (default).
    #[default]
    Uniform,
    /// Writes concentrate in the tail of each warp's execution — the
    /// producer pattern of grid-sequential GPGPU applications the paper
    /// describes in §4.
    EndOfKernel,
}

/// Statistical description of one kernel (grid).
///
/// # Example
///
/// ```
/// use sttgpu_sim::KernelParams;
///
/// let k = KernelParams::new("stencil_step", 120, 256)
///     .with_instructions(2_000)
///     .with_mem_fraction(0.3)
///     .with_write_fraction(0.25)
///     .with_footprint_kb(2_048)
///     .with_regs_per_thread(24);
/// assert_eq!(k.footprint_bytes, 2_048 * 1024);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct KernelParams {
    /// Kernel name (for reports).
    pub name: String,
    /// Thread blocks in the grid.
    pub blocks: u32,
    /// Threads per block (multiple of 32).
    pub threads_per_block: u32,
    /// Registers per thread (occupancy pressure).
    pub(crate) regs_per_thread: u32,
    /// Shared memory per block, bytes (occupancy pressure).
    pub(crate) shared_bytes_per_block: u32,
    /// Dynamic instructions per warp.
    pub instructions_per_warp: u32,
    /// Fraction of instructions that are global memory operations.
    pub(crate) mem_fraction: f64,
    /// Fraction of memory operations that are writes (paper suite spans
    /// ~0 % to 63 %).
    pub write_fraction: f64,
    /// Global-data footprint, bytes (L2 sensitivity knob).
    pub footprint_bytes: u64,
    /// Base address of the footprint (lets grids share data).
    pub(crate) addr_base: u64,
    /// Fraction of the footprint that forms the write working set.
    pub(crate) wws_fraction: f64,
    /// Probability a write targets the WWS region (write concentration —
    /// the inter/intra-set COV knob of Fig. 3).
    pub(crate) write_skew: f64,
    /// Probability a read streams through the warp's own segment
    /// (coalesced locality) rather than hitting a random footprint line.
    pub(crate) read_locality: f64,
    /// Average L1 lines touched per warp memory instruction (1 =
    /// perfectly coalesced, up to 32 = fully divergent).
    pub coalescing: f64,
    /// Temporal placement of writes.
    pub(crate) write_phase: WritePhase,
    /// Fraction of memory operations that touch **local** (per-thread)
    /// data — register spills and private arrays. Local data follows the
    /// L1 write-back/write-allocate policy of the paper's Fig. 1-b
    /// instead of the global write-evict path.
    pub(crate) local_fraction: f64,
}

impl KernelParams {
    /// Creates a kernel with sensible defaults for everything but the
    /// grid shape.
    ///
    /// # Panics
    ///
    /// Panics if `threads_per_block` is zero or not a multiple of 32, or
    /// if `blocks` is zero.
    pub fn new(name: &str, blocks: u32, threads_per_block: u32) -> Self {
        assert!(blocks > 0, "a grid needs blocks");
        assert!(
            threads_per_block > 0 && threads_per_block.is_multiple_of(32),
            "threads per block must be a positive multiple of the warp size"
        );
        KernelParams {
            name: name.to_owned(),
            blocks,
            threads_per_block,
            regs_per_thread: 20,
            shared_bytes_per_block: 0,
            instructions_per_warp: 1_000,
            mem_fraction: 0.25,
            write_fraction: 0.15,
            footprint_bytes: 1024 * 1024,
            addr_base: 0,
            wws_fraction: 0.1,
            write_skew: 0.7,
            read_locality: 0.6,
            coalescing: 1.5,
            write_phase: WritePhase::Uniform,
            local_fraction: 0.0,
        }
    }

    /// Warps per thread block.
    pub(crate) fn warps_per_block(&self) -> u32 {
        self.threads_per_block / 32
    }

    /// Total warps in the grid.
    pub(crate) fn total_warps(&self) -> u64 {
        self.blocks as u64 * self.warps_per_block() as u64
    }

    /// Sets the dynamic instruction count per warp.
    pub fn with_instructions(mut self, n: u32) -> Self {
        self.instructions_per_warp = n;
        self
    }

    /// Sets the memory-instruction fraction.
    pub fn with_mem_fraction(mut self, f: f64) -> Self {
        assert!((0.0..=1.0).contains(&f));
        self.mem_fraction = f;
        self
    }

    /// Sets the write fraction of memory operations.
    pub fn with_write_fraction(mut self, f: f64) -> Self {
        assert!((0.0..=1.0).contains(&f));
        self.write_fraction = f;
        self
    }

    /// Sets the global footprint in KB.
    pub fn with_footprint_kb(mut self, kb: u64) -> Self {
        assert!(kb > 0);
        self.footprint_bytes = kb * 1024;
        self
    }

    /// Sets register pressure per thread.
    pub fn with_regs_per_thread(mut self, regs: u32) -> Self {
        assert!(regs > 0);
        self.regs_per_thread = regs;
        self
    }

    /// Sets the WWS size (fraction of footprint) and write concentration.
    pub fn with_wws(mut self, fraction: f64, skew: f64) -> Self {
        assert!((0.0..=1.0).contains(&fraction) && (0.0..=1.0).contains(&skew));
        self.wws_fraction = fraction;
        self.write_skew = skew;
        self
    }

    /// Sets read locality (0 = all random, 1 = all streaming).
    pub fn with_read_locality(mut self, locality: f64) -> Self {
        assert!((0.0..=1.0).contains(&locality));
        self.read_locality = locality;
        self
    }

    /// Sets the coalescing factor (average L1 lines per memory op).
    pub fn with_coalescing(mut self, lines: f64) -> Self {
        assert!((1.0..=32.0).contains(&lines));
        self.coalescing = lines;
        self
    }

    /// Sets the temporal write phase.
    pub fn with_write_phase(mut self, phase: WritePhase) -> Self {
        self.write_phase = phase;
        self
    }

    /// Sets the local (per-thread, write-back) fraction of memory ops.
    pub fn with_local_fraction(mut self, f: f64) -> Self {
        assert!((0.0..=1.0).contains(&f));
        self.local_fraction = f;
        self
    }
}

/// A named sequence of kernels plus the RNG seed that makes runs
/// reproducible.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Workload name (benchmark name in reports).
    pub name: String,
    /// Kernels, executed in order with a global barrier between them.
    /// Shared (`Arc`) so dispatchers and per-warp program generators hold
    /// references instead of deep-cloning the parameter block per run.
    pub kernels: Vec<Arc<KernelParams>>,
    /// Base RNG seed.
    pub seed: u64,
}

impl Workload {
    /// Creates a workload.
    ///
    /// # Panics
    ///
    /// Panics if `kernels` is empty.
    pub fn new(name: &str, kernels: Vec<KernelParams>, seed: u64) -> Self {
        assert!(!kernels.is_empty(), "a workload needs at least one kernel");
        Workload {
            name: name.to_owned(),
            kernels: kernels.into_iter().map(Arc::new).collect(),
            seed,
        }
    }

    /// Total dynamic thread-instructions of the workload (for run-length
    /// planning).
    pub fn total_thread_instructions(&self) -> u64 {
        self.kernels
            .iter()
            .map(|k| k.total_warps() * k.instructions_per_warp as u64 * 32)
            .sum()
    }
}

/// Hands out a kernel's thread blocks to SMs in launch order.
#[derive(Debug, Clone)]
pub(crate) struct GridDispatcher {
    kernel: Arc<KernelParams>,
    next_block: u32,
    retired_blocks: u32,
    trace: sttgpu_trace::Trace,
}

impl GridDispatcher {
    /// Starts dispatching `kernel`'s grid.
    pub(crate) fn new(kernel: Arc<KernelParams>) -> Self {
        GridDispatcher {
            kernel,
            next_block: 0,
            retired_blocks: 0,
            trace: sttgpu_trace::Trace::off(),
        }
    }

    /// Attaches a trace sink observing the grid's retirement invariant.
    pub(crate) fn set_trace(&mut self, trace: sttgpu_trace::Trace) {
        self.trace = trace;
    }

    /// Takes the next block id, or `None` when the grid is exhausted.
    pub(crate) fn next_block(&mut self) -> Option<u32> {
        if self.next_block < self.kernel.blocks {
            let b = self.next_block;
            self.next_block += 1;
            Some(b)
        } else {
            None
        }
    }

    /// Records a finished block.
    pub(crate) fn retire_block(&mut self) {
        self.retired_blocks += 1;
        if self.retired_blocks > self.kernel.blocks {
            // More retirements than the grid has blocks: double-counted
            // completion somewhere upstream. The checker reports it.
            self.trace.emit(|| sttgpu_trace::TraceEvent::OverRetire {
                retired: self.retired_blocks,
                blocks: self.kernel.blocks,
            });
            debug_assert!(self.retired_blocks <= self.kernel.blocks);
        }
    }

    /// Whether every block of the grid has retired.
    pub(crate) fn is_done(&self) -> bool {
        self.retired_blocks == self.kernel.blocks
    }

    /// Blocks not yet handed out.
    pub(crate) fn remaining(&self) -> u32 {
        self.kernel.blocks - self.next_block
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warp_arithmetic() {
        let k = KernelParams::new("k", 10, 256);
        assert_eq!(k.warps_per_block(), 8);
        assert_eq!(k.total_warps(), 80);
    }

    #[test]
    #[should_panic(expected = "multiple of the warp size")]
    fn rejects_ragged_blocks() {
        KernelParams::new("k", 1, 100);
    }

    #[test]
    fn builder_setters() {
        let k = KernelParams::new("k", 1, 32)
            .with_instructions(5)
            .with_mem_fraction(0.5)
            .with_write_fraction(0.63)
            .with_footprint_kb(512)
            .with_regs_per_thread(63)
            .with_wws(0.05, 0.9)
            .with_read_locality(0.8)
            .with_coalescing(2.0)
            .with_write_phase(WritePhase::EndOfKernel);
        assert_eq!(k.instructions_per_warp, 5);
        assert_eq!(k.footprint_bytes, 512 * 1024);
        assert_eq!(k.write_phase, WritePhase::EndOfKernel);
    }

    #[test]
    fn workload_instruction_budget() {
        let k = KernelParams::new("k", 2, 64).with_instructions(100);
        let w = Workload::new("w", vec![k], 7);
        // 2 blocks * 2 warps * 100 instr * 32 threads.
        assert_eq!(w.total_thread_instructions(), 12_800);
    }

    #[test]
    fn dispatcher_hands_out_each_block_once() {
        let k = Arc::new(KernelParams::new("k", 3, 32));
        let mut d = GridDispatcher::new(k);
        assert_eq!(d.next_block(), Some(0));
        assert_eq!(d.next_block(), Some(1));
        assert_eq!(d.remaining(), 1);
        assert_eq!(d.next_block(), Some(2));
        assert_eq!(d.next_block(), None);
        assert!(!d.is_done());
        d.retire_block();
        d.retire_block();
        d.retire_block();
        assert!(d.is_done());
    }
}
