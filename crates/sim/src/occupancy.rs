//! SM occupancy: how many thread blocks fit on one SM.
//!
//! This is where configurations C2/C3 earn their speedups: the area saved
//! by a denser STT-RAM L2 buys a larger register file, which raises the
//! block cap for register-limited kernels — more resident warps, better
//! latency hiding. The limits mirror the CUDA occupancy calculator:
//! registers, shared memory, warp slots and a hard block cap.

use crate::config::GpuConfig;
use crate::kernel::KernelParams;

/// Which resource capped a kernel's occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OccupancyLimit {
    /// Register file exhausted first (C2/C3's target population).
    Registers,
    /// Shared memory exhausted first.
    SharedMemory,
    /// Warp slots exhausted first.
    WarpSlots,
    /// The architectural blocks-per-SM cap hit first.
    BlockCap,
}

/// Resident blocks/warps per SM for one kernel on one GPU configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Occupancy {
    /// Resident thread blocks per SM.
    pub(crate) blocks_per_sm: u32,
    /// Resident warps per SM.
    pub(crate) warps_per_sm: u32,
    /// The binding resource.
    pub limit: OccupancyLimit,
}

impl Occupancy {
    /// Computes the occupancy of `kernel` on `gpu`.
    ///
    /// Returns `blocks_per_sm == 0` when even a single block does not fit
    /// (the kernel cannot launch).
    pub fn compute(gpu: &GpuConfig, kernel: &KernelParams) -> Occupancy {
        let regs_per_block = kernel.regs_per_thread * kernel.threads_per_block;
        let by_regs = gpu
            .registers_per_sm
            .checked_div(regs_per_block)
            .unwrap_or(u32::MAX);
        let by_shared = gpu
            .shared_mem_per_sm
            .checked_div(kernel.shared_bytes_per_block)
            .unwrap_or(u32::MAX);
        let by_warps = gpu.max_warps_per_sm / kernel.warps_per_block();
        let by_cap = gpu.max_blocks_per_sm;

        let blocks = by_regs.min(by_shared).min(by_warps).min(by_cap);
        // Report the binding constraint (ties resolved in this order, the
        // most interesting constraint for the paper first).
        let limit = if blocks == by_regs {
            OccupancyLimit::Registers
        } else if blocks == by_shared {
            OccupancyLimit::SharedMemory
        } else if blocks == by_warps {
            OccupancyLimit::WarpSlots
        } else {
            OccupancyLimit::BlockCap
        };
        Occupancy {
            blocks_per_sm: blocks,
            warps_per_sm: blocks * kernel.warps_per_block(),
            limit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpu() -> GpuConfig {
        GpuConfig::gtx480()
    }

    #[test]
    fn register_limited_kernel() {
        // 63 regs * 256 threads = 16128 regs/block -> 2 blocks on 32 K.
        let k = KernelParams::new("k", 100, 256).with_regs_per_thread(63);
        let occ = Occupancy::compute(&gpu(), &k);
        assert_eq!(occ.blocks_per_sm, 2);
        assert_eq!(occ.warps_per_sm, 16);
        assert_eq!(occ.limit, OccupancyLimit::Registers);
    }

    #[test]
    fn bigger_register_file_raises_occupancy() {
        let k = KernelParams::new("k", 100, 256).with_regs_per_thread(63);
        let mut big = gpu();
        big.registers_per_sm = 48 * 1024;
        let base = Occupancy::compute(&gpu(), &k);
        let boosted = Occupancy::compute(&big, &k);
        assert!(boosted.blocks_per_sm > base.blocks_per_sm);
    }

    #[test]
    fn shared_memory_limited_kernel() {
        let mut k = KernelParams::new("k", 10, 64).with_regs_per_thread(10);
        k.shared_bytes_per_block = 16 * 1024;
        let occ = Occupancy::compute(&gpu(), &k);
        assert_eq!(occ.blocks_per_sm, 3);
        assert_eq!(occ.limit, OccupancyLimit::SharedMemory);
    }

    #[test]
    fn warp_slot_limited_kernel() {
        // 512 threads = 16 warps/block; 48 warp slots -> 3 blocks.
        let k = KernelParams::new("k", 10, 512).with_regs_per_thread(4);
        let occ = Occupancy::compute(&gpu(), &k);
        assert_eq!(occ.blocks_per_sm, 3);
        assert_eq!(occ.warps_per_sm, 48);
        assert_eq!(occ.limit, OccupancyLimit::WarpSlots);
    }

    #[test]
    fn block_cap_limited_kernel() {
        // Tiny blocks: cap of 8 blocks binds before anything else.
        let k = KernelParams::new("k", 10, 32).with_regs_per_thread(4);
        let occ = Occupancy::compute(&gpu(), &k);
        assert_eq!(occ.blocks_per_sm, 8);
        assert_eq!(occ.limit, OccupancyLimit::BlockCap);
    }

    #[test]
    fn oversized_kernel_cannot_launch() {
        let k = KernelParams::new("k", 1, 1024).with_regs_per_thread(64);
        let occ = Occupancy::compute(&gpu(), &k);
        assert_eq!(occ.blocks_per_sm, 0);
    }
}
