//! GPU configuration (the paper's Table 2 "baseline GPU model").

use sttgpu_core::{AnyLlc, SingleLlc, TwoPartConfig, TwoPartLlc};
use sttgpu_device::cell::MemTechnology;
use sttgpu_device::mtj::RetentionTime;

/// L1 data cache configuration (per SM).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct L1Config {
    /// Capacity, KB (paper: 16 KB).
    pub kb: u64,
    /// Associativity (paper: 4).
    pub ways: u32,
    /// Line size, bytes (paper: 128 B).
    pub line_bytes: u32,
    /// MSHR entries (in-flight missed lines).
    pub(crate) mshr_entries: usize,
    /// Waiting requests per MSHR entry.
    pub(crate) mshr_targets: usize,
}

impl Default for L1Config {
    fn default() -> Self {
        L1Config {
            kb: 16,
            ways: 4,
            line_bytes: 128,
            mshr_entries: 128,
            mshr_targets: 16,
        }
    }
}

/// DRAM / memory-controller configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DramConfig {
    /// Number of memory controllers (paper: 6), each with a point-to-point
    /// link to one L2 bank.
    pub controllers: u32,
    /// Access latency when the request misses the open row (precharge +
    /// activate + CAS), ns.
    pub(crate) latency_ns: u64,
    /// Access latency when the request hits the controller's open row, ns.
    pub(crate) row_hit_latency_ns: u64,
    /// DRAM row size, bytes (the open-row granularity per controller).
    pub(crate) row_bytes: u64,
    /// Per-controller service time per request, ns (bandwidth model: one
    /// 256 B L2-line transfer at ~32 GB/s per controller).
    pub(crate) service_ns: u64,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            controllers: 6,
            latency_ns: 240,
            row_hit_latency_ns: 160,
            row_bytes: 2048,
            service_ns: 8,
        }
    }
}

/// Warp scheduling policy of an SM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WarpScheduler {
    /// Loose round-robin: ready warps rotate through the issue slot.
    #[default]
    LooseRoundRobin,
    /// Greedy-then-oldest (GTO): keep issuing from the same warp until it
    /// stalls, then switch to the oldest ready warp. Tends to preserve
    /// intra-warp L1 locality (cf. cache-conscious wavefront scheduling,
    /// which the paper cites).
    GreedyThenOldest,
}

/// Which L2 to build — the axis the whole evaluation sweeps.
#[derive(Debug, Clone, PartialEq)]
pub enum L2ModelConfig {
    /// Conventional SRAM L2 (the paper's baseline GPU).
    Sram {
        /// Capacity, KB.
        kb: u64,
        /// Associativity.
        ways: u32,
        /// Banks.
        banks: u32,
    },
    /// Uniform high-retention STT-RAM L2 (the paper's "STT-RAM baseline").
    SttRam {
        /// Capacity, KB.
        kb: u64,
        /// Associativity.
        ways: u32,
        /// Banks.
        banks: u32,
        /// Retention design point (the baseline uses 10 years).
        retention_years: f64,
    },
    /// The proposed two-part LR/HR L2.
    TwoPart(TwoPartConfig),
}

impl L2ModelConfig {
    /// Instantiates the configured LLC.
    pub fn build(&self, line_bytes: u32) -> AnyLlc {
        match self {
            L2ModelConfig::Sram { kb, ways, banks } => {
                SingleLlc::new(*kb, *ways, line_bytes, *banks, MemTechnology::Sram).into()
            }
            L2ModelConfig::SttRam {
                kb,
                ways,
                banks,
                retention_years,
            } => SingleLlc::new(
                *kb,
                *ways,
                line_bytes,
                *banks,
                MemTechnology::stt_for_retention(RetentionTime::from_years(*retention_years)),
            )
            .into(),
            L2ModelConfig::TwoPart(cfg) => TwoPartLlc::new(cfg.clone()).into(),
        }
    }

    /// Total L2 data capacity, KB.
    pub fn capacity_kb(&self) -> u64 {
        match self {
            L2ModelConfig::Sram { kb, .. } | L2ModelConfig::SttRam { kb, .. } => *kb,
            L2ModelConfig::TwoPart(cfg) => cfg.total_kb(),
        }
    }
}

/// Full GPU configuration.
///
/// Defaults ([`GpuConfig::gtx480`]) follow the paper's Table 2: 15 SMs,
/// 16 KB 4-way L1D with 128 B lines, 48 KB shared memory, 32 K 32-bit
/// registers per SM, 6 memory controllers, and a 384 KB 8-way SRAM L2 with
/// 256 B lines.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Number of streaming multiprocessors (paper: 15 clusters × 1 SM).
    pub num_sms: usize,
    /// Threads per warp (32 on all NVIDIA generations the paper covers).
    pub(crate) warp_size: u32,
    /// Maximum resident warps per SM (GTX480/Fermi: 48).
    pub(crate) max_warps_per_sm: u32,
    /// Maximum resident thread blocks per SM (Fermi: 8).
    pub(crate) max_blocks_per_sm: u32,
    /// 32-bit registers per SM (Fermi: 32768) — enlarged in C2/C3.
    pub registers_per_sm: u32,
    /// Shared memory per SM, bytes (paper: 48 KB).
    pub(crate) shared_mem_per_sm: u32,
    /// SM clock, MHz (GTX480 shader clock: 1400).
    pub(crate) clock_mhz: u64,
    /// Instructions issued per SM per cycle.
    pub(crate) issue_width: u32,
    /// Cycles before the same warp may issue its next (dependent)
    /// instruction — models pipeline/RAW latency. An SM therefore needs
    /// about `dep_interval_cycles × issue_width` *ready* warps to stay
    /// saturated, which is what makes occupancy (and the register-file
    /// enlargements of C2/C3) matter.
    pub(crate) dep_interval_cycles: u32,
    /// Maximum outstanding load instructions per warp before it stalls.
    pub(crate) max_pending_loads: u32,
    /// Warp scheduling policy.
    pub scheduler: WarpScheduler,
    /// One-way interconnect latency between SMs and L2 banks, ns.
    pub icnt_latency_ns: u64,
    /// Per-SM interconnect port service time per packet, ns (bandwidth).
    pub(crate) icnt_flit_ns: u64,
    /// L1 data cache configuration.
    pub(crate) l1: L1Config,
    /// L2 line size, bytes (paper: 256 B).
    pub l2_line_bytes: u32,
    /// The L2 under evaluation.
    pub l2: L2ModelConfig,
    /// DRAM configuration.
    pub(crate) dram: DramConfig,
}

impl GpuConfig {
    /// The paper's baseline GPU (GTX480-like) with its SRAM L2.
    pub fn gtx480() -> Self {
        GpuConfig {
            num_sms: 15,
            warp_size: 32,
            max_warps_per_sm: 48,
            max_blocks_per_sm: 8,
            registers_per_sm: 32 * 1024,
            shared_mem_per_sm: 48 * 1024,
            clock_mhz: 1400,
            issue_width: 1,
            dep_interval_cycles: 20,
            max_pending_loads: 4,
            scheduler: WarpScheduler::default(),
            icnt_latency_ns: 10,
            icnt_flit_ns: 1,
            l1: L1Config::default(),
            l2_line_bytes: 256,
            l2: L2ModelConfig::Sram {
                kb: 384,
                ways: 8,
                banks: 6,
            },
            dram: DramConfig::default(),
        }
    }

    /// Converts a cycle count to nanoseconds of simulated time.
    pub(crate) fn ns_of_cycle(&self, cycle: u64) -> u64 {
        cycle * 1000 / self.clock_mhz
    }

    /// The first cycle whose [`ns_of_cycle`](Self::ns_of_cycle) timestamp
    /// reaches `ns` — the exact inverse the event-driven driver needs to
    /// turn a memory-event deadline back into a wake-up cycle.
    /// (`floor(c·1000/f) ≥ ns ⇔ c·1000 ≥ ns·f` for integer `ns`, so the
    /// ceiling division is exact, not an approximation.)
    pub(crate) fn cycle_of_ns_ceil(&self, ns: u64) -> u64 {
        ns.saturating_mul(self.clock_mhz).div_ceil(1000)
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig::gtx480()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sttgpu_core::LlcModel;

    #[test]
    fn gtx480_matches_table2() {
        let c = GpuConfig::gtx480();
        assert_eq!(c.num_sms, 15);
        assert_eq!(c.l1.kb, 16);
        assert_eq!(c.l1.ways, 4);
        assert_eq!(c.l1.line_bytes, 128);
        assert_eq!(c.shared_mem_per_sm, 48 * 1024);
        assert_eq!(c.dram.controllers, 6);
        assert_eq!(c.l2_line_bytes, 256);
        assert_eq!(c.l2.capacity_kb(), 384);
    }

    #[test]
    fn cycle_to_ns_at_1400mhz() {
        let c = GpuConfig::gtx480();
        assert_eq!(c.ns_of_cycle(0), 0);
        assert_eq!(c.ns_of_cycle(1400), 1000);
        assert_eq!(c.ns_of_cycle(7), 5);
    }

    #[test]
    fn l2_choices_build() {
        let sram = L2ModelConfig::Sram {
            kb: 64,
            ways: 8,
            banks: 2,
        }
        .build(256);
        assert_eq!(sram.line_bytes(), 256);
        let stt = L2ModelConfig::SttRam {
            kb: 256,
            ways: 8,
            banks: 2,
            retention_years: 10.0,
        }
        .build(256);
        assert_eq!(stt.line_bytes(), 256);
        let tp = L2ModelConfig::TwoPart(TwoPartConfig::new(8, 2, 56, 7, 256)).build(256);
        assert!(tp.as_two_part().is_some());
        assert_eq!(tp.line_bytes(), 256);
        assert_eq!(
            L2ModelConfig::TwoPart(TwoPartConfig::new(8, 2, 56, 7, 256)).capacity_kb(),
            64
        );
    }
}
