//! Run metrics: everything Figs. 3–8 are computed from.

use sttgpu_core::LlcStats;
use sttgpu_device::energy::EnergyAccount;

/// Per-kernel slice of a run (kernels execute back to back with a global
/// barrier, so cycle spans partition the run).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelSpan {
    /// Kernel name.
    pub name: String,
    /// Cycles spent in this kernel (including its drain).
    pub cycles: u64,
    /// Thread instructions committed by this kernel.
    pub instructions: u64,
}

/// Results of one simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetrics {
    /// Workload name.
    pub workload: String,
    /// Total SM cycles elapsed.
    pub cycles: u64,
    /// Simulated wall time, ns.
    pub elapsed_ns: u64,
    /// Thread instructions committed.
    pub instructions: u64,
    /// Whether the workload ran to completion within the cycle budget.
    pub finished: bool,
    /// Kernels skipped because they could not launch (zero occupancy).
    pub kernels_skipped: u32,
    /// L2 summary statistics.
    pub l2: LlcStats,
    /// Snapshot of the L2 energy ledger.
    pub l2_energy: EnergyAccount,
    /// Aggregate L1 read hits across SMs.
    pub l1_read_hits: u64,
    /// Aggregate L1 read misses across SMs.
    pub l1_read_misses: u64,
    /// DRAM read requests.
    pub dram_reads: u64,
    /// DRAM write requests (write-backs).
    pub dram_writes: u64,
    /// DRAM reads that hit an open row.
    pub dram_row_hits: u64,
    /// Instruction replays caused by full L1 MSHRs.
    pub mshr_stalls: u64,
    /// Cycles in which a non-idle SM could not issue, summed over SMs.
    pub sm_idle_cycles: u64,
    /// Average L2 read-hit service latency, ns.
    pub l2_read_hit_latency_ns: f64,
    /// Per-kernel cycle/instruction spans, in execution order.
    pub kernel_spans: Vec<KernelSpan>,
}

impl RunMetrics {
    /// Instructions per cycle (thread instructions).
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Speedup of this run over a baseline run of the same workload.
    ///
    /// Comparison is by IPC when both runs committed the same instruction
    /// count (they do when both finish — workload traces are
    /// deterministic), otherwise by instruction throughput.
    pub fn speedup_over(&self, baseline: &RunMetrics) -> f64 {
        let a = self.ipc();
        let b = baseline.ipc();
        if b == 0.0 {
            0.0
        } else {
            a / b
        }
    }

    /// L1 read hit rate across all SMs.
    pub fn l1_hit_rate(&self) -> f64 {
        let total = self.l1_read_hits + self.l1_read_misses;
        if total == 0 {
            0.0
        } else {
            self.l1_read_hits as f64 / total as f64
        }
    }

    /// Average L2 dynamic power over the run, mW (Fig. 8b's quantity).
    pub fn l2_dynamic_power_mw(&self) -> f64 {
        self.l2_energy.dynamic_power_mw(self.elapsed_ns)
    }

    /// Average total L2 power (dynamic + leakage), mW (Fig. 8c's
    /// quantity).
    pub fn l2_total_power_mw(&self) -> f64 {
        self.l2_energy.total_power_mw(self.elapsed_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(instr: u64, cycles: u64) -> RunMetrics {
        RunMetrics {
            workload: "t".into(),
            cycles,
            elapsed_ns: cycles,
            instructions: instr,
            finished: true,
            kernels_skipped: 0,
            l2: LlcStats::default(),
            l2_energy: EnergyAccount::new(),
            l1_read_hits: 0,
            l1_read_misses: 0,
            dram_reads: 0,
            dram_writes: 0,
            dram_row_hits: 0,
            mshr_stalls: 0,
            sm_idle_cycles: 0,
            l2_read_hit_latency_ns: 0.0,
            kernel_spans: Vec::new(),
        }
    }

    #[test]
    fn ipc_and_speedup() {
        let a = metrics(1000, 100);
        let b = metrics(1000, 200);
        assert_eq!(a.ipc(), 10.0);
        assert_eq!(b.ipc(), 5.0);
        assert_eq!(a.speedup_over(&b), 2.0);
    }

    #[test]
    fn zero_guards() {
        let z = metrics(0, 0);
        assert_eq!(z.ipc(), 0.0);
        assert_eq!(z.l1_hit_rate(), 0.0);
        assert_eq!(metrics(10, 10).speedup_over(&z), 0.0);
    }

    #[test]
    fn l1_hit_rate() {
        let mut m = metrics(1, 1);
        m.l1_read_hits = 3;
        m.l1_read_misses = 1;
        assert!((m.l1_hit_rate() - 0.75).abs() < 1e-12);
    }
}
