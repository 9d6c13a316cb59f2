//! Measured characterisation of the synthetic workload suite.
//!
//! The paper characterises its benchmarks in §4 before using them; this
//! artefact does the same for the synthetic suite, **measured** on the
//! baseline GPU rather than asserted from the generator parameters: per
//! workload, the behavioural region, baseline IPC, L1/L2 hit rates, the
//! write share of L2 traffic (the axis the paper's suite spans from ~0 %
//! to 63 %), and memory intensity. It doubles as a regression anchor: if a
//! workload drifts out of its intended region, this table shows it first.

use sttgpu_workloads::suite;

use crate::configs::L2Choice;
use crate::report;
use crate::runner::{Executor, RunPlan};

/// Measured characteristics of one workload on the baseline GPU.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadRow {
    /// Workload name.
    pub workload: String,
    /// Behavioural region index (1–4).
    pub region: usize,
    /// Number of kernels (grids).
    pub kernels: usize,
    /// Baseline IPC (thread instructions per cycle).
    pub ipc: f64,
    /// L1 read hit rate.
    pub l1_hit_rate: f64,
    /// L2 hit rate.
    pub(crate) l2_hit_rate: f64,
    /// Write share of L2 accesses.
    pub(crate) l2_write_share: f64,
    /// L2 accesses per kilo-instruction.
    pub(crate) l2_apki: f64,
    /// DRAM reads per kilo-instruction.
    pub(crate) dram_rpki: f64,
}

/// Measures the whole suite on the SRAM baseline.
pub fn compute(exec: &Executor, plan: &RunPlan) -> Vec<WorkloadRow> {
    let workloads = suite::all();
    exec.map(&workloads, |w| {
        let out = exec.run(L2Choice::SramBaseline, w, plan);
        let m = &out.metrics;
        let kilo_instr = (m.instructions as f64 / 1000.0).max(1e-9);
        let l2 = &m.l2;
        WorkloadRow {
            workload: w.name.clone(),
            region: suite::region_of(&w.name).expect("suite workload").index(),
            kernels: w.kernels.len(),
            ipc: m.ipc(),
            l1_hit_rate: m.l1_hit_rate(),
            l2_hit_rate: l2.hit_rate(),
            l2_write_share: if l2.accesses() == 0 {
                0.0
            } else {
                (l2.write_hits + l2.write_misses) as f64 / l2.accesses() as f64
            },
            l2_apki: l2.accesses() as f64 / kilo_instr,
            dram_rpki: m.dram_reads as f64 / kilo_instr,
        }
    })
}

/// Renders the characterisation table.
pub fn render(rows: &[WorkloadRow]) -> String {
    let mut out = String::from("Workload characterisation (measured on the SRAM baseline GPU)\n");
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("[{}] {}", r.region, r.workload),
                r.kernels.to_string(),
                format!("{:.0}", r.ipc),
                report::pct(r.l1_hit_rate),
                report::pct(r.l2_hit_rate),
                report::pct(r.l2_write_share),
                format!("{:.1}", r.l2_apki),
                format!("{:.1}", r.dram_rpki),
            ]
        })
        .collect();
    out.push_str(&report::table(
        &[
            "workload",
            "kernels",
            "IPC",
            "L1 hit",
            "L2 hit",
            "L2 wr share",
            "L2 APKI",
            "DRAM RPKI",
        ],
        &body,
    ));
    out
}

/// Renders the characterisation as CSV.
pub fn to_csv(rows: &[WorkloadRow]) -> String {
    report::csv(
        &[
            "workload",
            "region",
            "kernels",
            "ipc",
            "l1_hit_rate",
            "l2_hit_rate",
            "l2_write_share",
            "l2_apki",
            "dram_rpki",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.workload.clone(),
                    r.region.to_string(),
                    r.kernels.to_string(),
                    format!("{:.3}", r.ipc),
                    format!("{:.4}", r.l1_hit_rate),
                    format!("{:.4}", r.l2_hit_rate),
                    format!("{:.4}", r.l2_write_share),
                    format!("{:.3}", r.l2_apki),
                    format!("{:.3}", r.dram_rpki),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_measurements_match_intent() {
        let plan = RunPlan {
            scale: 0.08,
            max_cycles: 6_000_000,
            check: false,
            ..RunPlan::full()
        };
        let rows = compute(&Executor::auto(), &plan);
        assert_eq!(rows.len(), 16);
        let get = |name: &str| {
            rows.iter()
                .find(|r| r.workload == name)
                .unwrap_or_else(|| panic!("{name} missing"))
        };
        // The suite's write-share ordering: nw is the write-heaviest,
        // sad nearly write-free.
        assert!(
            get("nw").l2_write_share > 0.4,
            "nw {:?}",
            get("nw").l2_write_share
        );
        assert!(
            get("sad").l2_write_share < 0.1,
            "sad {:?}",
            get("sad").l2_write_share
        );
        // Cache-friendly bfs misses the baseline L2 hard.
        assert!(get("bfs").l2_hit_rate < 0.8);
        // Everything produced work.
        for r in &rows {
            assert!(r.ipc > 0.0, "{} idle", r.workload);
        }
    }
}
