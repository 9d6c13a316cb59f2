//! Fault ablation: injected error rate vs. performance, energy and data
//! loss on the two-part C1 configuration.
//!
//! The retention-backed LLC trades cell stability for write energy, so
//! the natural robustness question is how gracefully the design degrades
//! when the retention gamble misses: early bit flips (caught or not by
//! the per-line SECDED), dropped refreshes, stalled swap buffers and
//! transient bank faults. This sweep drives the LLC's deterministic
//! fault injection ([`FaultConfig`](sttgpu_core::FaultConfig)) across a
//! rate ladder and reports the IPC, ECC activity and architectural data
//! loss at each point; rate 0 is byte-identical to the clean C1 run and
//! anchors the normalisation.

use sttgpu_device::energy::EnergyEvent;
use sttgpu_workloads::suite;

use crate::configs::L2Choice;
use crate::report;
use crate::runner::{Executor, RunPlan};

/// One point of the fault-rate ladder, aggregated over the subset.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRow {
    /// Injected per-mechanism error rate.
    pub rate: f64,
    /// Geometric-mean IPC normalised to the rate-0 run.
    pub(crate) ipc_norm: f64,
    /// Single-bit errors corrected by SECDED across the subset.
    pub ecc_corrections: u64,
    /// Uncorrectable errors (line dropped, access missed).
    pub ecc_uncorrectable: u64,
    /// Uncorrectable errors striking dirty lines — actual data loss.
    pub data_loss_events: u64,
    /// LR refreshes dropped by the fault process.
    pub refresh_drops: u64,
    /// ECC share of dynamic L2 energy.
    pub(crate) ecc_energy_share: f64,
}

/// Error rates swept by the ablation (per-mechanism, uniform).
pub(crate) const FAULT_RATES: [f64; 6] = [0.0, 1e-6, 1e-5, 1e-4, 5e-4, 1e-3];

/// Workloads the sweep runs on: a read-led, a write-led and a
/// long-resident workload, so all fault mechanisms get exercised.
const SUBSET: [&str; 3] = ["nw", "lud", "streamcluster"];

/// Runs the fault-rate sweep. The fault seed comes from the plan
/// (`--fault-seed`); every (rate, workload) point fans across the
/// executor's pool and rate 0 shares the memoized clean run.
pub fn compute(exec: &Executor, plan: &RunPlan) -> Vec<FaultRow> {
    let workloads: Vec<_> = SUBSET
        .iter()
        .map(|n| suite::by_name(n).expect("suite workload"))
        .collect();
    let points: Vec<(usize, usize)> = (0..FAULT_RATES.len())
        .flat_map(|ri| (0..workloads.len()).map(move |wi| (ri, wi)))
        .collect();
    let outs = exec.map(&points, |&(ri, wi)| {
        let faulted = plan.with_faults(FAULT_RATES[ri], plan.fault.seed);
        exec.run(L2Choice::TwoPartC1, &workloads[wi], &faulted)
    });
    let baseline_ipc: Vec<f64> = (0..workloads.len())
        .map(|wi| outs[wi].metrics.ipc())
        .collect();
    FAULT_RATES
        .iter()
        .enumerate()
        .map(|(ri, &rate)| {
            let mut corrections = 0;
            let mut uncorrectable = 0;
            let mut data_loss = 0;
            let mut drops = 0;
            let mut ecc_nj = 0.0;
            let mut total_nj = 0.0;
            let mut ipc_ratios = Vec::with_capacity(workloads.len());
            for wi in 0..workloads.len() {
                let out = &outs[ri * workloads.len() + wi];
                let tp = out.two_part.expect("C1 is two-part");
                corrections += tp.ecc_corrections;
                uncorrectable += tp.ecc_uncorrectable;
                data_loss += tp.data_loss_events;
                drops += tp.refresh_drops;
                ecc_nj += out.metrics.l2_energy.dynamic_nj_for(EnergyEvent::Ecc);
                total_nj += out.metrics.l2_energy.dynamic_nj();
                ipc_ratios.push(out.metrics.ipc() / baseline_ipc[wi].max(1e-9));
            }
            FaultRow {
                rate,
                ipc_norm: report::gmean(&ipc_ratios),
                ecc_corrections: corrections,
                ecc_uncorrectable: uncorrectable,
                data_loss_events: data_loss,
                refresh_drops: drops,
                ecc_energy_share: if total_nj == 0.0 {
                    0.0
                } else {
                    ecc_nj / total_nj
                },
            }
        })
        .collect()
}

/// Renders the sweep as the paper-style text table.
pub fn render(rows: &[FaultRow]) -> String {
    let mut out = String::from(
        "Fault ablation — injected error rate vs. IPC / ECC / data loss (C1, nw+lud+streamcluster)\n\n",
    );
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.0e}", r.rate),
                report::ratio(r.ipc_norm),
                format!("{}", r.ecc_corrections),
                format!("{}", r.ecc_uncorrectable),
                format!("{}", r.data_loss_events),
                format!("{}", r.refresh_drops),
                report::pct(r.ecc_energy_share),
            ]
        })
        .collect();
    out.push_str(&report::table(
        &[
            "rate",
            "IPC vs clean",
            "corrected",
            "uncorrectable",
            "data loss",
            "refresh drops",
            "ECC energy",
        ],
        &body,
    ));
    out
}

/// CSV form of the sweep.
pub fn to_csv(rows: &[FaultRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:e}", r.rate),
                format!("{:.6}", r.ipc_norm),
                format!("{}", r.ecc_corrections),
                format!("{}", r.ecc_uncorrectable),
                format!("{}", r.data_loss_events),
                format!("{}", r.refresh_drops),
                format!("{:.6}", r.ecc_energy_share),
            ]
        })
        .collect();
    report::csv(
        &[
            "rate",
            "ipc_norm",
            "ecc_corrections",
            "ecc_uncorrectable",
            "data_loss_events",
            "refresh_drops",
            "ecc_energy_share",
        ],
        &body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_anchored_and_escalates() {
        let exec = Executor::auto();
        let plan = RunPlan {
            scale: 0.05,
            max_cycles: 2_000_000,
            ..RunPlan::full()
        }
        .with_faults(0.0, 42);
        let rows = compute(&exec, &plan);
        assert_eq!(rows.len(), FAULT_RATES.len());
        let clean = &rows[0];
        assert_eq!(clean.rate, 0.0);
        assert!((clean.ipc_norm - 1.0).abs() < 1e-12, "rate 0 is the anchor");
        assert_eq!(clean.ecc_corrections + clean.ecc_uncorrectable, 0);
        assert_eq!(clean.ecc_energy_share, 0.0);
        let heavy = rows.last().expect("rows");
        assert!(
            heavy.ecc_corrections + heavy.ecc_uncorrectable + heavy.refresh_drops > 0,
            "the heaviest rate must inject"
        );
        let csv = to_csv(&rows);
        assert!(csv.lines().count() == rows.len() + 1);
        assert!(render(&rows).contains("rate"));
    }
}
