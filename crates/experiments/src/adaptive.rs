//! Adaptive-policy ablation: the paper-exact fixed policy vs. the
//! shipped runtime-adaptive retention policy, across the whole workload
//! suite and the fault ladder.
//!
//! The paper fixes its policy bundle at design time (write-threshold
//! migration, static retention, static LR/HR split). The runtime
//! policies ([`LlcPolicy`]) make that bundle a runtime choice, so
//! the natural question is what the adaptive variant actually buys:
//! per workload, this artefact reports IPC, dynamic L2 energy and LR
//! refresh work under each policy (normalised to the fixed run), then
//! repeats the fault-injection ladder under each policy to show whether
//! adaptation changes how the design degrades. Every simulation flows
//! through the shared executor, so the fixed column memoizes with the
//! other artefacts and the policy name keys every run.

use sttgpu_core::LlcPolicy;
use sttgpu_workloads::suite;

use crate::configs::L2Choice;
use crate::faults::{self, FaultRow};
use crate::report;
use crate::runner::{Executor, RunPlan};

/// One workload measured under every shipped policy (C1 geometry).
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveRow {
    /// Workload name.
    pub workload: String,
    /// IPC under each policy, [`LlcPolicy::ALL`] order (fixed first: it
    /// anchors the normalisation).
    pub ipc: [f64; 2],
    /// Dynamic L2 energy (nJ) under each policy, [`LlcPolicy::ALL`] order.
    pub(crate) dyn_energy_nj: [f64; 2],
    /// LR refreshes under each policy, [`LlcPolicy::ALL`] order.
    pub refreshes: [u64; 2],
}

/// The full artefact: the per-workload grid plus one fault ladder per
/// policy.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveReport {
    /// One row per suite workload.
    pub rows: Vec<AdaptiveRow>,
    /// The fault-injection ladder rerun under each policy,
    /// [`LlcPolicy::ALL`] order.
    pub fault: Vec<(LlcPolicy, Vec<FaultRow>)>,
}

/// Runs the suite under every policy, then the fault ladder under every
/// policy. All points fan across the executor's pool.
pub fn compute(exec: &Executor, plan: &RunPlan) -> AdaptiveReport {
    let workloads = suite::all();
    let points: Vec<(usize, usize)> = (0..workloads.len())
        .flat_map(|wi| (0..LlcPolicy::ALL.len()).map(move |pi| (wi, pi)))
        .collect();
    let outs = exec.map(&points, |&(wi, pi)| {
        exec.run(
            L2Choice::TwoPartC1,
            &workloads[wi],
            &plan.with_policy(LlcPolicy::ALL[pi]),
        )
    });
    let rows = workloads
        .iter()
        .enumerate()
        .map(|(wi, w)| {
            let mut ipc = [0.0; 2];
            let mut dyn_energy_nj = [0.0; 2];
            let mut refreshes = [0u64; 2];
            for pi in 0..LlcPolicy::ALL.len() {
                let out = &outs[wi * LlcPolicy::ALL.len() + pi];
                ipc[pi] = out.metrics.ipc();
                dyn_energy_nj[pi] = out.metrics.l2_energy.dynamic_nj();
                refreshes[pi] = out.two_part.expect("C1 is two-part").refreshes;
            }
            AdaptiveRow {
                workload: w.name.clone(),
                ipc,
                dyn_energy_nj,
                refreshes,
            }
        })
        .collect();
    let fault = LlcPolicy::ALL
        .iter()
        .map(|&p| (p, faults::compute(exec, &plan.with_policy(p))))
        .collect();
    AdaptiveReport { rows, fault }
}

/// Geometric-mean ratio of the adaptive column over the fixed column.
fn gmean_vs_fixed(rows: &[AdaptiveRow], f: impl Fn(&AdaptiveRow, usize) -> f64) -> f64 {
    let ratios: Vec<f64> = rows.iter().map(|r| f(r, 1) / f(r, 0).max(1e-12)).collect();
    report::gmean(&ratios)
}

/// Renders the artefact as the paper-style text tables.
pub fn render(rep: &AdaptiveReport) -> String {
    let mut out =
        String::from("Adaptive-policy ablation — fixed vs. runtime-adaptive LLC policies (C1)\n\n");
    let body: Vec<Vec<String>> = rep
        .rows
        .iter()
        .map(|r| {
            vec![
                r.workload.clone(),
                format!("{:.0}", r.ipc[0]),
                report::ratio(r.ipc[1] / r.ipc[0].max(1e-12)),
                report::ratio(r.dyn_energy_nj[1] / r.dyn_energy_nj[0].max(1e-12)),
                format!("{}", r.refreshes[0]),
                format!("{}", r.refreshes[1]),
            ]
        })
        .collect();
    out.push_str(&report::table(
        &[
            "workload",
            "IPC fixed",
            "IPC adapt-ret",
            "energy adapt-ret",
            "refreshes fixed",
            "refreshes adapt-ret",
        ],
        &body,
    ));
    out.push_str(&format!(
        "\ngmean vs fixed: IPC {} (retention), dynamic energy {} (retention)\n",
        report::ratio(gmean_vs_fixed(&rep.rows, |r, i| r.ipc[i])),
        report::ratio(gmean_vs_fixed(&rep.rows, |r, i| r.dyn_energy_nj[i])),
    ));
    out.push_str("\nFault ladder under each policy (heaviest rate)\n\n");
    let body: Vec<Vec<String>> = rep
        .fault
        .iter()
        .filter_map(|(policy, rows)| {
            let heavy = rows.last()?;
            Some(vec![
                policy.name().to_string(),
                format!("{:.0e}", heavy.rate),
                report::ratio(heavy.ipc_norm),
                format!("{}", heavy.ecc_uncorrectable),
                format!("{}", heavy.data_loss_events),
                format!("{}", heavy.refresh_drops),
            ])
        })
        .collect();
    out.push_str(&report::table(
        &[
            "policy",
            "rate",
            "IPC vs clean",
            "uncorrectable",
            "data loss",
            "refresh drops",
        ],
        &body,
    ));
    out
}

/// CSV form: the per-workload grid (the fault ladders are `faults.csv`
/// reruns and keep their own artefact).
pub fn to_csv(rep: &AdaptiveReport) -> String {
    let body: Vec<Vec<String>> = rep
        .rows
        .iter()
        .map(|r| {
            let mut cols = vec![r.workload.clone()];
            cols.extend(r.ipc.iter().map(|v| format!("{v:.6}")));
            cols.extend(r.dyn_energy_nj.iter().map(|v| format!("{v:.6}")));
            cols.extend(r.refreshes.iter().map(|v| format!("{v}")));
            cols
        })
        .collect();
    report::csv(
        &[
            "workload",
            "ipc_fixed",
            "ipc_adaptive_retention",
            "dyn_energy_nj_fixed",
            "dyn_energy_nj_adaptive_retention",
            "refreshes_fixed",
            "refreshes_adaptive_retention",
        ],
        &body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_plan() -> RunPlan {
        RunPlan {
            scale: 0.05,
            max_cycles: 2_000_000,
            ..RunPlan::full()
        }
    }

    #[test]
    fn grid_covers_the_suite_and_every_policy_runs() {
        let exec = Executor::auto();
        let rep = compute(&exec, &tiny_plan());
        assert_eq!(rep.rows.len(), suite::all().len());
        assert_eq!(rep.fault.len(), LlcPolicy::ALL.len());
        for (policy, ladder) in &rep.fault {
            assert_eq!(ladder.len(), faults::FAULT_RATES.len(), "{policy}");
        }
        for r in &rep.rows {
            assert!(
                r.ipc.iter().all(|&v| v > 0.0),
                "{}: {:?}",
                r.workload,
                r.ipc
            );
        }
        // Distinct policies must be distinct memo keys: the grid alone
        // is suite × policies runs, nothing aliased.
        assert!(
            exec.stats().runs_executed >= (rep.rows.len() * LlcPolicy::ALL.len()) as u64,
            "policy runs must not alias in the run cache"
        );
        let csv = to_csv(&rep);
        assert_eq!(csv.lines().count(), rep.rows.len() + 1);
        assert!(render(&rep).contains("adapt-ret"));
    }

    #[test]
    fn report_is_identical_on_any_job_count() {
        let plan = tiny_plan();
        let seq = compute(&Executor::sequential(), &plan);
        let par = compute(&Executor::new(8), &plan);
        assert_eq!(seq, par, "adaptive report diverges across executors");
        assert_eq!(render(&seq), render(&par));
        assert_eq!(to_csv(&seq), to_csv(&par));
    }
}
