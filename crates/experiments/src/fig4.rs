//! Fig. 4: HR write-threshold analysis.
//!
//! Sweeps the WWS-monitor threshold TH ∈ {1, 3, 7, 15} on the C1 geometry
//! and reports, per workload, (a) the LR/HR demand-write ratio and (b) the
//! total physical write count, both normalised to TH = 1. The paper's
//! conclusion — reproduced here — is that TH = 1 maximises LR utilisation
//! while higher thresholds only push writes into the expensive HR array.

use sttgpu_workloads::suite;

use crate::configs::c1_with;
use crate::report;
use crate::runner::{Executor, RunPlan};

/// The thresholds Fig. 4 sweeps.
pub(crate) const THRESHOLDS: [u32; 4] = [1, 3, 7, 15];

/// Results of one workload across the threshold sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Row {
    /// Workload name.
    pub workload: String,
    /// LR/HR demand-write ratio normalised to TH1, indexed like
    /// [`THRESHOLDS`].
    pub(crate) lr_hr_ratio_norm: [f64; 4],
    /// Total physical array writes normalised to TH1.
    pub(crate) write_overhead_norm: [f64; 4],
}

fn c1_with_threshold(th: u32) -> sttgpu_sim::GpuConfig {
    c1_with(|tp| tp.with_write_threshold(th))
}

/// Runs the sweep for the whole suite, fanning every (workload, TH)
/// point across the executor's pool.
pub fn compute(exec: &Executor, plan: &RunPlan) -> Vec<Fig4Row> {
    let workloads = suite::all();
    let points: Vec<(usize, usize)> = (0..workloads.len())
        .flat_map(|wi| (0..THRESHOLDS.len()).map(move |ti| (wi, ti)))
        .collect();
    let outs = exec.map(&points, |&(wi, ti)| {
        exec.run_config(c1_with_threshold(THRESHOLDS[ti]), &workloads[wi], plan)
    });
    workloads
        .iter()
        .enumerate()
        .map(|(wi, w)| {
            let mut ratios = [0.0f64; 4];
            let mut writes = [0.0f64; 4];
            for ti in 0..THRESHOLDS.len() {
                let out = &outs[wi * THRESHOLDS.len() + ti];
                let tp = out.two_part.expect("C1 is two-part");
                ratios[ti] = tp.lr_to_hr_write_ratio();
                writes[ti] = tp.total_array_writes() as f64;
            }
            let base_ratio = if ratios[0] > 0.0 { ratios[0] } else { 1.0 };
            let base_writes = if writes[0] > 0.0 { writes[0] } else { 1.0 };
            Fig4Row {
                workload: w.name.clone(),
                lr_hr_ratio_norm: ratios.map(|r| r / base_ratio),
                write_overhead_norm: writes.map(|x| x / base_writes),
            }
        })
        .collect()
}

/// Renders both panels of the figure.
pub fn render(rows: &[Fig4Row]) -> String {
    let mut out = String::from("Fig. 4: HR write-threshold analysis (normalised to TH1)\n\n");
    for (title, pick) in [
        (
            "LR-to-HR write ratio",
            (|r: &Fig4Row| r.lr_hr_ratio_norm) as fn(&Fig4Row) -> [f64; 4],
        ),
        ("total write overhead", |r: &Fig4Row| r.write_overhead_norm),
    ] {
        out.push_str(&format!("{title}:\n"));
        let mut body: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                let vals = pick(r);
                let mut cells = vec![r.workload.clone()];
                cells.extend(vals.iter().map(|v| report::ratio(*v)));
                cells
            })
            .collect();
        let mut avg_cells = vec!["AVG".to_owned()];
        for i in 0..4 {
            let col: Vec<f64> = rows.iter().map(|r| pick(r)[i]).collect();
            avg_cells.push(report::ratio(report::gmean(&col)));
        }
        body.push(avg_cells);
        out.push_str(&report::table(
            &["workload", "TH1", "TH3", "TH7", "TH15"],
            &body,
        ));
        out.push('\n');
    }
    out
}

/// Renders the sweep as long-format CSV (one row per workload x TH).
pub fn to_csv(rows: &[Fig4Row]) -> String {
    let mut body = Vec::new();
    for r in rows {
        for (i, &th) in THRESHOLDS.iter().enumerate() {
            body.push(vec![
                r.workload.clone(),
                th.to_string(),
                format!("{:.6}", r.lr_hr_ratio_norm[i]),
                format!("{:.6}", r.write_overhead_norm[i]),
            ]);
        }
    }
    report::csv(
        &[
            "workload",
            "threshold",
            "lr_hr_ratio_norm",
            "write_overhead_norm",
        ],
        &body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's conclusion: raising the threshold starves the LR part
    /// (lower LR/HR ratio) while total writes stay roughly flat — so TH1
    /// wins.
    #[test]
    fn threshold_one_maximises_lr_utilisation() {
        let plan = RunPlan {
            scale: 0.06,
            max_cycles: 3_000_000,
            check: false,
            ..RunPlan::full()
        };
        // A write-hot subset is enough to check the trend cheaply.
        let exec = Executor::sequential();
        let w = suite::by_name("nw").expect("nw");
        let mut ratios = Vec::new();
        for th in THRESHOLDS {
            let out = exec.run_config(c1_with_threshold(th), &w, &plan);
            ratios.push(out.two_part.expect("two-part").lr_to_hr_write_ratio());
        }
        assert!(
            ratios[0] > ratios[1] && ratios[1] >= ratios[3],
            "LR/HR ratio must fall with threshold: {ratios:?}"
        );
    }
}
