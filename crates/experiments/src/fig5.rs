//! Fig. 5: LR associativity analysis.
//!
//! Sweeps the LR part's associativity {1, 2, 4, 8, 16}-way on the C1
//! geometry and reports each workload's LR **write utilisation** (fraction
//! of demand writes serviced by the LR array) normalised to a fully
//! associative LR. The paper picks 2 ways: close to fully-associative
//! utilisation at a fraction of the lookup cost.

use sttgpu_workloads::suite;

use crate::configs::c1_with;
use crate::report;
use crate::runner::{Executor, RunPlan};

/// The swept way counts; `None` stands for fully associative.
pub(crate) const WAYS: [u32; 5] = [1, 2, 4, 8, 16];

/// Results of one workload across the associativity sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Row {
    /// Workload name.
    pub workload: String,
    /// LR write utilisation per way count, normalised to fully
    /// associative (indexed like [`WAYS`]).
    pub(crate) utilization_norm: [f64; 5],
    /// The raw fully-associative utilisation (the normalisation base).
    pub(crate) full_assoc_utilization: f64,
}

fn c1_with_lr_ways(ways: Option<u32>) -> sttgpu_sim::GpuConfig {
    c1_with(|tp| {
        let ways = ways.unwrap_or(tp.lr_lines() as u32);
        tp.with_lr_ways(ways)
    })
}

fn lr_utilization(
    exec: &Executor,
    cfg: sttgpu_sim::GpuConfig,
    w: &sttgpu_sim::Workload,
    plan: &RunPlan,
) -> f64 {
    let out = exec.run_config(cfg, w, plan);
    out.two_part.expect("two-part").direct_lr_write_hit_rate()
}

/// Runs the sweep for the whole suite, fanning every (workload, ways)
/// point across the executor's pool. Point 0 of each workload is the
/// fully-associative normalisation base.
pub fn compute(exec: &Executor, plan: &RunPlan) -> Vec<Fig5Row> {
    let workloads = suite::all();
    const POINTS_PER_WORKLOAD: usize = WAYS.len() + 1;
    let points: Vec<(usize, Option<u32>)> = (0..workloads.len())
        .flat_map(|wi| {
            std::iter::once((wi, None)).chain(WAYS.iter().map(move |&ways| (wi, Some(ways))))
        })
        .collect();
    let utils = exec.map(&points, |&(wi, ways)| {
        lr_utilization(exec, c1_with_lr_ways(ways), &workloads[wi], plan)
    });
    workloads
        .iter()
        .enumerate()
        .map(|(wi, w)| {
            let base_idx = wi * POINTS_PER_WORKLOAD;
            let full = utils[base_idx];
            let base = if full > 0.0 { full } else { 1.0 };
            let mut norm = [0.0f64; 5];
            for (i, slot) in norm.iter_mut().enumerate() {
                *slot = utils[base_idx + 1 + i] / base;
            }
            Fig5Row {
                workload: w.name.clone(),
                utilization_norm: norm,
                full_assoc_utilization: full,
            }
        })
        .collect()
}

/// Renders the figure.
pub fn render(rows: &[Fig5Row]) -> String {
    let mut out = String::from(
        "Fig. 5: LR write utilisation by associativity, normalised to fully-associative\n",
    );
    let mut body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut cells = vec![r.workload.clone()];
            cells.extend(r.utilization_norm.iter().map(|v| report::ratio(*v)));
            cells
        })
        .collect();
    let mut avg = vec!["Gmean".to_owned()];
    for i in 0..WAYS.len() {
        let col: Vec<f64> = rows.iter().map(|r| r.utilization_norm[i]).collect();
        avg.push(report::ratio(report::gmean(&col)));
    }
    body.push(avg);
    out.push_str(&report::table(
        &["workload", "1-way", "2-way", "4-way", "8-way", "16-way"],
        &body,
    ));
    out
}

/// Renders the sweep as long-format CSV (one row per workload x ways).
pub fn to_csv(rows: &[Fig5Row]) -> String {
    let mut body = Vec::new();
    for r in rows {
        for (i, &ways) in WAYS.iter().enumerate() {
            body.push(vec![
                r.workload.clone(),
                ways.to_string(),
                format!("{:.6}", r.utilization_norm[i]),
                format!("{:.6}", r.full_assoc_utilization),
            ]);
        }
    }
    report::csv(
        &[
            "workload",
            "lr_ways",
            "utilization_norm",
            "full_assoc_utilization",
        ],
        &body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fig. 5's message: 2 ways already lands near fully-associative
    /// utilisation, and more ways never hurt.
    #[test]
    fn two_way_is_close_to_fully_associative() {
        let plan = RunPlan {
            scale: 0.06,
            max_cycles: 3_000_000,
            check: false,
            ..RunPlan::full()
        };
        let exec = Executor::sequential();
        let w = suite::by_name("kmeans").expect("kmeans");
        let full = lr_utilization(&exec, c1_with_lr_ways(None), &w, &plan);
        let one = lr_utilization(&exec, c1_with_lr_ways(Some(1)), &w, &plan);
        let two = lr_utilization(&exec, c1_with_lr_ways(Some(2)), &w, &plan);
        assert!(full > 0.0, "kmeans must exercise the LR part");
        assert!(
            two >= one * 0.99,
            "2-way ({two}) must not lose to 1-way ({one})"
        );
        assert!(
            two >= 0.85 * full,
            "2-way utilisation {two} must be close to fully-associative {full}"
        );
    }
}
