//! Fig. 3: inter- and intra-set write variation (COV) per workload.
//!
//! Each workload runs on the baseline GPU; the L2 accumulates physical
//! per-(set, way) write counts, from which the i2WAP-style coefficients of
//! variation are computed. The paper's observation: applications like
//! `bfs`, `kmeans` and `backprop` concentrate writes on few blocks (COV
//! well above 1), while `stencil`, `cfd` and `lbm` write evenly.

use sttgpu_workloads::suite;

use crate::configs::L2Choice;
use crate::report;
use crate::runner::{Executor, RunPlan};

/// One bar pair of Fig. 3.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3Row {
    /// Workload name.
    pub workload: String,
    /// Inter-set write COV.
    pub inter_set: f64,
    /// Intra-set write COV.
    pub intra_set: f64,
}

/// Runs the whole suite and computes both COV metrics per workload.
pub fn compute(exec: &Executor, plan: &RunPlan) -> Vec<Fig3Row> {
    let workloads = suite::all();
    exec.map(&workloads, |w| {
        let wv = exec.run(L2Choice::SramBaseline, w, plan).writes.variation;
        Fig3Row {
            workload: w.name.clone(),
            inter_set: wv.inter_set,
            intra_set: wv.intra_set,
        }
    })
}

/// Renders the figure as a table (values in percent, as the paper's axis).
pub fn render(rows: &[Fig3Row]) -> String {
    let mut out = String::from("Fig. 3: inter- and intra-set write variation (COV)\n");
    let mut body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.workload.clone(),
                report::pct(r.inter_set),
                report::pct(r.intra_set),
            ]
        })
        .collect();
    let g_inter = report::gmean(&rows.iter().map(|r| r.inter_set).collect::<Vec<_>>());
    let g_intra = report::gmean(&rows.iter().map(|r| r.intra_set).collect::<Vec<_>>());
    body.push(vec![
        "Gmean".to_owned(),
        report::pct(g_inter),
        report::pct(g_intra),
    ]);
    out.push_str(&report::table(
        &["workload", "inter-set", "intra-set"],
        &body,
    ));
    out
}

/// Renders the rows as CSV (raw fractions, not percentages).
pub fn to_csv(rows: &[Fig3Row]) -> String {
    report::csv(
        &["workload", "inter_set_cov", "intra_set_cov"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.workload.clone(),
                    format!("{:.6}", r.inter_set),
                    format!("{:.6}", r.intra_set),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The headline property of Fig. 3: write-concentrated workloads show
    /// far higher variation than streaming/even-write workloads.
    #[test]
    fn concentrated_writers_beat_even_writers() {
        let plan = RunPlan {
            scale: 0.08,
            max_cycles: 3_000_000,
            check: false,
            ..RunPlan::full()
        };
        let rows = compute(&Executor::auto(), &plan);
        let get = |name: &str| {
            rows.iter()
                .find(|r| r.workload == name)
                .unwrap_or_else(|| panic!("{name} missing"))
                .clone()
        };
        let hot = get("mri_gridding");
        let even = get("stencil");
        assert!(
            hot.inter_set + hot.intra_set > 2.0 * (even.inter_set + even.intra_set),
            "mri_gridding ({:.2}/{:.2}) must dwarf stencil ({:.2}/{:.2})",
            hot.inter_set,
            hot.intra_set,
            even.inter_set,
            even.intra_set
        );
        let render = render(&rows);
        assert!(render.contains("Gmean"));
    }
}
