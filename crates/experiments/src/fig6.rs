//! Fig. 6: distribution of rewrite-interval times in the LR cache.
//!
//! Runs each workload on C1 and buckets the time between successive
//! writes to the same LR line (≤1 µs, ≤5 µs, ≤10 µs, ≤1 ms, ≤2.5 ms,
//! >2.5 ms). The paper's observation — most LR blocks are rewritten well
//! > within 10 µs, which is what makes a µs-class retention LR viable — is
//! > what justifies the LR retention target and its 4-bit retention counter.

use sttgpu_workloads::suite;

use crate::configs::L2Choice;
use crate::report;
use crate::runner::{Executor, RunPlan};

/// Bucket labels, matching [`sttgpu_core`]'s rewrite-interval histogram
/// layout.
pub(crate) const BUCKET_LABELS: [&str; 6] =
    ["<=1us", "<=5us", "<=10us", "<=1ms", "<=2.5ms", ">2.5ms"];

/// One workload's rewrite-interval distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Row {
    /// Workload name.
    pub workload: String,
    /// Fraction of rewrite intervals per bucket (sums to 1 when any
    /// rewrites were observed).
    pub fractions: [f64; 6],
    /// Total rewrite intervals observed.
    pub total: u64,
}

/// Runs the suite on C1 and collects LR rewrite-interval distributions.
pub fn compute(exec: &Executor, plan: &RunPlan) -> Vec<Fig6Row> {
    let workloads = suite::all();
    exec.map(&workloads, |w| {
        let out = exec.run(L2Choice::TwoPartC1, w, plan);
        let h = out.lr_rewrite_intervals.as_ref().expect("C1 is two-part");
        let f = h.fractions();
        let mut fractions = [0.0f64; 6];
        fractions.copy_from_slice(&f);
        Fig6Row {
            workload: w.name.clone(),
            fractions,
            total: h.total(),
        }
    })
}

/// Renders the distribution table (percentages, as the paper's stacked
/// bars).
pub fn render(rows: &[Fig6Row]) -> String {
    let mut out = String::from("Fig. 6: rewrite interval time distribution in the LR cache\n");
    let mut body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut cells = vec![r.workload.clone()];
            cells.extend(r.fractions.iter().map(|f| report::pct(*f)));
            cells
        })
        .collect();
    let mut avg = vec!["AVG".to_owned()];
    for i in 0..6 {
        let col: Vec<f64> = rows.iter().map(|r| r.fractions[i]).collect();
        avg.push(report::pct(report::mean(&col)));
    }
    body.push(avg);
    let mut headers = vec!["workload"];
    headers.extend(BUCKET_LABELS);
    out.push_str(&report::table(&headers, &body));
    out
}

/// Renders the distributions as long-format CSV.
pub fn to_csv(rows: &[Fig6Row]) -> String {
    let mut body = Vec::new();
    for r in rows {
        for (i, label) in BUCKET_LABELS.iter().enumerate() {
            body.push(vec![
                r.workload.clone(),
                (*label).to_owned(),
                format!("{:.6}", r.fractions[i]),
                r.total.to_string(),
            ]);
        }
    }
    report::csv(&["workload", "bucket", "fraction", "total_rewrites"], &body)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fig. 6's message: the bulk of LR rewrites happen within 10 us.
    #[test]
    fn most_rewrites_are_fast() {
        let plan = RunPlan {
            scale: 0.06,
            max_cycles: 3_000_000,
            check: false,
            ..RunPlan::full()
        };
        let w = suite::by_name("kmeans").expect("kmeans");
        let out = crate::runner::run(L2Choice::TwoPartC1, &w, &plan);
        let h = out.lr_rewrite_intervals.expect("two-part");
        assert!(
            h.total() > 100,
            "kmeans must rewrite LR lines, saw {}",
            h.total()
        );
        let within_10us = h.cumulative_fraction_at(10_000);
        assert!(
            within_10us > 0.5,
            "most rewrites must be within 10us, got {within_10us}"
        );
    }
}
