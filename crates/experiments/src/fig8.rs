//! Fig. 8: the headline evaluation — speedup (a), dynamic power (b) and
//! total L2 power (c) of all five configurations, normalised to the SRAM
//! baseline, grouped by behavioural region.
//!
//! Paper shape to reproduce:
//!
//! * STT-RAM baseline: ~+5 % average IPC but **regressions** on
//!   write-heavy workloads; C1 ~+16 % average (up to >100 %) with **no**
//!   regressions; C2/C3 help register-limited workloads;
//! * dynamic power: every STT design costs more than SRAM (C1 ≈ 1.69×,
//!   C3 ≈ 1.94×), and the uniform STT baseline is several times C1;
//! * total power: leakage dominates — C1 ≈ −20 %, C2 ≈ −63.5 %,
//!   C3 ≈ −42 % vs. SRAM, while the STT baseline *gains* (~+19 %).

use sttgpu_workloads::{suite, Region};

use crate::configs::L2Choice;
use crate::report;
use crate::runner::{Executor, RunPlan};

/// Results of one workload across all five configurations.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Workload name.
    pub workload: String,
    /// Behavioural region (figure grouping).
    pub region: Region,
    /// Speedup vs. SRAM baseline, indexed by [`L2Choice::ALL`] (the
    /// baseline's own entry is 1.0).
    pub speedup: [f64; 5],
    /// Dynamic L2 power normalised to the SRAM baseline.
    pub(crate) dynamic_power: [f64; 5],
    /// Total L2 power normalised to the SRAM baseline.
    pub(crate) total_power: [f64; 5],
}

/// Aggregate (geometric-mean) row across the suite.
#[derive(Debug, Clone)]
pub struct Fig8Summary {
    /// Gmean speedups by configuration.
    pub speedup: [f64; 5],
    /// Gmean normalised dynamic power.
    pub(crate) dynamic_power: [f64; 5],
    /// Gmean normalised total power.
    pub(crate) total_power: [f64; 5],
}

/// Runs the full (workload × configuration) cross product — every point
/// fanned across the executor's pool — and normalises against the SRAM
/// baseline.
pub fn compute(exec: &Executor, plan: &RunPlan) -> (Vec<Fig8Row>, Fig8Summary) {
    let workloads = suite::all();
    let points: Vec<(usize, L2Choice)> = (0..workloads.len())
        .flat_map(|wi| L2Choice::ALL.iter().map(move |&choice| (wi, choice)))
        .collect();
    let all_outputs = exec.map(&points, |&(wi, choice)| {
        exec.run(choice, &workloads[wi], plan)
    });
    let mut rows = Vec::new();
    for (wi, w) in workloads.iter().enumerate() {
        let outputs = &all_outputs[wi * L2Choice::ALL.len()..(wi + 1) * L2Choice::ALL.len()];
        let base = &outputs[0].metrics;
        let base_dyn = base.l2_dynamic_power_mw().max(1e-9);
        let base_tot = base.l2_total_power_mw().max(1e-9);
        let mut speedup = [0.0f64; 5];
        let mut dynamic_power = [0.0f64; 5];
        let mut total_power = [0.0f64; 5];
        for (i, out) in outputs.iter().enumerate() {
            speedup[i] = out.metrics.speedup_over(base);
            dynamic_power[i] = out.metrics.l2_dynamic_power_mw() / base_dyn;
            total_power[i] = out.metrics.l2_total_power_mw() / base_tot;
        }
        rows.push(Fig8Row {
            workload: w.name.clone(),
            region: suite::region_of(&w.name).expect("suite workload"),
            speedup,
            dynamic_power,
            total_power,
        });
    }
    let mut summary = Fig8Summary {
        speedup: [0.0; 5],
        dynamic_power: [0.0; 5],
        total_power: [0.0; 5],
    };
    for i in 0..5 {
        summary.speedup[i] = report::gmean(&rows.iter().map(|r| r.speedup[i]).collect::<Vec<_>>());
        summary.dynamic_power[i] =
            report::gmean(&rows.iter().map(|r| r.dynamic_power[i]).collect::<Vec<_>>());
        summary.total_power[i] =
            report::gmean(&rows.iter().map(|r| r.total_power[i]).collect::<Vec<_>>());
    }
    (rows, summary)
}

fn panel(
    title: &str,
    rows: &[Fig8Row],
    summary_vals: [f64; 5],
    pick: fn(&Fig8Row) -> [f64; 5],
) -> String {
    let mut out = format!("{title}\n");
    let mut sorted: Vec<&Fig8Row> = rows.iter().collect();
    sorted.sort_by_key(|r| (r.region.index(), r.workload.clone()));
    let mut body: Vec<Vec<String>> = sorted
        .iter()
        .map(|r| {
            let vals = pick(r);
            let mut cells = vec![format!("[{}] {}", r.region.index(), r.workload)];
            cells.extend(vals.iter().map(|v| report::ratio(*v)));
            cells
        })
        .collect();
    let mut g = vec!["Gmean".to_owned()];
    g.extend(summary_vals.iter().map(|v| report::ratio(*v)));
    body.push(g);
    out.push_str(&report::table(
        &["workload", "baseline", "STT-RAM", "C1", "C2", "C3"],
        &body,
    ));
    out.push('\n');
    out
}

/// Renders all three panels.
pub fn render(rows: &[Fig8Row], summary: &Fig8Summary) -> String {
    let mut out = String::from(
        "Fig. 8: performance and power normalised to the SRAM baseline\n\
         (workloads prefixed by their region: 1=insensitive, 2=register-limited,\n\
          3=register+cache, 4=cache-friendly)\n\n",
    );
    out.push_str(&panel("(a) speedup", rows, summary.speedup, |r| r.speedup));
    out.push_str(&panel(
        "(b) L2 dynamic power",
        rows,
        summary.dynamic_power,
        |r| r.dynamic_power,
    ));
    out.push_str(&panel(
        "(c) L2 total power",
        rows,
        summary.total_power,
        |r| r.total_power,
    ));

    out.push_str("per-region speedup (gmean):\n");
    let body: Vec<Vec<String>> = region_summary(rows)
        .into_iter()
        .map(|(region, vals)| {
            let mut cells = vec![region.to_string()];
            cells.extend(vals.iter().map(|v| report::ratio(*v)));
            cells
        })
        .collect();
    out.push_str(&report::table(
        &["region", "baseline", "STT-RAM", "C1", "C2", "C3"],
        &body,
    ));
    out
}

/// Geometric-mean speedups per behavioural region (the paper walks Fig. 8a
/// region by region).
pub(crate) fn region_summary(rows: &[Fig8Row]) -> Vec<(Region, [f64; 5])> {
    Region::ALL
        .iter()
        .map(|&region| {
            let mut vals = [0.0f64; 5];
            for (i, v) in vals.iter_mut().enumerate() {
                let col: Vec<f64> = rows
                    .iter()
                    .filter(|r| r.region == region)
                    .map(|r| r.speedup[i])
                    .collect();
                *v = report::gmean(&col);
            }
            (region, vals)
        })
        .collect()
}

/// Renders all three panels as long-format CSV (one row per workload x
/// configuration).
pub fn to_csv(rows: &[Fig8Row]) -> String {
    use crate::configs::L2Choice;
    let mut body = Vec::new();
    for r in rows {
        for (i, choice) in L2Choice::ALL.iter().enumerate() {
            body.push(vec![
                r.workload.clone(),
                r.region.index().to_string(),
                choice.label().to_owned(),
                format!("{:.6}", r.speedup[i]),
                format!("{:.6}", r.dynamic_power[i]),
                format!("{:.6}", r.total_power[i]),
            ]);
        }
    }
    report::csv(
        &[
            "workload",
            "region",
            "config",
            "speedup",
            "dynamic_power_norm",
            "total_power_norm",
        ],
        &body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run;

    /// A reduced-scale end-to-end check of the headline shape on two
    /// contrasting workloads (the full suite runs in the repro binary).
    #[test]
    fn c1_beats_stt_baseline_on_write_heavy_work() {
        let plan = RunPlan {
            scale: 0.3,
            max_cycles: 3_000_000,
            check: false,
            ..RunPlan::full()
        };
        let w = suite::by_name("nw").expect("nw");
        let base = run(L2Choice::SramBaseline, &w, &plan);
        let stt = run(L2Choice::SttBaseline, &w, &plan);
        let c1 = run(L2Choice::TwoPartC1, &w, &plan);
        let stt_speedup = stt.metrics.speedup_over(&base.metrics);
        let c1_speedup = c1.metrics.speedup_over(&base.metrics);
        assert!(
            c1_speedup > stt_speedup,
            "C1 ({c1_speedup:.3}) must beat the uniform STT baseline \
             ({stt_speedup:.3}) on the write-heaviest workload"
        );
    }

    #[test]
    fn total_power_drops_with_c1_and_c2() {
        let plan = RunPlan {
            scale: 0.08,
            max_cycles: 3_000_000,
            check: false,
            ..RunPlan::full()
        };
        let w = suite::by_name("lud").expect("lud");
        let base = run(L2Choice::SramBaseline, &w, &plan);
        let c1 = run(L2Choice::TwoPartC1, &w, &plan);
        let c2 = run(L2Choice::TwoPartC2, &w, &plan);
        let base_tot = base.metrics.l2_total_power_mw();
        assert!(c1.metrics.l2_total_power_mw() < base_tot);
        assert!(c2.metrics.l2_total_power_mw() < c1.metrics.l2_total_power_mw());
    }
}
