//! Design-space studies beyond the paper's figures.
//!
//! DESIGN.md calls out four design decisions the paper asserts but does
//! not sweep; each gets an ablation here:
//!
//! 1. **search mode** — sequential (the paper's choice) vs. parallel tag
//!    probing: performance vs. tag energy;
//! 2. **swap-buffer capacity** — the paper sizes both buffers at 10
//!    blocks and reports ≤1 % forced write-backs; sweep 1–20 blocks;
//! 3. **HR retention** — "4 ms handles >90 % of HR rewrites": sweep
//!    0.02–4 ms on a long run and watch expiries/hit-rate collapse below
//!    the data's lifetime;
//! 4. **LR capacity** — how big must the LR be to hold the WWS (48–384 KB
//!    against the C1 HR array);
//! 5. **endurance** — STT-RAM cells endure a bounded number of write
//!    pulses; the LR partition *deliberately concentrates* writes, so the
//!    lifetime cost of that concentration (vs. the uniform STT baseline)
//!    is worth measuring;
//! 6. **warp scheduler** — loose round-robin vs. greedy-then-oldest under
//!    the C1 memory system;
//! 7. **early write termination** (Zhou et al., the paper's §3) — EWT
//!    write drivers stacked on top of the two-part design;
//! 8. **refresh timing** — the paper postpones LR refresh to the last
//!    retention-counter tick; eager policies refresh earlier and pay for
//!    it in refresh traffic and energy;
//! 9. **LR wear-rotation** — a countermeasure to ablation 5's finding:
//!    periodically drain the LR and rotate its set mapping, recovering
//!    leveling headroom at a small migration cost.

use sttgpu_core::{SearchMode, TwoPartConfig};
use sttgpu_device::mtj::RetentionTime;
use sttgpu_workloads::suite;

use crate::configs::{c1_with, gpu_config, L2Choice};
use crate::report;
use crate::runner::{Executor, RunPlan};

/// Search-mode ablation result for one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchRow {
    /// Workload name.
    pub workload: String,
    /// IPC ratio parallel / sequential.
    pub(crate) ipc_ratio: f64,
    /// Tag-lookup energy ratio parallel / sequential.
    pub(crate) tag_energy_ratio: f64,
    /// Fraction of sequential hits that needed the second probe.
    pub(crate) second_search_fraction: f64,
}

/// Runs the sequential-vs-parallel search ablation.
pub fn search_mode(exec: &Executor, plan: &RunPlan) -> Vec<SearchRow> {
    use sttgpu_device::energy::EnergyEvent;
    let workloads = suite::all();
    exec.map(&workloads, |w| {
        let seq = exec.run_config(
            c1_with(|tp| tp.with_search(SearchMode::Sequential)),
            w,
            plan,
        );
        let par = exec.run_config(c1_with(|tp| tp.with_search(SearchMode::Parallel)), w, plan);
        let seq_stats = seq.two_part.expect("two-part");
        let hits = seq_stats.lr_read_hits
            + seq_stats.hr_read_hits
            + seq_stats.lr_write_hits
            + seq_stats.hr_write_hits;
        SearchRow {
            workload: w.name.clone(),
            ipc_ratio: par.metrics.ipc() / seq.metrics.ipc().max(1e-9),
            tag_energy_ratio: par.metrics.l2_energy.dynamic_nj_for(EnergyEvent::TagLookup)
                / seq
                    .metrics
                    .l2_energy
                    .dynamic_nj_for(EnergyEvent::TagLookup)
                    .max(1e-9),
            second_search_fraction: if hits == 0 {
                0.0
            } else {
                seq_stats.second_search_hits as f64 / hits as f64
            },
        }
    })
}

/// Swap-buffer capacity ablation result.
#[derive(Debug, Clone, PartialEq)]
pub struct BufferRow {
    /// Buffer capacity in blocks.
    pub blocks: usize,
    /// Forced write-backs caused by overflows.
    pub overflow_writebacks: u64,
    /// Fraction of demand writes lost to forced write-backs.
    pub(crate) writeback_fraction: f64,
}

/// Capacities swept by the buffer ablation.
pub(crate) const BUFFER_SIZES: [usize; 5] = [1, 2, 5, 10, 20];

/// Runs the swap-buffer sizing ablation over the write-heavy workloads,
/// fanning every (capacity, workload) point across the executor's pool.
pub(crate) fn buffer_capacity(exec: &Executor, plan: &RunPlan) -> Vec<BufferRow> {
    let heavy: Vec<_> = ["nw", "lbm", "mri_gridding", "kmeans"]
        .iter()
        .map(|n| suite::by_name(n).expect("suite workload"))
        .collect();
    let points: Vec<(usize, usize)> = (0..BUFFER_SIZES.len())
        .flat_map(|bi| (0..heavy.len()).map(move |wi| (bi, wi)))
        .collect();
    let outs = exec.map(&points, |&(bi, wi)| {
        exec.run_config(
            c1_with(|tp| tp.with_buffer_blocks(BUFFER_SIZES[bi])),
            &heavy[wi],
            plan,
        )
    });
    BUFFER_SIZES
        .iter()
        .enumerate()
        .map(|(bi, &blocks)| {
            let mut overflow_writebacks = 0;
            let mut writes = 0;
            for wi in 0..heavy.len() {
                let tp = outs[bi * heavy.len() + wi].two_part.expect("two-part");
                overflow_writebacks += tp.overflow_writebacks;
                writes += tp.demand_writes();
            }
            BufferRow {
                blocks,
                overflow_writebacks,
                writeback_fraction: if writes == 0 {
                    0.0
                } else {
                    overflow_writebacks as f64 / writes as f64
                },
            }
        })
        .collect()
}

/// HR-retention ablation result.
#[derive(Debug, Clone, PartialEq)]
pub struct HrRetentionRow {
    /// HR retention, ms.
    pub(crate) retention_ms: f64,
    /// HR lines expired per million cycles.
    pub(crate) expiries_per_mcycle: f64,
    /// L2 hit rate.
    pub hit_rate: f64,
    /// IPC relative to the 4 ms default.
    pub(crate) ipc_norm: f64,
}

/// Retentions swept by the HR ablation, ms. The low end sits below the
/// lifetime of hot read-only data so expiries become visible; 4 ms is the
/// paper's choice.
pub(crate) const HR_RETENTIONS_MS: [f64; 4] = [0.02, 0.1, 1.0, 4.0];

/// Runs the HR-retention ablation over read-mostly workloads (where
/// expiry hurts most). The workload is scaled up 4x so the run spans a
/// millisecond-class interval and retention actually binds.
pub fn hr_retention(exec: &Executor, plan: &RunPlan) -> Vec<HrRetentionRow> {
    let plan = &RunPlan {
        scale: plan.scale * 4.0,
        max_cycles: plan.max_cycles * 4,
        check: false,
        ..RunPlan::full()
    };
    let w = suite::by_name("streamcluster").expect("streamcluster");
    // Point 0 is the unmodified C1 (the IPC normalisation base).
    let points: Vec<Option<f64>> = std::iter::once(None)
        .chain(HR_RETENTIONS_MS.iter().map(|&ms| Some(ms)))
        .collect();
    let outs = exec.map(&points, |&point| {
        let cfg = c1_with(|tp| match point {
            None => tp,
            Some(ms) => tp.with_hr_retention(RetentionTime::from_millis(ms)),
        });
        exec.run_config(cfg, &w, plan)
    });
    let default_ipc = outs[0].metrics.ipc();
    HR_RETENTIONS_MS
        .iter()
        .enumerate()
        .map(|(i, &ms)| {
            let out = &outs[i + 1];
            let stats = out.two_part.expect("two-part");
            HrRetentionRow {
                retention_ms: ms,
                expiries_per_mcycle: stats.hr_expirations as f64
                    / (out.metrics.cycles as f64 / 1e6).max(1e-9),
                hit_rate: out.metrics.l2.hit_rate(),
                ipc_norm: out.metrics.ipc() / default_ipc.max(1e-9),
            }
        })
        .collect()
}

/// LR-capacity ablation result.
#[derive(Debug, Clone, PartialEq)]
pub struct LrSizeRow {
    /// LR capacity, KB (HR fixed at C1's 1344 KB).
    pub lr_kb: u64,
    /// LR write utilisation (fraction of demand writes served in LR).
    pub lr_write_utilization: f64,
    /// LR→HR demotions per thousand demand writes (thrash indicator).
    pub(crate) demotions_per_kilo_write: f64,
}

/// LR capacities swept, KB.
pub(crate) const LR_SIZES_KB: [u64; 4] = [48, 96, 192, 384];

/// Runs the LR sizing ablation on the most write-concentrated workloads,
/// fanning every (size, workload) point across the executor's pool.
pub(crate) fn lr_size(exec: &Executor, plan: &RunPlan) -> Vec<LrSizeRow> {
    let heavy: Vec<_> = ["kmeans", "mri_gridding", "bfs"]
        .iter()
        .map(|n| suite::by_name(n).expect("suite workload"))
        .collect();
    let points: Vec<(usize, usize)> = (0..LR_SIZES_KB.len())
        .flat_map(|si| (0..heavy.len()).map(move |wi| (si, wi)))
        .collect();
    let outs = exec.map(&points, |&(si, wi)| {
        let cfg = c1_with(|tp| TwoPartConfig {
            lr_kb: LR_SIZES_KB[si],
            ..tp
        });
        exec.run_config(cfg, &heavy[wi], plan)
    });
    LR_SIZES_KB
        .iter()
        .enumerate()
        .map(|(si, &lr_kb)| {
            let mut util = Vec::new();
            let mut demotions = 0u64;
            let mut writes = 0u64;
            for wi in 0..heavy.len() {
                let stats = outs[si * heavy.len() + wi].two_part.expect("two-part");
                util.push(stats.lr_write_utilization());
                demotions += stats.demotions_to_hr;
                writes += stats.demand_writes();
            }
            LrSizeRow {
                lr_kb,
                lr_write_utilization: report::mean(&util),
                demotions_per_kilo_write: if writes == 0 {
                    0.0
                } else {
                    demotions as f64 * 1000.0 / writes as f64
                },
            }
        })
        .collect()
}

/// Endurance ablation result for one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct EnduranceRow {
    /// Workload name.
    pub workload: String,
    /// Estimated lifetime of the uniform STT-RAM baseline L2, years.
    pub(crate) stt_lifetime_years: f64,
    /// Estimated lifetime of C1's LR partition, years (its hottest line
    /// wears first — the cost of concentrating the WWS).
    pub(crate) c1_lr_lifetime_years: f64,
    /// Estimated lifetime of C1's HR partition, years.
    pub(crate) c1_hr_lifetime_years: f64,
    /// i2WAP-style mean/max leveling headroom of the LR partition.
    pub(crate) lr_leveling_headroom: f64,
    /// LR lifetime with 1 ms wear-rotation enabled, years (ablation 9).
    pub(crate) rotated_lr_lifetime_years: f64,
    /// LR leveling headroom with rotation enabled.
    pub(crate) rotated_lr_headroom: f64,
}

/// Runs the endurance study on the write-concentrated workloads.
pub fn endurance(exec: &Executor, plan: &RunPlan) -> Vec<EnduranceRow> {
    let names = ["kmeans", "mri_gridding", "tpacf", "nw"];
    exec.map(&names, |name| {
        {
            let w = suite::by_name(name).expect("suite workload");
            let stt_est = exec.run(L2Choice::SttBaseline, &w, plan).writes.lifetime;
            let c1 = exec.run(L2Choice::TwoPartC1, &w, plan);
            let lr_est = c1.writes.lr_lifetime.expect("C1 is two-part");
            let hr_est = c1.writes.hr_lifetime.expect("C1 is two-part");
            // Ablation 9: the same run with LR wear-rotation. The period
            // is sized to give ~10 epochs within the (sub-millisecond)
            // simulated window; a real deployment would rotate every few
            // ms, which is the same epochs-per-lifetime ratio at scale.
            let rotation_ms = (c1.metrics.elapsed_ns as f64 / 10.0 / 1e6).max(0.001);
            let rotated =
                exec.run_config(c1_with(|tp| tp.with_lr_rotation_ms(rotation_ms)), &w, plan);
            let rot_est = rotated.writes.lr_lifetime.expect("C1 is two-part");
            EnduranceRow {
                workload: w.name.clone(),
                stt_lifetime_years: stt_est.lifetime_years(),
                c1_lr_lifetime_years: lr_est.lifetime_years(),
                c1_hr_lifetime_years: hr_est.lifetime_years(),
                lr_leveling_headroom: lr_est.leveling_headroom(),
                rotated_lr_lifetime_years: rot_est.lifetime_years(),
                rotated_lr_headroom: rot_est.leveling_headroom(),
            }
        }
    })
}

/// Scheduler ablation result.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerRow {
    /// Workload name.
    pub workload: String,
    /// IPC ratio GTO / loose round-robin on the C1 configuration.
    pub(crate) gto_ipc_ratio: f64,
    /// L1 hit-rate difference (GTO − LRR), percentage points.
    pub(crate) l1_hit_delta_pp: f64,
}

/// Runs the warp-scheduler ablation on a locality-sensitive subset.
pub fn scheduler(exec: &Executor, plan: &RunPlan) -> Vec<SchedulerRow> {
    use sttgpu_sim::WarpScheduler;
    let names = ["stencil", "hotspot", "bfs", "streamcluster"];
    exec.map(&names, |name| {
        let w = suite::by_name(name).expect("suite workload");
        let mut lrr_cfg = gpu_config(L2Choice::TwoPartC1);
        lrr_cfg.scheduler = WarpScheduler::LooseRoundRobin;
        let mut gto_cfg = gpu_config(L2Choice::TwoPartC1);
        gto_cfg.scheduler = WarpScheduler::GreedyThenOldest;
        let lrr = exec.run_config(lrr_cfg, &w, plan);
        let gto = exec.run_config(gto_cfg, &w, plan);
        SchedulerRow {
            workload: w.name.clone(),
            gto_ipc_ratio: gto.metrics.ipc() / lrr.metrics.ipc().max(1e-9),
            l1_hit_delta_pp: (gto.metrics.l1_hit_rate() - lrr.metrics.l1_hit_rate()) * 100.0,
        }
    })
}

/// EWT ablation result.
#[derive(Debug, Clone, PartialEq)]
pub struct EwtRow {
    /// Workload name.
    pub workload: String,
    /// L2 dynamic power with EWT / without, on C1.
    pub(crate) dynamic_power_ratio: f64,
    /// IPC ratio (should be 1.0 — EWT is energy-only).
    pub(crate) ipc_ratio: f64,
}

/// Early-write-termination savings fraction used by the ablation.
pub(crate) const EWT_SAVINGS: f64 = 0.6;

/// Runs the EWT ablation on the write-heavy subset.
pub fn ewt(exec: &Executor, plan: &RunPlan) -> Vec<EwtRow> {
    let names = ["nw", "lbm", "mri_gridding"];
    exec.map(&names, |name| {
        let w = suite::by_name(name).expect("suite workload");
        // The EWT-off base is exactly C1 — share it via the memoized path.
        let base = exec.run(L2Choice::TwoPartC1, &w, plan);
        let ewt = exec.run_config(c1_with(|tp| tp.with_ewt_savings(EWT_SAVINGS)), &w, plan);
        EwtRow {
            workload: w.name.clone(),
            dynamic_power_ratio: ewt.metrics.l2_dynamic_power_mw()
                / base.metrics.l2_dynamic_power_mw().max(1e-9),
            ipc_ratio: ewt.metrics.ipc() / base.metrics.ipc().max(1e-9),
        }
    })
}

/// Refresh-timing ablation result.
#[derive(Debug, Clone, PartialEq)]
pub struct RefreshRow {
    /// Refresh slack in LR retention-counter ticks (0 = paper's policy).
    pub slack_ticks: u32,
    /// Total LR refreshes across the subset.
    pub refreshes: u64,
    /// Refresh share of dynamic L2 energy.
    pub(crate) refresh_energy_share: f64,
    /// LR expirations (data loss; must stay 0 for every policy).
    pub lr_expirations: u64,
}

/// Slack values swept by the refresh-timing ablation.
pub(crate) const REFRESH_SLACKS: [u32; 4] = [0, 4, 8, 12];

/// Runs the refresh-timing ablation on workloads whose LR lines linger
/// (rare rewrites), where refresh policy actually matters.
pub(crate) fn refresh_timing(exec: &Executor, plan: &RunPlan) -> Vec<RefreshRow> {
    use sttgpu_device::energy::EnergyEvent;
    let lingering: Vec<_> = ["sad", "pathfinder", "streamcluster"]
        .iter()
        .map(|n| suite::by_name(n).expect("suite workload"))
        .collect();
    let points: Vec<(usize, usize)> = (0..REFRESH_SLACKS.len())
        .flat_map(|si| (0..lingering.len()).map(move |wi| (si, wi)))
        .collect();
    let outs = exec.map(&points, |&(si, wi)| {
        exec.run_config(
            c1_with(|tp| tp.with_refresh_slack_ticks(REFRESH_SLACKS[si])),
            &lingering[wi],
            plan,
        )
    });
    REFRESH_SLACKS
        .iter()
        .enumerate()
        .map(|(si, &slack)| {
            let mut refreshes = 0;
            let mut expirations = 0;
            let mut refresh_nj = 0.0;
            let mut total_nj = 0.0;
            for wi in 0..lingering.len() {
                let out = &outs[si * lingering.len() + wi];
                let tp = out.two_part.expect("two-part");
                refreshes += tp.refreshes;
                expirations += tp.lr_expirations;
                refresh_nj += out.metrics.l2_energy.dynamic_nj_for(EnergyEvent::Refresh);
                total_nj += out.metrics.l2_energy.dynamic_nj();
            }
            RefreshRow {
                slack_ticks: slack,
                refreshes,
                refresh_energy_share: if total_nj == 0.0 {
                    0.0
                } else {
                    refresh_nj / total_nj
                },
                lr_expirations: expirations,
            }
        })
        .collect()
}

/// Renders all eight ablations.
pub fn render(exec: &Executor, plan: &RunPlan) -> String {
    let mut out = String::from("Ablations (beyond the paper)\n\n");

    out.push_str("(1) sequential vs. parallel search:\n");
    let rows: Vec<Vec<String>> = search_mode(exec, plan)
        .into_iter()
        .map(|r| {
            vec![
                r.workload,
                report::ratio(r.ipc_ratio),
                report::ratio(r.tag_energy_ratio),
                report::pct(r.second_search_fraction),
            ]
        })
        .collect();
    out.push_str(&report::table(
        &["workload", "IPC par/seq", "tagE par/seq", "2nd-probe hits"],
        &rows,
    ));
    out.push('\n');

    out.push_str("(2) swap-buffer capacity (write-heavy subset):\n");
    let rows: Vec<Vec<String>> = buffer_capacity(exec, plan)
        .into_iter()
        .map(|r| {
            vec![
                format!("{} blocks", r.blocks),
                format!("{}", r.overflow_writebacks),
                report::pct(r.writeback_fraction),
            ]
        })
        .collect();
    out.push_str(&report::table(
        &["capacity", "forced writebacks", "of demand writes"],
        &rows,
    ));
    out.push('\n');

    out.push_str("(3) HR retention (streamcluster):\n");
    let rows: Vec<Vec<String>> = hr_retention(exec, plan)
        .into_iter()
        .map(|r| {
            vec![
                format!("{} ms", r.retention_ms),
                format!("{:.1}", r.expiries_per_mcycle),
                report::pct(r.hit_rate),
                report::ratio(r.ipc_norm),
            ]
        })
        .collect();
    out.push_str(&report::table(
        &["retention", "expiries/Mcycle", "L2 hit rate", "IPC vs 4ms"],
        &rows,
    ));
    out.push('\n');

    out.push_str("(4) LR capacity (HR fixed at 1344 KB, write-hot subset):\n");
    let rows: Vec<Vec<String>> = lr_size(exec, plan)
        .into_iter()
        .map(|r| {
            vec![
                format!("{} KB", r.lr_kb),
                report::pct(r.lr_write_utilization),
                format!("{:.1}", r.demotions_per_kilo_write),
            ]
        })
        .collect();
    out.push_str(&report::table(
        &["LR size", "LR write util", "demotions/kWrite"],
        &rows,
    ));
    out.push('\n');

    out.push_str("(5) endurance (write-concentrated subset, 4e12-write cells):\n");
    let fmt_life = |y: f64| {
        if y.is_infinite() {
            "inf".to_owned()
        } else if y >= 1.0 {
            format!("{y:.1}y")
        } else if y * 365.25 >= 1.0 {
            format!("{:.1}d", y * 365.25)
        } else {
            format!("{:.1}h", y * 365.25 * 24.0)
        }
    };
    let rows: Vec<Vec<String>> = endurance(exec, plan)
        .into_iter()
        .map(|r| {
            let ratio = if r.stt_lifetime_years > 0.0 {
                r.c1_lr_lifetime_years / r.stt_lifetime_years
            } else {
                0.0
            };
            vec![
                r.workload,
                fmt_life(r.stt_lifetime_years),
                fmt_life(r.c1_lr_lifetime_years),
                fmt_life(r.c1_hr_lifetime_years),
                report::ratio(ratio),
                report::pct(r.lr_leveling_headroom),
                fmt_life(r.rotated_lr_lifetime_years),
                report::pct(r.rotated_lr_headroom),
            ]
        })
        .collect();
    out.push_str(&report::table(
        &[
            "workload",
            "STT-base",
            "C1 LR",
            "C1 HR",
            "LR/base",
            "LR mean/max",
            "rotated LR",
            "rot mean/max",
        ],
        &rows,
    ));
    out.push_str(
        "(lifetimes extrapolate the simulated write rate as if sustained 24/7;\n\
         the relative columns are the architectural signal: concentrating the\n\
         WWS in the small LR array shortens its life vs. the uniform baseline,\n\
         the wear-leveling cost of the paper's energy/latency win; the two\n\
         right columns show LR wear-rotation recovering that headroom)\n",
    );
    out.push('\n');

    out.push_str("(6) warp scheduler: GTO vs. loose round-robin on C1:\n");
    let rows: Vec<Vec<String>> = scheduler(exec, plan)
        .into_iter()
        .map(|r| {
            vec![
                r.workload,
                report::ratio(r.gto_ipc_ratio),
                format!("{:+.1}pp", r.l1_hit_delta_pp),
            ]
        })
        .collect();
    out.push_str(&report::table(
        &["workload", "IPC GTO/LRR", "L1 hit delta"],
        &rows,
    ));
    out.push('\n');

    out.push_str(&format!(
        "(7) early write termination ({}% savings) on C1, write-heavy subset:\n",
        (EWT_SAVINGS * 100.0) as u32
    ));
    let rows: Vec<Vec<String>> = ewt(exec, plan)
        .into_iter()
        .map(|r| {
            vec![
                r.workload,
                report::ratio(r.dynamic_power_ratio),
                report::ratio(r.ipc_ratio),
            ]
        })
        .collect();
    out.push_str(&report::table(
        &["workload", "dyn power w/EWT", "IPC w/EWT"],
        &rows,
    ));
    out.push('\n');

    out.push_str("(8) refresh timing: slack ticks before the RC deadline (0 = paper):\n");
    let rows: Vec<Vec<String>> = refresh_timing(exec, plan)
        .into_iter()
        .map(|r| {
            vec![
                format!("slack {}", r.slack_ticks),
                r.refreshes.to_string(),
                report::pct(r.refresh_energy_share),
                r.lr_expirations.to_string(),
            ]
        })
        .collect();
    out.push_str(&report::table(
        &[
            "policy",
            "LR refreshes",
            "refresh energy share",
            "expirations",
        ],
        &rows,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_config;

    fn tiny_plan() -> RunPlan {
        RunPlan {
            scale: 0.05,
            max_cycles: 3_000_000,
            check: false,
            ..RunPlan::full()
        }
    }

    #[test]
    fn parallel_search_costs_tag_energy() {
        let plan = tiny_plan();
        let w = suite::by_name("lud").expect("lud");
        use sttgpu_device::energy::EnergyEvent;
        let seq = run_config(
            c1_with(|tp| tp.with_search(SearchMode::Sequential)),
            &w,
            &plan,
        );
        let par = run_config(
            c1_with(|tp| tp.with_search(SearchMode::Parallel)),
            &w,
            &plan,
        );
        let seq_tag = seq.metrics.l2_energy.dynamic_nj_for(EnergyEvent::TagLookup);
        let par_tag = par.metrics.l2_energy.dynamic_nj_for(EnergyEvent::TagLookup);
        assert!(
            par_tag > seq_tag,
            "parallel probing must burn more tag energy ({par_tag} vs {seq_tag})"
        );
    }

    #[test]
    fn wear_rotation_extends_lr_lifetime() {
        let plan = RunPlan {
            scale: 0.2,
            max_cycles: 6_000_000,
            check: false,
            ..RunPlan::full()
        };
        let rows = endurance(&Executor::auto(), &plan);
        // Across the write-hot subset, rotation must improve leveling
        // headroom on the concentrated writers (where it matters).
        let improved = rows
            .iter()
            .filter(|r| r.rotated_lr_headroom > r.lr_leveling_headroom)
            .count();
        assert!(
            improved >= rows.len() - 1,
            "rotation should level most workloads: {rows:?}"
        );
    }

    #[test]
    fn lazy_refresh_beats_eager_refresh() {
        let plan = RunPlan {
            scale: 0.2,
            max_cycles: 6_000_000,
            check: false,
            ..RunPlan::full()
        };
        let rows = refresh_timing(&Executor::auto(), &plan);
        let lazy = rows.iter().find(|r| r.slack_ticks == 0).expect("slack 0");
        let eager = rows.iter().find(|r| r.slack_ticks == 12).expect("slack 12");
        assert!(
            eager.refreshes >= lazy.refreshes,
            "eager ({}) must refresh at least as often as lazy ({})",
            eager.refreshes,
            lazy.refreshes
        );
        assert_eq!(
            lazy.lr_expirations, 0,
            "no data loss under the paper policy"
        );
        assert_eq!(eager.lr_expirations, 0, "no data loss under eager policy");
    }

    #[test]
    fn ewt_cuts_dynamic_power_without_touching_ipc() {
        let plan = tiny_plan();
        let rows = ewt(&Executor::auto(), &plan);
        for r in &rows {
            assert!(
                r.dynamic_power_ratio < 1.0,
                "{}: EWT must save energy, ratio {}",
                r.workload,
                r.dynamic_power_ratio
            );
            assert!(
                (r.ipc_ratio - 1.0).abs() < 1e-9,
                "{}: EWT is energy-only, IPC ratio {}",
                r.workload,
                r.ipc_ratio
            );
        }
    }

    #[test]
    fn tiny_buffers_overflow_big_buffers_do_not() {
        let plan = tiny_plan();
        let rows = buffer_capacity(&Executor::auto(), &plan);
        let one = rows.iter().find(|r| r.blocks == 1).expect("1-block row");
        let twenty = rows.iter().find(|r| r.blocks == 20).expect("20-block row");
        assert!(
            one.overflow_writebacks >= twenty.overflow_writebacks,
            "smaller buffers cannot overflow less"
        );
    }
}
