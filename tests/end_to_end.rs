//! End-to-end integration tests spanning every crate: workloads drive the
//! simulator over each LLC model and the paper's qualitative claims are
//! asserted on the results.

use sttgpu::core::LlcModel;
use sttgpu::experiments::configs::{gpu_config, L2Choice};
use sttgpu::experiments::runner::{run, RunPlan};
use sttgpu::sim::Gpu;
use sttgpu::workloads::suite;

fn plan() -> RunPlan {
    RunPlan {
        scale: 0.3,
        max_cycles: 8_000_000,
        check: false,
        ..RunPlan::full()
    }
}

#[test]
fn every_workload_completes_on_every_configuration() {
    let quick = RunPlan {
        scale: 0.05,
        max_cycles: 8_000_000,
        check: false,
        ..RunPlan::full()
    };
    for w in suite::all() {
        for choice in L2Choice::ALL {
            let out = run(choice, &w, &quick);
            assert!(
                out.metrics.finished,
                "{} did not finish on {}",
                w.name,
                choice.label()
            );
            assert_eq!(out.metrics.kernels_skipped, 0, "{} skipped kernels", w.name);
            assert!(out.metrics.instructions > 0);
            assert!(
                out.metrics.l2.accesses() > 0,
                "{} generated no L2 traffic",
                w.name
            );
        }
    }
}

#[test]
fn runs_are_deterministic_across_repetitions() {
    let w = suite::by_name("kmeans").expect("kmeans");
    let a = run(L2Choice::TwoPartC1, &w, &plan());
    let b = run(L2Choice::TwoPartC1, &w, &plan());
    assert_eq!(a.metrics.cycles, b.metrics.cycles);
    assert_eq!(a.metrics.instructions, b.metrics.instructions);
    let (sa, sb) = (a.two_part.expect("tp"), b.two_part.expect("tp"));
    assert_eq!(sa, sb, "two-part statistics must be bit-identical");
}

#[test]
fn all_configs_commit_the_same_instructions() {
    // The workload trace is architecture-independent; every L2 design must
    // execute exactly the same work.
    let w = suite::by_name("lud").expect("lud");
    let counts: Vec<u64> = L2Choice::ALL
        .iter()
        .map(|&c| run(c, &w, &plan()).metrics.instructions)
        .collect();
    assert!(
        counts.windows(2).all(|p| p[0] == p[1]),
        "instruction counts diverge: {counts:?}"
    );
}

#[test]
fn cache_friendly_workload_rewards_capacity() {
    // bfs overflows the 384 KB SRAM L2 but fits the 4x STT designs: hit
    // rate and IPC must rise on C1.
    let w = suite::by_name("bfs").expect("bfs");
    let base = run(L2Choice::SramBaseline, &w, &plan());
    let c1 = run(L2Choice::TwoPartC1, &w, &plan());
    assert!(
        c1.metrics.l2.hit_rate() > base.metrics.l2.hit_rate() + 0.2,
        "hit rates: base {:.3}, C1 {:.3}",
        base.metrics.l2.hit_rate(),
        c1.metrics.l2.hit_rate()
    );
    assert!(
        c1.metrics.speedup_over(&base.metrics) > 1.5,
        "C1 speedup {:.2} too small",
        c1.metrics.speedup_over(&base.metrics)
    );
    assert!(
        c1.metrics.dram_reads < base.metrics.dram_reads / 2,
        "capacity must cut DRAM traffic"
    );
}

#[test]
fn write_heavy_workload_punishes_uniform_stt_but_not_c1() {
    let w = suite::by_name("nw").expect("nw");
    let base = run(L2Choice::SramBaseline, &w, &plan());
    let stt = run(L2Choice::SttBaseline, &w, &plan());
    let c1 = run(L2Choice::TwoPartC1, &w, &plan());
    let stt_speedup = stt.metrics.speedup_over(&base.metrics);
    let c1_speedup = c1.metrics.speedup_over(&base.metrics);
    assert!(
        stt_speedup < 0.9,
        "uniform STT must regress, got {stt_speedup:.3}"
    );
    assert!(
        c1_speedup > 0.97,
        "C1 must not regress, got {c1_speedup:.3}"
    );
}

#[test]
fn register_limited_workload_gains_from_c2_register_file() {
    // Needs the full-size grid so occupancy binds on every SM.
    let full = RunPlan {
        scale: 1.0,
        max_cycles: 20_000_000,
        check: false,
        ..RunPlan::full()
    };
    let w = suite::by_name("srad_v2").expect("srad_v2");
    let base = run(L2Choice::SramBaseline, &w, &full);
    let c2 = run(L2Choice::TwoPartC2, &w, &full);
    let speedup = c2.metrics.speedup_over(&base.metrics);
    assert!(
        speedup > 1.15,
        "C2 register-file speedup {speedup:.3} too small"
    );
}

#[test]
fn lr_part_captures_the_write_working_set() {
    let w = suite::by_name("kmeans").expect("kmeans");
    let out = run(L2Choice::TwoPartC1, &w, &plan());
    let tp = out.two_part.expect("two-part");
    assert!(
        tp.lr_write_utilization() > 0.9,
        "LR write utilization {:.3}",
        tp.lr_write_utilization()
    );
    assert_eq!(tp.lr_expirations, 0, "no LR data loss under maintenance");
}

#[test]
fn rewrite_intervals_are_overwhelmingly_sub_10us() {
    // The Fig. 6 observation that justifies the 26.5 us LR retention.
    let w = suite::by_name("kmeans").expect("kmeans");
    let out = run(L2Choice::TwoPartC1, &w, &plan());
    let h = out.lr_rewrite_intervals.expect("two-part");
    assert!(h.total() > 500, "too few rewrites observed: {}", h.total());
    assert!(
        h.cumulative_fraction_at(10_000) > 0.9,
        "fast-rewrite fraction {:.3}",
        h.cumulative_fraction_at(10_000)
    );
}

#[test]
fn write_variation_separates_concentrated_from_even_writers() {
    let hot = run(
        L2Choice::SramBaseline,
        &suite::by_name("mri_gridding").expect("w"),
        &plan(),
    );
    let even = run(
        L2Choice::SramBaseline,
        &suite::by_name("cfd").expect("w"),
        &plan(),
    );
    let wv_hot = hot.writes.variation;
    let wv_even = even.writes.variation;
    assert!(
        wv_hot.inter_set + wv_hot.intra_set > 3.0 * (wv_even.inter_set + wv_even.intra_set),
        "hot {wv_hot:?} vs even {wv_even:?}"
    );
}

#[test]
fn total_l2_power_drops_on_the_two_part_designs() {
    // Leakage dominates the SRAM L2; the STT designs trade a little
    // dynamic power for a large leakage cut (Fig. 8c).
    let w = suite::by_name("lud").expect("lud");
    let base = run(L2Choice::SramBaseline, &w, &plan());
    let c1 = run(L2Choice::TwoPartC1, &w, &plan());
    let c2 = run(L2Choice::TwoPartC2, &w, &plan());
    let base_mw = base.metrics.l2_total_power_mw();
    assert!(c1.metrics.l2_total_power_mw() < base_mw);
    assert!(c2.metrics.l2_total_power_mw() < base_mw);
}

#[test]
fn two_part_exclusivity_holds_after_a_real_run() {
    let w = suite::by_name("pathfinder").expect("pathfinder");
    let workload = suite::scaled(&w, 0.2);
    let mut gpu = Gpu::new(gpu_config(L2Choice::TwoPartC1));
    gpu.run_workload(&workload, 8_000_000);
    let tp = gpu.llc().as_two_part().expect("two-part");
    // Spot-check a swath of the footprint for dual residency.
    for line in 0..4096u64 {
        let addr = line * 256;
        assert!(
            !(tp.lr_contains(addr) && tp.hr_contains(addr)),
            "line {line} resident in both parts"
        );
    }
}

#[test]
fn energy_ledger_is_consistent_with_traffic() {
    let w = suite::by_name("gaussian").expect("gaussian");
    let out = run(L2Choice::TwoPartC1, &w, &plan());
    let e = &out.metrics.l2_energy;
    assert!(e.dynamic_nj() > 0.0);
    assert!(e.leakage_mw() > 0.0);
    use sttgpu::device::energy::EnergyEvent;
    // Write-heavy-ish workload on a write-optimised cache: data writes
    // must be a visible part of the ledger.
    assert!(e.dynamic_nj_for(EnergyEvent::DataWrite) > 0.0);
    assert!(e.dynamic_nj_for(EnergyEvent::TagLookup) > 0.0);
}

#[test]
fn llc_trait_is_usable_through_the_facade() {
    // Compile-time + behavioural check that the re-exported trait object
    // path works for downstream users.
    let cfg = gpu_config(L2Choice::TwoPartC3);
    let llc = cfg.l2.build(cfg.l2_line_bytes);
    assert_eq!(llc.line_bytes(), 256);
    assert!(llc.as_two_part().is_some());
    assert!(llc.maintenance_interval_ns() < u64::MAX);
}
