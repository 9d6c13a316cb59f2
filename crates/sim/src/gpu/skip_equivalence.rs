//! Differential test for the event-driven cycle-skipping driver.
//!
//! `Gpu::run_seeded` normally jumps over provably-idle cycle spans. The
//! `single_step` debug switch disables every skip and grinds through
//! one cycle per iteration — the reference semantics. This suite runs the
//! same (config, kernels, seed) under both drivers and demands *identical*
//! observable behaviour: every `RunMetrics` field (cycles, instructions,
//! idle accounting, L2/DRAM counters, energy, per-kernel spans) and the
//! full trace event stream, event by event.
//!
//! Geometries are chosen to exercise every wake source the skipping driver
//! reasons about: warp dependency stalls, memory-system events, MSHR-full
//! replays, block launch waves, multi-kernel barriers and truncated runs.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use crate::{Gpu, GpuConfig, KernelParams, L2ModelConfig, WarpScheduler};
use sttgpu_stats::Rng;
use sttgpu_trace::{Trace, VecSink};

/// Runs `kernels` single-stepped (the reference semantics), then with
/// cycle skipping — and asserts metrics and trace streams match exactly.
fn assert_equivalent(label: &str, cfg: &GpuConfig, kernels: &[KernelParams], seed: u64, max: u64) {
    let kernels: Vec<Arc<KernelParams>> = kernels.iter().cloned().map(Arc::new).collect();

    let run = |single_step: bool| {
        let sink = Rc::new(RefCell::new(VecSink::new()));
        let mut gpu = Gpu::new(cfg.clone());
        gpu.set_trace(Trace::to_sink(sink.clone()));
        gpu.single_step = single_step;
        let metrics = gpu.run_seeded(&kernels, seed, max);
        let events = sink.borrow_mut().take();
        (metrics, events, gpu.cycle())
    };

    let (m_step, t_step, c_step) = run(true);
    let (m_skip, t_skip, c_skip) = run(false);
    assert_eq!(c_step, c_skip, "[{label}] final driver cycle diverged");
    assert_eq!(m_step, m_skip, "[{label}] RunMetrics diverged");
    assert_eq!(
        t_step.len(),
        t_skip.len(),
        "[{label}] trace length diverged"
    );
    for (i, (a, b)) in t_step.iter().zip(&t_skip).enumerate() {
        assert_eq!(a, b, "[{label}] trace diverged at event {i}");
    }
}

fn base_cfg(l2: L2ModelConfig) -> GpuConfig {
    let mut cfg = GpuConfig::gtx480();
    cfg.num_sms = 2;
    cfg.l2 = l2;
    cfg
}

/// Two-part LLC with a multi-kernel workload: kernel barriers flush L1s
/// and restart the launch wave, so skips must never cross a grid boundary.
#[test]
fn two_part_multi_kernel() {
    let cfg = base_cfg(L2ModelConfig::TwoPart(sttgpu_core::TwoPartConfig::new(
        8, 2, 56, 7, 256,
    )));
    let kernels = [
        KernelParams::new("produce", 8, 64)
            .with_instructions(150)
            .with_mem_fraction(0.3)
            .with_write_fraction(0.6)
            .with_footprint_kb(256),
        KernelParams::new("consume", 6, 96)
            .with_instructions(120)
            .with_mem_fraction(0.4)
            .with_read_locality(0.7)
            .with_footprint_kb(256),
    ];
    assert_equivalent("two-part multi-kernel", &cfg, &kernels, 0xD0C, 30_000_000);
}

/// SRAM baseline under the greedy-then-oldest scheduler, whose parked
/// greedy warp is a wake source that bypasses the ready queue.
#[test]
fn sram_gto_scheduler() {
    let mut cfg = base_cfg(L2ModelConfig::Sram {
        kb: 64,
        ways: 8,
        banks: 4,
    });
    cfg.scheduler = WarpScheduler::GreedyThenOldest;
    let kernels = [KernelParams::new("gto", 10, 64)
        .with_instructions(200)
        .with_mem_fraction(0.35)
        .with_write_fraction(0.3)
        .with_footprint_kb(512)];
    assert_equivalent("sram gto", &cfg, &kernels, 0x0470, 30_000_000);
}

/// STT-RAM LLC with the L1 MSHRs squeezed to near nothing: most memory
/// instructions bounce off a full table and replay `MSHR_RETRY_CYCLES`
/// later — a wake source that exists only because of stalls.
#[test]
fn sttram_mshr_constrained() {
    let mut cfg = base_cfg(L2ModelConfig::SttRam {
        kb: 256,
        ways: 8,
        banks: 4,
        retention_years: 10.0,
    });
    cfg.l1.mshr_entries = 2;
    cfg.l1.mshr_targets = 2;
    cfg.max_pending_loads = 2;
    let kernels = [KernelParams::new("thrash", 8, 128)
        .with_instructions(150)
        .with_mem_fraction(0.6)
        .with_footprint_kb(4_096)
        .with_coalescing(4.0)];
    assert_equivalent("mshr constrained", &cfg, &kernels, 0x3511, 30_000_000);
}

/// More blocks than the occupancy limit admits at once: retiring blocks
/// trigger fresh launches, so availability of queued work is itself a
/// wake source the skip logic must respect.
#[test]
fn oversubscribed_launch_waves() {
    let mut cfg = base_cfg(L2ModelConfig::Sram {
        kb: 64,
        ways: 8,
        banks: 4,
    });
    cfg.num_sms = 1;
    cfg.max_blocks_per_sm = 2;
    let kernels = [KernelParams::new("waves", 24, 32)
        .with_instructions(80)
        .with_mem_fraction(0.25)
        .with_write_fraction(0.4)
        .with_local_fraction(0.2)
        .with_footprint_kb(128)];
    assert_equivalent("launch waves", &cfg, &kernels, 0x11AE, 30_000_000);
}

/// A cycle budget that truncates the run mid-kernel: the skipping driver
/// must stop on the same cycle, with identical partial metrics, rather
/// than jumping past the deadline.
#[test]
fn truncated_budget() {
    let cfg = base_cfg(L2ModelConfig::Sram {
        kb: 64,
        ways: 8,
        banks: 4,
    });
    let kernels = [KernelParams::new("cutoff", 16, 64)
        .with_instructions(300)
        .with_mem_fraction(0.5)
        .with_footprint_kb(2_048)];
    for budget in [500, 3_000, 20_000] {
        assert_equivalent("truncated", &cfg, &kernels, 0x7D0, budget);
    }
}

/// Randomized sweep across kernel shapes, seeds and both schedulers.
#[test]
fn fuzzed_geometries() {
    let mut rng = Rng::new(0x005E_EDE0);
    for i in 0..10 {
        let k = KernelParams::new("fuzz", rng.range_u32(2, 12), rng.range_u32(1, 4) * 32)
            .with_instructions(rng.range_u32(40, 250))
            .with_mem_fraction(rng.range_f64(0.0, 0.6))
            .with_write_fraction(rng.range_f64(0.0, 0.7))
            .with_local_fraction(rng.range_f64(0.0, 0.3))
            .with_footprint_kb(rng.range_u64(32, 1_024))
            .with_read_locality(rng.range_f64(0.0, 1.0));
        let mut cfg = base_cfg(L2ModelConfig::Sram {
            kb: 64,
            ways: 8,
            banks: 4,
        });
        cfg.scheduler = if i % 2 == 0 {
            WarpScheduler::LooseRoundRobin
        } else {
            WarpScheduler::GreedyThenOldest
        };
        let seed = rng.range_u64(0, 10_000);
        assert_equivalent("fuzz", &cfg, &[k], seed, 30_000_000);
    }
}
