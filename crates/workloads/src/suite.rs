//! The 16-benchmark synthetic suite.
//!
//! Each function below builds one named workload. The parameters are not
//! arbitrary: every knob is chosen to reproduce the behaviour the paper
//! reports for the benchmark of the same name — its Fig. 8a region, its
//! Fig. 3 write-variation character, its write fraction (the suite spans
//! ~0 % for `sad` to 63 % for `nw`), and its grid structure (multi-kernel
//! workloads share a footprint so each grid consumes its predecessor's
//! output, with writes bursting at grid ends — the §4 observation that
//! justifies write threshold 1).

use crate::Region;
use sttgpu_sim::{KernelParams, Workload, WritePhase};

/// Floors below which a scaled kernel stops being a meaningful run.
const MIN_BLOCKS: u32 = 2;
const MIN_INSTRUCTIONS_PER_WARP: u32 = 50;

/// Scales a workload's grid and instruction counts by `factor` (> 0),
/// preserving its statistical character. Used to shrink runs for quick
/// benchmarking; `factor = 1.0` is the reference scale.
///
/// Fails when `factor` is not positive, or so small that every kernel
/// collapses to the floors — at that point distinct factors would round
/// to identical workloads, which silently breaks anything sweeping over
/// scales.
pub fn try_scaled(workload: &Workload, factor: f64) -> Result<Workload, String> {
    if factor.is_nan() || factor <= 0.0 {
        return Err(format!("scale factor must be positive, got {factor}"));
    }
    let mut collapsed = true;
    let kernels: Vec<_> = workload
        .kernels
        .iter()
        .map(|k| {
            let mut k = (**k).clone();
            let blocks = (k.blocks as f64 * factor).round() as u32;
            let ipw = (k.instructions_per_warp as f64 * factor.sqrt()).round() as u32;
            if blocks > MIN_BLOCKS || ipw > MIN_INSTRUCTIONS_PER_WARP {
                collapsed = false;
            }
            k.blocks = blocks.max(MIN_BLOCKS);
            k.instructions_per_warp = ipw.max(MIN_INSTRUCTIONS_PER_WARP);
            k
        })
        .collect();
    if collapsed {
        return Err(format!(
            "scale factor {factor} is too small for workload '{}': every kernel \
             collapses to the floor ({MIN_BLOCKS} blocks, {MIN_INSTRUCTIONS_PER_WARP} \
             instructions/warp), so distinct factors would produce identical runs",
            workload.name
        ));
    }
    Ok(Workload::new(&workload.name, kernels, workload.seed))
}

/// [`try_scaled`] for factors already known to be valid; panics with its
/// message otherwise.
pub fn scaled(workload: &Workload, factor: f64) -> Workload {
    try_scaled(workload, factor).unwrap_or_else(|e| panic!("{e}"))
}

fn bfs() -> Workload {
    // Irregular graph traversal: poor locality, divergent accesses, a hot
    // frontier array that is rewritten constantly (high write COV), and a
    // working set that overflows the 384 KB SRAM L2 but fits a 4x one.
    let k = KernelParams::new("bfs_expand", 96, 256)
        .with_instructions(1_800)
        .with_mem_fraction(0.140)
        .with_write_fraction(0.25)
        .with_footprint_kb(1_024)
        .with_wws(0.03, 0.85)
        .with_read_locality(0.20)
        .with_coalescing(4.0)
        .with_regs_per_thread(18);
    Workload::new("bfs", vec![k], 1_001)
}

fn kmeans() -> Workload {
    // Two grids per iteration (assign, update) over shared data; the
    // centroid array is a tiny, furiously rewritten WWS. Register hungry.
    let assign = KernelParams::new("kmeans_assign", 72, 256)
        .with_instructions(1_500)
        .with_mem_fraction(0.122)
        .with_write_fraction(0.30)
        .with_footprint_kb(900)
        .with_wws(0.01, 0.90)
        .with_read_locality(0.70)
        .with_coalescing(1.5)
        .with_regs_per_thread(43)
        .with_write_phase(WritePhase::EndOfKernel);
    let update = KernelParams::new("kmeans_update", 48, 256)
        .with_instructions(1_000)
        .with_mem_fraction(0.140)
        .with_write_fraction(0.40)
        .with_footprint_kb(900)
        .with_wws(0.01, 0.92)
        .with_read_locality(0.60)
        .with_coalescing(1.5)
        .with_regs_per_thread(43);
    Workload::new("kmeans", vec![assign, update], 1_002)
}

fn cfd() -> Workload {
    // Unstructured-mesh solver: large footprint, writes spread evenly
    // over the flux arrays (low COV), cache friendly.
    let k = KernelParams::new("cfd_flux", 112, 256)
        .with_instructions(2_000)
        .with_mem_fraction(0.133)
        .with_write_fraction(0.35)
        .with_footprint_kb(1_400)
        .with_wws(0.50, 0.10)
        .with_read_locality(0.55)
        .with_coalescing(2.0)
        .with_regs_per_thread(24);
    Workload::new("cfd", vec![k], 1_003)
}

fn stencil() -> Workload {
    // 7-point stencil: perfectly coalesced streaming, even writes over
    // the output grid, reuse across the two time-step grids.
    let step = KernelParams::new("stencil_step", 100, 256)
        .with_instructions(1_600)
        .with_mem_fraction(0.122)
        .with_write_fraction(0.30)
        .with_footprint_kb(1_200)
        .with_wws(0.60, 0.05)
        .with_read_locality(0.90)
        .with_coalescing(1.0)
        .with_regs_per_thread(20);
    Workload::new("stencil", vec![step.clone(), step], 1_004)
}

fn pathfinder() -> Workload {
    // Dynamic programming over rows: the active row is a small WWS that
    // each grid rewrites before the next consumes it.
    let row = KernelParams::new("pathfinder_row", 80, 256)
        .with_instructions(1_200)
        .with_mem_fraction(0.122)
        .with_write_fraction(0.35)
        .with_footprint_kb(640)
        .with_wws(0.08, 0.70)
        .with_read_locality(0.80)
        .with_coalescing(1.2)
        .with_regs_per_thread(16)
        .with_write_phase(WritePhase::EndOfKernel);
    Workload::new("pathfinder", vec![row.clone(), row], 1_005)
}

fn streamcluster() -> Workload {
    // Read-dominated clustering: almost no writes, big shared read set.
    let k = KernelParams::new("streamcluster_dist", 96, 256)
        .with_instructions(1_800)
        .with_mem_fraction(0.140)
        .with_write_fraction(0.05)
        .with_footprint_kb(1_024)
        .with_wws(0.02, 0.80)
        .with_read_locality(0.45)
        .with_coalescing(1.5)
        .with_regs_per_thread(22);
    Workload::new("streamcluster", vec![k], 1_006)
}

fn mri_gridding() -> Workload {
    // Scatter-accumulate onto a grid: divergent, very concentrated
    // writes (the top of the Fig. 3 COV chart).
    let k = KernelParams::new("mri_scatter", 64, 256)
        .with_instructions(1_600)
        .with_mem_fraction(0.140)
        .with_write_fraction(0.45)
        .with_footprint_kb(512)
        .with_wws(0.02, 0.92)
        .with_read_locality(0.30)
        .with_coalescing(6.0)
        .with_regs_per_thread(30);
    Workload::new("mri_gridding", vec![k], 1_007)
}

fn srad_v2() -> Workload {
    // Image diffusion with a huge register footprint: 46 regs/thread
    // caps the SM at 2 blocks — the canonical region-2 benchmark.
    let k = KernelParams::new("srad_kernel", 72, 256)
        .with_instructions(1_500)
        .with_mem_fraction(0.105)
        .with_write_fraction(0.30)
        .with_footprint_kb(300)
        .with_wws(0.20, 0.40)
        .with_read_locality(0.70)
        .with_coalescing(1.2)
        .with_regs_per_thread(46)
        .with_local_fraction(0.20); // 46 regs/thread: the compiler spills
    Workload::new("srad_v2", vec![k.clone(), k], 1_008)
}

fn tpacf() -> Workload {
    // Correlation histogramming: register hungry, tiny red-hot histogram
    // bins (extreme write skew).
    let k = KernelParams::new("tpacf_hist", 60, 256)
        .with_instructions(1_800)
        .with_mem_fraction(0.105)
        .with_write_fraction(0.20)
        .with_footprint_kb(300)
        .with_wws(0.01, 0.95)
        .with_read_locality(0.40)
        .with_coalescing(2.0)
        .with_regs_per_thread(48)
        .with_local_fraction(0.10);
    Workload::new("tpacf", vec![k], 1_009)
}

fn backprop() -> Workload {
    // Neural-network training: forward + weight-update grids over shared
    // weights; updates concentrate on the (small) weight matrix.
    let forward = KernelParams::new("backprop_fwd", 64, 256)
        .with_instructions(1_400)
        .with_mem_fraction(0.122)
        .with_write_fraction(0.25)
        .with_footprint_kb(700)
        .with_wws(0.05, 0.80)
        .with_read_locality(0.65)
        .with_coalescing(1.5)
        .with_regs_per_thread(43);
    let update = KernelParams::new("backprop_upd", 48, 256)
        .with_instructions(1_000)
        .with_mem_fraction(0.140)
        .with_write_fraction(0.50)
        .with_footprint_kb(700)
        .with_wws(0.05, 0.85)
        .with_read_locality(0.60)
        .with_coalescing(1.5)
        .with_regs_per_thread(43)
        .with_write_phase(WritePhase::EndOfKernel);
    Workload::new("backprop", vec![forward, update], 1_010)
}

fn hotspot() -> Workload {
    // Thermal simulation: stencil-like but register bound (54/thread).
    let k = KernelParams::new("hotspot_step", 80, 256)
        .with_instructions(1_500)
        .with_mem_fraction(0.112)
        .with_write_fraction(0.30)
        .with_footprint_kb(450)
        .with_wws(0.40, 0.30)
        .with_read_locality(0.85)
        .with_coalescing(1.1)
        .with_regs_per_thread(44)
        .with_local_fraction(0.15);
    Workload::new("hotspot", vec![k.clone(), k], 1_011)
}

fn lud() -> Workload {
    // Small-matrix LU decomposition: working set fits any L2, modest
    // registers — region 1.
    let k = KernelParams::new("lud_diag", 64, 256)
        .with_instructions(1_400)
        .with_mem_fraction(0.105)
        .with_write_fraction(0.25)
        .with_footprint_kb(280)
        .with_wws(0.15, 0.50)
        .with_read_locality(0.70)
        .with_coalescing(1.3)
        .with_regs_per_thread(20);
    Workload::new("lud", vec![k], 1_012)
}

fn nw() -> Workload {
    // Needleman-Wunsch: writes the score matrix as it goes — the
    // suite's write-heaviest member (63 % of memory ops are writes).
    let k = KernelParams::new("nw_diag", 64, 256)
        .with_instructions(1_400)
        .with_mem_fraction(0.133)
        .with_write_fraction(0.63)
        .with_footprint_kb(256)
        .with_wws(0.25, 0.45)
        .with_read_locality(0.60)
        .with_coalescing(1.4)
        .with_regs_per_thread(20);
    Workload::new("nw", vec![k], 1_013)
}

fn gaussian() -> Workload {
    // Gaussian elimination: small footprint, even write traffic,
    // insensitive to every extra resource — region 1.
    let k = KernelParams::new("gaussian_fan", 56, 256)
        .with_instructions(1_200)
        .with_mem_fraction(0.115)
        .with_write_fraction(0.45)
        .with_footprint_kb(200)
        .with_wws(0.40, 0.20)
        .with_read_locality(0.70)
        .with_coalescing(1.2)
        .with_regs_per_thread(12);
    Workload::new("gaussian", vec![k], 1_014)
}

fn lbm() -> Workload {
    // Lattice-Boltzmann: enormous streaming footprint and heavy, evenly
    // spread writes — stresses L2 write bandwidth.
    let k = KernelParams::new("lbm_collide", 112, 256)
        .with_instructions(1_800)
        .with_mem_fraction(0.147)
        .with_write_fraction(0.50)
        .with_footprint_kb(2_048)
        .with_wws(0.70, 0.10)
        .with_read_locality(0.90)
        .with_coalescing(1.2)
        .with_regs_per_thread(28);
    Workload::new("lbm", vec![k], 1_015)
}

fn sad() -> Workload {
    // Sum-of-absolute-differences (video): essentially read-only.
    let k = KernelParams::new("sad_search", 72, 256)
        .with_instructions(1_500)
        .with_mem_fraction(0.133)
        .with_write_fraction(0.02)
        .with_footprint_kb(320)
        .with_wws(0.05, 0.50)
        .with_read_locality(0.80)
        .with_coalescing(1.3)
        .with_regs_per_thread(14);
    Workload::new("sad", vec![k], 1_016)
}

/// Every workload of the suite, in the paper's rough presentation order.
pub fn all() -> Vec<Workload> {
    vec![
        lud(),
        gaussian(),
        nw(),
        sad(),
        srad_v2(),
        tpacf(),
        hotspot(),
        kmeans(),
        backprop(),
        mri_gridding(),
        bfs(),
        cfd(),
        stencil(),
        pathfinder(),
        streamcluster(),
        lbm(),
    ]
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

/// The behavioural region of a suite workload, `None` for unknown names.
pub fn region_of(name: &str) -> Option<Region> {
    let r = match name {
        "lud" | "gaussian" | "nw" | "sad" => Region::Insensitive,
        "srad_v2" | "tpacf" | "hotspot" => Region::RegisterLimited,
        "kmeans" | "backprop" => Region::RegisterAndCache,
        "mri_gridding" | "bfs" | "cfd" | "stencil" | "pathfinder" | "streamcluster" | "lbm" => {
            Region::CacheFriendly
        }
        _ => return None,
    };
    Some(r)
}

/// Names of all suite workloads, in suite order.
pub fn names() -> Vec<String> {
    all().into_iter().map(|w| w.name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_distinct_workloads() {
        let names = names();
        assert_eq!(names.len(), 16);
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), 16, "names must be unique");
    }

    #[test]
    fn every_workload_has_a_region() {
        for name in names() {
            assert!(region_of(&name).is_some(), "{name} lacks a region");
        }
        assert_eq!(region_of("nonsense"), None);
    }

    #[test]
    fn all_regions_are_populated() {
        for region in Region::ALL {
            let n = names()
                .into_iter()
                .filter(|w| region_of(w) == Some(region))
                .count();
            assert!(n >= 2, "{region} has only {n} workloads");
        }
    }

    #[test]
    fn by_name_round_trips() {
        for name in names() {
            let w = by_name(&name).expect("lookup");
            assert_eq!(w.name, name);
        }
        assert!(by_name("unknown").is_none());
    }

    #[test]
    fn write_fractions_span_the_paper_range() {
        let all = all();
        let min = all
            .iter()
            .flat_map(|w| w.kernels.iter())
            .map(|k| k.write_fraction)
            .fold(f64::INFINITY, f64::min);
        let max = all
            .iter()
            .flat_map(|w| w.kernels.iter())
            .map(|k| k.write_fraction)
            .fold(0.0, f64::max);
        assert!(min <= 0.05, "near-zero-write benchmark required, min {min}");
        assert!(
            (max - 0.63).abs() < 1e-9,
            "63% write benchmark required, max {max}"
        );
    }

    #[test]
    fn register_limited_workloads_are_actually_limited() {
        use sttgpu_sim::{GpuConfig, Occupancy};
        let gpu = GpuConfig::gtx480();
        for w in all() {
            if region_of(&w.name) != Some(Region::RegisterLimited) {
                continue;
            }
            for k in &w.kernels {
                let occ = Occupancy::compute(&gpu, k);
                assert_eq!(
                    occ.limit,
                    sttgpu_sim::OccupancyLimit::Registers,
                    "{}::{} must be register limited",
                    w.name,
                    k.name
                );
            }
        }
    }

    #[test]
    fn cache_friendly_workloads_overflow_the_sram_l2() {
        for w in all() {
            if region_of(&w.name) != Some(Region::CacheFriendly) {
                continue;
            }
            let max_fp = w
                .kernels
                .iter()
                .map(|k| k.footprint_bytes)
                .max()
                .expect("kernels");
            assert!(
                max_fp > 384 * 1024,
                "{} footprint {max_fp} must exceed the 384 KB SRAM L2",
                w.name
            );
        }
    }

    #[test]
    fn insensitive_workloads_fit_the_sram_l2() {
        for w in all() {
            if region_of(&w.name) != Some(Region::Insensitive) {
                continue;
            }
            for k in &w.kernels {
                assert!(
                    k.footprint_bytes <= 384 * 1024,
                    "{} must fit the SRAM L2",
                    w.name
                );
            }
        }
    }

    #[test]
    fn scaling_shrinks_work_but_keeps_shape() {
        let w = by_name("bfs").expect("bfs");
        let s = scaled(&w, 0.25);
        assert_eq!(s.name, w.name);
        assert!(s.total_thread_instructions() < w.total_thread_instructions() / 2);
        assert_eq!(s.kernels[0].write_fraction, w.kernels[0].write_fraction);
        assert_eq!(s.kernels[0].footprint_bytes, w.kernels[0].footprint_bytes);
    }

    #[test]
    fn scaling_is_monotone_in_factor() {
        // Sweeping the supported scale range must never produce less
        // work at a larger factor, and distinct factors in the range
        // must stay distinguishable for at least one workload.
        let factors = [0.05, 0.1, 0.2, 0.25, 0.5, 0.75, 1.0];
        for w in all() {
            let mut last = 0;
            for &f in &factors {
                let instr = scaled(&w, f).total_thread_instructions();
                assert!(
                    instr >= last,
                    "{} at factor {f}: {instr} < previous {last}",
                    w.name
                );
                last = instr;
            }
        }
        for pair in factors.windows(2) {
            assert!(
                all()
                    .iter()
                    .any(|w| scaled(w, pair[0]).total_thread_instructions()
                        < scaled(w, pair[1]).total_thread_instructions()),
                "factors {} and {} are indistinguishable across the whole suite",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    #[should_panic(expected = "collapses to the floor")]
    fn scaling_rejects_factors_that_collapse_to_the_floors() {
        let w = by_name("lud").expect("lud");
        let _ = scaled(&w, 0.001);
    }

    #[test]
    fn try_scaled_reports_what_scaled_panics_on() {
        let w = by_name("lud").expect("lud");
        let err = try_scaled(&w, 0.001).expect_err("collapses");
        assert!(err.contains("collapses to the floor"), "{err}");
        assert!(try_scaled(&w, 0.0).is_err());
        assert!(try_scaled(&w, f64::NAN).is_err());
        assert_eq!(try_scaled(&w, 0.25).ok(), Some(scaled(&w, 0.25)));
    }

    #[test]
    fn seeds_are_distinct() {
        let seeds: std::collections::HashSet<u64> = all().iter().map(|w| w.seed).collect();
        assert_eq!(seeds.len(), 16);
    }

    #[test]
    fn workload_sizes_are_tractable() {
        for w in all() {
            let instr = w.total_thread_instructions();
            assert!(
                (10_000_000..200_000_000).contains(&instr),
                "{}: {instr} thread-instructions is out of the tractable band",
                w.name
            );
        }
    }
}
