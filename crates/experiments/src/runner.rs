//! Shared run machinery for all figures.
//!
//! Two layers:
//!
//! * the free functions [`run`] / [`run_config`] execute one simulation
//!   synchronously — the primitive everything reduces to;
//! * an [`Executor`] fans a batch of simulations across a scoped thread
//!   pool and **memoizes** every run under one key, the exact `Debug`
//!   rendering of its `(GpuConfig, Workload, RunPlan)` (the workload by
//!   its kernels and seed, not just its name), so one `repro all`
//!   invocation executes each unique simulation exactly once even though
//!   several artefacts need the same run (fig3/fig8/workload-table all
//!   want the SRAM baseline suite; fig4's TH1, fig5's 2-way, fig6, fig8
//!   and several ablation points all *are* C1).
//!
//! Results always come back in **input order**, so tables and CSVs are
//! byte-identical whether the executor runs with 1 job or 32.

use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use sttgpu_core::{close_check, FaultConfig, LlcModel, LlcPolicy, TwoPartStats};
use sttgpu_device::endurance::LifetimeEstimate;
use sttgpu_sim::{Gpu, GpuConfig, L2ModelConfig, RunMetrics, Workload};
use sttgpu_stats::{Histogram, WriteVariation};
use sttgpu_trace::{CheckConfig, CheckReport, Checker, Trace};
use sttgpu_workloads::suite;

use crate::configs::{gpu_config, L2Choice};

/// How an experiment run is sized.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunPlan {
    /// Workload scale factor (1.0 = reference scale; benches use less).
    pub scale: f64,
    /// Cycle budget per workload run.
    pub max_cycles: u64,
    /// Attach the runtime invariant checker to every simulation
    /// (`--check`): events stream through a [`Checker`] and the
    /// [`RunOutput::check`] report carries any violations.
    pub check: bool,
    /// Fault injection applied to two-part configurations (`--faults`).
    /// Monolithic baselines have no retention mechanism to fault and run
    /// unchanged. All rates at 0 (the default) keep the fault plan
    /// disabled, which is byte-transparent.
    pub fault: FaultConfig,
    /// Runtime LLC policy applied to two-part configurations
    /// (`--llc-policy`). Monolithic baselines have no runtime policy and
    /// run unchanged. [`LlcPolicy::Fixed`] (the default) is the
    /// paper-exact bundle and is byte-transparent.
    pub policy: LlcPolicy,
}

impl RunPlan {
    /// The reference plan used for paper-shape reproduction.
    pub fn full() -> Self {
        RunPlan {
            scale: 1.0,
            max_cycles: 6_000_000,
            check: false,
            fault: FaultConfig::disabled(),
            policy: LlcPolicy::Fixed,
        }
    }

    /// A reduced plan for quick sanity runs and criterion benches.
    pub fn quick() -> Self {
        RunPlan {
            scale: 0.25,
            max_cycles: 2_000_000,
            check: false,
            fault: FaultConfig::disabled(),
            policy: LlcPolicy::Fixed,
        }
    }

    /// A plan with a custom scale (cycle budget kept from `self`).
    pub fn with_scale(mut self, scale: f64) -> Self {
        assert!(scale > 0.0);
        self.scale = scale;
        self
    }

    /// A plan with the invariant checker switched on or off.
    pub fn with_check(mut self, check: bool) -> Self {
        self.check = check;
        self
    }

    /// A plan with every fault mechanism at `rate` under `seed` (see
    /// [`FaultConfig::uniform`]).
    pub fn with_faults(mut self, rate: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "fault rate outside [0, 1]");
        self.fault = FaultConfig::uniform(seed, rate);
        self
    }

    /// A plan selecting the named runtime LLC policy for two-part runs.
    pub fn with_policy(mut self, policy: LlcPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// `workload` at this plan's scale (unchanged at reference scale).
    pub fn scaled(&self, workload: &Workload) -> Workload {
        if (self.scale - 1.0).abs() < 1e-9 {
            workload.clone()
        } else {
            suite::scaled(workload, self.scale)
        }
    }
}

impl Default for RunPlan {
    fn default() -> Self {
        RunPlan::full()
    }
}

/// Everything captured from one workload × configuration run.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Top-level metrics (IPC, L2 stats, energy).
    pub metrics: RunMetrics,
    /// Two-part internals when the L2 was a [`TwoPartLlc`]
    /// (LR/HR hit breakdowns, migrations, refreshes...).
    ///
    /// [`TwoPartLlc`]: sttgpu_core::TwoPartLlc
    pub two_part: Option<TwoPartStats>,
    /// LR rewrite-interval histogram (two-part runs only).
    pub lr_rewrite_intervals: Option<Histogram>,
    /// What the per-(set, way) data-array write counts reduce to.
    pub writes: WriteSummary,
    /// Invariant-checker report when the plan ran with
    /// [`check`](RunPlan::check) set; `None` otherwise.
    pub check: Option<CheckReport>,
}

/// The end-of-run reductions of an LLC's cumulative per-(set, way)
/// data-array write counts. Every reader of the counts needs only these
/// few numbers, so a memoized [`RunOutput`] keeps them instead of the
/// matrix itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WriteSummary {
    /// Inter- and intra-set write variation of the whole array (Fig. 3).
    pub variation: WriteVariation,
    /// Lifetime estimate of the whole array.
    pub lifetime: LifetimeEstimate,
    /// Lifetime estimate of the LR part (two-part runs only).
    pub lr_lifetime: Option<LifetimeEstimate>,
    /// Lifetime estimate of the HR part (two-part runs only).
    pub(crate) hr_lifetime: Option<LifetimeEstimate>,
    /// 64-bit FNV-1a digest of the full matrix, so equality checks keep
    /// per-line strength.
    pub(crate) matrix_digest: u64,
}

impl WriteSummary {
    /// Summarizes `matrix` observed over `elapsed_ns`; a two-part
    /// matrix holds its first `lr_sets` rows for the LR part and the
    /// rest for the HR part.
    fn new(matrix: &[Vec<u64>], lr_sets: Option<usize>, elapsed_ns: u64) -> Self {
        let elapsed_ns = elapsed_ns.max(1);
        let parts = lr_sets.map(|n| {
            let (lr, hr) = matrix.split_at(n);
            (
                LifetimeEstimate::from_write_matrix(lr, elapsed_ns),
                LifetimeEstimate::from_write_matrix(hr, elapsed_ns),
            )
        });
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for row in matrix {
            let bytes = (row.len() as u64).to_le_bytes().into_iter();
            for b in bytes.chain(row.iter().flat_map(|w| w.to_le_bytes())) {
                digest = (digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        WriteSummary {
            variation: WriteVariation::from_counts(matrix),
            lifetime: LifetimeEstimate::from_write_matrix(matrix, elapsed_ns),
            lr_lifetime: parts.map(|p| p.0),
            hr_lifetime: parts.map(|p| p.1),
            matrix_digest: digest,
        }
    }
}

/// Builds a checker on `base`'s retention thresholds plus timing slack
/// covering the maintenance cadence and interconnect lag: probes
/// time-stamp at icnt arrival, up to one maintenance `interval_ns`
/// (plus traversal latency and port queueing) after the retention
/// engines last ran.
pub(crate) fn checker_for(base: CheckConfig, interval_ns: u64, icnt_latency_ns: u64) -> Checker {
    let slack = if interval_ns == u64::MAX {
        0
    } else {
        interval_ns + 4 * icnt_latency_ns + 2_000
    };
    Checker::new(base.with_slack_ns(slack))
}

/// Runs `workload` on a fully custom GPU configuration.
pub fn run_config(mut cfg: GpuConfig, workload: &Workload, plan: &RunPlan) -> RunOutput {
    let scaled = plan.scaled(workload);
    if let L2ModelConfig::TwoPart(tp) = &mut cfg.l2 {
        tp.policy = plan.policy;
        tp.fault = plan.fault;
    }
    let mut gpu = Gpu::new(cfg);
    let checker = plan.check.then(|| {
        // Monolithic L2s get the everything-disabled thresholds.
        let base = match &gpu.config().l2 {
            L2ModelConfig::TwoPart(tp) => tp.check_config(),
            _ => CheckConfig::default(),
        };
        let interval = gpu.llc().maintenance_interval_ns();
        let checker = checker_for(base, interval, gpu.config().icnt_latency_ns);
        let checker = Rc::new(RefCell::new(checker));
        gpu.set_trace(Trace::to_sink(Rc::clone(&checker)));
        checker
    });
    let metrics = gpu.run_workload(&scaled, plan.max_cycles);
    let check = checker.map(|c| close_check(&mut c.borrow_mut(), gpu.llc(), metrics.finished));
    let llc = gpu.llc();
    let tp = llc.as_two_part();
    let writes = WriteSummary::new(
        &llc.write_count_matrix(),
        tp.map(|tp| tp.config().lr_sets() as usize),
        metrics.elapsed_ns,
    );
    RunOutput {
        two_part: tp.map(|tp| *tp.stats()),
        lr_rewrite_intervals: tp.map(|tp| tp.lr_rewrite_intervals().clone()),
        metrics,
        writes,
        check,
    }
}

/// Runs `workload` on one of the five Table 2 configurations.
pub fn run(choice: L2Choice, workload: &Workload, plan: &RunPlan) -> RunOutput {
    run_config(gpu_config(choice), workload, plan)
}

/// The key a run is memoized under: the exact `Debug` rendering of its
/// `(GpuConfig, Workload, RunPlan)`. The derives print every field (a
/// workload's name, kernels and seed; every plan field), so two requests
/// share a key exactly when all their inputs are equal, and a future
/// field addition changes the rendering rather than aliasing two runs.
/// Key equality is string equality: no hash, so no collision case.
fn memo_key(cfg: &GpuConfig, workload: &Workload, plan: &RunPlan) -> String {
    format!("{:?}", (cfg, workload, plan))
}

/// Counters describing what an [`Executor`] actually did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Simulations physically executed (cache misses + uncached runs).
    pub runs_executed: u64,
    /// Requests served from the memoization cache without simulating.
    pub cache_hits: u64,
    /// Total simulated GPU cycles across executed runs.
    pub cycles_simulated: u64,
    /// Invariant violations across every checked run (0 when the plans
    /// ran without [`RunPlan::check`]).
    pub violations: u64,
}

/// A parallel, memoizing experiment runner.
///
/// [`map`](Executor::map) fans independent work items across a scoped
/// thread pool ([`std::thread::scope`], no detached threads, no unsafe)
/// and returns results in input order.
/// [`run_config`](Executor::run_config) memoizes every simulation in
/// memory under its `memo_key`, shared by every artefact holding the
/// same executor; concurrent requests for the same key block on a
/// [`OnceLock`] so each unique simulation executes exactly once.
#[derive(Debug, Default)]
pub struct Executor {
    jobs: usize,
    cache: Mutex<HashMap<String, Arc<OnceLock<Arc<RunOutput>>>>>,
    runs_executed: AtomicU64,
    cache_hits: AtomicU64,
    cycles_simulated: AtomicU64,
    violations: AtomicU64,
    violation_samples: Mutex<Vec<String>>,
}

impl Executor {
    /// Creates an executor with `jobs` worker threads (clamped to ≥ 1).
    pub fn new(jobs: usize) -> Self {
        Executor {
            jobs: jobs.max(1),
            ..Executor::default()
        }
    }

    /// An executor sized to the machine's available parallelism.
    pub fn auto() -> Self {
        Executor::new(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }

    /// A single-threaded executor (still memoizes).
    pub fn sequential() -> Self {
        Executor::new(1)
    }

    /// The configured worker-thread count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Snapshot of the run/cache counters.
    pub fn stats(&self) -> ExecutorStats {
        ExecutorStats {
            runs_executed: self.runs_executed.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cycles_simulated: self.cycles_simulated.load(Ordering::Relaxed),
            violations: self.violations.load(Ordering::Relaxed),
        }
    }

    /// The first few violation descriptions accumulated across checked
    /// runs (capped; empty when every run was clean).
    pub fn violation_samples(&self) -> Vec<String> {
        self.violation_samples
            .lock()
            .expect("executor samples poisoned")
            .clone()
    }

    fn record_run(&self, out: &RunOutput) {
        self.runs_executed.fetch_add(1, Ordering::Relaxed);
        self.cycles_simulated
            .fetch_add(out.metrics.cycles, Ordering::Relaxed);
        if let Some(check) = &out.check {
            if !check.is_clean() {
                self.violations
                    .fetch_add(check.violations, Ordering::Relaxed);
                let mut samples = self
                    .violation_samples
                    .lock()
                    .expect("executor samples poisoned");
                for s in &check.samples {
                    if samples.len() >= 32 {
                        break;
                    }
                    samples.push(s.clone());
                }
            }
        }
    }

    /// Applies `f` to every item, fanning the calls across the worker
    /// pool. Results are returned in input order regardless of which
    /// thread finished first, so downstream rendering is deterministic.
    ///
    /// # Panics
    ///
    /// Re-raises the lowest-index panic from `f` — but only after every
    /// other item has run to completion, so one poisoned item never
    /// strands the rest of the batch mid-flight.
    pub fn map<I, R, F>(&self, items: &[I], f: F) -> Vec<R>
    where
        I: Sync,
        R: Send,
        F: Fn(&I) -> R + Sync,
    {
        type Caught<R> = Result<R, Box<dyn std::any::Any + Send>>;
        let n = items.len();
        let workers = self.jobs.min(n);
        let tagged: Vec<(usize, Caught<R>)> = if workers <= 1 {
            items
                .iter()
                .enumerate()
                .map(|(i, item)| (i, catch_unwind(AssertUnwindSafe(|| f(item)))))
                .collect()
        } else {
            let next = AtomicUsize::new(0);
            // Each worker tags results with their input index; no locks on
            // the hot path. Panics from `f` are caught per item, so every
            // worker drains the queue even when some items crash.
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        scope.spawn(|| {
                            let mut local = Vec::new();
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                if i >= n {
                                    break;
                                }
                                local.push((i, catch_unwind(AssertUnwindSafe(|| f(&items[i])))));
                            }
                            local
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("executor worker panicked"))
                    .collect()
            })
        };
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let mut first_panic: Option<(usize, Box<dyn std::any::Any + Send>)> = None;
        for (i, r) in tagged {
            match r {
                Ok(v) => slots[i] = Some(v),
                Err(p) => match &first_panic {
                    Some((j, _)) if *j <= i => {}
                    _ => first_panic = Some((i, p)),
                },
            }
        }
        if let Some((_, p)) = first_panic {
            resume_unwind(p);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every index visited exactly once"))
            .collect()
    }

    /// Memoized [`run`] on one of the Table 2 configurations: exactly
    /// [`run_config`](Executor::run_config) on its [`gpu_config`], so a
    /// sweep point equal to a named configuration shares its run.
    pub fn run(&self, choice: L2Choice, workload: &Workload, plan: &RunPlan) -> Arc<RunOutput> {
        self.run_config(gpu_config(choice), workload, plan)
    }

    /// Memoized [`run_config`]: the first request for a `memo_key`
    /// simulates; every later request, from any artefact or thread
    /// sharing this executor, returns the cached output.
    pub fn run_config(
        &self,
        cfg: GpuConfig,
        workload: &Workload,
        plan: &RunPlan,
    ) -> Arc<RunOutput> {
        let key = memo_key(&cfg, workload, plan);
        let cell = {
            let mut cache = self.cache.lock().expect("executor cache poisoned");
            Arc::clone(cache.entry(key).or_default())
        };
        let mut fresh = false;
        let out = Arc::clone(cell.get_or_init(|| {
            fresh = true;
            let out = Arc::new(run_config(cfg, workload, plan));
            self.record_run(&out);
            out
        }));
        if !fresh {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
        }
        out
    }
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
    fn baseline_run_produces_metrics() {
        let w = suite::by_name("lud").expect("lud");
        let out = run(L2Choice::SramBaseline, &w, &tiny_plan());
        assert!(out.metrics.finished);
        assert!(out.metrics.ipc() > 0.0);
        assert!(out.two_part.is_none());
        assert!(out.writes.lifetime.lines() > 0);
        assert!(out.writes.lr_lifetime.is_none() && out.writes.hr_lifetime.is_none());
    }

    #[test]
    fn two_part_run_captures_internals() {
        let w = suite::by_name("nw").expect("nw");
        let out = run(L2Choice::TwoPartC1, &w, &tiny_plan());
        assert!(out.metrics.finished);
        let tp = out.two_part.expect("two-part stats");
        assert!(tp.demand_writes() > 0);
        assert!(out.lr_rewrite_intervals.is_some());
        // The LR part is the matrix's first `lr_sets` rows, HR the rest.
        let cfg = crate::configs::two_part_config(L2Choice::TwoPartC1).expect("C1 is two-part");
        let lr = out.writes.lr_lifetime.expect("LR summary");
        let hr = out.writes.hr_lifetime.expect("HR summary");
        assert_eq!(lr.lines() as u64, cfg.lr_sets() * u64::from(cfg.lr_ways));
        assert_eq!(lr.lines() + hr.lines(), out.writes.lifetime.lines());
        assert_eq!(
            out.writes.lifetime.max_line_writes(),
            lr.max_line_writes().max(hr.max_line_writes())
        );
    }

    #[test]
    fn map_preserves_input_order() {
        let exec = Executor::new(4);
        let items: Vec<u64> = (0..37).collect();
        let out = exec.map(&items, |&i| i * i);
        assert_eq!(out, items.iter().map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn map_with_one_item_or_one_job_runs_inline() {
        assert_eq!(Executor::sequential().map(&[5], |&x: &i32| x + 1), vec![6]);
        assert_eq!(Executor::new(8).map(&[5], |&x: &i32| x + 1), vec![6]);
        let empty: Vec<i32> = Vec::new();
        assert!(Executor::new(8).map(&empty, |&x: &i32| x).is_empty());
    }

    #[test]
    fn run_is_memoized_per_key() {
        let exec = Executor::new(2);
        let w = suite::by_name("lud").expect("lud");
        let plan = tiny_plan();
        let a = exec.run(L2Choice::SramBaseline, &w, &plan);
        let b = exec.run(L2Choice::SramBaseline, &w, &plan);
        assert!(Arc::ptr_eq(&a, &b), "second request must hit the cache");
        let s = exec.stats();
        assert_eq!(s.runs_executed, 1);
        assert_eq!(s.cache_hits, 1);
        assert!(s.cycles_simulated > 0);

        // A different plan (or choice, or workload) is a different key.
        let other = RunPlan {
            scale: 0.04,
            max_cycles: 2_000_000,
            ..RunPlan::full()
        };
        let c = exec.run(L2Choice::SramBaseline, &w, &other);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(exec.stats().runs_executed, 2);

        // A named run and the same configuration spelled out share one
        // key: the ad-hoc request executes nothing new.
        let named = exec.run(L2Choice::TwoPartC1, &w, &plan);
        let spelled = exec.run_config(gpu_config(L2Choice::TwoPartC1), &w, &plan);
        assert!(Arc::ptr_eq(&named, &spelled));
        assert_eq!(exec.stats().runs_executed, 3);

        // Changing any configuration field is a different key.
        let mut cfg = gpu_config(L2Choice::TwoPartC1);
        cfg.icnt_latency_ns += 1;
        let changed = exec.run_config(cfg, &w, &plan);
        assert!(!Arc::ptr_eq(&named, &changed));
        assert_eq!(exec.stats().runs_executed, 4);
    }

    #[test]
    fn same_name_workloads_with_different_seeds_run_separately() {
        let exec = Executor::new(1);
        let w = suite::by_name("lud").expect("lud");
        let reseeded = Workload {
            seed: w.seed ^ 0x5EED,
            ..w.clone()
        };
        assert_eq!(w.name, reseeded.name);
        let plan = tiny_plan();
        let a = exec.run(L2Choice::SramBaseline, &w, &plan);
        let b = exec.run(L2Choice::SramBaseline, &reseeded, &plan);
        assert!(!Arc::ptr_eq(&a, &b), "a reseeded workload is another run");
        assert_eq!(exec.stats().runs_executed, 2);
        assert_eq!(exec.stats().cache_hits, 0);
        // Each is its own simulation: the reseeded run matches a fresh one.
        assert_eq!(
            b.metrics,
            run(L2Choice::SramBaseline, &reseeded, &plan).metrics
        );
    }

    fn key(choice: L2Choice, workload: &str, plan: &RunPlan) -> String {
        let workload = suite::by_name(workload).expect("suite workload");
        memo_key(&gpu_config(choice), &workload, plan)
    }

    #[test]
    fn memo_keys_separate_every_dimension() {
        let plan = tiny_plan();
        let base = key(L2Choice::TwoPartC1, "lud", &plan);
        assert_eq!(base, key(L2Choice::TwoPartC1, "lud", &plan));
        let mut slower_icnt = gpu_config(L2Choice::TwoPartC1);
        slower_icnt.icnt_latency_ns += 1;
        let lud = suite::by_name("lud").expect("lud");
        let reseeded = Workload {
            seed: lud.seed + 1,
            ..lud.clone()
        };
        let variants = [
            key(L2Choice::TwoPartC2, "lud", &plan),
            key(L2Choice::TwoPartC1, "nw", &plan),
            key(L2Choice::TwoPartC1, "lud", &plan.with_scale(0.06)),
            key(
                L2Choice::TwoPartC1,
                "lud",
                &RunPlan {
                    max_cycles: plan.max_cycles + 1,
                    ..plan
                },
            ),
            key(L2Choice::TwoPartC1, "lud", &plan.with_check(true)),
            key(L2Choice::TwoPartC1, "lud", &plan.with_faults(1e-4, 3)),
            key(L2Choice::TwoPartC1, "lud", &plan.with_faults(1e-4, 4)),
            key(
                L2Choice::TwoPartC1,
                "lud",
                &plan.with_policy(LlcPolicy::AdaptiveRetention),
            ),
            memo_key(&slower_icnt, &lud, &plan),
            memo_key(&gpu_config(L2Choice::TwoPartC1), &reseeded, &plan),
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(base, *v, "variant {i} collided with the base key");
        }
    }

    #[test]
    fn config_keys_track_the_configuration() {
        let plan = tiny_plan();
        let a = key(L2Choice::TwoPartC1, "lud", &plan);
        let b = key(L2Choice::TwoPartC2, "lud", &plan);
        assert_ne!(a, b);
        // A named configuration and the same configuration built by hand
        // share one key, so sweep points equal to C1 reuse its run.
        let mut by_hand = gpu_config(L2Choice::SramBaseline);
        by_hand.l2 = L2ModelConfig::TwoPart(
            crate::configs::two_part_config(L2Choice::TwoPartC1).expect("C1 is two-part"),
        );
        let lud = suite::by_name("lud").expect("lud");
        assert_eq!(memo_key(&by_hand, &lud, &plan), a);
    }

    #[test]
    fn concurrent_requests_for_one_key_simulate_once() {
        let exec = Executor::new(4);
        let w = suite::by_name("lud").expect("lud");
        let plan = tiny_plan();
        let outs = exec.map(&[(); 8], |_| exec.run(L2Choice::SramBaseline, &w, &plan));
        for o in &outs[1..] {
            assert!(Arc::ptr_eq(&outs[0], o));
        }
        let s = exec.stats();
        assert_eq!(s.runs_executed, 1, "one simulation for eight requests");
        assert_eq!(s.cache_hits, 7);
    }

    #[test]
    fn parallel_and_sequential_runs_agree_exactly() {
        let w = suite::by_name("nw").expect("nw");
        let plan = tiny_plan();
        let seq = run(L2Choice::TwoPartC1, &w, &plan);
        let par = Executor::new(4).map(&[(); 3], |_| run(L2Choice::TwoPartC1, &w, &plan));
        for p in &par {
            assert_eq!(p.metrics, seq.metrics);
            assert_eq!(p.two_part, seq.two_part);
            assert_eq!(p.writes, seq.writes);
        }
    }

    #[test]
    fn plans_scale_work() {
        let w = suite::by_name("gaussian").expect("gaussian");
        let small = run(L2Choice::SramBaseline, &w, &tiny_plan());
        let smaller = run(
            L2Choice::SramBaseline,
            &w,
            &RunPlan {
                scale: 0.02,
                max_cycles: 2_000_000,
                ..RunPlan::full()
            },
        );
        assert!(smaller.metrics.instructions < small.metrics.instructions);
    }

    #[test]
    fn map_isolates_panicking_items_until_the_batch_completes() {
        use std::sync::atomic::AtomicU32;
        let exec = Executor::new(4);
        let items: Vec<u32> = (0..16).collect();
        let completed = AtomicU32::new(0);
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let result = catch_unwind(AssertUnwindSafe(|| {
            exec.map(&items, |&i| {
                if i == 3 {
                    panic!("poisoned item {i}");
                }
                completed.fetch_add(1, Ordering::Relaxed);
                i
            })
        }));
        std::panic::set_hook(hook);
        let payload = result.expect_err("the poisoned item's panic must re-raise");
        assert_eq!(
            crate::error::panic_message(payload.as_ref()),
            "poisoned item 3"
        );
        assert_eq!(
            completed.load(Ordering::Relaxed),
            15,
            "every healthy item runs to completion first"
        );
    }

    #[test]
    fn fault_spec_changes_the_memo_key() {
        let exec = Executor::new(1);
        let w = suite::by_name("lud").expect("lud");
        let plan = tiny_plan();
        let a = exec.run(L2Choice::TwoPartC1, &w, &plan);
        let b = exec.run(L2Choice::TwoPartC1, &w, &plan.with_faults(1e-4, 9));
        assert!(
            !Arc::ptr_eq(&a, &b),
            "faulted plan must not hit the clean cache"
        );
        assert_eq!(exec.stats().runs_executed, 2);
    }

    #[test]
    fn policy_changes_the_memo_key() {
        let exec = Executor::new(1);
        let w = suite::by_name("lud").expect("lud");
        let plan = tiny_plan();
        let a = exec.run(L2Choice::TwoPartC1, &w, &plan);
        let b = exec.run(
            L2Choice::TwoPartC1,
            &w,
            &plan.with_policy(LlcPolicy::AdaptiveRetention),
        );
        assert!(
            !Arc::ptr_eq(&a, &b),
            "adaptive plan must not hit the fixed-policy cache"
        );
        assert_eq!(exec.stats().runs_executed, 2);
    }

    #[test]
    fn explicit_fixed_policy_plan_is_byte_transparent() {
        let w = suite::by_name("nw").expect("nw");
        let plan = tiny_plan();
        let default_run = run(L2Choice::TwoPartC1, &w, &plan);
        let fixed = run(L2Choice::TwoPartC1, &w, &plan.with_policy(LlcPolicy::Fixed));
        assert_eq!(default_run.metrics, fixed.metrics);
        assert_eq!(default_run.two_part, fixed.two_part);
        assert_eq!(default_run.writes, fixed.writes);
    }

    #[test]
    fn zero_rate_fault_spec_is_byte_transparent() {
        let w = suite::by_name("nw").expect("nw");
        let plan = tiny_plan();
        let clean = run(L2Choice::TwoPartC1, &w, &plan);
        let zeroed = run(L2Choice::TwoPartC1, &w, &plan.with_faults(0.0, 1234));
        assert_eq!(clean.metrics, zeroed.metrics);
        assert_eq!(clean.two_part, zeroed.two_part);
        assert_eq!(clean.writes, zeroed.writes);
    }

    #[test]
    fn baselines_ignore_fault_and_policy_settings() {
        let w = suite::by_name("nw").expect("nw");
        let plan = tiny_plan();
        let steered = plan
            .with_faults(5e-4, 7)
            .with_policy(LlcPolicy::AdaptiveRetention);
        for choice in [L2Choice::SramBaseline, L2Choice::SttBaseline] {
            let plain = run(choice, &w, &plan);
            let other = run(choice, &w, &steered);
            assert_eq!(plain.metrics, other.metrics, "{choice:?}");
            assert_eq!(plain.writes, other.writes, "{choice:?}");
        }
    }

    #[test]
    fn faulted_runs_stay_deterministic_and_counted() {
        let w = suite::by_name("nw").expect("nw");
        let plan = tiny_plan().with_faults(5e-4, 7).with_check(true);
        let a = run(L2Choice::TwoPartC1, &w, &plan);
        let b = run(L2Choice::TwoPartC1, &w, &plan);
        assert_eq!(a.metrics, b.metrics, "fault stream must be replayable");
        assert_eq!(a.two_part, b.two_part);
        let tp = a.two_part.expect("two-part stats");
        assert!(
            tp.ecc_corrections + tp.ecc_uncorrectable + tp.refresh_drops + tp.buffer_stalls > 0,
            "a nonzero rate must actually inject"
        );
        let report = a.check.expect("checker attached");
        assert!(report.is_clean(), "checker must stay green under injection");
    }
}
