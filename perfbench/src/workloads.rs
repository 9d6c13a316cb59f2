//! The four workloads: their inputs, built from the seed; one
//! repetition of each; and the per-operation correctness checks.
//!
//! Everything here runs on the calling thread. No `--sim-threads` pool,
//! no `fuzz_sharded` shards and no `Executor` jobs are used, so neither
//! worker threads nor the executor's memo or result store can take or
//! skip work.

use std::fmt::Debug;

use sttgpu_core::{LlcModel, TwoPartConfig, TwoPartLlc, TwoPartStats};
use sttgpu_experiments::configs::{gpu_config, two_part_config, L2Choice};
use sttgpu_experiments::replay::replay_records;
use sttgpu_experiments::runner::RunPlan;
use sttgpu_oracle::{
    corner_geometries, fuzz, ops_to_records, run_case, scenario_families, Corner, Op,
    ScenarioFamily,
};
use sttgpu_sim::{Gpu, GpuConfig, RunMetrics, Workload};
use sttgpu_tracefile::{TraceHeader, TraceRecord};
use sttgpu_workloads::suite;

use crate::replay::{
    decode, dut_replay, encode, fuzz_case, replay_raw, replay_requests, retention_spec, Calls,
};
use crate::spans::Tracing;

/// The design point every workload runs on: the paper's C1 two-part L2.
const DESIGN: L2Choice = L2Choice::TwoPartC1;

/// A workload, by its command-line name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// All 16 suite workloads on the C1 GPU.
    GpuSuite,
    /// The suite's recorded LLC call streams, decoded and replayed.
    LlcReplay,
    /// One long retention-bound request stream replayed on C1's LLC.
    LlcRetention,
    /// The differential oracle's seeded fuzz campaign.
    OracleFuzz,
}

impl Kind {
    /// Every workload.
    pub const ALL: [Kind; 4] = [
        Kind::GpuSuite,
        Kind::LlcReplay,
        Kind::LlcRetention,
        Kind::OracleFuzz,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::GpuSuite => "gpu-suite",
            Kind::LlcReplay => "llc-replay",
            Kind::LlcRetention => "llc-retention",
            Kind::OracleFuzz => "oracle-fuzz",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// What `work_per_s` counts on this workload.
    pub fn work_unit(self) -> &'static str {
        match self {
            Kind::GpuSuite => "sim_cycles_per_s",
            Kind::LlcReplay | Kind::LlcRetention => "llc_calls_per_s",
            Kind::OracleFuzz => "fuzz_cases_per_s",
        }
    }
}

/// Input sizes of a run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sizes {
    /// `suite::scaled` factor of every suite workload (gpu-suite and
    /// llc-replay run the same 16 workloads).
    pub suite_scale: f64,
    /// Requests in the llc-retention stream.
    pub retention_ops: usize,
    /// Cases in one oracle-fuzz repetition.
    pub fuzz_cases: u64,
}

impl Sizes {
    /// The sizes the benchmark measures.
    pub const RUN: Sizes = Sizes {
        suite_scale: 0.25,
        retention_ops: 1_000_000,
        fuzz_cases: 2_000,
    };

    /// Small sizes for the benchmark's own tests.
    pub const TINY: Sizes = Sizes {
        suite_scale: 0.05,
        retention_ops: 4_000,
        fuzz_cases: 24,
    };
}

/// Derives an independent seed for input `salt` from the run's seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over the `Debug` rendering of `v`, chained onto `h`. `Debug`
/// prints every field, floats exactly, so equal digests mean equal
/// statistics.
pub fn digest(h: u64, v: &impl Debug) -> u64 {
    format!("{v:?}")
        .bytes()
        .fold(h ^ 0xCBF2_9CE4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3)
        })
}

/// The simulated counts of one repetition, summed over its operations.
/// They are deterministic: every repetition of a run repeats them.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counts {
    /// GPU cycles simulated.
    pub cycles: u64,
    /// Thread instructions committed.
    pub instructions: u64,
    /// Cycles × SMs of every GPU run.
    pub sm_cycles: u64,
    /// Cycles busy SMs could not issue, summed over SMs.
    pub sm_idle_cycles: u64,
    /// L1 read hits.
    pub l1_read_hits: u64,
    /// L1 read misses.
    pub l1_read_misses: u64,
    /// Replays on full L1 MSHRs.
    pub mshr_stalls: u64,
    /// DRAM reads.
    pub dram_reads: u64,
    /// DRAM writes.
    pub dram_writes: u64,
    /// L2 probes made by the GPUs.
    pub l2_accesses: u64,
    /// LLC probes that hit, over every LLC driven.
    pub llc_hits: u64,
    /// LLC probes, over every LLC driven.
    pub llc_accesses: u64,
    /// Hits found only by the second lookup.
    pub second_search_hits: u64,
    /// HR→LR migrations.
    pub migrations_to_lr: u64,
    /// LR→HR demotions.
    pub demotions_to_hr: u64,
    /// LR refreshes.
    pub refreshes: u64,
    /// LR lines that expired unrefreshed.
    pub lr_expirations: u64,
    /// HR lines that reached the end of their retention.
    pub hr_expirations: u64,
    /// Write-backs forced by swap-buffer overflow.
    pub overflow_writebacks: u64,
    /// Swap-buffer stalls.
    pub buffer_stalls: u64,
    /// LLC dynamic energy, nJ.
    pub llc_dynamic_nj: f64,
    /// LLC calls the benchmark issued itself.
    pub calls: Calls,
    /// Trace records decoded.
    pub records: u64,
    /// Encoded trace bytes decoded.
    pub trace_bytes: u64,
    /// Fuzz cases run.
    pub cases: u64,
    /// Requests in those cases.
    pub oracle_ops: u64,
    /// Cases where the oracle and the LLC diverged.
    pub divergences: u64,
}

impl Counts {
    fn add_llc(&mut self, s: &TwoPartStats, dynamic_nj: f64) {
        let hits = s.lr_read_hits + s.hr_read_hits + s.lr_write_hits + s.hr_write_hits;
        self.llc_hits += hits;
        self.llc_accesses += hits + s.read_misses + s.write_misses;
        self.second_search_hits += s.second_search_hits;
        self.migrations_to_lr += s.migrations_to_lr;
        self.demotions_to_hr += s.demotions_to_hr;
        self.refreshes += s.refreshes;
        self.lr_expirations += s.lr_expirations;
        self.hr_expirations += s.hr_expirations;
        self.overflow_writebacks += s.overflow_writebacks;
        self.buffer_stalls += s.buffer_stalls;
        self.llc_dynamic_nj += dynamic_nj;
    }

    fn add_gpu_run(&mut self, m: &RunMetrics, sms: usize) {
        self.cycles += m.cycles;
        self.instructions += m.instructions;
        self.sm_cycles += m.cycles * sms as u64;
        self.sm_idle_cycles += m.sm_idle_cycles;
        self.l1_read_hits += m.l1_read_hits;
        self.l1_read_misses += m.l1_read_misses;
        self.mshr_stalls += m.mshr_stalls;
        self.dram_reads += m.dram_reads;
        self.dram_writes += m.dram_writes;
        self.l2_accesses += m.l2.accesses();
    }
}

/// The outcome of one repetition.
#[derive(Clone, Debug, Default)]
pub struct RepOut {
    /// Operations attempted.
    pub ops: u64,
    /// Operations that failed their own check or panicked.
    pub failed: u64,
    /// Work units done (see [`Kind::work_unit`]).
    pub work: u64,
    /// One digest of every simulated statistic per checked unit, in a
    /// fixed order; `None` for a unit that already failed. Each unit
    /// stands for an equal share of `ops`.
    pub digests: Vec<Option<u64>>,
    /// Simulated counts.
    pub counts: Counts,
    /// Time inside timed LLC calls on read-mostly and write-heavy
    /// streams, ns (traced llc-replay only).
    pub class_ns: [u64; 2],
    /// LLC calls on read-mostly and write-heavy streams.
    pub class_calls: [u64; 2],
}

impl RepOut {
    fn unit(&mut self, ops: u64, result: Option<u64>) {
        self.ops += ops;
        if result.is_none() {
            self.failed += ops;
        }
        self.digests.push(result);
    }
}

/// One recorded suite workload: its encoded raw LLC call stream and the
/// statistics the recording run produced.
#[derive(Clone, Debug)]
pub struct Stream {
    /// Workload name.
    pub name: String,
    /// The binary trace encoding of the call stream.
    pub bytes: Vec<u8>,
    /// Records in the stream.
    pub records: u64,
    /// The recording run's LLC statistics; a replay must reproduce them.
    pub expected: TwoPartStats,
    /// Whether at least a fifth of the stream's probes are writes.
    pub write_heavy: bool,
}

/// The inputs of one workload, built by [`Bench::setup`].
#[derive(Debug)]
pub enum Inputs {
    /// The 16 suite workloads, reseeded, and the digest of each one's
    /// statistics from a reference run.
    GpuSuite(Vec<(Workload, u64)>),
    /// The suite's recorded streams.
    LlcReplay(Vec<Stream>),
    /// The retention stream and the statistics the repository's own
    /// requests-mode replay (`replay_records`) produced for it.
    LlcRetention {
        /// The lowered requests.
        ops: Vec<Op>,
        /// `replay_records`' statistics.
        expected: TwoPartStats,
    },
    /// The fuzz campaign and, per case, the statistics of its requests
    /// replayed on the case's LLC alone.
    OracleFuzz {
        /// Cases per repetition.
        cases: u64,
        /// Campaign seed.
        seed: u64,
        /// Corner geometries the campaign rotates through.
        corners: Vec<Corner>,
        /// Scenario families it draws odd cases from.
        families: Vec<ScenarioFamily>,
        /// Per case: requests and the LLC's statistics after them.
        expected: Vec<(u64, TwoPartStats)>,
    },
}

/// A workload ready to run: its inputs and the first repetition's
/// digests, which later repetitions must reproduce.
#[derive(Debug)]
pub struct Bench {
    /// The workload.
    pub kind: Kind,
    /// Its inputs.
    pub inputs: Inputs,
    /// Digests of the first untraced and the first traced repetition.
    reference: [Vec<Option<u64>>; 2],
}

fn max_cycles() -> u64 {
    RunPlan::full().max_cycles
}

fn design_gpu() -> GpuConfig {
    gpu_config(DESIGN)
}

fn design_llc() -> TwoPartConfig {
    two_part_config(DESIGN).expect("C1 is a two-part design point")
}

fn two_part_stats(gpu: &Gpu) -> TwoPartStats {
    *gpu.llc()
        .as_two_part()
        .expect("C1 runs a two-part LLC")
        .stats()
}

/// The 16 suite workloads at `scale`, each reseeded from `seed`.
fn suite_workloads<T: Tracing>(seed: u64, scale: f64, t: &mut T) -> Vec<Workload> {
    t.span("workloads.build", |_| {
        suite::all()
            .iter()
            .enumerate()
            .map(|(i, w)| Workload {
                seed: mix(seed, i as u64),
                ..suite::scaled(w, scale)
            })
            .collect()
    })
}

/// Runs a workload on a fresh C1 GPU.
fn run_on_gpu<T: Tracing>(w: &Workload, t: &mut T) -> (RunMetrics, TwoPartStats) {
    let mut gpu = t.span("sim.new", |_| Gpu::new(design_gpu()));
    let m = t.span("sim.run_workload", |_| gpu.run_workload(w, max_cycles()));
    (m, two_part_stats(&gpu))
}

/// The digest a finished run's statistics must reproduce.
fn run_digest(m: &RunMetrics, stats: &TwoPartStats) -> Option<u64> {
    m.finished.then(|| digest(0, &(m, stats)))
}

/// Records a workload's raw LLC call stream on a fresh C1 GPU, as
/// `record_workload` does for a built-in workload, and encodes it.
fn record<T: Tracing>(w: &Workload, t: &mut T) -> Stream {
    let cfg = design_gpu();
    let (records, expected) = t.span("sim.record", |_| {
        let mut gpu = Gpu::new(cfg.clone());
        gpu.start_llc_call_log();
        gpu.run_workload(w, max_cycles());
        let log = gpu.take_llc_call_log().expect("the call log was started");
        (log, two_part_stats(&gpu))
    });
    let bytes = t.span("tracefile.encode", |_| encode(&records, cfg.l2_line_bytes));
    let (mut probes, mut writes) = (0usize, 0usize);
    for rec in &records {
        if let TraceRecord::Access { write, .. } = rec {
            probes += 1;
            writes += usize::from(*write);
        }
    }
    Stream {
        name: w.name.clone(),
        bytes,
        records: records.len() as u64,
        expected,
        write_heavy: writes * 5 >= probes,
    }
}

impl Bench {
    /// Builds the workload's inputs from `seed`.
    pub fn setup<T: Tracing>(kind: Kind, seed: u64, sizes: Sizes, t: &mut T) -> Bench {
        let inputs = match kind {
            Kind::GpuSuite => {
                // The reference run: every repetition must reproduce its
                // statistics exactly. A run that does not finish fails
                // every repetition.
                let workloads = suite_workloads(seed, sizes.suite_scale, t);
                let runs = workloads
                    .into_iter()
                    .map(|w| {
                        let (m, stats) = t.span("sim.reference", |t| run_on_gpu(&w, t));
                        let expected = run_digest(&m, &stats).unwrap_or(0);
                        (w, expected)
                    })
                    .collect();
                Inputs::GpuSuite(runs)
            }
            Kind::LlcReplay => {
                let workloads = suite_workloads(seed, sizes.suite_scale, t);
                Inputs::LlcReplay(workloads.iter().map(|w| record(w, t)).collect())
            }
            Kind::LlcRetention => {
                let spec = retention_spec(seed, sizes.retention_ops);
                let ops = t.span("oracle.lower", |_| spec.lower(mix(seed, 1)));
                let cfg = design_llc();
                let expected = t.span("experiments.replay_records", |_| {
                    let header = TraceHeader::requests(cfg.line_bytes);
                    replay_records(&cfg, &header, &ops_to_records(&ops), false)
                        .expect("the stream uses C1's line size")
                        .stats
                });
                Inputs::LlcRetention { ops, expected }
            }
            Kind::OracleFuzz => {
                let (corners, families) = t.span("oracle.corners", |_| {
                    (corner_geometries(), scenario_families())
                });
                let campaign = mix(seed, 2);
                let expected = (0..sizes.fuzz_cases)
                    .map(|i| {
                        let (corner, ops) = t.span("oracle.gen", |_| {
                            fuzz_case(&corners, &families, campaign, i)
                        });
                        let stats = t.span("oracle.dut_replay", |_| dut_replay(&corner.cfg, &ops));
                        (ops.len() as u64, stats)
                    })
                    .collect();
                Inputs::OracleFuzz {
                    cases: sizes.fuzz_cases,
                    seed: campaign,
                    corners,
                    families,
                    expected,
                }
            }
        };
        Bench {
            kind,
            inputs,
            reference: [Vec::new(), Vec::new()],
        }
    }

    /// A digest of the inputs' expected statistics and the first
    /// untraced repetition's digests: two commits print the same digest
    /// only if both model every simulated statistic identically.
    pub fn digest(&self) -> u64 {
        let expected = match &self.inputs {
            Inputs::GpuSuite(runs) => digest(0, &runs.iter().map(|r| r.1).collect::<Vec<_>>()),
            Inputs::LlcReplay(streams) => streams
                .iter()
                .fold(0, |h, s| digest(h, &(&s.name, s.records, &s.expected))),
            Inputs::LlcRetention { expected, .. } => digest(0, expected),
            Inputs::OracleFuzz { expected, .. } => digest(0, expected),
        };
        digest(expected, &self.reference[0])
    }

    /// Runs one repetition.
    pub fn rep<T: Tracing>(&self, t: &mut T) -> RepOut {
        let mut out = RepOut::default();
        match &self.inputs {
            Inputs::GpuSuite(runs) => {
                let sms = design_gpu().num_sms;
                for (w, expected) in runs {
                    let run = t.guard(|t| run_on_gpu(w, t));
                    let result = run.and_then(|(m, stats)| {
                        out.work += m.cycles;
                        out.counts.add_gpu_run(&m, sms);
                        out.counts.add_llc(&stats, m.l2_energy.dynamic_nj());
                        run_digest(&m, &stats).filter(|d| d == expected)
                    });
                    out.unit(1, result);
                }
            }
            Inputs::LlcReplay(streams) => {
                let cfg = design_llc();
                for s in streams {
                    let class = usize::from(s.write_heavy);
                    let replay = t.guard(|t| {
                        let records = t.span("tracefile.decode", |_| decode(&s.bytes)).ok()?;
                        let mut llc = t.span("core.new", |_| TwoPartLlc::new(cfg.clone()));
                        let before = t.calls_ns();
                        let calls = t.span("bench.replay", |t| replay_raw(&mut llc, &records, t));
                        out.class_ns[class] += t.calls_ns() - before;
                        let nj = llc.energy().dynamic_nj();
                        Some((records.len() as u64, calls, *llc.stats(), nj))
                    });
                    let result = replay.flatten().and_then(|(records, calls, stats, nj)| {
                        out.work += calls.total();
                        out.class_calls[class] += calls.total();
                        out.counts.calls.add(calls);
                        out.counts.records += records;
                        out.counts.trace_bytes += s.bytes.len() as u64;
                        out.counts.add_llc(&stats, nj);
                        (records == s.records && stats == s.expected)
                            .then(|| digest(0, &(records, &stats)))
                    });
                    out.unit(1, result);
                }
            }
            Inputs::LlcRetention { ops, expected } => {
                let cfg = design_llc();
                let replay = t.guard(|t| {
                    let mut llc = t.span("core.new", |_| TwoPartLlc::new(cfg.clone()));
                    let calls = t.span("bench.replay", |t| replay_requests(&mut llc, ops, t));
                    (calls, *llc.stats(), llc.energy().dynamic_nj())
                });
                let result = replay.and_then(|(calls, stats, nj)| {
                    out.work += calls.total();
                    out.counts.calls.add(calls);
                    out.counts.add_llc(&stats, nj);
                    (stats == *expected).then(|| digest(0, &stats))
                });
                out.unit(1, result);
            }
            Inputs::OracleFuzz {
                cases,
                seed,
                corners,
                families,
                expected,
            } => {
                out.work = *cases;
                out.counts.cases = *cases;
                if !t.enabled() {
                    // The campaign as users run it: one call, one thread.
                    match t.guard(|t| t.span("oracle.fuzz", |_| fuzz(*cases, *seed))) {
                        Some(report) => {
                            let failed = report.failures.len() as u64;
                            out.counts.divergences = failed;
                            out.ops = *cases;
                            out.failed = failed;
                            out.digests.push(Some(digest(0, &report)));
                        }
                        None => out.unit(*cases, None),
                    }
                    return out;
                }
                // Traced: the same campaign case by case, so generation,
                // the lockstep comparison and the LLC's own share are
                // timed apart. The LLC-alone replay is work the untraced
                // run does not do; it shows in the tracing overhead.
                for (i, (n_ops, want)) in expected.iter().enumerate() {
                    let case = t.guard(|t| {
                        let (corner, ops) = t.span("oracle.gen", |_| {
                            fuzz_case(corners, families, *seed, i as u64)
                        });
                        let divergence = t.span("oracle.run_case", |_| run_case(&corner.cfg, &ops));
                        let stats = t.span("oracle.dut_replay", |_| dut_replay(&corner.cfg, &ops));
                        (ops.len() as u64, divergence, stats)
                    });
                    let result = case.and_then(|(len, divergence, stats)| {
                        out.counts.oracle_ops += len;
                        out.counts.divergences += u64::from(divergence.is_some());
                        out.counts.add_llc(&stats, 0.0);
                        (divergence.is_none() && len == *n_ops && stats == *want)
                            .then(|| digest(0, &stats))
                    });
                    out.unit(1, result);
                }
            }
        }
        out
    }

    /// The correctness gate: compares a repetition's digests with the
    /// first repetition of the same mode and returns its failed
    /// operations, its own failures included.
    pub fn gate(&mut self, out: &RepOut, traced: bool) -> u64 {
        let reference = &mut self.reference[usize::from(traced)];
        if reference.is_empty() {
            reference.clone_from(&out.digests);
            return out.failed;
        }
        let share = out.ops / out.digests.len().max(1) as u64;
        let mut failed = out.failed;
        for (i, d) in out.digests.iter().enumerate() {
            match (d, reference.get_mut(i)) {
                (Some(d), Some(slot @ None)) => *slot = Some(*d),
                (Some(d), Some(Some(r))) if d != r => failed += share,
                (Some(_), None) => failed += share,
                _ => {}
            }
        }
        failed.min(out.ops)
    }
}
