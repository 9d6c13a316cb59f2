//! The repository benchmark: four single-threaded workloads that time
//! the GPU front-end, the LLC demand path, the LLC retention path and
//! the differential oracle from outside the crates, through their public
//! functions only. `README.md` in this directory says why each workload
//! exists and which end-to-end metric each layer metric should move.
//!
//! A run sets the workload up several times (the median is `setup_s`),
//! then repeats it for the requested seconds, moving the thread to the
//! next allowed core before each repetition; the fastest repetition is
//! `wall_s`. A traced run alternates untraced and traced repetitions:
//! the fastest traced one gives the per-layer self times, and its
//! difference from the fastest untraced one is the tracing overhead.

pub mod host;
pub mod replay;
pub mod spans;
pub mod workloads;

use std::collections::BTreeMap;
use std::ops::Range;
use std::time::Instant;

use spans::{Call, Off, Recorder, Tracing};
use workloads::{Bench, Kind, RepOut, Sizes};

/// The end-to-end metrics an untraced run prints, in order, with units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics a traced run prints, in order, with units.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("bench.self_s", "s/rep"),
    ("sim.self_s", "s/rep"),
    ("core.self_s", "s/rep"),
    ("tracefile.self_s", "s/rep"),
    ("oracle.self_s", "s/rep"),
    ("trace.wall_s", "s/rep"),
    ("trace.overhead_s", "s/rep"),
    ("sim.run_s", "s/rep"),
    ("sim.host_ns_per_cycle", "ns/cycle"),
    ("sim.cycles", "count"),
    ("sim.instructions", "count"),
    ("sim.ipc", "instr/cycle"),
    ("sim.idle_skip_frac", "ratio"),
    ("sim.l1_read_miss_frac", "ratio"),
    ("sim.mshr_stalls", "count"),
    ("sim.dram_reads", "count"),
    ("sim.dram_writes", "count"),
    ("sim.l2_accesses", "count"),
    ("core.probe_ns_p50", "ns/call"),
    ("core.probe_ns_p99", "ns/call"),
    ("core.fill_ns_p50", "ns/call"),
    ("core.fill_ns_p99", "ns/call"),
    ("core.maintain_ns_p50", "ns/call"),
    ("core.maintain_ns_p99", "ns/call"),
    ("core.probes", "count"),
    ("core.fills", "count"),
    ("core.maintains", "count"),
    ("core.hit_frac", "ratio"),
    ("core.second_search_frac", "ratio"),
    ("core.migrations_to_lr", "count"),
    ("core.demotions_to_hr", "count"),
    ("core.refreshes", "count"),
    ("core.lr_expirations", "count"),
    ("core.hr_expirations", "count"),
    ("core.overflow_writebacks", "count"),
    ("core.buffer_stalls", "count"),
    ("core.dynamic_energy_nj", "nJ"),
    ("core.read_mostly.ns_per_call", "ns/call"),
    ("core.write_heavy.ns_per_call", "ns/call"),
    ("tracefile.decode_s", "s/rep"),
    ("tracefile.records", "count"),
    ("tracefile.bytes", "B"),
    ("oracle.gen_s", "s/rep"),
    ("oracle.run_case_s", "s/rep"),
    ("oracle.dut_replay_s", "s/rep"),
    ("oracle.cases", "count"),
    ("oracle.ops", "count"),
    ("oracle.divergences", "count"),
    ("workloads.build_s", "s/setup"),
    ("sim.setup_s", "s/setup"),
    ("tracefile.encode_s", "s/setup"),
    ("oracle.setup_s", "s/setup"),
    ("experiments.replay_s", "s/setup"),
    ("bench.setups", "count"),
    ("bench.reps", "count"),
];

/// Set up at least this many times, and more while they are cheap.
const MIN_SETUPS: usize = 5;
/// Stop setting up once this many setups ran or the budget is spent.
const MAX_SETUPS: usize = 15;
/// Setup time after which no further setups start, s.
const SETUP_BUDGET_S: f64 = 2.0;
/// Repetitions of each kind a run makes at least.
const MIN_REPS: usize = 3;

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// The workload.
    pub kind: Kind,
    /// The seed its inputs are built from.
    pub seed: u64,
    /// How long to repeat the workload, s.
    pub seconds: f64,
    /// Whether to make the traced run.
    pub trace: bool,
    /// Input sizes.
    pub sizes: Sizes,
}

/// One printed metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit, as declared in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Everything a run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted over all repetitions.
    pub attempted: u64,
    /// Operations that failed a check or panicked.
    pub failed: u64,
    /// The metrics: end-to-end when untraced, per-layer when traced.
    pub metrics: Vec<Metric>,
    /// The workload's statistics digest.
    pub digest: u64,
    /// `key=value` facts about the host, the build and the run.
    pub record: Vec<(&'static str, String)>,
    /// Spans of the traced setups.
    pub setup_spans: Recorder,
    /// Spans of the traced repetitions.
    pub rep_spans: Recorder,
}

impl Outcome {
    /// Whether every attempted operation passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The run record: one `# perfbench key=value ...` line.
    pub fn record_line(&self) -> String {
        let fields: Vec<String> = self
            .record
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        format!("# perfbench {}", fields.join(" "))
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The repetitions of one kind (untraced or traced) a run made.
#[derive(Debug, Default)]
struct Reps {
    walls: Vec<f64>,
    /// The first repetition's outcome; its counts repeat in every other.
    first: Option<RepOut>,
    /// Span index range of the fastest repetition (traced only).
    fastest: Option<(f64, Range<usize>)>,
}

/// Runs one workload as `o` asks.
pub fn run(o: &Options) -> Outcome {
    // Read before the first pin narrows what the process may use.
    let nproc = host::nproc();
    let mut cpus = host::Cpus::new();
    let mut setup_spans = Recorder::default();
    let mut setup_s = Vec::new();
    let mut bench = None;
    let started = Instant::now();
    while setup_s.len() < MIN_SETUPS
        || (setup_s.len() < MAX_SETUPS && started.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        drop(bench.take());
        cpus.rotate();
        let t0 = Instant::now();
        let b = if o.trace {
            setup_spans.span("bench.setup", |t| Bench::setup(o.kind, o.seed, o.sizes, t))
        } else {
            Bench::setup(o.kind, o.seed, o.sizes, &mut Off)
        };
        setup_s.push(t0.elapsed().as_secs_f64());
        bench = Some(b);
    }
    let mut bench = bench.expect("set up at least once");

    let mut rep_spans = Recorder::default();
    let mut reps: [Reps; 2] = Default::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut class_ns = [0u64; 2];
    let mut class_calls = [0u64; 2];
    let started = Instant::now();
    for i in 0usize.. {
        let enough = |r: &Reps| r.walls.len() >= MIN_REPS;
        if started.elapsed().as_secs_f64() >= o.seconds
            && enough(&reps[0])
            && (!o.trace || enough(&reps[1]))
        {
            break;
        }
        let traced = o.trace && i % 2 == 1;
        // A traced repetition runs on the core of the untraced one
        // before it, so the overhead compares like with like.
        if !traced {
            cpus.rotate();
        }
        let first_span = rep_spans.spans().len();
        let t0 = Instant::now();
        let out = if traced {
            rep_spans.span("bench.rep", |t| bench.rep(t))
        } else {
            bench.rep(&mut Off)
        };
        let wall = t0.elapsed().as_secs_f64();
        failed += bench.gate(&out, traced);
        attempted += out.ops;
        let r = &mut reps[usize::from(traced)];
        r.walls.push(wall);
        if traced {
            for c in 0..2 {
                class_ns[c] += out.class_ns[c];
                class_calls[c] += out.class_calls[c];
            }
            if r.fastest.as_ref().is_none_or(|(w, _)| wall < *w) {
                r.fastest = Some((wall, first_span..rep_spans.spans().len()));
            }
        }
        r.first.get_or_insert(out);
    }

    let [untraced, traced] = reps;
    let work = untraced.first.as_ref().map_or(0, |r| r.work);
    let metrics = if o.trace {
        Layers {
            setup_spans: &setup_spans,
            rep_spans: &mut rep_spans,
            setups: setup_s.len(),
            untraced: &untraced,
            traced: &traced,
            class_ns,
            class_calls,
        }
        .metrics()
    } else {
        let wall = min(&untraced.walls);
        let values = [
            median(&setup_s),
            wall,
            work as f64 / wall,
            host::peak_rss_mb(),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, value, unit })
            .collect()
    };

    let sizes = o.sizes;
    let digest = bench.digest();
    let record = vec![
        ("workload", o.kind.name().to_string()),
        ("seed", o.seed.to_string()),
        ("trace", u8::from(o.trace).to_string()),
        ("nproc", nproc.to_string()),
        ("threads", "1".to_string()),
        ("cpus", format!("{:?}", cpus.allowed()).replace(' ', "")),
        ("commit", host::commit()),
        ("rustc", format!("\"{}\"", host::RUSTC)),
        ("suite_scale", sizes.suite_scale.to_string()),
        ("retention_ops", sizes.retention_ops.to_string()),
        ("fuzz_cases", sizes.fuzz_cases.to_string()),
        ("setup_samples", setup_s.len().to_string()),
        ("wall_samples", untraced.walls.len().to_string()),
        ("wall_median_s", median(&untraced.walls).to_string()),
        ("traced_samples", traced.walls.len().to_string()),
        ("work_unit", o.kind.work_unit().to_string()),
        ("work_per_rep", work.to_string()),
        ("fail_frac", ratio(failed, attempted).to_string()),
        ("digest", format!("{digest:016x}")),
    ];
    Outcome {
        attempted,
        failed,
        metrics,
        digest,
        record,
        setup_spans,
        rep_spans,
    }
}

/// The inputs of the per-layer metrics.
struct Layers<'a> {
    setup_spans: &'a Recorder,
    rep_spans: &'a mut Recorder,
    setups: usize,
    untraced: &'a Reps,
    traced: &'a Reps,
    class_ns: [u64; 2],
    class_calls: [u64; 2],
}

/// Sums the self times of the span names `pick` accepts, in seconds,
/// divided by `n`.
fn self_s(self_ns: &BTreeMap<&str, u64>, n: f64, pick: impl Fn(&str) -> bool) -> f64 {
    let ns: u64 = self_ns
        .iter()
        .filter(|(name, _)| pick(name))
        .map(|(_, ns)| ns)
        .sum();
    ns as f64 / n / 1e9
}

fn in_layer(name: &str, layer: &str) -> bool {
    name.split_once('.').is_some_and(|(head, _)| head == layer)
}

impl Layers<'_> {
    fn metrics(&mut self) -> Vec<Metric> {
        let (fastest_wall, range) = self
            .traced
            .fastest
            .clone()
            .expect("at least one traced repetition");
        // Self times come from the fastest traced repetition, so they
        // add up to `trace.wall_s`, the same estimator `wall_s` uses.
        let rep = self.rep_spans.self_ns(range);
        let layer = |l: &str| self_s(&rep, 1.0, |n| in_layer(n, l));
        let span = |s: &str| self_s(&rep, 1.0, |n| n == s);
        let setups = self.setups as f64;
        let setup = self.setup_spans.self_ns(0..self.setup_spans.spans().len());
        let setup_span = |s: &str| self_s(&setup, setups, |n| n == s);
        let setup_layer = |l: &str| self_s(&setup, setups, |n| in_layer(n, l));
        let c = &self.traced.first.as_ref().expect("traced").counts;
        let run_s = span("sim.run_workload");
        let mut q = |kind: Call, p: f64| self.rep_spans.calls(kind).quantile_ns(p) as f64;
        let quantiles = [
            q(Call::Probe, 0.5),
            q(Call::Probe, 0.99),
            q(Call::Fill, 0.5),
            q(Call::Fill, 0.99),
            q(Call::Maintain, 0.5),
            q(Call::Maintain, 0.99),
        ];
        let values = [
            layer("bench"),
            layer("sim"),
            layer("core"),
            layer("tracefile"),
            layer("oracle"),
            fastest_wall,
            fastest_wall - min(&self.untraced.walls),
            run_s,
            if c.cycles == 0 {
                0.0
            } else {
                run_s * 1e9 / c.cycles as f64
            },
            c.cycles as f64,
            c.instructions as f64,
            ratio(c.instructions, c.cycles),
            ratio(c.sm_idle_cycles, c.sm_cycles),
            ratio(c.l1_read_misses, c.l1_read_hits + c.l1_read_misses),
            c.mshr_stalls as f64,
            c.dram_reads as f64,
            c.dram_writes as f64,
            c.l2_accesses as f64,
            quantiles[0],
            quantiles[1],
            quantiles[2],
            quantiles[3],
            quantiles[4],
            quantiles[5],
            c.calls.probes as f64,
            c.calls.fills as f64,
            c.calls.maintains as f64,
            ratio(c.llc_hits, c.llc_accesses),
            ratio(c.second_search_hits, c.llc_hits),
            c.migrations_to_lr as f64,
            c.demotions_to_hr as f64,
            c.refreshes as f64,
            c.lr_expirations as f64,
            c.hr_expirations as f64,
            c.overflow_writebacks as f64,
            c.buffer_stalls as f64,
            c.llc_dynamic_nj,
            ratio(self.class_ns[0], self.class_calls[0]),
            ratio(self.class_ns[1], self.class_calls[1]),
            span("tracefile.decode"),
            c.records as f64,
            c.trace_bytes as f64,
            span("oracle.gen"),
            span("oracle.run_case"),
            span("oracle.dut_replay"),
            c.cases as f64,
            c.oracle_ops as f64,
            c.divergences as f64,
            setup_span("workloads.build"),
            setup_layer("sim"),
            setup_span("tracefile.encode"),
            setup_layer("oracle"),
            setup_span("experiments.replay_records"),
            setups,
            self.traced.walls.len() as f64,
        ];
        PER_LAYER
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, value, unit })
            .collect()
    }
}
