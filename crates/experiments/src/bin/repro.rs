//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro all               # everything, reference scale
//! repro fig8              # one artefact
//! repro fig8 --scale 0.25 # reduced-scale quick look
//! repro --quick all       # scale 0.25 everywhere
//! repro --jobs 8 all      # executor thread count (default: all cores)
//! repro --out results all # also write <artefact>.txt/.csv under results/
//! repro all --check       # attach the runtime invariant checker
//! repro --faults 2e-4 --fault-seed 7 all  # deterministic fault injection
//! repro --llc-policy adaptive-retention all  # runtime-adaptive LLC policy on two-part runs
//! repro --fuzz 10000 --fuzz-seed 7        # differential fuzz vs the oracle
//! ```
//!
//! All artefacts share one [`Executor`], which memoizes every simulation
//! under its configuration, workload and plan, so a simulation needed by
//! several of them — e.g. the SRAM-baseline suite (fig3, fig8, workloads)
//! or the C1 suite (fig4 TH1, fig5 2-way, fig6, fig8, ablation points
//! equal to C1) — runs exactly once. The run summary printed at the end reports executed runs vs.
//! cache hits and simulated-cycle throughput; the same numbers plus
//! per-artefact wall-clock timings land in `BENCH_repro.json`.
//!
//! # Crash resilience
//!
//! With `--out`, every artefact's files are written atomically (temp
//! file, sync, rename), so a killed sweep never leaves a torn one; a
//! killed sweep is simply rerun (a full-scale `repro --jobs 2 all` takes
//! under a minute on a 2-core host). An artefact that panics is
//! **quarantined**: the sweep continues, the failure lands in
//! `<dir>/QUARANTINE.txt` (one `artefact<TAB>reason` line each), and the
//! exit code is nonzero.
//!
//! # Differential fuzzing
//!
//! `--fuzz N` runs `N` seeded random traces through the two-part LLC
//! and the reference model in `sttgpu-oracle`, rotating across the
//! oracle's corner geometries, instead of producing artefacts.
//! `--fuzz-seed` varies the campaign (default 7). With `--jobs N` the
//! campaign is sharded into contiguous case ranges on `N` worker
//! threads; per-case seeds derive from the global case index, so the
//! report is byte-identical to the serial sweep. Any divergence is
//! minimized, printed as ready-to-check-in `Op` literals, and fails
//! the run with a nonzero exit code.

use std::env;
use std::fs;
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use sttgpu_experiments::canary::{
    baseline_path, json_number, median, Verdict, BASELINE_KEY, CANARY_FLOOR, CANARY_SAMPLES,
    CANARY_SCALE,
};
use sttgpu_experiments::error::panic_message;
use sttgpu_experiments::{
    ablations, adaptive, cli, faults, fig3, fig4, fig5, fig6, fig8, table1, table2, workload_table,
    Executor, RunError, RunPlan,
};
use sttgpu_trace::CheckReport;

const ARTEFACTS: [&str; 11] = [
    "table1",
    "table2",
    "workloads",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig8",
    "ablations",
    "faults",
    "adaptive",
];

/// The flags each run mode reads: `(mode flag, how messages name the
/// mode, flags read)`; artefact runs have no mode flag. Any other flag
/// would change nothing in that mode, so [`run`] rejects it.
const MODE_FLAGS: [(&str, &str, &[&str]); 6] = [
    (
        "",
        "artefact targets",
        &[
            "--quick",
            "--scale",
            "--jobs",
            "--out",
            "--check",
            "--faults",
            "--fault-seed",
            "--llc-policy",
        ],
    ),
    (
        "--record",
        "--record WORKLOAD",
        &["--quick", "--scale", "--trace-out"],
    ),
    ("--fuzz", "--fuzz N", &["--fuzz-seed", "--jobs"]),
    ("--canary", "--canary", &["--out"]),
    (
        "--scenario",
        "--scenario NAME[:seed]",
        &["--check", "--trace-out"],
    ),
    ("--trace", "--trace FILE", &["--check"]),
];

/// Rejects the first of `given` that `mode` does not read, naming the
/// flag, the modes that do read it and `mode`.
fn check_mode_flags(mode: &str, given: &[String]) -> Result<(), RunError> {
    let (_, label, reads) = MODE_FLAGS
        .iter()
        .find(|(flag, _, _)| *flag == mode)
        .expect("every mode has a row");
    let Some(flag) = given.iter().find(|f| !reads.contains(&f.as_str())) else {
        return Ok(());
    };
    let readers: Vec<&str> = MODE_FLAGS
        .iter()
        .filter(|(_, _, reads)| reads.contains(&flag.as_str()))
        .map(|(_, label, _)| *label)
        .collect();
    let readers = match readers.split_last() {
        Some((last, rest)) if !rest.is_empty() => format!("{} or {last}", rest.join(", ")),
        _ => readers.concat(),
    };
    Err(RunError::invalid(format!(
        "{flag} pairs with {readers}, not {label}"
    )))
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: repro [--quick] [--scale F] [--jobs N] [--out DIR] \
         [--check] [--faults RATE] [--fault-seed N] [--llc-policy NAME] \
         <all|{}> ...\n\
         \x20      repro --fuzz N [--fuzz-seed S] [--jobs N]  # differential fuzz vs the oracle\n\
         \x20      repro --canary [--out DIR]       # perf canary vs checked-in baseline\n\
         \x20      repro --scenario NAME[:seed] [--check] [--trace-out FILE]  # scenario family vs oracle + C1 replay ('list' lists)\n\
         \x20      repro --trace FILE [--check]     # replay a trace file against the C1 geometry\n\
         \x20      repro --record WORKLOAD --trace-out FILE [--quick] [--scale F]  # dump a workload's LLC call stream",
        ARTEFACTS.join("|")
    );
    ExitCode::FAILURE
}

/// One timed canary measurement: the Fig. 8 suite at the canary scale on
/// a fresh single-job executor. Returns `(wall_clock_s,
/// cycles_simulated, cycles_per_second)`, or `None` when the artefact
/// came out empty (a broken run must be loud).
fn canary_measurement() -> Option<(f64, u64, f64)> {
    let exec = Executor::new(1);
    let plan = RunPlan::full().with_scale(CANARY_SCALE);
    let started = Instant::now();
    let (rows, summary) = fig8::compute(&exec, &plan);
    let secs = started.elapsed().as_secs_f64();
    // Keep the artefact alive so the compute cannot be optimized away.
    if rows.is_empty() || fig8::render(&rows, &summary).is_empty() {
        eprintln!("# canary produced an empty fig8 artefact");
        return None;
    }
    let stats = exec.stats();
    let cps = stats.cycles_simulated as f64 / secs.max(1e-9);
    Some((secs, stats.cycles_simulated, cps))
}

/// Perf canary: times the fixed canary workload [`CANARY_SAMPLES`]
/// times, writes every sample and their median throughput into
/// `BENCH_repro.json`, and fails when the median drops below
/// [`CANARY_FLOOR`] of the committed baseline ([`Verdict::judge`]).
fn run_canary(out_dir: Option<&Path>) -> Result<ExitCode, RunError> {
    eprintln!(
        "# repro --canary: fig8 suite at scale {CANARY_SCALE}, 1 job, {CANARY_SAMPLES} samples"
    );
    let Some(runs) = (0..CANARY_SAMPLES)
        .map(|_| canary_measurement())
        .collect::<Option<Vec<_>>>()
    else {
        return Ok(ExitCode::FAILURE);
    };
    let secs: f64 = runs.iter().map(|r| r.0).sum();
    let cycles = runs[0].1;
    let samples: Vec<f64> = runs.iter().map(|r| r.2).collect();
    let cps = median(&samples);
    let baseline_file = baseline_path();
    let baseline = fs::read_to_string(&baseline_file)
        .ok()
        .and_then(|t| json_number(&t, BASELINE_KEY));
    let listed: Vec<String> = samples.iter().map(|s| format!("{s:.0}")).collect();
    let mut json = String::from("{\n  \"canary\": {\n");
    json.push_str(&format!("    \"scale\": {CANARY_SCALE},\n"));
    json.push_str(&format!("    \"wall_clock_s\": {secs:.3},\n"));
    json.push_str(&format!("    \"cycles_simulated\": {cycles},\n"));
    json.push_str(&format!(
        "    \"samples_cycles_per_second\": [{}],\n",
        listed.join(", ")
    ));
    json.push_str(&format!("    \"cycles_per_second\": {cps:.0},\n"));
    json.push_str(&format!(
        "    \"baseline_cycles_per_second\": {}\n",
        baseline.map_or_else(|| "null".into(), |b| format!("{b:.0}"))
    ));
    json.push_str("  }\n}\n");
    let bench_path = write_in(out_dir, "BENCH_repro.json", &json)?;
    eprintln!(
        "# canary: {CANARY_SAMPLES} x {:.1}M cycles in {secs:.1}s, median {:.2}M cycles/s \
         (written to {})",
        cycles as f64 / 1e6,
        cps / 1e6,
        bench_path.display()
    );
    let verdict = Verdict::judge(cps, baseline);
    match (verdict, baseline) {
        (Verdict::Fail { .. }, Some(b)) => eprintln!(
            "# CANARY FAILED: {:.2}M cycles/s is below {:.0}% of the \
             {:.2}M cycles/s baseline",
            cps / 1e6,
            CANARY_FLOOR * 100.0,
            b / 1e6
        ),
        (Verdict::Pass { fraction }, Some(b)) => eprintln!(
            "# canary passed: {:.0}% of the {:.2}M cycles/s baseline",
            fraction * 100.0,
            b / 1e6
        ),
        _ => eprintln!(
            "# canary: no baseline at {} — recording only",
            baseline_file.display()
        ),
    }
    Ok(ExitCode::from(verdict.exit_status()))
}

/// Differential fuzz mode: `N` seeded traces through implementation and
/// oracle, round-robin over the corner geometries, odd case indices
/// drawn from the scenario families instead of the corners' own specs.
/// Divergences are minimized and printed; any divergence fails the run.
fn run_fuzz(cases: u64, seed: u64, shards: u64) -> ExitCode {
    let corners = sttgpu_oracle::corner_geometries();
    let families = sttgpu_oracle::scenario_families();
    eprintln!(
        "# repro --fuzz: {cases} cases over {} corner geometries (odd cases drawn from \
         {} scenario families), base seed {seed}, {shards} shard(s)",
        corners.len(),
        families.len()
    );
    let started = Instant::now();
    let report = sttgpu_oracle::fuzz_sharded(cases, seed, shards);
    for corner in &corners {
        let failed = report
            .failures
            .iter()
            .filter(|f| f.corner == corner.name)
            .count();
        eprintln!("#   corner   {:<16} {failed} divergence(s)", corner.name);
    }
    for fam in &families {
        let failed = report
            .failures
            .iter()
            .filter(|f| f.scenario == Some(fam.name))
            .count();
        eprintln!("#   scenario {:<16} {failed} divergence(s)", fam.name);
    }
    for f in &report.failures {
        let scenario = f
            .scenario
            .map(|s| format!(" scenario {s}"))
            .unwrap_or_default();
        println!(
            "divergence [{}{scenario} seed {:#x}]: {}",
            f.corner, f.seed, f.divergence
        );
        println!(
            "minimized trace ({} ops):\n{}",
            f.minimized.len(),
            sttgpu_oracle::format_trace(&f.minimized)
        );
    }
    let secs = started.elapsed().as_secs_f64();
    eprintln!(
        "# repro --fuzz: {} cases, {} divergence(s) in {secs:.1}s ({:.0} cases/s)",
        report.cases,
        report.failures.len(),
        report.cases as f64 / secs.max(1e-9)
    );
    if report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Scenario mode: `--scenario NAME[:seed]` lowers one named scenario,
/// differential-tests it across every corner geometry and replays it on
/// the C1 geometry for a stats block. `--scenario list` lists the
/// families. With `trace_out`, the lowered scenario is also saved as a
/// requests-mode trace that `--trace` replays to the same stats block.
/// Any divergence (or checker violation under `--check`) fails the run.
fn run_scenario_mode(arg: &str, check: bool, trace_out: Option<&Path>) -> ExitCode {
    if arg == "list" {
        println!("scenario families (use --scenario NAME[:seed]):");
        for fam in sttgpu_oracle::scenario_families() {
            println!("  {:<16} {}", fam.name, fam.what);
        }
        return ExitCode::SUCCESS;
    }
    let (name, seed) = match arg.split_once(':') {
        Some((name, seed)) => match seed.parse::<u64>() {
            Ok(seed) => (name, seed),
            Err(_) => {
                eprintln!("bad scenario seed in {arg:?} (want NAME or NAME:SEED)");
                return ExitCode::FAILURE;
            }
        },
        None => (arg, 7),
    };
    let out = match sttgpu_experiments::run_scenario(name, seed, check) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("{e}");
            eprintln!("(--scenario list shows the known families)");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "# repro --scenario: {} ({} ops) across {} corner geometries, C1 replay to {} ns",
        out.spec_name,
        out.ops.len(),
        sttgpu_oracle::corner_geometries().len(),
        out.replay.end_ns
    );
    if let Some(path) = trace_out {
        let line_bytes =
            sttgpu_experiments::configs::two_part_config(sttgpu_experiments::L2Choice::TwoPartC1)
                .expect("C1 is two-part")
                .line_bytes;
        if let Err(e) = sttgpu_oracle::save_ops(path, line_bytes, &out.ops) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("# wrote {} ({} requests)", path.display(), out.ops.len());
    }
    println!("{}", sttgpu_experiments::render_stats(&out.replay.stats));
    for (corner, d) in &out.divergences {
        println!("divergence [{corner} scenario {}]: {d}", out.spec_name);
    }
    print_check_report(out.replay.check.as_ref());
    if out.is_clean() {
        eprintln!("# scenario {} clean", out.spec_name);
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Trace-replay mode: `--trace FILE` replays a trace file against the
/// C1 geometry. Requests-mode traces additionally run the oracle
/// differential (raw traces encode an exact call sequence the oracle's
/// discipline cannot re-derive). Both are streaming passes over the
/// file, so memory stays constant in its length. Nonzero exit on a
/// malformed file, a divergence or a checker violation.
fn run_trace_mode(path: &Path, check: bool) -> ExitCode {
    let cfg = sttgpu_experiments::configs::two_part_config(sttgpu_experiments::L2Choice::TwoPartC1)
        .expect("C1 is two-part");
    let run = match sttgpu_experiments::replay_trace_file(&cfg, path, check) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("cannot replay {e}");
            return ExitCode::FAILURE;
        }
    };
    let requests = run.header.mode == sttgpu_tracefile::TraceMode::Requests;
    eprintln!(
        "# repro --trace: {} ({} mode, {} records, {} B lines) on the C1 geometry",
        path.display(),
        if requests { "requests" } else { "raw" },
        run.replay.records,
        run.header.line_bytes
    );
    println!("{}", sttgpu_experiments::render_stats(&run.replay.stats));
    if let Some(d) = &run.divergence {
        println!("divergence [C1 trace {}]: {d}", path.display());
    } else if requests {
        eprintln!("# differential vs the oracle: clean");
    }
    if print_check_report(run.replay.check.as_ref()) && run.divergence.is_none() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Prints a replay's checker verdict to stderr, with the violation
/// samples when it failed. Returns whether the report is clean (true
/// when no checker was attached).
fn print_check_report(report: Option<&CheckReport>) -> bool {
    let Some(report) = report else {
        return true;
    };
    if report.is_clean() {
        eprintln!("# check passed: 0 invariant violations in the replay");
    } else {
        eprintln!(
            "# CHECK FAILED: {} violation(s) in the replay",
            report.violations
        );
        for s in &report.samples {
            eprintln!("#   {s}");
        }
    }
    report.is_clean()
}

/// Record mode: `--record WORKLOAD --trace-out FILE` runs a built-in
/// workload on C1 with the LLC call log on and saves the verbatim call
/// stream as a raw-mode trace file.
fn run_record_mode(workload: &str, out_path: &Path, plan: &RunPlan) -> ExitCode {
    eprintln!(
        "# repro --record: {workload} at scale {} on C1, call stream to {}",
        plan.scale,
        out_path.display()
    );
    let recording = match sttgpu_experiments::record_workload(
        sttgpu_experiments::L2Choice::TwoPartC1,
        workload,
        plan,
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = sttgpu_tracefile::save(out_path, recording.header, &recording.records) {
        eprintln!("cannot write {}: {e}", out_path.display());
        return ExitCode::FAILURE;
    }
    println!("{}", sttgpu_experiments::render_stats(&recording.stats));
    eprintln!(
        "# recorded {} LLC calls to {}",
        recording.records.len(),
        out_path.display()
    );
    ExitCode::SUCCESS
}

/// Writes `text` to `name` through [`write_atomic`], under `out_dir`
/// (created if missing) or else the working directory.
fn write_in(out_dir: Option<&Path>, name: &str, text: &str) -> Result<PathBuf, RunError> {
    let path = out_dir.map_or_else(|| PathBuf::from(name), |dir| dir.join(name));
    let io = |e| RunError::io(path.display().to_string(), e);
    if let Some(dir) = out_dir {
        fs::create_dir_all(dir).map_err(io)?;
    }
    write_atomic(&path, text.as_bytes()).map_err(io)?;
    Ok(path)
}

/// Writes a file atomically: unique temp file in the same directory,
/// flushed to disk, then renamed over the target. A crash mid-write
/// leaves the old content (or no file) — never a torn one.
fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("artefact");
    let tmp = path.with_file_name(format!("{name}.tmp-{}", std::process::id()));
    let result = (|| {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// Computes one artefact: the rendered text plus, where meaningful, a CSV.
fn run_artefact(name: &str, exec: &Executor, plan: &RunPlan) -> (String, Option<String>) {
    if env::var("STTGPU_REPRO_PANIC").as_deref() == Ok(name) {
        // Test hook: deterministically poison one artefact so the
        // quarantine path is exercisable end to end.
        panic!("injected test panic for artefact {name}");
    }
    match name {
        "table1" => (table1::render(), Some(table1::to_csv())),
        "table2" => (table2::render(), Some(table2::to_csv())),
        "workloads" => {
            let rows = workload_table::compute(exec, plan);
            (
                workload_table::render(&rows),
                Some(workload_table::to_csv(&rows)),
            )
        }
        "fig3" => {
            let rows = fig3::compute(exec, plan);
            (fig3::render(&rows), Some(fig3::to_csv(&rows)))
        }
        "fig4" => {
            let rows = fig4::compute(exec, plan);
            (fig4::render(&rows), Some(fig4::to_csv(&rows)))
        }
        "fig5" => {
            let rows = fig5::compute(exec, plan);
            (fig5::render(&rows), Some(fig5::to_csv(&rows)))
        }
        "fig6" => {
            let rows = fig6::compute(exec, plan);
            (fig6::render(&rows), Some(fig6::to_csv(&rows)))
        }
        "fig8" => {
            let (rows, summary) = fig8::compute(exec, plan);
            (fig8::render(&rows, &summary), Some(fig8::to_csv(&rows)))
        }
        "ablations" => (ablations::render(exec, plan), None),
        "faults" => {
            let rows = faults::compute(exec, plan);
            (faults::render(&rows), Some(faults::to_csv(&rows)))
        }
        "adaptive" => {
            let rep = adaptive::compute(exec, plan);
            (adaptive::render(&rep), Some(adaptive::to_csv(&rep)))
        }
        _ => unreachable!("artefact names are checked while parsing"),
    }
}

/// Hand-rolled JSON for the timing report (no serde in the tree).
fn bench_json(
    jobs: usize,
    plan: &RunPlan,
    timings: &[(String, f64)],
    stats: sttgpu_experiments::ExecutorStats,
    total_s: f64,
) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"jobs\": {jobs},\n"));
    out.push_str(&format!("  \"scale\": {},\n", plan.scale));
    out.push_str(&format!("  \"max_cycles\": {},\n", plan.max_cycles));
    out.push_str(&format!("  \"wall_clock_s\": {total_s:.3},\n"));
    out.push_str(&format!("  \"runs_executed\": {},\n", stats.runs_executed));
    out.push_str(&format!("  \"cache_hits\": {},\n", stats.cache_hits));
    out.push_str(&format!(
        "  \"cycles_simulated\": {},\n",
        stats.cycles_simulated
    ));
    out.push_str(&format!(
        "  \"cycles_per_second\": {:.0},\n",
        stats.cycles_simulated as f64 / total_s.max(1e-9)
    ));
    out.push_str("  \"artefacts\": [\n");
    for (i, (name, secs)) in timings.iter().enumerate() {
        let comma = if i + 1 == timings.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"name\": \"{name}\", \"wall_clock_s\": {secs:.3}}}{comma}\n"
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() -> ExitCode {
    match run(cli::Args::from_env()) {
        Ok(code) => code,
        Err(e @ RunError::InvalidConfig { .. }) => {
            eprintln!("{e}");
            usage()
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// Parses the command line and runs the mode it selects. A rejected
/// argument or a failed write is an `Err`; every other failure is
/// reported by the mode itself through the exit code.
fn run(mut args: cli::Args) -> Result<ExitCode, RunError> {
    let mut plan = RunPlan::full();
    let mut targets: Vec<String> = Vec::new();
    let mut out_dir: Option<PathBuf> = None;
    let mut jobs: Option<usize> = None;
    let mut check = false;
    let mut fault_rate = 0.0;
    let mut fault_seed = 0;
    let mut policy = sttgpu_core::LlcPolicy::Fixed;
    let mut fuzz_cases: Option<u64> = None;
    let mut fuzz_seed = 7u64;
    let mut canary = false;
    let mut scenario: Option<String> = None;
    let mut trace_in: Option<PathBuf> = None;
    let mut record: Option<String> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut given: Vec<String> = Vec::new();
    while let Some(arg) = args.next() {
        if MODE_FLAGS
            .iter()
            .any(|(_, _, reads)| reads.contains(&arg.as_str()))
        {
            given.push(arg.clone());
        }
        match arg.as_str() {
            "--quick" => plan = RunPlan::quick(),
            "--scale" => plan = plan.with_scale(cli::parse_scale(&args.value("--scale")?)?),
            "--jobs" => jobs = Some(cli::parse_jobs(&args.value("--jobs")?)?),
            "--out" => out_dir = Some(args.value("--out")?.into()),
            "--check" => check = true,
            "--faults" => fault_rate = cli::parse_faults(&args.value("--faults")?)?,
            "--fault-seed" => {
                fault_seed = cli::parse_seed("--fault-seed", &args.value("--fault-seed")?)?
            }
            "--llc-policy" => policy = cli::parse_llc_policy(&args.value("--llc-policy")?)?,
            "--canary" => canary = true,
            "--fuzz" => fuzz_cases = Some(cli::parse_fuzz(&args.value("--fuzz")?)?),
            "--fuzz-seed" => {
                fuzz_seed = cli::parse_seed("--fuzz-seed", &args.value("--fuzz-seed")?)?
            }
            "--scenario" => scenario = Some(args.value("--scenario")?),
            "--trace" => trace_in = Some(args.value("--trace")?.into()),
            "--record" => record = Some(args.value("--record")?),
            "--trace-out" => trace_out = Some(args.value("--trace-out")?.into()),
            "-h" | "--help" => {
                usage();
                return Ok(ExitCode::SUCCESS);
            }
            flag if flag.starts_with('-') => return Err(cli::unknown_flag(flag)),
            name if name == "all" || ARTEFACTS.contains(&name) => targets.push(arg),
            name => {
                return Err(RunError::invalid(format!(
                    "unknown artefact '{name}' (want all|{})",
                    ARTEFACTS.join("|")
                )))
            }
        }
    }
    let modes: Vec<&str> = [
        ("--canary", canary),
        ("--fuzz", fuzz_cases.is_some()),
        ("--scenario", scenario.is_some()),
        ("--trace", trace_in.is_some()),
        ("--record", record.is_some()),
    ]
    .into_iter()
    .filter_map(|(flag, on)| on.then_some(flag))
    .collect();
    if modes.len() > 1 {
        return Err(RunError::invalid(format!(
            "{} are separate run modes",
            modes.join(", ")
        )));
    }
    if let (Some(mode), false) = (modes.first(), targets.is_empty()) {
        return Err(RunError::invalid(format!(
            "{mode} does not take artefact targets"
        )));
    }
    check_mode_flags(modes.first().copied().unwrap_or(""), &given)?;
    if trace_out.is_some() && scenario.as_deref() == Some("list") {
        return Err(RunError::invalid(
            "--scenario list writes no trace; name a family for --trace-out",
        ));
    }
    if canary {
        return run_canary(out_dir.as_deref());
    }
    if let Some(cases) = fuzz_cases {
        let shards = jobs.unwrap_or_else(|| Executor::auto().jobs());
        return Ok(run_fuzz(cases, fuzz_seed, shards as u64));
    }
    if let Some(arg) = scenario {
        return Ok(run_scenario_mode(&arg, check, trace_out.as_deref()));
    }
    if let Some(workload) = record {
        let Some(out_path) = trace_out else {
            return Err(RunError::invalid("--record needs --trace-out FILE"));
        };
        return Ok(run_record_mode(&workload, &out_path, &plan));
    }
    if let Some(path) = trace_in {
        return Ok(run_trace_mode(&path, check));
    }
    if targets.is_empty() {
        return Err(RunError::invalid("name at least one artefact, or all"));
    }
    if targets.iter().any(|t| t == "all") {
        targets = ARTEFACTS.iter().map(|s| s.to_string()).collect();
    }
    plan = plan
        .with_check(check)
        .with_faults(fault_rate, fault_seed)
        .with_policy(policy);
    let exec = match jobs {
        Some(n) => Executor::new(n),
        None => Executor::auto(),
    };
    sweep(&targets, &exec, &plan, out_dir.as_deref())
}

/// Artefact mode: computes every target on one shared executor, prints
/// it, writes its files under `out_dir`, and quarantines the ones that
/// panic.
fn sweep(
    targets: &[String],
    exec: &Executor,
    plan: &RunPlan,
    out_dir: Option<&Path>,
) -> Result<ExitCode, RunError> {
    eprintln!(
        "# repro: scale={} max_cycles={} jobs={} artefacts={:?}",
        plan.scale,
        plan.max_cycles,
        exec.jobs(),
        targets
    );
    let started_all = Instant::now();
    let mut timings: Vec<(String, f64)> = Vec::new();
    let mut quarantined: Vec<(String, String)> = Vec::new();
    for t in targets {
        let started = Instant::now();
        // Isolate each artefact: a panic quarantines this artefact and
        // the sweep moves on.
        let computed = catch_unwind(AssertUnwindSafe(|| run_artefact(t, exec, plan)));
        let (text, csv) = match computed {
            Ok(o) => o,
            Err(payload) => {
                let why = panic_message(payload.as_ref());
                eprintln!("# {t} QUARANTINED: {why}");
                quarantined.push((t.clone(), why));
                continue;
            }
        };
        println!("{text}");
        if out_dir.is_some() {
            write_in(out_dir, &format!("{t}.txt"), &text)?;
            if let Some(csv) = csv {
                write_in(out_dir, &format!("{t}.csv"), &csv)?;
            }
        }
        let secs = started.elapsed().as_secs_f64();
        eprintln!("# {t} done in {secs:.1}s");
        timings.push((t.clone(), secs));
    }
    let total_s = started_all.elapsed().as_secs_f64();
    let stats = exec.stats();
    eprintln!(
        "# total {:.1}s on {} jobs: {} runs executed, {} served from cache, \
         {:.1}M cycles simulated ({:.2}M cycles/s)",
        total_s,
        exec.jobs(),
        stats.runs_executed,
        stats.cache_hits,
        stats.cycles_simulated as f64 / 1e6,
        stats.cycles_simulated as f64 / 1e6 / total_s.max(1e-9)
    );
    let json = bench_json(exec.jobs(), plan, &timings, stats, total_s);
    let bench_path = write_in(out_dir, "BENCH_repro.json", &json)?;
    eprintln!("# timings written to {}", bench_path.display());
    if plan.check {
        if stats.violations > 0 {
            eprintln!(
                "# CHECK FAILED: {} invariant violation(s) across {} runs",
                stats.violations, stats.runs_executed
            );
            for s in exec.violation_samples() {
                eprintln!("#   {s}");
            }
            return Ok(ExitCode::FAILURE);
        }
        eprintln!(
            "# check passed: 0 invariant violations across {} runs",
            stats.runs_executed
        );
    }
    if !quarantined.is_empty() {
        let mut report = String::new();
        for (name, why) in &quarantined {
            report.push_str(&format!("{name}\t{why}\n"));
        }
        match write_in(out_dir, "QUARANTINE.txt", &report) {
            Ok(path) => eprintln!(
                "# {} artefact(s) quarantined (see {}):",
                quarantined.len(),
                path.display()
            ),
            Err(e) => eprintln!("# {} artefact(s) quarantined ({e}):", quarantined.len()),
        }
        for (name, why) in &quarantined {
            eprintln!("#   {name}: {why}");
        }
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}
