//! `explore` — design-space exploration for custom two-part L2 designs.
//!
//! Sweeps LR capacity × LR retention (and optionally HR retention) on one
//! workload and reports performance, power, refresh load and endurance —
//! everything a designer would weigh when picking a point the paper did
//! not evaluate.
//!
//! ```text
//! explore --workload kmeans --scale 0.3 \
//!         --lr-kb 48,96,192 --lr-retention-us 10,26.5,100
//! ```

use std::process::ExitCode;

use sttgpu_core::{LlcPolicy, TwoPartConfig};
use sttgpu_device::mtj::RetentionTime;
use sttgpu_experiments::cli;
use sttgpu_experiments::configs::{c1_with, two_part_config, L2Choice};
use sttgpu_experiments::report;
use sttgpu_experiments::runner::{Executor, RunPlan};
use sttgpu_experiments::RunError;
use sttgpu_sim::Workload;
use sttgpu_workloads::suite;

const USAGE: &str = "usage: explore [--workload NAME] [--scale F] [--jobs N] [--check] \
     [--llc-policy NAME] [--lr-kb A,B,..]\n\
     \t[--lr-retention-us A,B,..] [--hr-retention-ms X] [--hr-kb N]";

struct Options {
    workload: String,
    scale: f64,
    lr_kb: Vec<u64>,
    lr_retention_us: Vec<f64>,
    hr_retention_ms: f64,
    hr_kb: u64,
    jobs: Option<usize>,
    check: bool,
    policy: LlcPolicy,
}

/// One design point of the sweep and its row label.
type Point = (String, TwoPartConfig);

/// Parses the command line, resolves the workload and checks every
/// design point, all before anything simulates.
fn parse_args(mut args: cli::Args) -> Result<(Options, Workload, Vec<Point>), RunError> {
    let mut opts = Options {
        workload: "kmeans".to_owned(),
        scale: 0.3,
        lr_kb: vec![48, 96, 192],
        lr_retention_us: vec![10.0, 26.5, 100.0],
        hr_retention_ms: 4.0,
        hr_kb: 1344,
        jobs: None,
        check: false,
        policy: LlcPolicy::Fixed,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workload" => opts.workload = args.value("--workload")?,
            "--scale" => opts.scale = cli::parse_scale(&args.value("--scale")?)?,
            "--lr-kb" => {
                opts.lr_kb =
                    cli::parse_list(&args.value("--lr-kb")?, |v| cli::parse_kb("--lr-kb", v))?
            }
            "--lr-retention-us" => {
                opts.lr_retention_us = cli::parse_list(&args.value("--lr-retention-us")?, |v| {
                    cli::parse_retention("--lr-retention-us", v, 1e3)
                })?
            }
            "--hr-retention-ms" => {
                let raw = args.value("--hr-retention-ms")?;
                opts.hr_retention_ms = cli::parse_retention("--hr-retention-ms", &raw, 1e6)?
            }
            "--hr-kb" => opts.hr_kb = cli::parse_kb("--hr-kb", &args.value("--hr-kb")?)?,
            "--jobs" => opts.jobs = Some(cli::parse_jobs(&args.value("--jobs")?)?),
            "--llc-policy" => opts.policy = cli::parse_llc_policy(&args.value("--llc-policy")?)?,
            "--check" => opts.check = true,
            "-h" | "--help" => {
                eprintln!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(cli::unknown_flag(other)),
        }
    }
    let workload = suite::by_name(&opts.workload).ok_or_else(|| {
        RunError::invalid(format!(
            "--workload wants one of {}, got '{}'",
            suite::names().join("|"),
            opts.workload
        ))
    })?;
    let points = design_points(&opts)?;
    Ok((opts, workload, points))
}

/// Builds every design point and checks it with
/// [`TwoPartConfig::validate`], so a bad geometry is rejected before the
/// first simulation instead of panicking in a worker thread.
fn design_points(opts: &Options) -> Result<Vec<Point>, RunError> {
    let base = two_part_config(L2Choice::TwoPartC1).expect("C1 is two-part");
    let mut points = Vec::new();
    for &lr_kb in &opts.lr_kb {
        for &ret_us in &opts.lr_retention_us {
            let tp = TwoPartConfig {
                lr_kb,
                hr_kb: opts.hr_kb,
                lr_retention: RetentionTime::from_micros(ret_us),
                hr_retention: RetentionTime::from_millis(opts.hr_retention_ms),
                ..base.clone()
            };
            let label = format!("{lr_kb}KB @ {ret_us}us");
            tp.validate().map_err(|e| {
                RunError::invalid(format!(
                    "design point {label} against {} KB HR @ {} ms (--lr-kb, --lr-retention-us, \
                     --hr-kb, --hr-retention-ms): {e}",
                    opts.hr_kb, opts.hr_retention_ms
                ))
            })?;
            points.push((label, tp));
        }
    }
    Ok(points)
}

fn main() -> ExitCode {
    let (opts, workload, points) = match parse_args(cli::Args::from_env()) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let plan = RunPlan {
        scale: opts.scale,
        max_cycles: 20_000_000,
        check: opts.check,
        policy: opts.policy,
        ..RunPlan::full()
    };

    let exec = match opts.jobs {
        Some(n) => Executor::new(n),
        None => Executor::auto(),
    };

    // Baseline for normalisation.
    let base = exec.run(L2Choice::SramBaseline, &workload, &plan);
    let base_ipc = base.metrics.ipc();
    let base_power = base.metrics.l2_total_power_mw();
    println!(
        "workload {} (scale {}): SRAM baseline IPC {:.1}, L2 power {:.1} mW",
        opts.workload, opts.scale, base_ipc, base_power
    );
    println!(
        "sweeping {} LR sizes x {} LR retentions against {} KB HR @ {} ms on {} jobs\n",
        opts.lr_kb.len(),
        opts.lr_retention_us.len(),
        opts.hr_kb,
        opts.hr_retention_ms,
        exec.jobs()
    );

    let rows: Vec<Vec<String>> = exec.map(&points, |(label, tp)| {
        let out = exec.run_config(c1_with(|_| tp.clone()), &workload, &plan);
        let stats = out.two_part.expect("two-part");
        let lifetime = out.writes.lr_lifetime.expect("two-part");
        vec![
            label.clone(),
            report::ratio(out.metrics.ipc() / base_ipc.max(1e-9)),
            report::pct(out.metrics.l2.hit_rate()),
            report::ratio(out.metrics.l2_total_power_mw() / base_power.max(1e-9)),
            stats.refreshes.to_string(),
            report::pct(stats.lr_write_utilization()),
            if lifetime.lifetime_years().is_infinite() {
                "inf".to_owned()
            } else {
                format!("{:.2}", lifetime.lifetime_years())
            },
        ]
    });
    println!(
        "{}",
        report::table(
            &[
                "LR design",
                "speedup",
                "L2 hit",
                "power vs SRAM",
                "refreshes",
                "LR write util",
                "LR life (yrs)"
            ],
            &rows
        )
    );
    if opts.check {
        let stats = exec.stats();
        if stats.violations > 0 {
            eprintln!(
                "CHECK FAILED: {} invariant violation(s) across {} runs",
                stats.violations, stats.runs_executed
            );
            for s in exec.violation_samples() {
                eprintln!("  {s}");
            }
            return ExitCode::FAILURE;
        }
        eprintln!(
            "check passed: 0 invariant violations across {} runs",
            stats.runs_executed
        );
    }
    ExitCode::SUCCESS
}
