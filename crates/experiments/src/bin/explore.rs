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

use std::env;
use std::process::ExitCode;

use sttgpu_core::{LlcPolicy, TwoPartConfig};
use sttgpu_device::endurance::LifetimeEstimate;
use sttgpu_device::mtj::RetentionTime;
use sttgpu_experiments::cli;
use sttgpu_experiments::configs::{gpu_config, L2Choice};
use sttgpu_experiments::report;
use sttgpu_experiments::runner::{Executor, RunPlan};
use sttgpu_sim::L2ModelConfig;
use sttgpu_workloads::suite;

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

impl Default for Options {
    fn default() -> Self {
        Options {
            workload: "kmeans".to_owned(),
            scale: 0.3,
            lr_kb: vec![48, 96, 192],
            lr_retention_us: vec![10.0, 26.5, 100.0],
            hr_retention_ms: 4.0,
            hr_kb: 1344,
            jobs: None,
            check: false,
            policy: LlcPolicy::Fixed,
        }
    }
}

fn parse_list<T: std::str::FromStr>(s: &str) -> Option<Vec<T>> {
    s.split(',').map(|x| x.trim().parse::<T>().ok()).collect()
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options::default();
    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match arg.as_str() {
            "--workload" => opts.workload = value("--workload")?,
            "--scale" => {
                opts.scale = value("--scale")?
                    .parse()
                    .map_err(|_| "bad --scale".to_owned())?
            }
            "--lr-kb" => {
                opts.lr_kb =
                    parse_list(&value("--lr-kb")?).ok_or_else(|| "bad --lr-kb".to_owned())?
            }
            "--lr-retention-us" => {
                opts.lr_retention_us = parse_list(&value("--lr-retention-us")?)
                    .ok_or_else(|| "bad --lr-retention-us".to_owned())?
            }
            "--hr-retention-ms" => {
                opts.hr_retention_ms = value("--hr-retention-ms")?
                    .parse()
                    .map_err(|_| "bad --hr-retention-ms".to_owned())?
            }
            "--hr-kb" => {
                opts.hr_kb = value("--hr-kb")?
                    .parse()
                    .map_err(|_| "bad --hr-kb".to_owned())?
            }
            "--jobs" => {
                let n: usize = value("--jobs")?
                    .parse()
                    .map_err(|_| "bad --jobs".to_owned())?;
                if n == 0 {
                    return Err("bad --jobs".to_owned());
                }
                opts.jobs = Some(n);
            }
            "--llc-policy" => {
                opts.policy = cli::parse_llc_policy(Some(&value("--llc-policy")?))
                    .map_err(|e| e.to_string())?
            }
            "--check" => opts.check = true,
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            eprintln!(
                "usage: explore [--workload NAME] [--scale F] [--jobs N] [--check] \
                 [--llc-policy NAME] [--lr-kb A,B,..]\n\
                 \t[--lr-retention-us A,B,..] [--hr-retention-ms X] [--hr-kb N]"
            );
            return ExitCode::FAILURE;
        }
    };

    let Some(workload) = suite::by_name(&opts.workload) else {
        eprintln!(
            "unknown workload {:?}; available: {:?}",
            opts.workload,
            suite::names()
        );
        return ExitCode::FAILURE;
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

    let points: Vec<(u64, f64)> = opts
        .lr_kb
        .iter()
        .flat_map(|&lr_kb| {
            opts.lr_retention_us
                .iter()
                .map(move |&ret_us| (lr_kb, ret_us))
        })
        .collect();
    let rows: Vec<Vec<String>> = exec.map(&points, |&(lr_kb, ret_us)| {
        let tp = TwoPartConfig::new(lr_kb, 2, opts.hr_kb, 7, 256)
            .with_lr_retention(RetentionTime::from_micros(ret_us))
            .with_hr_retention(RetentionTime::from_millis(opts.hr_retention_ms));
        let mut cfg = gpu_config(L2Choice::TwoPartC1);
        cfg.l2 = L2ModelConfig::TwoPart(tp.clone());
        let out = exec.run_config(cfg, &workload, &plan);
        let stats = out.two_part.expect("two-part");
        let lr_rows = tp.lr_sets() as usize;
        let lifetime = LifetimeEstimate::from_write_matrix(
            &out.write_matrix[..lr_rows],
            out.metrics.elapsed_ns.max(1),
        );
        vec![
            format!("{lr_kb}KB @ {ret_us}us"),
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
