//! Developer diagnostic: per-workload, per-config dump of the raw
//! quantities behind Fig. 8 (not a paper artefact).
//!
//! `--trace-jsonl PATH` switches to trace-dump mode: the first named
//! workload (default `kmeans`) runs once on the two-part C1 configuration
//! with a streaming JSONL sink attached, writing one typed event per line
//! to PATH for offline inspection.

use std::cell::RefCell;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::process::ExitCode;
use std::rc::Rc;

use sttgpu_experiments::cli;
use sttgpu_experiments::configs::{gpu_config, L2Choice};
use sttgpu_experiments::error::RunError;
use sttgpu_experiments::runner::{run, RunPlan};
use sttgpu_sim::{Gpu, Workload};
use sttgpu_trace::{JsonlSink, Trace};
use sttgpu_workloads::suite;

const USAGE: &str = "usage: diag [--scale F] [--trace-jsonl PATH] [WORKLOAD ...]";

fn lookup(name: &str) -> Result<Workload, RunError> {
    suite::by_name(name).ok_or_else(|| {
        RunError::invalid(format!(
            "unknown workload '{name}' (want one of {})",
            suite::names().join("|")
        ))
    })
}

fn dump_trace(path: &str, w: &Workload, plan: &RunPlan) -> Result<(), RunError> {
    let scaled = suite::scaled(w, plan.scale);
    let file = BufWriter::new(File::create(path).map_err(|e| RunError::io(path, e))?);
    let sink = Rc::new(RefCell::new(JsonlSink::new(file)));
    let mut gpu = Gpu::new(gpu_config(L2Choice::TwoPartC1));
    gpu.set_trace(Trace::to_sink(Rc::clone(&sink)));
    let metrics = gpu.run_workload(&scaled, plan.max_cycles);
    drop(gpu);
    let sink = Rc::try_unwrap(sink)
        .unwrap_or_else(|_| unreachable!("gpu dropped its trace handles"))
        .into_inner();
    let written = sink.written();
    sink.into_inner()
        .flush()
        .map_err(|e| RunError::io(path, e))?;
    println!(
        "wrote {written} events to {path} ({} @ scale {}, {} cycles, finished: {})",
        w.name, plan.scale, metrics.cycles, metrics.finished
    );
    Ok(())
}

fn main() -> ExitCode {
    match run_diag(cli::Args::from_env()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("diag: {e}");
            if let RunError::InvalidConfig { .. } = e {
                eprintln!("{USAGE}");
            }
            ExitCode::FAILURE
        }
    }
}

fn run_diag(mut args: cli::Args) -> Result<(), RunError> {
    let mut scale = 0.1;
    let mut trace_jsonl = None;
    let mut names = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => scale = cli::parse_scale(&args.value("--scale")?)?,
            "--trace-jsonl" => trace_jsonl = Some(args.value("--trace-jsonl")?),
            "-h" | "--help" => {
                eprintln!("{USAGE}");
                return Ok(());
            }
            flag if flag.starts_with('-') => return Err(cli::unknown_flag(flag)),
            _ => names.push(arg),
        }
    }
    let plan = RunPlan {
        scale,
        max_cycles: 6_000_000,
        check: false,
        ..RunPlan::full()
    };
    if let Some(path) = trace_jsonl {
        let name = names.first().map_or("kmeans", String::as_str);
        return dump_trace(&path, &lookup(name)?, &plan);
    }
    if names.is_empty() {
        names = suite::names();
    }
    let workloads = names
        .iter()
        .map(|n| lookup(n))
        .collect::<Result<Vec<_>, _>>()?;
    for w in workloads {
        let name = &w.name;
        println!("== {name} (scale {scale}) ==");
        for choice in L2Choice::ALL {
            let out = run(choice, &w, &plan);
            let m = &out.metrics;
            print!(
                "  {:<9} ipc {:7.2} cyc {:>9} fin {} l2hit {:.3} acc {:>8} dramR {:>7} dramW {:>6} dynP {:8.2}mW totP {:8.2}mW",
                choice.label(),
                m.ipc(),
                m.cycles,
                m.finished as u8,
                m.l2.hit_rate(),
                m.l2.accesses(),
                m.dram_reads,
                m.dram_writes,
                m.l2_dynamic_power_mw(),
                m.l2_total_power_mw(),
            );
            print!(
                " l1hit {:.3} mshrStall {} idle {} rdLat {:.1}ns",
                m.l1_hit_rate(),
                m.mshr_stalls,
                m.sm_idle_cycles,
                m.l2_read_hit_latency_ns
            );
            if let Some(tp) = &out.two_part {
                print!(
                    " | lrW {} hrW {} mig {} dem {} rfr {} hrExp {} ovf {}",
                    tp.demand_writes_lr,
                    tp.demand_writes_hr,
                    tp.migrations_to_lr,
                    tp.demotions_to_hr,
                    tp.refreshes,
                    tp.hr_expirations,
                    tp.overflow_writebacks
                );
            }
            println!();
        }
    }
    Ok(())
}
