//! Parallel execution must be a pure performance optimisation: whatever
//! an artefact computes on a single-threaded executor, it must compute
//! byte-for-byte identically on a many-threaded one. These tests pin that
//! contract at both the run level (metrics and two-part internals) and
//! the artefact level (rendered tables and CSVs).

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use sttgpu_experiments::{fig3, fig8, Executor, L2Choice, RunPlan};
use sttgpu_workloads::suite;

fn tiny_plan() -> RunPlan {
    RunPlan {
        scale: 0.05,
        max_cycles: 2_000_000,
        check: false,
        ..RunPlan::full()
    }
}

#[test]
fn sequential_and_parallel_executors_produce_identical_run_results() {
    let plan = tiny_plan();
    let seq = Executor::sequential();
    let par = Executor::new(4);
    for w in ["nw", "lud", "kmeans"] {
        let workload = suite::by_name(w).expect("suite workload");
        for choice in [L2Choice::SramBaseline, L2Choice::TwoPartC1] {
            let a = seq.run(choice, &workload, &plan);
            let b = par.run(choice, &workload, &plan);
            assert_eq!(a.metrics, b.metrics, "{w} metrics diverge");
            assert_eq!(a.two_part, b.two_part, "{w} two-part stats diverge");
            assert_eq!(a.write_matrix, b.write_matrix, "{w} write matrix diverges");
        }
    }
}

#[test]
fn fig3_renders_byte_identically_on_any_job_count() {
    let plan = tiny_plan();
    let seq_rows = fig3::compute(&Executor::sequential(), &plan);
    let par_rows = fig3::compute(&Executor::new(8), &plan);
    assert_eq!(seq_rows, par_rows, "row data diverges");
    assert_eq!(fig3::render(&seq_rows), fig3::render(&par_rows));
    assert_eq!(fig3::to_csv(&seq_rows), fig3::to_csv(&par_rows));
}

#[test]
fn fig8_renders_byte_identically_on_any_job_count() {
    let plan = tiny_plan();
    let (seq_rows, seq_sum) = fig8::compute(&Executor::sequential(), &plan);
    let (par_rows, par_sum) = fig8::compute(&Executor::new(8), &plan);
    assert_eq!(
        fig8::render(&seq_rows, &seq_sum),
        fig8::render(&par_rows, &par_sum)
    );
    assert_eq!(fig8::to_csv(&seq_rows), fig8::to_csv(&par_rows));
}

#[test]
fn shared_executor_deduplicates_across_artefacts() {
    // fig8 already needs (C1, every workload); fig6 wants exactly the
    // same runs, so on a shared executor fig6 must execute nothing new.
    let plan = tiny_plan();
    let exec = Executor::new(4);
    let _ = fig8::compute(&exec, &plan);
    let runs_after_fig8 = exec.stats().runs_executed;
    let rows = sttgpu_experiments::fig6::compute(&exec, &plan);
    assert_eq!(rows.len(), suite::all().len());
    assert_eq!(
        exec.stats().runs_executed,
        runs_after_fig8,
        "fig6 after fig8 must be served entirely from the run cache"
    );
    assert!(exec.stats().cache_hits >= rows.len() as u64);
}

/// Runs the real `repro` binary with `--out dir` and returns the artefact
/// files it wrote, sorted by name.
fn run_repro(out_dir: &Path, jobs: u32) -> Vec<(String, Vec<u8>)> {
    let status = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "--scale",
            "0.01",
            "--jobs",
            &jobs.to_string(),
            "--out",
            &out_dir.display().to_string(),
            "all",
        ])
        .current_dir(out_dir)
        .status()
        .expect("spawn repro");
    assert!(status.success(), "repro --jobs {jobs} failed");
    let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(out_dir)
        .expect("read out dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| {
            // Timings legitimately differ run to run; everything else is
            // part of the golden snapshot.
            p.extension().is_some_and(|x| x == "csv" || x == "txt")
        })
        .map(|p| {
            let name = p
                .file_name()
                .expect("file name")
                .to_string_lossy()
                .into_owned();
            (name, fs::read(&p).expect("read artefact"))
        })
        .collect();
    files.sort();
    files
}

/// Golden snapshot of `repro -- all`: the full set of summary CSVs and
/// rendered tables must come out byte-identical regardless of the
/// `--jobs` count, i.e. of how many executor threads run the sweep.
#[test]
fn repro_all_artefacts_are_byte_identical_across_job_and_thread_counts() {
    let base = std::env::temp_dir().join(format!("sttgpu-golden-{}", std::process::id()));
    let run = |jobs: u32| -> Vec<(String, Vec<u8>)> {
        let dir: PathBuf = base.join(format!("jobs{jobs}"));
        fs::create_dir_all(&dir).expect("create out dir");
        let files = run_repro(&dir, jobs);
        assert!(
            files.iter().filter(|(n, _)| n.ends_with(".csv")).count() >= 7,
            "--jobs {jobs} produced too few CSV artefacts"
        );
        files
    };
    let golden = run(1);
    for jobs in [8, 2] {
        let other = run(jobs);
        assert_eq!(
            golden.len(),
            other.len(),
            "--jobs {jobs} produced a different artefact set"
        );
        for ((name_a, bytes_a), (name_b, bytes_b)) in golden.iter().zip(&other) {
            assert_eq!(name_a, name_b, "--jobs {jobs} artefact set diverges");
            assert_eq!(
                bytes_a, bytes_b,
                "{name_a} is not byte-identical between --jobs 1 and --jobs {jobs}"
            );
        }
    }
    let _ = fs::remove_dir_all(&base);
}
