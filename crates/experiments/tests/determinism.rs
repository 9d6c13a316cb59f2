//! Parallel execution must be a pure performance optimisation: whatever
//! an artefact computes on a single-threaded executor, it must compute
//! byte-for-byte identically on a many-threaded one. These tests pin that
//! contract at both the run level (metrics and two-part internals) and
//! the artefact level (rendered tables and CSVs), and pin the artefact
//! bytes themselves to committed digests.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use sttgpu_experiments::{ablations, fig3, fig8, Executor, L2Choice, RunPlan};
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
            // The summaries carry a digest of the full per-line matrix.
            assert_eq!(a.writes, b.writes, "{w} write summaries diverge");
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

    // The search-mode ablation's sequential arm is C1 spelled out as an
    // ad-hoc configuration; only its parallel arm is a new simulation.
    let runs_after_fig6 = exec.stats().runs_executed;
    let rows = ablations::search_mode(&exec, &plan);
    assert_eq!(
        exec.stats().runs_executed - runs_after_fig6,
        rows.len() as u64,
        "search_mode after fig8 must execute one run per workload"
    );
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

/// 64-bit digest of one artefact file: FNV-1a over the domain tag
/// `sttgpu-artefact`, the file name and its bytes, each prefixed by its
/// length as a little-endian `u64`.
fn digest(name: &str, bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for field in [b"sttgpu-artefact".as_slice(), name.as_bytes(), bytes] {
        let len = (field.len() as u64).to_le_bytes();
        for &b in len.iter().chain(field) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Digest of every artefact `repro --scale 0.01 --jobs 1 all` writes. A
/// change that moves an artefact updates its row here and says in
/// CHANGES.md which artefacts moved and why.
const GOLDEN_DIGESTS: [(&str, u64); 21] = [
    ("ablations.txt", 0xd94c1fab30b9f52d),
    ("adaptive.csv", 0xa60d5cc4e3f0d290),
    ("adaptive.txt", 0x8858fe9e27a720e4),
    ("faults.csv", 0xec5e2ffb401d19ca),
    ("faults.txt", 0x919a30220b6dac8f),
    ("fig3.csv", 0x4ca94b6736a1e2a6),
    ("fig3.txt", 0xb185216408a61760),
    ("fig4.csv", 0xafd8c6470f3562a0),
    ("fig4.txt", 0x0761b71a62d6d20d),
    ("fig5.csv", 0x62053cac3c4d87b7),
    ("fig5.txt", 0x815daca0b17d3792),
    ("fig6.csv", 0x7a77b7bea77a8c21),
    ("fig6.txt", 0xb6f1acfc4377e1c3),
    ("fig8.csv", 0x4268e07091b44e78),
    ("fig8.txt", 0x913b8ab19e0ae9e4),
    ("table1.csv", 0x34d6cf70a9e712fb),
    ("table1.txt", 0x723922cbef0c7981),
    ("table2.csv", 0x24604735c1484fb8),
    ("table2.txt", 0xd65faa6004e9392b),
    ("workloads.csv", 0x4f31a26308c720d0),
    ("workloads.txt", 0xd971a003b4893e68),
];

/// Golden snapshot of `repro -- all`: the full set of summary CSVs and
/// rendered tables must match the committed digests, and come out
/// byte-identical regardless of the `--jobs` count.
#[test]
fn repro_all_artefacts_are_byte_identical_and_pinned_across_job_counts() {
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
    let digests: Vec<(&str, u64)> = golden
        .iter()
        .map(|(name, bytes)| (name.as_str(), digest(name, bytes)))
        .collect();
    assert_eq!(
        digests, GOLDEN_DIGESTS,
        "artefact bytes moved from the pinned digests"
    );
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
