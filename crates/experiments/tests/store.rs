//! End-to-end contract of `repro --store`: byte-identical artefacts
//! from a warm store with zero simulations executed, transparent
//! recovery from corrupted entries, survival of a SIGKILL mid-sweep
//! (rerunning with the same store is how a killed sweep resumes), and
//! quarantine of panicking artefacts.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use sttgpu_experiments::canary::json_number;

const ARTEFACTS: [&str; 4] = ["table1", "table2", "fig3", "fig6"];
const SCALE: &str = "0.02";

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sttgpu-store-e2e-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create dir");
    dir
}

fn repro_cmd(out_dir: &Path, store_dir: &Path, extra: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.args(["--scale", SCALE, "--jobs", "2", "--out"])
        .arg(out_dir)
        .arg("--store")
        .arg(store_dir)
        .args(extra)
        .args(ARTEFACTS)
        .current_dir(out_dir);
    cmd
}

/// All .txt/.csv artefact files, sorted by name (the bench JSON carries
/// timings and is outside the byte-identity contract).
fn artefact_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(dir)
        .expect("read out dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "csv" || x == "txt"))
        .map(|p| {
            let name = p.file_name().expect("name").to_string_lossy().into_owned();
            (name, fs::read(&p).expect("read artefact"))
        })
        .collect();
    files.sort();
    files
}

fn assert_identical(golden: &[(String, Vec<u8>)], other: &[(String, Vec<u8>)], what: &str) {
    assert_eq!(golden.len(), other.len(), "{what}: different artefact sets");
    for ((na, ba), (nb, bb)) in golden.iter().zip(other) {
        assert_eq!(na, nb, "{what}: artefact sets diverge");
        assert_eq!(ba, bb, "{what}: {na} is not byte-identical");
    }
}

fn bench_number(dir: &Path, key: &str) -> f64 {
    let text = fs::read_to_string(dir.join("BENCH_repro.json")).expect("bench json");
    json_number(&text, key).unwrap_or_else(|| panic!("no {key} in bench json:\n{text}"))
}

/// The committed entries (none while the objects directory is missing).
fn entry_files(store_dir: &Path) -> Vec<PathBuf> {
    fs::read_dir(store_dir.join("objects"))
        .into_iter()
        .flatten()
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "ent"))
        .collect()
}

/// Cold run fills the store; a warm rerun into a fresh out dir must
/// produce byte-identical artefacts while executing zero simulations.
#[test]
fn warm_store_is_byte_identical_with_zero_simulations() {
    let store = fresh_dir("warm-store");
    let cold_out = fresh_dir("warm-cold");
    let status = repro_cmd(&cold_out, &store, &[]).status().expect("spawn");
    assert!(status.success(), "cold run failed");
    let golden = artefact_files(&cold_out);
    assert!(bench_number(&cold_out, "runs_executed") > 0.0);
    assert!(!entry_files(&store).is_empty(), "cold run stored nothing");

    let warm_out = fresh_dir("warm-warm");
    let output = repro_cmd(&warm_out, &store, &[]).output().expect("spawn");
    assert!(
        output.status.success(),
        "warm run failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert_identical(&golden, &artefact_files(&warm_out), "warm rerun");
    assert_eq!(
        bench_number(&warm_out, "runs_executed"),
        0.0,
        "a warm store must serve every simulation"
    );
    assert!(bench_number(&warm_out, "store_hits") > 0.0);
    for dir in [&store, &cold_out, &warm_out] {
        fs::remove_dir_all(dir).ok();
    }
}

/// Corrupting stored entries must not fail the sweep: damaged entries
/// are quarantined, recomputed, and the artefacts stay byte-identical.
#[test]
fn corrupted_entries_are_quarantined_and_recomputed() {
    let store = fresh_dir("corrupt-store");
    let cold_out = fresh_dir("corrupt-cold");
    let status = repro_cmd(&cold_out, &store, &[]).status().expect("spawn");
    assert!(status.success(), "cold run failed");
    let golden = artefact_files(&cold_out);

    // Truncate one entry, flip a byte in another, gut a third.
    let entries = entry_files(&store);
    assert!(entries.len() >= 3, "want ≥3 entries, got {}", entries.len());
    let bytes = fs::read(&entries[0]).expect("read");
    fs::write(&entries[0], &bytes[..bytes.len() - 7]).expect("truncate");
    let mut bytes = fs::read(&entries[1]).expect("read");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    fs::write(&entries[1], &bytes).expect("flip");
    fs::write(&entries[2], b"gutted").expect("gut");

    let warm_out = fresh_dir("corrupt-warm");
    let output = repro_cmd(&warm_out, &store, &[]).output().expect("spawn");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "corrupted entries must not fail the sweep:\n{stderr}"
    );
    assert_identical(&golden, &artefact_files(&warm_out), "post-corruption rerun");
    assert!(
        stderr.contains("corrupt") && stderr.contains("quarantined"),
        "corruption must be reported:\n{stderr}"
    );
    let quarantined = fs::read_dir(store.join("quarantine"))
        .expect("quarantine dir")
        .count();
    assert_eq!(quarantined, 3, "every damaged entry must be quarantined");
    assert!(
        bench_number(&warm_out, "runs_executed") > 0.0,
        "damaged entries must be recomputed"
    );
    for dir in [&store, &cold_out, &warm_out] {
        fs::remove_dir_all(dir).ok();
    }
}

/// SIGKILL mid-sweep must leave the store consistent: a rerun against
/// the survivor store succeeds and converges to byte-identical
/// artefacts (partially stored results are served, the rest recomputed).
#[test]
fn sigkilled_sweep_leaves_a_usable_store() {
    let golden_store = fresh_dir("kill-golden-store");
    let golden_out = fresh_dir("kill-golden-out");
    let status = repro_cmd(&golden_out, &golden_store, &[])
        .status()
        .expect("spawn");
    assert!(status.success(), "reference run failed");
    let golden = artefact_files(&golden_out);

    let store = fresh_dir("kill-store");
    let out1 = fresh_dir("kill-out1");
    let mut child = repro_cmd(&out1, &store, &[])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn");
    // Kill (SIGKILL via kill()) as soon as the first simulation result
    // is committed to the store.
    let deadline = Instant::now() + Duration::from_secs(120);
    while entry_files(&store).is_empty() && child.try_wait().expect("poll").is_none() {
        assert!(Instant::now() < deadline, "no store entry within 120s");
        std::thread::sleep(Duration::from_millis(20));
    }
    // A child that already finished is reaped, not signalled.
    let _ = child.kill();
    let _ = child.wait();

    // The dead writer's lock must not wedge the rerun (its PID is gone,
    // so the stale-lock protocol breaks it), temp files are swept, and
    // every committed entry is either whole or absent.
    let out2 = fresh_dir("kill-out2");
    let output = repro_cmd(&out2, &store, &[]).output().expect("spawn");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "rerun after SIGKILL failed:\n{stderr}"
    );
    assert!(
        !stderr.contains("read-only"),
        "dead writer's lock was not broken:\n{stderr}"
    );
    assert_identical(&golden, &artefact_files(&out2), "post-SIGKILL rerun");

    // And a third, fully-warm run serves everything from the store.
    let out3 = fresh_dir("kill-out3");
    let status = repro_cmd(&out3, &store, &[]).status().expect("spawn");
    assert!(status.success());
    assert_eq!(bench_number(&out3, "runs_executed"), 0.0);
    for dir in [&golden_store, &golden_out, &store, &out1, &out2, &out3] {
        fs::remove_dir_all(dir).ok();
    }
}

/// A panicking artefact is quarantined: the sweep continues, the failure
/// is reported in QUARANTINE.txt, and the exit code is nonzero.
#[test]
fn panicking_artefact_is_quarantined_without_aborting_the_sweep() {
    let dir = fresh_dir("quarantine");
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--scale", SCALE, "--jobs", "2", "--out"])
        .arg(&dir)
        .args(["table1", "table2"])
        .env("STTGPU_REPRO_PANIC", "table1")
        .current_dir(&dir)
        .output()
        .expect("spawn repro");
    assert!(
        !output.status.success(),
        "a quarantined artefact must force a nonzero exit"
    );
    let quarantine = fs::read_to_string(dir.join("QUARANTINE.txt"))
        .expect("QUARANTINE.txt must exist after a quarantined artefact");
    assert!(
        quarantine.lines().any(|l| l.starts_with("table1\t")),
        "QUARANTINE.txt must name the poisoned artefact:\n{quarantine}"
    );
    // The sweep moved past the poisoned artefact: table2 still landed,
    // and table1 was not written.
    assert!(
        dir.join("table2.txt").is_file(),
        "sweep aborted after panic"
    );
    assert!(!dir.join("table1.txt").is_file());
    fs::remove_dir_all(&dir).ok();
}
