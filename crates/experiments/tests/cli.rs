//! Bad command-line input to `repro`, `explore` and `diag` is a typed
//! rejection: a nonzero exit that is not a panic (101), a message that
//! names the offending flag or file, and nothing simulated or printed to
//! stdout.
//! Good input writes its reports under `--out` without touching the
//! committed canary baseline, and a panicking artefact is quarantined
//! without aborting the sweep, and `--scenario --trace-out` writes the
//! bytes the library's `save_ops` writes for the same scenario. Every
//! run mode rejects the flags it does not read and runs with the ones
//! it does.

use std::fs;
use std::path::Path;
use std::process::Command;

use sttgpu_experiments::canary::CANARY_BASELINE_PATH;
use sttgpu_experiments::configs::two_part_config;
use sttgpu_experiments::{scenario_ops, L2Choice};
use sttgpu_oracle::save_ops;

fn rejects(bin: &str, args: &[&str], fragment: &str) {
    let out = Command::new(bin).args(args).output().expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let code = out.status.code();
    assert!(
        code.is_some_and(|c| c != 0 && c != 101) && !stderr.contains("panicked"),
        "{args:?}: exit {code:?}, want a typed rejection:\n{stderr}"
    );
    assert!(
        stderr.contains(fragment),
        "{args:?}: stderr lacks '{fragment}':\n{stderr}"
    );
    assert!(out.stdout.is_empty(), "{args:?}: ran before rejecting");
}

#[test]
fn diag_rejects_bad_input() {
    let diag = env!("CARGO_BIN_EXE_diag");
    for scale in ["abc", "0", "-1", "1e-9"] {
        rejects(diag, &["--scale", scale], "--scale wants");
    }
    rejects(diag, &["--bogus"], "unknown flag '--bogus'");
    rejects(diag, &["--trace-jsonl"], "--trace-jsonl needs a value");
    rejects(diag, &["bfs", "nosuch"], "unknown workload 'nosuch'");
}

#[test]
fn explore_rejects_every_bad_design_point_before_simulating() {
    let explore = env!("CARGO_BIN_EXE_explore");
    let cases: [(&[&str], &str); 15] = [
        (&["--scale", "0"], "--scale wants"),
        (&["--scale", "NaN"], "--scale wants"),
        (&["--scale", "1e-9"], "collapses to the floor"),
        (&["--lr-kb", "48,0"], "design point 0KB @ 10us"),
        (&["--hr-kb", "0"], "against 0 KB HR"),
        (&["--lr-retention-us", "-5"], "--lr-retention-us wants"),
        (
            &["--lr-retention-us", "26.5,inf"],
            "--lr-retention-us wants",
        ),
        (&["--lr-retention-us", "10,0.1"], "retention in [1.484e-1,"),
        (&["--hr-retention-ms", "0"], "--hr-retention-ms wants"),
        (
            &["--lr-kb", "48,x"],
            "--lr-kb wants KB in 0..=65536, got 'x'",
        ),
        (&["--hr-kb", "65537"], "--hr-kb wants"),
        (&["--jobs", "100000"], "--jobs wants an integer in 1..=4096"),
        (&["--workload", "nosuch"], "--workload wants one of"),
        (&["--llc-policy", "adaptive"], "--llc-policy wants"),
        (&["--bogus"], "unknown flag '--bogus'"),
    ];
    for (args, fragment) in cases {
        rejects(explore, args, fragment);
    }
}

#[test]
fn repro_rejects_bad_flags_by_name() {
    let repro = env!("CARGO_BIN_EXE_repro");
    let cases: [(&[&str], &str); 12] = [
        (&["--scale", "1e-9", "fig8"], "collapses to the floor"),
        (
            &["--trace-out", "x.trc", "fig8"],
            "--trace-out pairs with --record WORKLOAD or --scenario",
        ),
        (
            &["--scenario", "list", "--trace-out", "x.trc"],
            "--scenario list writes no trace",
        ),
        (
            &["--faults", "2", "fig8"],
            "--faults wants a rate in [0, 1]",
        ),
        (&["--fuzz", "0"], "--fuzz wants"),
        (&["--fuzz", "10", "--fuzz-seed", "x"], "--fuzz-seed wants"),
        (&["--jobs", "0", "all"], "--jobs wants"),
        (&["--bogus", "all"], "unknown flag '--bogus'"),
        (&["table1", "fig9"], "unknown artefact 'fig9'"),
        (&["--resume", "all"], "unknown flag '--resume'"),
        (&["--store", "x", "all"], "unknown flag '--store'"),
        (
            &["--run-timeout", "600", "all"],
            "unknown flag '--run-timeout'",
        ),
    ];
    for (args, fragment) in cases {
        rejects(repro, args, fragment);
    }
}

/// The arguments that give `flag` a valid value.
fn with_value(flag: &str) -> Vec<&str> {
    let value = match flag {
        "--quick" | "--check" => return vec![flag],
        "--scale" => "0.05",
        "--jobs" | "--fault-seed" | "--fuzz-seed" => "2",
        "--faults" => "1e-4",
        "--llc-policy" => "adaptive-retention",
        "--out" => "out-dir",
        "--trace-out" => "out.trc",
        _ => unreachable!("{flag} takes no part in the mode table"),
    };
    vec![flag, value]
}

/// The modes that read `flag`, as `repro`'s rejection names them.
fn readers(flag: &str) -> &'static str {
    match flag {
        "--quick" | "--scale" => "artefact targets or --record WORKLOAD",
        "--jobs" => "artefact targets or --fuzz N",
        "--out" => "artefact targets or --canary",
        "--check" => "artefact targets, --scenario NAME[:seed] or --trace FILE",
        "--faults" | "--fault-seed" | "--llc-policy" => "artefact targets",
        "--fuzz-seed" => "--fuzz N",
        "--trace-out" => "--record WORKLOAD or --scenario NAME[:seed]",
        _ => unreachable!("{flag} takes no part in the mode table"),
    }
}

/// A flag that a run mode does not read would parse cleanly and change
/// nothing, so each (mode, ignored flag) pair is a typed rejection that
/// names the flag, the modes that read it and the mode given.
#[test]
fn repro_rejects_every_flag_its_mode_ignores() {
    let repro = env!("CARGO_BIN_EXE_repro");
    let modes: [(&[&str], &str, &[&str]); 6] = [
        (
            &["fig8"],
            "artefact targets",
            &["--fuzz-seed", "--trace-out"],
        ),
        (
            &["--record", "nw", "--trace-out", "nw.trc"],
            "--record WORKLOAD",
            &[
                "--jobs",
                "--out",
                "--check",
                "--faults",
                "--fault-seed",
                "--llc-policy",
                "--fuzz-seed",
            ],
        ),
        (
            &["--fuzz", "10"],
            "--fuzz N",
            &[
                "--quick",
                "--scale",
                "--out",
                "--check",
                "--faults",
                "--fault-seed",
                "--llc-policy",
                "--trace-out",
            ],
        ),
        (
            &["--canary"],
            "--canary",
            &[
                "--quick",
                "--scale",
                "--jobs",
                "--check",
                "--faults",
                "--fault-seed",
                "--llc-policy",
                "--fuzz-seed",
                "--trace-out",
            ],
        ),
        (
            &["--scenario", "write-ramp:3"],
            "--scenario NAME[:seed]",
            &[
                "--quick",
                "--scale",
                "--jobs",
                "--out",
                "--faults",
                "--fault-seed",
                "--llc-policy",
                "--fuzz-seed",
            ],
        ),
        (
            &["--trace", "in.trc"],
            "--trace FILE",
            &[
                "--quick",
                "--scale",
                "--jobs",
                "--out",
                "--faults",
                "--fault-seed",
                "--llc-policy",
                "--fuzz-seed",
                "--trace-out",
            ],
        ),
    ];
    let mut pairs = 0;
    for (mode_args, mode, ignored) in modes {
        for &flag in ignored {
            let mut args = mode_args.to_vec();
            args.extend(with_value(flag));
            let want = format!("{flag} pairs with {}, not {mode}", readers(flag));
            rejects(repro, &args, &want);
            pairs += 1;
        }
    }
    assert_eq!(pairs, 43);
}

/// Each mode still runs with every flag it reads. The canary is left
/// out: it times three full fig8 sweeps.
#[test]
fn repro_modes_run_with_every_flag_they_read() {
    let dir = std::env::temp_dir().join(format!("sttgpu-cli-modes-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create dir");
    let trc = dir.join("zipf-hot.trc").display().to_string();
    let out = dir.join("out").display().to_string();
    let runs: [&[&str]; 5] = [
        &[
            "--quick",
            "--scale",
            "0.01",
            "--jobs",
            "1",
            "--out",
            &out,
            "--check",
            "--faults",
            "1e-4",
            "--fault-seed",
            "3",
            "--llc-policy",
            "fixed",
            "table1",
        ],
        &[
            "--record",
            "nw",
            "--quick",
            "--scale",
            "0.01",
            "--trace-out",
            &trc,
        ],
        &["--fuzz", "4", "--fuzz-seed", "3", "--jobs", "2"],
        &["--scenario", "zipf-hot:7", "--check", "--trace-out", &trc],
        &["--trace", &trc, "--check"],
    ];
    for args in runs {
        let output = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("spawn");
        assert!(
            output.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&output.stderr)
        );
    }
    fs::remove_dir_all(&dir).expect("clean up");
}

/// A line-oriented text trace is not a trace file: `repro --trace`
/// rejects it with exit 1 and a message naming the file.
#[test]
fn repro_rejects_a_text_trace_as_bad_magic() {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli-text-trace.trc");
    fs::write(&path, "sttgpu-trace v1 requests line_bytes=256\nr 1 2\n").expect("write");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--trace")
        .arg(&path)
        .output()
        .expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    let want = format!("{}: not an sttgpu trace (bad magic)", path.display());
    assert!(stderr.contains(&want), "stderr lacks '{want}':\n{stderr}");
    assert!(out.stdout.is_empty(), "replayed before rejecting");
    let _ = fs::remove_file(path);
}

/// `repro --scenario zipf-hot:7 --trace-out F` saves the scenario it
/// replayed: the same bytes `save_ops` writes for `scenario_ops`, whose
/// digest `trace_streaming.rs` pins.
#[test]
fn repro_scenario_trace_out_writes_the_saved_scenario_bytes() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let (cli, lib) = (
        dir.join("cli-zipf-hot-7.trc"),
        dir.join("lib-zipf-hot-7.trc"),
    );
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--scenario", "zipf-hot:7", "--trace-out"])
        .arg(&cli)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let ops = scenario_ops("zipf-hot", 7).expect("known family");
    let line_bytes = two_part_config(L2Choice::TwoPartC1)
        .expect("C1 is two-part")
        .line_bytes;
    save_ops(&lib, line_bytes, &ops).expect("save");
    let (cli_bytes, lib_bytes) = (fs::read(&cli).expect("cli"), fs::read(&lib).expect("lib"));
    let _ = fs::remove_file(cli);
    let _ = fs::remove_file(lib);
    assert!(!cli_bytes.is_empty());
    assert!(
        cli_bytes == lib_bytes,
        "--trace-out wrote other bytes than save_ops"
    );
}

/// `repro --out results all` is the documented regeneration command, so
/// no file `repro` writes under `--out` may carry the baseline's name.
#[test]
fn repro_out_never_writes_the_canary_baseline() {
    let dir = std::env::temp_dir().join(format!("sttgpu-cli-baseline-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create dir");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--scale", "0.01", "--out"])
        .arg(&dir)
        .arg("table1")
        .current_dir(&dir)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(dir.join("table1.txt").is_file() && dir.join("BENCH_repro.json").is_file());
    let baseline = Path::new(CANARY_BASELINE_PATH)
        .file_name()
        .expect("file name");
    assert!(
        !dir.join(baseline).exists(),
        "repro wrote {} under --out",
        baseline.to_string_lossy()
    );
    fs::remove_dir_all(&dir).expect("clean up");
}

/// A panicking artefact is quarantined: the sweep continues, the failure
/// is reported in QUARANTINE.txt, and the exit code is nonzero.
#[test]
fn panicking_artefact_is_quarantined_without_aborting_the_sweep() {
    let dir = std::env::temp_dir().join(format!("sttgpu-cli-quarantine-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create dir");
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--scale", "0.02", "--jobs", "2", "--out"])
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
