//! The benchmark's own contract: it prints exactly the metrics
//! `BENCHMARK.json` declares, its correctness gate catches a wrong
//! model, and its inputs and digests follow the seed.

use perfbench::spans::Off;
use perfbench::workloads::{Bench, Inputs, Kind, Sizes};
use perfbench::{run, Options, Outcome};

fn tiny(kind: Kind, seed: u64, trace: bool) -> Outcome {
    run(&Options {
        kind,
        seed,
        seconds: 0.0,
        trace,
        sizes: Sizes::TINY,
    })
}

/// `(name, unit)` of every entry in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let start = json
        .find(&format!("\"{list}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("the list closes")];
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn field(entry: &str, key: &str) -> String {
    let at = entry.find(&format!("\"{key}\"")).expect(key) + key.len() + 2;
    let rest = &entry[at..];
    let open = rest.find('"').expect("a string value") + 1;
    let close = rest[open..].find('"').expect("a closed string");
    rest[open..open + close].to_string()
}

#[test]
fn declared_workloads_are_the_four_kinds() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json");
    let start = json.find("\"workloads\"").expect("workloads");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("the list closes")];
    let names: Vec<String> = body.split('{').skip(1).map(|e| field(e, "name")).collect();
    let kinds: Vec<String> = Kind::ALL.iter().map(|k| k.name().to_string()).collect();
    assert_eq!(names, kinds);
}

#[test]
fn tiny_runs_emit_exactly_the_declared_metrics() {
    for kind in Kind::ALL {
        for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
            let out = tiny(kind, 7, trace);
            let got: Vec<(String, String)> = out
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            assert_eq!(got, declared(list), "{} trace={trace}", kind.name());
            assert!(out.correct(), "{} trace={trace} failed", kind.name());
            assert!(out
                .json()
                .starts_with("{\"correct\": true, \"attempted\": "));
            if !trace {
                for m in &out.metrics {
                    assert!(
                        m.value > 0.0 && m.value.is_finite(),
                        "{}: {m:?}",
                        kind.name()
                    );
                }
            }
        }
    }
}

#[test]
fn traced_self_times_add_up_to_the_traced_repetition() {
    for kind in Kind::ALL {
        let out = tiny(kind, 11, true);
        let value = |name: &str| {
            out.metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("{name}"))
                .value
        };
        let layers: f64 = ["bench", "sim", "core", "tracefile", "oracle"]
            .iter()
            .map(|l| value(&format!("{l}.self_s")))
            .sum();
        let wall = value("trace.wall_s");
        assert!(
            (layers - wall).abs() <= 0.01 * wall + 1e-4,
            "{}: layers {layers} vs traced wall {wall}",
            kind.name()
        );
    }
}

#[test]
fn tampered_expected_stats_fail_the_gate() {
    let mut replay = Bench::setup(Kind::LlcReplay, 3, Sizes::TINY, &mut Off);
    let Inputs::LlcReplay(streams) = &mut replay.inputs else {
        unreachable!("llc-replay inputs")
    };
    streams[0].expected.refreshes += 1;
    let out = replay.rep(&mut Off);
    let failed = replay.gate(&out, false);
    assert_eq!(failed, 1, "exactly the tampered stream fails");
    assert!(failed as f64 / out.ops as f64 > 0.0);

    let mut retention = Bench::setup(Kind::LlcRetention, 3, Sizes::TINY, &mut Off);
    let Inputs::LlcRetention { expected, .. } = &mut retention.inputs else {
        unreachable!("llc-retention inputs")
    };
    expected.lr_read_hits += 1;
    let out = retention.rep(&mut Off);
    assert_eq!(retention.gate(&out, false), out.ops);
}

#[test]
fn a_repetition_that_differs_from_the_first_fails() {
    let mut fuzz = Bench::setup(Kind::OracleFuzz, 5, Sizes::TINY, &mut Off);
    let first = fuzz.rep(&mut Off);
    assert_eq!(fuzz.gate(&first, false), 0);
    let mut changed = fuzz.rep(&mut Off);
    assert_eq!(fuzz.gate(&changed, false), 0, "an honest repeat passes");
    changed.digests[0] = changed.digests[0].map(|d| d ^ 1);
    assert_eq!(fuzz.gate(&changed, false), changed.ops);
}

#[test]
fn digests_follow_the_seed() {
    for kind in Kind::ALL {
        let digest = |seed| tiny(kind, seed, false).digest;
        let a = digest(1);
        assert_eq!(a, digest(1), "{}: same seed, same digest", kind.name());
        assert_ne!(
            a,
            digest(2),
            "{}: another seed, another digest",
            kind.name()
        );
    }
}
