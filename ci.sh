#!/usr/bin/env bash
# Local CI gate: everything a PR must pass. Run from the repo root.
#
#   ./ci.sh            # build + tests + lints + docs
#   ./ci.sh --smoke    # also run the benchmark's contract tests, a
#                      # reduced-scale repro to exercise the
#                      # parallel executor end to end, explore and diag
#                      # runs, bad-input calls (one per binary, and a
#                      # text trace) that must exit nonzero without
#                      # panicking, a --check run with
#                      # the runtime invariant checker attached, a perf
#                      # canary (median of 3 samples) against the
#                      # checked-in throughput baseline, a budgeted differential fuzz pass vs
#                      # the oracle (corner geometries + scenario
#                      # families), a checked scenario run whose
#                      # requests trace file is replayed with the
#                      # checker and the oracle differential, a
#                      # record -> trace file -> replay round trip,
#                      # checked runs under both adaptive LLC policies,
#                      # and an --llc-policy fixed vs default
#                      # byte-identity comparison
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test -q --release --workspace"
cargo test -q --release --workspace

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --release --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo doc (intra-doc links must resolve)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

if [[ "${1:-}" == "--smoke" ]]; then
    echo "==> perfbench contract tests (tiny sizes, its own workspace)"
    cargo test --release --offline --manifest-path perfbench/Cargo.toml

    trace_tmp="$(mktemp -t sttgpu-smoke-XXXXXX.trc)"
    scenario_tmp="$(mktemp -t sttgpu-smoke-XXXXXX.trc)"
    smoke_tmp="$(mktemp -d -t sttgpu-smoke-XXXXXX)"
    trap 'rm -f "$trace_tmp" "$scenario_tmp"; rm -rf "$smoke_tmp"' EXIT

    echo "==> repro smoke run (scale 0.1, all artefacts)"
    ./target/release/repro --scale 0.1 all > /dev/null

    echo "==> explore and diag runs (scale 0.05)"
    ./target/release/explore --scale 0.05 --check > /dev/null
    ./target/release/diag --scale 0.05 > /dev/null

    echo "==> bad input is a typed rejection, not a panic (nonzero exit, not 101)"
    reject() {
        local status=0
        "$@" > /dev/null 2>&1 || status=$?
        if [[ $status -eq 0 || $status -eq 101 ]]; then
            echo "bad input smoke: '$*' exited $status"
            exit 1
        fi
    }
    reject ./target/release/repro --faults 2 fig8
    reject ./target/release/explore --lr-retention-us -5
    reject ./target/release/diag --scale abc
    reject ./target/release/diag --scale 1e-9
    reject ./target/release/explore --scale 1e-9
    printf 'sttgpu-trace v1 requests line_bytes=256\nr 1 2\n' > "$smoke_tmp/text.trc"
    reject ./target/release/repro --trace "$smoke_tmp/text.trc"

    echo "==> repro invariant-checker run (scale 0.05, all artefacts, --check)"
    ./target/release/repro --scale 0.05 all --check > /dev/null

    echo "==> repro seeded fault-injection run (scale 0.05, --faults 2e-4, --check)"
    ./target/release/repro --scale 0.05 --faults 2e-4 --fault-seed 7 fig8 faults --check > /dev/null

    echo "==> repro adaptive-policy runs (scale 0.05, both adaptive policies, --check)"
    ./target/release/repro --scale 0.05 --llc-policy adaptive-retention fig8 --check > /dev/null
    ./target/release/repro --scale 0.05 --llc-policy adaptive-ways fig8 --check > /dev/null

    echo "==> repro perf canary (median of 3 timed samples vs results/canary_baseline.json baseline)"
    grep -q '"canary_baseline_cycles_per_second":' results/canary_baseline.json \
        || { echo "canary: results/canary_baseline.json is missing or has no baseline key"; exit 1; }
    ./target/release/repro --canary > /dev/null

    echo "==> repro differential fuzz vs the oracle (75000 cases, seed 7, 4 shards; corners + scenarios)"
    ./target/release/repro --fuzz 75000 --fuzz-seed 7 --jobs 4 > /dev/null

    echo "==> repro scenario run (zipf-hot:7, --check) -> requests trace file -> --check replay + oracle differential"
    ./target/release/repro --scenario zipf-hot:7 --check --trace-out "$scenario_tmp" > /dev/null
    ./target/release/repro --trace "$scenario_tmp" --check > /dev/null

    echo "==> repro record/replay round trip (nw @ 0.05 -> trace file -> --check replay)"
    ./target/release/repro --record nw --trace-out "$trace_tmp" --scale 0.05 > /dev/null
    ./target/release/repro --trace "$trace_tmp" --check > /dev/null

    echo "==> repro --llc-policy fixed is byte-identical to the default"
    policy_args=(--scale 0.05 table1 fig3 fig6)
    ./target/release/repro "${policy_args[@]}" --out "$smoke_tmp/default" > /dev/null
    ./target/release/repro "${policy_args[@]}" --llc-policy fixed --out "$smoke_tmp/fixed" > /dev/null
    for f in table1.txt table1.csv fig3.txt fig3.csv fig6.txt fig6.csv; do
        cmp "$smoke_tmp/default/$f" "$smoke_tmp/fixed/$f" \
            || { echo "policy smoke: $f differs between default and --llc-policy fixed"; exit 1; }
    done
fi

echo "CI OK"
