//! Per-policy differential sweep: every shipped runtime policy must
//! keep the implementation and the reference model observationally
//! identical across every corner geometry.
//!
//! The policy engine is shared between the two machines, so a
//! divergence here means a machine applied a decision differently —
//! exactly the class of bug the adaptive paths (rewrite sweeps, epoch
//! clocks) can introduce.
//!
//! The adaptive-retention policy also has to earn its place: on
//! burst-then-quiet traffic it must spend clearly less dynamic LLC
//! energy than the fixed policy.

use sttgpu_core::{LlcModel, LlcPolicy, RequestClock, TwoPartConfig, TwoPartLlc};
use sttgpu_oracle::{corner_geometries, generate, run_case, Phase, ScenarioSpec};

#[test]
fn every_policy_agrees_on_every_corner_geometry() {
    let mut cases = 0u64;
    for corner in corner_geometries() {
        for policy in LlcPolicy::ALL {
            for (round, seed) in [0x5EED_0001u64, 0xDAC0_2014, 0x0BAD_CAFE]
                .into_iter()
                .enumerate()
            {
                let cfg = corner.cfg.clone().with_policy(policy);
                // Longer traces than the plain fuzz corners: adaptive
                // decisions fire on 10 µs epoch crossings, so the trace
                // must span many epochs to exercise switches.
                let mut spec = corner.spec;
                spec.ops = 1_200;
                let ops = generate(seed ^ (round as u64) << 32, &spec);
                assert_eq!(
                    run_case(&cfg, &ops),
                    None,
                    "[{}/{}/seed {seed:#x}] model and implementation diverged",
                    corner.name,
                    policy.name(),
                );
                cases += 1;
            }
        }
    }
    assert!(
        cases >= 54,
        "acceptance floor: 9 corners x 2 policies x 3 seeds"
    );
}

/// 20 rounds of a 200-op write burst over a 700-line window followed by
/// 1000 read-only ops over a disjoint 2000-line window.
fn burst_then_quiet() -> ScenarioSpec {
    let phase = |ops, base_line, working_set, write_fraction, max_dt_ns| Phase {
        ops,
        base_line,
        working_set,
        zipf_s: 0.3,
        write_start: write_fraction,
        write_end: write_fraction,
        max_dt_ns,
        burst_ops: 0,
        rewrite_interval_ns: None,
    };
    ScenarioSpec {
        name: "burst-then-quiet".into(),
        phases: (0..20)
            .flat_map(|_| {
                [
                    phase(200, 0, 700, 0.7, 100),
                    phase(1000, 100_000, 2000, 0.0, 200),
                ]
            })
            .collect(),
    }
}

/// Dynamic LLC energy, nJ, of `spec` lowered under `seed` and replayed
/// on C1 under `policy`.
fn c1_dynamic_nj(spec: &ScenarioSpec, seed: u64, policy: LlcPolicy) -> f64 {
    let mut llc = TwoPartLlc::new(TwoPartConfig::new(192, 2, 1344, 7, 256).with_policy(policy));
    let mut clock = RequestClock::new(llc.maintenance_interval_ns());
    for op in spec.lower(seed) {
        clock.access(&mut llc, op.dt_ns, op.line, op.write);
    }
    llc.energy().dynamic_nj()
}

/// Why adaptive-retention ships: in the quiet phases the LR part sees
/// refreshes and no demand writes, so the ladder climbs to a longer
/// retention and the refresh energy falls.
#[test]
fn adaptive_retention_saves_energy_on_burst_then_quiet_traffic() {
    let spec = burst_then_quiet();
    for seed in 11..=13 {
        let fixed = c1_dynamic_nj(&spec, seed, LlcPolicy::Fixed);
        let adaptive = c1_dynamic_nj(&spec, seed, LlcPolicy::AdaptiveRetention);
        assert!(
            adaptive <= 0.95 * fixed,
            "[seed {seed}] adaptive-retention {adaptive:.0} nJ vs fixed {fixed:.0} nJ \
             ({:.3}x)",
            adaptive / fixed
        );
    }
}
