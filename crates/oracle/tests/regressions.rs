//! Minimized oracle traces pinning the bugs this fuzzing layer was
//! built to catch — each checked in exactly as the shrinker emitted it.
//!
//! Every test replays a tiny trace through [`run_case`] (model and
//! implementation in lockstep) *and* asserts the concrete behaviour
//! directly on the implementation, so the regression stays meaningful
//! even if the oracle itself evolves.

use sttgpu_core::{FaultConfig, LlcModel, RequestClock, TwoPartConfig, TwoPartLlc};
use sttgpu_device::mtj::RetentionTime;
use sttgpu_oracle::{run_case, Op, OracleLlc};

fn paper_shape() -> TwoPartConfig {
    TwoPartConfig::new(8, 2, 56, 7, 256)
}

/// Replays a trace on the implementation alone with the oracle's
/// fill-on-miss discipline, returning the machine for inspection.
fn replay(cfg: &TwoPartConfig, ops: &[Op]) -> TwoPartLlc {
    let mut llc = TwoPartLlc::new(cfg.clone());
    let mut clock = RequestClock::new(llc.maintenance_interval_ns());
    for op in ops {
        clock.access(&mut llc, op.dt_ns, op.line, op.write);
    }
    llc
}

#[test]
fn dirty_fill_does_not_double_count_the_filling_write() {
    // Shrinker output for the fill() write-count seeding bug (HR fills
    // carried `dirty as u32` on top of `fill_with`'s own dirty
    // accounting): at threshold 3, a dirty fill seeded count 2 instead
    // of 1, so the very next demand write reached 3 and migrated one
    // write early — `lr_resident` diverged after op #1.
    let cfg = paper_shape().with_write_threshold(3).with_buffer_blocks(1);
    let trace = [
        Op {
            dt_ns: 1,
            line: 13,
            write: true,
        },
        Op {
            dt_ns: 1,
            line: 13,
            write: true,
        },
    ];
    assert_eq!(run_case(&cfg, &trace), None);

    // Pin the fixed behaviour directly: dirty fill = write 1, second
    // demand write = 2 < 3, so the line must still be HR-resident; the
    // *third* write is the migration trigger.
    let llc = replay(&cfg, &trace);
    assert!(llc.hr_contains(13 * 256), "write 2 of 3 must stay in HR");
    assert!(!llc.lr_contains(13 * 256));
    assert_eq!(llc.stats().migrations_to_lr, 0);
    let llc = replay(
        &cfg,
        &[
            Op {
                dt_ns: 1,
                line: 13,
                write: true,
            },
            Op {
                dt_ns: 1,
                line: 13,
                write: true,
            },
            Op {
                dt_ns: 1,
                line: 13,
                write: true,
            },
        ],
    );
    assert!(llc.lr_contains(13 * 256), "write 3 of 3 migrates");
    assert_eq!(llc.stats().migrations_to_lr, 1);
}

#[test]
fn demoted_dirty_line_restarts_its_hr_write_count() {
    // Shrinker output for the demotion write-count seeding bug: `demote`
    // and `rotate_lr` handed the victim's dirty bit to `fill_with`,
    // whose line constructor counts the filling write — so a *dirty*
    // demoted line re-entered HR at count 1 instead of 0. At threshold
    // 2 its first post-demotion demand write reached 2 and migrated one
    // write early; `lr_resident` diverged on the final op.
    //
    // LR at this shape is 32 lines / 2-way / 16 sets, so lines 1, 17
    // and 33 share an LR set: two migrations fill the set, the third
    // demotes line 1 (dirty) back to HR.
    let cfg = paper_shape().with_write_threshold(2);
    let mut trace: Vec<Op> = Vec::new();
    for line in [1u64, 17, 33] {
        // Dirty fill (write 1, stays HR at TH=2) + second write
        // (migrates to LR).
        trace.push(Op {
            dt_ns: 1,
            line,
            write: true,
        });
        trace.push(Op {
            dt_ns: 1,
            line,
            write: true,
        });
    }
    // Line 1 was demoted dirty. One demand write must *not* migrate it
    // (count restarts at 0 → this write is 1 of 2).
    trace.push(Op {
        dt_ns: 1,
        line: 1,
        write: true,
    });
    assert_eq!(run_case(&cfg, &trace), None);

    let llc = replay(&cfg, &trace);
    assert!(
        llc.hr_contains(256),
        "write 1 of 2 after demotion must stay in HR"
    );
    assert!(!llc.lr_contains(256));
    assert_eq!(llc.stats().migrations_to_lr, 3);
    assert_eq!(llc.stats().demotions_to_hr, 1);

    // The second post-demotion write is the legitimate trigger.
    trace.push(Op {
        dt_ns: 1,
        line: 1,
        write: true,
    });
    assert_eq!(run_case(&cfg, &trace), None);
    let llc = replay(&cfg, &trace);
    assert!(llc.lr_contains(256), "write 2 of 2 migrates again");
    assert_eq!(llc.stats().migrations_to_lr, 4);
}

#[test]
fn rounded_retention_tick_refreshes_instead_of_expiring() {
    // 1000 ns LR retention / 4-bit counter: the truncated tick (62 ns)
    // under-covered the retention period and the naive rounded-up tick
    // (63 ns) would overshoot it. With the clamped rounding plus the
    // narrowed maintenance window (55 ns), a hot LR line must always
    // be refreshed in its remainder window — never expire. The trace
    // parks a dirty line in LR across many retention periods.
    let cfg = paper_shape()
        .with_lr_retention(RetentionTime::from_nanos(1000.0))
        .with_hr_retention(RetentionTime::from_micros(20.0));
    let mut trace = vec![Op {
        dt_ns: 1,
        line: 7,
        write: true,
    }];
    trace.extend((0..40).map(|_| Op {
        dt_ns: 150,
        line: 7,
        write: false,
    }));
    assert_eq!(run_case(&cfg, &trace), None);

    let llc = replay(&cfg, &trace);
    assert!(llc.lr_contains(7 * 256), "the hot line survives");
    assert!(llc.stats().refreshes > 0, "it survives by being refreshed");
    assert_eq!(
        llc.stats().lr_expirations,
        0,
        "cadence must never be violated"
    );
}

#[test]
fn zero_rate_fault_plan_is_exactly_transparent() {
    // The probe's fault block (bank faults, read ECC and the
    // migration-read ECC added with the `.expect`-removal fix) must be
    // completely skipped for a plan with a seed but all-zero rates —
    // the oracle models only fault-free behaviour, so any leakage of
    // the fault path into a rate-0 run diverges here. The trace drives
    // the migration path the ECC hook sits on.
    let cfg = paper_shape().with_fault(FaultConfig {
        seed: 0xBEEF,
        ..FaultConfig::disabled()
    });
    let trace = [
        Op {
            dt_ns: 1,
            line: 3,
            write: false,
        },
        Op {
            dt_ns: 5,
            line: 3,
            write: true,
        },
        Op {
            dt_ns: 5,
            line: 3,
            write: true,
        },
    ];
    assert_eq!(run_case(&cfg, &trace), None);

    let llc = replay(&cfg, &trace);
    assert_eq!(
        llc.stats().migrations_to_lr,
        1,
        "the trace reaches the ECC hook"
    );
    assert_eq!(llc.stats().ecc_corrections, 0);
    assert_eq!(llc.stats().ecc_uncorrectable, 0);
    assert_eq!(llc.stats().bank_faults, 0);
}

#[test]
fn wide_counter_geometry_runs_without_deadline_overflow() {
    // 16-bit counters made the old `tick * max_count` refresh-deadline
    // product the closest to overflow the tracker gets; the fix
    // saturates it. The oracle drives a full differential trace on a
    // 16-bit-counter geometry (1 ms retention → 15 ns tick) to prove
    // the machines agree under the heaviest sweep cadence.
    let mut cfg = paper_shape().with_lr_retention(RetentionTime::from_millis(1.0));
    cfg.lr_rc_bits = 16;
    cfg.validate().expect("wide-counter geometry is valid");
    let trace: Vec<Op> = (0..60)
        .map(|i| Op {
            dt_ns: 1 + (i % 7),
            line: i % 5,
            write: i % 2 == 0,
        })
        .collect();
    assert_eq!(run_case(&cfg, &trace), None);
}

#[test]
fn single_slot_buffer_overflow_accounting_matches() {
    // Four dirty fills into one LR set with a single-slot LR→HR swap
    // buffer: the second demotion finds the slot still occupied and is
    // forced out to DRAM. Buffer overflow, admission and peak counters
    // are part of the differential surface.
    let cfg = paper_shape().with_buffer_blocks(1);
    // LR is 32 lines, 2-way, 16 sets: lines 0, 16, 32, 48 share a set.
    let trace = [
        Op {
            dt_ns: 1,
            line: 0,
            write: true,
        },
        Op {
            dt_ns: 1,
            line: 16,
            write: true,
        },
        Op {
            dt_ns: 1,
            line: 32,
            write: true,
        },
        Op {
            dt_ns: 1,
            line: 48,
            write: true,
        },
    ];
    assert_eq!(run_case(&cfg, &trace), None);

    let llc = replay(&cfg, &trace);
    assert!(llc.buffer_overflows() > 0, "the trace exercises overflow");
    assert!(
        llc.stats().overflow_writebacks > 0,
        "a dirty victim was forced out to DRAM"
    );
}

#[test]
fn oracle_rejects_out_of_scope_configurations() {
    // The oracle's preconditions are part of its contract: silently
    // accepting a config it cannot model would fabricate divergences.
    for bad in [
        paper_shape().with_lr_rotation_ms(1.0),
        paper_shape().with_fault(FaultConfig {
            seed: 1,
            flip_rate: 0.5,
            ..FaultConfig::disabled()
        }),
    ] {
        assert!(
            std::panic::catch_unwind(|| OracleLlc::new(&bad)).is_err(),
            "out-of-scope config must be rejected"
        );
    }
}
