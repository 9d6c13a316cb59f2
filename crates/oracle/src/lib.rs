//! Model-based differential fuzzing oracle for the two-part LLC.
//!
//! [`TwoPartLlc`](sttgpu_core::TwoPartLlc) is performance-engineered:
//! per-part retention lists that keep resident lines in deadline order
//! instead of array scans, slot handles and division-free set indexing,
//! cached integer latencies, bank arbiters, trace and energy plumbing
//! threaded through every path. Each of those optimisations is a place
//! where the implementation can silently drift from the architecture it
//! claims to model. This crate pins it down from the outside:
//!
//! * [`OracleLlc`] is a small, deliberately *unoptimised* functional
//!   model of the same semantics — per-line residency, dirtiness, write
//!   counts, content tokens, retention clocks and swap-buffer occupancy.
//!   Residency and clocks are dense rows scanned linearly (set index by
//!   mask or `%`), the rest of each line's state a plain row beside
//!   them, and the swap buffers plain lists of completion times; there
//!   are no deadline lists, no caching and nothing carried between
//!   sweeps. Where the implementation earns speed, the
//!   oracle spends clarity.
//! * [`generate`] turns a seed and a [`TraceSpec`] into a request
//!   stream (hot/cold address mix, read/write ratio, bounded
//!   inter-arrival gaps) whose every subsequence is still well formed,
//!   which is what makes traces shrinkable.
//! * [`run_case`] drives both machines on one
//!   [`RequestClock`](sttgpu_core::RequestClock), the requests
//!   discipline every LLC-only harness shares, and reports the first
//!   observable [`Divergence`]: per-op hit/miss,
//!   write-backs, residency, the full statistics block and the
//!   swap-buffer counters.
//! * [`shrink`] greedily delta-debugs a diverging trace down to a
//!   handful of operations fit for checking in as a regression test.
//! * [`ScenarioSpec`] composes phases — working-set shifts, Zipf skew,
//!   write-fraction ramps, grid-end write bursts, rewrite-interval
//!   targets — and lowers them to the same [`Op`] vocabulary, so the
//!   named families in [`scenario_families`] fuzz, shrink and pin
//!   through the identical machinery; [`ops_to_records`]/[`save_ops`]
//!   bridge to the on-disk trace format, and [`request_ops`] streams a
//!   requests-mode file back as ops.
//! * [`fuzz`] round-robins seeded cases across [`corner_geometries`],
//!   interleaving legacy corner mixes with scenario-family draws —
//!   paper-shape, direct-mapped, fully-associative, parallel-search,
//!   tight-buffer, slack, rounded-tick and zero-rate-fault corners;
//!   [`fuzz_sharded`] splits the same campaign into contiguous case
//!   ranges on worker threads and merges a byte-identical report.
//!
//! The oracle deliberately models the *functional* architecture only:
//! completion times (`ready_ns`) depend on the bank arbiter, which is a
//! performance model rather than a correctness property, so they are
//! not compared. Fault injection is compared only at rate zero, where
//! an enabled-but-silent plan must be exactly transparent.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod corner;
mod diff;
mod io;
mod model;
mod scenario;
mod shrink;
mod trace_gen;

pub use corner::{corner_geometries, Corner};
pub use diff::{
    fuzz, fuzz_sharded, run_case, run_case_records, Divergence, FuzzFailure, FuzzReport,
};
pub use io::{ops_to_records, records_to_ops, request_ops, save_ops};
pub use model::OracleLlc;
pub use scenario::{scenario_by_name, scenario_families, Phase, ScenarioFamily, ScenarioSpec};
pub use shrink::shrink;
pub use trace_gen::{format_trace, generate, Op, TraceSpec};
