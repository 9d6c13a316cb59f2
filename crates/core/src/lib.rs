//! The paper's contribution: a **two-part STT-RAM last-level cache** for
//! GPUs (Samavatian et al., DAC 2014).
//!
//! The L2 is split into two parallel STT-RAM arrays with different MTJ
//! retention design points:
//!
//! * a small **low-retention (LR)** part whose cheap writes host the
//!   application's *write working set* (WWS), refreshed by per-line
//!   retention counters, and
//! * a large **high-retention (HR)** part holding read-mostly data, never
//!   refreshed — lines that outlive its retention are invalidated or
//!   written back.
//!
//! Blocks migrate HR→LR once their write count reaches a threshold (the
//! paper settles on 1, i.e. the existing modified bit) and return LR→HR on
//! eviction, through a pair of small swap buffers that absorb the
//! write-latency gap between the arrays. A search selector orders the
//! sequential two-part lookup by access type: writes probe LR first, reads
//! probe HR first. The threshold rule and its runtime-adaptive retention
//! variant are one [`PolicyEngine`], selected by [`LlcPolicy`].
//!
//! [`TwoPartLlc`] implements all of that behind the [`LlcModel`] trait,
//! alongside the evaluation's baselines ([`SingleLlc`] over SRAM or
//! conventional 10-year STT-RAM). [`RequestClock`] drives any of them
//! from a request stream without the simulator, and [`close_check`] ends
//! a run the invariant checker watched.
//!
//! The LLC also carries a deterministic fault process, configured by
//! [`FaultConfig`] (off by default, and then exactly transparent): early
//! retention flips answered by per-line SECDED, dropped refreshes,
//! swap-buffer stalls and transient bank faults, each a stateless draw
//! keyed by seed, line and time so every replay sees the same faults.
//!
//! # Example
//!
//! ```
//! use sttgpu_core::{LlcModel, TwoPartConfig, TwoPartLlc};
//! use sttgpu_cache::AccessKind;
//!
//! // A small two-part L2: 48 KB LR (2-way) + 336 KB HR (7-way), 256 B lines.
//! let cfg = TwoPartConfig::new(48, 2, 336, 7, 256);
//! let mut llc = TwoPartLlc::new(cfg);
//!
//! // A write miss fills into the LR part (write threshold 1).
//! let addr = 0x4_0000;
//! let probe = llc.probe(addr, AccessKind::Write, 1_000);
//! assert!(!probe.hit);
//! llc.fill(addr, true, 2_000);
//! assert!(llc.lr_contains(addr));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod array;
mod config;
mod fault;
mod llc;
mod policy;
mod requests;
mod retention;
mod retention_list;
mod search;
mod swap;
mod two_part;

pub use config::{ConfigError, SearchMode, TwoPartConfig};
pub use fault::FaultConfig;
pub use llc::{AnyLlc, FillOutcome, LlcModel, LlcStats, ProbeOutcome, SingleLlc};
pub use policy::{lr_maintenance_floor_ns, lr_tracker_at, LlcPolicy, PolicyEngine};
pub use requests::{close_check, RequestClock};
pub use retention::RetentionTracker;
pub use search::Part;
pub use two_part::{TwoPartLlc, TwoPartStats};
