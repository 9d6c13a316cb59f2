//! Cache substrate for the `sttgpu` stack.
//!
//! Everything a GPU cache hierarchy needs short of timing: set-associative
//! tag/data bookkeeping with pluggable replacement ([`SetAssocCache`]),
//! per-physical-line write accounting (the raw material of the paper's
//! Fig. 3 write-variation study), miss-status holding registers
//! ([`MshrTable`]), bank arbitration for occupancy modelling
//! ([`BankArbiter`]), division-free address mapping ([`Divisor`]) and GPU
//! write-policy vocabulary ([`write_policy`]).
//!
//! The cache array is generic over a per-line metadata type `M`, which is
//! how the two-part LLC of `sttgpu-core` attaches retention counters and
//! write-working-set state to lines without this crate knowing about them.
//!
//! # Example
//!
//! ```
//! use sttgpu_cache::{AccessKind, ReplacementPolicy, SetAssocCache};
//!
//! // 4-set, 2-way cache of 128-byte lines with LRU replacement.
//! let mut c: SetAssocCache<()> = SetAssocCache::new(4, 2, 128, ReplacementPolicy::Lru);
//! let addr = 0x1000;
//! assert!(c.lookup(c.line_addr(addr), AccessKind::Read, 0).is_none()); // cold miss
//! c.fill(c.line_addr(addr), false, 0);
//! assert!(c.lookup(c.line_addr(addr), AccessKind::Read, 1).is_some()); // hit
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arbiter;
mod cache;
mod divisor;
mod linemap;
mod mshr;
mod replacement;
mod stats;
pub mod write_policy;

pub use arbiter::BankArbiter;
pub use cache::{AccessKind, Evicted, Line, SetAssocCache, Slot};
pub use divisor::Divisor;
pub use linemap::{line_map_with_capacity, LineHasher, LineMap};
pub use mshr::{MshrOutcome, MshrTable};
pub use replacement::ReplacementPolicy;
pub use stats::CacheStats;
