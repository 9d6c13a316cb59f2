//! Cache substrate for the `sttgpu` stack.
//!
//! Everything a GPU cache hierarchy needs short of timing: set-associative
//! tag/data bookkeeping with LRU replacement ([`SetAssocCache`]),
//! per-physical-line write accounting (the raw material of the paper's
//! Fig. 3 write-variation study), miss-status holding registers
//! ([`MshrTable`]), bank arbitration for occupancy modelling
//! ([`BankArbiter`]) and division-free address mapping ([`Divisor`]).
//!
//! The cache array is generic over a per-line metadata type `M`, which is
//! how the two-part LLC of `sttgpu-core` attaches retention clocks and
//! write-working-set history to lines without this crate knowing about
//! them. The array stores residency, recency, the dirty bit and `M`, and
//! counts no accesses: hit and miss counts belong to the owners that
//! report them.
//!
//! # Example
//!
//! ```
//! use sttgpu_cache::{AccessKind, SetAssocCache};
//!
//! // 4-set, 2-way cache of 128-byte lines.
//! let mut c: SetAssocCache<()> = SetAssocCache::new(4, 2, 128);
//! let addr = 0x1000;
//! assert!(c.lookup(c.line_addr(addr), AccessKind::Read).is_none()); // cold miss
//! c.fill(c.line_addr(addr), false);
//! assert!(c.lookup(c.line_addr(addr), AccessKind::Read).is_some()); // hit
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arbiter;
mod cache;
mod divisor;
mod linemap;
mod mshr;

pub use arbiter::BankArbiter;
pub use cache::{AccessKind, Evicted, Line, Placement, SetAssocCache, Slot};
pub use divisor::Divisor;
pub use linemap::{LineHasher, LineMap};
pub use mshr::{MshrOutcome, MshrTable};
