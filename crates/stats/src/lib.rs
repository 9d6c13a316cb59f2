//! Statistics substrate for the `sttgpu` GPU/STT-RAM simulation stack.
//!
//! The DAC 2014 paper this project reproduces characterises GPGPU
//! applications through a handful of statistics: per-block write counts and
//! their **coefficient of variation** across and within cache sets (Fig. 3)
//! and **rewrite-interval histograms** (Fig. 6). This crate provides those
//! primitives, plus the seeded RNG every workload draws from, with no
//! dependency on the rest of the stack so every other crate can use them.
//! Event counts are plain `u64` fields on the structs that report them.
//!
//! # Example
//!
//! ```
//! use sttgpu_stats::{Histogram, RunningStats, WriteVariation};
//!
//! // A rewrite-interval histogram with the paper's Fig. 6 bucket bounds (ns).
//! let mut h = Histogram::new(&[1_000, 5_000, 10_000, 1_000_000, 2_500_000]);
//! h.record(300);        // 0.3 us  -> first bucket
//! h.record(2_000_000);  // 2 ms    -> <=2.5 ms bucket
//! assert_eq!(h.total(), 2);
//!
//! let mut rs = RunningStats::new();
//! for x in [1.0, 2.0, 3.0] {
//!     rs.push(x);
//! }
//! assert!((rs.mean() - 2.0).abs() < 1e-12);
//!
//! // Inter/intra-set write variation over a 2-set x 2-way write-count matrix.
//! let wv = WriteVariation::from_counts(&[vec![4, 4], vec![1, 1]]);
//! assert!(wv.inter_set > wv.intra_set);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cov;
mod histogram;
mod rng;
mod running;

pub use cov::{coefficient_of_variation, WriteVariation};
pub use histogram::{Bucket, Histogram};
pub use rng::{Chance, Rng};
pub use running::RunningStats;
