//! # sttgpu — an STT-RAM last-level cache architecture for GPUs
//!
//! Facade crate for the reproduction of *"An Efficient STT-RAM Last Level
//! Cache Architecture for GPUs"* (Samavatian et al., DAC 2014). It re-exports
//! every layer of the stack under one roof so examples, integration tests
//! and downstream users need a single dependency:
//!
//! * [`stats`] — counters, histograms, write-variation metrics,
//! * [`device`] — MTJ/STT-RAM and SRAM device models, CACTI-lite arrays,
//! * [`cache`] — set-associative cache substrate (LRU arrays, MSHRs, banks),
//! * [`core`] — the paper's contribution: the two-part low/high-retention
//!   STT-RAM LLC with WWS monitoring, retention counters, refresh and swap
//!   buffers,
//! * [`sim`] — a cycle-level GPU memory-system simulator,
//! * [`workloads`] — the synthetic GPGPU workload suite,
//! * [`experiments`] — runners that regenerate every table and figure of the
//!   paper's evaluation.
//!
//! # Quickstart
//!
//! ```
//! use sttgpu::experiments::configs::{gpu_config, L2Choice};
//! use sttgpu::sim::Gpu;
//! use sttgpu::workloads::suite;
//!
//! # fn main() {
//! // Simulate one (scaled-down) workload on the proposed C1 two-part L2.
//! let workload = suite::by_name("bfs").expect("bfs is part of the suite");
//! let small = suite::scaled(&workload, 0.05);
//! let mut gpu = Gpu::new(gpu_config(L2Choice::TwoPartC1));
//! let metrics = gpu.run_workload(&small, 2_000_000);
//! assert!(metrics.finished);
//! assert!(metrics.ipc() > 0.0);
//! # }
//! ```

pub use sttgpu_cache as cache;
pub use sttgpu_core as core;
pub use sttgpu_device as device;
pub use sttgpu_experiments as experiments;
pub use sttgpu_sim as sim;
pub use sttgpu_stats as stats;
pub use sttgpu_workloads as workloads;
