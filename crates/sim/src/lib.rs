//! Cycle-level GPU memory-system simulator.
//!
//! The paper evaluates on GPGPU-Sim 3.2.1 (a PTX-level cycle simulator).
//! Its results, however, are entirely memory-system effects: L2 hit rate,
//! L2 write-service occupancy, and how many resident warps an SM has to
//! hide memory latency with. This crate reproduces exactly that machinery
//! without a PTX front-end:
//!
//! * **SMs** (`sm`) issue instructions from resident warps each cycle;
//!   warps block on outstanding loads and the scheduler rotates through
//!   ready warps — the latency-hiding mechanism real GPUs use;
//! * **occupancy** ([`Occupancy`]) limits resident thread blocks per SM by
//!   register file, shared memory, warp slots and a block cap — the
//!   register-file enlargements of configurations C2/C3 act here;
//! * **L1 data caches** (`l1`) implement the GPU write policy of the
//!   paper's Fig. 1-b (write-evict / write-no-allocate for global data)
//!   with MSHRs;
//! * an **interconnect** (fixed latency) carries misses to a banked,
//!   shared **L2** — any [`sttgpu_core::LlcModel`]: the SRAM baseline, the
//!   uniform STT-RAM baseline or the proposed two-part LLC;
//! * **DRAM** (`mem`) models per-memory-controller bandwidth and a fixed
//!   access latency;
//! * synthetic **warp programs** (`program`) generate instruction and
//!   address streams from workload parameters ([`KernelParams`]) — instruction
//!   mix, write fraction, footprint, write-working-set skew, coalescing,
//!   phase structure.
//!
//! The top-level [`Gpu`] runs a [`Workload`] (a sequence of kernels/grids
//! with a global barrier between them, as CUDA grids have) and reports
//! [`RunMetrics`]: IPC, cache statistics and the L2 energy ledger.
//!
//! Every module is private: the types other crates use are re-exported
//! here, and the SM, L1, interconnect and memory-system internals stay
//! crate-private.
//!
//! # Example
//!
//! ```
//! use sttgpu_sim::{Gpu, GpuConfig, KernelParams, L2ModelConfig, Workload};
//!
//! let mut cfg = GpuConfig::gtx480();
//! cfg.num_sms = 2; // keep the doctest quick
//! cfg.l2 = L2ModelConfig::Sram { kb: 64, ways: 8, banks: 4 };
//!
//! let kernel = KernelParams::new("toy", 8, 128)
//!     .with_instructions(200)
//!     .with_mem_fraction(0.2);
//! let workload = Workload::new("toy", vec![kernel], 42);
//!
//! let mut gpu = Gpu::new(cfg);
//! let metrics = gpu.run_workload(&workload, 1_000_000);
//! assert!(metrics.finished);
//! assert!(metrics.ipc() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod gpu;
mod icnt;
mod kernel;
mod l1;
mod mem;
mod metrics;
mod occupancy;
mod program;
mod ready;
mod sm;
mod warp;

pub use config::{GpuConfig, L2ModelConfig, WarpScheduler};
pub use gpu::Gpu;
pub use kernel::{KernelParams, Workload, WritePhase};
pub use metrics::{KernelSpan, RunMetrics};
pub use occupancy::{Occupancy, OccupancyLimit};
