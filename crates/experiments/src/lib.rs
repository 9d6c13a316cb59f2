//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation, plus ablations.
//!
//! Each `figN`/`tableN` module exposes a `compute(..) -> Vec<Row>` function
//! returning structured results and a `render(..) -> String` that prints
//! the same rows/series the paper reports. The [`repro` binary](../repro)
//! drives them all:
//!
//! ```text
//! cargo run --release -p sttgpu-experiments --bin repro -- all
//! cargo run --release -p sttgpu-experiments --bin repro -- fig8 --scale 0.5
//! ```
//!
//! | module | paper artefact |
//! |--------|----------------|
//! | [`table1`] | Table 1 — STT-RAM parameters vs. retention |
//! | [`table2`] | Table 2 — GPGPU-Sim configurations (incl. derived C2/C3 register files) |
//! | [`fig3`]   | Fig. 3 — inter/intra-set write variation (COV) |
//! | [`fig4`]   | Fig. 4 — HR write-threshold analysis |
//! | [`fig5`]   | Fig. 5 — LR associativity analysis |
//! | [`fig6`]   | Fig. 6 — LR rewrite-interval distribution |
//! | [`fig8`]   | Fig. 8 — speedup, dynamic power, total power |
//! | [`ablations`] | beyond-paper design-space studies |
//! | [`adaptive`] | fixed vs. runtime-adaptive LLC policies |
//! | [`faults`]  | fault-injection sweep: error rate vs. IPC/energy/data loss |
//! | [`workload_table`] | measured characterisation of the synthetic suite |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod adaptive;
pub mod canary;
pub mod cli;
pub mod configs;
pub mod error;
pub mod faults;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig8;
pub mod replay;
pub mod report;
pub mod runner;
pub mod table1;
pub mod table2;
pub mod workload_table;

pub use configs::{gpu_config, L2Choice};
pub use error::RunError;
pub use replay::{
    record_workload, render_stats, replay_records, replay_trace_file, run_scenario, scenario_ops,
    Recording, ReplayOutput, ScenarioOutcome, TraceFileRun,
};
pub use runner::{Executor, ExecutorStats, RunOutput, RunPlan, WriteSummary};
