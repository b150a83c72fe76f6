//! # TrioSim-RS
//!
//! A lightweight simulator for large-scale DNN workloads on multi-GPU
//! systems — a from-scratch Rust reproduction of *TrioSim* (Li et al.,
//! ISCA 2025).
//!
//! TrioSim answers one question fast: **how long will one training
//! iteration of a DNN take on a multi-GPU system**, given only an
//! operator-level trace collected on a *single* GPU? It combines:
//!
//! * a **multi-GPU trace extrapolator** ([`extrapolate()`]) that converts
//!   the single-GPU trace into a per-GPU task graph for data parallelism
//!   (standard and DDP-overlapped), tensor parallelism, and GPipe-style
//!   pipeline parallelism, inserting NCCL-style collective transfers;
//! * **Li's Model** (`triosim-perfmodel`) to rescale operator times to
//!   new batch sizes or new GPUs; and
//! * a **lightweight flow-based network model** (`triosim-network`) for
//!   transfer times under latency, bandwidth, and fair sharing.
//!
//! ## Quick start
//!
//! ```rust
//! use triosim::{Parallelism, Platform, SimBuilder};
//! use triosim_modelzoo::ModelId;
//! use triosim_trace::{GpuModel, Tracer};
//!
//! // 1. Trace one training iteration on a single (simulated) GPU.
//! let model = ModelId::ResNet18.build(32);
//! let trace = Tracer::new(GpuModel::A100).trace(&model);
//!
//! // 2. Simulate 4 GPUs with distributed data parallelism.
//! let platform = Platform::p2(4);
//! let report = SimBuilder::new(&trace, &platform)
//!     .parallelism(Parallelism::DataParallel { overlap: true })
//!     .run();
//!
//! assert!(report.total_time_s() > 0.0);
//! assert!(report.comm_time_s() > 0.0);
//! ```
//!
//! ## Ground truth without hardware
//!
//! The paper validates against physical GPU testbeds. This reproduction
//! validates against a *high-fidelity reference simulation* — same task
//! graph, but operator times from the oracle GPU model and transfers
//! through the protocol-aware reference network (see `DESIGN.md` §2).
//! [`SimBuilder::fidelity`] switches between the two; the `triosim-bench`
//! crate's figure binaries run both and report errors the way the paper
//! does.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod checkpoint;
mod compute;
mod error;
mod executor;
mod extrapolate;
mod hop;
mod layers;
mod memory;
mod parallelism;
mod platform;
mod report;
pub mod serve;
mod session;
pub mod sweep;
mod taskgraph;
mod viz;

pub use checkpoint::{remove_stale_staging, validate_snapshot_file, CheckpointError};
pub use compute::{ComputeModel, Fidelity};
pub use error::SimError;
pub use executor::{execute, execute_budgeted_profiled, Observability, RunOptions};
pub use extrapolate::{extrapolate, extrapolate_with_style};
pub use hop::{HopConfig, HopGraph, HopReport, HopSimulator};
pub use layers::{summarize_layers, LayerSummary};
pub use memory::{estimate_memory, MemoryEstimate};
pub use parallelism::{CollectiveStyle, Parallelism};
pub use platform::Platform;
pub use report::{
    FaultStats, Replay, SerialReason, SimReport, Timeline, TimelineRecord, TimelineTrack,
};
// Re-export the bottleneck-attribution and self-profiling vocabulary so
// downstream users analyze runs without naming `triosim-obs` directly.
pub use triosim_obs::{
    BottleneckReport, CriticalOp, GpuBuckets, HotLink, SelfProfile, SelfProfiler, Straggler,
};
// Re-export the fault-plan vocabulary so downstream users configure
// fault injection without naming the `triosim-faults` crate directly.
pub use serve::SweepJobRunner;
pub use session::SimBuilder;
pub use sweep::{
    run_sweep, run_sweep_with, ScenarioError, ScenarioResult, SweepError, SweepOutcome,
    SweepRunConfig,
};
pub use taskgraph::{CollectiveMeta, LabelText, Task, TaskGraph, TaskId, TaskKind};
pub use triosim_faults::{
    FaultKind, FaultPlan, FaultPlanError, FaultSession, GpuDropout, GpuSlowdown, Jitter,
    LinkDegradation, LinkFailure, TimedFault,
};
pub use triosim_sweep::{Scenario, ScenarioPatch, SweepSpec};
pub use viz::render_html_timeline;
