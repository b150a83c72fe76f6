//! Operator-level trace tooling for TrioSim-RS.
//!
//! The original TrioSim consumes traces collected by a PyTorch-based tracer
//! (PyTorch Profiler + Execution Graph Observer) running on a single
//! physical GPU. This crate replaces that tooling end to end:
//!
//! * [`Trace`] / [`TraceEntry`] / [`TensorTable`] — the trace *format*:
//!   each entry records the operator, its measured execution time, and the
//!   IDs of the tensors it reads and writes; a second table records every
//!   tensor's dimensions and category, exactly as described in §4.2 of the
//!   paper.
//! * [`Tracer`] — walks a `triosim-modelzoo` graph and emits the forward,
//!   backward, and optimizer operators of one training iteration.
//! * [`OracleGpu`] — the *stand-in for physical hardware*: a
//!   high-fidelity roofline model with kernel-launch overhead, utilization
//!   saturation, wave quantization, and deterministic per-kernel jitter.
//!   It stamps "measured" times into traces and serves as ground truth for
//!   every validation experiment (see DESIGN.md §2 for the substitution
//!   argument).
//! * [`GpuSpec`] / [`GpuModel`] — the hardware parameter database (A40,
//!   A100, H100) used both by the oracle and by Li's Model.
//!
//! # Example
//!
//! ```rust
//! use triosim_modelzoo::ModelId;
//! use triosim_trace::{GpuModel, Tracer};
//!
//! let model = ModelId::ResNet18.build(32);
//! let trace = Tracer::new(GpuModel::A100).trace(&model);
//! assert!(trace.entries().len() > 100);
//! assert!(trace.total_time_s() > 0.0);
//! // Round-trip through the on-disk JSON format.
//! let json = trace.to_json().unwrap();
//! let back = triosim_trace::Trace::from_json(&json).unwrap();
//! assert_eq!(back.entries().len(), trace.entries().len());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// Part of the hardened error path: production code in this crate must
// surface typed errors, not unwrap. Tests are exempt.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod format;
mod gpu;
mod hash;
mod oracle;
mod tracer;

pub use format::{
    Phase, TensorCategory, TensorId, TensorRecord, TensorTable, Trace, TraceEntry, TraceError,
};
pub use gpu::{GpuModel, GpuSpec, LinkKind};
pub use hash::SipHasher13;
pub use oracle::OracleGpu;
pub use tracer::Tracer;
