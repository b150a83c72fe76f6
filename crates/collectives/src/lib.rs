//! NCCL-style collective communication schedules for TrioSim-RS.
//!
//! TrioSim "recreates the behavior of the open-sourced NCCL implementation
//! as part of the extrapolation process" (§8.4): instead of tracing
//! communication kernels, it *generates* the sequence of point-to-point
//! transfers a collective performs and hands them to the network model.
//! This crate produces those schedules:
//!
//! * [`ring_all_reduce`] — the ring algorithm the paper describes in §2
//!   (reduce-scatter phase + all-gather phase, `2(n-1)` steps of `B/n`
//!   bytes per rank).
//! * [`tree_all_reduce`], [`halving_doubling_all_reduce`] and
//!   [`ring_all_reduce_unsegmented`] — the alternative AllReduce
//!   algorithms a run can select instead of the ring.
//! * [`ring_all_gather`] — the all-gather half of the ring, which tensor
//!   parallelism emits.
//! * [`GradientBucketizer`] — PyTorch-DDP-style gradient bucketing, which
//!   drives the paper's distributed-data-parallel overlap of AllReduce
//!   with backward propagation.
//!
//! A [`CollectiveSchedule`] is organized in *steps*: all transfers within
//! a step may run concurrently; a step begins only when the previous step
//! has fully completed (the synchronous structure of ring algorithms).
//!
//! # Example
//!
//! ```rust
//! use triosim_collectives::{ring_all_reduce, Rank};
//!
//! let sched = ring_all_reduce(4, 400);
//! assert_eq!(sched.step_count(), 6); // 2 * (4 - 1)
//! // Ring AllReduce moves 2 * (n-1)/n * B bytes per rank.
//! assert_eq!(sched.bytes_sent_by(Rank(0)), 600);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// Collective expansion runs inside every simulation build: production
// code here must degrade through typed errors, never unwrap. Tests are
// exempt.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod bucket;
mod schedule;

pub use bucket::{Bucket, GradientBucketizer};
pub use schedule::{
    halving_doubling_all_reduce, ring_all_gather, ring_all_reduce, ring_all_reduce_unsegmented,
    tree_all_reduce, CollectiveKind, CollectiveSchedule, CommTask, Rank,
};
