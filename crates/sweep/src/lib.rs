//! Declarative scenario sweeps with a deterministic work-stealing pool.
//!
//! TrioSim's value proposition is sweeping a large design space —
//! parallelism strategy x world size x topology x batch size — cheaply
//! from one single-GPU trace. This crate supplies the two simulator-
//! agnostic halves of that workflow:
//!
//! * a declarative [`SweepSpec`]: either a cartesian `grid` over named
//!   axes, an explicit `scenarios` list, or both, resolved against shared
//!   `defaults` into a deterministic, fully-ordered scenario vector
//!   ([`SweepSpec::expand`]);
//! * a work-stealing execution pool ([`pool::run_ordered`]) that shards
//!   independent scenarios across OS threads and collects results **by
//!   scenario index, not completion order**, so a sweep's aggregated
//!   output is byte-identical across thread counts (including 1).
//!
//! For crash durability the crate also supplies the [`journal`] module:
//! an append-only JSONL file of fsync'd per-scenario results with a
//! spec-hash-guarded header, which the binding layer uses to implement
//! checkpoint/resume (`triosim-cli sweep --journal` / `--resume`).
//!
//! What this crate deliberately does *not* know is how to run a scenario:
//! the `triosim` crate's `sweep` module binds these specs to its
//! `SimBuilder` (sharing the parsed trace and calibrated performance
//! models behind `Arc`), and `triosim-cli sweep` puts a command line on
//! top. Scenario fields here are strings with exactly the CLI's syntax
//! (`"ddp"`, `"p2:4"`, `"ring:A100:8"`); parsing them into simulator
//! types happens at the binding layer, which is also where unknown values
//! are reported — per scenario, with its index and label.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// The sweep layer is the crash-safety boundary: production code here
// must degrade through typed errors, never unwrap.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod journal;
pub mod pool;
mod progress;
mod spec;

pub use journal::{
    read_journal, spec_hash, JournalEntry, JournalError, JournalHeader, JournalLock, JournalWriter,
    ScenarioError,
};
pub use progress::SweepProgress;
pub use spec::{Scenario, ScenarioPatch, SpecError, SweepSpec, MAX_SCENARIOS};
