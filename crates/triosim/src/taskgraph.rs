//! The extrapolated multi-GPU execution: a task DAG.
//!
//! The trace extrapolator (§4.3) converts the single-GPU trace into
//! per-GPU computation and communication work. We represent the result as
//! an explicit task graph: compute tasks bind to one GPU's (serial)
//! compute stream; transfer tasks go to the network model and may overlap
//! freely with compute — exactly the PyTorch execution model, where NCCL
//! runs on its own stream.
//!
//! Every label lives once, in the graph's label arena: the executor's
//! timeline and the report name tasks by id and share the arena.

use std::fmt::{self, Write as _};
use std::sync::Arc;

use triosim_des::TimeSpan;
use triosim_network::NodeId;

/// Index of a task within its [`TaskGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub usize);

/// What a task does.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskKind {
    /// Run on GPU `gpu`'s compute stream for `duration`.
    Compute {
        /// 0-based GPU index.
        gpu: usize,
        /// Predicted execution time.
        duration: TimeSpan,
    },
    /// Move `bytes` from network node `src` to `dst`.
    Transfer {
        /// Source node.
        src: NodeId,
        /// Destination node.
        dst: NodeId,
        /// Payload size.
        bytes: u64,
    },
    /// A zero-duration synchronization point (collective step barrier).
    Barrier,
}

/// One node of the task DAG. Its label lives in the graph (see
/// [`TaskGraph::label`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    /// The work.
    pub kind: TaskKind,
    /// Tasks that must complete before this one starts.
    pub deps: Vec<TaskId>,
    /// Model layer this task belongs to, when applicable (drives the
    /// per-layer time breakdown of §4.1).
    pub layer: Option<usize>,
}

/// Metadata describing one collective operation lowered into the graph.
///
/// The extrapolator registers one entry per collective it emits; the
/// executor uses the `first`/`last` task ids to reconstruct a single
/// span per collective (tagged with algorithm, payload, and
/// participants) for the observability layer.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectiveMeta {
    /// The label prefix shared by the collective's tasks
    /// (e.g. `ddp.bucket3.allreduce`).
    pub label: String,
    /// Algorithm tag (e.g. `allreduce`, `allgather`, `p2p`).
    pub algorithm: &'static str,
    /// Logical payload size being reduced/gathered, in bytes.
    pub payload_bytes: u64,
    /// Number of participating ranks.
    pub participants: usize,
    /// Number of synchronous communication steps.
    pub steps: usize,
    /// The collective's first transfer task.
    pub first: TaskId,
    /// The collective's final barrier (completion marker).
    pub last: TaskId,
}

/// Every task label of a graph, stored once: the labels back to back in
/// one string, and where each one ends.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Labels {
    text: String,
    ends: Vec<u32>,
}

impl Labels {
    /// Label `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not below the number of labels pushed.
    pub(crate) fn get(&self, i: usize) -> &str {
        let start = i.checked_sub(1).map_or(0, |p| self.ends[p] as usize);
        &self.text[start..self.ends[i] as usize]
    }

    /// Appends `label`, formatting it straight into the arena.
    pub(crate) fn push(&mut self, label: impl fmt::Display) {
        write!(self.text, "{label}").expect("formatting into a String cannot fail");
        let end = u32::try_from(self.text.len()).expect("task labels fit in 4 GiB");
        self.ends.push(end);
    }
}

/// The extrapolated multi-GPU execution plan.
///
/// # Example
///
/// ```rust
/// use triosim::{TaskGraph, TaskKind};
/// use triosim_des::TimeSpan;
///
/// let mut g = TaskGraph::new(2);
/// let a = g.compute("fwd@0", 0, TimeSpan::from_millis(1.0), vec![]);
/// let b = g.compute("fwd@1", 1, TimeSpan::from_millis(1.0), vec![]);
/// let done = g.barrier("sync", vec![a, b]);
/// assert_eq!(g.len(), 3);
/// # let _ = done;
/// ```
#[derive(Debug, Clone, Default)]
pub struct TaskGraph {
    gpus: usize,
    tasks: Vec<Task>,
    /// `tasks[i]`'s label is `labels.get(i)`. Shared with the reports
    /// of runs over this graph, which name tasks by id.
    labels: Arc<Labels>,
    collectives: Vec<CollectiveMeta>,
}

impl TaskGraph {
    /// Creates an empty graph for a `gpus`-GPU execution.
    pub fn new(gpus: usize) -> Self {
        TaskGraph {
            gpus,
            tasks: Vec::new(),
            labels: Arc::default(),
            collectives: Vec::new(),
        }
    }

    /// Number of GPUs the plan targets.
    pub fn gpus(&self) -> usize {
        self.gpus
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True if no tasks were added.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The tasks, indexed by [`TaskId`].
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// The label of task `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a task of this graph.
    pub fn label(&self, id: TaskId) -> &str {
        self.labels.get(id.0)
    }

    /// The label arena, for reports that outlive a borrow of the graph.
    pub(crate) fn labels(&self) -> &Arc<Labels> {
        &self.labels
    }

    /// Adds an arbitrary task labelled `label`. Any [`fmt::Display`]
    /// value works; `format_args!` writes into the label arena without
    /// allocating a `String` per task.
    ///
    /// # Panics
    ///
    /// Panics if a dependency refers to a not-yet-added task (the graph
    /// is built in topological order by construction) or a compute task
    /// names a GPU out of range.
    pub fn push(&mut self, label: impl fmt::Display, task: Task) -> TaskId {
        let id = TaskId(self.tasks.len());
        for d in &task.deps {
            assert!(d.0 < id.0, "dependency {d:?} added after dependent task");
        }
        if let TaskKind::Compute { gpu, .. } = task.kind {
            assert!(gpu < self.gpus, "GPU {gpu} out of range");
        }
        Arc::make_mut(&mut self.labels).push(label);
        self.tasks.push(task);
        id
    }

    /// Adds a compute task.
    pub fn compute(
        &mut self,
        label: impl fmt::Display,
        gpu: usize,
        duration: TimeSpan,
        deps: Vec<TaskId>,
    ) -> TaskId {
        self.push(
            label,
            Task {
                kind: TaskKind::Compute { gpu, duration },
                deps,
                layer: None,
            },
        )
    }

    /// Adds a compute task attributed to a model layer.
    pub fn compute_in_layer(
        &mut self,
        label: impl fmt::Display,
        gpu: usize,
        duration: TimeSpan,
        deps: Vec<TaskId>,
        layer: usize,
    ) -> TaskId {
        self.push(
            label,
            Task {
                kind: TaskKind::Compute { gpu, duration },
                deps,
                layer: Some(layer),
            },
        )
    }

    /// Adds a transfer task.
    pub fn transfer(
        &mut self,
        label: impl fmt::Display,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        deps: Vec<TaskId>,
    ) -> TaskId {
        self.push(
            label,
            Task {
                kind: TaskKind::Transfer { src, dst, bytes },
                deps,
                layer: None,
            },
        )
    }

    /// Adds a zero-cost barrier joining `deps`.
    pub fn barrier(&mut self, label: impl fmt::Display, deps: Vec<TaskId>) -> TaskId {
        self.push(
            label,
            Task {
                kind: TaskKind::Barrier,
                deps,
                layer: None,
            },
        )
    }

    /// Registers collective metadata for a group of already-added tasks.
    ///
    /// # Panics
    ///
    /// Panics if the `first`/`last` task ids are out of range or out of
    /// order — the extrapolator registers a collective only after
    /// emitting all of its tasks.
    pub fn register_collective(&mut self, meta: CollectiveMeta) {
        assert!(
            meta.first <= meta.last && meta.last.0 < self.tasks.len(),
            "collective {:?} references tasks outside the graph",
            meta.label
        );
        self.collectives.push(meta);
    }

    /// Collectives lowered into this graph, in emission order.
    pub fn collectives(&self) -> &[CollectiveMeta] {
        &self.collectives
    }

    /// Total bytes moved by all transfer tasks.
    pub fn total_transfer_bytes(&self) -> u64 {
        self.tasks
            .iter()
            .map(|t| match t.kind {
                TaskKind::Transfer { bytes, .. } => bytes,
                _ => 0,
            })
            .sum()
    }

    /// Total compute time across all GPUs (serial sum, not critical
    /// path).
    pub fn total_compute_time(&self) -> TimeSpan {
        self.tasks
            .iter()
            .map(|t| match t.kind {
                TaskKind::Compute { duration, .. } => duration,
                _ => TimeSpan::ZERO,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_in_topological_order() {
        let mut g = TaskGraph::new(1);
        let a = g.compute("a", 0, TimeSpan::from_millis(1.0), vec![]);
        let b = g.compute("b", 0, TimeSpan::from_millis(1.0), vec![a]);
        assert_eq!(g.tasks()[b.0].deps, vec![a]);
    }

    #[test]
    #[should_panic(expected = "added after dependent")]
    fn forward_dependency_rejected() {
        let mut g = TaskGraph::new(1);
        g.push(
            "bad",
            Task {
                kind: TaskKind::Barrier,
                deps: vec![TaskId(5)],
                layer: None,
            },
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn gpu_bounds_checked() {
        let mut g = TaskGraph::new(2);
        g.compute("x", 2, TimeSpan::ZERO, vec![]);
    }

    #[test]
    fn collective_registry_tracks_bounds() {
        let mut g = TaskGraph::new(2);
        let t = g.transfer("ar.s0.0->1", NodeId(0), NodeId(1), 64, vec![]);
        let b = g.barrier("ar.done", vec![t]);
        g.register_collective(CollectiveMeta {
            label: "ar".into(),
            algorithm: "allreduce",
            payload_bytes: 64,
            participants: 2,
            steps: 1,
            first: t,
            last: b,
        });
        assert_eq!(g.collectives().len(), 1);
        assert_eq!(g.collectives()[0].algorithm, "allreduce");
    }

    #[test]
    #[should_panic(expected = "outside the graph")]
    fn collective_registry_rejects_dangling_ids() {
        let mut g = TaskGraph::new(1);
        g.register_collective(CollectiveMeta {
            label: "bad".into(),
            algorithm: "allreduce",
            payload_bytes: 0,
            participants: 1,
            steps: 0,
            first: TaskId(0),
            last: TaskId(3),
        });
    }

    #[test]
    fn labels_read_back_exactly() {
        let mut g = TaskGraph::new(1);
        let empty = g.barrier("", vec![]);
        let ascii = g.compute("conv1@g0", 0, TimeSpan::ZERO, vec![]);
        let wide = g.barrier("Grüße→τ·🚀", vec![]);
        let (name, gpu) = ("fc", 0);
        let formatted = g.compute(format_args!("{name}@g{gpu}"), 0, TimeSpan::ZERO, vec![]);
        let after_empty = g.barrier("", vec![]);
        assert_eq!(g.label(empty), "");
        assert_eq!(g.label(ascii), "conv1@g0");
        assert_eq!(g.label(wide), "Grüße→τ·🚀");
        assert_eq!(g.label(formatted), "fc@g0");
        assert_eq!(g.label(after_empty), "");
    }

    #[test]
    fn cloned_graphs_keep_their_own_labels() {
        let mut a = TaskGraph::new(1);
        a.barrier("shared", vec![]);
        let mut b = a.clone();
        b.barrier("only-b", vec![]);
        assert_eq!(a.len(), 1);
        assert_eq!(b.label(TaskId(0)), "shared");
        assert_eq!(b.label(TaskId(1)), "only-b");
    }

    #[test]
    fn aggregates() {
        let mut g = TaskGraph::new(2);
        g.compute("a", 0, TimeSpan::from_millis(2.0), vec![]);
        g.transfer("t", NodeId(1), NodeId(2), 100, vec![]);
        g.transfer("t2", NodeId(2), NodeId(1), 50, vec![]);
        assert_eq!(g.total_transfer_bytes(), 150);
        assert_eq!(g.total_compute_time(), TimeSpan::from_millis(2.0));
        assert!(!g.is_empty());
    }
}
