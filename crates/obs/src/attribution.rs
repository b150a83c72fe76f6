//! Virtual-time bottleneck attribution: critical-path analysis and
//! per-GPU time-bucket accounting for simulated runs.
//!
//! The executor feeds one [`IterationObservation`] per completed
//! iteration into an [`AttributionAccumulator`]; at end of run the
//! accumulator folds into a [`BottleneckReport`] answering the question
//! the raw event stream cannot: *why* is this configuration slow?
//!
//! Three analyses run over the same per-task start/finish arrays:
//!
//! 1. **Critical path** — a backward walk from the latest-finishing task
//!    of each iteration. At a task starting at `s`, the walk follows the
//!    dependency that finished exactly at `s` (ties broken toward the
//!    smallest task index), or — when the task was instead gated by its
//!    GPU being busy — the compute task that freed the GPU at `s`. Every
//!    task start in the DES is triggered by an event at exactly that
//!    time, so the chain is contiguous and provably reaches the
//!    iteration start. Zero-duration barriers are walked *through*.
//! 2. **Per-GPU buckets** — each GPU's virtual time is split into
//!    `compute` (GPU busy), `exposed_comm` (a transfer touching this GPU
//!    in flight while the GPU sits idle), and `idle` (neither); the
//!    three sum *exactly* to the run's total virtual time, in integer
//!    ticks, for every GPU. `overlapped_comm` (comm in flight while the
//!    GPU computes) is reported informationally on top.
//! 3. **Stragglers** — GPUs whose cumulative busy time exceeds
//!    [`STRAGGLER_FACTOR`] × the median across GPUs, cross-referenced
//!    with the fault layer's per-GPU `lost_compute_s` attribution when a
//!    fault plan ran.
//!
//! Everything here is a pure function of deterministic virtual-time
//! state: no wall clock, no hashing-order dependence. The resulting
//! [`BottleneckReport`] is part of the canonical report surface and is
//! byte-identical across hosts, thread counts, and observability on/off.

use std::collections::HashMap;

use serde::{Deserialize, Serialize, Value};
use triosim_des::{TimeSpan, VirtualTime};

/// Number of critical ops and hot links retained in a
/// [`BottleneckReport`] (keeps the canonical JSON small and stable).
pub const DEFAULT_TOP_K: usize = 8;

/// A GPU is flagged as a straggler when its busy time exceeds this
/// multiple of the per-GPU median busy time.
pub const STRAGGLER_FACTOR: f64 = 1.25;

/// Static classification of a task for attribution purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskClass {
    /// A kernel on GPU `gpu`'s serial compute stream.
    Compute {
        /// Owning GPU index.
        gpu: usize,
    },
    /// A network transfer; endpoints are mapped to GPU indices when the
    /// node corresponds to a GPU (host/NIC/spine endpoints are `None`).
    Comm {
        /// Source GPU, when the source node is a GPU.
        src_gpu: Option<usize>,
        /// Destination GPU, when the destination node is a GPU.
        dst_gpu: Option<usize>,
    },
    /// A zero-duration synchronization point (barrier).
    Sync,
}

impl TaskClass {
    fn kind_str(self) -> &'static str {
        match self {
            TaskClass::Compute { .. } => "compute",
            TaskClass::Comm { .. } => "comm",
            TaskClass::Sync => "sync",
        }
    }
}

/// Immutable dependency table in CSR form: `deps(t)` is the list of
/// tasks that must finish before task `t` may start.
#[derive(Debug, Clone)]
pub struct DepTable {
    offsets: Vec<u32>,
    edges: Vec<u32>,
}

impl DepTable {
    /// Builds the table from per-task dependency lists.
    pub fn new<I, D>(deps_per_task: I) -> Self
    where
        I: IntoIterator<Item = D>,
        D: IntoIterator<Item = u32>,
    {
        let mut offsets = vec![0u32];
        let mut edges = Vec::new();
        for deps in deps_per_task {
            edges.extend(deps);
            offsets.push(edges.len() as u32);
        }
        DepTable { offsets, edges }
    }

    /// Number of tasks covered by the table.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when the table covers no tasks.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dependencies of task `t`.
    pub fn deps(&self, t: usize) -> &[u32] {
        &self.edges[self.offsets[t] as usize..self.offsets[t + 1] as usize]
    }
}

/// One completed iteration's timing state, borrowed from the executor.
///
/// `start[t]`/`finish[t]` are `None` for tasks that did not execute
/// (possible only on aborted iterations, which are never recorded).
/// `gpu_pred[t]` is the compute task that freed task `t`'s GPU, for
/// compute tasks that had to wait on the serial stream.
#[derive(Debug)]
pub struct IterationObservation<'a> {
    /// Virtual time the iteration began (roots seeded).
    pub begin: VirtualTime,
    /// Virtual time the iteration's last event fired.
    pub end: VirtualTime,
    /// Per-task start times.
    pub start: &'a [Option<VirtualTime>],
    /// Per-task finish times.
    pub finish: &'a [Option<VirtualTime>],
    /// Per-task GPU-stream predecessor (compute tasks only).
    pub gpu_pred: &'a [Option<u32>],
}

/// Integer-tick bucket totals for one GPU (exact; converted to seconds
/// only at report time).
#[derive(Debug, Clone, Copy, Default)]
struct BucketTicks {
    compute: TimeSpan,
    overlapped: TimeSpan,
    exposed: TimeSpan,
    idle: TimeSpan,
    total: TimeSpan,
}

/// One GPU's serialized bucket totals inside an [`AttributionState`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct GpuBucketState {
    /// GPU-busy (compute) ticks.
    pub compute: TimeSpan,
    /// Comm-in-flight-while-computing ticks (informational overlay).
    pub overlapped: TimeSpan,
    /// Comm-in-flight-while-idle ticks.
    pub exposed: TimeSpan,
    /// Neither-compute-nor-comm ticks.
    pub idle: TimeSpan,
    /// Total ticks bucketed for this GPU.
    pub total: TimeSpan,
}

/// One `(task, start, finish)` segment of a serialized critical path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PathSegmentState {
    /// Task index.
    pub task: u32,
    /// Segment start time.
    pub start: VirtualTime,
    /// Segment finish time.
    pub finish: VirtualTime,
}

/// The complete accumulated state of an [`AttributionAccumulator`], in a
/// serializable form for mid-run checkpoints.
///
/// Only *accumulated* totals appear here: the static task structure
/// (labels, classes, dependencies) is a pure function of the simulation
/// spec and is rebuilt from it on restore, and the scratch buffers are
/// per-iteration working memory that is empty at every iteration
/// boundary. All quantities are integer ticks or counts, so a restored
/// accumulator continues to byte-identical final reports.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct AttributionState {
    on_path: Vec<(TimeSpan, u64)>,
    per_gpu: Vec<GpuBucketState>,
    path_total: TimeSpan,
    path_compute: TimeSpan,
    path_comm: TimeSpan,
    iterations: u64,
    last_path: Vec<PathSegmentState>,
}

/// Accumulates per-iteration attribution state across a run.
#[derive(Debug)]
pub struct AttributionAccumulator {
    labels: Vec<String>,
    classes: Vec<TaskClass>,
    deps: DepTable,
    /// Accumulated on-critical-path duration and hit count per task.
    on_path: Vec<(TimeSpan, u64)>,
    per_gpu: Vec<BucketTicks>,
    path_total: TimeSpan,
    path_compute: TimeSpan,
    path_comm: TimeSpan,
    iterations: u64,
    last_path: Vec<(u32, VirtualTime, VirtualTime)>,
    // Scratch buffers reused across iterations.
    scratch_compute: Vec<Vec<(VirtualTime, VirtualTime)>>,
    scratch_comm: Vec<Vec<(VirtualTime, VirtualTime)>>,
}

impl AttributionAccumulator {
    /// Creates an accumulator for `gpus` GPUs over the given static task
    /// structure. `labels`, `classes`, and `deps` must be index-aligned.
    pub fn new(gpus: usize, labels: Vec<String>, classes: Vec<TaskClass>, deps: DepTable) -> Self {
        assert_eq!(labels.len(), classes.len());
        assert_eq!(labels.len(), deps.len());
        let n = labels.len();
        AttributionAccumulator {
            labels,
            classes,
            deps,
            on_path: vec![(TimeSpan::ZERO, 0); n],
            per_gpu: vec![BucketTicks::default(); gpus],
            path_total: TimeSpan::ZERO,
            path_compute: TimeSpan::ZERO,
            path_comm: TimeSpan::ZERO,
            iterations: 0,
            last_path: Vec::new(),
            scratch_compute: vec![Vec::new(); gpus],
            scratch_comm: vec![Vec::new(); gpus],
        }
    }

    /// Number of iterations recorded so far.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// The most recently recorded iteration's critical path, as
    /// `(task, start, finish)` segments in chronological order.
    pub fn last_path(&self) -> &[(u32, VirtualTime, VirtualTime)] {
        &self.last_path
    }

    /// Label of task `t` (for sink emission by the caller).
    pub fn label(&self, t: usize) -> &str {
        &self.labels[t]
    }

    /// Folds one completed iteration into the running totals.
    pub fn record_iteration(&mut self, it: &IterationObservation<'_>) {
        self.iterations += 1;
        self.walk_critical_path(it);
        self.bucket_gpu_time(it);
    }

    /// Folds another accumulator's totals into this one *exactly*.
    ///
    /// Every running total here is an integer (ticks or counts), so the
    /// sums are associative: absorbing accumulators that each recorded
    /// some iterations, in iteration order, yields byte-for-byte the
    /// state recording them all here would have reached. Steady-state
    /// replay absorbs one verified iteration's accumulator per iteration
    /// it synthesizes. `other` must share this accumulator's task
    /// structure (same labels/classes/deps) and its iterations must
    /// chronologically follow this one's — its `last_path` becomes the
    /// merged "most recent" path when it recorded any iterations.
    pub fn absorb(&mut self, other: &AttributionAccumulator) {
        // Replay absorbs once per synthesized iteration: the full label
        // comparison is a debug check, the length check is always on.
        assert_eq!(
            self.labels.len(),
            other.labels.len(),
            "absorbed accumulator must cover the same task graph"
        );
        debug_assert_eq!(self.labels, other.labels);
        for (mine, theirs) in self.on_path.iter_mut().zip(&other.on_path) {
            mine.0 += theirs.0;
            mine.1 += theirs.1;
        }
        for (mine, theirs) in self.per_gpu.iter_mut().zip(&other.per_gpu) {
            mine.compute += theirs.compute;
            mine.overlapped += theirs.overlapped;
            mine.exposed += theirs.exposed;
            mine.idle += theirs.idle;
            mine.total += theirs.total;
        }
        self.path_total += other.path_total;
        self.path_compute += other.path_compute;
        self.path_comm += other.path_comm;
        self.iterations += other.iterations;
        if other.iterations > 0 {
            self.last_path.clear();
            self.last_path.extend_from_slice(&other.last_path);
        }
    }

    /// Moves the most recent critical path `by` later in virtual time,
    /// leaving every total untouched: the path of an iteration that
    /// repeats the recorded one `by` later.
    pub fn shift_last_path(&mut self, by: TimeSpan) {
        for (_, start, finish) in &mut self.last_path {
            *start += by;
            *finish += by;
        }
    }

    /// The accumulated totals as a serializable [`AttributionState`]
    /// (checkpoint support; see the state type's docs for what is — and
    /// deliberately is not — captured).
    pub fn snapshot(&self) -> AttributionState {
        AttributionState {
            on_path: self.on_path.clone(),
            per_gpu: self
                .per_gpu
                .iter()
                .map(|b| GpuBucketState {
                    compute: b.compute,
                    overlapped: b.overlapped,
                    exposed: b.exposed,
                    idle: b.idle,
                    total: b.total,
                })
                .collect(),
            path_total: self.path_total,
            path_compute: self.path_compute,
            path_comm: self.path_comm,
            iterations: self.iterations,
            last_path: self
                .last_path
                .iter()
                .map(|&(task, start, finish)| PathSegmentState {
                    task,
                    start,
                    finish,
                })
                .collect(),
        }
    }

    /// Replaces the accumulated totals with `state` (checkpoint restore
    /// into a freshly constructed accumulator over the same task graph).
    ///
    /// # Errors
    ///
    /// Returns a message naming the mismatched dimension when `state`
    /// does not fit this accumulator's task count or GPU count — a
    /// corrupt or mismatched snapshot must degrade to a typed error, not
    /// an out-of-bounds panic later.
    pub fn restore(&mut self, state: &AttributionState) -> Result<(), String> {
        if state.on_path.len() != self.on_path.len() {
            return Err(format!(
                "attribution state covers {} tasks but the graph has {}",
                state.on_path.len(),
                self.on_path.len()
            ));
        }
        if state.per_gpu.len() != self.per_gpu.len() {
            return Err(format!(
                "attribution state covers {} GPUs but the platform has {}",
                state.per_gpu.len(),
                self.per_gpu.len()
            ));
        }
        if let Some(seg) = state
            .last_path
            .iter()
            .find(|seg| seg.task as usize >= self.labels.len())
        {
            return Err(format!(
                "attribution state path references task {} but the graph has {}",
                seg.task,
                self.labels.len()
            ));
        }
        self.on_path.clone_from(&state.on_path);
        for (mine, theirs) in self.per_gpu.iter_mut().zip(&state.per_gpu) {
            *mine = BucketTicks {
                compute: theirs.compute,
                overlapped: theirs.overlapped,
                exposed: theirs.exposed,
                idle: theirs.idle,
                total: theirs.total,
            };
        }
        self.path_total = state.path_total;
        self.path_compute = state.path_compute;
        self.path_comm = state.path_comm;
        self.iterations = state.iterations;
        self.last_path.clear();
        self.last_path.extend(
            state
                .last_path
                .iter()
                .map(|seg| (seg.task, seg.start, seg.finish)),
        );
        Ok(())
    }

    fn walk_critical_path(&mut self, it: &IterationObservation<'_>) {
        // Sink: the latest-finishing task (ties toward smallest index).
        let mut sink: Option<(usize, VirtualTime)> = None;
        for (t, f) in it.finish.iter().enumerate() {
            if let Some(f) = *f {
                let better = match sink {
                    None => true,
                    Some((_, best)) => f > best,
                };
                if better {
                    sink = Some((t, f));
                }
            }
        }
        let Some((sink, _)) = sink else {
            return; // Empty graph: nothing ran, nothing to attribute.
        };

        self.last_path.clear();
        let mut cur = sink;
        while let (Some(s), Some(f)) = (it.start[cur], it.finish[cur]) {
            self.last_path.push((cur as u32, s, f));
            let seg = f - s;
            self.on_path[cur].0 += seg;
            self.on_path[cur].1 += 1;
            self.path_total += seg;
            match self.classes[cur] {
                TaskClass::Compute { .. } => self.path_compute += seg,
                TaskClass::Comm { .. } => self.path_comm += seg,
                TaskClass::Sync => {}
            }
            if s <= it.begin {
                break;
            }
            // The dependency that released this task: finished exactly
            // at `s`, smallest index wins ties.
            let mut pred: Option<usize> = None;
            for &d in self.deps.deps(cur) {
                let d = d as usize;
                if it.finish[d] == Some(s) && pred.is_none_or(|p| d < p) {
                    pred = Some(d);
                }
            }
            // Otherwise the task was gated by its GPU's serial stream.
            if pred.is_none() {
                if let Some(g) = it.gpu_pred[cur] {
                    if it.finish[g as usize] == Some(s) {
                        pred = Some(g as usize);
                    }
                }
            }
            match pred {
                Some(p) => cur = p,
                None => break,
            }
        }
        self.last_path.reverse();
        debug_assert_eq!(
            self.last_path.first().map(|&(_, s, _)| s),
            Some(it.begin),
            "critical-path walk must reach the iteration start"
        );
    }

    fn bucket_gpu_time(&mut self, it: &IterationObservation<'_>) {
        let span = it.end - it.begin;
        for v in &mut self.scratch_compute {
            v.clear();
        }
        for v in &mut self.scratch_comm {
            v.clear();
        }
        for t in 0..self.classes.len() {
            let (Some(s), Some(f)) = (it.start[t], it.finish[t]) else {
                continue;
            };
            match self.classes[t] {
                TaskClass::Compute { gpu } => self.scratch_compute[gpu].push((s, f)),
                TaskClass::Comm { src_gpu, dst_gpu } => {
                    if let Some(g) = src_gpu {
                        self.scratch_comm[g].push((s, f));
                    }
                    if let Some(g) = dst_gpu {
                        if dst_gpu != src_gpu {
                            self.scratch_comm[g].push((s, f));
                        }
                    }
                }
                TaskClass::Sync => {}
            }
        }
        for g in 0..self.per_gpu.len() {
            let compute = union_in_place(&mut self.scratch_compute[g]);
            let comm = union_in_place(&mut self.scratch_comm[g]);
            let compute_len = total_len(compute);
            let comm_len = total_len(comm);
            let overlapped = intersect_len(compute, comm);
            let exposed = comm_len - overlapped;
            let b = &mut self.per_gpu[g];
            b.compute += compute_len;
            b.overlapped += overlapped;
            b.exposed += exposed;
            b.idle += span - compute_len - exposed;
            b.total += span;
        }
    }

    /// Folds the accumulated state into a [`BottleneckReport`].
    ///
    /// `links` is the network layer's per-link busy accounting (already
    /// converted by the caller); `lost_compute_s` is the fault layer's
    /// per-GPU dilation attribution when a fault plan ran.
    pub fn finish(
        &self,
        mut links: Vec<HotLink>,
        lost_compute_s: Option<&[f64]>,
    ) -> BottleneckReport {
        // Top critical ops: merge per-task path time by label, then rank.
        let mut by_label: HashMap<&str, (TimeSpan, u64, &'static str)> = HashMap::new();
        for (t, &(ticks, count)) in self.on_path.iter().enumerate() {
            if count == 0 || matches!(self.classes[t], TaskClass::Sync) {
                continue;
            }
            let e = by_label.entry(self.labels[t].as_str()).or_insert((
                TimeSpan::ZERO,
                0,
                self.classes[t].kind_str(),
            ));
            e.0 += ticks;
            e.1 += count;
        }
        let mut ops: Vec<(&str, TimeSpan, u64, &'static str)> = by_label
            .into_iter()
            .map(|(l, (t, c, k))| (l, t, c, k))
            .collect();
        ops.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        ops.truncate(DEFAULT_TOP_K);
        let path_total_s = self.path_total.as_seconds();
        let top_ops = ops
            .into_iter()
            .map(|(label, ticks, count, kind)| CriticalOp {
                label: label.to_string(),
                kind,
                seconds: ticks.as_seconds(),
                count,
                share: if path_total_s > 0.0 {
                    ticks.as_seconds() / path_total_s
                } else {
                    0.0
                },
            })
            .collect();

        let per_gpu: Vec<GpuBuckets> = self
            .per_gpu
            .iter()
            .map(|b| GpuBuckets {
                compute_s: b.compute.as_seconds(),
                overlapped_comm_s: b.overlapped.as_seconds(),
                exposed_comm_s: b.exposed.as_seconds(),
                idle_s: b.idle.as_seconds(),
                total_s: b.total.as_seconds(),
            })
            .collect();

        // Stragglers: busy time vs the true median (mean of the middle
        // two for even GPU counts).
        let mut busy: Vec<f64> = per_gpu.iter().map(|b| b.compute_s).collect();
        busy.sort_by(f64::total_cmp);
        let median = match busy.len() {
            0 => 0.0,
            n if n % 2 == 1 => busy[n / 2],
            n => (busy[n / 2 - 1] + busy[n / 2]) / 2.0,
        };
        let mut stragglers = Vec::new();
        if median > 0.0 {
            for (g, b) in per_gpu.iter().enumerate() {
                if b.compute_s > STRAGGLER_FACTOR * median {
                    stragglers.push(Straggler {
                        gpu: g,
                        compute_s: b.compute_s,
                        vs_median: b.compute_s / median,
                        fault_lost_s: lost_compute_s
                            .and_then(|l| l.get(g).copied())
                            .unwrap_or(0.0),
                    });
                }
            }
        }

        links.sort_by(|a, b| {
            b.busy_s
                .total_cmp(&a.busy_s)
                .then_with(|| a.label.cmp(&b.label))
        });
        links.truncate(DEFAULT_TOP_K);

        BottleneckReport {
            iterations: self.iterations,
            critical_path_s: path_total_s,
            path_compute_s: self.path_compute.as_seconds(),
            path_comm_s: self.path_comm.as_seconds(),
            exposed_comm_fraction: if path_total_s > 0.0 {
                self.path_comm.as_seconds() / path_total_s
            } else {
                0.0
            },
            top_ops,
            per_gpu,
            stragglers,
            hottest_links: links,
        }
    }
}

/// One entry in the top-k critical-op ranking.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalOp {
    /// Task label (operator or transfer name).
    pub label: String,
    /// `"compute"` or `"comm"`.
    pub kind: &'static str,
    /// Cumulative time this label spent on the critical path.
    pub seconds: f64,
    /// Number of critical-path appearances across iterations.
    pub count: u64,
    /// `seconds` as a fraction of the total critical-path time.
    pub share: f64,
}

/// Per-GPU virtual-time buckets. `compute_s + exposed_comm_s + idle_s`
/// equals `total_s` exactly; `overlapped_comm_s` counts comm hidden
/// under compute and is not part of the partition.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GpuBuckets {
    /// Time the GPU's compute stream was busy.
    pub compute_s: f64,
    /// Comm touching this GPU while its stream was busy (hidden).
    pub overlapped_comm_s: f64,
    /// Comm touching this GPU while its stream was idle (exposed).
    pub exposed_comm_s: f64,
    /// Time with neither compute nor comm in flight.
    pub idle_s: f64,
    /// Total virtual time of the run.
    pub total_s: f64,
}

/// A GPU flagged as markedly busier than the median.
#[derive(Debug, Clone, PartialEq)]
pub struct Straggler {
    /// GPU index.
    pub gpu: usize,
    /// Its cumulative busy time.
    pub compute_s: f64,
    /// `compute_s` divided by the per-GPU median busy time.
    pub vs_median: f64,
    /// Seconds of that busy time the fault layer attributes to injected
    /// slowdown/jitter dilation (0 when no fault plan ran).
    pub fault_lost_s: f64,
}

/// One network link's busy accounting, ranked in the report.
#[derive(Debug, Clone, PartialEq)]
pub struct HotLink {
    /// Link label (stable, from the network model).
    pub label: String,
    /// Time the link had at least one flow in flight.
    pub busy_s: f64,
    /// Bytes the link carried.
    pub bytes: f64,
    /// `busy_s` as a fraction of the run's total virtual time.
    pub utilization: f64,
}

/// The end-of-run bottleneck attribution: where the virtual time went
/// and which ops/links/GPUs gate it. Deterministic and canonical.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BottleneckReport {
    /// Iterations folded into the report.
    pub iterations: u64,
    /// Total critical-path time across iterations (equals the run's
    /// total virtual time when every iteration's walk completes).
    pub critical_path_s: f64,
    /// Critical-path time spent in compute tasks.
    pub path_compute_s: f64,
    /// Critical-path time spent in comm tasks (exposed by definition —
    /// comm on the path gates the iteration).
    pub path_comm_s: f64,
    /// `path_comm_s / critical_path_s`.
    pub exposed_comm_fraction: f64,
    /// Top-k labels by cumulative critical-path time.
    pub top_ops: Vec<CriticalOp>,
    /// Per-GPU bucket partition of the run's virtual time.
    pub per_gpu: Vec<GpuBuckets>,
    /// GPUs busier than [`STRAGGLER_FACTOR`] × median.
    pub stragglers: Vec<Straggler>,
    /// Top-k links by busy time.
    pub hottest_links: Vec<HotLink>,
}

impl BottleneckReport {
    /// Canonical serde form: fixed key order, virtual-time data only.
    pub fn to_value(&self) -> Value {
        let f = Value::Float;
        let u = Value::UInt;
        Value::Object(vec![
            ("iterations".to_string(), u(self.iterations)),
            ("critical_path_s".to_string(), f(self.critical_path_s)),
            ("path_compute_s".to_string(), f(self.path_compute_s)),
            ("path_comm_s".to_string(), f(self.path_comm_s)),
            (
                "exposed_comm_fraction".to_string(),
                f(self.exposed_comm_fraction),
            ),
            (
                "top_ops".to_string(),
                Value::Array(
                    self.top_ops
                        .iter()
                        .map(|op| {
                            Value::Object(vec![
                                ("label".to_string(), Value::Str(op.label.clone())),
                                ("kind".to_string(), Value::Str(op.kind.to_string())),
                                ("seconds".to_string(), f(op.seconds)),
                                ("count".to_string(), u(op.count)),
                                ("share".to_string(), f(op.share)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "per_gpu".to_string(),
                Value::Array(
                    self.per_gpu
                        .iter()
                        .map(|b| {
                            Value::Object(vec![
                                ("compute_s".to_string(), f(b.compute_s)),
                                ("overlapped_comm_s".to_string(), f(b.overlapped_comm_s)),
                                ("exposed_comm_s".to_string(), f(b.exposed_comm_s)),
                                ("idle_s".to_string(), f(b.idle_s)),
                                ("total_s".to_string(), f(b.total_s)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "stragglers".to_string(),
                Value::Array(
                    self.stragglers
                        .iter()
                        .map(|s| {
                            Value::Object(vec![
                                ("gpu".to_string(), u(s.gpu as u64)),
                                ("compute_s".to_string(), f(s.compute_s)),
                                ("vs_median".to_string(), f(s.vs_median)),
                                ("fault_lost_s".to_string(), f(s.fault_lost_s)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "hottest_links".to_string(),
                Value::Array(
                    self.hottest_links
                        .iter()
                        .map(|l| {
                            Value::Object(vec![
                                ("label".to_string(), Value::Str(l.label.clone())),
                                ("busy_s".to_string(), f(l.busy_s)),
                                ("bytes".to_string(), f(l.bytes)),
                                ("utilization".to_string(), f(l.utilization)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Sorts and merges overlapping intervals in place; returns the merged
/// prefix.
fn union_in_place(v: &mut Vec<(VirtualTime, VirtualTime)>) -> &[(VirtualTime, VirtualTime)] {
    v.sort();
    let mut w = 0;
    for i in 0..v.len() {
        if w == 0 || v[i].0 > v[w - 1].1 {
            v[w] = v[i];
            w += 1;
        } else if v[i].1 > v[w - 1].1 {
            v[w - 1].1 = v[i].1;
        }
    }
    v.truncate(w);
    v
}

fn total_len(v: &[(VirtualTime, VirtualTime)]) -> TimeSpan {
    let mut t = TimeSpan::ZERO;
    for &(s, e) in v {
        t += e - s;
    }
    t
}

/// Intersection length of two sorted, disjoint interval lists.
fn intersect_len(a: &[(VirtualTime, VirtualTime)], b: &[(VirtualTime, VirtualTime)]) -> TimeSpan {
    let (mut i, mut j) = (0, 0);
    let mut t = TimeSpan::ZERO;
    while i < a.len() && j < b.len() {
        let s = a[i].0.max(b[j].0);
        let e = a[i].1.min(b[j].1);
        if e > s {
            t += e - s;
        }
        if a[i].1 <= b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> VirtualTime {
        VirtualTime::from_seconds(s)
    }

    /// Two GPUs: g0 computes [0,2], a transfer g0→g1 runs [2,3], g1
    /// computes [3,4]. Critical path is the whole chain; g1 has 1s of
    /// exposed comm and 2s idle.
    fn chain_accumulator() -> AttributionAccumulator {
        let labels = vec!["a".to_string(), "x".to_string(), "b".to_string()];
        let classes = vec![
            TaskClass::Compute { gpu: 0 },
            TaskClass::Comm {
                src_gpu: Some(0),
                dst_gpu: Some(1),
            },
            TaskClass::Compute { gpu: 1 },
        ];
        let deps = DepTable::new(vec![vec![], vec![0u32], vec![1u32]]);
        AttributionAccumulator::new(2, labels, classes, deps)
    }

    fn chain_observation<'a>(
        start: &'a [Option<VirtualTime>],
        finish: &'a [Option<VirtualTime>],
        gpu_pred: &'a [Option<u32>],
    ) -> IterationObservation<'a> {
        IterationObservation {
            begin: t(0.0),
            end: t(4.0),
            start,
            finish,
            gpu_pred,
        }
    }

    #[test]
    fn critical_path_covers_the_chain() {
        let mut acc = chain_accumulator();
        let start = [Some(t(0.0)), Some(t(2.0)), Some(t(3.0))];
        let finish = [Some(t(2.0)), Some(t(3.0)), Some(t(4.0))];
        let pred = [None, None, None];
        acc.record_iteration(&chain_observation(&start, &finish, &pred));
        let r = acc.finish(Vec::new(), None);
        assert_eq!(r.iterations, 1);
        assert!((r.critical_path_s - 4.0).abs() < 1e-12);
        assert!((r.path_compute_s - 3.0).abs() < 1e-12);
        assert!((r.path_comm_s - 1.0).abs() < 1e-12);
        assert!((r.exposed_comm_fraction - 0.25).abs() < 1e-12);
        assert_eq!(acc.last_path().len(), 3);
        assert_eq!(acc.last_path()[0].0, 0);
        assert_eq!(acc.last_path()[2].0, 2);
    }

    #[test]
    fn absorb_matches_recording_the_iterations_serially() {
        let start = [Some(t(0.0)), Some(t(2.0)), Some(t(3.0))];
        let finish = [Some(t(2.0)), Some(t(3.0)), Some(t(4.0))];
        let pred = [None, None, None];

        // Serial oracle: both iterations into one accumulator.
        let mut serial = chain_accumulator();
        serial.record_iteration(&chain_observation(&start, &finish, &pred));
        serial.record_iteration(&chain_observation(&start, &finish, &pred));

        // Split shape: one iteration each, then absorb in order.
        let mut first = chain_accumulator();
        first.record_iteration(&chain_observation(&start, &finish, &pred));
        let mut second = chain_accumulator();
        second.record_iteration(&chain_observation(&start, &finish, &pred));
        first.absorb(&second);

        assert_eq!(first.iterations(), serial.iterations());
        assert_eq!(first.last_path(), serial.last_path());
        let stringify = |acc: &AttributionAccumulator| {
            serde_json::to_string(&acc.finish(Vec::new(), None).to_value())
                .expect("attribution JSON is finite")
        };
        assert_eq!(stringify(&first), stringify(&serial));

        // Absorbing an empty accumulator changes nothing.
        let snapshot = stringify(&first);
        first.absorb(&chain_accumulator());
        assert_eq!(stringify(&first), snapshot);

        // Shifting moves the path and nothing else.
        let before = second.snapshot();
        second.shift_last_path(TimeSpan::from_seconds(4.0));
        assert_eq!(second.last_path()[0], (0, t(4.0), t(6.0)));
        let after = second.snapshot();
        assert_eq!(
            (after.on_path, after.per_gpu, after.iterations),
            (before.on_path, before.per_gpu, before.iterations)
        );
    }

    #[test]
    fn buckets_partition_each_gpus_time() {
        let mut acc = chain_accumulator();
        let start = [Some(t(0.0)), Some(t(2.0)), Some(t(3.0))];
        let finish = [Some(t(2.0)), Some(t(3.0)), Some(t(4.0))];
        let pred = [None, None, None];
        acc.record_iteration(&chain_observation(&start, &finish, &pred));
        let r = acc.finish(Vec::new(), None);
        let g0 = r.per_gpu[0];
        let g1 = r.per_gpu[1];
        assert!((g0.compute_s - 2.0).abs() < 1e-12);
        assert!((g0.exposed_comm_s - 1.0).abs() < 1e-12);
        assert!((g0.idle_s - 1.0).abs() < 1e-12);
        assert!((g1.compute_s - 1.0).abs() < 1e-12);
        assert!((g1.exposed_comm_s - 1.0).abs() < 1e-12);
        assert!((g1.idle_s - 2.0).abs() < 1e-12);
        for b in [g0, g1] {
            assert!((b.compute_s + b.exposed_comm_s + b.idle_s - b.total_s).abs() < 1e-12);
            assert!((b.total_s - 4.0).abs() < 1e-12);
        }
    }

    #[test]
    fn overlapped_comm_is_hidden_not_exposed() {
        // g0 computes [0,4] while a transfer g0→g1 runs [1,3]: fully
        // overlapped on g0, fully exposed on g1.
        let labels = vec!["a".to_string(), "x".to_string()];
        let classes = vec![
            TaskClass::Compute { gpu: 0 },
            TaskClass::Comm {
                src_gpu: Some(0),
                dst_gpu: Some(1),
            },
        ];
        let deps = DepTable::new(vec![vec![], vec![]]);
        let mut acc = AttributionAccumulator::new(2, labels, classes, deps);
        let start = [Some(t(0.0)), Some(t(1.0))];
        let finish = [Some(t(4.0)), Some(t(3.0))];
        let pred = [None, None];
        acc.record_iteration(&IterationObservation {
            begin: t(0.0),
            end: t(4.0),
            start: &start,
            finish: &finish,
            gpu_pred: &pred,
        });
        let r = acc.finish(Vec::new(), None);
        assert!((r.per_gpu[0].overlapped_comm_s - 2.0).abs() < 1e-12);
        assert!(r.per_gpu[0].exposed_comm_s.abs() < 1e-12);
        assert!((r.per_gpu[1].exposed_comm_s - 2.0).abs() < 1e-12);
        assert!(r.per_gpu[1].overlapped_comm_s.abs() < 1e-12);
    }

    #[test]
    fn gpu_stream_predecessor_links_the_path() {
        // Two independent kernels on one GPU: b waits for the stream,
        // not for a dependency. The walk must pass through a via
        // gpu_pred.
        let labels = vec!["a".to_string(), "b".to_string()];
        let classes = vec![TaskClass::Compute { gpu: 0 }, TaskClass::Compute { gpu: 0 }];
        let deps = DepTable::new(vec![vec![], vec![]]);
        let mut acc = AttributionAccumulator::new(1, labels, classes, deps);
        let start = [Some(t(0.0)), Some(t(2.0))];
        let finish = [Some(t(2.0)), Some(t(5.0))];
        let pred = [None, Some(0)];
        acc.record_iteration(&IterationObservation {
            begin: t(0.0),
            end: t(5.0),
            start: &start,
            finish: &finish,
            gpu_pred: &pred,
        });
        let r = acc.finish(Vec::new(), None);
        assert!((r.critical_path_s - 5.0).abs() < 1e-12);
        assert_eq!(r.top_ops.len(), 2);
        assert_eq!(r.top_ops[0].label, "b");
        assert!((r.top_ops[0].seconds - 3.0).abs() < 1e-12);
    }

    #[test]
    fn straggler_flagged_against_median() {
        // Four GPUs, one 3x slower than the rest.
        let labels: Vec<String> = (0..4).map(|g| format!("k{g}")).collect();
        let classes: Vec<TaskClass> = (0..4).map(|gpu| TaskClass::Compute { gpu }).collect();
        let deps = DepTable::new((0..4).map(|_| Vec::<u32>::new()));
        let mut acc = AttributionAccumulator::new(4, labels, classes, deps);
        let start = [Some(t(0.0)), Some(t(0.0)), Some(t(0.0)), Some(t(0.0))];
        let finish = [Some(t(1.0)), Some(t(1.0)), Some(t(1.0)), Some(t(3.0))];
        let pred = [None, None, None, None];
        acc.record_iteration(&IterationObservation {
            begin: t(0.0),
            end: t(3.0),
            start: &start,
            finish: &finish,
            gpu_pred: &pred,
        });
        let r = acc.finish(Vec::new(), Some(&[0.0, 0.0, 0.0, 2.0]));
        assert_eq!(r.stragglers.len(), 1);
        assert_eq!(r.stragglers[0].gpu, 3);
        assert!((r.stragglers[0].vs_median - 3.0).abs() < 1e-12);
        assert!((r.stragglers[0].fault_lost_s - 2.0).abs() < 1e-12);
    }

    #[test]
    fn balanced_gpus_produce_no_stragglers() {
        let labels: Vec<String> = (0..2).map(|g| format!("k{g}")).collect();
        let classes: Vec<TaskClass> = (0..2).map(|gpu| TaskClass::Compute { gpu }).collect();
        let deps = DepTable::new((0..2).map(|_| Vec::<u32>::new()));
        let mut acc = AttributionAccumulator::new(2, labels, classes, deps);
        let start = [Some(t(0.0)), Some(t(0.0))];
        let finish = [Some(t(1.0)), Some(t(1.0))];
        let pred = [None, None];
        acc.record_iteration(&IterationObservation {
            begin: t(0.0),
            end: t(1.0),
            start: &start,
            finish: &finish,
            gpu_pred: &pred,
        });
        let r = acc.finish(Vec::new(), None);
        assert!(r.stragglers.is_empty());
    }

    #[test]
    fn hot_links_ranked_and_truncated() {
        let acc = chain_accumulator();
        let links: Vec<HotLink> = (0..12)
            .map(|i| HotLink {
                label: format!("l{i:02}"),
                busy_s: i as f64,
                bytes: 0.0,
                utilization: 0.0,
            })
            .collect();
        let r = acc.finish(links, None);
        assert_eq!(r.hottest_links.len(), DEFAULT_TOP_K);
        assert_eq!(r.hottest_links[0].label, "l11");
    }

    #[test]
    fn canonical_value_has_fixed_key_order() {
        let mut acc = chain_accumulator();
        let start = [Some(t(0.0)), Some(t(2.0)), Some(t(3.0))];
        let finish = [Some(t(2.0)), Some(t(3.0)), Some(t(4.0))];
        let pred = [None, None, None];
        acc.record_iteration(&chain_observation(&start, &finish, &pred));
        let v = acc.finish(Vec::new(), None).to_value();
        let Value::Object(fields) = v else {
            panic!("expected object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "iterations",
                "critical_path_s",
                "path_compute_s",
                "path_comm_s",
                "exposed_comm_fraction",
                "top_ops",
                "per_gpu",
                "stragglers",
                "hottest_links",
            ]
        );
    }

    #[test]
    fn multi_iteration_totals_accumulate() {
        let mut acc = chain_accumulator();
        for i in 0..3 {
            let off = 4.0 * i as f64;
            let start = [Some(t(off)), Some(t(off + 2.0)), Some(t(off + 3.0))];
            let finish = [Some(t(off + 2.0)), Some(t(off + 3.0)), Some(t(off + 4.0))];
            let pred = [None, None, None];
            acc.record_iteration(&IterationObservation {
                begin: t(off),
                end: t(off + 4.0),
                start: &start,
                finish: &finish,
                gpu_pred: &pred,
            });
        }
        let r = acc.finish(Vec::new(), None);
        assert_eq!(r.iterations, 3);
        assert!((r.critical_path_s - 12.0).abs() < 1e-12);
        assert_eq!(r.top_ops[0].count, 3);
        assert!((r.per_gpu[0].total_s - 12.0).abs() < 1e-12);
    }
}
