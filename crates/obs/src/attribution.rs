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

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};

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

/// Index of a task within its task graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub usize);

/// Every task's dependencies in one flat table, appended task by task:
/// task `t`'s are `edges[ends[t - 1]..ends[t]]` (from 0 for task 0), in
/// the order they were given, each a 4-byte task index. A task graph
/// owns the only copy; the executor and the critical-path walk read it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DepTable {
    ends: Vec<u32>,
    edges: Vec<u32>,
}

impl DepTable {
    /// An empty table that fills `ends` and `edges`, keeping their
    /// capacity: a caller that reuses buffers from run to run passes back
    /// what [`into_buffers`](Self::into_buffers) returned. Both are
    /// cleared here, whatever the caller passes, because a table that
    /// starts with stale entries would give later tasks wrong
    /// dependencies.
    pub fn from_buffers(mut ends: Vec<u32>, mut edges: Vec<u32>) -> Self {
        ends.clear();
        edges.clear();
        DepTable { ends, edges }
    }

    /// The table's buffers, `(ends, edges)`, for reuse.
    pub fn into_buffers(self) -> (Vec<u32>, Vec<u32>) {
        (self.ends, self.edges)
    }

    /// Appends the next task's dependencies.
    ///
    /// # Panics
    ///
    /// Panics if a dependency's id or the table's edge count would
    /// exceed `u32::MAX`.
    pub fn push(&mut self, deps: impl IntoIterator<Item = TaskId>) {
        let index = |d: TaskId| u32::try_from(d.0).expect("task ids fit in u32");
        self.edges.extend(deps.into_iter().map(index));
        let end = u32::try_from(self.edges.len()).expect("dependency edges fit in u32");
        self.ends.push(end);
    }

    /// Number of tasks covered by the table.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when the table covers no tasks.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Dependencies of task `t`, in insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not below [`len`](Self::len).
    pub fn deps(&self, t: usize) -> impl ExactSizeIterator<Item = TaskId> + '_ {
        let start = t.checked_sub(1).map_or(0, |p| self.ends[p] as usize);
        self.edges[start..self.ends[t] as usize]
            .iter()
            .map(|&d| TaskId(d as usize))
    }

    /// Every task's dependencies, task after task.
    pub fn edges(&self) -> impl ExactSizeIterator<Item = TaskId> + '_ {
        self.edges.iter().map(|&d| TaskId(d as usize))
    }
}

/// The start or finish time of a task that has not run (yet) in an
/// [`IterationObservation`]. A clock whose additions are checked reaches
/// it only by landing on it exactly, which no simulated instant does.
pub const NOT_RUN: VirtualTime = VirtualTime::MAX;

/// The GPU-stream predecessor of a task that has none, in an
/// [`IterationObservation`].
pub const NO_TASK: u32 = u32::MAX;

/// One completed iteration's timing state, borrowed from the executor.
///
/// `start[t]`/`finish[t]` are [`NOT_RUN`] for tasks that did not execute
/// (possible only on aborted iterations, which are never recorded).
/// `gpu_pred[t]` is the compute task that freed task `t`'s GPU, for
/// compute tasks that had to wait on the serial stream, else
/// [`NO_TASK`]. The dependency table is the graph's own, borrowed.
#[derive(Debug)]
pub struct IterationObservation<'a> {
    /// The graph's dependency table.
    pub deps: &'a DepTable,
    /// Virtual time the iteration began (roots seeded).
    pub begin: VirtualTime,
    /// Virtual time the iteration's last event fired.
    pub end: VirtualTime,
    /// Per-task start times.
    pub start: &'a [VirtualTime],
    /// Per-task finish times.
    pub finish: &'a [VirtualTime],
    /// Per-task GPU-stream predecessor (compute tasks only).
    pub gpu_pred: &'a [u32],
}

impl IterationObservation<'_> {
    /// Task `t`'s `(start, finish)`, when it ran.
    fn span(&self, t: usize) -> Option<(VirtualTime, VirtualTime)> {
        let (s, f) = (self.start[t], self.finish[t]);
        (s != NOT_RUN && f != NOT_RUN).then_some((s, f))
    }
}

/// Integer-tick bucket totals for one GPU (exact; converted to seconds
/// only at report time).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
struct BucketTicks {
    compute: TimeSpan,
    overlapped: TimeSpan,
    exposed: TimeSpan,
    idle: TimeSpan,
    total: TimeSpan,
}

/// The accumulated totals of an [`AttributionAccumulator`], in the form
/// the accumulator keeps them and a mid-run checkpoint stores them.
///
/// Only *accumulated* totals appear here: the static task structure
/// (classes, dependencies) is the graph's, which the accumulator only
/// borrows. All quantities are integer ticks or counts, so a restored
/// accumulator continues to byte-identical final reports.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct AttributionState {
    /// Accumulated on-critical-path duration and hit count of each task
    /// that has been on a path, by task: a path holds a small share of
    /// the tasks, so this stays far smaller than a per-task table.
    on_path: BTreeMap<u32, (TimeSpan, u64)>,
    per_gpu: Vec<BucketTicks>,
    path_total: TimeSpan,
    path_compute: TimeSpan,
    path_comm: TimeSpan,
    iterations: u64,
    /// The most recent iteration's critical path, as `(task, start,
    /// finish)` segments in chronological order.
    last_path: Vec<(u32, VirtualTime, VirtualTime)>,
}

/// Accumulates per-iteration attribution state across a run.
///
/// It owns no task structure: [`record_iteration`](Self::record_iteration)
/// and [`finish`](Self::finish) borrow the graph's dependencies and
/// labels from the caller, which already stores them, and classify each
/// task through the caller's function. Two accumulators are equal when
/// every total and the last path are.
#[derive(Debug, PartialEq)]
pub struct AttributionAccumulator {
    /// Tasks in the graph.
    tasks: usize,
    totals: AttributionState,
}

impl AttributionAccumulator {
    /// Creates an empty accumulator for `tasks` tasks on `gpus` GPUs.
    pub fn new(gpus: usize, tasks: usize) -> Self {
        AttributionAccumulator {
            tasks,
            totals: AttributionState {
                per_gpu: vec![BucketTicks::default(); gpus],
                ..AttributionState::default()
            },
        }
    }

    /// Number of iterations recorded so far.
    pub fn iterations(&self) -> u64 {
        self.totals.iterations
    }

    /// The most recently recorded iteration's critical path, as
    /// `(task, start, finish)` segments in chronological order.
    pub fn last_path(&self) -> &[(u32, VirtualTime, VirtualTime)] {
        &self.totals.last_path
    }

    /// Folds one completed iteration into the running totals; `class(t)`
    /// classifies task `t`.
    ///
    /// # Panics
    ///
    /// Panics if `it` does not cover this accumulator's task count.
    pub fn record_iteration(
        &mut self,
        it: &IterationObservation<'_>,
        class: impl Fn(usize) -> TaskClass,
    ) {
        let n = self.tasks;
        assert!(
            it.deps.len() == n
                && it.start.len() == n
                && it.finish.len() == n
                && it.gpu_pred.len() == n,
            "observation must cover the accumulator's {n} tasks"
        );
        self.totals.iterations += 1;
        self.walk_critical_path(it, &class);
        self.bucket_gpu_time(it, &class);
    }

    /// Folds `times` repeats of another accumulator's totals into this
    /// one *exactly*.
    ///
    /// Every running total here is an integer (ticks or counts), so the
    /// sums are associative: absorbing accumulators that each recorded
    /// some iterations, in iteration order, yields byte-for-byte the
    /// state recording them all here would have reached, and `times`
    /// repeats scale each total by `times`. Steady-state replay absorbs
    /// the verified iteration's accumulator once per stretch of
    /// iterations it synthesizes. `other` must have recorded iterations
    /// of the same task graph, chronologically after this one's — its
    /// `last_path`, which the caller places at the last repeat, becomes
    /// the merged "most recent" path when it recorded any.
    pub fn absorb(&mut self, other: &AttributionAccumulator, times: u64) {
        assert_eq!(
            self.tasks, other.tasks,
            "absorbed accumulator must cover the same task graph"
        );
        if times == 0 {
            return;
        }
        let (mine, theirs) = (&mut self.totals, &other.totals);
        for (&t, &(ticks, count)) in &theirs.on_path {
            let on_path = mine.on_path.entry(t).or_default();
            on_path.0 += ticks * times;
            on_path.1 += count * times;
        }
        for (m, t) in mine.per_gpu.iter_mut().zip(&theirs.per_gpu) {
            m.compute += t.compute * times;
            m.overlapped += t.overlapped * times;
            m.exposed += t.exposed * times;
            m.idle += t.idle * times;
            m.total += t.total * times;
        }
        mine.path_total += theirs.path_total * times;
        mine.path_compute += theirs.path_compute * times;
        mine.path_comm += theirs.path_comm * times;
        mine.iterations += theirs.iterations * times;
        if theirs.iterations > 0 {
            mine.last_path.clone_from(&theirs.last_path);
        }
    }

    /// Moves the most recent critical path `by` later in virtual time,
    /// leaving every total untouched: the path of an iteration that
    /// repeats the recorded one `by` later.
    pub fn shift_last_path(&mut self, by: TimeSpan) {
        for (_, start, finish) in &mut self.totals.last_path {
            *start += by;
            *finish += by;
        }
    }

    /// The accumulated totals, for a mid-run checkpoint.
    pub fn snapshot(&self) -> AttributionState {
        self.totals.clone()
    }

    /// Replaces the accumulated totals with `state` (checkpoint restore
    /// into a freshly constructed accumulator over the same task graph).
    ///
    /// # Errors
    ///
    /// Returns a message naming the mismatch when `state` does not fit
    /// this accumulator's GPU count or names a task past its task count —
    /// a corrupt or mismatched snapshot must degrade to a typed error,
    /// not an out-of-bounds panic later.
    pub fn restore(&mut self, state: AttributionState) -> Result<(), String> {
        if state.per_gpu.len() != self.totals.per_gpu.len() {
            return Err(format!(
                "attribution state covers {} GPUs but the platform has {}",
                state.per_gpu.len(),
                self.totals.per_gpu.len()
            ));
        }
        let on_path = state.on_path.keys().copied();
        let path = state.last_path.iter().map(|&(task, _, _)| task);
        if let Some(task) = on_path.chain(path).find(|&t| t as usize >= self.tasks) {
            return Err(format!(
                "attribution state references task {task} but the graph has {}",
                self.tasks
            ));
        }
        self.totals = state;
        Ok(())
    }

    fn walk_critical_path(
        &mut self,
        it: &IterationObservation<'_>,
        class: &impl Fn(usize) -> TaskClass,
    ) {
        // Sink: the latest-finishing task (ties toward smallest index).
        let mut sink: Option<(usize, VirtualTime)> = None;
        for (t, &f) in it.finish.iter().enumerate() {
            if f != NOT_RUN && sink.is_none_or(|(_, best)| f > best) {
                sink = Some((t, f));
            }
        }
        let Some((sink, _)) = sink else {
            return; // Empty graph: nothing ran, nothing to attribute.
        };

        let t = &mut self.totals;
        t.last_path.clear();
        let mut cur = sink;
        while let Some((s, f)) = it.span(cur) {
            t.last_path.push((cur as u32, s, f));
            let seg = f - s;
            let on_path = t.on_path.entry(cur as u32).or_default();
            on_path.0 += seg;
            on_path.1 += 1;
            t.path_total += seg;
            match class(cur) {
                TaskClass::Compute { .. } => t.path_compute += seg,
                TaskClass::Comm { .. } => t.path_comm += seg,
                TaskClass::Sync => {}
            }
            if s <= it.begin {
                break;
            }
            // The dependency that released this task: finished exactly
            // at `s` (never `NOT_RUN`: `s` is a real instant), smallest
            // index wins ties.
            let mut pred: Option<usize> = None;
            for TaskId(d) in it.deps.deps(cur) {
                if it.finish[d] == s && pred.is_none_or(|p| d < p) {
                    pred = Some(d);
                }
            }
            // Otherwise the task was gated by its GPU's serial stream.
            if pred.is_none() {
                let g = it.gpu_pred[cur];
                if g != NO_TASK && it.finish[g as usize] == s {
                    pred = Some(g as usize);
                }
            }
            match pred {
                Some(p) => cur = p,
                None => break,
            }
        }
        t.last_path.reverse();
        debug_assert_eq!(
            t.last_path.first().map(|&(_, s, _)| s),
            Some(it.begin),
            "critical-path walk must reach the iteration start"
        );
    }

    fn bucket_gpu_time(
        &mut self,
        it: &IterationObservation<'_>,
        class: &impl Fn(usize) -> TaskClass,
    ) {
        let span = it.end - it.begin;
        // Each GPU's compute (list 0) and comm (list 1) intervals, in
        // buffers counted to their exact size first and freed on return.
        let mut counts = vec![[0usize; 2]; self.totals.per_gpu.len()];
        gpu_intervals(it, class, |g, list, _| counts[g][list] += 1);
        let mut lists: Vec<[Vec<(VirtualTime, VirtualTime)>; 2]> = counts
            .iter()
            .map(|&[compute, comm]| [Vec::with_capacity(compute), Vec::with_capacity(comm)])
            .collect();
        gpu_intervals(it, class, |g, list, iv| lists[g][list].push(iv));
        for (b, [compute, comm]) in self.totals.per_gpu.iter_mut().zip(&mut lists) {
            merge_intervals(compute);
            merge_intervals(comm);
            let compute_len = total_len(compute);
            let comm_len = total_len(comm);
            let overlapped = intersect_len(compute, comm);
            let exposed = comm_len - overlapped;
            b.compute += compute_len;
            b.overlapped += overlapped;
            b.exposed += exposed;
            b.idle += span - compute_len - exposed;
            b.total += span;
        }
    }

    /// Folds the accumulated state into a [`BottleneckReport`].
    ///
    /// `label(t)` names task `t` and `class(t)` classifies it, as in the
    /// recorded iterations; `links` is the network layer's per-link
    /// busy accounting (already converted by the caller);
    /// `lost_compute_s` is the fault layer's per-GPU dilation attribution
    /// when a fault plan ran.
    pub fn finish<'l>(
        &self,
        label: impl Fn(usize) -> &'l str,
        class: impl Fn(usize) -> TaskClass,
        mut links: Vec<HotLink>,
        lost_compute_s: Option<&[f64]>,
    ) -> BottleneckReport {
        let path_total_s = self.totals.path_total.as_seconds();
        let top_ops = top_ops(&self.totals.on_path, label, class)
            .into_iter()
            .map(|op| CriticalOp {
                label: op.label.to_string(),
                kind: op.kind,
                seconds: op.ticks.as_seconds(),
                count: op.count,
                share: if path_total_s > 0.0 {
                    op.ticks.as_seconds() / path_total_s
                } else {
                    0.0
                },
            })
            .collect();

        let per_gpu: Vec<GpuBuckets> = self
            .totals
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
            iterations: self.totals.iterations,
            critical_path_s: path_total_s,
            path_compute_s: self.totals.path_compute.as_seconds(),
            path_comm_s: self.totals.path_comm.as_seconds(),
            exposed_comm_fraction: if path_total_s > 0.0 {
                self.totals.path_comm.as_seconds() / path_total_s
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

/// One label's critical-path totals, before ranking.
#[derive(Debug, Clone, Copy, PartialEq)]
struct LabelTotal<'l> {
    label: &'l str,
    ticks: TimeSpan,
    count: u64,
    kind: &'static str,
}

impl LabelTotal<'_> {
    /// Rank order: more critical-path time first, then by label.
    fn rank(&self, other: &Self) -> std::cmp::Ordering {
        other
            .ticks
            .cmp(&self.ticks)
            .then_with(|| self.label.cmp(other.label))
    }
}

/// The [`DEFAULT_TOP_K`] labels with the most critical-path time, in rank
/// order, from each task's `(ticks, count)` on the path. Tasks sharing a
/// label merge into one entry, whose kind is its lowest-indexed task's;
/// barriers never rank.
fn top_ops<'l>(
    on_path: &BTreeMap<u32, (TimeSpan, u64)>,
    label: impl Fn(usize) -> &'l str,
    class: impl Fn(usize) -> TaskClass,
) -> Vec<LabelTotal<'l>> {
    // Group by label in ascending task order, so a label's first task
    // is its lowest-indexed one and gives the kind.
    let mut slots: HashMap<&'l str, usize> = HashMap::with_capacity(on_path.len());
    let mut totals: Vec<LabelTotal<'l>> = Vec::with_capacity(on_path.len());
    for (&t, &(ticks, count)) in on_path {
        let t = t as usize;
        if count == 0 || matches!(class(t), TaskClass::Sync) {
            continue;
        }
        let label = label(t);
        match slots.entry(label) {
            Entry::Occupied(slot) => {
                let total = &mut totals[*slot.get()];
                total.ticks += ticks;
                total.count += count;
            }
            Entry::Vacant(slot) => {
                slot.insert(totals.len());
                totals.push(LabelTotal {
                    label,
                    ticks,
                    count,
                    kind: class(t).kind_str(),
                });
            }
        }
    }
    // Labels are unique now, so the rank order is total: selecting the
    // top k and sorting only those matches a full sort's first k.
    if totals.len() > DEFAULT_TOP_K {
        totals.select_nth_unstable_by(DEFAULT_TOP_K - 1, LabelTotal::rank);
        totals.truncate(DEFAULT_TOP_K);
    }
    totals.sort_unstable_by(LabelTotal::rank);
    totals
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

/// Calls `visit(gpu, list, interval)` for each interval a task that ran
/// in `it` puts on a GPU: list 0 holds a GPU's compute, list 1 the
/// transfers touching it (once, even when it is both ends).
fn gpu_intervals(
    it: &IterationObservation<'_>,
    class: &impl Fn(usize) -> TaskClass,
    mut visit: impl FnMut(usize, usize, (VirtualTime, VirtualTime)),
) {
    for t in 0..it.finish.len() {
        let Some(iv) = it.span(t) else {
            continue;
        };
        match class(t) {
            TaskClass::Compute { gpu } => visit(gpu, 0, iv),
            TaskClass::Comm { src_gpu, dst_gpu } => {
                if let Some(g) = src_gpu {
                    visit(g, 1, iv);
                }
                if let Some(g) = dst_gpu {
                    if dst_gpu != src_gpu {
                        visit(g, 1, iv);
                    }
                }
            }
            TaskClass::Sync => {}
        }
    }
}

/// Replaces intervals with their union in place: sorted, disjoint, with
/// overlapping and touching intervals coalesced. The union is
/// associative and idempotent, so merging a list that already holds a
/// merged union (as checkpoints store it) changes no derived length.
pub fn merge_intervals(v: &mut Vec<(VirtualTime, VirtualTime)>) {
    v.sort_unstable();
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
}

/// The summed length of `v`'s intervals (their union's length once
/// [`merge_intervals`] has run).
pub fn total_len(v: &[(VirtualTime, VirtualTime)]) -> TimeSpan {
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

    /// A task graph's structure, as the executor lends it.
    struct Graph {
        classes: Vec<TaskClass>,
        deps: DepTable,
    }

    impl Graph {
        fn new(classes: Vec<TaskClass>, deps: Vec<Vec<usize>>) -> Self {
            let mut table = DepTable::default();
            for d in deps {
                table.push(d.into_iter().map(TaskId));
            }
            Graph {
                classes,
                deps: table,
            }
        }

        fn accumulator(&self, gpus: usize) -> AttributionAccumulator {
            AttributionAccumulator::new(gpus, self.classes.len())
        }

        fn class(&self) -> impl Fn(usize) -> TaskClass + '_ {
            |t| self.classes[t]
        }

        /// Records one iteration over `(begin, end)` into `acc`.
        fn record(
            &self,
            acc: &mut AttributionAccumulator,
            (begin, end): (f64, f64),
            start: &[VirtualTime],
            finish: &[VirtualTime],
            gpu_pred: &[u32],
        ) {
            let it = IterationObservation {
                deps: &self.deps,
                begin: t(begin),
                end: t(end),
                start,
                finish,
                gpu_pred,
            };
            acc.record_iteration(&it, self.class());
        }
    }

    /// Two GPUs: g0 computes [0,2], a transfer g0→g1 runs [2,3], g1
    /// computes [3,4]. Critical path is the whole chain; g1 has 1s of
    /// exposed comm and 2s idle.
    fn chain() -> Graph {
        let classes = vec![
            TaskClass::Compute { gpu: 0 },
            TaskClass::Comm {
                src_gpu: Some(0),
                dst_gpu: Some(1),
            },
            TaskClass::Compute { gpu: 1 },
        ];
        Graph::new(classes, vec![vec![], vec![0], vec![1]])
    }

    /// The chain's task labels.
    fn chain_label(t: usize) -> &'static str {
        ["a", "x", "b"][t]
    }

    /// Records the chain's one iteration into `acc`.
    fn record_chain(g: &Graph, acc: &mut AttributionAccumulator) {
        let start = [t(0.0), t(2.0), t(3.0)];
        let finish = [t(2.0), t(3.0), t(4.0)];
        g.record(acc, (0.0, 4.0), &start, &finish, &[NO_TASK; 3]);
    }

    #[test]
    fn dep_table_reads_back_each_task_in_insertion_order() {
        let lists = vec![
            vec![],
            vec![TaskId(0)],
            vec![],
            vec![TaskId(2), TaskId(0), TaskId(1)],
        ];
        let mut table = DepTable::default();
        for list in &lists {
            table.push(list.iter().copied());
        }
        assert_eq!(table.len(), 4);
        for (i, list) in lists.iter().enumerate() {
            assert_eq!(table.deps(i).len(), list.len());
            assert!(table.deps(i).eq(list.iter().copied()));
        }
        let edges = [TaskId(0), TaskId(2), TaskId(0), TaskId(1)];
        assert!(table.edges().eq(edges));
        assert!(DepTable::default().is_empty());
    }

    #[test]
    fn critical_path_covers_the_chain() {
        let g = chain();
        let mut acc = g.accumulator(2);
        record_chain(&g, &mut acc);
        let r = acc.finish(chain_label, g.class(), Vec::new(), None);
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
        let g = chain();

        // Serial oracle: both iterations into one accumulator.
        let mut serial = g.accumulator(2);
        record_chain(&g, &mut serial);
        record_chain(&g, &mut serial);

        // Split shape: one iteration each, then absorb in order.
        let mut first = g.accumulator(2);
        record_chain(&g, &mut first);
        let mut second = g.accumulator(2);
        record_chain(&g, &mut second);
        first.absorb(&second, 1);

        assert_eq!(first.iterations(), serial.iterations());
        assert_eq!(first.last_path(), serial.last_path());
        let stringify = |acc: &AttributionAccumulator| {
            serde_json::to_string(
                &acc.finish(chain_label, g.class(), Vec::new(), None)
                    .to_value(),
            )
            .expect("attribution JSON is finite")
        };
        assert_eq!(stringify(&first), stringify(&serial));

        // Absorbing an empty accumulator, or no repeats, changes nothing.
        let snapshot = stringify(&first);
        first.absorb(&g.accumulator(2), 1);
        first.absorb(&second, 0);
        assert_eq!(stringify(&first), snapshot);

        // Three repeats at once are three iterations recorded serially.
        record_chain(&g, &mut serial);
        record_chain(&g, &mut serial);
        record_chain(&g, &mut serial);
        first.absorb(&second, 3);
        assert_eq!(first.iterations(), 5);
        assert_eq!(first, serial);

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
    fn snapshots_restore_to_an_equal_accumulator() {
        // g0 computes [0,4] while a transfer runs [1,3]: only the compute
        // task is on the path.
        let classes = vec![
            TaskClass::Compute { gpu: 0 },
            TaskClass::Comm {
                src_gpu: Some(0),
                dst_gpu: Some(1),
            },
        ];
        let g = Graph::new(classes, vec![vec![], vec![]]);
        let record = |acc: &mut AttributionAccumulator| {
            let (start, finish) = ([t(0.0), t(1.0)], [t(4.0), t(3.0)]);
            g.record(acc, (0.0, 4.0), &start, &finish, &[NO_TASK; 2]);
        };
        let mut acc = g.accumulator(2);
        record(&mut acc);
        let state = acc.snapshot();
        assert_eq!(
            state.on_path.keys().collect::<Vec<_>>(),
            [&0],
            "sparse: the transfer was never on the path"
        );
        let mut restored = g.accumulator(2);
        restored.restore(state.clone()).expect("same graph");
        assert_eq!(restored, acc);
        assert_eq!(restored.snapshot(), state);
        // A state naming a task the graph lacks, or another GPU count,
        // is refused.
        let err = AttributionAccumulator::new(2, 0)
            .restore(state.clone())
            .expect_err("task 0 is past an empty graph");
        assert!(err.contains("task 0"), "{err}");
        assert!(AttributionAccumulator::new(3, 2).restore(state).is_err());
        // Both go on identically.
        record(&mut acc);
        record(&mut restored);
        assert_eq!(restored, acc);
    }

    #[test]
    fn union_of_disjoint_intervals() {
        let mut v = vec![(t(2.0), t(3.0)), (t(0.0), t(1.0))];
        merge_intervals(&mut v);
        assert_eq!(v, [(t(0.0), t(1.0)), (t(2.0), t(3.0))]);
        assert_eq!(total_len(&v), TimeSpan::from_seconds(2.0));
    }

    #[test]
    fn union_of_overlapping_intervals() {
        let mut v = vec![(t(0.0), t(2.0)), (t(1.0), t(3.0)), (t(2.5), t(2.8))];
        merge_intervals(&mut v);
        assert_eq!(v, [(t(0.0), t(3.0))]);
        assert_eq!(total_len(&v), TimeSpan::from_seconds(3.0));
    }

    #[test]
    fn union_of_nothing_is_zero() {
        let mut v = Vec::new();
        merge_intervals(&mut v);
        assert_eq!(total_len(&v), TimeSpan::ZERO);
    }

    #[test]
    fn buckets_partition_each_gpus_time() {
        let g = chain();
        let mut acc = g.accumulator(2);
        record_chain(&g, &mut acc);
        let r = acc.finish(chain_label, g.class(), Vec::new(), None);
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
        let classes = vec![
            TaskClass::Compute { gpu: 0 },
            TaskClass::Comm {
                src_gpu: Some(0),
                dst_gpu: Some(1),
            },
        ];
        let g = Graph::new(classes, vec![vec![], vec![]]);
        let mut acc = g.accumulator(2);
        let start = [t(0.0), t(1.0)];
        let finish = [t(4.0), t(3.0)];
        g.record(&mut acc, (0.0, 4.0), &start, &finish, &[NO_TASK; 2]);
        let r = acc.finish(chain_label, g.class(), Vec::new(), None);
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
        let classes = vec![TaskClass::Compute { gpu: 0 }, TaskClass::Compute { gpu: 0 }];
        let g = Graph::new(classes, vec![vec![], vec![]]);
        let mut acc = g.accumulator(1);
        let start = [t(0.0), t(2.0)];
        let finish = [t(2.0), t(5.0)];
        g.record(&mut acc, (0.0, 5.0), &start, &finish, &[NO_TASK, 0]);
        let r = acc.finish(|t| ["a", "b"][t], g.class(), Vec::new(), None);
        assert!((r.critical_path_s - 5.0).abs() < 1e-12);
        assert_eq!(r.top_ops.len(), 2);
        assert_eq!(r.top_ops[0].label, "b");
        assert!((r.top_ops[0].seconds - 3.0).abs() < 1e-12);
    }

    #[test]
    fn straggler_flagged_against_median() {
        // Four GPUs, one 3x slower than the rest.
        let classes: Vec<TaskClass> = (0..4).map(|gpu| TaskClass::Compute { gpu }).collect();
        let g = Graph::new(classes, vec![vec![]; 4]);
        let mut acc = g.accumulator(4);
        let start = [t(0.0); 4];
        let finish = [t(1.0), t(1.0), t(1.0), t(3.0)];
        g.record(&mut acc, (0.0, 3.0), &start, &finish, &[NO_TASK; 4]);
        let r = acc.finish(|_| "k", g.class(), Vec::new(), Some(&[0.0, 0.0, 0.0, 2.0]));
        assert_eq!(r.stragglers.len(), 1);
        assert_eq!(r.stragglers[0].gpu, 3);
        assert!((r.stragglers[0].vs_median - 3.0).abs() < 1e-12);
        assert!((r.stragglers[0].fault_lost_s - 2.0).abs() < 1e-12);
    }

    #[test]
    fn balanced_gpus_produce_no_stragglers() {
        let classes: Vec<TaskClass> = (0..2).map(|gpu| TaskClass::Compute { gpu }).collect();
        let g = Graph::new(classes, vec![vec![]; 2]);
        let mut acc = g.accumulator(2);
        let start = [t(0.0); 2];
        let finish = [t(1.0); 2];
        g.record(&mut acc, (0.0, 1.0), &start, &finish, &[NO_TASK; 2]);
        let r = acc.finish(|_| "k", g.class(), Vec::new(), None);
        assert!(r.stragglers.is_empty());
    }

    #[test]
    fn hot_links_ranked_and_truncated() {
        let g = chain();
        let acc = g.accumulator(2);
        let links: Vec<HotLink> = (0..12)
            .map(|i| HotLink {
                label: format!("l{i:02}"),
                busy_s: i as f64,
                bytes: 0.0,
                utilization: 0.0,
            })
            .collect();
        let r = acc.finish(chain_label, g.class(), links, None);
        assert_eq!(r.hottest_links.len(), DEFAULT_TOP_K);
        assert_eq!(r.hottest_links[0].label, "l11");
    }

    /// The ranking `top_ops` must reproduce: merge by label in a map,
    /// kind from the lowest index, full sort, keep the first k.
    fn top_ops_by_full_sort<'l>(
        on_path: &[(TimeSpan, u64)],
        label: impl Fn(usize) -> &'l str,
        classes: &[TaskClass],
    ) -> Vec<LabelTotal<'l>> {
        let mut by_label: std::collections::BTreeMap<&str, LabelTotal<'l>> = Default::default();
        for (t, &(ticks, count)) in on_path.iter().enumerate() {
            if count == 0 || matches!(classes[t], TaskClass::Sync) {
                continue;
            }
            let e = by_label.entry(label(t)).or_insert(LabelTotal {
                label: label(t),
                ticks: TimeSpan::ZERO,
                count: 0,
                kind: classes[t].kind_str(),
            });
            e.ticks += ticks;
            e.count += count;
        }
        let mut ops: Vec<LabelTotal<'l>> = by_label.into_values().collect();
        ops.sort_by(LabelTotal::rank);
        ops.truncate(DEFAULT_TOP_K);
        ops
    }

    #[test]
    fn top_k_selection_matches_a_full_sort() {
        // SplitMix64: a dependency-free, seeded stream.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |bound: u64| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % bound
        };
        let names: Vec<String> = (0..40).map(|i| format!("op{i}")).collect();
        let kinds = [
            TaskClass::Compute { gpu: 0 },
            TaskClass::Comm {
                src_gpu: None,
                dst_gpu: Some(0),
            },
            TaskClass::Sync,
        ];
        for case in 0..300 {
            // Few tasks (fewer than k groups), few distinct labels (many
            // repeats) and coarse ticks (many ties) all occur.
            let tasks = 1 + next(if case % 3 == 0 { 8 } else { 120 }) as usize;
            let distinct = 1 + next(if case % 2 == 0 { 6 } else { 40 }) as usize;
            let labels: Vec<&str> = (0..tasks)
                .map(|_| names[next(distinct as u64) as usize].as_str())
                .collect();
            let classes: Vec<TaskClass> = (0..tasks).map(|_| kinds[next(3) as usize]).collect();
            let on_path: Vec<(TimeSpan, u64)> = (0..tasks)
                .map(|_| {
                    let count = next(3);
                    (TimeSpan::from_femtos(next(4) * 1_000), count)
                })
                .collect();
            let label = |t: usize| labels[t];
            let sparse = (0u32..).zip(on_path.iter().copied()).collect();
            assert_eq!(
                top_ops(&sparse, label, |t| classes[t]),
                top_ops_by_full_sort(&on_path, label, &classes),
                "case {case}"
            );
        }
    }

    #[test]
    fn canonical_value_has_fixed_key_order() {
        let g = chain();
        let mut acc = g.accumulator(2);
        record_chain(&g, &mut acc);
        let v = acc
            .finish(chain_label, g.class(), Vec::new(), None)
            .to_value();
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
        let g = chain();
        let mut acc = g.accumulator(2);
        for i in 0..3 {
            let off = 4.0 * i as f64;
            let start = [t(off), t(off + 2.0), t(off + 3.0)];
            let finish = [t(off + 2.0), t(off + 3.0), t(off + 4.0)];
            g.record(&mut acc, (off, off + 4.0), &start, &finish, &[NO_TASK; 3]);
        }
        let r = acc.finish(chain_label, g.class(), Vec::new(), None);
        assert_eq!(r.iterations, 3);
        assert!((r.critical_path_s - 12.0).abs() < 1e-12);
        assert_eq!(r.top_ops[0].count, 3);
        assert!((r.per_gpu[0].total_s - 12.0).abs() < 1e-12);
    }
}
