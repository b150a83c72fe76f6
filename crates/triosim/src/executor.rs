//! The discrete-event executor: replays a task graph against a network
//! model, fast-forwarding virtual time from event to event.
//!
//! Resources follow the PyTorch execution model the paper assumes: each
//! GPU has one *serial* compute stream (operators on a GPU never overlap
//! each other), while transfers run on the network model and overlap
//! freely with computation — this is what lets DDP hide AllReduce behind
//! backward propagation.

use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::time::Instant;

use triosim_des::{EventId, EventQueue, QueueStats, RunBudget, Ticker, TimeSpan, VirtualTime};
use triosim_faults::{FaultKind, FaultPlan, FaultSession};
use triosim_network::{FlowId, LinkFault, NetCommand, NetStatsSnapshot, NetworkModel, NodeId};
use triosim_obs::{
    AttrValue, AttributionAccumulator, BottleneckReport, DepTable, HotLink, IterationObservation,
    ProgressMonitor, Recorder, SelfProfiler, TaskClass,
};

use crate::checkpoint::{
    self, CheckpointConfig, CheckpointError, ExecutorState, FaultState, OutageState, SimSnapshot,
};
use crate::error::SimError;
use crate::report::{
    merge_intervals, timeline_fnv, union_length, FaultStats, Repeat, SerialReason, SimReport,
    TimelineRecord, TimelineTrack, FNV_OFFSET,
};
use crate::taskgraph::{TaskGraph, TaskId, TaskKind};

#[derive(Debug)]
enum Event {
    ComputeDone {
        gpu: usize,
        task: TaskId,
    },
    FlowDelivered {
        flow: FlowId,
    },
    /// Observability sampling tick — never affects simulation results.
    MonitorTick,
    /// Injection point of one timed fault from the session timeline.
    Fault {
        idx: usize,
    },
}

/// Observability options for one execution run.
///
/// The default is fully off: no recorder, no progress reporting, and the
/// executor takes the exact same code path as [`execute_iterations`].
/// With a recorder attached, the executor emits per-operator and
/// per-collective spans, per-event-kind dispatch counters, and sampled
/// gauges (queue depth, in-flight flows, per-link utilization) driven by
/// a virtual-time [`Ticker`] at `sample_period`. Monitor ticks are
/// carefully kept out of the simulation's critical path: they never
/// extend the reported total time and are cancelled the moment no real
/// event remains.
#[derive(Debug)]
pub struct Observability {
    /// Receives spans and metrics. `None` (or a disabled recorder)
    /// skips all instrumentation.
    pub recorder: Option<Box<dyn Recorder>>,
    /// Live wall-clock progress reporting (stderr by default).
    pub progress: Option<ProgressMonitor>,
    /// Virtual-time period between monitor samples.
    pub sample_period: TimeSpan,
}

impl Default for Observability {
    fn default() -> Self {
        Observability {
            recorder: None,
            progress: None,
            sample_period: TimeSpan::from_millis(1.0),
        }
    }
}

impl Observability {
    /// No observability: identical behavior to the plain executor.
    pub fn off() -> Self {
        Self::default()
    }

    /// Attaches a recorder.
    pub fn with_recorder(mut self, recorder: Box<dyn Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Attaches a progress monitor.
    pub fn with_progress(mut self, progress: ProgressMonitor) -> Self {
        self.progress = Some(progress);
        self
    }

    /// Overrides the virtual-time sampling period.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn with_sample_period(mut self, period: TimeSpan) -> Self {
        assert!(period > TimeSpan::ZERO, "sample period must be positive");
        self.sample_period = period;
        self
    }

    /// True when any observability output is requested.
    pub fn is_active(&self) -> bool {
        self.progress.is_some() || self.recorder.as_ref().is_some_and(|r| r.enabled())
    }
}

/// Executes `graph` against `network`, returning the run report.
///
/// Deterministic: identical inputs give identical reports.
///
/// # Panics
///
/// Panics if the graph deadlocks (a dependency cycle), which the
/// [`TaskGraph`] construction rules make impossible, or if a transfer's
/// endpoints are not connected in the network's topology.
pub fn execute(graph: &TaskGraph, network: &mut dyn NetworkModel) -> SimReport {
    execute_iterations(graph, network, 1)
}

/// Executes `graph` back-to-back `iterations` times on the same network
/// state, returning the aggregate report.
///
/// Network state persists across iterations — this is what lets the
/// photonic model amortize its circuit-establishment latency over a
/// training run instead of paying it every iteration.
///
/// # Panics
///
/// Same conditions as [`execute`], plus `iterations == 0`.
pub fn execute_iterations(
    graph: &TaskGraph,
    network: &mut dyn NetworkModel,
    iterations: usize,
) -> SimReport {
    assert!(iterations > 0, "need at least one iteration");
    Executor::new(graph, network)
        .run(iterations)
        .unwrap_or_else(|e| panic!("fault-free execution cannot fail: {e}"))
}

/// [`execute_iterations`] with observability: spans, metrics, and live
/// progress flow into `obs` while the simulation runs.
///
/// Simulation results are identical to the unobserved run — monitor
/// ticks advance no state and never extend the reported total — and all
/// recorder output is a deterministic function of the graph, the network
/// model, and `obs.sample_period`.
///
/// # Panics
///
/// Same conditions as [`execute_iterations`].
pub fn execute_observed(
    graph: &TaskGraph,
    network: &mut dyn NetworkModel,
    iterations: usize,
    obs: Observability,
) -> SimReport {
    assert!(iterations > 0, "need at least one iteration");
    Executor::new(graph, network)
        .with_observability(obs)
        .run(iterations)
        .unwrap_or_else(|e| panic!("fault-free execution cannot fail: {e}"))
}

/// [`execute_observed`] with fault injection: the timed faults, compute
/// slowdowns, and jitter described by `plan` are applied while the graph
/// executes.
///
/// An empty plan takes the exact fault-free code path and produces a
/// bit-identical report to [`execute_observed`]. A non-empty plan is
/// deterministic in `plan` (including its seed): two runs with the same
/// plan produce identical reports.
///
/// The plan is consumed as-is; use
/// [`FaultPlan::validate`] (or [`SimBuilder::try_run`](crate::SimBuilder::try_run),
/// which validates for you) to reject plans referencing GPUs or nodes the
/// platform does not have.
///
/// # Errors
///
/// Returns [`SimError::Partitioned`] when a link failure disconnects a
/// transfer's endpoints, and [`SimError::GpuLost`] when a GPU drop-out
/// fires (its pinned tasks can never run).
///
/// # Panics
///
/// Same conditions as [`execute_iterations`].
pub fn execute_faulted(
    graph: &TaskGraph,
    network: &mut dyn NetworkModel,
    iterations: usize,
    obs: Observability,
    plan: &FaultPlan,
) -> Result<SimReport, SimError> {
    execute_budgeted(
        graph,
        network,
        iterations,
        obs,
        plan,
        RunBudget::unlimited(),
    )
}

/// [`execute_faulted`] with a runaway guard: the run terminates with
/// [`SimError::BudgetExceeded`] if it blows any axis of `budget`.
///
/// An unlimited budget takes the exact [`execute_faulted`] code path (and
/// with an empty plan, the plain fault-free path) — reports stay
/// bit-identical. The budget spans the whole multi-iteration run; its
/// event axis counts only real compute/flow events, never monitor ticks
/// or fault injections, so deterministic-axis trips are independent of
/// observability settings.
///
/// # Errors
///
/// [`SimError::BudgetExceeded`] on a tripped budget, plus everything
/// [`execute_faulted`] reports.
///
/// # Panics
///
/// Same conditions as [`execute_iterations`].
pub fn execute_budgeted(
    graph: &TaskGraph,
    network: &mut dyn NetworkModel,
    iterations: usize,
    obs: Observability,
    plan: &FaultPlan,
    budget: RunBudget,
) -> Result<SimReport, SimError> {
    assert!(iterations > 0, "need at least one iteration");
    let mut ex = Executor::new(graph, network)
        .with_observability(obs)
        .with_budget(budget);
    let session = FaultSession::new(plan, graph.gpus());
    if !session.is_empty() {
        ex = ex.with_faults(session);
    }
    ex.run(iterations)
}

/// [`execute_budgeted`] with host self-profiling: when `prof` is
/// enabled, wall-clock time spent in the engine loop (and, within it,
/// the network model's send/deliver/reallocation work) accumulates
/// under an `engine_loop` span.
///
/// Profiling never touches virtual-time state: the report — including
/// its canonical bytes — is byte-identical with profiling on or off.
///
/// # Errors
///
/// Same as [`execute_budgeted`].
///
/// # Panics
///
/// Same conditions as [`execute_iterations`].
pub fn execute_budgeted_profiled<'a>(
    graph: &'a TaskGraph,
    network: &'a mut dyn NetworkModel,
    iterations: usize,
    obs: Observability,
    plan: &FaultPlan,
    budget: RunBudget,
    prof: Option<&'a mut SelfProfiler>,
) -> Result<SimReport, SimError> {
    assert!(iterations > 0, "need at least one iteration");
    let mut ex = Executor::new(graph, network)
        .with_observability(obs)
        .with_budget(budget);
    let session = FaultSession::new(plan, graph.gpus());
    if !session.is_empty() {
        ex = ex.with_faults(session);
    }
    if let Some(p) = prof {
        ex = ex.with_selfprof(p);
    }
    ex.run(iterations)
}

/// [`execute_budgeted`] with periodic boundary snapshots: every
/// `ck.every`-th iteration boundary writes a crash-safe snapshot to
/// `ck.path`. Checkpointing reads only quiescent state, so the report —
/// including its canonical bytes — is byte-identical to the same run
/// without checkpointing. Observability is not supported on this path
/// (the builder gates it off with a warning).
///
/// # Errors
///
/// [`SimError::Checkpoint`] when a snapshot cannot be written, plus
/// everything [`execute_budgeted`] reports.
///
/// # Panics
///
/// Same conditions as [`execute_iterations`].
pub(crate) fn execute_with_checkpoints(
    graph: &TaskGraph,
    network: &mut dyn NetworkModel,
    iterations: usize,
    plan: &FaultPlan,
    budget: RunBudget,
    ck: CheckpointConfig,
) -> Result<SimReport, SimError> {
    assert!(iterations > 0, "need at least one iteration");
    let mut ex = Executor::new(graph, network)
        .with_budget(budget)
        .with_checkpoint(ck);
    let session = FaultSession::new(plan, graph.gpus());
    if !session.is_empty() {
        ex = ex.with_faults(session);
    }
    ex.run(iterations)
}

/// Resumes a run from a boundary snapshot: executes iterations
/// `completed..iterations` on top of the restored state, producing a
/// report byte-identical to an uninterrupted `iterations`-iteration run.
/// The caller has already validated the spec hash and applied the
/// network half of the snapshot via `NetworkModel::restore_state`. When
/// `ck` is set, checkpointing continues on the resumed run.
///
/// # Errors
///
/// [`SimError::Checkpoint`] on structurally invalid snapshot state, plus
/// everything [`execute_budgeted`] reports.
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute_restored(
    graph: &TaskGraph,
    network: &mut dyn NetworkModel,
    iterations: usize,
    plan: &FaultPlan,
    budget: RunBudget,
    completed: usize,
    state: &ExecutorState,
    ck: Option<CheckpointConfig>,
) -> Result<SimReport, SimError> {
    assert!(
        completed <= iterations,
        "restore cannot exceed the requested iteration count"
    );
    let mut ex = Executor::new(graph, network).with_budget(budget);
    let session = FaultSession::new(plan, graph.gpus());
    if !session.is_empty() {
        ex = ex.with_faults(session);
    }
    if let Some(ck) = ck {
        ex = ex.with_checkpoint(ck);
    }
    let ex = ex.with_restored_state(completed, state)?;
    ex.run(iterations - completed)
}

/// Maps a topology node to a GPU index under the repo-wide platform
/// convention (`Platform::gpu_node(i) == NodeId(1 + i)`, `NodeId(0)` is
/// the host, nodes past `1 + gpus` are NICs/spines).
fn node_gpu(node: NodeId, gpus: usize) -> Option<usize> {
    (node.0 >= 1 && node.0 <= gpus).then(|| node.0 - 1)
}

struct GpuStream {
    ready: VecDeque<TaskId>,
    busy: bool,
    /// Cumulative busy time in integer ticks: exact, so the per-iteration
    /// deltas replay adds sum to byte-identical per-GPU compute figures.
    busy_time: TimeSpan,
}

/// Live state of one fault-injected run. Present only when the session
/// actually injects something: a fault-free run carries `None` and takes
/// byte-identical code paths to the plain executor.
struct FaultRuntime {
    session: FaultSession,
    /// Next timeline entry to arm.
    cursor: usize,
    /// The armed injection event. Like monitor ticks, fault events do not
    /// count as real work: they are cancelled the moment no real event
    /// remains, so a fault scheduled past the end of the workload can
    /// never extend the reported total time.
    fault_event: Option<EventId>,
    /// Faults that actually fired.
    injected: u64,
    /// Fired faults by kind: [degrade, fail, repair, gpu_drop].
    injected_by_kind: [u64; 4],
    /// Per-GPU seconds of compute added by slowdown/jitter dilation.
    lost_compute: Vec<f64>,
    /// Fail time of currently-down duplex links, for outage spans.
    outage_since: HashMap<(usize, usize), VirtualTime>,
}

impl FaultRuntime {
    fn new(session: FaultSession, gpus: usize) -> Self {
        FaultRuntime {
            session,
            cursor: 0,
            fault_event: None,
            injected: 0,
            injected_by_kind: [0; 4],
            lost_compute: vec![0.0; gpus],
            outage_since: HashMap::new(),
        }
    }
}

/// An empty attribution accumulator over `graph`'s task structure.
fn attribution(graph: &TaskGraph) -> AttributionAccumulator {
    let gpus = graph.gpus();
    let labels = graph.tasks().iter().map(|t| t.label.clone()).collect();
    let classes = graph
        .tasks()
        .iter()
        .map(|t| match t.kind {
            TaskKind::Compute { gpu, .. } => TaskClass::Compute { gpu },
            TaskKind::Transfer { src, dst, .. } => TaskClass::Comm {
                src_gpu: node_gpu(src, gpus),
                dst_gpu: node_gpu(dst, gpus),
            },
            TaskKind::Barrier => TaskClass::Sync,
        })
        .collect();
    let deps = DepTable::new(
        graph
            .tasks()
            .iter()
            .map(|t| t.deps.iter().map(|d| d.0 as u32)),
    );
    AttributionAccumulator::new(gpus, labels, classes, deps)
}

/// Steady-state replay's progress through a run (DESIGN.md §12).
enum ReplayState {
    /// Replay cannot engage; every iteration is simulated.
    Off(SerialReason),
    /// The next iteration is the candidate: simulated and measured.
    Candidate,
    /// The next iteration is simulated and verified against this one.
    Verifying(IterationDelta),
    /// Verified: every remaining iteration repeats this one.
    Steady(IterationDelta),
}

/// The run's additive counters at an iteration boundary, or what one
/// iteration added to them. All integers, so adding is exact.
#[derive(PartialEq)]
struct Counters {
    queue: QueueStats,
    dispatches: [u64; 4],
    gpu_busy: Vec<TimeSpan>,
    bytes: u64,
    budget_events: u64,
    net: NetStatsSnapshot,
}

impl Counters {
    /// What the counters grew by since `earlier`.
    fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            queue: self.queue.since(&earlier.queue),
            dispatches: std::array::from_fn(|i| self.dispatches[i] - earlier.dispatches[i]),
            gpu_busy: self
                .gpu_busy
                .iter()
                .zip(&earlier.gpu_busy)
                .map(|(&now, &then)| now - then)
                .collect(),
            bytes: self.bytes - earlier.bytes,
            budget_events: self.budget_events - earlier.budget_events,
            net: self.net.since(&earlier.net),
        }
    }
}

/// Where a measured iteration began.
struct Mark {
    at: VirtualTime,
    counters: Counters,
    records: usize,
    comm: usize,
}

/// What one simulated iteration added to the run: the unit replay
/// verifies and then repeats.
struct IterationDelta {
    begin: VirtualTime,
    period: TimeSpan,
    counters: Counters,
    /// The iteration's attribution recorded alone; its critical path
    /// moves to each repeat's place as the repeat is synthesized.
    attr: AttributionAccumulator,
    /// Where the iteration's records, sorted, sit in the timeline.
    records: Range<usize>,
    /// The union of the iteration's transfer intervals.
    comm: Vec<(VirtualTime, VirtualTime)>,
}

impl IterationDelta {
    /// True when `self` repeats `prev`, the iteration just before it,
    /// shifted by `prev`'s length: equal counters, and every record and
    /// the critical path moved by exactly that shift. (Transfer
    /// intervals are the network records' spans, so the records cover
    /// them.) Shifts `prev`'s critical path in the process.
    fn repeats(&self, prev: &mut IterationDelta, timeline: &[TimelineRecord]) -> bool {
        let shift = prev.period;
        let counters = self.period == shift && self.counters == prev.counters;
        let (ours, theirs) = (
            &timeline[self.records.clone()],
            &timeline[prev.records.clone()],
        );
        let records = ours.len() == theirs.len()
            && ours.iter().zip(theirs).all(|(r, p)| {
                r.label == p.label
                    && r.track == p.track
                    && r.layer == p.layer
                    && r.start == p.start + shift
                    && r.end == p.end + shift
            });
        counters && records && {
            prev.attr.shift_last_path(shift);
            prev.attr.snapshot() == self.attr.snapshot()
        }
    }
}

struct Executor<'a> {
    graph: &'a TaskGraph,
    network: &'a mut dyn NetworkModel,
    queue: EventQueue<Event>,
    indegree: Vec<usize>,
    dependents: Vec<Vec<TaskId>>,
    gpus: Vec<GpuStream>,
    flow_task: HashMap<FlowId, TaskId>,
    flow_event: HashMap<FlowId, EventId>,
    flow_start: HashMap<FlowId, VirtualTime>,
    comm_intervals: Vec<(VirtualTime, VirtualTime)>,
    compute_start: Vec<Option<VirtualTime>>,
    timeline: Vec<TimelineRecord>,
    /// Running timeline digest: `(count, FNV state)` over all records
    /// digested so far (including any pre-restore prefix, whose records
    /// are *not* in `timeline`, and synthesized iterations, whose records
    /// are never built), plus the index of the first not-yet-digested
    /// record in `timeline`. Advanced at every iteration boundary and
    /// handed to the report, so each record is hashed exactly once.
    tl_digest: (u64, u64),
    tl_mark: usize,
    completed: usize,
    bytes_transferred: u64,
    // ------- observability (all inert unless `ticking`/`observing`) -------
    obs: Observability,
    /// True when a live, enabled recorder is attached.
    observing: bool,
    /// True when monitor ticks should be scheduled at all.
    ticking: bool,
    ticker: Option<Ticker>,
    tick_event: Option<EventId>,
    /// Pending non-tick events; ticks stop when this reaches zero.
    pending_real: usize,
    /// Per-kind dispatch counts: [compute, flow, tick, fault].
    dispatches: [u64; 4],
    // ------- fault injection (both `None` on fault-free runs) -------
    faults: Option<FaultRuntime>,
    /// Set when the run must stop early with a structured error — an
    /// injected fault made the remaining work impossible, or the run
    /// budget tripped. Unwinds the run instead of a hang or panic.
    stop_error: Option<SimError>,
    // ------- runaway guard (`None` on unbudgeted runs) -------
    /// Per-run budget; `None` keeps the exact pre-budget code path.
    budget: Option<RunBudget>,
    /// Real (compute/flow) events delivered across all iterations;
    /// the budget's event axis counts these, never ticks or faults, so
    /// tripping is independent of observability settings.
    budget_events: u64,
    /// Iteration currently executing (jitter coordinate).
    current_iter: usize,
    /// Global index of this run's first iteration: nonzero only on a run
    /// restored from a snapshot, so per-iteration coordinates (jitter,
    /// logs) and the report's task count continue the interrupted run's.
    iter_offset: usize,
    /// Virtual time at which each completed iteration ended.
    iter_ends: Vec<VirtualTime>,
    // ------- steady-state replay (DESIGN.md §12) -------
    /// Replay's outcome, set when the iteration loop finishes.
    replay: Result<Repeat, SerialReason>,
    /// Wall-clock seconds spent synthesizing iterations (profiled runs).
    replay_wall_s: f64,
    prev_link_busy: Vec<f64>,
    prev_sample_at: VirtualTime,
    collective_of_first: HashMap<TaskId, usize>,
    collective_of_last: HashMap<TaskId, usize>,
    collective_begin: Vec<Option<VirtualTime>>,
    // ------- bottleneck attribution (always on: pure virtual-time state) -------
    attr: AttributionAccumulator,
    /// Per-task start/finish times of the current iteration (all kinds,
    /// unlike `compute_start`).
    attr_start: Vec<Option<VirtualTime>>,
    attr_end: Vec<Option<VirtualTime>>,
    /// The compute task that freed this task's GPU stream, per task.
    attr_gpu_pred: Vec<Option<u32>>,
    /// Most recently finished compute task per GPU, this iteration.
    last_done: Vec<Option<u32>>,
    /// Virtual time the current iteration's roots were seeded.
    iter_begin: VirtualTime,
    // ------- checkpointing (`None` on ordinary runs) -------
    /// When set, a snapshot is written at every `every`-th iteration
    /// boundary — the quiescent instants where the queue is drained.
    ckpt: Option<CheckpointConfig>,
    // ------- host self-profiling (`None` keeps the unprofiled hot loop) -------
    selfprof: Option<&'a mut SelfProfiler>,
    /// Cached `selfprof.is_some_and(enabled)`, tested in the hot loop.
    profiling: bool,
    /// Wall-clock seconds spent inside the network model.
    net_wall_s: f64,
    net_wall_calls: u64,
}

impl<'a> Executor<'a> {
    fn new(graph: &'a TaskGraph, network: &'a mut dyn NetworkModel) -> Self {
        let n = graph.len();
        let gpus = graph.gpus();
        let mut indegree = vec![0usize; n];
        let mut dependents: Vec<Vec<TaskId>> = vec![Vec::new(); n];
        for (i, task) in graph.tasks().iter().enumerate() {
            indegree[i] = task.deps.len();
            for d in &task.deps {
                dependents[d.0].push(TaskId(i));
            }
        }
        Executor {
            graph,
            network,
            queue: EventQueue::new(),
            indegree,
            dependents,
            gpus: (0..graph.gpus())
                .map(|_| GpuStream {
                    ready: VecDeque::new(),
                    busy: false,
                    busy_time: TimeSpan::ZERO,
                })
                .collect(),
            flow_task: HashMap::new(),
            flow_event: HashMap::new(),
            flow_start: HashMap::new(),
            comm_intervals: Vec::new(),
            compute_start: vec![None; n],
            timeline: Vec::new(),
            tl_digest: (0, FNV_OFFSET),
            tl_mark: 0,
            completed: 0,
            bytes_transferred: 0,
            obs: Observability::off(),
            observing: false,
            ticking: false,
            ticker: None,
            tick_event: None,
            pending_real: 0,
            dispatches: [0; 4],
            faults: None,
            stop_error: None,
            budget: None,
            budget_events: 0,
            current_iter: 0,
            iter_offset: 0,
            iter_ends: Vec::new(),
            replay: Err(SerialReason::FewIterations),
            replay_wall_s: 0.0,
            prev_link_busy: Vec::new(),
            prev_sample_at: VirtualTime::ZERO,
            collective_of_first: HashMap::new(),
            collective_of_last: HashMap::new(),
            collective_begin: Vec::new(),
            attr: attribution(graph),
            attr_start: vec![None; n],
            attr_end: vec![None; n],
            attr_gpu_pred: vec![None; n],
            last_done: vec![None; gpus],
            iter_begin: VirtualTime::ZERO,
            ckpt: None,
            selfprof: None,
            profiling: false,
            net_wall_s: 0.0,
            net_wall_calls: 0,
        }
    }

    /// Attaches a host self-profiler. Wall clock only; virtual-time
    /// state and the report stay byte-identical.
    fn with_selfprof(mut self, prof: &'a mut SelfProfiler) -> Self {
        self.profiling = prof.is_enabled();
        self.selfprof = Some(prof);
        self
    }

    fn with_observability(mut self, obs: Observability) -> Self {
        self.observing = obs.recorder.as_ref().is_some_and(|r| r.enabled());
        self.ticking = self.observing || obs.progress.is_some();
        if self.ticking {
            self.ticker = Some(Ticker::new(obs.sample_period));
        }
        if self.observing {
            for (ci, meta) in self.graph.collectives().iter().enumerate() {
                self.collective_of_first.insert(meta.first, ci);
                self.collective_of_last.insert(meta.last, ci);
            }
            self.collective_begin = vec![None; self.graph.collectives().len()];
        }
        self.obs = obs;
        self
    }

    /// Attaches a non-empty fault session. The fault timeline spans the
    /// whole multi-iteration run (times are absolute, not per-iteration).
    fn with_faults(mut self, session: FaultSession) -> Self {
        let gpus = self.gpus.len();
        self.faults = Some(FaultRuntime::new(session, gpus));
        self
    }

    /// Attaches a run budget. Unlimited budgets are dropped so the hot
    /// loop keeps its single `Option` discriminant test per event. The
    /// budget spans the whole multi-iteration run.
    fn with_budget(mut self, budget: RunBudget) -> Self {
        self.budget = (!budget.is_unlimited()).then_some(budget);
        self
    }

    /// Enables periodic boundary snapshots to `ck.path`.
    fn with_checkpoint(mut self, ck: CheckpointConfig) -> Self {
        self.ckpt = Some(ck);
        self
    }

    /// Rehydrates the executor from a quiescent-boundary snapshot taken
    /// after `completed` iterations: the clock, queue statistics, and
    /// every accumulated counter and record resume exactly where the
    /// interrupted run left them. Structural mismatches (wrong GPU
    /// count, malformed fault state) are typed errors — the spec hash
    /// upstream should make them impossible, but a hand-edited snapshot
    /// must fail loudly, not corrupt the run.
    fn with_restored_state(
        mut self,
        completed: usize,
        st: &ExecutorState,
    ) -> Result<Self, SimError> {
        let corrupt = |msg: String| SimError::Checkpoint(CheckpointError::Corrupt(msg));
        if st.dispatches.len() != 4 {
            return Err(corrupt(format!(
                "expected 4 dispatch counters, found {}",
                st.dispatches.len()
            )));
        }
        if st.gpu_busy.len() != self.gpus.len() {
            return Err(corrupt(format!(
                "snapshot has {} GPUs, scenario has {}",
                st.gpu_busy.len(),
                self.gpus.len()
            )));
        }
        if st.iter_ends.len() != completed {
            return Err(corrupt(format!(
                "snapshot claims {completed} completed iterations but records {} boundary times",
                st.iter_ends.len()
            )));
        }
        self.queue = EventQueue::starting_at_with_stats(st.now, st.queue);
        self.prev_sample_at = st.now;
        self.iter_begin = st.now;
        self.iter_offset = completed;
        for (gpu, busy) in self.gpus.iter_mut().zip(&st.gpu_busy) {
            gpu.busy_time = *busy;
        }
        self.dispatches = [
            st.dispatches[0],
            st.dispatches[1],
            st.dispatches[2],
            st.dispatches[3],
        ];
        // Snapshots store the merged union; further raw intervals simply
        // append and the report's final merge folds them in exactly.
        self.comm_intervals.clone_from(&st.comm_intervals);
        // Pre-restore timeline records exist only as a digest: seed the
        // running digest with it, so both further snapshots and the
        // report's `timeline_hash` continue the interrupted fold. The
        // record list itself restarts empty, so a restored run's
        // timeline *export* covers only post-restore iterations.
        self.tl_digest = (st.timeline_count, st.timeline_fnv);
        self.tl_mark = 0;
        self.bytes_transferred = st.bytes_transferred;
        self.iter_ends.clone_from(&st.iter_ends);
        self.budget_events = st.budget.events;
        self.attr.restore(&st.attr).map_err(corrupt)?;
        match (&mut self.faults, &st.faults) {
            (Some(fr), Some(fs)) => {
                if fs.injected_by_kind.len() != 4 {
                    return Err(corrupt(format!(
                        "expected 4 per-kind fault counters, found {}",
                        fs.injected_by_kind.len()
                    )));
                }
                if fs.lost_compute_bits.len() != self.gpus.len() {
                    return Err(corrupt(format!(
                        "fault state has {} GPUs of lost compute, scenario has {}",
                        fs.lost_compute_bits.len(),
                        self.gpus.len()
                    )));
                }
                let cursor = fs.cursor as usize;
                if cursor > fr.session.timeline().len() {
                    return Err(corrupt(format!(
                        "fault cursor {cursor} is past the {}-entry fault timeline",
                        fr.session.timeline().len()
                    )));
                }
                fr.cursor = cursor;
                fr.injected = fs.injected;
                fr.injected_by_kind = [
                    fs.injected_by_kind[0],
                    fs.injected_by_kind[1],
                    fs.injected_by_kind[2],
                    fs.injected_by_kind[3],
                ];
                fr.lost_compute = fs
                    .lost_compute_bits
                    .iter()
                    .map(|&bits| f64::from_bits(bits))
                    .collect();
                fr.outage_since = fs
                    .outages
                    .iter()
                    .map(|o| ((o.src as usize, o.dst as usize), o.since))
                    .collect();
            }
            (None, None) => {}
            (Some(_), None) => {
                return Err(corrupt(
                    "snapshot lacks fault state but the scenario has a fault plan".to_string(),
                ))
            }
            (None, Some(_)) => {
                return Err(corrupt(
                    "snapshot carries fault state but the scenario has no fault plan".to_string(),
                ))
            }
        }
        Ok(self)
    }

    /// Serializes the current (quiescent) state and writes it
    /// crash-safely over the configured snapshot path.
    ///
    /// Called only at iteration boundaries, where `run_once` has drained
    /// the queue and cancelled any pending tick or fault-arming event —
    /// so the state reduces to accumulated counters and records, and the
    /// armed-fault invariant (`fault_event == None`) holds.
    fn write_checkpoint(&mut self) -> Result<(), SimError> {
        // Compact the raw interval list into its union in place: the
        // report's `union_length` is invariant under this (union is
        // associative and idempotent), and it keeps every snapshot —
        // and the run's own memory — proportional to the iteration
        // count instead of the event count.
        self.comm_intervals = merge_intervals(std::mem::take(&mut self.comm_intervals));
        let ck = self.ckpt.as_ref().expect("checkpointing is configured");
        let net = self.network.checkpoint_state().ok_or_else(|| {
            SimError::Checkpoint(CheckpointError::Unsupported(
                "network model has in-flight state or does not expose snapshots".to_string(),
            ))
        })?;
        let faults = self.faults.as_ref().map(|fr| {
            debug_assert!(
                fr.fault_event.is_none(),
                "boundary invariant: fault events are cancelled when the queue drains"
            );
            let mut outages: Vec<OutageState> = fr
                .outage_since
                .iter()
                .map(|(&(src, dst), &since)| OutageState {
                    src: src as u64,
                    dst: dst as u64,
                    since,
                })
                .collect();
            outages.sort_by_key(|o| (o.src, o.dst));
            FaultState {
                cursor: fr.cursor as u64,
                injected: fr.injected,
                injected_by_kind: fr.injected_by_kind.to_vec(),
                lost_compute_bits: fr.lost_compute.iter().map(|s| s.to_bits()).collect(),
                outages,
            }
        });
        let snap = SimSnapshot {
            checkpoint: checkpoint::SNAPSHOT_MAGIC.to_string(),
            version: checkpoint::SNAPSHOT_VERSION,
            spec_hash: format!("{:016x}", ck.spec_hash),
            completed: (self.current_iter + 1) as u64,
            state: ExecutorState {
                now: self.queue.now(),
                queue: *self.queue.stats(),
                dispatches: self.dispatches.to_vec(),
                gpu_busy: self.gpus.iter().map(|g| g.busy_time).collect(),
                comm_intervals: self.comm_intervals.clone(),
                timeline_count: self.tl_digest.0,
                timeline_fnv: self.tl_digest.1,
                bytes_transferred: self.bytes_transferred,
                iter_ends: self.iter_ends.clone(),
                budget: triosim_des::BudgetProgress {
                    events: self.budget_events,
                },
                attr: self.attr.snapshot(),
                net,
                faults,
            },
        };
        checkpoint::write_snapshot(&ck.path, &snap).map_err(SimError::Checkpoint)
    }

    /// Folds the records of the iteration that just ended into the
    /// running digest. Each iteration's segment is sorted on its own:
    /// iterations occupy disjoint, ordered spans of virtual time, so
    /// segment-by-segment folding equals the whole-run sorted fold, and
    /// each record is hashed exactly once.
    fn fold_timeline_digest(&mut self) {
        // Sorting the segment *in place* keeps the fold's memory access
        // contiguous, and leaves the whole timeline sorted for the
        // report (segments occupy disjoint, ordered spans, so sorted
        // segments concatenate into the sorted whole; the stable sort
        // keeps push order among equal keys either way).
        let fresh = &mut self.timeline[self.tl_mark..];
        fresh.sort_by_key(|r| (r.start, r.end));
        self.tl_digest = (
            self.tl_digest.0 + fresh.len() as u64,
            timeline_fnv(self.tl_digest.1, fresh.iter(), TimeSpan::ZERO),
        );
        self.tl_mark = self.timeline.len();
    }

    /// Runs `iterations` back-to-back iterations, folding each into the
    /// attribution accumulator and the timeline digest and recording its
    /// end time. Where steady-state replay engages (DESIGN.md §12), the
    /// first two iterations are simulated and, once the second is
    /// verified as the first shifted by its length, the rest are
    /// synthesized; any mismatch just keeps simulating. Synthesized and
    /// simulated iterations end at the same boundary, so snapshots and
    /// wall-clock probes run unchanged. On error the loop stops with the
    /// structured error; completed-iteration state (`iter_ends`,
    /// attribution) remains valid for inspection.
    fn run_iterations(&mut self, iterations: usize) -> Result<(), SimError> {
        let base_indegree = self.indegree.clone();
        let mut replay = self.replay_plan(iterations);
        for iter in 0..iterations {
            self.current_iter = self.iter_offset + iter;
            if let ReplayState::Steady(delta) = &mut replay {
                self.synthesize(delta);
                if let Some((kind, limit)) = self.budget.as_ref().and_then(RunBudget::check_wall) {
                    return Err(SimError::BudgetExceeded { kind, limit });
                }
            } else {
                if iter > 0 {
                    self.indegree.clone_from(&base_indegree);
                    self.completed = 0;
                    self.compute_start.fill(None);
                    self.collective_begin.fill(None);
                }
                let measured = matches!(replay, ReplayState::Candidate | ReplayState::Verifying(_));
                let before = measured.then(|| self.mark());
                self.run_once();
                if let Some(e) = self.stop_error.take() {
                    return Err(e);
                }
                assert_eq!(
                    self.completed,
                    self.graph.len(),
                    "execution deadlocked: {} of {} tasks completed (iteration {})",
                    self.completed,
                    self.graph.len(),
                    self.current_iter
                );
                self.iter_ends.push(self.queue.now());
                // Fold the completed iteration into the bottleneck
                // attribution (pure virtual-time state, always on). A
                // measured iteration is recorded on its own first, so
                // replay can verify and repeat exactly its share.
                let it = IterationObservation {
                    begin: self.iter_begin,
                    end: self.queue.now(),
                    start: &self.attr_start,
                    finish: &self.attr_end,
                    gpu_pred: &self.attr_gpu_pred,
                };
                let alone = measured.then(|| {
                    let mut attr = attribution(self.graph);
                    attr.record_iteration(&it);
                    attr
                });
                match &alone {
                    Some(attr) => self.attr.absorb(attr),
                    None => self.attr.record_iteration(&it),
                }
                if self.observing {
                    let now = self.queue.now();
                    if let Some(r) = self.obs.recorder.as_mut() {
                        r.instant(
                            now,
                            "executor",
                            "iteration_end",
                            &[("iteration", AttrValue::U64(self.current_iter as u64))],
                        );
                    }
                }
                self.fold_timeline_digest();
                if let (Some(before), Some(attr)) = (before, alone) {
                    let delta = self.delta_since(before, attr);
                    replay = match replay {
                        ReplayState::Verifying(mut prev) => {
                            if delta.repeats(&mut prev, &self.timeline) {
                                ReplayState::Steady(delta)
                            } else {
                                ReplayState::Off(SerialReason::Rejected)
                            }
                        }
                        _ => ReplayState::Verifying(delta),
                    };
                }
            }
            // The boundary is quiescent here: the queue is drained and
            // tick/fault events were cancelled, so a snapshot reduces to
            // accumulated counters and records.
            let snapshot_due = self
                .ckpt
                .as_ref()
                .is_some_and(|ck| (self.current_iter + 1).is_multiple_of(ck.every));
            if snapshot_due {
                self.write_checkpoint()?;
            }
        }
        self.replay = match replay {
            ReplayState::Steady(delta) => Ok(Repeat {
                segment: delta.records.len(),
                period: delta.period,
                count: iterations - 2,
            }),
            ReplayState::Off(reason) => Err(reason),
            // Unreachable: replay plans need at least three iterations.
            ReplayState::Candidate | ReplayState::Verifying(_) => Err(SerialReason::FewIterations),
        };
        Ok(())
    }

    /// Decides from what the run can observe whether replay may engage on
    /// its next `iterations` iterations, or the first reason it may not.
    fn replay_plan(&self, iterations: usize) -> ReplayState {
        let reason = if iterations < 3 {
            SerialReason::FewIterations
        } else if self.faults.is_some() {
            SerialReason::Faults
        } else if self.ticking {
            SerialReason::Observed
        } else if self
            .budget
            .as_ref()
            .is_some_and(RunBudget::has_deterministic_axes)
        {
            SerialReason::DeterministicBudget
        } else if !self.network.iteration_invariant() {
            SerialReason::NetworkNotInvariant
        } else if self.network.stats_snapshot().is_none() {
            SerialReason::NoStatsSnapshot
        } else {
            return ReplayState::Candidate;
        };
        ReplayState::Off(reason)
    }

    fn counters(&self) -> Counters {
        Counters {
            queue: *self.queue.stats(),
            dispatches: self.dispatches,
            gpu_busy: self.gpus.iter().map(|g| g.busy_time).collect(),
            bytes: self.bytes_transferred,
            budget_events: self.budget_events,
            net: self
                .network
                .stats_snapshot()
                .expect("replay is planned only with stats snapshots"),
        }
    }

    /// The start of a measured iteration, for [`delta_since`](Self::delta_since).
    fn mark(&self) -> Mark {
        Mark {
            at: self.queue.now(),
            counters: self.counters(),
            records: self.timeline.len(),
            comm: self.comm_intervals.len(),
        }
    }

    /// What the iteration that just ended added since `before`, with
    /// `attr` its attribution recorded alone.
    fn delta_since(&self, before: Mark, attr: AttributionAccumulator) -> IterationDelta {
        IterationDelta {
            begin: before.at,
            period: self.queue.now() - before.at,
            counters: self.counters().since(&before.counters),
            attr,
            records: before.records..self.timeline.len(),
            comm: merge_intervals(self.comm_intervals[before.comm..].to_vec()),
        }
    }

    /// Adds one iteration that repeats the verified `d`, without
    /// simulating it: the clock and every accumulated counter advance by
    /// `d`'s deltas, the transfer intervals and critical path repeat
    /// shifted, and `d`'s records, shifted, fold into the timeline
    /// digest without being built.
    fn synthesize(&mut self, d: &mut IterationDelta) {
        let t0 = self.profiling.then(Instant::now);
        let begin = self.queue.now();
        let shift = begin - d.begin;
        let c = &d.counters;
        self.queue.fast_forward(begin + d.period, &c.queue);
        for (n, dn) in self.dispatches.iter_mut().zip(c.dispatches) {
            *n += dn;
        }
        for (gpu, busy) in self.gpus.iter_mut().zip(&c.gpu_busy) {
            gpu.busy_time += *busy;
        }
        self.bytes_transferred += c.bytes;
        self.budget_events += c.budget_events;
        self.network.absorb_stats(&c.net);
        self.comm_intervals
            .extend(d.comm.iter().map(|&(s, e)| (s + shift, e + shift)));
        d.attr.shift_last_path(d.period);
        self.attr.absorb(&d.attr);
        self.iter_ends.push(self.queue.now());
        let records = &self.timeline[d.records.clone()];
        self.tl_digest = (
            self.tl_digest.0 + records.len() as u64,
            timeline_fnv(self.tl_digest.1, records.iter(), shift),
        );
        if let Some(t0) = t0 {
            self.replay_wall_s += t0.elapsed().as_secs_f64();
        }
    }

    fn run(mut self, iterations: usize) -> Result<SimReport, SimError> {
        let engine_t = self.profiling.then(Instant::now);
        if let Err(e) = self.run_iterations(iterations) {
            // Close observability sinks so partial traces flush, then
            // surface the structured error instead of the deadlock
            // panic the unfinished graph would otherwise trigger.
            let total = self.queue.now() - VirtualTime::ZERO;
            let done = self.iter_ends.len() as u64 + 1;
            self.flush_selfprof(engine_t, done);
            self.finish_observability(total, None);
            return Err(e);
        }
        self.flush_selfprof(engine_t, iterations as u64);

        let total = self.queue.now() - VirtualTime::ZERO;
        let bottleneck = self.build_bottleneck(total);
        self.finish_observability(total, Some(&bottleneck));
        let per_gpu_compute = self.gpus.iter().map(|g| g.busy_time).collect();
        let comm_busy = union_length(self.comm_intervals);
        let mut report = SimReport::new(
            total,
            per_gpu_compute,
            comm_busy,
            self.bytes_transferred,
            // Restored runs execute only the remaining iterations but
            // report the whole run: count from the global offset.
            self.graph.len() * (self.iter_offset + iterations),
            *self.queue.stats(),
            self.network.observe(),
            self.timeline,
            self.tl_digest,
        );
        report.set_replay(self.replay);
        report.set_bottleneck(bottleneck);
        if let Some(fr) = &self.faults {
            report.set_fault_stats(FaultStats {
                faults_injected: fr.injected,
                link_degrades: fr.injected_by_kind[0],
                link_fails: fr.injected_by_kind[1],
                link_repairs: fr.injected_by_kind[2],
                gpu_drops: fr.injected_by_kind[3],
                lost_compute_s: fr.lost_compute.clone(),
            });
        }
        // Packet counters exist only on packet-fidelity runs, so
        // flow-tier reports stay byte-identical to pre-packet builds.
        if let Some(ps) = self.network.observe_packets() {
            report.set_packet_stats(ps);
        }
        Ok(report)
    }

    /// Folds the accumulated attribution state into the run's
    /// [`BottleneckReport`], ranking links by busy time.
    fn build_bottleneck(&self, total: TimeSpan) -> BottleneckReport {
        let total_s = total.as_seconds();
        let links = self
            .network
            .observe_links()
            .into_iter()
            .map(|l| HotLink {
                label: l.label,
                busy_s: l.busy_s,
                bytes: l.bytes,
                utilization: if total_s > 0.0 {
                    (l.busy_s / total_s).clamp(0.0, 1.0)
                } else {
                    0.0
                },
            })
            .collect();
        let lost = self.faults.as_ref().map(|fr| fr.lost_compute.as_slice());
        self.attr.finish(links, lost)
    }

    /// Records the engine-loop wall time (and the network model's share
    /// of it) into the attached self-profiler, if any.
    fn flush_selfprof(&mut self, engine_t: Option<Instant>, iterations: u64) {
        let Some(t0) = engine_t else {
            return;
        };
        let engine_s = t0.elapsed().as_secs_f64();
        let (net_s, net_calls) = (self.net_wall_s, self.net_wall_calls);
        let replay = self
            .replay
            .map(|repeat| (self.replay_wall_s, repeat.count as u64));
        if let Some(p) = self.selfprof.as_deref_mut() {
            p.add_path(&["engine_loop"], engine_s, iterations);
            p.add_path(&["engine_loop", "network"], net_s, net_calls);
            if let Ok((replay_s, synthesized)) = replay {
                p.add_path(&["engine_loop", "replay"], replay_s, synthesized);
            }
        }
    }

    /// Emits the end-of-run metric dump and closes the recorder.
    /// `bottleneck` is `None` only on error paths (no report exists).
    fn finish_observability(&mut self, total: TimeSpan, bottleneck: Option<&BottleneckReport>) {
        let stats = *self.queue.stats();
        if let Some(p) = self.obs.progress.as_mut() {
            p.report_done(self.queue.now(), stats.delivered());
        }
        if !self.observing {
            return;
        }
        let net = self.network.observe();
        let links = self.network.observe_links();
        let now = self.queue.now();
        let total_s = total.as_seconds();
        let gpu_busy: Vec<f64> = self.gpus.iter().map(|g| g.busy_time.as_seconds()).collect();
        let dispatches = self.dispatches;
        let fault_stats = self
            .faults
            .as_ref()
            .map(|fr| (fr.injected_by_kind, fr.lost_compute.clone()));
        let Some(r) = self.obs.recorder.as_mut() else {
            return;
        };
        r.counter_add(
            "triosim_events_scheduled_total",
            &[],
            stats.scheduled() as f64,
        );
        r.counter_add(
            "triosim_events_delivered_total",
            &[],
            stats.delivered() as f64,
        );
        r.counter_add(
            "triosim_events_cancelled_total",
            &[],
            stats.cancelled() as f64,
        );
        r.counter_add(
            "triosim_queue_compactions_total",
            &[],
            stats.compactions() as f64,
        );
        r.gauge_set(
            now,
            "triosim_queue_max_pending",
            &[],
            stats.max_pending() as f64,
        );
        for (kind, count) in [("compute", 0usize), ("flow", 1), ("tick", 2)] {
            r.counter_add(
                "triosim_events_dispatched_total",
                &[("kind", kind)],
                dispatches[count] as f64,
            );
        }
        // Fault metrics exist only on fault-injected runs, so observed
        // fault-free output stays byte-identical to pre-fault builds.
        if let Some((by_kind, lost)) = &fault_stats {
            r.counter_add(
                "triosim_events_dispatched_total",
                &[("kind", "fault")],
                dispatches[3] as f64,
            );
            for (kind, n) in [
                ("link_degrade", by_kind[0]),
                ("link_fail", by_kind[1]),
                ("link_repair", by_kind[2]),
                ("gpu_drop", by_kind[3]),
            ] {
                r.counter_add("triosim_faults_injected_total", &[("kind", kind)], n as f64);
            }
            for (g, s) in lost.iter().enumerate() {
                let label = g.to_string();
                r.gauge_set(
                    now,
                    "triosim_fault_lost_compute_seconds",
                    &[("gpu", &label)],
                    *s,
                );
            }
        }
        r.counter_add(
            "triosim_net_bytes_delivered_total",
            &[],
            net.bytes_delivered as f64,
        );
        r.counter_add(
            "triosim_net_flows_completed_total",
            &[],
            net.flows_completed as f64,
        );
        r.counter_add(
            "triosim_net_reallocations_total",
            &[],
            net.reallocations as f64,
        );
        r.counter_add("triosim_net_reschedules_total", &[], net.reschedules as f64);
        // Packet metrics exist only on packet-fidelity runs, so observed
        // flow-tier output stays byte-identical to pre-packet builds.
        if let Some(ps) = self.network.observe_packets() {
            r.counter_add("triosim_pkt_packets_total", &[], ps.packets_sent as f64);
            r.counter_add("triosim_pkt_retransmits_total", &[], ps.retransmits as f64);
            r.counter_add("triosim_pkt_drops_total", &[], ps.drops as f64);
            r.counter_add("triosim_pkt_ecn_marks_total", &[], ps.ecn_marks as f64);
            r.gauge_set(
                now,
                "triosim_pkt_queue_depth_max",
                &[],
                ps.max_queue_depth as f64,
            );
        }
        for l in &links {
            r.counter_add("triosim_link_bytes_total", &[("link", &l.label)], l.bytes);
            r.counter_add(
                "triosim_link_busy_seconds_total",
                &[("link", &l.label)],
                l.busy_s,
            );
            if total_s > 0.0 {
                r.gauge_set(
                    now,
                    "triosim_link_utilization_avg",
                    &[("link", &l.label)],
                    (l.busy_s / total_s).clamp(0.0, 1.0),
                );
            }
        }
        for (g, busy) in gpu_busy.iter().enumerate() {
            let label = g.to_string();
            r.gauge_set(now, "triosim_gpu_busy_seconds", &[("gpu", &label)], *busy);
        }
        // Bottleneck attribution: the final iteration's critical path as
        // spans on a dedicated track, plus the aggregate gauges.
        if let Some(bn) = bottleneck {
            for &(task, s, f) in self.attr.last_path() {
                let name = self.attr.label(task as usize);
                r.span(
                    "critical_path",
                    name,
                    s,
                    f,
                    &[("task", AttrValue::U64(u64::from(task)))],
                );
            }
            r.gauge_set(
                now,
                "triosim_critical_path_seconds",
                &[],
                bn.critical_path_s,
            );
            r.gauge_set(
                now,
                "triosim_exposed_comm_fraction",
                &[],
                bn.exposed_comm_fraction,
            );
            for (g, b) in bn.per_gpu.iter().enumerate() {
                let label = g.to_string();
                r.gauge_set(
                    now,
                    "triosim_gpu_exposed_comm_seconds",
                    &[("gpu", &label)],
                    b.exposed_comm_s,
                );
                r.gauge_set(
                    now,
                    "triosim_gpu_idle_seconds",
                    &[("gpu", &label)],
                    b.idle_s,
                );
            }
            r.gauge_set(
                now,
                "triosim_stragglers_flagged",
                &[],
                bn.stragglers.len() as f64,
            );
        }
        r.gauge_set(now, "triosim_sim_time_seconds", &[], total_s);
        if let Err(e) = r.finish() {
            eprintln!("warning: observability sink error: {e}");
        }
    }

    /// Seeds the graph's roots at the current virtual time and drains the
    /// event queue.
    fn run_once(&mut self) {
        self.iter_begin = self.queue.now();
        self.attr_start.fill(None);
        self.attr_end.fill(None);
        self.attr_gpu_pred.fill(None);
        self.last_done.fill(None);
        // Seed: every task with no dependencies starts immediately.
        let roots: Vec<TaskId> = (0..self.graph.len())
            .filter(|&i| self.indegree[i] == 0)
            .map(TaskId)
            .collect();
        for t in roots {
            self.activate(t);
        }

        // Arm the first monitor tick only if real work is pending.
        if self.ticking && self.pending_real > 0 && self.tick_event.is_none() {
            let at = self
                .ticker
                .as_mut()
                .expect("ticking implies a ticker")
                .first_tick(self.queue.now());
            self.tick_event = Some(self.queue.schedule(at, Event::MonitorTick));
        }
        // Likewise the next pending fault: armed only while real work
        // remains, so it can never extend the run.
        if self.pending_real > 0 {
            self.arm_next_fault();
        }

        while let Some((now, event)) = self.queue.pop() {
            // Runaway guard: real events are counted and checked before
            // they are processed, so with `max_events = N` exactly N
            // events take effect. Ticks and fault injections are
            // excluded so budget trips are independent of observability
            // settings and fault-plan shape.
            if let Some(b) = &self.budget {
                if matches!(
                    event,
                    Event::ComputeDone { .. } | Event::FlowDelivered { .. }
                ) {
                    self.budget_events += 1;
                    if let Some((kind, limit)) = b.check(self.budget_events, now) {
                        self.stop_error = Some(SimError::BudgetExceeded { kind, limit });
                        return;
                    }
                }
            }
            match event {
                Event::ComputeDone { gpu, task } => {
                    self.pending_real -= 1;
                    self.dispatches[0] += 1;
                    self.gpus[gpu].busy = false;
                    let start = self.compute_start[task.0].expect("compute was started");
                    self.gpus[gpu].busy_time += now - start;
                    self.attr_end[task.0] = Some(now);
                    self.last_done[gpu] = Some(task.0 as u32);
                    self.timeline.push(TimelineRecord {
                        label: self.graph.tasks()[task.0].label.clone(),
                        track: TimelineTrack::Gpu(gpu),
                        start,
                        end: now,
                        layer: self.graph.tasks()[task.0].layer,
                    });
                    if self.observing {
                        self.record_compute(gpu, task, start, now);
                    }
                    self.complete(task);
                    self.try_start_gpu(gpu);
                }
                Event::FlowDelivered { flow } => {
                    self.pending_real -= 1;
                    self.dispatches[1] += 1;
                    self.flow_event.remove(&flow);
                    let task = self
                        .flow_task
                        .remove(&flow)
                        .expect("delivered flow belongs to a task");
                    let start = self.flow_start.remove(&flow).expect("flow start recorded");
                    self.attr_end[task.0] = Some(now);
                    self.comm_intervals.push((start, now));
                    self.timeline.push(TimelineRecord {
                        label: self.graph.tasks()[task.0].label.clone(),
                        track: TimelineTrack::Network,
                        start,
                        end: now,
                        layer: self.graph.tasks()[task.0].layer,
                    });
                    if let TaskKind::Transfer { bytes, .. } = self.graph.tasks()[task.0].kind {
                        self.bytes_transferred += bytes;
                    }
                    if self.observing {
                        self.record_flow(task, start, now);
                    }
                    let cmds = if self.profiling {
                        let t0 = Instant::now();
                        let cmds = self.network.deliver(flow, now);
                        self.net_wall_s += t0.elapsed().as_secs_f64();
                        self.net_wall_calls += 1;
                        cmds
                    } else {
                        self.network.deliver(flow, now)
                    };
                    self.apply(cmds);
                    self.complete(task);
                }
                Event::MonitorTick => {
                    self.tick_event = None;
                    self.dispatches[2] += 1;
                    self.sample(now);
                    if self.pending_real > 0 {
                        if let Some(at) = self.ticker.as_mut().and_then(|t| t.next_tick(now)) {
                            self.tick_event = Some(self.queue.schedule(at, Event::MonitorTick));
                        }
                    }
                    continue;
                }
                Event::Fault { idx } => {
                    self.dispatches[3] += 1;
                    if let Some(fr) = self.faults.as_mut() {
                        fr.fault_event = None;
                        fr.cursor = idx + 1;
                    }
                    self.apply_fault(now, idx);
                    if self.stop_error.is_some() {
                        return;
                    }
                    if self.pending_real > 0 {
                        self.arm_next_fault();
                    }
                }
            }
            if self.stop_error.is_some() {
                return;
            }
            // A tick never outlives the real work: cancel the pending one
            // as soon as the queue holds nothing else, so the trailing
            // tick cannot inflate `queue.now()` past the last real event.
            // The same goes for an armed fault.
            if self.pending_real == 0 {
                if let Some(id) = self.tick_event.take() {
                    self.queue.cancel(id);
                }
                if let Some(id) = self.faults.as_mut().and_then(|fr| fr.fault_event.take()) {
                    self.queue.cancel(id);
                }
            }
        }
    }

    /// Schedules the next timeline fault (if any) at its injection time,
    /// clamped forward to `now` — time never runs backwards, so a fault
    /// whose nominal time already passed fires immediately.
    fn arm_next_fault(&mut self) {
        let now = self.queue.now();
        let Some(fr) = self.faults.as_mut() else {
            return;
        };
        if fr.fault_event.is_some() {
            return;
        }
        let Some(tf) = fr.session.timeline().get(fr.cursor) else {
            return;
        };
        let at = VirtualTime::from_seconds(tf.at_s).max(now);
        let idx = fr.cursor;
        fr.fault_event = Some(self.queue.schedule(at, Event::Fault { idx }));
    }

    /// Injects timeline entry `idx` into the network (or drops a GPU),
    /// recording attribution counters and observability events.
    fn apply_fault(&mut self, now: VirtualTime, idx: usize) {
        let kind = {
            let Some(fr) = self.faults.as_mut() else {
                return;
            };
            let kind = fr.session.timeline()[idx].kind;
            fr.injected += 1;
            match kind {
                FaultKind::LinkDegrade { .. } => fr.injected_by_kind[0] += 1,
                FaultKind::LinkFail { src, dst } => {
                    fr.injected_by_kind[1] += 1;
                    fr.outage_since
                        .entry((src.min(dst), src.max(dst)))
                        .or_insert(now);
                }
                FaultKind::LinkRepair { .. } => fr.injected_by_kind[2] += 1,
                FaultKind::GpuDrop { .. } => fr.injected_by_kind[3] += 1,
            }
            kind
        };
        match kind {
            FaultKind::LinkDegrade { src, dst, factor } => {
                self.inject_link_fault(now, src, dst, LinkFault::Degrade { factor });
            }
            FaultKind::LinkFail { src, dst } => {
                self.inject_link_fault(now, src, dst, LinkFault::Fail);
            }
            FaultKind::LinkRepair { src, dst } => {
                self.inject_link_fault(now, src, dst, LinkFault::Repair);
                let down_at = self
                    .faults
                    .as_mut()
                    .and_then(|fr| fr.outage_since.remove(&(src.min(dst), src.max(dst))));
                if self.observing {
                    if let (Some(start), Some(r)) = (down_at, self.obs.recorder.as_mut()) {
                        r.span(
                            "faults",
                            &format!("outage n{src}<->n{dst}"),
                            start,
                            now,
                            &[
                                ("src", AttrValue::U64(src as u64)),
                                ("dst", AttrValue::U64(dst as u64)),
                            ],
                        );
                    }
                }
            }
            FaultKind::GpuDrop { gpu } => {
                self.stop_error = Some(SimError::GpuLost {
                    gpu,
                    at_s: now.as_seconds(),
                });
            }
        }
        if self.observing {
            let label = kind.label();
            let (a, b) = match kind {
                FaultKind::LinkDegrade { src, dst, .. }
                | FaultKind::LinkFail { src, dst }
                | FaultKind::LinkRepair { src, dst } => (src as u64, dst as u64),
                FaultKind::GpuDrop { gpu } => (gpu as u64, gpu as u64),
            };
            if let Some(r) = self.obs.recorder.as_mut() {
                r.instant(
                    now,
                    "faults",
                    label,
                    &[("a", AttrValue::U64(a)), ("b", AttrValue::U64(b))],
                );
            }
        }
    }

    /// Routes one link fault into the network model; a resulting
    /// partition becomes the run's structured error.
    fn inject_link_fault(&mut self, now: VirtualTime, src: usize, dst: usize, fault: LinkFault) {
        match self
            .network
            .apply_link_fault(now, NodeId(src), NodeId(dst), fault)
        {
            Ok(cmds) => self.apply(cmds),
            Err(e) => {
                self.stop_error = Some(SimError::Partitioned {
                    src: e.src.0,
                    dst: e.dst.0,
                    at_s: now.as_seconds(),
                });
            }
        }
    }

    /// Emits the span and metrics for one finished compute task.
    fn record_compute(&mut self, gpu: usize, task: TaskId, start: VirtualTime, now: VirtualTime) {
        let graph = self.graph;
        let t = &graph.tasks()[task.0];
        let Some(r) = self.obs.recorder.as_mut() else {
            return;
        };
        let track = format!("gpu{gpu}");
        match t.layer {
            Some(layer) => r.span(
                &track,
                &t.label,
                start,
                now,
                &[("layer", AttrValue::U64(layer as u64))],
            ),
            None => r.span(&track, &t.label, start, now, &[]),
        }
        let dur = (now - start).as_seconds();
        r.histogram_record("triosim_operator_duration_seconds", &[], dur);
        r.counter_add("triosim_tasks_executed_total", &[("kind", "compute")], 1.0);
        let label = gpu.to_string();
        r.counter_add("triosim_gpu_tasks_total", &[("gpu", &label)], 1.0);
    }

    /// Emits the span and metrics for one delivered transfer.
    fn record_flow(&mut self, task: TaskId, start: VirtualTime, now: VirtualTime) {
        let graph = self.graph;
        let t = &graph.tasks()[task.0];
        let TaskKind::Transfer { bytes, .. } = t.kind else {
            return;
        };
        let Some(r) = self.obs.recorder.as_mut() else {
            return;
        };
        r.span(
            "network",
            &t.label,
            start,
            now,
            &[("bytes", AttrValue::U64(bytes))],
        );
        r.histogram_record(
            "triosim_flow_duration_seconds",
            &[],
            (now - start).as_seconds(),
        );
        r.counter_add("triosim_tasks_executed_total", &[("kind", "transfer")], 1.0);
    }

    /// One monitor-tick sample: queue depth, in-flight flows, per-link
    /// utilization over the window since the previous sample, and the
    /// live progress line.
    fn sample(&mut self, now: VirtualTime) {
        let net = self.network.observe();
        if self.observing {
            let depth = self.queue.len() as f64;
            let links = self.network.observe_links();
            let dt = (now - self.prev_sample_at).as_seconds();
            if let Some(r) = self.obs.recorder.as_mut() {
                r.gauge_set(now, "triosim_queue_depth", &[], depth);
                r.gauge_set(
                    now,
                    "triosim_net_flows_in_flight",
                    &[],
                    net.in_flight as f64,
                );
                if dt > 0.0 {
                    if self.prev_link_busy.len() != links.len() {
                        self.prev_link_busy.resize(links.len(), 0.0);
                    }
                    for (i, l) in links.iter().enumerate() {
                        let util = ((l.busy_s - self.prev_link_busy[i]) / dt).clamp(0.0, 1.0);
                        r.gauge_set(now, "triosim_link_utilization", &[("link", &l.label)], util);
                        self.prev_link_busy[i] = l.busy_s;
                    }
                }
            }
            self.prev_sample_at = now;
        }
        if let Some(p) = self.obs.progress.as_mut() {
            p.sample(now, self.queue.stats().delivered(), net.in_flight);
        }
    }

    /// Marks `task` complete and activates newly unblocked tasks.
    fn complete(&mut self, task: TaskId) {
        // Worklist to avoid recursion through long barrier chains.
        let mut work = vec![task];
        while let Some(t) = work.pop() {
            if self.stop_error.is_some() {
                return;
            }
            self.completed += 1;
            if self.observing {
                self.record_completion(t);
            }
            for i in 0..self.dependents[t.0].len() {
                let dep = self.dependents[t.0][i];
                self.indegree[dep.0] -= 1;
                if self.indegree[dep.0] == 0 {
                    if let Some(done_now) = self.activate_inline(dep) {
                        work.push(done_now);
                    }
                }
            }
        }
    }

    /// Observability bookkeeping for one completed task: barrier counts
    /// and, for a collective's final barrier, the retrospective span.
    fn record_completion(&mut self, task: TaskId) {
        let graph = self.graph;
        if matches!(graph.tasks()[task.0].kind, TaskKind::Barrier) {
            if let Some(r) = self.obs.recorder.as_mut() {
                r.counter_add("triosim_tasks_executed_total", &[("kind", "barrier")], 1.0);
            }
        }
        let Some(&ci) = self.collective_of_last.get(&task) else {
            return;
        };
        let meta = &graph.collectives()[ci];
        let now = self.queue.now();
        let begin = self.collective_begin[ci].take().unwrap_or(now);
        let Some(r) = self.obs.recorder.as_mut() else {
            return;
        };
        r.span(
            "collectives",
            &meta.label,
            begin,
            now,
            &[
                ("algorithm", AttrValue::Str(meta.algorithm)),
                ("payload_bytes", AttrValue::U64(meta.payload_bytes)),
                ("participants", AttrValue::U64(meta.participants as u64)),
                ("steps", AttrValue::U64(meta.steps as u64)),
            ],
        );
        let labels = [("algorithm", meta.algorithm)];
        r.counter_add("triosim_collectives_total", &labels, 1.0);
        r.counter_add(
            "triosim_collective_payload_bytes_total",
            &labels,
            meta.payload_bytes as f64,
        );
        r.histogram_record(
            "triosim_collective_duration_seconds",
            &labels,
            (now - begin).as_seconds(),
        );
    }

    fn activate(&mut self, task: TaskId) {
        if let Some(done_now) = self.activate_inline(task) {
            self.complete(done_now);
        }
    }

    /// Starts a task. Barriers complete instantly: the caller receives
    /// them back to cascade completion without recursion.
    fn activate_inline(&mut self, task: TaskId) -> Option<TaskId> {
        match &self.graph.tasks()[task.0].kind {
            TaskKind::Barrier => {
                let now = self.queue.now();
                self.attr_start[task.0] = Some(now);
                self.attr_end[task.0] = Some(now);
                Some(task)
            }
            TaskKind::Compute { gpu, .. } => {
                self.gpus[*gpu].ready.push_back(task);
                self.try_start_gpu(*gpu);
                None
            }
            TaskKind::Transfer { src, dst, bytes } => {
                let now = self.queue.now();
                self.attr_start[task.0] = Some(now);
                if self.observing {
                    if let Some(&ci) = self.collective_of_first.get(&task) {
                        self.collective_begin[ci].get_or_insert(now);
                    }
                }
                if self.faults.is_some() {
                    // Under fault injection a missing path is a runtime
                    // outcome (an injected failure partitioned the
                    // topology), not a configuration bug: surface it as
                    // the run's structured error instead of panicking.
                    match self.network.try_send(now, *src, *dst, *bytes) {
                        Ok((flow, cmds)) => {
                            self.flow_task.insert(flow, task);
                            self.flow_start.insert(flow, now);
                            self.apply(cmds);
                        }
                        Err(e) => {
                            self.stop_error = Some(SimError::Partitioned {
                                src: e.src.0,
                                dst: e.dst.0,
                                at_s: now.as_seconds(),
                            });
                        }
                    }
                } else {
                    let t0 = self.profiling.then(Instant::now);
                    let (flow, cmds) = self.network.send(now, *src, *dst, *bytes);
                    if let Some(t0) = t0 {
                        self.net_wall_s += t0.elapsed().as_secs_f64();
                        self.net_wall_calls += 1;
                    }
                    self.flow_task.insert(flow, task);
                    self.flow_start.insert(flow, now);
                    self.apply(cmds);
                }
                None
            }
        }
    }

    fn try_start_gpu(&mut self, gpu: usize) {
        if self.gpus[gpu].busy {
            return;
        }
        let Some(task) = self.gpus[gpu].ready.pop_front() else {
            return;
        };
        let TaskKind::Compute { duration, .. } = self.graph.tasks()[task.0].kind else {
            unreachable!("GPU queues hold compute tasks only");
        };
        let duration = self.dilated(gpu, task, duration);
        self.gpus[gpu].busy = true;
        let now = self.queue.now();
        self.compute_start[task.0] = Some(now);
        self.attr_start[task.0] = Some(now);
        self.attr_gpu_pred[task.0] = self.last_done[gpu];
        self.pending_real += 1;
        self.queue
            .schedule(now + duration, Event::ComputeDone { gpu, task });
    }

    /// Applies the session's compute slowdown and per-op jitter to one
    /// operator duration, attributing the added time to the GPU. The
    /// fault-free path returns `duration` untouched (no float math), so
    /// empty plans stay bit-identical to plain runs.
    fn dilated(&mut self, gpu: usize, task: TaskId, duration: TimeSpan) -> TimeSpan {
        let Some(fr) = self.faults.as_mut() else {
            return duration;
        };
        let factor = fr.session.compute_factor(gpu)
            * fr.session.jitter_factor(gpu, task.0, self.current_iter);
        if factor == 1.0 {
            return duration;
        }
        let dilated = duration * factor;
        fr.lost_compute[gpu] += (dilated - duration).as_seconds();
        dilated
    }

    fn apply(&mut self, cmds: Vec<NetCommand>) {
        for cmd in cmds {
            match cmd {
                NetCommand::Schedule { flow, at } => {
                    if let Some(old) = self.flow_event.remove(&flow) {
                        if self.queue.cancel(old) {
                            self.pending_real -= 1;
                        }
                    }
                    self.pending_real += 1;
                    let id = self.queue.schedule(at, Event::FlowDelivered { flow });
                    self.flow_event.insert(flow, id);
                }
                NetCommand::Cancel { flow } => {
                    if let Some(old) = self.flow_event.remove(&flow) {
                        if self.queue.cancel(old) {
                            self.pending_real -= 1;
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taskgraph::TaskGraph;
    use triosim_des::TimeSpan;
    use triosim_network::{FlowNetwork, NodeId, Topology};

    fn net2() -> FlowNetwork {
        let mut t = Topology::new(2);
        t.add_duplex(NodeId(0), NodeId(1), 1e9, 0.0);
        FlowNetwork::new(t)
    }

    #[test]
    fn serial_compute_chain_sums_durations() {
        let mut g = TaskGraph::new(1);
        let a = g.compute("a", 0, TimeSpan::from_millis(2.0), vec![]);
        let b = g.compute("b", 0, TimeSpan::from_millis(3.0), vec![a]);
        g.compute("c", 0, TimeSpan::from_millis(5.0), vec![b]);
        let mut net = net2();
        let r = execute(&g, &mut net);
        assert!((r.total_time_s() - 0.010).abs() < 1e-12);
        assert!((r.compute_time_s() - 0.010).abs() < 1e-12);
        assert_eq!(r.comm_time_s(), 0.0);
    }

    #[test]
    fn independent_tasks_on_one_gpu_serialize() {
        let mut g = TaskGraph::new(1);
        g.compute("a", 0, TimeSpan::from_millis(1.0), vec![]);
        g.compute("b", 0, TimeSpan::from_millis(1.0), vec![]);
        let mut net = net2();
        let r = execute(&g, &mut net);
        assert!((r.total_time_s() - 0.002).abs() < 1e-12, "one stream");
    }

    #[test]
    fn independent_tasks_on_two_gpus_parallelize() {
        let mut g = TaskGraph::new(2);
        g.compute("a", 0, TimeSpan::from_millis(1.0), vec![]);
        g.compute("b", 1, TimeSpan::from_millis(1.0), vec![]);
        let mut net = net2();
        let r = execute(&g, &mut net);
        assert!((r.total_time_s() - 0.001).abs() < 1e-12);
    }

    #[test]
    fn transfer_overlaps_compute() {
        let mut g = TaskGraph::new(1);
        // 10 ms compute and a 10 MB transfer (10 ms at 1 GB/s) overlap.
        g.compute("work", 0, TimeSpan::from_millis(10.0), vec![]);
        g.transfer("move", NodeId(0), NodeId(1), 10_000_000, vec![]);
        let mut net = net2();
        let r = execute(&g, &mut net);
        assert!(
            (r.total_time_s() - 0.010).abs() < 1e-9,
            "{}",
            r.total_time_s()
        );
        assert!((r.comm_time_s() - 0.010).abs() < 1e-9);
    }

    #[test]
    fn dependencies_order_execution() {
        let mut g = TaskGraph::new(1);
        let t = g.transfer("move", NodeId(0), NodeId(1), 5_000_000, vec![]);
        g.compute("after", 0, TimeSpan::from_millis(1.0), vec![t]);
        let mut net = net2();
        let r = execute(&g, &mut net);
        assert!((r.total_time_s() - 0.006).abs() < 1e-9);
    }

    #[test]
    fn barriers_are_free() {
        let mut g = TaskGraph::new(1);
        let a = g.compute("a", 0, TimeSpan::from_millis(1.0), vec![]);
        let b = g.barrier("sync", vec![a]);
        let b2 = g.barrier("sync2", vec![b]);
        g.compute("c", 0, TimeSpan::from_millis(1.0), vec![b2]);
        let mut net = net2();
        let r = execute(&g, &mut net);
        assert!((r.total_time_s() - 0.002).abs() < 1e-12);
        assert_eq!(r.tasks_executed(), 4);
    }

    #[test]
    fn empty_graph_finishes_at_zero() {
        let g = TaskGraph::new(1);
        let mut net = net2();
        let r = execute(&g, &mut net);
        assert_eq!(r.total_time_s(), 0.0);
    }

    #[test]
    fn timeline_records_tasks() {
        let mut g = TaskGraph::new(1);
        g.compute("op1", 0, TimeSpan::from_millis(1.0), vec![]);
        g.transfer("mv", NodeId(0), NodeId(1), 1_000_000, vec![]);
        let mut net = net2();
        let r = execute(&g, &mut net);
        assert_eq!(r.timeline().len(), 2);
        let tracks: Vec<_> = r.timeline().iter().map(|t| t.track).collect();
        assert!(tracks.contains(&TimelineTrack::Gpu(0)));
        assert!(tracks.contains(&TimelineTrack::Network));
    }

    #[test]
    fn iterations_chain_in_time() {
        let mut g = TaskGraph::new(1);
        g.compute("a", 0, TimeSpan::from_millis(2.0), vec![]);
        let mut net = net2();
        let r = execute_iterations(&g, &mut net, 5);
        assert!((r.total_time_s() - 0.010).abs() < 1e-12, "5 x 2 ms");
        assert_eq!(r.tasks_executed(), 5);
        assert_eq!(r.timeline().len(), 5);
    }

    #[test]
    fn network_state_persists_across_iterations() {
        use triosim_network::{PhotonicConfig, PhotonicNetwork};
        let mut g = TaskGraph::new(1);
        g.transfer("mv", NodeId(0), NodeId(1), 1 << 20, vec![]);
        let mut net = PhotonicNetwork::new(2, PhotonicConfig::passage());
        let r1 = execute(&g, &mut PhotonicNetwork::new(2, PhotonicConfig::passage()));
        let r10 = execute_iterations(&g, &mut net, 10);
        // One iteration pays the 20 ms setup; ten iterations pay it once.
        assert!(r1.total_time_s() > 20e-3);
        assert!(
            r10.total_time_s() < 10.0 * r1.total_time_s() / 2.0,
            "amortized: {} vs 10 x {}",
            r10.total_time_s(),
            r1.total_time_s()
        );
        assert_eq!(net.circuits_established(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn zero_iterations_rejected() {
        let g = TaskGraph::new(1);
        execute_iterations(&g, &mut net2(), 0);
    }

    #[test]
    fn concurrent_transfers_share_and_finish_together() {
        let mut g = TaskGraph::new(1);
        g.transfer("m1", NodeId(0), NodeId(1), 1_000_000, vec![]);
        g.transfer("m2", NodeId(0), NodeId(1), 1_000_000, vec![]);
        let mut net = net2();
        let r = execute(&g, &mut net);
        assert!((r.total_time_s() - 0.002).abs() < 1e-9, "fair sharing");
        assert_eq!(r.bytes_transferred(), 2_000_000);
    }

    // ---------------- observability ----------------

    use std::sync::{Arc, Mutex};
    use triosim_obs::{JsonlSink, RunRecorder};

    /// A cloneable writer capturing everything written through it, so a
    /// test can read back sink output after the executor consumed the
    /// recorder.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl SharedBuf {
        fn take_string(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    impl std::io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn overlap_graph() -> TaskGraph {
        let mut g = TaskGraph::new(1);
        g.compute("work", 0, TimeSpan::from_millis(10.0), vec![]);
        let t = g.transfer("move", NodeId(0), NodeId(1), 10_000_000, vec![]);
        g.barrier("done", vec![t]);
        g
    }

    fn jsonl_obs(buf: &SharedBuf) -> Observability {
        let mut rec = RunRecorder::new();
        rec.push(Box::new(JsonlSink::new(buf.clone())));
        Observability::off()
            .with_recorder(Box::new(rec))
            .with_sample_period(TimeSpan::from_millis(1.0))
    }

    #[test]
    fn monitor_ticks_never_change_simulation_results() {
        let g = overlap_graph();
        let plain = execute_iterations(&g, &mut net2(), 3);
        let buf = SharedBuf::default();
        let observed = execute_observed(&g, &mut net2(), 3, jsonl_obs(&buf));
        assert_eq!(plain.total_time(), observed.total_time());
        assert_eq!(plain.bytes_transferred(), observed.bytes_transferred());
        assert_eq!(plain.compute_time_s(), observed.compute_time_s());
        assert_eq!(plain.timeline().len(), observed.timeline().len());
        // The ticks really fired: gauges were sampled along the way.
        let out = buf.take_string();
        assert!(out.contains("triosim_queue_depth"), "{out}");
    }

    #[test]
    fn observed_run_emits_spans_and_end_of_run_metrics() {
        let g = overlap_graph();
        let buf = SharedBuf::default();
        execute_observed(&g, &mut net2(), 1, jsonl_obs(&buf));
        let out = buf.take_string();
        assert!(out.contains("\"track\":\"gpu0\""), "compute span: {out}");
        assert!(out.contains("\"track\":\"network\""), "flow span: {out}");
        assert!(out.contains("triosim_events_delivered_total"), "{out}");
        assert!(out.contains("triosim_sim_time_seconds"), "{out}");
        assert!(out.contains("triosim_net_flows_completed_total"), "{out}");
    }

    #[test]
    fn observed_output_is_deterministic() {
        let run = || {
            let g = overlap_graph();
            let buf = SharedBuf::default();
            execute_observed(&g, &mut net2(), 2, jsonl_obs(&buf));
            buf.take_string()
        };
        let a = run();
        let b = run();
        assert!(!a.is_empty());
        assert_eq!(a, b, "two identical runs must produce identical bytes");
    }

    #[test]
    fn collective_completion_emits_tagged_span() {
        use crate::taskgraph::CollectiveMeta;
        let mut g = TaskGraph::new(2);
        let t = g.transfer("ar.s0.0->1", NodeId(0), NodeId(1), 1_000_000, vec![]);
        let done = g.barrier("ar.s0.done", vec![t]);
        g.register_collective(CollectiveMeta {
            label: "ar".into(),
            algorithm: "allreduce",
            payload_bytes: 1_000_000,
            participants: 2,
            steps: 1,
            first: t,
            last: done,
        });
        let buf = SharedBuf::default();
        execute_observed(&g, &mut net2(), 1, jsonl_obs(&buf));
        let out = buf.take_string();
        assert!(out.contains("\"track\":\"collectives\""), "{out}");
        assert!(out.contains("\"algorithm\":\"allreduce\""), "{out}");
        assert!(out.contains("triosim_collectives_total"), "{out}");
    }

    // ---------------- fault injection ----------------

    #[test]
    fn empty_plan_is_bit_identical_to_plain_run() {
        let g = overlap_graph();
        let plain = execute_iterations(&g, &mut net2(), 3);
        let faulted = execute_faulted(
            &g,
            &mut net2(),
            3,
            Observability::off(),
            &triosim_faults::FaultPlan::default(),
        )
        .expect("empty plan cannot fail");
        assert_eq!(plain.total_time(), faulted.total_time());
        assert_eq!(plain.bytes_transferred(), faulted.bytes_transferred());
        assert_eq!(plain.timeline(), faulted.timeline());
        assert!(faulted.fault_stats().is_none(), "no session attached");
    }

    #[test]
    fn straggler_gpu_dilates_compute_and_attributes_loss() {
        let mut g = TaskGraph::new(2);
        g.compute("a", 0, TimeSpan::from_millis(1.0), vec![]);
        g.compute("b", 1, TimeSpan::from_millis(1.0), vec![]);
        let plan = triosim_faults::FaultPlan {
            gpu_slowdowns: vec![triosim_faults::GpuSlowdown {
                gpu: 1,
                factor: 3.0,
            }],
            ..Default::default()
        };
        let r = execute_faulted(&g, &mut net2(), 1, Observability::off(), &plan).unwrap();
        assert!(
            (r.total_time_s() - 0.003).abs() < 1e-9,
            "{}",
            r.total_time_s()
        );
        let fs = r.fault_stats().expect("session attached");
        assert!(fs.lost_compute_s[0].abs() < 1e-12);
        assert!((fs.lost_compute_s[1] - 0.002).abs() < 1e-9);
    }

    #[test]
    fn link_failure_on_chain_returns_partitioned_error() {
        // 0 - 1 - 2 chain; a long transfer 0 -> 2 is in flight when the
        // 1<->2 link dies at 1 ms. No alternative path: structured error.
        let mut t = Topology::new(3);
        t.add_duplex(NodeId(0), NodeId(1), 1e9, 0.0);
        t.add_duplex(NodeId(1), NodeId(2), 1e9, 0.0);
        let mut net = FlowNetwork::new(t);
        let mut g = TaskGraph::new(1);
        g.transfer("mv", NodeId(0), NodeId(2), 100_000_000, vec![]);
        let plan = triosim_faults::FaultPlan {
            link_failures: vec![triosim_faults::LinkFailure {
                src: 1,
                dst: 2,
                at_s: 0.001,
                repair_s: None,
            }],
            ..Default::default()
        };
        let err = execute_faulted(&g, &mut net, 1, Observability::off(), &plan).unwrap_err();
        assert_eq!(
            err,
            crate::error::SimError::Partitioned {
                src: 0,
                dst: 2,
                at_s: 0.001
            }
        );
    }

    #[test]
    fn link_failure_on_ring_reroutes_and_counts_hops() {
        let mut net = FlowNetwork::new(Topology::ring(4, 1e9, 0.0));
        let mut g = TaskGraph::new(1);
        g.transfer("mv", NodeId(0), NodeId(1), 10_000_000, vec![]);
        let plan = triosim_faults::FaultPlan {
            link_failures: vec![triosim_faults::LinkFailure {
                src: 0,
                dst: 1,
                at_s: 0.001,
                repair_s: None,
            }],
            ..Default::default()
        };
        let r = execute_faulted(&g, &mut net, 1, Observability::off(), &plan).unwrap();
        assert_eq!(r.network_stats().reroutes, 1);
        assert_eq!(r.network_stats().added_hops, 2, "1 hop -> 3 hops");
        // A lone flow keeps its 1 GB/s bottleneck on the detour (zero
        // link latency), so it still finishes on time — rerouted, not
        // hung, is the point.
        assert!(
            (r.total_time_s() - 0.010).abs() < 1e-9,
            "{}",
            r.total_time_s()
        );
    }

    #[test]
    fn gpu_dropout_returns_gpu_lost() {
        let mut g = TaskGraph::new(2);
        g.compute("a", 0, TimeSpan::from_millis(5.0), vec![]);
        g.compute("b", 1, TimeSpan::from_millis(5.0), vec![]);
        let plan = triosim_faults::FaultPlan {
            gpu_dropouts: vec![triosim_faults::GpuDropout {
                gpu: 1,
                at_s: 0.001,
            }],
            ..Default::default()
        };
        let err = execute_faulted(&g, &mut net2(), 1, Observability::off(), &plan).unwrap_err();
        assert!(matches!(
            err,
            crate::error::SimError::GpuLost { gpu: 1, .. }
        ));
    }

    #[test]
    fn fault_injected_runs_are_deterministic() {
        let run = || {
            let mut g = TaskGraph::new(2);
            for i in 0..8 {
                g.compute(format!("op{i}"), i % 2, TimeSpan::from_millis(1.0), vec![]);
            }
            let plan = triosim_faults::FaultPlan {
                seed: 42,
                jitter: Some(triosim_faults::Jitter { amplitude: 0.5 }),
                gpu_slowdowns: vec![triosim_faults::GpuSlowdown {
                    gpu: 0,
                    factor: 1.5,
                }],
                ..Default::default()
            };
            let r = execute_faulted(&g, &mut net2(), 3, Observability::off(), &plan).unwrap();
            (r.total_time(), r.fault_stats().cloned())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn fault_past_end_of_run_never_extends_it() {
        let mut g = TaskGraph::new(1);
        g.compute("a", 0, TimeSpan::from_millis(1.0), vec![]);
        let plan = triosim_faults::FaultPlan {
            link_failures: vec![triosim_faults::LinkFailure {
                src: 0,
                dst: 1,
                at_s: 999.0,
                repair_s: None,
            }],
            ..Default::default()
        };
        let r = execute_faulted(&g, &mut net2(), 1, Observability::off(), &plan).unwrap();
        assert!((r.total_time_s() - 0.001).abs() < 1e-12);
        assert_eq!(r.fault_stats().unwrap().faults_injected, 0, "never fired");
    }

    #[test]
    fn fault_events_surface_in_observability() {
        let mut net = FlowNetwork::new(Topology::ring(4, 1e9, 0.0));
        let mut g = TaskGraph::new(1);
        g.transfer("mv", NodeId(0), NodeId(1), 20_000_000, vec![]);
        let plan = triosim_faults::FaultPlan {
            link_failures: vec![triosim_faults::LinkFailure {
                src: 0,
                dst: 1,
                at_s: 0.001,
                repair_s: Some(0.005),
            }],
            ..Default::default()
        };
        let buf = SharedBuf::default();
        let r = execute_faulted(&g, &mut net, 1, jsonl_obs(&buf), &plan).unwrap();
        let out = buf.take_string();
        assert!(out.contains("link_fail"), "{out}");
        assert!(out.contains("triosim_faults_injected_total"), "{out}");
        assert!(
            out.contains("outage n0<->n1"),
            "repair closes the outage span: {out}"
        );
        assert_eq!(r.fault_stats().unwrap().link_repairs, 1);
    }

    #[test]
    fn progress_monitor_reports_through_executor() {
        let g = overlap_graph();
        let buf = SharedBuf::default();
        let monitor = triosim_obs::ProgressMonitor::with_writer(Box::new(buf.clone()))
            .throttle(std::time::Duration::ZERO);
        let obs = Observability::off().with_progress(monitor);
        execute_observed(&g, &mut net2(), 1, obs);
        let out = buf.take_string();
        assert!(out.contains("progress: done"), "{out}");
    }
}
