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
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use triosim_des::{EventId, EventQueue, IdMap, RunBudget, TimeSpan, VirtualTime, FNV_OFFSET};
use triosim_faults::{FaultKind, FaultPlan, FaultSession};
use triosim_network::{FlowId, LinkFault, NetCommand, NetStatsSnapshot, NetworkModel, NodeId};
use triosim_obs::{
    AttrValue, AttributionAccumulator, BottleneckReport, HotLink, IterationObservation,
    ProgressMonitor, Recorder, SelfProfiler, TaskClass, NOT_RUN, NO_TASK,
};

use crate::checkpoint::{
    self, CheckpointConfig, CheckpointError, ExecutorState, FaultState, OutageState, RunTotals,
    SimSnapshot,
};
use crate::error::SimError;
use crate::report::{
    timeline_fnv, FaultStats, Repeat, ReplayFold, SerialReason, SimReport, TimelineEntry,
    TimelineTrack,
};
use crate::taskgraph::{TaskGraph, TaskId, TaskKind};

#[derive(Debug)]
enum Event {
    ComputeDone { gpu: usize, task: TaskId },
    FlowDelivered { flow: FlowId },
}

/// Observability options for one execution run.
///
/// The default is fully off: no recorder, no progress reporting, no
/// samples. With a recorder attached, the executor emits per-operator and
/// per-collective spans, per-event-kind dispatch counters, and gauges
/// (queue depth, in-flight flows, per-link utilization) sampled every
/// `sample_period` of virtual time. Samples are taken between events,
/// never scheduled as events, so they cannot change the run's results
/// or its canonical bytes; none is taken once no event remains.
#[derive(Debug)]
pub struct Observability {
    /// Receives spans and metrics. `None` (or a disabled recorder)
    /// skips all instrumentation.
    pub recorder: Option<Box<dyn Recorder>>,
    /// Live wall-clock progress reporting (stderr by default).
    pub progress: Option<ProgressMonitor>,
    /// Virtual-time period between monitor samples; must be positive
    /// when a recorder or progress monitor is attached.
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
}

/// Everything one run carries besides its graph and network.
///
/// The default is one plain iteration: no observability, an empty fault
/// plan, an unlimited budget, no profiler, no snapshots. An empty plan
/// and an unlimited budget mean "none": the run takes the same code path
/// and produces the same report as without them.
#[derive(Debug)]
pub struct RunOptions<'a> {
    /// Back-to-back iterations on the same network state. Network state
    /// persists across them, which lets the photonic model amortize its
    /// circuit setup over a training run.
    pub iterations: usize,
    /// Spans, metrics and live progress.
    pub observability: Observability,
    /// Timed faults, compute slowdowns and jitter applied while the graph
    /// executes, deterministic in the plan and its seed. It is consumed
    /// as-is: [`SimBuilder::try_run`](crate::SimBuilder::try_run)
    /// validates it against the platform first.
    pub faults: FaultPlan,
    /// Runaway guard over the whole multi-iteration run. Its event axis
    /// counts delivered compute and flow events.
    pub budget: RunBudget,
    /// Host self-profiler: wall time in the engine loop, and the network
    /// model's share of it, accumulates under an `engine_loop` span.
    pub profiler: Option<&'a mut SelfProfiler>,
    /// Writes a crash-safe snapshot to the path after every `n`-th
    /// completed iteration (DESIGN.md §13).
    pub checkpoint: Option<(PathBuf, usize)>,
    /// Resumes from a snapshot written by `checkpoint` and runs the
    /// remaining iterations.
    pub restore: Option<PathBuf>,
}

impl Default for RunOptions<'_> {
    fn default() -> Self {
        RunOptions {
            iterations: 1,
            observability: Observability::off(),
            faults: FaultPlan::default(),
            budget: RunBudget::unlimited(),
            profiler: None,
            checkpoint: None,
            restore: None,
        }
    }
}

/// Executes `graph` against `network` as `opts` describes, returning the
/// run report.
///
/// Deterministic: identical inputs give identical reports. Observability,
/// fault-free sessions, unlimited budgets, profiling and snapshots leave
/// the report, including its canonical bytes, unchanged.
///
/// A restoring run reads the snapshot, checks its spec hash against this
/// run's graph, network, fault plan and deterministic budget axes, applies
/// the network half, and simulates the remaining iterations: the report
/// is byte-identical to an uninterrupted run of `opts.iterations`.
///
/// # Errors
///
/// - [`SimError::Partitioned`] when a transfer's endpoints are not
///   connected, at the start or after an injected link failure;
/// - [`SimError::GpuLost`] when a GPU drop-out fires;
/// - [`SimError::BudgetExceeded`] when the run blows an axis of its budget;
/// - [`SimError::Checkpoint`] when a snapshot cannot be written, read or
///   applied.
///
/// # Panics
///
/// Panics if `opts.iterations` or the checkpoint cadence is zero, if a
/// recorder or progress monitor is attached with a zero sample period,
/// or if the graph deadlocks (a dependency cycle), which the
/// [`TaskGraph`] construction rules make impossible.
pub fn execute(
    graph: &TaskGraph,
    network: &mut dyn NetworkModel,
    mut opts: RunOptions<'_>,
) -> Result<SimReport, SimError> {
    let iterations = opts.iterations;
    assert!(iterations > 0, "need at least one iteration");
    let restore = opts.restore.take();
    if opts.checkpoint.is_none() && restore.is_none() {
        return Executor::new(graph, network, opts, 0).run(iterations);
    }
    let hash = checkpoint::spec_hash(graph, network, &opts.faults, &opts.budget);
    let Some(path) = restore else {
        return Executor::new(graph, network, opts, hash).run(iterations);
    };
    let snap = checkpoint::read_snapshot(&path).map_err(SimError::Checkpoint)?;
    let found = snap.parsed_spec_hash().map_err(SimError::Checkpoint)?;
    if found != hash {
        return Err(SimError::Checkpoint(CheckpointError::SpecMismatch {
            expected: hash,
            found,
        }));
    }
    let completed = snap.completed as usize;
    if completed > iterations {
        return Err(SimError::Checkpoint(CheckpointError::Corrupt(format!(
            "snapshot completed {completed} iterations but the run requests only {iterations}"
        ))));
    }
    network
        .restore_state(&snap.state.net)
        .map_err(|e| SimError::Checkpoint(CheckpointError::Corrupt(e.to_string())))?;
    Executor::new(graph, network, opts, hash)
        .with_restored_state(completed, snap.state)?
        .run(iterations - completed)
}

/// [`execute`] with positional options, as the repository benchmark
/// (`perfbench/`) calls it.
#[doc(hidden)]
pub fn execute_budgeted_profiled<'a>(
    graph: &'a TaskGraph,
    network: &'a mut dyn NetworkModel,
    iterations: usize,
    obs: Observability,
    plan: &FaultPlan,
    budget: RunBudget,
    prof: Option<&'a mut SelfProfiler>,
) -> Result<SimReport, SimError> {
    execute(
        graph,
        network,
        RunOptions {
            iterations,
            observability: obs,
            faults: plan.clone(),
            budget,
            profiler: prof,
            ..RunOptions::default()
        },
    )
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
    /// Next timeline entry to apply. Entries apply between events, each
    /// before the first event at or after its instant, so one due past
    /// the last event never applies and cannot extend the run.
    cursor: usize,
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
            injected: 0,
            injected_by_kind: [0; 4],
            lost_compute: vec![0.0; gpus],
            outage_since: HashMap::new(),
        }
    }
}

/// An empty attribution accumulator over `graph`'s tasks.
fn attribution(graph: &TaskGraph) -> AttributionAccumulator {
    AttributionAccumulator::new(graph.gpus(), graph.len())
}

/// How attribution classifies task `t` of `graph`.
fn task_class(graph: &TaskGraph, t: usize) -> TaskClass {
    match graph.tasks()[t].kind {
        TaskKind::Compute { gpu, .. } => TaskClass::Compute { gpu },
        TaskKind::Transfer { src, dst, .. } => TaskClass::Comm {
            src_gpu: node_gpu(src, graph.gpus()),
            dst_gpu: node_gpu(dst, graph.gpus()),
        },
        TaskKind::Barrier => TaskClass::Sync,
    }
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
    Steady(Synthesis),
}

/// What synthesizing repeats of a verified iteration carries.
struct Synthesis {
    /// The verified iteration.
    delta: IterationDelta,
    /// Its records' digest fold, built once.
    fold: ReplayFold,
    /// Repeats synthesized since the accumulator last absorbed the
    /// verified iteration's attribution: a snapshot or the report reads
    /// the accumulator only after [`Executor::absorb_pending`].
    pending: u64,
}

/// The run's totals and the network's statistics at an iteration
/// boundary, or what one iteration added to them.
#[derive(PartialEq)]
struct Counters {
    totals: RunTotals,
    net: NetStatsSnapshot,
}

impl Counters {
    /// What the counters grew by since `earlier`.
    fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            totals: self.totals.since(&earlier.totals),
            net: self.net.since(&earlier.net),
        }
    }
}

/// Where a measured iteration began.
struct Mark {
    at: VirtualTime,
    counters: Counters,
    records: usize,
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
}

impl IterationDelta {
    /// True when `self` repeats `prev`, the iteration just before it,
    /// shifted by `prev`'s length: equal counters, and every record and
    /// the critical path moved by exactly that shift. Shifts `prev`'s
    /// critical path in the process.
    fn repeats(&self, prev: &mut IterationDelta, timeline: &[TimelineEntry]) -> bool {
        let shift = prev.period;
        let counters = self.period == shift && self.counters == prev.counters;
        let (ours, theirs) = (
            &timeline[self.records.clone()],
            &timeline[prev.records.clone()],
        );
        // Same task, track and layer at each position, shifted in time.
        let records = ours.len() == theirs.len()
            && ours.iter().zip(theirs).all(|(r, p)| *r == p.shifted(shift));
        counters && records && {
            prev.attr.shift_last_path(shift);
            prev.attr == self.attr
        }
    }
}

struct Executor<'a> {
    graph: &'a TaskGraph,
    network: &'a mut dyn NetworkModel,
    queue: EventQueue<Event>,
    /// Each task's dependencies not yet completed this iteration.
    indegree: Vec<u32>,
    /// Each task's dependents in CSR form, in ascending id order (the
    /// order activation, and so same-instant FIFO order, follows): task
    /// `t`'s are `dependents[dependent_offsets[t]..dependent_offsets[t + 1]]`.
    dependent_offsets: Vec<u32>,
    dependents: Vec<u32>,
    /// `complete`'s worklist, kept to reuse its buffer.
    worklist: Vec<TaskId>,
    gpus: Vec<GpuStream>,
    /// The task of each transfer in flight: its length is the count of
    /// transfers in flight.
    flow_task: IdMap<FlowId, TaskId>,
    flow_event: IdMap<FlowId, EventId>,
    /// When the count of transfers in flight last left 0. The busy
    /// period it opened adds its length to `comm_busy` when the count
    /// returns to 0, so `comm_busy` is the length of the union of every
    /// transfer's span, to the tick.
    comm_since: VirtualTime,
    comm_busy: TimeSpan,
    timeline: Vec<TimelineEntry>,
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
    // ------- observability (all inert unless `sampling`/`observing`) -------
    obs: Observability,
    /// True when a live, enabled recorder is attached.
    observing: bool,
    /// True when samples are due every `obs.sample_period`.
    sampling: bool,
    /// When the next sample is due. Restarts one period after each
    /// simulated iteration begins.
    next_sample: VirtualTime,
    /// Per-kind dispatch counts: [compute, flow].
    dispatches: [u64; 2],
    // ------- fault injection (both `None` on fault-free runs) -------
    faults: Option<FaultRuntime>,
    /// Set when the run must stop early with a structured error — an
    /// injected fault made the remaining work impossible, or the run
    /// budget tripped. Unwinds the run instead of a hang or panic.
    stop_error: Option<SimError>,
    // ------- runaway guard (`None` on unbudgeted runs) -------
    /// Per-run budget; `None` keeps the exact pre-budget code path. Its
    /// event axis counts the queue's delivered events.
    budget: Option<RunBudget>,
    /// Iteration currently executing (jitter coordinate).
    current_iter: usize,
    /// Global index of this run's first iteration: nonzero only on a run
    /// restored from a snapshot, so per-iteration coordinates (jitter,
    /// logs) and the report's task count continue the interrupted run's.
    iter_offset: usize,
    // ------- steady-state replay (DESIGN.md §12) -------
    /// Replay's outcome, set when the iteration loop finishes.
    replay: Result<Repeat, SerialReason>,
    /// Wall-clock seconds spent synthesizing iterations (profiled runs).
    replay_wall_s: f64,
    /// Each link's busy time and the instant at the previous sample (or
    /// at run start): the window a utilization gauge averages over.
    prev_link_busy: Vec<f64>,
    prev_sample_at: VirtualTime,
    collective_of_first: HashMap<TaskId, usize>,
    collective_of_last: HashMap<TaskId, usize>,
    collective_begin: Vec<Option<VirtualTime>>,
    // ------- bottleneck attribution (always on: pure virtual-time state) -------
    attr: AttributionAccumulator,
    /// Per-task start/finish times of the current iteration, [`NOT_RUN`]
    /// until set. A compute task's busy time runs from its start.
    attr_start: Vec<VirtualTime>,
    attr_end: Vec<VirtualTime>,
    /// The compute task that freed this task's GPU stream, per task, or
    /// [`NO_TASK`].
    attr_gpu_pred: Vec<u32>,
    /// Most recently finished compute task per GPU this iteration, or
    /// [`NO_TASK`].
    last_done: Vec<u32>,
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
    /// An executor over `graph` and `network`, configured by `opts` (its
    /// `iterations` and `restore` are the caller's to act on). Unlimited
    /// budgets and fault-free sessions become `None`, so the hot loop
    /// tests one `Option` each; `spec_hash` stamps snapshots.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint cadence is zero, or if samples are due (a
    /// recorder or progress monitor is attached) and the sample period is
    /// zero: the next sample would never come later than the last.
    fn new(
        graph: &'a TaskGraph,
        network: &'a mut dyn NetworkModel,
        opts: RunOptions<'a>,
        spec_hash: u64,
    ) -> Self {
        let RunOptions {
            iterations: _,
            observability: obs,
            faults,
            budget,
            profiler,
            checkpoint,
            restore: _,
        } = opts;
        let n = graph.len();
        // Task ids are stored as `u32`, and `NO_TASK` is none of them.
        assert!(n <= NO_TASK as usize, "task ids fit in u32");
        let gpus = graph.gpus();
        let table = graph.dep_table();
        // Count each task's dependents in its own slot and prefix-sum the
        // counts, so `dependent_offsets[t]` is where `t`'s run ends. Then
        // fill from the last task back, stepping each offset down to its
        // run's start: every run ascends, and no second offset table is
        // needed. `dependent_offsets[n]` keeps the edge count.
        let mut dependent_offsets = vec![0u32; n + 1];
        for d in table.edges() {
            dependent_offsets[d.0] += 1;
        }
        for t in 1..=n {
            dependent_offsets[t] += dependent_offsets[t - 1];
        }
        let mut dependents = vec![0u32; table.edges().len()];
        for i in (0..n).rev() {
            for d in table.deps(i) {
                dependent_offsets[d.0] -= 1;
                dependents[dependent_offsets[d.0] as usize] = i as u32;
            }
        }
        let observing = obs.recorder.as_ref().is_some_and(|r| r.enabled());
        let sampling = observing || obs.progress.is_some();
        assert!(
            !sampling || !obs.sample_period.is_zero(),
            "sample period must be positive"
        );
        let collectives = if observing { graph.collectives() } else { &[] };
        // A restored network carries its pre-restore busy time: the first
        // utilization window starts from it, not from zero.
        let prev_link_busy = if observing {
            network.observe_links().iter().map(|l| l.busy_s).collect()
        } else {
            Vec::new()
        };
        let session = FaultSession::new(&faults, gpus);
        Executor {
            graph,
            network,
            queue: EventQueue::new(),
            // Set from the dependency table as each iteration starts.
            indegree: vec![0; n],
            dependent_offsets,
            dependents,
            worklist: Vec::new(),
            gpus: (0..graph.gpus())
                .map(|_| GpuStream {
                    ready: VecDeque::new(),
                    busy: false,
                    busy_time: TimeSpan::ZERO,
                })
                .collect(),
            flow_task: IdMap::default(),
            flow_event: IdMap::default(),
            comm_since: VirtualTime::ZERO,
            comm_busy: TimeSpan::ZERO,
            timeline: Vec::with_capacity(n),
            tl_digest: (0, FNV_OFFSET),
            tl_mark: 0,
            completed: 0,
            bytes_transferred: 0,
            obs,
            observing,
            sampling,
            next_sample: VirtualTime::ZERO,
            dispatches: [0; 2],
            faults: (!session.is_empty()).then(|| FaultRuntime::new(session, gpus)),
            stop_error: None,
            budget: (!budget.is_unlimited()).then_some(budget),
            current_iter: 0,
            iter_offset: 0,
            replay: Err(SerialReason::FewIterations),
            replay_wall_s: 0.0,
            prev_link_busy,
            prev_sample_at: VirtualTime::ZERO,
            collective_of_first: collectives
                .iter()
                .enumerate()
                .map(|(ci, m)| (m.first, ci))
                .collect(),
            collective_of_last: collectives
                .iter()
                .enumerate()
                .map(|(ci, m)| (m.last, ci))
                .collect(),
            collective_begin: vec![None; collectives.len()],
            attr: attribution(graph),
            attr_start: vec![NOT_RUN; n],
            attr_end: vec![NOT_RUN; n],
            attr_gpu_pred: vec![NO_TASK; n],
            last_done: vec![NO_TASK; gpus],
            iter_begin: VirtualTime::ZERO,
            ckpt: checkpoint.map(|(path, every)| {
                assert!(every > 0, "checkpoint cadence must be at least 1");
                CheckpointConfig {
                    path,
                    every,
                    spec_hash,
                }
            }),
            profiling: profiler.as_ref().is_some_and(|p| p.is_enabled()),
            selfprof: profiler,
            net_wall_s: 0.0,
            net_wall_calls: 0,
        }
    }

    /// Rehydrates the executor from a quiescent-boundary snapshot taken
    /// after `completed` iterations: a fresh executor adds the snapshot's
    /// totals, and the clock, digest, attribution and fault runtime resume
    /// exactly where the interrupted run left them. Structural mismatches
    /// (wrong GPU count, an iteration count the attribution did not
    /// record, malformed fault state) are typed errors — the spec hash
    /// upstream should make them impossible, but a hand-edited snapshot
    /// must fail loudly, not corrupt the run.
    fn with_restored_state(
        mut self,
        completed: usize,
        st: ExecutorState,
    ) -> Result<Self, SimError> {
        let corrupt = |msg: String| SimError::Checkpoint(CheckpointError::Corrupt(msg));
        if st.totals.gpu_busy.len() != self.gpus.len() {
            return Err(corrupt(format!(
                "snapshot has {} GPUs, scenario has {}",
                st.totals.gpu_busy.len(),
                self.gpus.len()
            )));
        }
        self.attr.restore(st.attr).map_err(corrupt)?;
        if self.attr.iterations() != completed as u64 {
            return Err(corrupt(format!(
                "snapshot claims {completed} completed iterations but its attribution records {}",
                self.attr.iterations()
            )));
        }
        self.add_totals(st.now, &st.totals);
        self.prev_sample_at = st.now;
        self.iter_begin = st.now;
        self.iter_offset = completed;
        // Pre-restore timeline records exist only as a digest: seed the
        // running digest with it, so both further snapshots and the
        // report's `timeline_hash` continue the interrupted fold. The
        // record list itself restarts empty, so a restored run's
        // timeline *export* covers only post-restore iterations.
        self.tl_digest = (st.timeline_count, st.timeline_fnv);
        self.tl_mark = 0;
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
    /// the queue, so the state reduces to accumulated counters and
    /// records.
    fn write_checkpoint(&mut self) -> Result<(), SimError> {
        let ck = self.ckpt.as_ref().expect("checkpointing is configured");
        let net = self.network.checkpoint_state().ok_or_else(|| {
            SimError::Checkpoint(CheckpointError::Unsupported(
                "network model has in-flight state or does not expose snapshots".to_string(),
            ))
        })?;
        let faults = self.faults.as_ref().map(|fr| {
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
                totals: self.totals(),
                timeline_count: self.tl_digest.0,
                timeline_fnv: self.tl_digest.1,
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
            timeline_fnv(self.tl_digest.1, fresh, self.graph.labels(), TimeSpan::ZERO),
        );
        self.tl_mark = self.timeline.len();
    }

    /// Runs `iterations` back-to-back iterations, folding each into the
    /// attribution accumulator and the timeline digest. Where
    /// steady-state replay engages (DESIGN.md §12), the first two
    /// iterations are simulated and, once the second is verified as the
    /// first shifted by its length, the rest are synthesized; any
    /// mismatch just keeps simulating. Synthesized and
    /// simulated iterations end at the same boundary, so snapshots and
    /// wall-clock probes run unchanged. Synthesized iterations' attribution
    /// is absorbed in bulk before each snapshot, on error and at the end.
    /// On error the loop stops with the structured error; completed-iteration
    /// state (totals, attribution) remains valid for inspection.
    fn run_iterations(&mut self, iterations: usize) -> Result<(), SimError> {
        let mut replay = self.replay_plan(iterations);
        for iter in 0..iterations {
            self.current_iter = self.iter_offset + iter;
            if let ReplayState::Steady(s) = &mut replay {
                self.synthesize(s);
                if let Some((kind, limit)) = self.budget.as_ref().and_then(RunBudget::check_wall) {
                    self.absorb_pending(s);
                    return Err(SimError::BudgetExceeded { kind, limit });
                }
            } else {
                if iter > 0 {
                    self.completed = 0;
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
                // Fold the digest first. It reads only the timeline and
                // the attribution only the per-task arrays, so the order
                // changes neither output, and the sort's scratch is freed
                // before the attribution builds its per-GPU interval
                // lists (freed in turn when it returns).
                self.fold_timeline_digest();
                // Fold the completed iteration into the bottleneck
                // attribution (pure virtual-time state, always on). A
                // measured iteration is recorded on its own first, so
                // replay can verify and repeat exactly its share.
                let graph = self.graph;
                let it = IterationObservation {
                    deps: graph.dep_table(),
                    begin: self.iter_begin,
                    end: self.queue.now(),
                    start: &self.attr_start,
                    finish: &self.attr_end,
                    gpu_pred: &self.attr_gpu_pred,
                };
                let class = |t| task_class(graph, t);
                let alone = measured.then(|| {
                    let mut attr = attribution(graph);
                    attr.record_iteration(&it, class);
                    attr
                });
                match &alone {
                    Some(attr) => self.attr.absorb(attr, 1),
                    None => self.attr.record_iteration(&it, class),
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
                if let (Some(before), Some(attr)) = (before, alone) {
                    let delta = self.delta_since(before, attr);
                    replay = match replay {
                        ReplayState::Verifying(mut prev) => {
                            if delta.repeats(&mut prev, &self.timeline) {
                                let records = &self.timeline[delta.records.clone()];
                                ReplayState::Steady(Synthesis {
                                    fold: ReplayFold::new(records, self.graph.labels()),
                                    delta,
                                    pending: 0,
                                })
                            } else {
                                ReplayState::Off(SerialReason::Rejected)
                            }
                        }
                        _ => ReplayState::Verifying(delta),
                    };
                }
            }
            // The boundary is quiescent here: the queue is drained, so a
            // snapshot reduces to accumulated counters and records.
            let snapshot_due = self
                .ckpt
                .as_ref()
                .is_some_and(|ck| (self.current_iter + 1).is_multiple_of(ck.every));
            if snapshot_due {
                if let ReplayState::Steady(s) = &mut replay {
                    self.absorb_pending(s);
                }
                self.write_checkpoint()?;
            }
        }
        self.replay = match replay {
            ReplayState::Steady(mut s) => {
                self.absorb_pending(&mut s);
                Ok(Repeat {
                    segment: s.delta.records.len(),
                    period: s.delta.period,
                    count: iterations - 2,
                })
            }
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
        } else if self.sampling {
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

    /// The run's additive totals so far.
    fn totals(&self) -> RunTotals {
        RunTotals {
            queue: *self.queue.stats(),
            dispatches: self.dispatches,
            gpu_busy: self.gpus.iter().map(|g| g.busy_time).collect(),
            bytes_transferred: self.bytes_transferred,
            comm_busy: self.comm_busy,
        }
    }

    /// Adds `t` to the run's totals and moves the idle clock on to `to`:
    /// a synthesized iteration adds the verified one's delta, and a
    /// restore adds a snapshot's totals to a fresh executor.
    fn add_totals(&mut self, to: VirtualTime, t: &RunTotals) {
        self.queue.fast_forward(to, &t.queue);
        for (n, dn) in self.dispatches.iter_mut().zip(t.dispatches) {
            *n += dn;
        }
        for (gpu, busy) in self.gpus.iter_mut().zip(&t.gpu_busy) {
            gpu.busy_time += *busy;
        }
        self.bytes_transferred += t.bytes_transferred;
        self.comm_busy += t.comm_busy;
    }

    fn counters(&self) -> Counters {
        Counters {
            totals: self.totals(),
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
        }
    }

    /// Adds one iteration that repeats the verified one, without
    /// simulating it: the clock and the run's totals advance by its
    /// deltas, its records, shifted, fold into the timeline digest
    /// without being built, and its attribution waits in `s.pending`.
    fn synthesize(&mut self, s: &mut Synthesis) {
        let t0 = self.profiling.then(Instant::now);
        let d = &s.delta;
        let begin = self.queue.now();
        let shift = begin - d.begin;
        self.add_totals(begin + d.period, &d.counters.totals);
        self.network.absorb_stats(&d.counters.net);
        s.pending += 1;
        let records = &self.timeline[d.records.clone()];
        let (seed, labels) = (self.tl_digest.1, self.graph.labels());
        let h = s.fold.fold(seed, records, labels, shift);
        debug_assert_eq!(
            h,
            timeline_fnv(seed, records, labels, shift),
            "the replay fold disagrees with timeline_fnv"
        );
        self.tl_digest = (self.tl_digest.0 + records.len() as u64, h);
        if let Some(t0) = t0 {
            self.replay_wall_s += t0.elapsed().as_secs_f64();
        }
    }

    /// Absorbs the attribution of the repeats synthesized since the last
    /// call in one scaled pass, the verified iteration's critical path
    /// moved on to the last of them.
    fn absorb_pending(&mut self, s: &mut Synthesis) {
        let d = &mut s.delta;
        d.attr.shift_last_path(d.period * s.pending);
        self.attr.absorb(&d.attr, s.pending);
        s.pending = 0;
    }

    fn run(mut self, iterations: usize) -> Result<SimReport, SimError> {
        let engine_t = self.profiling.then(Instant::now);
        if let Err(e) = self.run_iterations(iterations) {
            // Close observability sinks so partial traces flush, then
            // surface the structured error instead of the deadlock
            // panic the unfinished graph would otherwise trigger.
            let total = self.queue.now() - VirtualTime::ZERO;
            let done = (self.current_iter - self.iter_offset + 1) as u64;
            self.flush_selfprof(engine_t, done);
            self.finish_observability(total, None);
            return Err(e);
        }
        self.flush_selfprof(engine_t, iterations as u64);

        let total = self.queue.now() - VirtualTime::ZERO;
        let bottleneck = self.build_bottleneck(total);
        self.finish_observability(total, Some(&bottleneck));
        let totals = self.totals();
        let mut report = SimReport::new(
            total,
            totals.gpu_busy,
            totals.comm_busy,
            totals.bytes_transferred,
            // Restored runs execute only the remaining iterations but
            // report the whole run: count from the global offset.
            self.graph.len() * (self.iter_offset + iterations),
            totals.queue,
            self.network.observe(),
            self.timeline,
            Arc::clone(self.graph.labels()),
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
        let graph = self.graph;
        self.attr.finish(
            |t| graph.label(TaskId(t)),
            |t| task_class(graph, t),
            links,
            lost,
        )
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
        for (kind, count) in [("compute", dispatches[0]), ("flow", dispatches[1])] {
            r.counter_add(
                "triosim_events_dispatched_total",
                &[("kind", kind)],
                count as f64,
            );
        }
        // Fault metrics exist only on fault-injected runs, so observed
        // fault-free output stays byte-identical to pre-fault builds.
        if let Some((by_kind, lost)) = &fault_stats {
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
                let name = self.graph.label(TaskId(task as usize));
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
        self.attr_start.fill(NOT_RUN);
        self.attr_end.fill(NOT_RUN);
        self.attr_gpu_pred.fill(NO_TASK);
        self.last_done.fill(NO_TASK);
        let table = self.graph.dep_table();
        for (t, n) in self.indegree.iter_mut().enumerate() {
            *n = table.deps(t).len() as u32;
        }
        // Seed: every task with no dependencies starts immediately, in
        // id order. Roots are read from the table, not the counts: a
        // root barrier completes at once, and a task whose count that
        // zeroes is activated by the completion.
        for t in 0..self.graph.len() {
            if table.deps(t).len() == 0 {
                self.activate(TaskId(t));
            }
        }

        self.next_sample = self.queue.now() + self.obs.sample_period;

        loop {
            let Some((now, event)) = self.pop_after_due() else {
                return;
            };
            debug_assert_ne!(
                now, NOT_RUN,
                "the checked clock reaches VirtualTime::MAX only by landing on it, \
                 and NOT_RUN marks an unset time"
            );
            // Runaway guard: the queue counts an event delivered as it
            // pops it, and the count is checked before the event is
            // processed, so with `max_events = N` exactly N events take
            // effect.
            if let Some(b) = &self.budget {
                if let Some((kind, limit)) = b.check(self.queue.stats().delivered(), now) {
                    self.stop_error = Some(SimError::BudgetExceeded { kind, limit });
                    return;
                }
            }
            match event {
                Event::ComputeDone { gpu, task } => {
                    self.dispatches[0] += 1;
                    self.gpus[gpu].busy = false;
                    let start = self.attr_start[task.0];
                    debug_assert_ne!(start, NOT_RUN, "compute was started");
                    self.gpus[gpu].busy_time += now - start;
                    self.attr_end[task.0] = now;
                    self.last_done[gpu] = task.0 as u32;
                    self.timeline.push(TimelineEntry::new(
                        task,
                        TimelineTrack::Gpu(gpu),
                        self.graph.tasks()[task.0].layer,
                        start,
                        now,
                    ));
                    if self.observing {
                        self.record_compute(gpu, task, start, now);
                    }
                    self.complete(task);
                    self.try_start_gpu(gpu);
                }
                Event::FlowDelivered { flow } => {
                    self.dispatches[1] += 1;
                    self.flow_event.remove(&flow);
                    let task = self
                        .flow_task
                        .remove(&flow)
                        .expect("delivered flow belongs to a task");
                    if self.flow_task.is_empty() {
                        self.comm_busy += now - self.comm_since;
                    }
                    let start = self.attr_start[task.0];
                    debug_assert_ne!(start, NOT_RUN, "transfer was started");
                    self.attr_end[task.0] = now;
                    self.timeline.push(TimelineEntry::new(
                        task,
                        TimelineTrack::Network,
                        self.graph.tasks()[task.0].layer,
                        start,
                        now,
                    ));
                    if let TaskKind::Transfer { bytes, .. } = self.graph.tasks()[task.0].kind {
                        self.bytes_transferred += bytes;
                    }
                    if self.observing {
                        self.record_flow(task, start, now);
                    }
                    let cmds = self.timed_net(|n| n.deliver(flow, now));
                    self.apply(cmds);
                    self.complete(task);
                }
            }
            if self.stop_error.is_some() {
                return;
            }
        }
    }

    /// Applies every fault-timeline entry and takes every sample due no
    /// later than the next event, in time order (a fault first at a shared
    /// instant), then pops that event. `None` once the queue is drained or
    /// a fault has stopped the run, so nothing falls due after the last
    /// event. A run with no fault plan and no sampler never peeks.
    fn pop_after_due(&mut self) -> Option<(VirtualTime, Event)> {
        loop {
            let fault = self.next_fault_at();
            let sample = self.sampling.then_some(self.next_sample);
            match fault.into_iter().chain(sample).min() {
                Some(at) if at <= self.queue.peek_time()? => {
                    if fault == Some(at) {
                        self.apply_fault(at);
                        if self.stop_error.is_some() {
                            return None;
                        }
                    } else {
                        self.sample(at);
                    }
                }
                _ => return self.queue.pop(),
            }
        }
    }

    /// When the next timeline entry falls due: its injection time, clamped
    /// forward to the clock (time never runs backwards).
    fn next_fault_at(&self) -> Option<VirtualTime> {
        let fr = self.faults.as_ref()?;
        let tf = fr.session.timeline().get(fr.cursor)?;
        Some(VirtualTime::from_seconds(tf.at_s).max(self.queue.now()))
    }

    /// Injects the next timeline entry at `now` into the network (or drops
    /// a GPU), recording attribution counters and observability events.
    fn apply_fault(&mut self, now: VirtualTime) {
        let kind = {
            let Some(fr) = self.faults.as_mut() else {
                return;
            };
            let kind = fr.session.timeline()[fr.cursor].kind;
            fr.cursor += 1;
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
        let label = graph.label(task);
        let Some(r) = self.obs.recorder.as_mut() else {
            return;
        };
        let track = format!("gpu{gpu}");
        match graph.tasks()[task.0].layer {
            Some(layer) => r.span(
                &track,
                label,
                start,
                now,
                &[("layer", AttrValue::U64(u64::from(layer)))],
            ),
            None => r.span(&track, label, start, now, &[]),
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
            graph.label(task),
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

    /// The sample due at `now`: queue depth, in-flight flows, per-link
    /// utilization over the window since the previous sample, and the
    /// live progress line. The next one falls due a period later.
    fn sample(&mut self, now: VirtualTime) {
        self.next_sample = now + self.obs.sample_period;
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
                    for (l, prev) in links.iter().zip(&mut self.prev_link_busy) {
                        let busy = l.busy_s_at(now);
                        let util = ((busy - *prev) / dt).clamp(0.0, 1.0);
                        r.gauge_set(now, "triosim_link_utilization", &[("link", &l.label)], util);
                        *prev = busy;
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
        let mut work = std::mem::take(&mut self.worklist);
        work.push(task);
        while let Some(t) = work.pop() {
            if self.stop_error.is_some() {
                work.clear();
                break;
            }
            self.completed += 1;
            if self.observing {
                self.record_completion(t);
            }
            for i in self.dependent_offsets[t.0]..self.dependent_offsets[t.0 + 1] {
                let dep = self.dependents[i as usize] as usize;
                self.indegree[dep] -= 1;
                if self.indegree[dep] == 0 {
                    if let Some(done_now) = self.activate_inline(TaskId(dep)) {
                        work.push(done_now);
                    }
                }
            }
        }
        self.worklist = work;
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
                self.attr_start[task.0] = now;
                self.attr_end[task.0] = now;
                Some(task)
            }
            TaskKind::Compute { gpu, .. } => {
                self.gpus[*gpu].ready.push_back(task);
                self.try_start_gpu(*gpu);
                None
            }
            TaskKind::Transfer { src, dst, bytes } => {
                let now = self.queue.now();
                self.attr_start[task.0] = now;
                if self.observing {
                    if let Some(&ci) = self.collective_of_first.get(&task) {
                        self.collective_begin[ci].get_or_insert(now);
                    }
                }
                let (src, dst, bytes) = (*src, *dst, *bytes);
                // A missing path (a disconnected topology, or an injected
                // failure that partitioned it) ends the run with a
                // structured error instead of a panic.
                match self.timed_net(|n| n.try_send(now, src, dst, bytes)) {
                    Ok((flow, cmds)) => {
                        if self.flow_task.is_empty() {
                            self.comm_since = now;
                        }
                        self.flow_task.insert(flow, task);
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
                None
            }
        }
    }

    /// Runs one network-model call, timed into the engine loop's
    /// `network` share when profiling.
    fn timed_net<T>(&mut self, call: impl FnOnce(&mut dyn NetworkModel) -> T) -> T {
        if !self.profiling {
            return call(&mut *self.network);
        }
        let t0 = Instant::now();
        let out = call(&mut *self.network);
        self.net_wall_s += t0.elapsed().as_secs_f64();
        self.net_wall_calls += 1;
        out
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
        self.attr_start[task.0] = now;
        self.attr_gpu_pred[task.0] = self.last_done[gpu];
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
                        self.queue.cancel(old);
                    }
                    let id = self.queue.schedule(at, Event::FlowDelivered { flow });
                    self.flow_event.insert(flow, id);
                }
                NetCommand::Cancel { flow } => {
                    if let Some(old) = self.flow_event.remove(&flow) {
                        self.queue.cancel(old);
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
        let r = execute(&g, &mut net, RunOptions::default()).unwrap();
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
        let r = execute(&g, &mut net, RunOptions::default()).unwrap();
        assert!((r.total_time_s() - 0.002).abs() < 1e-12, "one stream");
    }

    #[test]
    fn independent_tasks_on_two_gpus_parallelize() {
        let mut g = TaskGraph::new(2);
        g.compute("a", 0, TimeSpan::from_millis(1.0), vec![]);
        g.compute("b", 1, TimeSpan::from_millis(1.0), vec![]);
        let mut net = net2();
        let r = execute(&g, &mut net, RunOptions::default()).unwrap();
        assert!((r.total_time_s() - 0.001).abs() < 1e-12);
    }

    #[test]
    fn transfer_overlaps_compute() {
        let mut g = TaskGraph::new(1);
        // 10 ms compute and a 10 MB transfer (10 ms at 1 GB/s) overlap.
        g.compute("work", 0, TimeSpan::from_millis(10.0), vec![]);
        g.transfer("move", NodeId(0), NodeId(1), 10_000_000, vec![]);
        let mut net = net2();
        let r = execute(&g, &mut net, RunOptions::default()).unwrap();
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
        let r = execute(&g, &mut net, RunOptions::default()).unwrap();
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
        let r = execute(&g, &mut net, RunOptions::default()).unwrap();
        assert!((r.total_time_s() - 0.002).abs() < 1e-12);
        assert_eq!(r.tasks_executed(), 4);
    }

    #[test]
    fn empty_graph_finishes_at_zero() {
        let g = TaskGraph::new(1);
        let mut net = net2();
        let r = execute(&g, &mut net, RunOptions::default()).unwrap();
        assert_eq!(r.total_time_s(), 0.0);
    }

    #[test]
    fn timeline_records_tasks() {
        let mut g = TaskGraph::new(1);
        g.compute("op1", 0, TimeSpan::from_millis(1.0), vec![]);
        g.transfer("mv", NodeId(0), NodeId(1), 1_000_000, vec![]);
        let mut net = net2();
        let r = execute(&g, &mut net, RunOptions::default()).unwrap();
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
        let r = execute(
            &g,
            &mut net,
            RunOptions {
                iterations: 5,
                ..RunOptions::default()
            },
        )
        .unwrap();
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
        let r1 = execute(
            &g,
            &mut PhotonicNetwork::new(2, PhotonicConfig::passage()),
            RunOptions::default(),
        )
        .unwrap();
        let r10 = execute(
            &g,
            &mut net,
            RunOptions {
                iterations: 10,
                ..RunOptions::default()
            },
        )
        .unwrap();
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
        let _ = execute(
            &g,
            &mut net2(),
            RunOptions {
                iterations: 0,
                ..RunOptions::default()
            },
        );
    }

    #[test]
    fn concurrent_transfers_share_and_finish_together() {
        let mut g = TaskGraph::new(1);
        g.transfer("m1", NodeId(0), NodeId(1), 1_000_000, vec![]);
        g.transfer("m2", NodeId(0), NodeId(1), 1_000_000, vec![]);
        let mut net = net2();
        let r = execute(&g, &mut net, RunOptions::default()).unwrap();
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
        Observability {
            recorder: Some(Box::new(rec)),
            ..Observability::off()
        }
    }

    #[test]
    fn monitor_ticks_never_change_simulation_results() {
        let g = overlap_graph();
        let run = |observability| {
            let r = execute(
                &g,
                &mut net2(),
                RunOptions {
                    iterations: 3,
                    observability,
                    ..RunOptions::default()
                },
            )
            .unwrap();
            r.to_canonical_string()
        };
        let plain = run(Observability::off());
        let buf = SharedBuf::default();
        assert_eq!(plain, run(jsonl_obs(&buf)));
        // Samples were really taken: gauges along the way, the link's
        // utilization among them.
        let out = buf.take_string();
        assert!(out.contains("triosim_queue_depth"), "{out}");
        assert!(
            out.contains(r#""name":"triosim_link_utilization""#),
            "{out}"
        );
        // A period far shorter than any event gap samples many times
        // between two events and still changes no byte.
        let buf = SharedBuf::default();
        let fine = jsonl_obs(&buf).with_sample_period(TimeSpan::from_micros(10.0));
        assert_eq!(plain, run(fine));
        let samples = buf.take_string().matches("triosim_queue_depth").count();
        assert!(samples > 1000, "{samples} samples");
    }

    #[test]
    fn observed_run_emits_spans_and_end_of_run_metrics() {
        let g = overlap_graph();
        let buf = SharedBuf::default();
        execute(
            &g,
            &mut net2(),
            RunOptions {
                observability: jsonl_obs(&buf),
                ..RunOptions::default()
            },
        )
        .unwrap();
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
            execute(
                &g,
                &mut net2(),
                RunOptions {
                    iterations: 2,
                    observability: jsonl_obs(&buf),
                    ..RunOptions::default()
                },
            )
            .unwrap();
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
        execute(
            &g,
            &mut net2(),
            RunOptions {
                observability: jsonl_obs(&buf),
                ..RunOptions::default()
            },
        )
        .unwrap();
        let out = buf.take_string();
        assert!(out.contains("\"track\":\"collectives\""), "{out}");
        assert!(out.contains("\"algorithm\":\"allreduce\""), "{out}");
        assert!(out.contains("triosim_collectives_total"), "{out}");
    }

    // ---------------- fault injection ----------------

    #[test]
    fn empty_plan_is_bit_identical_to_plain_run() {
        let g = overlap_graph();
        let plain = execute(
            &g,
            &mut net2(),
            RunOptions {
                iterations: 3,
                ..RunOptions::default()
            },
        )
        .unwrap();
        let faulted = execute(
            &g,
            &mut net2(),
            RunOptions {
                iterations: 3,
                faults: triosim_faults::FaultPlan::default(),
                ..RunOptions::default()
            },
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
        let r = execute(
            &g,
            &mut net2(),
            RunOptions {
                faults: plan,
                ..RunOptions::default()
            },
        )
        .unwrap();
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
        let err = execute(
            &g,
            &mut net,
            RunOptions {
                faults: plan,
                ..RunOptions::default()
            },
        )
        .unwrap_err();
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
    fn disconnected_transfer_returns_partitioned_error() {
        // Nodes 0 and 1 are linked; node 2 has no link at all. A
        // fault-free run that sends to it ends with a structured error,
        // not a panic inside the network model.
        let mut t = Topology::new(3);
        t.add_duplex(NodeId(0), NodeId(1), 1e9, 0.0);
        let mut net = FlowNetwork::new(t);
        let mut g = TaskGraph::new(1);
        g.compute("a", 0, TimeSpan::from_millis(1.0), vec![]);
        g.transfer("mv", NodeId(0), NodeId(2), 1_000, vec![]);
        let err = execute(&g, &mut net, RunOptions::default()).unwrap_err();
        assert_eq!(
            err,
            crate::error::SimError::Partitioned {
                src: 0,
                dst: 2,
                at_s: 0.0
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
        let r = execute(
            &g,
            &mut net,
            RunOptions {
                faults: plan,
                ..RunOptions::default()
            },
        )
        .unwrap();
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
        let err = execute(
            &g,
            &mut net2(),
            RunOptions {
                faults: plan,
                ..RunOptions::default()
            },
        )
        .unwrap_err();
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
            let r = execute(
                &g,
                &mut net2(),
                RunOptions {
                    iterations: 3,
                    faults: plan,
                    ..RunOptions::default()
                },
            )
            .unwrap();
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
        let r = execute(
            &g,
            &mut net2(),
            RunOptions {
                faults: plan,
                ..RunOptions::default()
            },
        )
        .unwrap();
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
        let r = execute(
            &g,
            &mut net,
            RunOptions {
                observability: jsonl_obs(&buf),
                faults: plan,
                ..RunOptions::default()
            },
        )
        .unwrap();
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
        let obs = Observability {
            progress: Some(monitor),
            ..Observability::off()
        };
        execute(
            &g,
            &mut net2(),
            RunOptions {
                observability: obs,
                ..RunOptions::default()
            },
        )
        .unwrap();
        let out = buf.take_string();
        assert!(out.contains("progress: done"), "{out}");
    }

    /// The field is public, so a zero period can bypass
    /// `with_sample_period`'s check; sampling on it would never advance.
    #[test]
    #[should_panic(expected = "sample period must be positive")]
    fn zero_sample_period_is_rejected_when_ticking() {
        let obs = Observability {
            progress: Some(triosim_obs::ProgressMonitor::new()),
            sample_period: TimeSpan::ZERO,
            ..Observability::off()
        };
        let _ = execute(
            &overlap_graph(),
            &mut net2(),
            RunOptions {
                observability: obs,
                ..RunOptions::default()
            },
        );
    }
}
