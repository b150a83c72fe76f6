//! Simulation results: totals, breakdowns, and the timeline output.
//!
//! Matches §4.1's list of TrioSim outputs: total predicted execution
//! time, per-layer/per-phase communication and computation time, and a
//! timeline of the computation on each GPU and communication between
//! GPUs. The timeline exports to the Chrome `about:tracing` JSON format
//! (the same format the PyTorch profiler uses), so it can be inspected in
//! any trace viewer.

use std::fmt;
use std::mem;
use std::sync::Arc;

use serde::Value;
use triosim_des::{fnv1a, QueueStats, TimeSpan, VirtualTime, FNV_PRIME};
use triosim_network::{NetObservation, PacketObservation};
use triosim_obs::{AttrValue, BottleneckReport, ChromeTraceSink, Recorder};

use crate::spare;
use crate::taskgraph::{Labels, TaskId};

/// Which resource a timeline record occupied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TimelineTrack {
    /// GPU `i`'s compute stream.
    Gpu(usize),
    /// The interconnect.
    Network,
}

/// One executed task on the timeline. The label is borrowed from the
/// run's task graph, where every label is stored once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelineRecord<'a> {
    /// Task label (operator or transfer name).
    pub label: &'a str,
    /// Resource it ran on.
    pub track: TimelineTrack,
    /// Start time.
    pub start: VirtualTime,
    /// End time.
    pub end: VirtualTime,
    /// Model layer the task belongs to, when known.
    pub layer: Option<usize>,
}

/// A timeline record as the executor keeps it: 32 bytes, naming its
/// task by id instead of holding a label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TimelineEntry {
    pub start: VirtualTime,
    pub end: VirtualTime,
    task: u32,
    /// The GPU index, or [`NONE`] for the network.
    track: u32,
    /// The layer index, or [`NONE`].
    layer: u32,
}

/// The `track`/`layer` code of "the network" and "no layer".
const NONE: u32 = u32::MAX;

impl TimelineEntry {
    pub(crate) fn new(
        task: TaskId,
        track: TimelineTrack,
        layer: Option<u32>,
        start: VirtualTime,
        end: VirtualTime,
    ) -> Self {
        let code = |n: usize| u32::try_from(n).expect("task ids and GPUs fit in u32");
        TimelineEntry {
            start,
            end,
            task: code(task.0),
            track: match track {
                TimelineTrack::Gpu(i) => code(i),
                TimelineTrack::Network => NONE,
            },
            layer: layer.unwrap_or(NONE),
        }
    }

    fn track(&self) -> TimelineTrack {
        match self.track {
            NONE => TimelineTrack::Network,
            gpu => TimelineTrack::Gpu(gpu as usize),
        }
    }

    fn layer(&self) -> Option<usize> {
        (self.layer != NONE).then_some(self.layer as usize)
    }

    /// This entry moved `by` later.
    pub(crate) fn shifted(self, by: TimeSpan) -> Self {
        TimelineEntry {
            start: self.start + by,
            end: self.end + by,
            ..self
        }
    }

    fn record(self, labels: &Labels) -> TimelineRecord<'_> {
        TimelineRecord {
            label: labels.get(self.task as usize),
            track: self.track(),
            start: self.start,
            end: self.end,
            layer: self.layer(),
        }
    }
}

/// A run's timeline, sorted by `(start, end)`: the simulated records,
/// followed on a replayed run by the synthesized iterations' records,
/// which are built as they are read and equal the records simulating
/// them would have produced.
#[derive(Clone, Copy)]
pub struct Timeline<'a> {
    simulated: &'a [TimelineEntry],
    labels: &'a Labels,
    repeat: Option<Repeat>,
}

impl<'a> Timeline<'a> {
    /// Number of records.
    pub fn len(&self) -> usize {
        self.simulated.len() + self.repeat.map_or(0, |r| r.segment * r.count)
    }

    /// True when the run recorded nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The records in order.
    pub fn iter(&self) -> impl Iterator<Item = TimelineRecord<'a>> + 'a {
        let Timeline {
            simulated,
            labels,
            repeat,
        } = *self;
        let (segment, period, count) = repeat.map_or((&simulated[..0], TimeSpan::ZERO, 0), |r| {
            (&simulated[simulated.len() - r.segment..], r.period, r.count)
        });
        let shifts = (0..count).scan(TimeSpan::ZERO, move |shift, _| {
            *shift += period;
            Some(*shift)
        });
        let synthesized = shifts.flat_map(move |s| segment.iter().map(move |e| e.shifted(s)));
        simulated
            .iter()
            .copied()
            .chain(synthesized)
            .map(move |e| e.record(labels))
    }
}

impl PartialEq for Timeline<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl fmt::Debug for Timeline<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Per-fault attribution of a fault-injected run: what fired, and how
/// much compute time the slowdown/jitter dilation added per GPU.
///
/// Link-level loss shows up in [`SimReport::network_stats`] instead
/// (`link_faults`, `reroutes`, `added_hops`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultStats {
    /// Timed faults that actually fired.
    pub faults_injected: u64,
    /// Fired link-bandwidth degradations.
    pub link_degrades: u64,
    /// Fired link failures.
    pub link_fails: u64,
    /// Fired link repairs.
    pub link_repairs: u64,
    /// Fired GPU drop-outs.
    pub gpu_drops: u64,
    /// Seconds of compute added to each GPU by slowdown/jitter dilation.
    pub lost_compute_s: Vec<f64>,
}

/// How a run covered its iterations: whether steady-state replay
/// (DESIGN.md §12) synthesized some of them, or why it did not engage.
///
/// Diagnostic only. Like wall-clock time it stays out of the canonical
/// report, because a replayed run and the serial run produce the same
/// bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Replay {
    /// Two iterations were simulated and the second verified as the
    /// first shifted in time; this many further iterations were
    /// synthesized from it.
    Synthesized(usize),
    /// Every iteration was simulated.
    Serial(SerialReason),
}

/// Why steady-state replay did not engage on a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SerialReason {
    /// Fewer than three iterations: none would be left to synthesize
    /// after the two that replay simulates.
    FewIterations,
    /// A non-empty fault plan is attached.
    Faults,
    /// An observability recorder or progress monitor is attached.
    Observed,
    /// The budget caps delivered events or simulated time.
    DeterministicBudget,
    /// The network model is not iteration-invariant.
    NetworkNotInvariant,
    /// The network model exposes no statistics snapshot to absorb.
    NoStatsSnapshot,
    /// The verifier found that the second iteration is not the first
    /// one shifted by its length.
    Rejected,
}

impl fmt::Display for SerialReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SerialReason::FewIterations => "the run has fewer than 3 iterations",
            SerialReason::Faults => "a fault plan is attached",
            SerialReason::Observed => "a recorder or progress monitor is attached",
            SerialReason::DeterministicBudget => "the budget caps events or simulated time",
            SerialReason::NetworkNotInvariant => "the network model is not iteration-invariant",
            SerialReason::NoStatsSnapshot => "the network model has no statistics snapshot",
            SerialReason::Rejected => "iteration 1 did not repeat iteration 0",
        })
    }
}

impl fmt::Display for Replay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Replay::Synthesized(1) => f.write_str("1 iteration synthesized from a verified one"),
            Replay::Synthesized(n) => write!(f, "{n} iterations synthesized from a verified one"),
            Replay::Serial(reason) => write!(f, "every iteration simulated ({reason})"),
        }
    }
}

/// The iterations a replayed run synthesized, as its timeline sees them:
/// the last `segment` simulated records repeat `count` more times, each
/// repetition `period` later than the one before.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Repeat {
    pub segment: usize,
    pub period: TimeSpan,
    pub count: usize,
}

/// The result of one simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    total: TimeSpan,
    per_gpu_compute: Vec<TimeSpan>,
    comm_busy: TimeSpan,
    bytes_transferred: u64,
    tasks_executed: usize,
    queue: QueueStats,
    net: NetObservation,
    /// The records of the simulated iterations, in canonical order.
    simulated: Vec<TimelineEntry>,
    /// The task graph's labels, which `simulated` names by task id.
    labels: Arc<Labels>,
    /// Replay's outcome; on success, how the synthesized iterations
    /// extend `simulated`.
    replay: Result<Repeat, SerialReason>,
    /// Digest of the *whole logical run's* timeline: `(record count,
    /// FNV state)`, folded by the executor one iteration at a time (and,
    /// after a restore, continued from the snapshot's state — records
    /// before the restore are not in `simulated`).
    timeline_digest: (u64, u64),
    fault_stats: Option<FaultStats>,
    packet_stats: Option<PacketObservation>,
    bottleneck: BottleneckReport,
}

impl SimReport {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        total: TimeSpan,
        per_gpu_compute: Vec<TimeSpan>,
        comm_busy: TimeSpan,
        bytes_transferred: u64,
        tasks_executed: usize,
        queue: QueueStats,
        net: NetObservation,
        simulated: Vec<TimelineEntry>,
        labels: Arc<Labels>,
        timeline_digest: (u64, u64),
    ) -> Self {
        SimReport {
            total,
            per_gpu_compute,
            comm_busy,
            bytes_transferred,
            tasks_executed,
            queue,
            net,
            simulated,
            labels,
            replay: Err(SerialReason::FewIterations),
            timeline_digest,
            fault_stats: None,
            packet_stats: None,
            bottleneck: BottleneckReport::default(),
        }
    }

    pub(crate) fn set_replay(&mut self, replay: Result<Repeat, SerialReason>) {
        self.replay = replay;
    }

    /// Whether steady-state replay synthesized iterations of this run,
    /// and if not, why. Not part of the canonical report.
    pub fn replay(&self) -> Replay {
        match self.replay {
            Ok(repeat) => Replay::Synthesized(repeat.count),
            Err(reason) => Replay::Serial(reason),
        }
    }

    pub(crate) fn set_fault_stats(&mut self, stats: FaultStats) {
        self.fault_stats = Some(stats);
    }

    pub(crate) fn set_packet_stats(&mut self, stats: PacketObservation) {
        self.packet_stats = Some(stats);
    }

    pub(crate) fn set_bottleneck(&mut self, bottleneck: BottleneckReport) {
        self.bottleneck = bottleneck;
    }

    /// The run's bottleneck attribution: critical-path breakdown,
    /// per-GPU compute/exposed-comm/idle buckets, stragglers, and the
    /// hottest links. Deterministic; part of the canonical JSON.
    pub fn bottleneck(&self) -> &BottleneckReport {
        &self.bottleneck
    }

    /// Fault-attribution counters of a fault-injected run; `None` for
    /// fault-free runs (including runs with an empty fault plan).
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.fault_stats.as_ref()
    }

    /// Packet-level counters (drops, ECN marks, retransmits, queue-depth
    /// histogram) of a packet-fidelity run; `None` on the flow tiers, so
    /// their canonical reports stay byte-identical to builds that
    /// predate the packet tier.
    pub fn packet_stats(&self) -> Option<&PacketObservation> {
        self.packet_stats.as_ref()
    }

    /// End-to-end predicted time of the iteration.
    pub fn total_time(&self) -> TimeSpan {
        self.total
    }

    /// End-to-end predicted time, in seconds.
    pub fn total_time_s(&self) -> f64 {
        self.total.as_seconds()
    }

    /// Busy compute time of each GPU.
    pub fn per_gpu_compute(&self) -> &[TimeSpan] {
        &self.per_gpu_compute
    }

    /// Computation time: the busiest GPU's compute occupancy (the
    /// convention the paper's comm/comp breakdowns use).
    pub fn compute_time_s(&self) -> f64 {
        self.per_gpu_compute
            .iter()
            .map(|t| t.as_seconds())
            .fold(0.0, f64::max)
    }

    /// Communication time: the union of all intervals during which at
    /// least one transfer was in flight.
    pub fn comm_time_s(&self) -> f64 {
        self.comm_busy.as_seconds()
    }

    /// Fraction of the comm+comp total spent communicating.
    pub fn comm_ratio(&self) -> f64 {
        let comm = self.comm_time_s();
        let comp = self.compute_time_s();
        if comm + comp == 0.0 {
            0.0
        } else {
            comm / (comm + comp)
        }
    }

    /// Total bytes that crossed the network.
    pub fn bytes_transferred(&self) -> u64 {
        self.bytes_transferred
    }

    /// Number of tasks executed (compute + transfer + barrier).
    pub fn tasks_executed(&self) -> usize {
        self.tasks_executed
    }

    /// Event-queue statistics of the run: how many simulation events were
    /// scheduled, delivered, and lazily cancelled, and the most entries
    /// the event heap held, lazily cancelled ones included (see
    /// [`QueueStats::max_pending`]). These are the AkitaRTM-style engine
    /// counters.
    pub fn queue_stats(&self) -> &QueueStats {
        &self.queue
    }

    /// Final network-model counters of the run: flows completed, bytes
    /// delivered, and the reallocation/reschedule churn the bandwidth
    /// sharing produced.
    pub fn network_stats(&self) -> &NetObservation {
        &self.net
    }

    /// Fraction of reallocation rounds that actually moved a delivery
    /// event (`reschedules / reallocations`). Under delta-rescheduling
    /// this measures genuine rate churn; a low ratio means most flow
    /// starts/finishes left every other flow's bandwidth untouched.
    pub fn rate_change_ratio(&self) -> f64 {
        if self.net.reallocations == 0 {
            0.0
        } else {
            self.net.reschedules as f64 / self.net.reallocations as f64
        }
    }

    /// The full execution timeline, sorted by `(start, end)`, as a view
    /// that builds each record as it is read (see [`Timeline`]). A run
    /// restored from a snapshot holds only its post-restore records.
    pub fn timeline(&self) -> Timeline<'_> {
        Timeline {
            simulated: &self.simulated,
            labels: &self.labels,
            repeat: self.replay.ok(),
        }
    }

    /// Per-layer computation time, summed across GPUs — the "computation
    /// time of each layer or stage" output §4.1 lists. Index = layer,
    /// value = seconds.
    pub fn per_layer_compute_s(&self) -> Vec<f64> {
        let mut out = Vec::new();
        for r in self.timeline().iter() {
            let (Some(layer), TimelineTrack::Gpu(_)) = (r.layer, r.track) else {
                continue;
            };
            if out.len() <= layer {
                out.resize(layer + 1, 0.0);
            }
            out[layer] += (r.end - r.start).as_seconds();
        }
        out
    }

    /// Per-GPU utilization profile: for each GPU, the fraction of each of
    /// `buckets` equal time slices spent computing. This is the
    /// AkitaRTM-style live view of where the pipeline bubbles and
    /// synchronization stalls sit.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is zero.
    pub fn gpu_utilization(&self, buckets: usize) -> Vec<Vec<f64>> {
        assert!(buckets > 0, "need at least one bucket");
        let gpus = self.per_gpu_compute.len();
        let total = self.total.as_seconds();
        let mut profile = vec![vec![0.0f64; buckets]; gpus];
        if total == 0.0 {
            return profile;
        }
        let width = total / buckets as f64;
        for r in self.timeline().iter() {
            let TimelineTrack::Gpu(g) = r.track else {
                continue;
            };
            let (s, e) = (r.start.as_seconds(), r.end.as_seconds());
            let first = ((s / width) as usize).min(buckets - 1);
            let last = ((e / width) as usize).min(buckets - 1);
            #[allow(clippy::needless_range_loop)]
            for b in first..=last {
                let bucket_start = b as f64 * width;
                let overlap = (e.min(bucket_start + width) - s.max(bucket_start)).max(0.0);
                profile[g][b] += overlap / width;
            }
        }
        for row in &mut profile {
            for v in row {
                *v = v.min(1.0);
            }
        }
        profile
    }

    /// Canonical JSON form of the report: every simulation-determined
    /// field, in a fixed key order, with the (large) timeline folded into
    /// a record count plus an FNV-1a content hash.
    ///
    /// This is the representation the golden snapshot tests and the sweep
    /// engine's deterministic aggregation serialize — it contains no
    /// wall-clock or host-dependent data, so two runs of the same
    /// configuration produce byte-identical output regardless of thread
    /// count or machine.
    pub fn to_canonical_json(&self) -> Value {
        let f = Value::Float;
        let u = Value::UInt;
        let mut fields = vec![
            ("total_time_s".to_string(), f(self.total_time_s())),
            ("compute_time_s".to_string(), f(self.compute_time_s())),
            ("comm_time_s".to_string(), f(self.comm_time_s())),
            ("comm_ratio".to_string(), f(self.comm_ratio())),
            ("bytes_transferred".to_string(), u(self.bytes_transferred)),
            ("tasks_executed".to_string(), u(self.tasks_executed as u64)),
            (
                "per_gpu_compute_s".to_string(),
                Value::Array(
                    self.per_gpu_compute
                        .iter()
                        .map(|t| f(t.as_seconds()))
                        .collect(),
                ),
            ),
            (
                "queue".to_string(),
                Value::Object(vec![
                    ("scheduled".to_string(), u(self.queue.scheduled())),
                    ("delivered".to_string(), u(self.queue.delivered())),
                    ("cancelled".to_string(), u(self.queue.cancelled())),
                    (
                        "max_pending".to_string(),
                        u(self.queue.max_pending() as u64),
                    ),
                    ("compactions".to_string(), u(self.queue.compactions())),
                ]),
            ),
            (
                "network".to_string(),
                Value::Object(vec![
                    ("flows_completed".to_string(), u(self.net.flows_completed)),
                    ("bytes_delivered".to_string(), u(self.net.bytes_delivered)),
                    ("reallocations".to_string(), u(self.net.reallocations)),
                    ("reschedules".to_string(), u(self.net.reschedules)),
                    ("link_faults".to_string(), u(self.net.link_faults)),
                    ("reroutes".to_string(), u(self.net.reroutes)),
                    ("added_hops".to_string(), u(self.net.added_hops)),
                ]),
            ),
            ("timeline_records".to_string(), u(self.timeline_digest.0)),
            ("timeline_hash".to_string(), u(self.timeline_digest.1)),
            ("bottleneck".to_string(), self.bottleneck.to_value()),
        ];
        if let Some(fs) = &self.fault_stats {
            fields.push((
                "faults".to_string(),
                Value::Object(vec![
                    ("faults_injected".to_string(), u(fs.faults_injected)),
                    ("link_degrades".to_string(), u(fs.link_degrades)),
                    ("link_fails".to_string(), u(fs.link_fails)),
                    ("link_repairs".to_string(), u(fs.link_repairs)),
                    ("gpu_drops".to_string(), u(fs.gpu_drops)),
                    (
                        "lost_compute_s".to_string(),
                        Value::Array(fs.lost_compute_s.iter().map(|&s| f(s)).collect()),
                    ),
                ]),
            ));
        }
        if let Some(ps) = &self.packet_stats {
            fields.push((
                "packet".to_string(),
                Value::Object(vec![
                    ("packets_sent".to_string(), u(ps.packets_sent)),
                    ("retransmits".to_string(), u(ps.retransmits)),
                    ("drops".to_string(), u(ps.drops)),
                    ("ecn_marks".to_string(), u(ps.ecn_marks)),
                    ("max_queue_depth".to_string(), u(ps.max_queue_depth)),
                    (
                        "queue_depth_hist".to_string(),
                        Value::Array(ps.queue_depth_hist.iter().map(|&n| u(n)).collect()),
                    ),
                ]),
            ));
        }
        Value::Object(fields)
    }

    /// [`to_canonical_json`](Self::to_canonical_json) as a compact JSON
    /// string (what `triosim-cli simulate --report` writes).
    pub fn to_canonical_string(&self) -> String {
        serde_json::to_string(&self.to_canonical_json())
            .expect("canonical report JSON has no non-finite floats")
    }

    /// Exports the timeline as Chrome `about:tracing` JSON.
    ///
    /// Streams the timeline through the same
    /// [`ChromeTraceSink`] the live observability layer uses, so the
    /// post-hoc export and `--trace-events` produce the same dialect
    /// (named per-track threads, `"X"` complete events).
    ///
    /// # Errors
    ///
    /// Returns the underlying `serde_json` error if serialization fails
    /// (practically impossible for this data).
    pub fn to_chrome_trace(&self) -> Result<String, serde_json::Error> {
        let mut sink = ChromeTraceSink::new(Vec::new());
        for r in self.timeline().iter() {
            let track = match r.track {
                TimelineTrack::Gpu(i) => format!("gpu{i}"),
                TimelineTrack::Network => "network".to_string(),
            };
            match r.layer {
                Some(layer) => sink.span(
                    &track,
                    r.label,
                    r.start,
                    r.end,
                    &[("layer", AttrValue::U64(layer as u64))],
                ),
                None => sink.span(&track, r.label, r.start, r.end, &[]),
            }
        }
        sink.finish().expect("in-memory trace write cannot fail");
        let bytes = sink.into_inner();
        Ok(String::from_utf8(bytes).expect("trace sink emits UTF-8"))
    }
}

/// Gives the timeline's buffer back for the next executor on this
/// thread (DESIGN.md §5, "Warm runs"). The label arena goes back when
/// its last sharer drops.
impl Drop for SimReport {
    fn drop(&mut self) {
        spare::give(|s| &mut s.timeline, mem::take(&mut self.simulated));
    }
}

/// `FNV_PRIME^k` for `k` in `0..=8`.
const PRIME_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < 9 {
        pow[k] = pow[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    pow
};

/// FNV-1a over the 8 bytes of `u64::MAX`, by the state's low byte. A
/// step XORs `0xff` into the low byte only, so it maps `high + low`
/// (`high` a multiple of 256) to `high * FNV_PRIME + step(low)`, and
/// `high * FNV_PRIME` is again a multiple of 256. From state `h` the 8
/// steps therefore give `(h & !0xff) * FNV_PRIME^8 + FF_WORD[h & 0xff]`.
const FF_WORD: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut low = 0;
    while low < 256 {
        let mut h = low as u64;
        let mut k = 0;
        while k < 8 {
            h = (h ^ 0xff).wrapping_mul(FNV_PRIME);
            k += 1;
        }
        table[low] = h;
        low += 1;
    }
    table
};

/// FNV-1a over `w`'s 8 little-endian bytes, a word at a time: XOR with a
/// zero byte is the identity, so the zero high bytes fold as one multiply
/// by a power of the prime, and `u64::MAX` folds through [`FF_WORD`].
fn fold_word(h: u64, w: u64) -> u64 {
    if w == u64::MAX {
        return (h & !0xff)
            .wrapping_mul(PRIME_POW[8])
            .wrapping_add(FF_WORD[(h & 0xff) as usize]);
    }
    let len = 8 - w.leading_zeros() as usize / 8;
    fnv1a(h, &w.to_le_bytes()[..len]).wrapping_mul(PRIME_POW[8 - len])
}

/// A track or layer code as the digest folds it: [`NONE`] is `u64::MAX`.
fn code_word(code: u32) -> u64 {
    if code == NONE {
        u64::MAX
    } else {
        u64::from(code)
    }
}

/// Folds a record's head: its label, a `0xff` separator and its track.
fn fold_head(h: u64, label: &str, track: u32) -> u64 {
    let h = fnv1a(fnv1a(h, label.as_bytes()), &[0xff]);
    fold_word(h, code_word(track))
}

/// Folds the 24 bytes after a record's head: its start and end moved
/// `shift` later, and its layer.
fn fold_tail(h: u64, e: &TimelineEntry, shift: TimeSpan) -> u64 {
    let h = fold_word(h, (e.start + shift).as_seconds().to_bits());
    let h = fold_word(h, (e.end + shift).as_seconds().to_bits());
    fold_word(h, code_word(e.layer))
}

/// Folds timeline entries (in the order given, which must be the
/// canonical `(start, end)` sort order), each moved `shift` later, into
/// a running FNV-1a state: label (read from `labels`), a `0xff`
/// separator, then as little-endian `u64`s the track (the GPU index, or
/// `u64::MAX` for the network), the start and end seconds' bits and the
/// layer (`u64::MAX` for none), so
/// any drift in task scheduling — not just in the aggregate totals —
/// changes the canonical JSON. Because the fold is sequential, a sorted
/// run splits into sorted segments — each iteration's records — and
/// folding segment by segment yields the same state as folding the
/// whole run at once. That is what lets checkpoints carry a fixed-size
/// digest instead of the records themselves, and lets replay fold a
/// synthesized iteration as the verified one shifted, without building
/// its records ([`ReplayFold`] gives the same state for those). The
/// words fold a word at a time ([`fold_word`]); the state equals a
/// byte-by-byte fold.
pub(crate) fn timeline_fnv(
    seed: u64,
    entries: &[TimelineEntry],
    labels: &Labels,
    shift: TimeSpan,
) -> u64 {
    let mut h = seed;
    for e in entries {
        h = fold_tail(fold_head(h, labels.get(e.task as usize), e.track), e, shift);
    }
    h
}

/// `FNV_PRIME^24`: the factor a record's 24 tail bytes put on the
/// state's high part.
const PRIME_POW_24: u64 = PRIME_POW[8]
    .wrapping_mul(PRIME_POW[8])
    .wrapping_mul(PRIME_POW[8]);

/// The low byte FNV-1a over a fixed byte string (a record's head)
/// leaves, as a function of the low byte it starts from, in 32 bytes,
/// and the factor the head and its record's tail put on the high part.
///
/// A step XORs a byte into the state's low byte and multiplies by the
/// odd prime, so bit `k` of the state after it depends only on bits
/// `0..=k` before it, and flipping bit `k` before flips bit `k` after
/// (carries run upward). Over the whole string, then, the low byte `l`
/// becomes `l ^ d(l)`, where bit `k` of `d` depends only on `l mod 2^k`:
/// a table of `2^k` bits for each `k`, 255 bits in all. They are kept
/// heap-wise in 256 bits: bit `k` of `d(l)` sits at `2^k + l mod 2^k`.
#[derive(Clone, Copy)]
struct HeadFold {
    /// `d`, bit `k` of `d(l)` at bit `2^k + l mod 2^k`.
    bits: [u64; 4],
    /// `FNV_PRIME^(|head| + 24)`.
    pow: u64,
}

impl HeadFold {
    /// The fold of `head`: `d` is read off one lane per entry byte, each
    /// stepped through every byte of `head` by the prime's low byte. A
    /// product's low byte depends only on its factors' low bytes, so the
    /// lanes are `u16`, which SSE2 multiplies natively, read as `u8`. Bit
    /// 7 of the entry byte flips only bit 7 of every later low byte, so
    /// entry bytes below 128 determine `d`; debug builds step all 256 and
    /// check the map against each.
    fn new(head: impl IntoIterator<Item = u8>) -> Self {
        let stepped = if cfg!(debug_assertions) { 256 } else { 128 };
        let mut lanes: [u16; 256] = std::array::from_fn(|l| l as u16);
        let mut len = 0u32;
        for b in head {
            for lane in &mut lanes[..stepped] {
                *lane = (*lane ^ u16::from(b)).wrapping_mul(FNV_PRIME as u16);
            }
            len += 1;
        }
        let d: [u8; 128] = std::array::from_fn(|l| lanes[l] as u8 ^ l as u8);
        let mut bits = [0u64; 4];
        for k in 0..8 {
            let n = 1usize << k;
            for (j, eight) in d.chunks_exact(8).take(n.div_ceil(8)).enumerate() {
                // Bit `k` of eight entry bytes' `d` at once: the multiply
                // moves byte `i`'s bit to bit `56 + i`, carry-free.
                let word = u64::from_le_bytes(eight.try_into().expect("chunks of 8"));
                let gathered =
                    ((word >> k) & 0x0101_0101_0101_0101).wrapping_mul(0x0102_0408_1020_4080) >> 56;
                let at = n + 8 * j;
                bits[at / 64] |= (gathered & ((1 << n.min(8)) - 1)) << (at % 64);
            }
        }
        let fold = HeadFold {
            bits,
            pow: FNV_PRIME.wrapping_pow(len + 24),
        };
        debug_assert!(
            (0..256).all(|l| fold.low_byte(l as u8) == lanes[l] as u8),
            "a bit of the low byte depends on a higher bit"
        );
        fold
    }

    /// The low byte after the head, from entry low byte `l`.
    #[inline]
    fn low_byte(&self, l: u8) -> u8 {
        let d = (0..8).fold(0, |d, k| {
            let at = 1 << k | usize::from(l) & ((1 << k) - 1);
            d | ((self.bits[at / 64] >> (at % 64)) as u8 & 1) << k
        });
        l ^ d
    }
}

/// [`timeline_fnv`] for repeats of one verified iteration, whose records
/// change between repeats only in their 16 time bytes.
///
/// FNV-1a from `h` over bytes `S` is `(h & !0xff) * FNV_PRIME^|S|` plus
/// the fold of `S` from `h`'s low byte alone, since each step XORs into
/// the low byte only. So the state splits into a high part and a low
/// byte, and only the low byte feeds the next step's input: per record,
/// it steps through the head's [`HeadFold`] map and the 24 tail bytes
/// (giving `y`), while the head's full contribution `g` is folded from
/// the record's entry low byte off that chain and joined into the high
/// part: `hi * pow + (g & !0xff) * FNV_PRIME^24 + (y & !0xff)`.
pub(crate) struct ReplayFold {
    heads: Vec<HeadFold>,
}

impl ReplayFold {
    /// The fold of the (sorted) `entries` of a verified iteration.
    pub(crate) fn new(entries: &[TimelineEntry], labels: &Labels) -> Self {
        let heads = entries
            .iter()
            .map(|e| {
                let label = labels.get(e.task as usize).bytes();
                let track = code_word(e.track).to_le_bytes();
                HeadFold::new(label.chain([0xff]).chain(track))
            })
            .collect();
        ReplayFold { heads }
    }

    /// `timeline_fnv(seed, entries, labels, shift)`, where `entries` are
    /// the records this fold was built from.
    pub(crate) fn fold(
        &self,
        seed: u64,
        entries: &[TimelineEntry],
        labels: &Labels,
        shift: TimeSpan,
    ) -> u64 {
        assert_eq!(
            self.heads.len(),
            entries.len(),
            "a replay fold covers the records it was built from"
        );
        let (mut hi, mut low) = (seed & !0xff, seed as u8);
        for (head, e) in self.heads.iter().zip(entries) {
            // The chain first, so that a mispredicted label length in the
            // refold below discards none of it.
            let y = fold_tail(u64::from(head.low_byte(low)), e, shift);
            let g = fold_head(u64::from(low), labels.get(e.task as usize), e.track);
            hi = hi
                .wrapping_mul(head.pow)
                .wrapping_add((g & !0xff).wrapping_mul(PRIME_POW_24))
                .wrapping_add(y & !0xff);
            low = y as u8;
        }
        hi | u64::from(low)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use triosim_des::FNV_OFFSET;

    fn t(s: f64) -> VirtualTime {
        VirtualTime::from_seconds(s)
    }

    /// A report over `records`, with `records[i]` task `i` labelled `labels[i]`.
    fn report(
        total_s: f64,
        per_gpu_s: &[f64],
        labels: &[&str],
        records: Vec<TimelineEntry>,
    ) -> SimReport {
        let mut arena = Labels::default();
        for l in labels {
            arena.push(l);
        }
        let n = records.len() as u64;
        SimReport::new(
            TimeSpan::from_seconds(total_s),
            per_gpu_s
                .iter()
                .map(|&s| TimeSpan::from_seconds(s))
                .collect(),
            TimeSpan::ZERO,
            0,
            records.len(),
            QueueStats::default(),
            NetObservation::default(),
            records,
            Arc::new(arena),
            (n, FNV_OFFSET),
        )
    }

    /// Task 0 on GPU 0, in layer `layer`.
    fn op(start: f64, end: f64, layer: Option<u32>) -> TimelineEntry {
        TimelineEntry::new(TaskId(0), TimelineTrack::Gpu(0), layer, t(start), t(end))
    }

    #[test]
    fn report_accessors_and_ratio() {
        let report = SimReport::new(
            TimeSpan::from_seconds(10.0),
            vec![TimeSpan::from_seconds(6.0), TimeSpan::from_seconds(4.0)],
            TimeSpan::from_seconds(2.0),
            1234,
            7,
            QueueStats::default(),
            NetObservation::default(),
            vec![],
            Arc::default(),
            (0, FNV_OFFSET),
        );
        assert_eq!(report.total_time_s(), 10.0);
        assert_eq!(report.compute_time_s(), 6.0);
        assert_eq!(report.comm_time_s(), 2.0);
        assert!((report.comm_ratio() - 0.25).abs() < 1e-12);
        assert_eq!(report.bytes_transferred(), 1234);
        assert_eq!(report.tasks_executed(), 7);
        assert!(report.timeline().is_empty());
    }

    #[test]
    fn entries_are_32_bytes() {
        assert_eq!(std::mem::size_of::<TimelineEntry>(), 32);
    }

    #[test]
    fn replay_folds_cost_40_bytes_a_record() {
        assert_eq!(std::mem::size_of::<HeadFold>(), 40);
    }

    #[test]
    fn entries_round_trip_tracks_and_layers() {
        let mut labels = Labels::default();
        labels.push("a");
        labels.push("b");
        let gpu = TimelineEntry::new(TaskId(1), TimelineTrack::Gpu(3), Some(0), t(1.0), t(2.0));
        let net = TimelineEntry::new(TaskId(0), TimelineTrack::Network, None, t(0.0), t(1.0));
        let r = gpu.record(&labels);
        assert_eq!(
            (r.label, r.track, r.layer),
            ("b", TimelineTrack::Gpu(3), Some(0))
        );
        let r = net.record(&labels);
        assert_eq!(
            (r.label, r.track, r.layer),
            ("a", TimelineTrack::Network, None)
        );
    }

    #[test]
    fn utilization_profile_localizes_work() {
        // One task occupying the first half of a 2-second run.
        let report = report(2.0, &[1.0], &["op"], vec![op(0.0, 1.0, Some(3))]);
        let profile = report.gpu_utilization(4);
        assert_eq!(profile.len(), 1);
        assert!((profile[0][0] - 1.0).abs() < 1e-9);
        assert!((profile[0][1] - 1.0).abs() < 1e-9);
        assert!(profile[0][2] < 1e-9);
        assert!(profile[0][3] < 1e-9);
    }

    #[test]
    fn per_layer_compute_attributes_time() {
        let report = report(2.0, &[1.0], &["op"], vec![op(0.0, 1.0, Some(3))]);
        let per_layer = report.per_layer_compute_s();
        assert_eq!(per_layer.len(), 4);
        assert!((per_layer[3] - 1.0).abs() < 1e-12);
        assert_eq!(per_layer[0], 0.0);
    }

    #[test]
    fn chrome_trace_exports() {
        let report = report(1.0, &[1.0], &["conv1@g0"], vec![op(0.0, 1.0, None)]);
        let json = report.to_chrome_trace().unwrap();
        assert!(json.contains("conv1@g0"));
        assert!(json.contains("\"ph\":\"X\""));
    }

    #[test]
    fn replayed_timeline_repeats_the_segment_on_first_read() {
        // Two simulated 1-second iterations, then two synthesized ones.
        let simulated = vec![op(0.0, 0.5, Some(0)), op(1.0, 1.5, Some(0))];
        let mut replayed = report(4.0, &[2.0], &["op"], simulated);
        replayed.set_replay(Ok(Repeat {
            segment: 1,
            period: TimeSpan::from_seconds(1.0),
            count: 2,
        }));
        assert_eq!(replayed.replay(), Replay::Synthesized(2));
        let all = (0..4)
            .map(|k| op(k as f64, k as f64 + 0.5, Some(0)))
            .collect();
        let serial = report(4.0, &[2.0], &["op"], all);
        assert_eq!(replayed.timeline().len(), 4);
        assert_eq!(replayed.timeline().iter().count(), 4);
        assert_eq!(replayed.timeline(), serial.timeline());
        assert_eq!(replayed.per_layer_compute_s(), vec![2.0]);
    }

    #[test]
    fn shifted_fold_equals_folding_shifted_records() {
        let mut labels = Labels::default();
        labels.push("op");
        let records = [op(0.0, 0.5, Some(0)), op(0.5, 1.0, Some(0))];
        let shift = TimeSpan::from_seconds(3.0);
        let moved = [op(3.0, 3.5, Some(0)), op(3.5, 4.0, Some(0))];
        assert_eq!(
            timeline_fnv(FNV_OFFSET, &records, &labels, shift),
            timeline_fnv(FNV_OFFSET, &moved, &labels, TimeSpan::ZERO)
        );
        assert_ne!(
            timeline_fnv(FNV_OFFSET, &records, &labels, shift),
            timeline_fnv(FNV_OFFSET, &records, &labels, TimeSpan::ZERO)
        );
    }

    /// The byte-at-a-time fold `timeline_fnv` must equal: every field's
    /// little-endian bytes through FNV-1a, one byte per step.
    fn timeline_fnv_by_bytes(
        seed: u64,
        entries: &[TimelineEntry],
        labels: &Labels,
        shift: TimeSpan,
    ) -> u64 {
        let mut h = seed;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for e in entries {
            let r = e.record(labels);
            eat(r.label.as_bytes());
            eat(&[0xff]);
            match r.track {
                TimelineTrack::Gpu(i) => eat(&(i as u64).to_le_bytes()),
                TimelineTrack::Network => eat(&u64::MAX.to_le_bytes()),
            }
            eat(&(r.start + shift).as_seconds().to_bits().to_le_bytes());
            eat(&(r.end + shift).as_seconds().to_bits().to_le_bytes());
            eat(&r.layer.map_or(u64::MAX, |l| l as u64).to_le_bytes());
        }
        h
    }

    /// SplitMix64: a dependency-free, seeded stream.
    fn splitmix(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    /// The labels [`draw_entries`] names its tasks by: empty, ASCII and
    /// multi-byte UTF-8.
    fn fold_labels() -> Labels {
        let mut labels = Labels::default();
        for name in ["", "conv1@g0", "ddp.bucket3.s2.rank1->rank2", "Grüße→τ"] {
            labels.push(name);
        }
        labels
    }

    /// 1 to 12 entries over [`fold_labels`], drawn from `next`.
    /// Their codes fold through the table (`None`, the network), as one
    /// byte, as three, and as four; their times' seconds' bits are all
    /// zero (0), end in zero bytes (1 s, 0.5 s) or are arbitrary.
    fn draw_entries(next: &mut impl FnMut() -> u64) -> Vec<TimelineEntry> {
        let codes = [None, Some(0), Some(7), Some(255), Some(256), Some(1 << 24)];
        let code = |r: u64| codes[r as usize % codes.len()].map(|c: u32| c + (r >> 60) as u32);
        let time = |r: u64| match r % 4 {
            0 => VirtualTime::ZERO,
            1 => t(1.0),
            2 => t(0.5),
            _ => VirtualTime::from_femtos(r >> 8),
        };
        (0..1 + next() % 12)
            .map(|_| {
                let (a, b) = (time(next()), time(next()));
                let track = match code(next()) {
                    None => TimelineTrack::Network,
                    Some(gpu) => TimelineTrack::Gpu(gpu as usize),
                };
                let task = TaskId(next() as usize % 4);
                TimelineEntry::new(task, track, code(next()), a.min(b), a.max(b))
            })
            .collect()
    }

    #[test]
    fn word_fold_equals_the_byte_fold() {
        // Every low byte of the state, through the all-ones word.
        for low in 0..256u64 {
            let h = 0x1234_5678_9abc_de00 | low;
            assert_eq!(
                fold_word(h, u64::MAX),
                fnv1a(h, &u64::MAX.to_le_bytes()),
                "state low byte {low}"
            );
        }
        let mut next = splitmix(0x9e37_79b9_7f4a_7c15);
        let labels = fold_labels();
        for case in 0..200 {
            let entries = draw_entries(&mut next);
            let shift = TimeSpan::from_femtos(if case % 2 == 0 { 0 } else { next() >> 12 });
            let seed = if case % 3 == 0 { FNV_OFFSET } else { next() };
            assert_eq!(
                timeline_fnv(seed, &entries, &labels, shift),
                timeline_fnv_by_bytes(seed, &entries, &labels, shift),
                "case {case}"
            );
        }
    }

    #[test]
    fn replay_fold_equals_the_byte_fold() {
        let mut next = splitmix(0x2545_f491_4f6c_dd1d);
        let labels = fold_labels();
        // A seed with each low byte, so every record's map is entered
        // from varied low bytes.
        for low in 0..256u64 {
            let entries = draw_entries(&mut next);
            let fold = ReplayFold::new(&entries, &labels);
            let shift = TimeSpan::from_femtos(if low % 2 == 0 { 0 } else { next() >> 12 });
            let seed = next() & !0xff | low;
            assert_eq!(
                fold.fold(seed, &entries, &labels, shift),
                timeline_fnv_by_bytes(seed, &entries, &labels, shift),
                "seed low byte {low}"
            );
        }
    }

    #[test]
    fn head_fold_maps_every_entry_byte() {
        let mut next = splitmix(0x0123_4567_89ab_cdef);
        for case in 0..300 {
            let bytes: Vec<u8> = (0..next() % 65).map(|_| next() as u8).collect();
            let fold = HeadFold::new(bytes.iter().copied());
            for l in 0..=255u8 {
                let by_bytes = bytes.iter().fold(u64::from(l), |h, &b| {
                    (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
                });
                assert_eq!(
                    fold.low_byte(l),
                    by_bytes as u8,
                    "case {case}, entry byte {l}"
                );
            }
            let pow = (0..bytes.len() + 24).fold(1u64, |p, _| p.wrapping_mul(FNV_PRIME));
            assert_eq!(fold.pow, pow, "case {case}");
        }
    }
}
