//! Simulation results: totals, breakdowns, and the timeline output.
//!
//! Matches §4.1's list of TrioSim outputs: total predicted execution
//! time, per-layer/per-phase communication and computation time, and a
//! timeline of the computation on each GPU and communication between
//! GPUs. The timeline exports to the Chrome `about:tracing` JSON format
//! (the same format the PyTorch profiler uses), so it can be inspected in
//! any trace viewer.

use std::fmt;
use std::sync::OnceLock;

use serde::Value;
use triosim_des::{QueueStats, TimeSpan, VirtualTime};
use triosim_network::{NetObservation, PacketObservation};
use triosim_obs::{AttrValue, BottleneckReport, ChromeTraceSink, Recorder};

/// Which resource a timeline record occupied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TimelineTrack {
    /// GPU `i`'s compute stream.
    Gpu(usize),
    /// The interconnect.
    Network,
}

/// One executed task on the timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineRecord {
    /// Task label (operator or transfer name).
    pub label: String,
    /// Resource it ran on.
    pub track: TimelineTrack,
    /// Start time.
    pub start: VirtualTime,
    /// End time.
    pub end: VirtualTime,
    /// Model layer the task belongs to, when known.
    pub layer: Option<usize>,
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
    simulated: Vec<TimelineRecord>,
    /// Replay's outcome; on success, how the synthesized iterations
    /// extend `simulated`.
    replay: Result<Repeat, SerialReason>,
    /// `simulated` plus the synthesized records, built on first read.
    timeline: OnceLock<Vec<TimelineRecord>>,
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
        simulated: Vec<TimelineRecord>,
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
            replay: Err(SerialReason::FewIterations),
            timeline: OnceLock::new(),
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
    /// scheduled, delivered, and lazily cancelled, and the high-water
    /// mark of pending events (the AkitaRTM-style engine counters).
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

    /// The full execution timeline, sorted by `(start, end)`. On a
    /// replayed run the synthesized iterations' records are built on the
    /// first call; they equal the records simulating them would have
    /// produced.
    pub fn timeline(&self) -> &[TimelineRecord] {
        match self.replay {
            Err(_) => &self.simulated,
            Ok(repeat) => self.timeline.get_or_init(|| {
                let segment = &self.simulated[self.simulated.len() - repeat.segment..];
                let mut all =
                    Vec::with_capacity(self.simulated.len() + segment.len() * repeat.count);
                all.extend_from_slice(&self.simulated);
                let mut shift = TimeSpan::ZERO;
                for _ in 0..repeat.count {
                    shift += repeat.period;
                    all.extend(segment.iter().map(|r| TimelineRecord {
                        start: r.start + shift,
                        end: r.end + shift,
                        ..r.clone()
                    }));
                }
                all
            }),
        }
    }

    /// Per-layer computation time, summed across GPUs — the "computation
    /// time of each layer or stage" output §4.1 lists. Index = layer,
    /// value = seconds.
    pub fn per_layer_compute_s(&self) -> Vec<f64> {
        let mut out = Vec::new();
        for r in self.timeline() {
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
        for r in self.timeline() {
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
        for r in self.timeline() {
            let track = match r.track {
                TimelineTrack::Gpu(i) => format!("gpu{i}"),
                TimelineTrack::Network => "network".to_string(),
            };
            match r.layer {
                Some(layer) => sink.span(
                    &track,
                    &r.label,
                    r.start,
                    r.end,
                    &[("layer", AttrValue::U64(layer as u64))],
                ),
                None => sink.span(&track, &r.label, r.start, r.end, &[]),
            }
        }
        sink.finish().expect("in-memory trace write cannot fail");
        let bytes = sink.into_inner();
        Ok(String::from_utf8(bytes).expect("trace sink emits UTF-8"))
    }
}

/// FNV-1a initial state: the digest of zero timeline records.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds timeline records (in the order given, which must be the
/// canonical `(start, end)` sort order), each moved `shift` later, into
/// a running FNV-1a state: label, track, start/end bits and layer, so
/// any drift in task scheduling — not just in the aggregate totals —
/// changes the canonical JSON. Because the fold is sequential, a sorted
/// run splits into sorted segments — each iteration's records — and
/// folding segment by segment yields the same state as folding the
/// whole run at once. That is what lets checkpoints carry a fixed-size
/// digest instead of the records themselves, and lets replay fold a
/// synthesized iteration as the verified one shifted, without building
/// its records.
pub(crate) fn timeline_fnv<'a, I>(seed: u64, records: I, shift: TimeSpan) -> u64
where
    I: Iterator<Item = &'a TimelineRecord>,
{
    let mut h = seed;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    for r in records {
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

/// Merges possibly-overlapping intervals into their union: sorted,
/// disjoint, with touching intervals coalesced. The union is
/// associative and idempotent, so pre-merged interval sets (as stored
/// in checkpoints) fold in without changing any derived length.
pub(crate) fn merge_intervals(
    mut intervals: Vec<(VirtualTime, VirtualTime)>,
) -> Vec<(VirtualTime, VirtualTime)> {
    intervals.sort();
    let mut merged: Vec<(VirtualTime, VirtualTime)> = Vec::new();
    for (s, e) in intervals {
        match merged.last_mut() {
            Some((_, ce)) if s <= *ce => *ce = (*ce).max(e),
            _ => merged.push((s, e)),
        }
    }
    merged
}

/// Merges possibly-overlapping intervals and returns their union length.
pub(crate) fn union_length(intervals: Vec<(VirtualTime, VirtualTime)>) -> TimeSpan {
    merge_intervals(intervals)
        .into_iter()
        .fold(TimeSpan::ZERO, |acc, (s, e)| acc + (e - s))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> VirtualTime {
        VirtualTime::from_seconds(s)
    }

    #[test]
    fn union_of_disjoint_intervals() {
        let u = union_length(vec![(t(0.0), t(1.0)), (t(2.0), t(3.0))]);
        assert_eq!(u, TimeSpan::from_seconds(2.0));
    }

    #[test]
    fn union_of_overlapping_intervals() {
        let u = union_length(vec![(t(0.0), t(2.0)), (t(1.0), t(3.0)), (t(2.5), t(2.8))]);
        assert_eq!(u, TimeSpan::from_seconds(3.0));
    }

    #[test]
    fn union_of_nothing_is_zero() {
        assert_eq!(union_length(vec![]), TimeSpan::ZERO);
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
            (0, FNV_OFFSET),
        );
        assert_eq!(report.total_time_s(), 10.0);
        assert_eq!(report.compute_time_s(), 6.0);
        assert_eq!(report.comm_time_s(), 2.0);
        assert!((report.comm_ratio() - 0.25).abs() < 1e-12);
        assert_eq!(report.bytes_transferred(), 1234);
        assert_eq!(report.tasks_executed(), 7);
    }

    #[test]
    fn utilization_profile_localizes_work() {
        // One task occupying the first half of a 2-second run.
        let report = SimReport::new(
            TimeSpan::from_seconds(2.0),
            vec![TimeSpan::from_seconds(1.0)],
            TimeSpan::ZERO,
            0,
            1,
            QueueStats::default(),
            NetObservation::default(),
            vec![TimelineRecord {
                label: "op".into(),
                track: TimelineTrack::Gpu(0),
                start: t(0.0),
                end: t(1.0),
                layer: Some(3),
            }],
            (1, FNV_OFFSET),
        );
        let profile = report.gpu_utilization(4);
        assert_eq!(profile.len(), 1);
        assert!((profile[0][0] - 1.0).abs() < 1e-9);
        assert!((profile[0][1] - 1.0).abs() < 1e-9);
        assert!(profile[0][2] < 1e-9);
        assert!(profile[0][3] < 1e-9);
    }

    #[test]
    fn per_layer_compute_attributes_time() {
        let report = SimReport::new(
            TimeSpan::from_seconds(2.0),
            vec![TimeSpan::from_seconds(1.0)],
            TimeSpan::ZERO,
            0,
            1,
            QueueStats::default(),
            NetObservation::default(),
            vec![TimelineRecord {
                label: "op".into(),
                track: TimelineTrack::Gpu(0),
                start: t(0.0),
                end: t(1.0),
                layer: Some(3),
            }],
            (1, FNV_OFFSET),
        );
        let per_layer = report.per_layer_compute_s();
        assert_eq!(per_layer.len(), 4);
        assert!((per_layer[3] - 1.0).abs() < 1e-12);
        assert_eq!(per_layer[0], 0.0);
    }

    #[test]
    fn chrome_trace_exports() {
        let report = SimReport::new(
            TimeSpan::from_seconds(1.0),
            vec![TimeSpan::from_seconds(1.0)],
            TimeSpan::ZERO,
            0,
            1,
            QueueStats::default(),
            NetObservation::default(),
            vec![TimelineRecord {
                label: "conv1@g0".into(),
                track: TimelineTrack::Gpu(0),
                start: t(0.0),
                end: t(1.0),
                layer: None,
            }],
            (1, FNV_OFFSET),
        );
        let json = report.to_chrome_trace().unwrap();
        assert!(json.contains("conv1@g0"));
        assert!(json.contains("\"ph\":\"X\""));
    }

    fn op(start: f64, end: f64) -> TimelineRecord {
        TimelineRecord {
            label: "op".into(),
            track: TimelineTrack::Gpu(0),
            start: t(start),
            end: t(end),
            layer: Some(0),
        }
    }

    #[test]
    fn replayed_timeline_repeats_the_segment_on_first_read() {
        // Two simulated 1-second iterations, then two synthesized ones.
        let simulated = vec![op(0.0, 0.5), op(1.0, 1.5)];
        let mut report = SimReport::new(
            TimeSpan::from_seconds(4.0),
            vec![TimeSpan::from_seconds(2.0)],
            TimeSpan::ZERO,
            0,
            4,
            QueueStats::default(),
            NetObservation::default(),
            simulated,
            (4, FNV_OFFSET),
        );
        report.set_replay(Ok(Repeat {
            segment: 1,
            period: TimeSpan::from_seconds(1.0),
            count: 2,
        }));
        assert_eq!(report.replay(), Replay::Synthesized(2));
        let all: Vec<TimelineRecord> = (0..4).map(|k| op(k as f64, k as f64 + 0.5)).collect();
        assert_eq!(report.timeline(), all.as_slice());
        assert_eq!(report.per_layer_compute_s(), vec![2.0]);
    }

    #[test]
    fn shifted_fold_equals_folding_shifted_records() {
        let records = [op(0.0, 0.5), op(0.5, 1.0)];
        let shift = TimeSpan::from_seconds(3.0);
        let moved = [op(3.0, 3.5), op(3.5, 4.0)];
        assert_eq!(
            timeline_fnv(FNV_OFFSET, records.iter(), shift),
            timeline_fnv(FNV_OFFSET, moved.iter(), TimeSpan::ZERO)
        );
        assert_ne!(
            timeline_fnv(FNV_OFFSET, records.iter(), shift),
            timeline_fnv(FNV_OFFSET, records.iter(), TimeSpan::ZERO)
        );
    }
}
