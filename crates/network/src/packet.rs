//! The packet-level network tier.
//!
//! [`FlowNetwork`](crate::FlowNetwork) abstracts a transfer as a fluid
//! flow draining at its fair share — exactly the protocol effects
//! (queueing, drops, congestion control) that make lightweight
//! simulators optimistic under congestion. `PacketNetwork` is the
//! opt-in higher-fidelity tier: it packetizes every send into MTU-sized
//! packets and simulates store-and-forward serialization plus
//! propagation on each hop, per-link FIFO tail-drop queues of
//! configurable depth, ECN marking with a DCTCP-style per-flow
//! congestion window, and RTO retransmission of dropped packets.
//!
//! # Component replay
//!
//! The simulator owns the event queue, so the model cannot run a packet
//! clock of its own beside it; like every [`NetworkModel`] it must
//! answer `send` with a projected delivery time. The model therefore
//! keeps the arrival list of the current *busy period* (the maximal
//! window during which flows are in flight), split into *components*:
//! maximal sets of arrivals whose routes are connected by shared links.
//! On each `send` the new arrival merges with every component that owns
//! a link of its route, and only that merged component is
//! deterministically re-simulated; the model emits re-`Schedule`
//! commands for its flows whose projected completion moved. Every other
//! component keeps its projection, so a send costs the events of the
//! component it joins, not those of the whole period.
//!
//! Component replay equals the whole-period replay bit for bit. Inside a
//! replay, flows share state only through a link's queue and busy flag
//! (ACKs return on a latency-only path, and the statistics are sums and
//! one max), so components never influence each other. And restricted
//! to one component, the replay's `(time, insertion id)` event order is
//! the same whether or not other components' events interleave: Start
//! events come first in arrival order, and generated events follow in
//! generation order. The whole-period replay survives as `replay` over
//! every arrival, the oracle the tests hold component replay to.
//!
//! Causality makes the projections exact: a packet injected at `now`
//! cannot influence any packet event before `now`, so completions an
//! earlier replay placed in the past are final by the time they could
//! be contradicted. When the last flow of a period delivers, the
//! components' packet statistics are committed and the period is
//! cleared.
//!
//! # Replay memo
//!
//! A replay is a pure function of its *shift-free input*: each member's
//! arrival offset from the earliest member, its size, ACK latency and
//! route over locally numbered links, and those links' bandwidth and
//! latency (the [`PacketConfig`] is fixed per network). Every time in a
//! replay is an integer femtosecond count built by checked addition
//! from the arrival times, and events are ordered by `(time, insertion
//! id)`, so the same input shifted by Δ replays to the same outcome
//! shifted by Δ, bit for bit. A ring collective sends the same chunk
//! over the same route shapes at every step and every iteration, so
//! most replays repeat an earlier one's input. The network therefore
//! keeps a memo from the full input (stored, not hashed, so a hit is
//! exact) to the outcome — completions as offsets, packet statistics,
//! and per-link usage — and a send whose component input is already
//! there shifts the stored outcome instead of re-simulating. The memo
//! lives as long as the network, stores at most [`MEMO_WORD_BUDGET`]
//! words, and is invisible in every output: packet cost scales with the
//! distinct replay inputs of a run, not with its sends.
//!
//! # Where the tiers must agree, and where they must not
//!
//! On an uncongested path whose congestion window covers the
//! bandwidth-delay product, the last packet leaves the source back to
//! back with its predecessors, so delivery lands at
//! `latency + bytes/bandwidth` — the flow model's analytic time — to
//! within one MTU serialization delay (the convergence bound
//! `tests/fidelity.rs` enforces). Under incast or oversubscription the
//! tiers *should* diverge: queues build, ECN shrinks windows, shallow
//! buffers drop and retransmit, and the packet tier reports the
//! slowdown the flow model cannot see.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::sync::Arc;

use triosim_des::{fnv1a, TimeSpan, VirtualTime, FNV_OFFSET};

use crate::model::{
    FlowId, LinkObservation, NetCommand, NetObservation, NetworkModel, PacketObservation,
    PartitionedError,
};
use crate::topology::{LinkId, NodeId, Topology};

/// Parameters of the packet tier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketConfig {
    /// Maximum transmission unit: payload bytes per packet.
    pub mtu_bytes: u64,
    /// Switch-queue capacity in packets; enqueues beyond it tail-drop.
    /// Source NICs are not switch queues: the sender paces itself with
    /// its congestion window, so the first hop never drops or marks.
    pub buffer_packets: usize,
    /// ECN marking threshold: packets enqueued at this waiting depth or
    /// deeper are marked (DCTCP's step-marking `K`).
    pub ecn_threshold: usize,
    /// DCTCP gain `g` for the EWMA of the marked fraction.
    pub dctcp_gain: f64,
    /// Initial congestion window in packets. Uncongested convergence to
    /// the flow model requires `initial_cwnd * mtu_bytes` to cover the
    /// path's bandwidth-delay product.
    pub initial_cwnd: f64,
    /// Retransmission timeout for tail-dropped packets, seconds.
    pub rto_s: f64,
}

impl PacketConfig {
    /// The default datacenter-style configuration: jumbo-frame MTU, a
    /// 64-packet switch buffer with DCTCP marking at 16, and a window
    /// large enough to cover NVLink-class bandwidth-delay products.
    pub fn datacenter() -> Self {
        PacketConfig {
            mtu_bytes: 8192,
            buffer_packets: 64,
            ecn_threshold: 16,
            dctcp_gain: 1.0 / 16.0,
            initial_cwnd: 256.0,
            rto_s: 200e-6,
        }
    }

    /// A shallow-buffered configuration (12-packet queues, marking at 4)
    /// that makes drops and ECN pressure easy to provoke in tests.
    pub fn shallow() -> Self {
        PacketConfig {
            buffer_packets: 12,
            ecn_threshold: 4,
            initial_cwnd: 64.0,
            ..Self::datacenter()
        }
    }
}

impl Default for PacketConfig {
    fn default() -> Self {
        Self::datacenter()
    }
}

/// One send of the current busy period.
#[derive(Debug, Clone)]
struct Arrival {
    at: VirtualTime,
    flow: FlowId,
    route: Arc<[LinkId]>,
    /// ACK return latency: the route's propagation latency (the reverse
    /// path is assumed symmetric and unqueued — ACKs are tiny).
    rev_latency: TimeSpan,
    bytes: u64,
}

/// A maximal set of the open period's arrivals whose routes are
/// connected by shared links, with its latest replay's projection.
#[derive(Debug)]
struct Component {
    /// Arrival indices, ascending.
    members: Vec<usize>,
    /// The replay of exactly `members`; its `links` are the links this
    /// component owns.
    replay: Replay,
}

/// One packet in flight inside a replay. Its size follows from its flow
/// and sequence number ([`SimFlow::pkt_bytes`]).
#[derive(Debug, Clone, Copy)]
struct Pkt {
    flow: u32,
    seq: u64,
    hop: u32,
    marked: bool,
}

/// Replay events, taken in `(time, insertion id)` order: the id breaks
/// ties deterministically.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// A flow's arrival: inject its initial window.
    Start { flow: u32 },
    /// A link finished serializing; serve the next queued packet.
    LinkFree { link: u32 },
    /// A packet finished propagation and reached the far end of a link.
    Arrive { pkt: Pkt },
    /// An acknowledgement returned to the source.
    Ack { flow: u32, marked: bool },
    /// A tail-dropped packet's RTO fired; re-inject at the source.
    Retx { flow: u32, seq: u64 },
}

/// A replay's pending events.
trait Pending {
    /// Pending events for `streams` sources.
    fn new(streams: usize) -> Self;
    /// Adds `ev`, due at `t`, from source `stream` with insertion id `id`.
    fn push(&mut self, stream: usize, t: VirtualTime, id: u64, ev: Ev);
    /// Takes the pending event least by `(time, insertion id)`.
    fn pop(&mut self) -> Option<(VirtualTime, Ev)>;
}

/// Pending events in one FIFO per source, plus a heap of the sources'
/// heads. No source's times decrease (see [`Replayer::stream`]) and ids
/// follow insertion order, so each FIFO is sorted by `(time, id)` and
/// the least head is the least pending event.
struct Streams {
    streams: Vec<VecDeque<(VirtualTime, u64, Ev)>>,
    /// `(time, id, stream)` of every non-empty stream's first event.
    heads: BinaryHeap<Reverse<(VirtualTime, u64, usize)>>,
}

impl Pending for Streams {
    fn new(streams: usize) -> Self {
        Streams {
            streams: vec![VecDeque::new(); streams],
            heads: BinaryHeap::new(),
        }
    }

    fn push(&mut self, stream: usize, t: VirtualTime, id: u64, ev: Ev) {
        let fifo = &mut self.streams[stream];
        match fifo.back() {
            Some(&(last, ..)) => debug_assert!(
                last <= t,
                "stream {stream} went back in time: {t:?} after {last:?}"
            ),
            None => self.heads.push(Reverse((t, id, stream))),
        }
        fifo.push_back((t, id, ev));
    }

    fn pop(&mut self) -> Option<(VirtualTime, Ev)> {
        let mut head = self.heads.peek_mut()?;
        let Reverse((t, _, stream)) = *head;
        let fifo = &mut self.streams[stream];
        let (_, _, ev) = fifo.pop_front().expect("a stream with a head is non-empty");
        match fifo.front() {
            // The stream's next event replaces its head in place.
            Some(&(next, id, _)) => *head = Reverse((next, id, stream)),
            None => {
                PeekMut::pop(head);
            }
        }
        Some((t, ev))
    }
}

/// Per-flow replay state.
#[derive(Debug, Clone)]
struct SimFlow {
    /// The route as indices into the replay's links.
    route: Vec<u32>,
    total: u64,
    last_bytes: u64,
    rev_latency: TimeSpan,
    next_seq: u64,
    outstanding: u64,
    delivered: u64,
    acked: u64,
    cwnd: f64,
    alpha: f64,
    window_end: u64,
    acks_in_window: u64,
    marked_in_window: u64,
    done: Option<VirtualTime>,
}

impl SimFlow {
    /// The size of packet `seq`: a full MTU but for the last.
    fn pkt_bytes(&self, seq: u64, mtu_bytes: u64) -> u64 {
        if seq + 1 == self.total {
            self.last_bytes
        } else {
            mtu_bytes
        }
    }
}

/// Per-link replay state.
#[derive(Debug, Clone)]
struct SimLink {
    queue: VecDeque<Pkt>,
    busy: bool,
    bandwidth: f64,
    /// Serialization time of a full MTU packet.
    mtu_ser: TimeSpan,
    latency: TimeSpan,
    bytes: u64,
    busy_time: TimeSpan,
}

/// The outcome of one replay.
#[derive(Debug, PartialEq)]
struct Replay {
    /// Completion time per replayed arrival, in member order.
    completion: Vec<VirtualTime>,
    stats: PacketObservation,
    /// Bytes and busy time of every link the replayed routes use.
    links: Vec<(LinkId, u64, TimeSpan)>,
}

/// Hard ceiling on events per replay — generously above any legitimate
/// busy period, so hitting it means the packet dynamics stopped making
/// progress (a model bug, not a runtime condition).
const REPLAY_EVENT_BUDGET: u64 = 200_000_000;

/// Ceiling on the replay memo's size in `u64` words, keys and outcomes
/// together (about 2 MiB). Every in-tree scenario stores a few hundred
/// words; the ceiling binds only on traffic that never repeats, where
/// a full memo replays each miss without storing it.
const MEMO_WORD_BUDGET: usize = 1 << 18;

/// A replay's outcome stated relative to its earliest arrival, so it
/// stands for every time-shifted copy of the replay's input.
#[derive(Debug)]
struct Outcome {
    /// Completion per member, as an offset from the earliest arrival.
    completion: Vec<TimeSpan>,
    stats: PacketObservation,
    /// Bytes and busy time per local link, in first-use order.
    links: Vec<(u64, TimeSpan)>,
}

/// Replay outcomes keyed by their shift-free input (see the module
/// docs), for the lifetime of one network.
#[derive(Debug)]
struct ReplayMemo {
    entries: BTreeMap<Vec<u64>, Outcome>,
    /// `u64` words stored, keys and outcomes together.
    words: usize,
    /// Never exceeded by `words`: [`MEMO_WORD_BUDGET`], or less in tests.
    budget: usize,
}

impl ReplayMemo {
    /// Stores `replay` (whose earliest arrival is `base`) under `key`,
    /// unless that would outgrow the budget.
    fn insert(&mut self, key: Vec<u64>, base: VirtualTime, replay: &Replay) {
        const STATS_WORDS: usize = size_of::<PacketObservation>() / size_of::<u64>();
        let words = key.len() + replay.completion.len() + STATS_WORDS + 2 * replay.links.len();
        if self.words + words > self.budget {
            return;
        }
        self.words += words;
        let outcome = Outcome {
            completion: replay.completion.iter().map(|&t| t - base).collect(),
            stats: replay.stats,
            links: replay.links.iter().map(|&(_, b, busy)| (b, busy)).collect(),
        };
        self.entries.insert(key, outcome);
    }
}

struct Replayer<Q> {
    cfg: PacketConfig,
    rto: TimeSpan,
    flows: Vec<SimFlow>,
    links: Vec<SimLink>,
    pending: Q,
    eid: u64,
    stats: PacketObservation,
}

impl<Q: Pending> Replayer<Q> {
    fn at(&mut self, t: VirtualTime, ev: Ev) {
        self.pending.push(self.stream(&ev), t, self.eid, ev);
        self.eid += 1;
    }

    /// The source `ev` comes from, one of `flows + 2 * links + 1`. The
    /// clock never runs backwards, and no source's times decrease:
    /// - flow `k` (stream `k`): its Start, at its arrival, then its ACKs,
    ///   each the route latency after a delivery of the flow;
    /// - link `l`'s `LinkFree` (stream `flows + 2l`): at most one
    ///   pending, since a link serializes one packet at a time;
    /// - link `l`'s Arrives (stream `flows + 2l + 1`): a packet lands
    ///   its serialization plus the link latency after it starts, and
    ///   starts no earlier than the previous one's serialization ended;
    /// - every flow's Retx (the last stream): each an RTO after a drop.
    fn stream(&self, ev: &Ev) -> usize {
        let flows = self.flows.len();
        match *ev {
            Ev::Start { flow } | Ev::Ack { flow, .. } => flow as usize,
            Ev::LinkFree { link } => flows + 2 * link as usize,
            Ev::Arrive { pkt } => {
                let link = self.flows[pkt.flow as usize].route[pkt.hop as usize];
                flows + 2 * link as usize + 1
            }
            Ev::Retx { .. } => flows + 2 * self.links.len(),
        }
    }

    /// Window-gated injection of fresh packets into the first hop.
    fn inject(&mut self, t: VirtualTime, flow: u32) {
        loop {
            let f = &self.flows[flow as usize];
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let window = (f.cwnd as u64).max(1);
            if f.next_seq >= f.total || f.outstanding >= window {
                return;
            }
            let pkt = Pkt {
                flow,
                seq: f.next_seq,
                hop: 0,
                marked: false,
            };
            let f = &mut self.flows[flow as usize];
            f.next_seq += 1;
            f.outstanding += 1;
            self.stats.packets_sent += 1;
            self.enqueue(t, pkt);
        }
    }

    fn enqueue(&mut self, t: VirtualTime, mut pkt: Pkt) {
        let link = self.flows[pkt.flow as usize].route[pkt.hop as usize];
        if pkt.hop > 0 {
            // A switch queue: finite buffer with step ECN. (Hop 0 is the
            // source NIC — the window already paces it, so it neither
            // drops nor marks.)
            let depth = self.links[link as usize].queue.len() as u64;
            self.stats.max_queue_depth = self.stats.max_queue_depth.max(depth);
            let bucket = if depth == 0 {
                0
            } else {
                (64 - depth.leading_zeros() as usize).min(7)
            };
            self.stats.queue_depth_hist[bucket] += 1;
            if depth >= self.cfg.buffer_packets as u64 {
                self.stats.drops += 1;
                self.at(
                    t + self.rto,
                    Ev::Retx {
                        flow: pkt.flow,
                        seq: pkt.seq,
                    },
                );
                return;
            }
            if depth >= self.cfg.ecn_threshold as u64 {
                pkt.marked = true;
                self.stats.ecn_marks += 1;
            }
        }
        self.links[link as usize].queue.push_back(pkt);
        self.kick(t, link);
    }

    /// Starts serving the next queued packet if the link is idle:
    /// store-and-forward, so the packet serializes fully before its
    /// propagation delay begins.
    fn kick(&mut self, t: VirtualTime, link: u32) {
        let l = &mut self.links[link as usize];
        if l.busy {
            return;
        }
        let Some(pkt) = l.queue.pop_front() else {
            return;
        };
        l.busy = true;
        let bytes = self.flows[pkt.flow as usize].pkt_bytes(pkt.seq, self.cfg.mtu_bytes);
        let ser = if bytes == self.cfg.mtu_bytes {
            l.mtu_ser
        } else {
            TimeSpan::from_seconds(bytes as f64 / l.bandwidth)
        };
        l.bytes += bytes;
        l.busy_time += ser;
        let latency = l.latency;
        self.at(t + ser, Ev::LinkFree { link });
        self.at(t + ser + latency, Ev::Arrive { pkt });
    }

    fn arrive(&mut self, t: VirtualTime, pkt: Pkt) {
        let idx = pkt.flow as usize;
        let next_hop = pkt.hop as usize + 1;
        if next_hop < self.flows[idx].route.len() {
            // ECN marks accumulated upstream travel with the packet.
            self.enqueue(
                t,
                Pkt {
                    hop: next_hop as u32,
                    ..pkt
                },
            );
            return;
        }
        let f = &mut self.flows[idx];
        f.delivered += 1;
        if f.delivered == f.total {
            f.done = Some(t);
        }
        let back = f.rev_latency;
        self.at(
            t + back,
            Ev::Ack {
                flow: pkt.flow,
                marked: pkt.marked,
            },
        );
    }

    fn ack(&mut self, t: VirtualTime, flow: u32, marked: bool) {
        let g = self.cfg.dctcp_gain;
        let f = &mut self.flows[flow as usize];
        f.outstanding = f.outstanding.saturating_sub(1);
        f.acked += 1;
        f.acks_in_window += 1;
        if marked {
            f.marked_in_window += 1;
        }
        if f.acked >= f.window_end {
            // One DCTCP window closed: update the marked-fraction EWMA,
            // then cut multiplicatively (by alpha/2) or grow additively.
            let fraction = f.marked_in_window as f64 / f.acks_in_window as f64;
            f.alpha = (1.0 - g) * f.alpha + g * fraction;
            if f.marked_in_window > 0 {
                f.cwnd = (f.cwnd * (1.0 - f.alpha / 2.0)).max(1.0);
            } else {
                f.cwnd += 1.0;
            }
            f.acks_in_window = 0;
            f.marked_in_window = 0;
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let window = (f.cwnd as u64).max(1);
            f.window_end = f.acked + window;
        }
        self.inject(t, flow);
    }

    fn retx(&mut self, t: VirtualTime, flow: u32, seq: u64) {
        // A timeout is a stronger congestion signal than a mark: halve
        // the window, then re-inject the lost packet at the source.
        let f = &mut self.flows[flow as usize];
        f.cwnd = (f.cwnd / 2.0).max(1.0);
        self.stats.retransmits += 1;
        self.stats.packets_sent += 1;
        let pkt = Pkt {
            flow,
            seq,
            hop: 0,
            marked: false,
        };
        self.enqueue(t, pkt);
    }
}

/// The packet-level [`NetworkModel`] tier.
///
/// # Example
///
/// ```rust
/// use triosim_des::VirtualTime;
/// use triosim_network::{NetCommand, NetworkModel, NodeId, PacketNetwork, Topology};
///
/// let mut topo = Topology::new(2);
/// topo.add_duplex(NodeId(0), NodeId(1), 50e9, 1e-6); // 50 GB/s, 1 us
/// let mut net = PacketNetwork::new(topo);
/// let (f, cmds) = net.send(VirtualTime::ZERO, NodeId(0), NodeId(1), 10_000_000);
/// let NetCommand::Schedule { at, .. } = cmds[0] else { panic!() };
/// // Uncongested: within one MTU serialization of latency + bytes/bw.
/// assert!((at.as_seconds() - (1e-6 + 10e6 / 50e9)).abs() < 8192.0 / 50e9 + 1e-9);
/// # let _ = f;
/// ```
#[derive(Debug)]
pub struct PacketNetwork {
    topo: Topology,
    config: PacketConfig,
    routes: BTreeMap<(NodeId, NodeId), Arc<[LinkId]>>,
    /// Sends of the current busy period, in arrival order.
    arrivals: Vec<Arrival>,
    /// The open period's arrivals, grouped into components; their
    /// projections sum to the open period's (exact once it closes).
    components: Vec<Component>,
    /// Per link: the component whose routes use it in the open period.
    owner: Vec<Option<usize>>,
    /// Undelivered flows of the period, mapped to their arrival index.
    live: BTreeMap<FlowId, usize>,
    /// The delivery time each live flow is currently armed at.
    armed: BTreeMap<FlowId, VirtualTime>,
    next_flow: u64,
    bytes_delivered: u64,
    flows_completed: u64,
    /// Replays performed, one per send (the packet tier's analogue of
    /// the flow model's reallocation rounds).
    replays: u64,
    /// Delivery events re-armed because a later arrival moved them.
    reschedules: u64,
    /// Packet statistics of closed busy periods.
    committed: PacketObservation,
    committed_links: Vec<(u64, TimeSpan)>,
    memo: ReplayMemo,
}

impl PacketNetwork {
    /// Creates a packet network with the default
    /// [datacenter](PacketConfig::datacenter) configuration.
    pub fn new(topology: Topology) -> Self {
        Self::with_config(topology, PacketConfig::default())
    }

    /// Creates a packet network with an explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (zero MTU or buffer,
    /// non-positive RTO, a gain outside `(0, 1]`, or a window below one
    /// packet).
    pub fn with_config(topology: Topology, config: PacketConfig) -> Self {
        assert!(config.mtu_bytes > 0, "MTU must be at least one byte");
        assert!(config.buffer_packets >= 1, "buffer needs at least one slot");
        assert!(config.ecn_threshold >= 1, "ECN threshold must be positive");
        assert!(
            config.dctcp_gain > 0.0 && config.dctcp_gain <= 1.0,
            "DCTCP gain must be in (0, 1]"
        );
        assert!(config.initial_cwnd >= 1.0, "window below one packet");
        assert!(
            config.rto_s.is_finite() && config.rto_s > 0.0,
            "RTO must be positive"
        );
        let links = topology.link_count();
        PacketNetwork {
            topo: topology,
            config,
            routes: BTreeMap::new(),
            arrivals: Vec::new(),
            components: Vec::new(),
            owner: vec![None; links],
            live: BTreeMap::new(),
            armed: BTreeMap::new(),
            next_flow: 0,
            bytes_delivered: 0,
            flows_completed: 0,
            replays: 0,
            reschedules: 0,
            committed: PacketObservation::default(),
            committed_links: vec![(0, TimeSpan::ZERO); links],
            memo: ReplayMemo {
                entries: BTreeMap::new(),
                words: 0,
                budget: MEMO_WORD_BUDGET,
            },
        }
    }

    /// The interconnect graph.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The packet-tier configuration.
    pub fn config(&self) -> PacketConfig {
        self.config
    }

    fn route_cached(
        &mut self,
        src: NodeId,
        dst: NodeId,
    ) -> Result<Arc<[LinkId]>, PartitionedError> {
        if let Some(r) = self.routes.get(&(src, dst)) {
            return Ok(r.clone());
        }
        let route: Arc<[LinkId]> = self
            .topo
            .route(src, dst)
            .map_err(|_| PartitionedError { src, dst })?
            .into();
        self.routes.insert((src, dst), route.clone());
        Ok(route)
    }

    /// Removes every component that owns a link of arrival `idx`'s route
    /// and returns their members merged with `idx`, ascending: the
    /// component the new arrival joins. Within a period arrivals never
    /// leave, so components only ever merge.
    fn join(&mut self, idx: usize) -> Vec<usize> {
        let mut joined: Vec<usize> = self.arrivals[idx]
            .route
            .iter()
            .filter_map(|l| self.owner[l.0])
            .collect();
        joined.sort_unstable();
        joined.dedup();
        let mut members = vec![idx];
        // Descending, so each `swap_remove` moves a component that stays;
        // re-point the moved one's links at its new slot.
        for &c in joined.iter().rev() {
            members.extend(self.components.swap_remove(c).members);
            if let Some(moved) = self.components.get(c) {
                for &(link, ..) in &moved.replay.links {
                    self.owner[link.0] = Some(c);
                }
            }
        }
        members.sort_unstable();
        members
    }

    /// Numbers the links of the members' routes locally, in first-use
    /// order, so set-up scales with the component rather than the
    /// topology. Returns the links in that order and each member's route
    /// over the local numbers. The replay and its memo key share this
    /// numbering, so a memo hit maps local link `k` back to `links[k]`.
    fn localize(&self, members: &[usize]) -> (Vec<LinkId>, Vec<Vec<u32>>) {
        let mut local: BTreeMap<LinkId, u32> = BTreeMap::new();
        let mut links: Vec<LinkId> = Vec::new();
        let routes = members
            .iter()
            .map(|&i| {
                self.arrivals[i]
                    .route
                    .iter()
                    .map(|&l| {
                        *local.entry(l).or_insert_with(|| {
                            links.push(l);
                            (links.len() - 1) as u32
                        })
                    })
                    .collect()
            })
            .collect();
        (links, routes)
    }

    /// The shift-free input of a replay of `members`, whose earliest
    /// arrival is `base`: per member, ascending, its arrival offset from
    /// `base`, bytes, ACK latency, route length and local route; then
    /// each local link's bandwidth and latency bits. Never a flow id, an
    /// arrival index or an absolute time — any of them would make every
    /// lookup miss.
    fn memo_key(
        &self,
        members: &[usize],
        base: VirtualTime,
        links: &[LinkId],
        routes: &[Vec<u32>],
    ) -> Vec<u64> {
        let hops: usize = routes.iter().map(Vec::len).sum();
        let mut key = Vec::with_capacity(4 * members.len() + hops + 2 * links.len());
        for (&i, route) in members.iter().zip(routes) {
            let a = &self.arrivals[i];
            key.extend([
                (a.at - base).as_femtos(),
                a.bytes,
                a.rev_latency.as_femtos(),
                route.len() as u64,
            ]);
            key.extend(route.iter().map(|&l| u64::from(l)));
        }
        for &l in links {
            key.extend([
                self.topo.bandwidth(l).to_bits(),
                self.topo.latency(l).to_bits(),
            ]);
        }
        key
    }

    /// The replay of one component: shifted from the memo when an earlier
    /// replay had the same shift-free input, else simulated and stored
    /// while the memo has room.
    fn replay_component(&mut self, members: &[usize]) -> Replay {
        let (links, routes) = self.localize(members);
        let base = members
            .iter()
            .map(|&i| self.arrivals[i].at)
            .min()
            .expect("a component has a member");
        let key = self.memo_key(members, base, &links, &routes);
        if let Some(o) = self.memo.entries.get(&key) {
            return Replay {
                completion: o.completion.iter().map(|&d| base + d).collect(),
                stats: o.stats,
                links: links
                    .into_iter()
                    .zip(&o.links)
                    .map(|(id, &(bytes, busy))| (id, bytes, busy))
                    .collect(),
            };
        }
        let replay = self.simulate::<Streams>(members, links, routes);
        self.memo.insert(key, base, &replay);
        replay
    }

    /// The whole-period oracle: simulates `members` without consulting
    /// the memo.
    #[cfg(test)]
    fn replay(&self, members: &[usize]) -> Replay {
        let (links, routes) = self.localize(members);
        self.simulate::<Streams>(members, links, routes)
    }

    /// Deterministically simulates the listed arrivals of the open period
    /// (ascending arrival indices, with their [localized](Self::localize)
    /// links and routes) on otherwise idle links, and returns their
    /// completions, packet statistics and link usage. Over one component
    /// this equals the whole-period replay restricted to it; over every
    /// arrival it *is* the whole-period replay.
    fn simulate<Q: Pending>(
        &self,
        members: &[usize],
        ids: Vec<LinkId>,
        routes: Vec<Vec<u32>>,
    ) -> Replay {
        let cfg = self.config;
        let mut flows = Vec::with_capacity(members.len());
        for (&i, route) in members.iter().zip(routes) {
            let a = &self.arrivals[i];
            let total = a.bytes.div_ceil(cfg.mtu_bytes).max(1);
            flows.push(SimFlow {
                route,
                total,
                last_bytes: a.bytes - (total - 1) * cfg.mtu_bytes,
                rev_latency: a.rev_latency,
                next_seq: 0,
                outstanding: 0,
                delivered: 0,
                acked: 0,
                cwnd: cfg.initial_cwnd,
                alpha: 0.0,
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                window_end: (cfg.initial_cwnd as u64).max(1),
                acks_in_window: 0,
                marked_in_window: 0,
                done: None,
            });
        }
        let links: Vec<SimLink> = ids
            .iter()
            .map(|&l| {
                let bandwidth = self.topo.bandwidth(l);
                SimLink {
                    queue: VecDeque::new(),
                    busy: false,
                    bandwidth,
                    mtu_ser: TimeSpan::from_seconds(cfg.mtu_bytes as f64 / bandwidth),
                    latency: TimeSpan::from_seconds(self.topo.latency(l)),
                    bytes: 0,
                    busy_time: TimeSpan::ZERO,
                }
            })
            .collect();
        let mut r = Replayer {
            cfg,
            rto: TimeSpan::from_seconds(cfg.rto_s),
            pending: Q::new(flows.len() + 2 * links.len() + 1),
            flows,
            links,
            eid: 0,
            stats: PacketObservation::default(),
        };
        for (k, &i) in members.iter().enumerate() {
            r.at(self.arrivals[i].at, Ev::Start { flow: k as u32 });
        }
        let mut spent = 0u64;
        while let Some((t, ev)) = r.pending.pop() {
            spent += 1;
            assert!(
                spent <= REPLAY_EVENT_BUDGET,
                "packet replay exceeded its event budget — the dynamics stopped making progress"
            );
            match ev {
                Ev::Start { flow } => {
                    if r.flows[flow as usize].route.is_empty() {
                        // Same-node transfer: no packets, instantaneous.
                        r.flows[flow as usize].done = Some(t);
                    } else {
                        r.inject(t, flow);
                    }
                }
                Ev::LinkFree { link } => {
                    r.links[link as usize].busy = false;
                    r.kick(t, link);
                }
                Ev::Arrive { pkt } => r.arrive(t, pkt),
                Ev::Ack { flow, marked } => r.ack(t, flow, marked),
                Ev::Retx { flow, seq } => r.retx(t, flow, seq),
            }
        }
        Replay {
            completion: r
                .flows
                .iter()
                .map(|f| f.done.expect("a drained replay completes every flow"))
                .collect(),
            stats: r.stats,
            links: ids
                .into_iter()
                .zip(&r.links)
                .map(|(id, l)| (id, l.bytes, l.busy_time))
                .collect(),
        }
    }
}

/// Adds `o`'s counters into `total`; the queue-depth maximum takes the max.
fn accumulate(total: &mut PacketObservation, o: &PacketObservation) {
    total.packets_sent += o.packets_sent;
    total.retransmits += o.retransmits;
    total.drops += o.drops;
    total.ecn_marks += o.ecn_marks;
    total.max_queue_depth = total.max_queue_depth.max(o.max_queue_depth);
    for (c, v) in total.queue_depth_hist.iter_mut().zip(o.queue_depth_hist) {
        *c += v;
    }
}

/// Adds a replay's per-link bytes and busy time into `totals`, indexed by
/// link.
fn accumulate_links(totals: &mut [(u64, TimeSpan)], links: &[(LinkId, u64, TimeSpan)]) {
    for &(link, bytes, busy) in links {
        totals[link.0].0 += bytes;
        totals[link.0].1 += busy;
    }
}

impl NetworkModel for PacketNetwork {
    fn send(
        &mut self,
        now: VirtualTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
    ) -> (FlowId, Vec<NetCommand>) {
        match self.try_send(now, src, dst, bytes) {
            Ok(result) => result,
            Err(e) => panic!("{e}"),
        }
    }

    fn try_send(
        &mut self,
        now: VirtualTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
    ) -> Result<(FlowId, Vec<NetCommand>), PartitionedError> {
        let route = self.route_cached(src, dst)?;
        let id = FlowId(self.next_flow);
        self.next_flow += 1;
        let idx = self.arrivals.len();
        self.live.insert(id, idx);
        self.arrivals.push(Arrival {
            at: now,
            flow: id,
            rev_latency: TimeSpan::from_seconds(self.topo.route_latency(&route)),
            route,
            bytes,
        });
        let members = self.join(idx);
        let replay = self.replay_component(&members);
        self.replays += 1;
        // Re-arm every live member whose projected completion moved; the
        // new flow was never armed, so it always gets its `Schedule`
        // (last, preserving arrival order). Other components' flows keep
        // their projections.
        let mut cmds = Vec::new();
        for (&i, &at) in members.iter().zip(&replay.completion) {
            let flow = self.arrivals[i].flow;
            if self.live.contains_key(&flow) && self.armed.get(&flow) != Some(&at) {
                if flow != id {
                    self.reschedules += 1;
                }
                self.armed.insert(flow, at);
                cmds.push(NetCommand::Schedule { flow, at });
            }
        }
        let slot = Some(self.components.len());
        for &(link, ..) in &replay.links {
            self.owner[link.0] = slot;
        }
        self.components.push(Component { members, replay });
        Ok((id, cmds))
    }

    fn deliver(&mut self, flow: FlowId, _now: VirtualTime) -> Vec<NetCommand> {
        let idx = self
            .live
            .remove(&flow)
            .expect("delivered flow must be in flight");
        self.armed.remove(&flow);
        self.bytes_delivered += self.arrivals[idx].bytes;
        self.flows_completed += 1;
        if self.live.is_empty() {
            // The busy period closed: its projection is now exact.
            for c in self.components.drain(..) {
                accumulate(&mut self.committed, &c.replay.stats);
                accumulate_links(&mut self.committed_links, &c.replay.links);
                for &(link, ..) in &c.replay.links {
                    self.owner[link.0] = None;
                }
            }
            self.arrivals.clear();
        }
        Vec::new()
    }

    fn in_flight(&self) -> usize {
        self.live.len()
    }

    fn observe(&self) -> NetObservation {
        NetObservation {
            in_flight: self.live.len(),
            bytes_delivered: self.bytes_delivered,
            flows_completed: self.flows_completed,
            reallocations: self.replays,
            reschedules: self.reschedules,
            // No fault support in the packet tier (yet): the fault
            // counters are structurally zero.
            ..NetObservation::default()
        }
    }

    fn observe_links(&self) -> Vec<LinkObservation> {
        let mut totals = self.committed_links.clone();
        for c in &self.components {
            accumulate_links(&mut totals, &c.replay.links);
        }
        totals
            .into_iter()
            .enumerate()
            .map(|(i, (bytes, busy))| {
                let link = LinkId(i);
                let (src, dst) = self.topo.endpoints(link);
                LinkObservation {
                    label: format!("n{}->n{}", src.0, dst.0),
                    bandwidth: self.topo.bandwidth(link),
                    bytes: bytes as f64,
                    busy_s: busy.as_seconds(),
                    // Open components count their whole replayed busy
                    // time, ahead of the instant observed.
                    busy_through: None,
                    active_flows: self
                        .live
                        .values()
                        .filter(|&&idx| self.arrivals[idx].route.contains(&link))
                        .count(),
                }
            })
            .collect()
    }

    fn observe_packets(&self) -> Option<PacketObservation> {
        // Committed periods plus the open period's projection (the sum
        // of its components' projections, exact at quiescence — the only
        // time reports are assembled).
        let mut total = self.committed;
        for c in &self.components {
            accumulate(&mut total, &c.replay.stats);
        }
        Some(total)
    }

    fn iteration_invariant(&self) -> bool {
        // The replay memo relies on, and every hit exercises, the packet
        // dynamics' time-shift invariance: a component's input shifted by
        // Δ replays to its outcome shifted by Δ. What is still missing is
        // the boundary-state contract: a statistics delta and absorb for
        // the committed packet counters, per-link usage and queue-depth
        // histogram, and snapshots of them. Until the model has those, it
        // opts out: its runs simulate every iteration (cheaply, through
        // the memo) and report the reason in `SimReport::replay`.
        false
    }

    fn spec_fingerprint(&self) -> u64 {
        // FNV-1a over the serialized topology and the packet-tier knobs
        // as raw bits — same recipe as the flow model: configuration
        // only, never live statistics.
        let mut h = FNV_OFFSET;
        let mut fold = |bytes: &[u8]| h = fnv1a(h, bytes);
        let topo_json =
            serde_json::to_string(&self.topo).expect("topologies serialize to plain JSON");
        fold(topo_json.as_bytes());
        fold(&self.config.mtu_bytes.to_le_bytes());
        fold(&(self.config.buffer_packets as u64).to_le_bytes());
        fold(&(self.config.ecn_threshold as u64).to_le_bytes());
        fold(&self.config.dctcp_gain.to_bits().to_le_bytes());
        fold(&self.config.initial_cwnd.to_bits().to_le_bytes());
        fold(&self.config.rto_s.to_bits().to_le_bytes());
        h
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    use super::*;

    /// The order oracle: every pending event in one map keyed `(time,
    /// insertion id)`, with no streams.
    struct OneQueue(BTreeMap<(VirtualTime, u64), Ev>);

    impl Pending for OneQueue {
        fn new(_streams: usize) -> Self {
            OneQueue(BTreeMap::new())
        }

        fn push(&mut self, _stream: usize, t: VirtualTime, id: u64, ev: Ev) {
            self.0.insert((t, id), ev);
        }

        fn pop(&mut self) -> Option<(VirtualTime, Ev)> {
            self.0.pop_first().map(|((t, _), ev)| (t, ev))
        }
    }

    /// `members` replayed in the order oracle's event order.
    fn reference(net: &PacketNetwork, members: &[usize]) -> Replay {
        let (links, routes) = net.localize(members);
        net.simulate::<OneQueue>(members, links, routes)
    }

    fn at_of(cmds: &[NetCommand]) -> VirtualTime {
        match cmds.last().expect("at least one command") {
            NetCommand::Schedule { at, .. } => *at,
            NetCommand::Cancel { .. } => panic!("expected schedule"),
        }
    }

    fn single_link(bandwidth: f64, latency: f64) -> Topology {
        let mut t = Topology::new(2);
        t.add_duplex(NodeId(0), NodeId(1), bandwidth, latency);
        t
    }

    #[test]
    fn uncongested_single_link_matches_analytic_time() {
        let bw = 50e9;
        let lat = 1e-6;
        let mut net = PacketNetwork::new(single_link(bw, lat));
        let bytes = 10_000_000u64;
        let (_, cmds) = net.send(VirtualTime::ZERO, NodeId(0), NodeId(1), bytes);
        let got = at_of(&cmds).as_seconds();
        let analytic = lat + bytes as f64 / bw;
        let bound = net.config().mtu_bytes as f64 / bw;
        assert!(
            (got - analytic).abs() <= bound + 1e-12,
            "packet {got} vs analytic {analytic} (bound {bound})"
        );
    }

    #[test]
    fn local_transfer_is_immediate() {
        let mut net = PacketNetwork::new(single_link(50e9, 1e-6));
        let t = VirtualTime::from_seconds(3.0);
        let (_, cmds) = net.send(t, NodeId(1), NodeId(1), 1 << 20);
        assert_eq!(at_of(&cmds), t);
    }

    #[test]
    fn delivery_accounting_and_period_close() {
        let mut net = PacketNetwork::new(single_link(50e9, 1e-6));
        let (f, cmds) = net.send(VirtualTime::ZERO, NodeId(0), NodeId(1), 777_000);
        assert_eq!(net.in_flight(), 1);
        let before = net.observe_packets().expect("packet tier observes packets");
        assert!(before.packets_sent > 0);
        let out = net.deliver(f, at_of(&cmds));
        assert!(out.is_empty());
        assert_eq!(net.in_flight(), 0);
        assert_eq!(net.observe().bytes_delivered, 777_000);
        // Closing the period commits the projection unchanged.
        let after = net.observe_packets().expect("packet tier observes packets");
        assert_eq!(before, after);
    }

    #[test]
    fn new_traffic_rearms_flows_sharing_the_bottleneck() {
        // GPUs 1 and 2 both target GPU 3 through the host: the shared
        // host->3 link is a transit bottleneck, so flow B's arrival must
        // push flow A's projected completion later and re-arm it.
        let topo = Topology::pcie_host_tree(3, 16e9, 1e-6);
        let mut net = PacketNetwork::new(topo);
        let (fa, ca) = net.send(VirtualTime::ZERO, NodeId(1), NodeId(3), 8_000_000);
        let a_solo = at_of(&ca);
        let (_, cb) = net.send(VirtualTime::ZERO, NodeId(2), NodeId(3), 8_000_000);
        let rearm = cb
            .iter()
            .find_map(|c| match c {
                NetCommand::Schedule { flow, at } if *flow == fa => Some(*at),
                _ => None,
            })
            .expect("flow A must be re-armed");
        assert!(rearm > a_solo, "sharing delays A: {rearm:?} vs {a_solo:?}");
        assert_eq!(net.observe().reschedules, 1);
    }

    #[test]
    fn incast_on_shallow_buffers_drops_marks_and_retransmits() {
        let topo = Topology::pcie_host_tree(4, 16e9, 1e-6);
        let mut net = PacketNetwork::with_config(topo, PacketConfig::shallow());
        for src in 1..=3 {
            net.send(VirtualTime::ZERO, NodeId(src), NodeId(4), 8_000_000);
        }
        let p = net.observe_packets().expect("packet tier observes packets");
        assert!(p.ecn_marks > 0, "incast must mark: {p:?}");
        assert!(p.drops > 0, "shallow buffers must drop: {p:?}");
        assert!(p.retransmits > 0, "drops must retransmit: {p:?}");
        assert!(p.max_queue_depth >= PacketConfig::shallow().buffer_packets as u64);
        assert!(p.queue_depth_hist.iter().sum::<u64>() > 0);
    }

    #[test]
    fn deep_buffers_mark_without_dropping() {
        let topo = Topology::pcie_host_tree(3, 16e9, 1e-6);
        let cfg = PacketConfig {
            buffer_packets: 100_000,
            ecn_threshold: 4,
            ..PacketConfig::datacenter()
        };
        let mut net = PacketNetwork::with_config(topo, cfg);
        net.send(VirtualTime::ZERO, NodeId(1), NodeId(3), 8_000_000);
        net.send(VirtualTime::ZERO, NodeId(2), NodeId(3), 8_000_000);
        let p = net.observe_packets().expect("packet tier observes packets");
        assert!(p.ecn_marks > 0, "contention must mark: {p:?}");
        assert_eq!(p.drops, 0, "a deep buffer never drops: {p:?}");
    }

    #[test]
    fn replays_are_deterministic() {
        let run = || {
            let topo = Topology::pcie_host_tree(4, 16e9, 1e-6);
            let mut net = PacketNetwork::with_config(topo, PacketConfig::shallow());
            let mut times = Vec::new();
            for src in 1..=3 {
                let (_, cmds) = net.send(
                    VirtualTime::from_seconds(src as f64 * 1e-5),
                    NodeId(src),
                    NodeId(4),
                    4_000_000,
                );
                times.extend(cmds.iter().map(|c| match c {
                    NetCommand::Schedule { flow, at } => (flow.0, at.as_femtos()),
                    NetCommand::Cancel { flow } => (flow.0, 0),
                }));
            }
            (times, net.observe_packets())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn observe_links_accounts_packet_bytes() {
        let mut net = PacketNetwork::new(single_link(50e9, 1e-6));
        let (f, cmds) = net.send(VirtualTime::ZERO, NodeId(0), NodeId(1), 1_000_000);
        net.deliver(f, at_of(&cmds));
        let links = net.observe_links();
        assert_eq!(links.len(), 2);
        assert_eq!(links[0].label, "n0->n1");
        assert!((links[0].bytes - 1_000_000.0).abs() < 1.0);
        assert!(links[0].busy_s > 0.0);
        assert!((links[1].bytes).abs() < 1.0, "reverse direction unused");
    }

    #[test]
    fn partition_is_a_typed_error() {
        let mut net = PacketNetwork::new(Topology::new(2));
        let err = net
            .try_send(VirtualTime::ZERO, NodeId(0), NodeId(1), 1024)
            .expect_err("no links, no path");
        assert_eq!(
            err,
            PartitionedError {
                src: NodeId(0),
                dst: NodeId(1)
            }
        );
    }

    #[test]
    fn fingerprint_tracks_config_not_traffic() {
        let a = PacketNetwork::new(single_link(50e9, 1e-6));
        let mut b = PacketNetwork::new(single_link(50e9, 1e-6));
        assert_eq!(a.spec_fingerprint(), b.spec_fingerprint());
        b.send(VirtualTime::ZERO, NodeId(0), NodeId(1), 1 << 20);
        assert_eq!(
            a.spec_fingerprint(),
            b.spec_fingerprint(),
            "traffic does not change the spec"
        );
        let c = PacketNetwork::with_config(single_link(50e9, 1e-6), PacketConfig::shallow());
        assert_ne!(a.spec_fingerprint(), c.spec_fingerprint());
        let d = PacketNetwork::new(single_link(25e9, 1e-6));
        assert_ne!(a.spec_fingerprint(), d.spec_fingerprint());
    }

    /// One send of an oracle script: `(at, src, dst, bytes)`.
    type Send = (VirtualTime, NodeId, NodeId, u64);

    /// What an oracle script exercised.
    #[derive(Debug, Default)]
    struct Tally {
        sends: usize,
        /// Sends that joined at least one existing component.
        merged: usize,
        /// Busy periods closed, the script's last one included.
        closed: usize,
        /// Sends that stored nothing in the memo: its hits, while its
        /// budget does not bind.
        hits: usize,
    }

    /// Feeds `sends` (sorted by time, none before `net`'s last delivery)
    /// to `net`, delivering every flow at its armed time, and returns the
    /// command stream. With `oracle`, each step is checked against the
    /// whole-period replay, which never consults the memo: every send's
    /// commands are the ones re-simulating all of the period's arrivals
    /// would emit, every live flow is armed at that replay's completion,
    /// and the packet and link observations equal closed periods plus
    /// that replay. Both the replay of the component a send joins (memo
    /// hits included) and the whole-period replay must equal the order
    /// oracle's replay of the same arrivals. After every step the memo
    /// is within its budget.
    fn drive(
        net: &mut PacketNetwork,
        sends: &[Send],
        oracle: bool,
        tally: &mut Tally,
    ) -> Result<Vec<Vec<NetCommand>>, String> {
        prop_assert_eq!(net.in_flight(), 0, "scripts start between periods");
        let mut armed: BTreeMap<FlowId, VirtualTime> = BTreeMap::new();
        let mut log = Vec::new();
        let mut whole = net.replay(&[]);
        let mut base = net.committed;
        let mut base_links = net.committed_links.clone();
        let mut sends = sends.iter().peekable();
        loop {
            let due = armed.iter().map(|(&f, &at)| (at, f)).min();
            let send = sends.next_if(|&&(at, ..)| due.is_none_or(|(d, _)| at <= d));
            let cmds = match (send, due) {
                (Some(&(at, src, dst, bytes)), _) => {
                    let before = net.components.len();
                    let stored = net.memo.entries.len();
                    let (flow, cmds) = net.send(at, src, dst, bytes);
                    tally.sends += 1;
                    if net.components.len() <= before {
                        tally.merged += 1;
                    }
                    if net.memo.entries.len() == stored {
                        tally.hits += 1;
                    }
                    if oracle {
                        let joined = net.components.last().expect("a send adds its component");
                        prop_assert_eq!(
                            &joined.replay,
                            &reference(net, &joined.members),
                            "event order of the component {:?} joined",
                            flow
                        );
                        let all: Vec<usize> = (0..net.arrivals.len()).collect();
                        whole = net.replay(&all);
                        prop_assert_eq!(
                            &whole,
                            &reference(net, &all),
                            "event order of the period after {:?}",
                            flow
                        );
                        let expected: Vec<NetCommand> = net
                            .arrivals
                            .iter()
                            .zip(&whole.completion)
                            .filter(|(a, &at)| {
                                a.flow == flow || armed.get(&a.flow).is_some_and(|&t| t != at)
                            })
                            .map(|(a, &at)| NetCommand::Schedule { flow: a.flow, at })
                            .collect();
                        prop_assert_eq!(&cmds, &expected, "send of {:?}", flow);
                    }
                    cmds
                }
                (None, Some((at, flow))) => {
                    armed.remove(&flow);
                    let cmds = net.deliver(flow, at);
                    if net.in_flight() == 0 {
                        tally.closed += 1;
                        accumulate(&mut base, &whole.stats);
                        accumulate_links(&mut base_links, &whole.links);
                        whole = net.replay(&[]);
                    }
                    cmds
                }
                (None, None) => break,
            };
            for c in &cmds {
                if let NetCommand::Schedule { flow, at } = *c {
                    armed.insert(flow, at);
                }
            }
            log.push(cmds);
            prop_assert!(
                net.memo.words <= net.memo.budget,
                "memo holds {} words, over its budget of {}",
                net.memo.words,
                net.memo.budget
            );
            if oracle {
                for (a, &at) in net.arrivals.iter().zip(&whole.completion) {
                    if let Some(&got) = armed.get(&a.flow) {
                        prop_assert_eq!(got, at, "armed time of {:?}", a.flow);
                    }
                }
                let mut packets = base;
                accumulate(&mut packets, &whole.stats);
                prop_assert_eq!(net.observe_packets(), Some(packets));
                let mut links = base_links.clone();
                accumulate_links(&mut links, &whole.links);
                let expected: Vec<(f64, f64)> = links
                    .iter()
                    .map(|&(bytes, busy)| (bytes as f64, busy.as_seconds()))
                    .collect();
                let observed: Vec<(f64, f64)> = net
                    .observe_links()
                    .iter()
                    .map(|l| (l.bytes, l.busy_s))
                    .collect();
                prop_assert_eq!(observed, expected);
            }
        }
        prop_assert_eq!(net.in_flight(), 0, "the script must drain");
        Ok(log)
    }

    /// A PCIe host tree, an oversubscribed fat tree, or disconnected
    /// islands (where a wrongly scoped component would show first). Every
    /// other island's link has no latency, so each packet's `LinkFree`,
    /// Arrive and ACK there fall due at one instant.
    fn oracle_topology(kind: u8, n: usize) -> Topology {
        match kind % 3 {
            0 => Topology::pcie_host_tree(n, 16e9, 1e-6),
            1 => Topology::fat_tree(n - n % 2, 2, 25e9, 5e-6, 4.0),
            _ => {
                let mut t = Topology::new(n);
                for i in (0..n - 1).step_by(2) {
                    let latency = if i % 4 == 0 { 0.0 } else { 1e-6 };
                    t.add_duplex(NodeId(i), NodeId(i + 1), 16e9, latency);
                }
                t
            }
        }
    }

    /// Component replay against the whole-period oracle, and both against
    /// the order oracle, over random topologies, three configurations
    /// (the two named ones, and the shallow one with a 4-packet initial
    /// window, so that ACKs pace injection and their order matters), and
    /// scripts of simultaneous and staggered sends (same-node ones
    /// included) of zero bytes or sized just below, at and just above
    /// multiples of the MTU. A zero-byte packet serializes in no time, so
    /// its link frees at the instant it starts. The scripts are drawn
    /// from the vendored proptest's deterministic stream in one loop, so
    /// the tally can show the oracle was not vacuous: sends did merge
    /// components, and periods did close mid-script. Every third script
    /// runs again once it has drained, shifted by a random Δ; each of the
    /// repeat's sends must hit the memo, and still match the oracle.
    #[test]
    fn component_replay_matches_whole_period_oracle() {
        const SCRIPTS: usize = 300;
        let mut rng = TestRng::from_name("component_replay_matches_whole_period_oracle");
        let mut shifts = TestRng::from_name("component_replay_matches_whole_period_oracle/shift");
        let case = (
            (any::<u8>(), 4usize..9, 0u8..3),
            prop::collection::vec(
                (
                    (0u8..4, 0u64..300_000),
                    (0usize..64, 0usize..64),
                    (0u64..40, 0u64..3),
                ),
                1..16,
            ),
        );
        let mut tally = Tally::default();
        let mut shifted_sends = 0;
        for script in 0..SCRIPTS {
            let ((kind, n, config), steps) = case.generate(&mut rng);
            let topo = oracle_topology(kind, n);
            let cfg = match config {
                0 => PacketConfig::datacenter(),
                1 => PacketConfig::shallow(),
                _ => PacketConfig {
                    initial_cwnd: 4.0,
                    ..PacketConfig::shallow()
                },
            };
            let nodes = topo.node_count();
            let mut now = VirtualTime::ZERO;
            let sends: Vec<Send> = steps
                .iter()
                .map(|&((gap, gap_ns), (a, b), (mtus, adj))| {
                    // Half the sends share their predecessor's instant;
                    // short gaps overlap flows, long ones close periods.
                    let gap_ns = match gap {
                        0 | 1 => 0,
                        2 => gap_ns % 20_000,
                        _ => gap_ns,
                    };
                    now += TimeSpan::from_seconds(gap_ns as f64 * 1e-9);
                    (
                        now,
                        NodeId(a % nodes),
                        NodeId(b % nodes),
                        if mtus == 0 {
                            0
                        } else {
                            mtus * cfg.mtu_bytes + adj - 1
                        },
                    )
                })
                .filter(|&(_, src, dst, _)| src == dst || topo.route(src, dst).is_ok())
                .collect();
            let mut net = PacketNetwork::with_config(topo.clone(), cfg);
            let mut twin = PacketNetwork::with_config(topo, cfg);
            let checked = drive(&mut net, &sends, true, &mut tally);
            let again = drive(&mut twin, &sends, false, &mut Tally::default());
            let log = match (checked, again) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a, b, "script {script}: command streams differ between runs");
                    a
                }
                (Err(e), _) | (_, Err(e)) => panic!("script {script}: {e}"),
            };
            if script % 3 != 0 || sends.is_empty() {
                continue;
            }
            let drained = log
                .iter()
                .flatten()
                .filter_map(|c| match *c {
                    NetCommand::Schedule { at, .. } => Some(at),
                    NetCommand::Cancel { .. } => None,
                })
                .max()
                .expect("every send is scheduled");
            let delta = (drained - sends[0].0)
                + TimeSpan::from_femtos((0u64..1 << 40).generate(&mut shifts));
            let repeat: Vec<Send> = sends
                .iter()
                .map(|&(at, src, dst, bytes)| (at + delta, src, dst, bytes))
                .collect();
            let mut shifted = Tally::default();
            let checked = drive(&mut net, &repeat, true, &mut shifted);
            let again = drive(&mut twin, &repeat, false, &mut Tally::default());
            match (checked, again) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a, b, "script {script}: repeats differ between runs")
                }
                (Err(e), _) | (_, Err(e)) => panic!("script {script} shifted: {e}"),
            }
            assert_eq!(
                shifted.hits, shifted.sends,
                "script {script}: every shifted send must hit the memo"
            );
            shifted_sends += shifted.sends;
        }
        assert!(
            tally.merged * 10 >= tally.sends && tally.merged < tally.sends,
            "sends must both merge and stay apart: {tally:?}"
        );
        assert!(
            tally.closed >= 2 * SCRIPTS,
            "too few periods closed mid-script: {tally:?}"
        );
        assert!(
            shifted_sends * 5 >= tally.sends,
            "too few shifted sends: {shifted_sends} after {tally:?}"
        );
    }

    /// Drives `sends` against the oracle and returns each flow's final
    /// delivery time relative to the script's first send, and the tally.
    fn relative_completions(net: &mut PacketNetwork, sends: &[Send]) -> (Vec<TimeSpan>, Tally) {
        let first = net.next_flow;
        let mut tally = Tally::default();
        let log = drive(net, sends, true, &mut tally).expect("matches the oracle");
        let mut done = vec![sends[0].0; sends.len()];
        for c in log.iter().flatten() {
            if let NetCommand::Schedule { flow, at } = *c {
                done[usize::try_from(flow.0 - first).expect("a script-sized index")] = at;
            }
        }
        (done.into_iter().map(|t| t - sends[0].0).collect(), tally)
    }

    /// One-link routes of the same shape: one link at half the
    /// bandwidth and one at twice the latency both miss the memo and
    /// deliver later, while repeating the first send hits and shifts its
    /// outcome.
    #[test]
    fn memo_key_tells_links_apart() {
        let mut topo = Topology::new(6);
        topo.add_duplex(NodeId(0), NodeId(1), 50e9, 1e-6);
        topo.add_duplex(NodeId(2), NodeId(3), 25e9, 1e-6);
        topo.add_duplex(NodeId(4), NodeId(5), 50e9, 2e-6);
        let mut net = PacketNetwork::new(topo);
        let mut send = |ms: f64, src, dst| {
            let at = VirtualTime::from_seconds(ms * 1e-3);
            relative_completions(&mut net, &[(at, NodeId(src), NodeId(dst), 4_000_000)])
        };
        let (fast, cold) = send(0.0, 0, 1);
        let (slow, narrow) = send(1.0, 2, 3);
        let (far, long) = send(2.0, 4, 5);
        let (again, warm) = send(3.0, 0, 1);
        assert_eq!((cold.hits, narrow.hits, long.hits, warm.hits), (0, 0, 0, 1));
        assert!(
            slow[0] > fast[0],
            "half the bandwidth: {slow:?} vs {fast:?}"
        );
        assert!(far[0] > fast[0], "twice the latency: {far:?} vs {fast:?}");
        assert_eq!(again, fast);
    }

    /// Three flows into one GPU form a 3-member component. Repeated at
    /// the same relative offsets, every send hits and delivers at the
    /// same offsets; moving the third send by one femtosecond misses.
    #[test]
    fn memo_hits_only_at_equal_relative_offsets() {
        let topo = Topology::pcie_host_tree(4, 16e9, 1e-6);
        let mut net = PacketNetwork::with_config(topo, PacketConfig::shallow());
        let mut incast = |s: f64, skew: u64| {
            let sends: Vec<Send> = (1..=3u64)
                .map(|k| {
                    let off = k * 1_000_000_000 + if k == 3 { skew } else { 0 };
                    let at = VirtualTime::from_seconds(s) + TimeSpan::from_femtos(off);
                    (at, NodeId(k as usize), NodeId(4), 2_000_000)
                })
                .collect();
            relative_completions(&mut net, &sends)
        };
        let (first, cold) = incast(0.0, 0);
        let (repeat, warm) = incast(1.0, 0);
        let (_, skewed) = incast(2.0, 1);
        assert_eq!((cold.merged, cold.hits), (2, 0), "one 3-member component");
        assert_eq!(warm.hits, 3);
        assert_eq!(repeat, first);
        assert_eq!(skewed.hits, 2, "a 1 fs later third send must miss");
    }

    /// With the memo shrunk to a few entries, the words stored never
    /// exceed the budget (`drive` checks after every step), a full memo
    /// stops storing, and every output still equals the oracle's and an
    /// unbounded memo's.
    #[test]
    fn memo_stays_within_a_shrunk_budget() {
        let topo = Topology::fat_tree(8, 2, 25e9, 5e-6, 4.0);
        // Pairs of sends into one host, at six sizes: repeats hit, and
        // two-member components mix with singletons.
        let sends: Vec<Send> = (0..24u32)
            .flat_map(|i| {
                let at = VirtualTime::from_seconds(f64::from(i) * 1e-3);
                let bytes = 100_000 + u64::from(i % 6) * 8_192;
                let dst = NodeId((i as usize + 1) % 8);
                [
                    (at, NodeId(i as usize % 8), dst, bytes),
                    (at, NodeId((i as usize + 4) % 8), dst, bytes),
                ]
            })
            .collect();
        let mut small = PacketNetwork::new(topo.clone());
        small.memo.budget = 200;
        let mut large = PacketNetwork::new(topo);
        let mut tally = Tally::default();
        let bounded = drive(&mut small, &sends, true, &mut tally).expect("matches the oracle");
        let unbounded =
            drive(&mut large, &sends, true, &mut Tally::default()).expect("matches the oracle");
        assert_eq!(bounded, unbounded);
        assert!(!small.memo.entries.is_empty());
        assert!(
            small.memo.entries.len() < large.memo.entries.len(),
            "the budget must bind: {} of {} entries",
            small.memo.entries.len(),
            large.memo.entries.len()
        );
        assert!(large.memo.words > small.memo.budget);
    }

    /// The benchmark's shape: a DDP ring step on an 8-host fat tree is
    /// eight simultaneous sends on link-disjoint routes, so each stays a
    /// component of its own, no send re-arms another flow, and the
    /// whole-period oracle still agrees.
    #[test]
    fn link_disjoint_sends_stay_singleton_components() {
        let topo = Topology::fat_tree(8, 2, 25e9, 5e-6, 4.0);
        let sends: Vec<Send> = (0..8)
            .map(|i| (VirtualTime::ZERO, NodeId(i), NodeId((i + 1) % 8), 3_000_000))
            .collect();
        let mut net = PacketNetwork::new(topo);
        for &(at, src, dst, bytes) in &sends {
            net.send(at, src, dst, bytes);
        }
        assert_eq!(net.components.len(), 8);
        assert!(net.components.iter().all(|c| c.members.len() == 1));
        assert_eq!(net.observe().reschedules, 0);
        let mut tally = Tally::default();
        let mut fresh = PacketNetwork::new(net.topo.clone());
        drive(&mut fresh, &sends, true, &mut tally).expect("matches the oracle");
        assert_eq!((tally.sends, tally.merged, tally.closed), (8, 0, 1));
    }

    #[test]
    fn packet_tier_opts_out_of_replay_and_snapshots() {
        let net = PacketNetwork::new(single_link(50e9, 1e-6));
        assert!(!net.iteration_invariant());
        assert!(net.fork_pristine().is_none());
        assert!(net.checkpoint_state().is_none());
    }
}
