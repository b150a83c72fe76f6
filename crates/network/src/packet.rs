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
//! # Busy-period replay
//!
//! The simulator owns the event queue, so the model cannot run a packet
//! clock of its own beside it; like every [`NetworkModel`] it must
//! answer `send` with a projected delivery time. The model therefore
//! keeps the arrival list of the current *busy period* (the maximal
//! window during which flows are in flight) and deterministically
//! re-simulates the whole period on each `send`, emitting re-`Schedule`
//! commands for flows whose projected completion moved. Causality makes
//! the projections exact: a packet injected at `now` cannot influence
//! any packet event before `now`, so completions an earlier replay
//! placed in the past are final by the time they could be contradicted.
//! When the last flow of a period delivers, the period's packet
//! statistics are committed and the arrival list is cleared.
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
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::sync::Arc;

use triosim_des::{TimeSpan, VirtualTime};

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
    bytes: u64,
}

/// One packet in flight inside a replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Pkt {
    flow: u32,
    seq: u64,
    bytes: u64,
    hop: u32,
    marked: bool,
}

/// Replay events, ordered by `(time, insertion id)` — the id breaks ties
/// deterministically, so the variant order below never decides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
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

/// Per-flow replay state.
#[derive(Debug, Clone)]
struct SimFlow {
    route: Arc<[LinkId]>,
    total: u64,
    last_bytes: u64,
    /// ACK return latency: the route's propagation latency (the reverse
    /// path is assumed symmetric and unqueued — ACKs are tiny).
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

/// Per-link replay state.
#[derive(Debug, Clone)]
struct SimLink {
    queue: VecDeque<Pkt>,
    busy: bool,
    bandwidth: f64,
    latency: TimeSpan,
    bytes: u64,
    busy_time: TimeSpan,
}

/// The outcome of one busy-period replay.
#[derive(Debug)]
struct Replay {
    /// Completion time per arrival index.
    completion: Vec<VirtualTime>,
    stats: PacketObservation,
    links: Vec<(u64, TimeSpan)>,
}

/// Hard ceiling on events per replay — generously above any legitimate
/// busy period, so hitting it means the packet dynamics stopped making
/// progress (a model bug, not a runtime condition).
const REPLAY_EVENT_BUDGET: u64 = 200_000_000;

struct Replayer {
    cfg: PacketConfig,
    rto: TimeSpan,
    flows: Vec<SimFlow>,
    links: Vec<SimLink>,
    heap: BinaryHeap<Reverse<(VirtualTime, u64, Ev)>>,
    eid: u64,
    stats: PacketObservation,
}

impl Replayer {
    fn at(&mut self, t: VirtualTime, ev: Ev) {
        self.heap.push(Reverse((t, self.eid, ev)));
        self.eid += 1;
    }

    fn pkt_bytes(&self, flow: u32, seq: u64) -> u64 {
        let f = &self.flows[flow as usize];
        if seq + 1 == f.total {
            f.last_bytes
        } else {
            self.cfg.mtu_bytes
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
            let seq = f.next_seq;
            let pkt = Pkt {
                flow,
                seq,
                bytes: self.pkt_bytes(flow, seq),
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
            let depth = self.links[link.0].queue.len() as u64;
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
        self.links[link.0].queue.push_back(pkt);
        self.kick(t, link);
    }

    /// Starts serving the next queued packet if the link is idle:
    /// store-and-forward, so the packet serializes fully before its
    /// propagation delay begins.
    fn kick(&mut self, t: VirtualTime, link: LinkId) {
        let l = &mut self.links[link.0];
        if l.busy {
            return;
        }
        let Some(pkt) = l.queue.pop_front() else {
            return;
        };
        l.busy = true;
        let ser = TimeSpan::from_seconds(pkt.bytes as f64 / l.bandwidth);
        l.bytes += pkt.bytes;
        l.busy_time += ser;
        let latency = l.latency;
        self.at(
            t + ser,
            Ev::LinkFree {
                link: link.0 as u32,
            },
        );
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
            bytes: self.pkt_bytes(flow, seq),
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
    /// Undelivered flows of the period, mapped to their arrival index.
    live: BTreeMap<FlowId, usize>,
    /// The delivery time each live flow is currently armed at.
    armed: BTreeMap<FlowId, VirtualTime>,
    next_flow: u64,
    bytes_delivered: u64,
    flows_completed: u64,
    /// Busy-period replays performed (the packet tier's analogue of the
    /// flow model's reallocation rounds).
    replays: u64,
    /// Delivery events re-armed because a later arrival moved them.
    reschedules: u64,
    /// Packet statistics of closed busy periods.
    committed: PacketObservation,
    committed_links: Vec<(u64, TimeSpan)>,
    /// Latest replay's projection for the open period (full-period
    /// totals; exact once the period closes).
    open: PacketObservation,
    open_links: Vec<(u64, TimeSpan)>,
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
            live: BTreeMap::new(),
            armed: BTreeMap::new(),
            next_flow: 0,
            bytes_delivered: 0,
            flows_completed: 0,
            replays: 0,
            reschedules: 0,
            committed: PacketObservation::default(),
            committed_links: vec![(0, TimeSpan::ZERO); links],
            open: PacketObservation::default(),
            open_links: vec![(0, TimeSpan::ZERO); links],
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

    /// Deterministically re-simulates the current busy period from its
    /// first arrival and returns per-flow completions plus the period's
    /// packet statistics.
    fn replay(&self) -> Replay {
        let cfg = self.config;
        let links: Vec<SimLink> = (0..self.topo.link_count())
            .map(|i| SimLink {
                queue: VecDeque::new(),
                busy: false,
                bandwidth: self.topo.bandwidth(LinkId(i)),
                latency: TimeSpan::from_seconds(self.topo.latency(LinkId(i))),
                bytes: 0,
                busy_time: TimeSpan::ZERO,
            })
            .collect();
        let flows: Vec<SimFlow> = self
            .arrivals
            .iter()
            .map(|a| {
                let total = a.bytes.div_ceil(cfg.mtu_bytes).max(1);
                SimFlow {
                    route: a.route.clone(),
                    total,
                    last_bytes: a.bytes - (total - 1) * cfg.mtu_bytes,
                    rev_latency: TimeSpan::from_seconds(self.topo.route_latency(&a.route)),
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
                }
            })
            .collect();
        let mut r = Replayer {
            cfg,
            rto: TimeSpan::from_seconds(cfg.rto_s),
            flows,
            links,
            heap: BinaryHeap::new(),
            eid: 0,
            stats: PacketObservation::default(),
        };
        for (i, a) in self.arrivals.iter().enumerate() {
            r.at(a.at, Ev::Start { flow: i as u32 });
        }
        let mut spent = 0u64;
        while let Some(Reverse((t, _, ev))) = r.heap.pop() {
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
                    r.kick(t, LinkId(link as usize));
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
            links: r.links.iter().map(|l| (l.bytes, l.busy_time)).collect(),
        }
    }

    /// Folds the open period's projection into the committed totals
    /// (called when the period closes, making the projection exact).
    fn commit_open(&mut self) {
        let o = self.open;
        self.committed.packets_sent += o.packets_sent;
        self.committed.retransmits += o.retransmits;
        self.committed.drops += o.drops;
        self.committed.ecn_marks += o.ecn_marks;
        self.committed.max_queue_depth = self.committed.max_queue_depth.max(o.max_queue_depth);
        for (c, v) in self
            .committed
            .queue_depth_hist
            .iter_mut()
            .zip(o.queue_depth_hist)
        {
            *c += v;
        }
        for (c, v) in self.committed_links.iter_mut().zip(&self.open_links) {
            c.0 += v.0;
            c.1 += v.1;
        }
        self.open = PacketObservation::default();
        for slot in &mut self.open_links {
            *slot = (0, TimeSpan::ZERO);
        }
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
        self.live.insert(id, self.arrivals.len());
        self.arrivals.push(Arrival {
            at: now,
            flow: id,
            route,
            bytes,
        });
        let replay = self.replay();
        self.replays += 1;
        self.open = replay.stats;
        self.open_links = replay.links;
        // Re-arm every live flow whose projected completion moved; the
        // new flow was never armed, so it always gets its `Schedule`
        // (last, preserving arrival order).
        let mut cmds = Vec::new();
        let updates: Vec<(FlowId, VirtualTime)> = self
            .arrivals
            .iter()
            .enumerate()
            .filter(|(_, a)| self.live.contains_key(&a.flow))
            .map(|(i, a)| (a.flow, replay.completion[i]))
            .collect();
        for (flow, at) in updates {
            if self.armed.get(&flow) != Some(&at) {
                if flow != id {
                    self.reschedules += 1;
                }
                self.armed.insert(flow, at);
                cmds.push(NetCommand::Schedule { flow, at });
            }
        }
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
            self.commit_open();
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
        (0..self.committed_links.len())
            .map(|i| {
                let link = LinkId(i);
                let (src, dst) = self.topo.endpoints(link);
                let bytes = self.committed_links[i].0 + self.open_links[i].0;
                let busy = self.committed_links[i].1 + self.open_links[i].1;
                LinkObservation {
                    label: format!("n{}->n{}", src.0, dst.0),
                    bandwidth: self.topo.bandwidth(link),
                    bytes: bytes as f64,
                    busy_s: busy.as_seconds(),
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
        // Committed periods plus the open period's projection (the open
        // share is a whole-period projection, exact at quiescence — the
        // only time reports are assembled).
        let o = self.open;
        let mut total = self.committed;
        total.packets_sent += o.packets_sent;
        total.retransmits += o.retransmits;
        total.drops += o.drops;
        total.ecn_marks += o.ecn_marks;
        total.max_queue_depth = total.max_queue_depth.max(o.max_queue_depth);
        for (c, v) in total.queue_depth_hist.iter_mut().zip(o.queue_depth_hist) {
            *c += v;
        }
        Some(total)
    }

    fn iteration_invariant(&self) -> bool {
        // The packet dynamics are time-shift invariant in principle, but
        // the model keeps open-period projections and per-period
        // commitment state that a statistics delta does not cover, so it
        // conservatively opts out: its runs simulate every iteration and
        // report the reason in `SimReport::replay`.
        false
    }

    fn spec_fingerprint(&self) -> u64 {
        // FNV-1a over the serialized topology and the packet-tier knobs
        // as raw bits — same recipe as the flow model: configuration
        // only, never live statistics.
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut fold = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(PRIME);
            }
        };
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
    use super::*;

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

    #[test]
    fn packet_tier_opts_out_of_replay_and_snapshots() {
        let net = PacketNetwork::new(single_link(50e9, 1e-6));
        assert!(!net.iteration_invariant());
        assert!(net.fork_pristine().is_none());
        assert!(net.checkpoint_state().is_none());
    }
}
