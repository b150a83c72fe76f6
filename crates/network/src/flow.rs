//! The packet-switching flow network (§4.5 of the paper).
//!
//! Beyond the paper's 4-step model, this implementation carries a *fast
//! path* (see `DESIGN.md` §5, "Network fast path"): per-source route
//! caching, slab-indexed flow storage with a per-link membership index,
//! max-min reallocation scoped to the connected component of links the
//! triggering flow touches, and delta-rescheduling that re-arms only the
//! flows whose rate actually changed.

use std::collections::HashMap;
use std::sync::Arc;

use triosim_des::{TimeSpan, VirtualTime};

use crate::model::{
    FlowId, LinkCheckpoint, LinkFault, LinkObservation, NetCheckpoint, NetCommand, NetObservation,
    NetRestoreError, NetStatsSnapshot, NetworkModel, PartitionedError,
};
use crate::topology::{LinkId, NodeId, Topology};

/// Fidelity knobs of the flow network.
///
/// With the default (all-zero) configuration the model is exactly the
/// paper's lightweight network model: route latency plus bytes over
/// fair-shared bandwidth, nothing else. The non-zero knobs add the
/// protocol-level effects the paper explicitly *excludes* ("TrioSim does
/// not model communication protocols or … data transfer unit sizes");
/// [`FlowNetworkConfig::reference`] enables them, turning the same engine
/// into the high-fidelity ground-truth network of this reproduction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowNetworkConfig {
    /// Fixed protocol overhead paid once per message, in seconds.
    pub per_message_overhead_s: f64,
    /// Transfer-unit size in bytes; each full-or-partial chunk pays
    /// [`chunk_overhead_s`](FlowNetworkConfig::chunk_overhead_s). Zero
    /// disables chunking.
    pub chunk_bytes: u64,
    /// Per-chunk protocol overhead, in seconds.
    pub chunk_overhead_s: f64,
    /// Bandwidth ramp: a message of `B` bytes drains as if it were
    /// `B + ramp` bytes, derating small transfers (protocol slow-start,
    /// per-transfer setup DMA work).
    pub bandwidth_ramp_bytes: f64,
}

impl Default for FlowNetworkConfig {
    fn default() -> Self {
        FlowNetworkConfig {
            per_message_overhead_s: 0.0,
            chunk_bytes: 0,
            chunk_overhead_s: 0.0,
            bandwidth_ramp_bytes: 0.0,
        }
    }
}

impl FlowNetworkConfig {
    /// The high-fidelity reference configuration used as ground truth:
    /// NCCL-like 4 MiB transfer units with a small per-chunk cost, a
    /// per-message protocol overhead, and a small-message bandwidth ramp.
    pub fn reference() -> Self {
        FlowNetworkConfig {
            per_message_overhead_s: 5.0e-6,
            chunk_bytes: 4 << 20,
            chunk_overhead_s: 1.5e-6,
            bandwidth_ramp_bytes: 256.0 * 1024.0,
        }
    }
}

/// How the network recomputes fair shares when a flow starts or finishes.
///
/// All three modes produce bit-identical per-flow rates (progressive
/// filling decomposes over connected components of the flow-interference
/// graph, and every mode runs the same component-local filling
/// arithmetic). They differ in how much work they do per event:
///
/// * [`Incremental`](ReallocationMode::Incremental) — the default fast
///   path. Refills only the connected component of links touched by the
///   starting/finishing flow, and emits `Schedule` commands only for
///   flows whose rate actually changed.
/// * [`Full`](ReallocationMode::Full) — refills every component from
///   scratch but still delta-reschedules. The equivalence oracle the
///   incremental path is validated against.
/// * [`FullReschedule`](ReallocationMode::FullReschedule) — refills every
///   component *and* re-arms every in-flight delivery, whether or not its
///   rate changed: the pre-fast-path behaviour, kept as the benchmark
///   baseline for the O(F²) event churn it produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReallocationMode {
    /// Component-scoped refill + delta-rescheduling (the fast path).
    #[default]
    Incremental,
    /// From-scratch refill + delta-rescheduling (equivalence oracle).
    Full,
    /// From-scratch refill + re-arm everything (legacy baseline).
    FullReschedule,
}

impl std::str::FromStr for ReallocationMode {
    type Err = String;

    fn from_str(spec: &str) -> Result<Self, Self::Err> {
        match spec {
            "incremental" => Ok(ReallocationMode::Incremental),
            "full" => Ok(ReallocationMode::Full),
            "full-reschedule" | "full_reschedule" => Ok(ReallocationMode::FullReschedule),
            _ => Err(format!(
                "unknown reallocation mode `{spec}` (try incremental, full, full-reschedule)"
            )),
        }
    }
}

#[derive(Debug, Clone)]
struct ActiveFlow {
    id: FlowId,
    src: NodeId,
    dst: NodeId,
    bytes: u64,
    route: Arc<[LinkId]>,
    /// Bytes (including ramp) still to drain.
    remaining: f64,
    /// Currently allocated rate in bytes/s.
    rate: f64,
    /// Draining starts only after the latency + protocol overhead phase.
    drain_start: VirtualTime,
    last_update: VirtualTime,
}

/// One `(src, dst)` entry of the per-source route cache.
#[derive(Debug, Clone)]
struct CachedRoute {
    route: Arc<[LinkId]>,
    latency_s: f64,
}

/// Cumulative per-link activity counters.
///
/// Both fields are integers (ticks for time) so that statistics deltas
/// can be absorbed exactly: integer sums are associative, which is what
/// keeps replayed runs byte-identical to serial ones.
/// Payload bytes are credited when a flow *delivers* (one full payload
/// per route link), busy time accrues per progress window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkStats {
    /// Payload bytes of delivered flows that crossed this link.
    pub bytes: u64,
    /// Time during which at least one flow was draining through it.
    pub busy: TimeSpan,
}

/// Reusable, epoch-stamped working memory for reallocation and progress
/// accounting. Buffers are sized once (per link / per flow slot) and
/// validity is tracked by comparing stamps, so no buffer is ever cleared
/// or reallocated on the per-event hot path.
#[derive(Debug, Default)]
struct Scratch {
    /// Component-gather generation; buffers stamped with an older value
    /// are logically empty.
    epoch: u64,
    /// Per-link stamp: link belongs to the current component.
    link_epoch: Vec<u64>,
    /// Remaining capacity per link (valid where `link_epoch == epoch`).
    cap: Vec<f64>,
    /// Unfrozen-flow count per link (valid where `link_epoch == epoch`).
    count: Vec<u32>,
    /// Per-link stamp: link saturated in filling round `sat[l]`.
    sat: Vec<u64>,
    /// Global filling-round counter backing `sat`.
    round: u64,
    /// Per-slot stamp: flow belongs to the current component.
    flow_epoch: Vec<u64>,
    /// Per-slot stamp for full-refill sweeps over all components.
    visit: Vec<u64>,
    /// Sweep generation backing `visit`.
    sweep: u64,
    /// New rate per slot (written by the most recent fill touching it).
    rates: Vec<f64>,
    /// Links of the component being filled.
    comp_links: Vec<LinkId>,
    /// Flow slots of the component being filled.
    comp_flows: Vec<u32>,
    /// BFS worklist for component gathering.
    stack: Vec<u32>,
    /// Flows not yet frozen by progressive filling.
    unfrozen: Vec<u32>,
    /// Seed slots for the deliver path's per-component refills.
    seeds: Vec<u32>,
    /// Flow slots whose schedule commands this reallocation may emit.
    emit: Vec<u32>,
    /// Per-link stamp: link was busy in the current progress window.
    busy: Vec<u64>,
    /// Progress-window generation backing `busy`.
    busy_epoch: u64,
}

impl Scratch {
    fn ensure_links(&mut self, links: usize) {
        if self.link_epoch.len() < links {
            self.link_epoch.resize(links, 0);
            self.cap.resize(links, 0.0);
            self.count.resize(links, 0);
            self.sat.resize(links, 0);
            self.busy.resize(links, 0);
        }
    }

    fn ensure_slots(&mut self, slots: usize) {
        if self.flow_epoch.len() < slots {
            self.flow_epoch.resize(slots, 0);
            self.visit.resize(slots, 0);
            self.rates.resize(slots, 0.0);
        }
    }
}

/// The paper's lightweight packet-switching network model.
///
/// Message transfer follows the 4-step process of Figure 5: shortest-path
/// routing, fair bandwidth allocation, scheduling a potential delivery
/// event, and — on any flow start or completion — recomputation of the
/// affected allocations and rescheduling of the deliveries they move.
///
/// Bandwidth sharing is *max-min fair* (progressive filling): concurrent
/// flows through a link split it evenly unless bottlenecked elsewhere.
///
/// Routing runs against a per-source route cache (one BFS amortized over
/// all destinations, invalidated on topology mutation), reallocation is
/// scoped to the connected component of links the triggering flow
/// touches, and only flows whose rate changed are rescheduled — see
/// [`ReallocationMode`].
///
/// # Example
///
/// ```rust
/// use triosim_des::VirtualTime;
/// use triosim_network::{FlowNetwork, NetCommand, NetworkModel, NodeId, Topology};
///
/// // Two flows sharing one 10 GB/s link: each gets 5 GB/s.
/// let mut topo = Topology::new(2);
/// topo.add_duplex(NodeId(0), NodeId(1), 10e9, 0.0);
/// let mut net = FlowNetwork::new(topo);
///
/// let (_f1, cmds1) = net.send(VirtualTime::ZERO, NodeId(0), NodeId(1), 10_000_000_000);
/// let NetCommand::Schedule { at: alone, .. } = cmds1[0] else { panic!() };
/// assert!((alone.as_seconds() - 1.0).abs() < 1e-9, "1 s alone");
///
/// let (_f2, cmds2) = net.send(VirtualTime::ZERO, NodeId(0), NodeId(1), 10_000_000_000);
/// // Both flows now finish at 2 s.
/// for cmd in cmds2 {
///     let NetCommand::Schedule { at, .. } = cmd else { panic!() };
///     assert!((at.as_seconds() - 2.0).abs() < 1e-9);
/// }
/// ```
#[derive(Debug)]
pub struct FlowNetwork {
    topo: Topology,
    config: FlowNetworkConfig,
    mode: ReallocationMode,
    /// Slab of in-flight flows; `FlowId`s map to slots via `slot_of`.
    slots: Vec<Option<ActiveFlow>>,
    free_slots: Vec<u32>,
    slot_of: HashMap<u64, u32>,
    /// Per-link membership index: slots of the flows routed through it.
    link_flows: Vec<Vec<u32>>,
    /// Per-source route table, built lazily by one BFS per source and
    /// cleared whenever the topology is mutated.
    route_cache: Vec<Option<Box<[Option<CachedRoute>]>>>,
    route_hits: u64,
    route_misses: u64,
    next_flow: u64,
    bytes_delivered: u64,
    flows_completed: u64,
    reallocations: u64,
    reschedules: u64,
    link_faults: u64,
    reroutes: u64,
    added_hops: u64,
    link_stats: Vec<LinkStats>,
    last_progress: VirtualTime,
    scratch: Scratch,
}

impl FlowNetwork {
    /// Creates the model over a topology with the clean (paper-default)
    /// configuration.
    pub fn new(topo: Topology) -> Self {
        Self::with_config(topo, FlowNetworkConfig::default())
    }

    /// Creates the model with explicit fidelity knobs.
    pub fn with_config(topo: Topology, config: FlowNetworkConfig) -> Self {
        let links = topo.link_count();
        let nodes = topo.node_count();
        let mut scratch = Scratch::default();
        scratch.ensure_links(links);
        FlowNetwork {
            topo,
            config,
            mode: ReallocationMode::default(),
            slots: Vec::new(),
            free_slots: Vec::new(),
            slot_of: HashMap::new(),
            link_flows: vec![Vec::new(); links],
            route_cache: vec![None; nodes],
            route_hits: 0,
            route_misses: 0,
            next_flow: 0,
            bytes_delivered: 0,
            flows_completed: 0,
            reallocations: 0,
            reschedules: 0,
            link_faults: 0,
            reroutes: 0,
            added_hops: 0,
            link_stats: vec![LinkStats::default(); links],
            last_progress: VirtualTime::ZERO,
            scratch,
        }
    }

    /// Selects how reallocation scopes its work (see [`ReallocationMode`]).
    pub fn set_reallocation_mode(&mut self, mode: ReallocationMode) {
        self.mode = mode;
    }

    /// The active reallocation mode.
    pub fn reallocation_mode(&self) -> ReallocationMode {
        self.mode
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Mutable topology access (used to inject Hop-style slowdowns between
    /// simulations; do not mutate while flows are in flight). Invalidates
    /// the route cache.
    ///
    /// # Panics
    ///
    /// Panics if flows are currently in flight.
    pub fn topology_mut(&mut self) -> &mut Topology {
        assert!(
            self.slot_of.is_empty(),
            "cannot mutate the topology while flows are in flight"
        );
        self.route_cache.fill(None);
        &mut self.topo
    }

    /// Total payload bytes delivered so far.
    pub fn bytes_delivered(&self) -> u64 {
        self.bytes_delivered
    }

    /// Total flows completed so far.
    pub fn flows_completed(&self) -> u64 {
        self.flows_completed
    }

    /// Bandwidth-reallocation rounds performed so far (one per flow
    /// start or completion).
    pub fn reallocations(&self) -> u64 {
        self.reallocations
    }

    /// Delivery events re-armed because a reallocation changed an
    /// in-flight flow's rate — the model's genuine reallocation churn.
    /// (In [`ReallocationMode::FullReschedule`] this reverts to counting
    /// every re-arm, changed or not.)
    pub fn reschedules(&self) -> u64 {
        self.reschedules
    }

    /// Route-cache effectiveness: `(hits, misses)` where a miss runs one
    /// single-source BFS that populates the table for every destination.
    pub fn route_cache_stats(&self) -> (u64, u64) {
        (self.route_hits, self.route_misses)
    }

    /// Link faults applied so far (degradations, failures, repairs).
    pub fn link_faults(&self) -> u64 {
        self.link_faults
    }

    /// In-flight flows rerouted around failed links so far.
    pub fn reroutes(&self) -> u64 {
        self.reroutes
    }

    /// Extra hops accumulated by reroutes (new minus old route length,
    /// summed over every rerouted flow).
    pub fn added_hops(&self) -> u64 {
        self.added_hops
    }

    /// Source, destination, and size of an in-flight flow.
    pub fn flow(&self, id: FlowId) -> Option<(NodeId, NodeId, u64)> {
        let f = self.get(id)?;
        Some((f.src, f.dst, f.bytes))
    }

    /// The current fair-share rate of an in-flight flow, bytes/s.
    pub fn flow_rate(&self, id: FlowId) -> Option<f64> {
        Some(self.get(id)?.rate)
    }

    fn get(&self, id: FlowId) -> Option<&ActiveFlow> {
        let &slot = self.slot_of.get(&id.0)?;
        self.slots[slot as usize].as_ref()
    }

    /// Protocol overhead for a message under the current config.
    fn message_overhead_s(&self, bytes: u64) -> f64 {
        let mut o = self.config.per_message_overhead_s;
        if self.config.chunk_bytes > 0 {
            let chunks = bytes.div_ceil(self.config.chunk_bytes).max(1);
            o += chunks as f64 * self.config.chunk_overhead_s;
        }
        o
    }

    /// Grows link-indexed state after out-of-band topology mutation
    /// (links may be added between simulations via `topology_mut`).
    fn sync_links(&mut self) {
        let links = self.topo.link_count();
        if self.link_stats.len() != links {
            self.link_stats.resize(links, LinkStats::default());
            self.link_flows.resize(links, Vec::new());
        }
        self.scratch.ensure_links(links);
    }

    /// The cached route and latency for `(src, dst)`; one BFS per source,
    /// amortized over every destination. A missing path (the topology is
    /// partitioned between the endpoints) is a typed error.
    fn try_cached_route(
        &mut self,
        src: NodeId,
        dst: NodeId,
    ) -> Result<CachedRoute, PartitionedError> {
        assert!(
            src.0 < self.route_cache.len(),
            "send source must be a known node"
        );
        if self.route_cache[src.0].is_none() {
            self.route_misses += 1;
            let table = self
                .topo
                .routes_from(src)
                .expect("source bounds checked above");
            let table: Box<[Option<CachedRoute>]> = table
                .into_iter()
                .map(|r| {
                    r.map(|route| CachedRoute {
                        latency_s: self.topo.route_latency(&route),
                        route: route.into(),
                    })
                })
                .collect();
            self.route_cache[src.0] = Some(table);
        } else {
            self.route_hits += 1;
        }
        self.route_cache[src.0].as_ref().expect("just ensured")[dst.0]
            .clone()
            .ok_or(PartitionedError { src, dst })
    }

    /// Advances every flow's drained-bytes accounting to `now`, marking
    /// per-link busy time along the way. (Payload bytes are credited at
    /// delivery — see [`deliver`](NetworkModel::deliver) — so the byte
    /// counter stays an exact integer.)
    fn update_progress(&mut self, now: VirtualTime) {
        let sc = &mut self.scratch;
        let stats = &mut self.link_stats;
        sc.busy_epoch += 1;
        let be = sc.busy_epoch;
        let mut any_busy = false;
        for slot in self.slots.iter_mut() {
            let Some(f) = slot else { continue };
            let from = f.last_update.max(f.drain_start);
            if now > from && f.rate > 0.0 {
                let dt = (now - from).as_seconds();
                let drained = (f.rate * dt).min(f.remaining);
                f.remaining -= drained;
                for &l in f.route.iter() {
                    sc.busy[l.0] = be;
                    any_busy = true;
                }
            }
            f.last_update = now;
        }
        if now > self.last_progress {
            if any_busy {
                let dt = now - self.last_progress;
                for (stat, mark) in stats.iter_mut().zip(&sc.busy) {
                    if *mark == be {
                        stat.busy += dt;
                    }
                }
            }
            self.last_progress = now;
        }
    }

    /// Cumulative activity counters for one link.
    pub fn link_stats(&self, link: LinkId) -> LinkStats {
        self.link_stats[link.0]
    }

    /// The `k` busiest links by bytes carried, descending.
    pub fn hottest_links(&self, k: usize) -> Vec<(LinkId, LinkStats)> {
        let mut v: Vec<(LinkId, LinkStats)> = self
            .link_stats
            .iter()
            .enumerate()
            .map(|(i, &s)| (LinkId(i), s))
            .collect();
        v.sort_by_key(|&(_, s)| std::cmp::Reverse(s.bytes));
        v.truncate(k);
        v
    }

    /// Collects into `scratch.comp_flows`/`comp_links` the connected
    /// component of the flow-interference graph containing `seed`.
    fn gather_component(&mut self, seed: u32) {
        let sc = &mut self.scratch;
        let slots = &self.slots;
        let link_flows = &self.link_flows;
        sc.epoch += 1;
        let e = sc.epoch;
        sc.comp_links.clear();
        sc.comp_flows.clear();
        sc.stack.clear();
        sc.flow_epoch[seed as usize] = e;
        sc.comp_flows.push(seed);
        sc.stack.push(seed);
        while let Some(s) = sc.stack.pop() {
            let f = slots[s as usize].as_ref().expect("component slot live");
            for &l in f.route.iter() {
                if sc.link_epoch[l.0] != e {
                    sc.link_epoch[l.0] = e;
                    sc.comp_links.push(l);
                    for &s2 in &link_flows[l.0] {
                        if sc.flow_epoch[s2 as usize] != e {
                            sc.flow_epoch[s2 as usize] = e;
                            sc.comp_flows.push(s2);
                            sc.stack.push(s2);
                        }
                    }
                }
            }
        }
    }

    /// Progressive filling over the gathered component, writing the new
    /// rate of each member into `scratch.rates[slot]`.
    ///
    /// The arithmetic is a pure function of the component's member set
    /// (order-insensitive: the headroom `delta` is a min over links and
    /// capacity updates are per-link), which is what makes incremental and
    /// full refills bit-identical.
    fn fill_component(&mut self) {
        let sc = &mut self.scratch;
        let slots = &self.slots;
        let topo = &self.topo;
        sc.unfrozen.clear();
        for &l in &sc.comp_links {
            sc.cap[l.0] = topo.bandwidth(l);
            sc.count[l.0] = 0;
        }
        for &s in &sc.comp_flows {
            let f = slots[s as usize].as_ref().expect("component slot live");
            if f.route.is_empty() {
                // Local (src == dst) flows carry no bandwidth.
                sc.rates[s as usize] = 0.0;
                continue;
            }
            sc.unfrozen.push(s);
            for &l in f.route.iter() {
                sc.count[l.0] += 1;
            }
        }
        let mut level = 0.0f64;
        while !sc.unfrozen.is_empty() {
            // Uniform headroom until the tightest link saturates.
            let mut delta = f64::INFINITY;
            for &l in &sc.comp_links {
                let c = sc.count[l.0];
                if c > 0 {
                    delta = delta.min(sc.cap[l.0] / c as f64);
                }
            }
            debug_assert!(delta.is_finite() && delta >= 0.0);
            level += delta;
            // Drain capacity and stamp saturated links with this round.
            sc.round += 1;
            let round = sc.round;
            let mut any_saturated = false;
            for &l in &sc.comp_links {
                let c = sc.count[l.0];
                if c == 0 {
                    continue;
                }
                let cap = &mut sc.cap[l.0];
                *cap -= delta * c as f64;
                if *cap <= 1e-6 * topo.bandwidth(l) {
                    *cap = 0.0;
                    sc.sat[l.0] = round;
                    any_saturated = true;
                }
            }
            debug_assert!(
                any_saturated,
                "progressive filling must saturate at least one link per round"
            );
            // Freeze every unfrozen flow crossing a saturated link.
            let mut i = 0;
            while i < sc.unfrozen.len() {
                let s = sc.unfrozen[i];
                let f = slots[s as usize].as_ref().expect("component slot live");
                if f.route.iter().any(|l| sc.sat[l.0] == round) {
                    sc.rates[s as usize] = level;
                    for &l in f.route.iter() {
                        sc.count[l.0] -= 1;
                    }
                    sc.unfrozen.swap_remove(i);
                } else {
                    i += 1;
                }
            }
        }
    }

    /// From-scratch refill: every connected component, one at a time.
    fn fill_all(&mut self) {
        self.scratch.sweep += 1;
        let sweep = self.scratch.sweep;
        for s in 0..self.slots.len() as u32 {
            if self.slots[s as usize].is_none() || self.scratch.visit[s as usize] == sweep {
                continue;
            }
            self.gather_component(s);
            for i in 0..self.scratch.comp_flows.len() {
                let m = self.scratch.comp_flows[i];
                self.scratch.visit[m as usize] = sweep;
            }
            self.fill_component();
        }
    }

    /// Debug oracle: a from-scratch refill must reproduce, bit for bit,
    /// the rates the incremental path left behind (fresh values for the
    /// touched component, previously computed values everywhere else).
    #[cfg(debug_assertions)]
    fn assert_full_equivalence(&mut self) {
        let sweep = self.scratch.sweep;
        let expected: Vec<(u32, f64)> = (0..self.slots.len() as u32)
            .filter_map(|s| {
                let f = self.slots[s as usize].as_ref()?;
                let want = if self.scratch.visit[s as usize] == sweep {
                    self.scratch.rates[s as usize]
                } else {
                    f.rate
                };
                Some((s, want))
            })
            .collect();
        self.fill_all();
        for (s, want) in expected {
            let got = self.scratch.rates[s as usize];
            assert!(
                got.to_bits() == want.to_bits(),
                "incremental refill diverged from full progressive filling: \
                 slot {s} got {got}, full recompute says {want}"
            );
        }
    }

    /// Recomputes the fair rates affected by a flow start (`new_slot`) or
    /// completion (`seed_route` = the finished flow's links) and returns
    /// `Schedule` commands for the flows whose delivery time moved.
    fn reallocate(
        &mut self,
        now: VirtualTime,
        new_slot: Option<u32>,
        seed_route: &[LinkId],
    ) -> Vec<NetCommand> {
        self.reallocations += 1;
        match self.mode {
            ReallocationMode::Incremental => {
                let mut emit = std::mem::take(&mut self.scratch.emit);
                emit.clear();
                self.scratch.sweep += 1;
                let sweep = self.scratch.sweep;
                if let Some(s) = new_slot {
                    // A starting flow connects everything it touches into
                    // one component.
                    self.gather_component(s);
                    for i in 0..self.scratch.comp_flows.len() {
                        let m = self.scratch.comp_flows[i];
                        self.scratch.visit[m as usize] = sweep;
                    }
                    emit.extend_from_slice(&self.scratch.comp_flows);
                    self.fill_component();
                } else {
                    // A finishing flow may have been the bridge holding
                    // its component together: the survivors on its links
                    // can now fall into several disconnected components,
                    // and each must be refilled *separately* — a single
                    // merged fill would interleave the components' level
                    // accumulation and drift from a from-scratch refill
                    // by float-rounding ulps.
                    let mut seeds = std::mem::take(&mut self.scratch.seeds);
                    seeds.clear();
                    for &l in seed_route {
                        seeds.extend_from_slice(&self.link_flows[l.0]);
                    }
                    for &s in &seeds {
                        if self.scratch.visit[s as usize] == sweep {
                            continue;
                        }
                        self.gather_component(s);
                        for j in 0..self.scratch.comp_flows.len() {
                            let m = self.scratch.comp_flows[j];
                            self.scratch.visit[m as usize] = sweep;
                        }
                        emit.extend_from_slice(&self.scratch.comp_flows);
                        self.fill_component();
                    }
                    self.scratch.seeds = seeds;
                }
                self.scratch.emit = emit;
                #[cfg(debug_assertions)]
                self.assert_full_equivalence();
            }
            ReallocationMode::Full | ReallocationMode::FullReschedule => {
                let mut emit = std::mem::take(&mut self.scratch.emit);
                emit.clear();
                emit.extend(
                    (0..self.slots.len() as u32).filter(|&s| self.slots[s as usize].is_some()),
                );
                self.scratch.emit = emit;
                self.fill_all();
            }
        }
        self.emit_commands(now, new_slot)
    }

    /// Emits `Schedule` commands — in `FlowId` order for determinism —
    /// for the candidate flows whose rate changed (plus the new flow,
    /// plus everything in [`ReallocationMode::FullReschedule`]).
    fn emit_commands(&mut self, now: VirtualTime, new_slot: Option<u32>) -> Vec<NetCommand> {
        let sc = &mut self.scratch;
        let slots = &mut self.slots;
        sc.emit
            .sort_unstable_by_key(|&s| slots[s as usize].as_ref().expect("candidate live").id);
        let rearm_all = self.mode == ReallocationMode::FullReschedule;
        let mut cmds = Vec::with_capacity(sc.emit.len());
        let mut reschedules = 0u64;
        for &s in &sc.emit {
            let f = slots[s as usize].as_mut().expect("candidate live");
            let new_rate = sc.rates[s as usize];
            let is_new = new_slot == Some(s);
            let changed = new_rate.to_bits() != f.rate.to_bits();
            f.rate = new_rate;
            if !(is_new || changed || rearm_all) {
                // Delta-rescheduling: an unchanged rate means the armed
                // delivery event is still exact — leave it alone.
                continue;
            }
            let base = now.max(f.drain_start);
            let at = if f.remaining <= 0.0 {
                base
            } else if new_rate > 0.0 {
                base + TimeSpan::from_seconds(f.remaining / new_rate)
            } else {
                // Local (src == dst) flows have empty routes and zero
                // remaining; any other rate-0 case is a config bug.
                unreachable!("a routed flow always receives bandwidth")
            };
            cmds.push(NetCommand::Schedule { flow: f.id, at });
            if !is_new {
                reschedules += 1;
            }
        }
        self.reschedules += reschedules;
        cmds
    }

    /// From-scratch refill of every component with every live flow as an
    /// emit candidate — the recovery path after a link failure rewires
    /// routes across component boundaries.
    fn refill_all_and_emit(&mut self, now: VirtualTime) -> Vec<NetCommand> {
        self.reallocations += 1;
        let mut emit = std::mem::take(&mut self.scratch.emit);
        emit.clear();
        emit.extend((0..self.slots.len() as u32).filter(|&s| self.slots[s as usize].is_some()));
        self.scratch.emit = emit;
        self.fill_all();
        self.emit_commands(now, None)
    }

    /// Moves every in-flight flow crossing a downed link onto a fresh
    /// shortest path that avoids down links, updating the per-link
    /// membership index and the reroute counters.
    ///
    /// Rerouted flows keep their drained progress and original latency
    /// phase; only the remaining bytes travel the detour.
    fn reroute_around(
        &mut self,
        now: VirtualTime,
        downed: &[LinkId],
    ) -> Result<Vec<NetCommand>, PartitionedError> {
        let mut moved: Vec<u32> = Vec::new();
        for &l in downed {
            for &s in &self.link_flows[l.0] {
                if !moved.contains(&s) {
                    moved.push(s);
                }
            }
        }
        // Deterministic processing order regardless of membership layout.
        moved.sort_unstable();
        for &s in &moved {
            let (src, dst, old_route) = {
                let f = self.slots[s as usize].as_ref().expect("rerouted slot live");
                (f.src, f.dst, f.route.clone())
            };
            let new_route = self
                .topo
                .route(src, dst)
                .map_err(|_| PartitionedError { src, dst })?;
            for &l in old_route.iter() {
                let members = &mut self.link_flows[l.0];
                if let Some(pos) = members.iter().position(|&x| x == s) {
                    members.swap_remove(pos);
                }
            }
            for &l in &new_route {
                self.link_flows[l.0].push(s);
            }
            self.reroutes += 1;
            self.added_hops += new_route.len().saturating_sub(old_route.len()) as u64;
            let f = self.slots[s as usize].as_mut().expect("rerouted slot live");
            f.route = new_route.into();
        }
        Ok(self.refill_all_and_emit(now))
    }
}

impl NetworkModel for FlowNetwork {
    fn send(
        &mut self,
        now: VirtualTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
    ) -> (FlowId, Vec<NetCommand>) {
        match self.try_send(now, src, dst, bytes) {
            Ok(r) => r,
            Err(e) => panic!("send endpoints must be connected: {e}"),
        }
    }

    fn try_send(
        &mut self,
        now: VirtualTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
    ) -> Result<(FlowId, Vec<NetCommand>), PartitionedError> {
        self.sync_links();
        let cached = self.try_cached_route(src, dst)?;
        let id = FlowId(self.next_flow);
        self.next_flow += 1;

        let latency = cached.latency_s + self.message_overhead_s(bytes);
        let remaining = if cached.route.is_empty() {
            0.0 // local copy: modeled as instantaneous (same-device data)
        } else {
            bytes as f64 + self.config.bandwidth_ramp_bytes
        };
        self.update_progress(now);
        let flow = ActiveFlow {
            id,
            src,
            dst,
            bytes,
            route: cached.route,
            remaining,
            rate: 0.0,
            drain_start: now + TimeSpan::from_seconds(latency),
            last_update: now,
        };
        let slot = match self.free_slots.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(flow);
                s
            }
            None => {
                self.slots.push(Some(flow));
                (self.slots.len() - 1) as u32
            }
        };
        self.scratch.ensure_slots(self.slots.len());
        self.slot_of.insert(id.0, slot);
        let route = self.slots[slot as usize]
            .as_ref()
            .expect("just inserted")
            .route
            .clone();
        for &l in route.iter() {
            self.link_flows[l.0].push(slot);
        }
        Ok((id, self.reallocate(now, Some(slot), &[])))
    }

    fn apply_link_fault(
        &mut self,
        now: VirtualTime,
        a: NodeId,
        b: NodeId,
        fault: LinkFault,
    ) -> Result<Vec<NetCommand>, PartitionedError> {
        self.sync_links();
        // Drain progress at pre-fault rates before anything changes.
        self.update_progress(now);
        let affected: Vec<LinkId> = (0..self.topo.link_count())
            .map(LinkId)
            .filter(|&l| {
                let (s, d) = self.topo.endpoints(l);
                (s == a && d == b) || (s == b && d == a)
            })
            .collect();
        if affected.is_empty() {
            // No direct link between the endpoints; a validated plan never
            // gets here, and an unmatched fault is a no-op by design.
            return Ok(Vec::new());
        }
        self.link_faults += 1;
        match fault {
            LinkFault::Degrade { factor } => {
                for &l in &affected {
                    self.topo.scale_bandwidth(l, factor);
                }
                // Routes are hop-count shortest paths: a bandwidth change
                // moves rates, not routes, so the route cache stays valid.
                Ok(self.reallocate(now, None, &affected))
            }
            LinkFault::Fail => {
                for &l in &affected {
                    self.topo.set_link_up(l, false);
                }
                self.route_cache.fill(None);
                self.reroute_around(now, &affected)
            }
            LinkFault::Repair => {
                for &l in &affected {
                    self.topo.set_link_up(l, true);
                }
                self.route_cache.fill(None);
                // In-flight flows keep their detours (no re-optimization on
                // repair); only new sends see the restored link, so no
                // rates move and there is nothing to re-arm.
                Ok(Vec::new())
            }
        }
    }

    fn deliver(&mut self, flow: FlowId, now: VirtualTime) -> Vec<NetCommand> {
        self.update_progress(now);
        let slot = self
            .slot_of
            .remove(&flow.0)
            .expect("delivered flow must be in flight");
        let f = self.slots[slot as usize].take().expect("slot occupied");
        debug_assert!(
            f.remaining <= 1.0,
            "flow {flow} delivered with {} bytes left",
            f.remaining
        );
        for &l in f.route.iter() {
            let members = &mut self.link_flows[l.0];
            let pos = members
                .iter()
                .position(|&s| s == slot)
                .expect("membership index tracks every routed flow");
            members.swap_remove(pos);
        }
        self.free_slots.push(slot);
        // Credit the full payload to every link on the route now that the
        // flow has finished: an exact integer per link, independent of how
        // many progress windows the drain spanned.
        for &l in f.route.iter() {
            self.link_stats[l.0].bytes += f.bytes;
        }
        self.bytes_delivered += f.bytes;
        self.flows_completed += 1;
        self.reallocate(now, None, &f.route)
    }

    fn in_flight(&self) -> usize {
        self.slot_of.len()
    }

    fn observe(&self) -> NetObservation {
        NetObservation {
            in_flight: self.slot_of.len(),
            bytes_delivered: self.bytes_delivered,
            flows_completed: self.flows_completed,
            reallocations: self.reallocations,
            reschedules: self.reschedules,
            link_faults: self.link_faults,
            reroutes: self.reroutes,
            added_hops: self.added_hops,
        }
    }

    fn observe_links(&self) -> Vec<LinkObservation> {
        (0..self.link_stats.len())
            .map(|i| {
                let link = LinkId(i);
                let (src, dst) = self.topo.endpoints(link);
                LinkObservation {
                    label: format!("n{}->n{}", src.0, dst.0),
                    bandwidth: self.topo.bandwidth(link),
                    bytes: self.link_stats[i].bytes as f64,
                    busy_s: self.link_stats[i].busy.as_seconds(),
                    active_flows: self.link_flows[i].len(),
                }
            })
            .collect()
    }

    fn iteration_invariant(&self) -> bool {
        // All time arithmetic in this model is either tick-integer or a
        // function of tick *differences* (dt in seconds), so shifting a
        // traffic pattern by a constant offset shifts every command by
        // exactly that offset and leaves all statistics deltas identical.
        true
    }

    fn fork_pristine(&self) -> Option<Box<dyn NetworkModel + Send>> {
        let mut fork = FlowNetwork::with_config(self.topo.clone(), self.config);
        fork.set_reallocation_mode(self.mode);
        Some(Box::new(fork))
    }

    fn stats_snapshot(&self) -> Option<NetStatsSnapshot> {
        Some(NetStatsSnapshot {
            observation: self.observe(),
            links: self.link_stats.iter().map(|s| (s.bytes, s.busy)).collect(),
        })
    }

    fn absorb_stats(&mut self, snapshot: &NetStatsSnapshot) {
        let o = &snapshot.observation;
        self.bytes_delivered += o.bytes_delivered;
        self.flows_completed += o.flows_completed;
        self.reallocations += o.reallocations;
        self.reschedules += o.reschedules;
        self.link_faults += o.link_faults;
        self.reroutes += o.reroutes;
        self.added_hops += o.added_hops;
        assert_eq!(
            snapshot.links.len(),
            self.link_stats.len(),
            "absorbed snapshot must come from a fork of the same topology"
        );
        for (stat, &(bytes, busy)) in self.link_stats.iter_mut().zip(&snapshot.links) {
            stat.bytes += bytes;
            stat.busy += busy;
        }
    }

    fn spec_fingerprint(&self) -> u64 {
        // FNV-1a over the model's full configuration: the serialized
        // topology (nodes, links, parameters, transit restrictions), the
        // fidelity knobs as raw bits, and the reallocation mode. Live
        // mutable state (link stats, counters, the route cache) is
        // deliberately excluded — two runs of the same *spec* must agree
        // even when captured at different points in time.
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
        fold(&self.config.per_message_overhead_s.to_bits().to_le_bytes());
        fold(&self.config.chunk_bytes.to_le_bytes());
        fold(&self.config.chunk_overhead_s.to_bits().to_le_bytes());
        fold(&self.config.bandwidth_ramp_bytes.to_bits().to_le_bytes());
        fold(&[match self.mode {
            ReallocationMode::Incremental => 0u8,
            ReallocationMode::Full => 1,
            ReallocationMode::FullReschedule => 2,
        }]);
        h
    }

    fn checkpoint_state(&self) -> Option<NetCheckpoint> {
        // Snapshots are only meaningful at quiescent instants: an
        // in-flight flow's continuous drain state has no exact serialized
        // form, so the model simply refuses to checkpoint mid-transfer.
        if !self.slot_of.is_empty() {
            return None;
        }
        Some(NetCheckpoint {
            bytes_delivered: self.bytes_delivered,
            flows_completed: self.flows_completed,
            reallocations: self.reallocations,
            reschedules: self.reschedules,
            link_faults: self.link_faults,
            reroutes: self.reroutes,
            added_hops: self.added_hops,
            links: (0..self.link_stats.len())
                .map(|i| {
                    let l = LinkId(i);
                    LinkCheckpoint {
                        bandwidth_bits: self.topo.bandwidth(l).to_bits(),
                        up: self.topo.is_link_up(l),
                        bytes: self.link_stats[i].bytes,
                        busy: self.link_stats[i].busy,
                    }
                })
                .collect(),
        })
    }

    fn restore_state(&mut self, ck: &NetCheckpoint) -> Result<(), NetRestoreError> {
        if !self.slot_of.is_empty() {
            return Err(NetRestoreError::NotQuiescent);
        }
        if ck.links.len() != self.link_stats.len() {
            return Err(NetRestoreError::LinkCountMismatch {
                expected: self.link_stats.len(),
                got: ck.links.len(),
            });
        }
        // Validate every bandwidth before mutating anything, so a corrupt
        // snapshot leaves the model untouched instead of half-restored.
        for (i, lc) in ck.links.iter().enumerate() {
            let bw = f64::from_bits(lc.bandwidth_bits);
            if !bw.is_finite() || bw <= 0.0 {
                return Err(NetRestoreError::BadBandwidth { link: i });
            }
        }
        self.bytes_delivered = ck.bytes_delivered;
        self.flows_completed = ck.flows_completed;
        self.reallocations = ck.reallocations;
        self.reschedules = ck.reschedules;
        self.link_faults = ck.link_faults;
        self.reroutes = ck.reroutes;
        self.added_hops = ck.added_hops;
        for (i, lc) in ck.links.iter().enumerate() {
            let l = LinkId(i);
            self.topo
                .set_bandwidth(l, f64::from_bits(lc.bandwidth_bits));
            self.topo.set_link_up(l, lc.up);
            self.link_stats[i] = LinkStats {
                bytes: lc.bytes,
                busy: lc.busy,
            };
        }
        // Routes are recomputed on demand from the restored topology —
        // the snapshot is route-cache-free by design.
        self.route_cache.fill(None);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched_time(cmds: &[NetCommand], flow: FlowId) -> VirtualTime {
        cmds.iter()
            .find_map(|c| match c {
                NetCommand::Schedule { flow: f, at } if *f == flow => Some(*at),
                _ => None,
            })
            .expect("flow scheduled")
    }

    fn one_link_net(bw: f64, latency: f64) -> FlowNetwork {
        let mut topo = Topology::new(2);
        topo.add_duplex(NodeId(0), NodeId(1), bw, latency);
        FlowNetwork::new(topo)
    }

    #[test]
    fn single_flow_is_latency_plus_bandwidth() {
        let mut net = one_link_net(1e9, 5e-6);
        let (f, cmds) = net.send(VirtualTime::ZERO, NodeId(0), NodeId(1), 1_000_000);
        let at = sched_time(&cmds, f);
        assert!((at.as_seconds() - (5e-6 + 1e-3)).abs() < 1e-12);
    }

    #[test]
    fn two_flows_halve_bandwidth() {
        let mut net = one_link_net(1e9, 0.0);
        let t0 = VirtualTime::ZERO;
        let (f1, _) = net.send(t0, NodeId(0), NodeId(1), 1_000_000);
        let (f2, cmds) = net.send(t0, NodeId(0), NodeId(1), 1_000_000);
        assert!((sched_time(&cmds, f1).as_seconds() - 2e-3).abs() < 1e-9);
        assert!((sched_time(&cmds, f2).as_seconds() - 2e-3).abs() < 1e-9);
        assert_eq!(net.in_flight(), 2);
    }

    #[test]
    fn completion_restores_bandwidth() {
        let mut net = one_link_net(1e9, 0.0);
        let t0 = VirtualTime::ZERO;
        // Flow 1: 1 MB; flow 2: 2 MB. Shared until f1 finishes at 2 ms
        // (0.5 GB/s each), then f2 drains its remaining 1 MB at 1 GB/s,
        // finishing at 3 ms.
        let (f1, _) = net.send(t0, NodeId(0), NodeId(1), 1_000_000);
        let (f2, cmds) = net.send(t0, NodeId(0), NodeId(1), 2_000_000);
        let f1_done = sched_time(&cmds, f1);
        assert!((f1_done.as_seconds() - 2e-3).abs() < 1e-9);
        let cmds = net.deliver(f1, f1_done);
        let f2_done = sched_time(&cmds, f2);
        assert!(
            (f2_done.as_seconds() - 3e-3).abs() < 1e-9,
            "got {}",
            f2_done.as_seconds()
        );
        net.deliver(f2, f2_done);
        assert_eq!(net.in_flight(), 0);
        assert_eq!(net.bytes_delivered(), 3_000_000);
        assert_eq!(net.flows_completed(), 2);
    }

    #[test]
    fn reverse_direction_does_not_share() {
        // Full duplex: 0->1 and 1->0 are independent links.
        let mut net = one_link_net(1e9, 0.0);
        let t0 = VirtualTime::ZERO;
        let (f1, _) = net.send(t0, NodeId(0), NodeId(1), 1_000_000);
        let (f2, cmds) = net.send(t0, NodeId(1), NodeId(0), 1_000_000);
        let f2_at = sched_time(&cmds, f2);
        assert!((f2_at.as_seconds() - 1e-3).abs() < 1e-9);
        // f1's rate is untouched by the disjoint f2 — delta-rescheduling
        // leaves its armed delivery alone.
        assert!((net.flow_rate(f1).unwrap() - 1e9).abs() < 1.0);
        assert!(!cmds.iter().any(|c| matches!(
            c,
            NetCommand::Schedule { flow, .. } if *flow == f1
        )));
    }

    #[test]
    fn max_min_respects_bottleneck() {
        // 0 -> 1 -> 2 chain, flow A crosses both links, flow B only the
        // second. Both share link 1->2 equally; A's rate on 0->1 is
        // limited to its bottleneck share.
        let topo = Topology::chain(3, 1e9, 0.0);
        let mut net = FlowNetwork::new(topo);
        let t0 = VirtualTime::ZERO;
        let (fa, _) = net.send(t0, NodeId(0), NodeId(2), 10_000_000);
        let (fb, _) = net.send(t0, NodeId(1), NodeId(2), 10_000_000);
        assert!((net.flow_rate(fa).unwrap() - 0.5e9).abs() < 1.0);
        assert!((net.flow_rate(fb).unwrap() - 0.5e9).abs() < 1.0);
    }

    #[test]
    fn unbottlenecked_flow_gets_leftover() {
        // Flows A, B share link L1; flow C alone on link L2 gets full bw.
        let mut topo = Topology::new(4);
        topo.add_duplex(NodeId(0), NodeId(1), 1e9, 0.0);
        topo.add_duplex(NodeId(2), NodeId(3), 1e9, 0.0);
        let mut net = FlowNetwork::new(topo);
        let t0 = VirtualTime::ZERO;
        let (fa, _) = net.send(t0, NodeId(0), NodeId(1), 1_000_000);
        let (fb, _) = net.send(t0, NodeId(0), NodeId(1), 1_000_000);
        let (fc, _) = net.send(t0, NodeId(2), NodeId(3), 1_000_000);
        assert!((net.flow_rate(fa).unwrap() - 0.5e9).abs() < 1.0);
        assert!((net.flow_rate(fb).unwrap() - 0.5e9).abs() < 1.0);
        assert!((net.flow_rate(fc).unwrap() - 1.0e9).abs() < 1.0);
    }

    #[test]
    fn local_transfer_is_instantaneous() {
        let mut net = one_link_net(1e9, 1e-6);
        let (f, cmds) = net.send(VirtualTime::from_seconds(1.0), NodeId(0), NodeId(0), 123);
        assert_eq!(sched_time(&cmds, f), VirtualTime::from_seconds(1.0));
    }

    #[test]
    fn reference_config_is_slower_than_clean() {
        let mut topo_a = Topology::new(2);
        topo_a.add_duplex(NodeId(0), NodeId(1), 1e9, 1e-6);
        let topo_b = topo_a.clone();
        let mut clean = FlowNetwork::new(topo_a);
        let mut reference = FlowNetwork::with_config(topo_b, FlowNetworkConfig::reference());
        let bytes = 64_000_000;
        let (fc, c1) = clean.send(VirtualTime::ZERO, NodeId(0), NodeId(1), bytes);
        let (fr, c2) = reference.send(VirtualTime::ZERO, NodeId(0), NodeId(1), bytes);
        let t_clean = sched_time(&c1, fc);
        let t_ref = sched_time(&c2, fr);
        assert!(t_ref > t_clean);
        // But not wildly slower: within ~10% for a 64 MB message.
        let ratio = t_ref.as_seconds() / t_clean.as_seconds();
        assert!(ratio < 1.10, "ratio {ratio}");
    }

    #[test]
    fn staggered_start_progress_accounting() {
        // f1 runs alone for 1 ms (drains 1 MB of its 2 MB), then f2
        // joins; both at 0.5 GB/s. f1 has 1 MB left -> 2 ms more.
        let mut net = one_link_net(1e9, 0.0);
        let (f1, _) = net.send(VirtualTime::ZERO, NodeId(0), NodeId(1), 2_000_000);
        let t1 = VirtualTime::from_seconds(1e-3);
        let (_f2, cmds) = net.send(t1, NodeId(0), NodeId(1), 2_000_000);
        let f1_done = sched_time(&cmds, f1);
        assert!(
            (f1_done.as_seconds() - 3e-3).abs() < 1e-9,
            "got {}",
            f1_done.as_seconds()
        );
    }

    #[test]
    fn link_stats_track_bytes_and_busy_time() {
        let mut net = one_link_net(1e9, 0.0);
        let (f, cmds) = net.send(VirtualTime::ZERO, NodeId(0), NodeId(1), 2_000_000);
        let done = sched_time(&cmds, f);
        net.deliver(f, done);
        let route = net.topology().route(NodeId(0), NodeId(1)).unwrap();
        let stats = net.link_stats(route[0]);
        assert_eq!(stats.bytes, 2_000_000, "exact payload credit at delivery");
        assert!(
            (stats.busy.as_seconds() - 2e-3).abs() < 1e-9,
            "busy {}",
            stats.busy.as_seconds()
        );
        // The reverse link carried nothing.
        let back = net.topology().route(NodeId(1), NodeId(0)).unwrap();
        assert_eq!(net.link_stats(back[0]).bytes, 0);
        let hottest = net.hottest_links(1);
        assert_eq!(hottest[0].0, route[0]);
    }

    #[test]
    fn absorbing_a_stats_delta_reproduces_the_later_snapshot() {
        let transfer = |net: &mut FlowNetwork, at: f64| {
            let (f, cmds) = net.send(VirtualTime::from_seconds(at), NodeId(0), NodeId(1), 1 << 20);
            net.deliver(f, sched_time(&cmds, f));
            net.stats_snapshot().expect("flow networks snapshot")
        };
        let mut net = one_link_net(1e9, 0.0);
        let one = transfer(&mut net, 0.0);
        let two = transfer(&mut net, 1.0);
        let delta = two.since(&one);
        assert_eq!(delta, one, "a time-shifted transfer adds the same stats");
        let mut replayed = one_link_net(1e9, 0.0);
        transfer(&mut replayed, 0.0);
        replayed.absorb_stats(&delta);
        assert_eq!(replayed.stats_snapshot().expect("snapshot"), two);
    }

    #[test]
    fn fork_pristine_and_absorb_reproduce_the_serial_stats_exactly() {
        // Serial oracle: two flows, back to back.
        let run = |net: &mut dyn NetworkModel, offset: VirtualTime| {
            let mut t = offset;
            for _ in 0..2 {
                let (f, cmds) = net.send(t, NodeId(0), NodeId(1), 1_000_000);
                let done = sched_time(&cmds, f);
                net.deliver(f, done);
                t = done + TimeSpan::from_micros(10.0);
            }
        };
        let mut serial = one_link_net(1e9, 0.0);
        run(&mut serial, VirtualTime::ZERO);
        run(&mut serial, VirtualTime::from_seconds(1.0));

        // Forked shape: the second batch runs on a pristine fork at a
        // shifted origin, then its stats are absorbed.
        let mut base = one_link_net(1e9, 0.0);
        assert!(base.iteration_invariant());
        run(&mut base, VirtualTime::ZERO);
        let mut fork = base.fork_pristine().expect("flow network forks");
        assert_eq!(fork.in_flight(), 0);
        run(fork.as_mut(), VirtualTime::from_seconds(1.0));
        let snap = fork.stats_snapshot().expect("fork snapshots");
        base.absorb_stats(&snap);

        assert_eq!(base.observe(), serial.observe());
        assert_eq!(
            base.stats_snapshot().expect("snapshot"),
            serial.stats_snapshot().expect("snapshot")
        );
    }

    #[test]
    fn observation_counts_churn_and_links() {
        let mut net = one_link_net(1e9, 0.0);
        let t0 = VirtualTime::ZERO;
        let (f1, _) = net.send(t0, NodeId(0), NodeId(1), 1_000_000);
        // Second send re-arms f1: one reschedule of churn.
        let (f2, cmds) = net.send(t0, NodeId(0), NodeId(1), 1_000_000);
        let obs = net.observe();
        assert_eq!(obs.in_flight, 2);
        assert_eq!(obs.reallocations, 2, "one round per send");
        assert_eq!(obs.reschedules, 1, "f1 re-armed when f2 joined");
        let links = net.observe_links();
        assert_eq!(links.len(), 2, "duplex pair");
        assert_eq!(links[0].label, "n0->n1");
        assert_eq!(links[0].active_flows, 2);
        assert_eq!(links[1].active_flows, 0);

        let done = sched_time(&cmds, f1);
        net.deliver(f1, done);
        net.deliver(f2, done);
        let obs = net.observe();
        assert_eq!(obs.flows_completed, 2);
        assert_eq!(obs.bytes_delivered, 2_000_000);
        // Delivering f1 re-armed f2; delivering f2 re-armed nothing.
        assert_eq!(obs.reschedules, 2);
        assert_eq!(obs.reallocations, 4);
    }

    #[test]
    fn route_cache_amortizes_bfs() {
        let mut net = FlowNetwork::new(Topology::ring(8, 1e9, 0.0));
        let t0 = VirtualTime::ZERO;
        net.send(t0, NodeId(0), NodeId(3), 1_000);
        net.send(t0, NodeId(0), NodeId(5), 1_000);
        net.send(t0, NodeId(0), NodeId(3), 1_000);
        net.send(t0, NodeId(2), NodeId(4), 1_000);
        // One BFS per distinct source, every later send is a cache hit.
        assert_eq!(net.route_cache_stats(), (2, 2));
    }

    #[test]
    fn topology_mutation_invalidates_route_cache() {
        let mut net = one_link_net(1e9, 0.0);
        let (f, cmds) = net.send(VirtualTime::ZERO, NodeId(0), NodeId(1), 1_000_000);
        let done = sched_time(&cmds, f);
        net.deliver(f, done);
        let link = net.topology().route(NodeId(0), NodeId(1)).unwrap()[0];
        net.topology_mut().scale_bandwidth(link, 0.5);
        let (f2, _) = net.send(done, NodeId(0), NodeId(1), 1_000_000);
        assert!(
            (net.flow_rate(f2).unwrap() - 0.5e9).abs() < 1.0,
            "post-mutation send must see the rebuilt cache and new bandwidth"
        );
    }

    /// Drives the same send script through two modes — delivering flows
    /// at exactly their armed times — and asserts bit-identical command
    /// streams and delivery sequences.
    fn assert_modes_agree(a: ReallocationMode, b: ReallocationMode, delta_only: bool) {
        use std::collections::BTreeMap;
        let run = |mode: ReallocationMode| {
            let mut net = FlowNetwork::new(Topology::ring(6, 1e9, 1e-6));
            net.set_reallocation_mode(mode);
            let t = VirtualTime::from_seconds;
            let sends = [
                (t(0.0), NodeId(0), NodeId(2), 4_000_000u64),
                (t(0.0), NodeId(1), NodeId(2), 2_000_000),
                (t(0.001), NodeId(3), NodeId(4), 8_000_000),
                (t(0.002), NodeId(2), NodeId(0), 1_000_000),
            ];
            let mut armed: BTreeMap<FlowId, VirtualTime> = BTreeMap::new();
            let mut log: Vec<Vec<NetCommand>> = Vec::new();
            let mut deliveries: Vec<(VirtualTime, FlowId)> = Vec::new();
            let apply = |armed: &mut BTreeMap<FlowId, VirtualTime>, cmds: &[NetCommand]| {
                for c in cmds {
                    match *c {
                        NetCommand::Schedule { flow, at } => {
                            armed.insert(flow, at);
                        }
                        NetCommand::Cancel { flow } => {
                            armed.remove(&flow);
                        }
                    }
                }
            };
            let mut sends = sends.iter().peekable();
            loop {
                let next_due = armed.iter().map(|(&f, &at)| (at, f)).min();
                let take_send = match (sends.peek(), next_due) {
                    (Some(&&(at, ..)), Some((due, _))) => at <= due,
                    (Some(_), None) => true,
                    (None, Some(_)) => false,
                    (None, None) => break,
                };
                if take_send {
                    let &&(at, src, dst, bytes) = sends.peek().unwrap();
                    sends.next();
                    let (_, cmds) = net.send(at, src, dst, bytes);
                    apply(&mut armed, &cmds);
                    log.push(cmds);
                } else {
                    let (due, flow) = next_due.unwrap();
                    armed.remove(&flow);
                    deliveries.push((due, flow));
                    let cmds = net.deliver(flow, due);
                    apply(&mut armed, &cmds);
                    log.push(cmds);
                }
            }
            (log, deliveries, net.reschedules())
        };
        let (log_a, del_a, resched_a) = run(a);
        let (log_b, del_b, resched_b) = run(b);
        assert_eq!(log_a, log_b, "{a:?} and {b:?} command streams diverged");
        assert_eq!(del_a, del_b, "{a:?} and {b:?} delivery order diverged");
        if delta_only {
            assert_eq!(resched_a, resched_b);
        }
    }

    #[test]
    fn incremental_matches_full_bitwise() {
        assert_modes_agree(ReallocationMode::Incremental, ReallocationMode::Full, true);
    }

    #[test]
    fn delta_skips_disjoint_flows() {
        // Two disjoint duplex pairs: a send on the second pair must not
        // touch (or reschedule) the flow on the first.
        let mut topo = Topology::new(4);
        topo.add_duplex(NodeId(0), NodeId(1), 1e9, 0.0);
        topo.add_duplex(NodeId(2), NodeId(3), 1e9, 0.0);
        let mut net = FlowNetwork::new(topo);
        let (f1, _) = net.send(VirtualTime::ZERO, NodeId(0), NodeId(1), 1_000_000);
        let (_f2, cmds) = net.send(VirtualTime::ZERO, NodeId(2), NodeId(3), 1_000_000);
        assert_eq!(cmds.len(), 1, "only the new flow is scheduled");
        assert_eq!(net.reschedules(), 0);
        assert!((net.flow_rate(f1).unwrap() - 1e9).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "while flows are in flight")]
    fn topology_mutation_guarded() {
        let mut net = one_link_net(1e9, 0.0);
        net.send(VirtualTime::ZERO, NodeId(0), NodeId(1), 1);
        let _ = net.topology_mut();
    }

    #[test]
    fn degrade_slows_inflight_flow() {
        let mut net = one_link_net(1e9, 0.0);
        let t0 = VirtualTime::ZERO;
        // 2 MB at 1 GB/s: due at 2 ms.
        let (f, cmds) = net.send(t0, NodeId(0), NodeId(1), 2_000_000);
        assert!((sched_time(&cmds, f).as_seconds() - 2e-3).abs() < 1e-9);
        // Halve the link at 1 ms: 1 MB drained, the rest drains at
        // 0.5 GB/s -> 2 ms more, done at 3 ms.
        let cmds = net
            .apply_link_fault(
                VirtualTime::from_seconds(1e-3),
                NodeId(0),
                NodeId(1),
                LinkFault::Degrade { factor: 0.5 },
            )
            .unwrap();
        let at = sched_time(&cmds, f);
        assert!(
            (at.as_seconds() - 3e-3).abs() < 1e-9,
            "got {}",
            at.as_seconds()
        );
        assert_eq!(net.link_faults(), 1);
        assert_eq!(net.reroutes(), 0);
    }

    #[test]
    fn degrade_without_flows_is_quiet() {
        let mut net = one_link_net(1e9, 0.0);
        let cmds = net
            .apply_link_fault(
                VirtualTime::ZERO,
                NodeId(0),
                NodeId(1),
                LinkFault::Degrade { factor: 0.5 },
            )
            .unwrap();
        assert!(cmds.is_empty());
        // A later send sees the degraded bandwidth.
        let (f, cmds) = net.send(VirtualTime::ZERO, NodeId(0), NodeId(1), 1_000_000);
        assert!((sched_time(&cmds, f).as_seconds() - 2e-3).abs() < 1e-9);
    }

    #[test]
    fn link_failure_reroutes_with_added_hops() {
        // Ring of 4: flow 0->1 takes the 1-hop direct link; failing it
        // forces the 3-hop detour 0->3->2->1.
        let mut net = FlowNetwork::new(Topology::ring(4, 1e9, 0.0));
        let t0 = VirtualTime::ZERO;
        let (f, cmds) = net.send(t0, NodeId(0), NodeId(1), 1_000_000);
        assert!((sched_time(&cmds, f).as_seconds() - 1e-3).abs() < 1e-9);
        let cmds = net
            .apply_link_fault(t0, NodeId(0), NodeId(1), LinkFault::Fail)
            .unwrap();
        // Same bandwidth on the detour, so the delivery time is unchanged
        // bitwise and delta-rescheduling may emit nothing — but the route
        // and the counters must show the detour.
        let _ = cmds;
        assert_eq!(net.reroutes(), 1);
        assert_eq!(net.added_hops(), 2, "1-hop route became 3 hops");
        assert_eq!(net.link_faults(), 1);
        // New sends also avoid the downed link.
        let (f2, _) = net.send(t0, NodeId(0), NodeId(1), 1_000);
        let done = VirtualTime::from_seconds(1.0);
        net.deliver(f, done);
        net.deliver(f2, done);
        assert_eq!(net.in_flight(), 0);
    }

    #[test]
    fn link_failure_partitions_inflight_flow() {
        // Chain 0-1-2: failing 1<->2 strands an in-flight 0->2 flow.
        let mut net = FlowNetwork::new(Topology::chain(3, 1e9, 0.0));
        let t0 = VirtualTime::ZERO;
        net.send(t0, NodeId(0), NodeId(2), 1_000_000);
        let err = net
            .apply_link_fault(t0, NodeId(1), NodeId(2), LinkFault::Fail)
            .unwrap_err();
        assert_eq!(
            err,
            PartitionedError {
                src: NodeId(0),
                dst: NodeId(2)
            }
        );
        assert!(err.to_string().contains("no path from n0 to n2"));
    }

    #[test]
    fn try_send_reports_partition_as_error() {
        let mut net = FlowNetwork::new(Topology::chain(3, 1e9, 0.0));
        let t0 = VirtualTime::ZERO;
        net.apply_link_fault(t0, NodeId(1), NodeId(2), LinkFault::Fail)
            .unwrap();
        let err = net.try_send(t0, NodeId(0), NodeId(2), 1_000).unwrap_err();
        assert_eq!(err.dst, NodeId(2));
    }

    #[test]
    fn repair_restores_direct_routes_for_new_sends() {
        let mut net = FlowNetwork::new(Topology::ring(4, 1e9, 0.0));
        let t0 = VirtualTime::ZERO;
        net.apply_link_fault(t0, NodeId(0), NodeId(1), LinkFault::Fail)
            .unwrap();
        let (fa, _) = net.send(t0, NodeId(0), NodeId(1), 1_000);
        // Detour while down...
        let (_, _, _) = net.flow(fa).unwrap();
        let cmds = net
            .apply_link_fault(t0, NodeId(0), NodeId(1), LinkFault::Repair)
            .unwrap();
        assert!(cmds.is_empty(), "repair re-arms nothing");
        // ...and a fresh send after repair uses the direct hop again: with
        // the link up, 1 MB alone finishes in ~1 ms, unaffected by the
        // detoured fa on the other links.
        let (fb, cmds) = net.send(t0, NodeId(1), NodeId(0), 1_000_000);
        assert!((sched_time(&cmds, fb).as_seconds() - 1e-3).abs() < 1e-9);
        assert_eq!(net.link_faults(), 2);
    }

    #[test]
    fn fault_on_unlinked_pair_is_a_noop() {
        let mut net = FlowNetwork::new(Topology::ring(4, 1e9, 0.0));
        let cmds = net
            .apply_link_fault(VirtualTime::ZERO, NodeId(0), NodeId(2), LinkFault::Fail)
            .unwrap();
        assert!(cmds.is_empty());
        assert_eq!(net.link_faults(), 0, "unmatched faults are not counted");
    }
}
