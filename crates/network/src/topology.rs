//! Interconnect topologies and shortest-path routing.

use std::collections::VecDeque;
use std::fmt;

use serde::{Deserialize, Serialize};

/// A node in the interconnect graph (a GPU, a switch, or the host).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A directed link in the interconnect graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LinkId(pub usize);

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Link {
    src: NodeId,
    dst: NodeId,
    bandwidth: f64,
    latency: f64,
    /// Operational state for fault injection. `None` (the serialized
    /// default for topologies written before this field existed) means
    /// *up*; `Some(false)` marks a failed link that routing must avoid.
    up: Option<bool>,
}

impl Link {
    fn is_up(&self) -> bool {
        self.up.unwrap_or(true)
    }
}

/// Error raised by topology construction or routing.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologyError {
    /// A node index is out of range.
    UnknownNode(NodeId),
    /// No path exists between two nodes.
    Unreachable {
        /// Source node.
        src: NodeId,
        /// Destination node.
        dst: NodeId,
    },
    /// A link's endpoints are the same node.
    SelfLink(NodeId),
    /// A link's bandwidth is not finite and positive.
    BadBandwidth {
        /// Source node of the offending link.
        src: NodeId,
        /// Destination node of the offending link.
        dst: NodeId,
        /// The rejected bandwidth value.
        bandwidth: f64,
    },
    /// A link's latency is not finite and non-negative.
    BadLatency {
        /// Source node of the offending link.
        src: NodeId,
        /// Destination node of the offending link.
        dst: NodeId,
        /// The rejected latency value.
        latency: f64,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::UnknownNode(n) => write!(f, "node {n} does not exist"),
            TopologyError::Unreachable { src, dst } => {
                write!(f, "no path from {src} to {dst}")
            }
            TopologyError::SelfLink(n) => write!(f, "self-link on {n} is not allowed"),
            TopologyError::BadBandwidth {
                src,
                dst,
                bandwidth,
            } => write!(
                f,
                "link {src}->{dst}: bandwidth {bandwidth} must be finite and positive"
            ),
            TopologyError::BadLatency { src, dst, latency } => write!(
                f,
                "link {src}->{dst}: latency {latency} must be finite and non-negative"
            ),
        }
    }
}

impl std::error::Error for TopologyError {}

/// A directed interconnect graph with per-link bandwidth and latency.
///
/// Links are *directed*; the `add_duplex` helper inserts both directions,
/// which models full-duplex interconnects (NVLink, PCIe) where the two
/// directions do not share bandwidth. Asymmetric networks — one of
/// TrioSim's differentiators over AstraSim/DistSim — are expressed by
/// simply adding links of different bandwidths.
///
/// # Example
///
/// ```rust
/// use triosim_network::{NodeId, Topology};
///
/// let topo = Topology::ring(4, 50e9, 1e-6);
/// let route = topo.route(NodeId(0), NodeId(2)).unwrap();
/// assert_eq!(route.len(), 2, "two hops around a 4-ring");
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Topology {
    nodes: usize,
    links: Vec<Link>,
    /// `adjacency[src]` = list of (dst, link index) — deterministic order.
    adjacency: Vec<Vec<(NodeId, LinkId)>>,
    /// Whether a node may appear in the *interior* of a route. Endpoint
    /// nodes (the host CPU on NVLink systems) carry their own traffic but
    /// never forward other nodes' packets.
    transit: Vec<bool>,
}

impl Topology {
    /// Creates a topology with `nodes` nodes and no links.
    pub fn new(nodes: usize) -> Self {
        assert!(nodes > 0, "a topology needs at least one node");
        Topology {
            nodes,
            links: Vec::new(),
            adjacency: vec![Vec::new(); nodes],
            transit: vec![true; nodes],
        }
    }

    /// Marks whether `node` may forward traffic (appear mid-route).
    ///
    /// The host CPU on an NVLink platform is an endpoint — GPU peer-to-peer
    /// traffic never bounces through it — while the PCIe root complex of a
    /// host-tree platform is precisely the forwarding hub. Defaults to
    /// `true` for every node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn set_transit(&mut self, node: NodeId, allowed: bool) {
        assert!(node.0 < self.nodes, "node out of range");
        self.transit[node.0] = allowed;
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Number of directed links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Adds a directed link and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range, the bandwidth is not
    /// positive, or the latency is negative. Use
    /// [`try_add_link`](Topology::try_add_link) for a fallible variant.
    pub fn add_link(&mut self, src: NodeId, dst: NodeId, bandwidth: f64, latency: f64) -> LinkId {
        match self.try_add_link(src, dst, bandwidth, latency) {
            Ok(id) => id,
            Err(TopologyError::UnknownNode(_)) => panic!("endpoint out of range"),
            Err(TopologyError::SelfLink(_)) => panic!("self-links are not allowed"),
            Err(TopologyError::BadBandwidth { .. }) => panic!("bandwidth must be positive"),
            Err(TopologyError::BadLatency { .. }) => panic!("latency must be non-negative"),
            Err(e) => panic!("{e}"),
        }
    }

    /// Adds a directed link and returns its id, reporting invalid
    /// parameters as a typed error naming the offending link instead of
    /// panicking.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::UnknownNode`], [`TopologyError::SelfLink`],
    /// [`TopologyError::BadBandwidth`], or [`TopologyError::BadLatency`].
    pub fn try_add_link(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bandwidth: f64,
        latency: f64,
    ) -> Result<LinkId, TopologyError> {
        if src.0 >= self.nodes {
            return Err(TopologyError::UnknownNode(src));
        }
        if dst.0 >= self.nodes {
            return Err(TopologyError::UnknownNode(dst));
        }
        if src == dst {
            return Err(TopologyError::SelfLink(src));
        }
        if !(bandwidth.is_finite() && bandwidth > 0.0) {
            return Err(TopologyError::BadBandwidth {
                src,
                dst,
                bandwidth,
            });
        }
        if !(latency.is_finite() && latency >= 0.0) {
            return Err(TopologyError::BadLatency { src, dst, latency });
        }
        let id = LinkId(self.links.len());
        self.links.push(Link {
            src,
            dst,
            bandwidth,
            latency,
            up: None,
        });
        self.adjacency[src.0].push((dst, id));
        Ok(id)
    }

    /// Adds a full-duplex connection (both directions, same parameters).
    pub fn add_duplex(&mut self, a: NodeId, b: NodeId, bandwidth: f64, latency: f64) {
        self.add_link(a, b, bandwidth, latency);
        self.add_link(b, a, bandwidth, latency);
    }

    /// Bandwidth of a link in bytes/s.
    pub fn bandwidth(&self, link: LinkId) -> f64 {
        self.links[link.0].bandwidth
    }

    /// Latency of a link in seconds.
    pub fn latency(&self, link: LinkId) -> f64 {
        self.links[link.0].latency
    }

    /// Endpoints of a link.
    pub fn endpoints(&self, link: LinkId) -> (NodeId, NodeId) {
        (self.links[link.0].src, self.links[link.0].dst)
    }

    /// Scales the bandwidth of one link (used by the Hop case study to
    /// inject heterogeneous slowdowns).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive.
    pub fn scale_bandwidth(&mut self, link: LinkId, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "factor must be positive"
        );
        self.links[link.0].bandwidth *= factor;
    }

    /// Sets the bandwidth of one link to an absolute value in bytes/s.
    ///
    /// [`scale_bandwidth`](Topology::scale_bandwidth) composes
    /// multiplicatively and therefore cannot reproduce an exact prior
    /// state; checkpoint restore uses this setter to put every link back
    /// at the precise (bit-exact) bandwidth the snapshot recorded,
    /// including mid-run fault degradations.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth` is not positive.
    pub fn set_bandwidth(&mut self, link: LinkId, bandwidth: f64) {
        assert!(
            bandwidth.is_finite() && bandwidth > 0.0,
            "bandwidth must be positive"
        );
        self.links[link.0].bandwidth = bandwidth;
    }

    /// All links leaving `node`, in insertion order (including links that
    /// are currently down).
    pub fn links_from(&self, node: NodeId) -> &[(NodeId, LinkId)] {
        &self.adjacency[node.0]
    }

    /// Marks a link up or down. Routing ([`route`](Topology::route) /
    /// [`routes_from`](Topology::routes_from)) never crosses a down link;
    /// this is the fault-injection hook behind transient link failures.
    pub fn set_link_up(&mut self, link: LinkId, up: bool) {
        self.links[link.0].up = Some(up);
    }

    /// Whether a link is currently up (links start up).
    pub fn is_link_up(&self, link: LinkId) -> bool {
        self.links[link.0].is_up()
    }

    /// Shortest path (fewest hops; deterministic tie-break by insertion
    /// order) from `src` to `dst`, as a list of link ids.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError`] if an endpoint is unknown or no path
    /// exists.
    pub fn route(&self, src: NodeId, dst: NodeId) -> Result<Vec<LinkId>, TopologyError> {
        if src.0 >= self.nodes {
            return Err(TopologyError::UnknownNode(src));
        }
        if dst.0 >= self.nodes {
            return Err(TopologyError::UnknownNode(dst));
        }
        if src == dst {
            return Ok(Vec::new());
        }
        // BFS.
        let mut prev: Vec<Option<(NodeId, LinkId)>> = vec![None; self.nodes];
        let mut visited = vec![false; self.nodes];
        visited[src.0] = true;
        let mut queue = VecDeque::from([src]);
        while let Some(node) = queue.pop_front() {
            // Non-transit nodes terminate paths: they may be endpoints
            // but never forward.
            if node != src && !self.transit[node.0] {
                continue;
            }
            for &(next, link) in &self.adjacency[node.0] {
                if !self.links[link.0].is_up() {
                    continue;
                }
                if !visited[next.0] {
                    visited[next.0] = true;
                    prev[next.0] = Some((node, link));
                    if next == dst {
                        let mut path = Vec::new();
                        let mut cur = dst;
                        while cur != src {
                            let (p, l) = prev[cur.0].expect("path recorded");
                            path.push(l);
                            cur = p;
                        }
                        path.reverse();
                        return Ok(path);
                    }
                    queue.push_back(next);
                }
            }
        }
        Err(TopologyError::Unreachable { src, dst })
    }

    /// Shortest paths from `src` to *every* node, as one BFS pass.
    ///
    /// `result[dst]` is `Some(route)` for every reachable destination
    /// (`src` itself maps to the empty route) and `None` for unreachable
    /// nodes. Each individual route is identical — link for link — to
    /// what [`route`](Topology::route) returns for that pair, because
    /// both walk the same deterministic BFS predecessor tree. This is
    /// the bulk primitive behind the flow network's per-source route
    /// cache: one BFS amortizes over all destinations instead of paying
    /// a fresh traversal per `send`.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::UnknownNode`] if `src` is out of range.
    pub fn routes_from(&self, src: NodeId) -> Result<Vec<Option<Vec<LinkId>>>, TopologyError> {
        if src.0 >= self.nodes {
            return Err(TopologyError::UnknownNode(src));
        }
        let mut prev: Vec<Option<(NodeId, LinkId)>> = vec![None; self.nodes];
        let mut visited = vec![false; self.nodes];
        visited[src.0] = true;
        let mut queue = VecDeque::from([src]);
        while let Some(node) = queue.pop_front() {
            if node != src && !self.transit[node.0] {
                continue;
            }
            for &(next, link) in &self.adjacency[node.0] {
                if !self.links[link.0].is_up() {
                    continue;
                }
                if !visited[next.0] {
                    visited[next.0] = true;
                    prev[next.0] = Some((node, link));
                    queue.push_back(next);
                }
            }
        }
        Ok((0..self.nodes)
            .map(|dst| {
                if !visited[dst] {
                    return None;
                }
                let mut path = Vec::new();
                let mut cur = NodeId(dst);
                while cur != src {
                    let (p, l) = prev[cur.0].expect("visited nodes have predecessors");
                    path.push(l);
                    cur = p;
                }
                path.reverse();
                Some(path)
            })
            .collect())
    }

    /// Total latency along a route.
    pub fn route_latency(&self, route: &[LinkId]) -> f64 {
        route.iter().map(|&l| self.latency(l)).sum()
    }

    // ----- builders for the paper's configurations -----

    /// A bidirectional ring of `n` nodes.
    pub fn ring(n: usize, bandwidth: f64, latency: f64) -> Self {
        assert!(n >= 2, "a ring needs at least two nodes");
        let mut t = Topology::new(n);
        for i in 0..n {
            let j = (i + 1) % n;
            t.add_duplex(NodeId(i), NodeId(j), bandwidth, latency);
        }
        t
    }

    /// A unidirectional chain `0 -> 1 -> ... -> n-1` (with reverse links),
    /// the shape of a pipeline-parallel stage assignment.
    pub fn chain(n: usize, bandwidth: f64, latency: f64) -> Self {
        assert!(n >= 2, "a chain needs at least two nodes");
        let mut t = Topology::new(n);
        for i in 0..n - 1 {
            t.add_duplex(NodeId(i), NodeId(i + 1), bandwidth, latency);
        }
        t
    }

    /// NVSwitch-style any-to-any fabric: every pair of nodes is directly
    /// connected at full per-pair bandwidth.
    pub fn switch(n: usize, bandwidth: f64, latency: f64) -> Self {
        assert!(n >= 2, "a switch fabric needs at least two nodes");
        let mut t = Topology::new(n);
        for i in 0..n {
            for j in (i + 1)..n {
                t.add_duplex(NodeId(i), NodeId(j), bandwidth, latency);
            }
        }
        t
    }

    /// A PCIe host tree: node 0 is the host/root-complex; GPUs 1..=n hang
    /// off it. GPU-to-GPU traffic crosses the host, sharing its links —
    /// the P1 platform shape.
    pub fn pcie_host_tree(gpus: usize, bandwidth: f64, latency: f64) -> Self {
        assert!(gpus >= 1, "need at least one GPU");
        let mut t = Topology::new(gpus + 1);
        for i in 1..=gpus {
            t.add_duplex(NodeId(0), NodeId(i), bandwidth, latency);
        }
        t
    }

    /// A two-level fat tree: `hosts` end nodes in groups of
    /// `hosts_per_leaf` under leaf switches, all leaves under one spine.
    /// Host-to-leaf links run at `host_bandwidth`; leaf-to-spine uplinks
    /// at `host_bandwidth * hosts_per_leaf / oversubscription` (set
    /// `oversubscription = 1.0` for a non-blocking fabric). Node ids:
    /// hosts `0..hosts`, then leaves, then the spine (switch nodes are
    /// transit-only by construction, hosts are not marked).
    ///
    /// # Panics
    ///
    /// Panics if `hosts` is not a positive multiple of `hosts_per_leaf`
    /// or `oversubscription < 1`.
    pub fn fat_tree(
        hosts: usize,
        hosts_per_leaf: usize,
        host_bandwidth: f64,
        latency: f64,
        oversubscription: f64,
    ) -> Self {
        assert!(
            hosts > 0 && hosts_per_leaf > 0 && hosts.is_multiple_of(hosts_per_leaf),
            "hosts must be a positive multiple of hosts_per_leaf"
        );
        assert!(oversubscription >= 1.0, "oversubscription must be >= 1");
        let leaves = hosts / hosts_per_leaf;
        let mut t = Topology::new(hosts + leaves + 1);
        let leaf = |i: usize| NodeId(hosts + i);
        let spine = NodeId(hosts + leaves);
        let uplink = host_bandwidth * hosts_per_leaf as f64 / oversubscription;
        for h in 0..hosts {
            t.add_duplex(NodeId(h), leaf(h / hosts_per_leaf), host_bandwidth, latency);
        }
        for l in 0..leaves {
            t.add_duplex(leaf(l), spine, uplink, latency);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_routes_take_the_short_way() {
        let t = Topology::ring(8, 1e9, 1e-6);
        assert_eq!(t.route(NodeId(0), NodeId(1)).unwrap().len(), 1);
        assert_eq!(t.route(NodeId(0), NodeId(4)).unwrap().len(), 4);
        assert_eq!(t.route(NodeId(0), NodeId(7)).unwrap().len(), 1);
    }

    #[test]
    fn route_to_self_is_empty() {
        let t = Topology::ring(4, 1e9, 0.0);
        assert!(t.route(NodeId(2), NodeId(2)).unwrap().is_empty());
    }

    #[test]
    fn switch_is_single_hop_everywhere() {
        let t = Topology::switch(6, 1e9, 1e-6);
        for i in 0..6 {
            for j in 0..6 {
                if i != j {
                    assert_eq!(t.route(NodeId(i), NodeId(j)).unwrap().len(), 1);
                }
            }
        }
    }

    #[test]
    fn pcie_tree_crosses_host() {
        let t = Topology::pcie_host_tree(2, 1e9, 1e-6);
        let route = t.route(NodeId(1), NodeId(2)).unwrap();
        assert_eq!(route.len(), 2, "GPU-GPU goes through the host");
        let (a, b) = t.endpoints(route[0]);
        assert_eq!((a, b), (NodeId(1), NodeId(0)));
    }

    #[test]
    fn fat_tree_routes_and_oversubscribes() {
        let t = Topology::fat_tree(8, 4, 10e9, 1e-6, 2.0);
        // Same leaf: host -> leaf -> host, 2 hops.
        assert_eq!(t.route(NodeId(0), NodeId(1)).unwrap().len(), 2);
        // Cross leaf: host -> leaf -> spine -> leaf -> host, 4 hops.
        let cross = t.route(NodeId(0), NodeId(7)).unwrap();
        assert_eq!(cross.len(), 4);
        // Uplink bandwidth: 4 hosts x 10 / 2 oversubscription = 20 GB/s.
        let uplink = cross[1];
        assert!((t.bandwidth(uplink) - 20e9).abs() < 1.0);
    }

    #[test]
    fn unreachable_is_an_error() {
        let t = Topology::new(3); // no links at all
        let err = t.route(NodeId(0), NodeId(2)).unwrap_err();
        assert!(matches!(err, TopologyError::Unreachable { .. }));
        assert!(err.to_string().contains("no path"));
    }

    #[test]
    fn unknown_node_is_an_error() {
        let t = Topology::ring(3, 1e9, 0.0);
        assert!(matches!(
            t.route(NodeId(0), NodeId(9)),
            Err(TopologyError::UnknownNode(NodeId(9)))
        ));
        assert!(matches!(
            t.routes_from(NodeId(9)),
            Err(TopologyError::UnknownNode(NodeId(9)))
        ));
    }

    #[test]
    fn routes_from_matches_per_pair_route() {
        // The bulk table must be link-for-link identical to route() for
        // every reachable pair — including through non-transit hosts.
        for topo in [
            Topology::ring(6, 1e9, 1e-6),
            Topology::pcie_host_tree(4, 16e9, 1e-6),
            Topology::fat_tree(8, 2, 1e9, 1e-6, 2.0),
        ] {
            for src in 0..topo.node_count() {
                let table = topo.routes_from(NodeId(src)).unwrap();
                assert_eq!(table.len(), topo.node_count());
                for (dst, entry) in table.iter().enumerate() {
                    match topo.route(NodeId(src), NodeId(dst)) {
                        Ok(route) => assert_eq!(entry.as_ref(), Some(&route)),
                        Err(TopologyError::Unreachable { .. }) => assert!(entry.is_none()),
                        Err(e) => panic!("unexpected {e:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn scale_bandwidth_applies() {
        let mut t = Topology::ring(3, 1e9, 0.0);
        let l = t.route(NodeId(0), NodeId(1)).unwrap()[0];
        t.scale_bandwidth(l, 0.5);
        assert_eq!(t.bandwidth(l), 0.5e9);
    }

    #[test]
    fn route_latency_sums_links() {
        let t = Topology::ring(6, 1e9, 2e-6);
        let route = t.route(NodeId(0), NodeId(3)).unwrap();
        assert!((t.route_latency(&route) - 6e-6).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "self-links")]
    fn self_link_rejected() {
        let mut t = Topology::new(2);
        t.add_link(NodeId(0), NodeId(0), 1e9, 0.0);
    }

    #[test]
    fn try_add_link_names_the_offence() {
        let mut t = Topology::new(2);
        assert!(matches!(
            t.try_add_link(NodeId(0), NodeId(5), 1e9, 0.0),
            Err(TopologyError::UnknownNode(NodeId(5)))
        ));
        assert!(matches!(
            t.try_add_link(NodeId(1), NodeId(1), 1e9, 0.0),
            Err(TopologyError::SelfLink(NodeId(1)))
        ));
        let err = t.try_add_link(NodeId(0), NodeId(1), -1.0, 0.0).unwrap_err();
        assert!(err.to_string().contains("n0->n1"), "got: {err}");
        assert!(matches!(
            t.try_add_link(NodeId(0), NodeId(1), 1e9, f64::NAN),
            Err(TopologyError::BadLatency { .. })
        ));
        assert!(t.try_add_link(NodeId(0), NodeId(1), 1e9, 0.0).is_ok());
    }

    #[test]
    fn down_links_are_routed_around() {
        let mut t = Topology::ring(4, 1e9, 0.0);
        // 0 -> 1 direct.
        let direct = t.route(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(direct.len(), 1);
        t.set_link_up(direct[0], false);
        assert!(!t.is_link_up(direct[0]));
        // Now the only way is the long way around.
        let detour = t.route(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(detour.len(), 3);
        let table = t.routes_from(NodeId(0)).unwrap();
        assert_eq!(table[1].as_ref().map(Vec::len), Some(3));
        // Repair restores the direct route.
        t.set_link_up(direct[0], true);
        assert_eq!(t.route(NodeId(0), NodeId(1)).unwrap().len(), 1);
    }
}
