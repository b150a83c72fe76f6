//! Hardware platforms: GPUs plus the interconnect that joins them.

use triosim_network::{NodeId, Topology};
use triosim_trace::{GpuModel, LinkKind};

/// A multi-GPU platform: `gpu_count` GPUs of one model, a host node, and
/// an interconnect topology.
///
/// Node numbering convention: node 0 is the host (CPU); GPUs are nodes
/// `1..=gpu_count`. The paper's three validation platforms are provided
/// as constructors ([`p1`](Platform::p1), [`p2`](Platform::p2),
/// [`p3`](Platform::p3)), and arbitrary topologies can be assembled with
/// [`custom`](Platform::custom).
///
/// # Example
///
/// ```rust
/// use triosim::Platform;
///
/// let p2 = Platform::p2(4);
/// assert_eq!(p2.gpu_count(), 4);
/// assert_eq!(p2.gpu_node(0).0, 1, "GPU 0 is node 1; node 0 is the host");
/// ```
#[derive(Debug, Clone)]
pub struct Platform {
    name: String,
    gpu: GpuModel,
    gpu_count: usize,
    topology: Topology,
}

impl Platform {
    /// P1: 2x NVIDIA A40 connected over PCIe (host-mediated tree).
    pub fn p1() -> Self {
        Self::pcie(GpuModel::A40, 2, "P1")
    }

    /// P2: `gpus` (the paper uses 2 or 4) NVIDIA A100 connected with
    /// NVLink through NVSwitch (any-to-any), plus host PCIe uplinks.
    ///
    /// # Panics
    ///
    /// Panics if `gpus < 2`.
    pub fn p2(gpus: usize) -> Self {
        Self::nvswitch(GpuModel::A100, gpus, LinkKind::NvLink3, "P2")
    }

    /// P3: 8x NVIDIA H100 on NVSwitch (NVLink 4).
    pub fn p3() -> Self {
        Self::nvswitch(GpuModel::H100, 8, LinkKind::NvLink4, "P3")
    }

    /// A PCIe host-tree platform (all GPU traffic crosses the host).
    ///
    /// # Panics
    ///
    /// Panics if `gpus` is zero.
    pub fn pcie(gpu: GpuModel, gpus: usize, name: impl Into<String>) -> Self {
        let link = LinkKind::Pcie4;
        let topology = Topology::pcie_host_tree(gpus, link.achieved_bandwidth(), link.latency_s());
        Platform {
            name: name.into(),
            gpu,
            gpu_count: gpus,
            topology,
        }
    }

    /// An NVSwitch-style any-to-any platform with host PCIe uplinks.
    ///
    /// # Panics
    ///
    /// Panics if `gpus < 2`.
    pub fn nvswitch(gpu: GpuModel, gpus: usize, link: LinkKind, name: impl Into<String>) -> Self {
        assert!(gpus >= 2, "NVSwitch platform needs at least 2 GPUs");
        // Node 0 = host; 1..=gpus = GPUs, fully connected via NVLink.
        let mut topology = Topology::new(gpus + 1);
        for i in 1..=gpus {
            topology.add_duplex(
                NodeId(0),
                NodeId(i),
                LinkKind::HostPcie.achieved_bandwidth(),
                LinkKind::HostPcie.latency_s(),
            );
        }
        for i in 1..=gpus {
            for j in (i + 1)..=gpus {
                topology.add_duplex(
                    NodeId(i),
                    NodeId(j),
                    link.achieved_bandwidth(),
                    link.latency_s(),
                );
            }
        }
        // GPU peer traffic never bounces through the host on NVLink.
        topology.set_transit(NodeId(0), false);
        Platform {
            name: name.into(),
            gpu,
            gpu_count: gpus,
            topology,
        }
    }

    /// A ring-connected platform with host uplinks (wafer-scale and Hop
    /// case studies build on this and on [`custom`](Platform::custom)).
    ///
    /// # Panics
    ///
    /// Panics if `gpus < 2`.
    pub fn ring(gpu: GpuModel, gpus: usize, link: LinkKind, name: impl Into<String>) -> Self {
        assert!(gpus >= 2, "ring platform needs at least 2 GPUs");
        let mut topology = Topology::new(gpus + 1);
        for i in 1..=gpus {
            topology.add_duplex(
                NodeId(0),
                NodeId(i),
                LinkKind::HostPcie.achieved_bandwidth(),
                LinkKind::HostPcie.latency_s(),
            );
        }
        for i in 0..gpus {
            let a = NodeId(1 + i);
            let b = NodeId(1 + (i + 1) % gpus);
            topology.add_duplex(a, b, link.achieved_bandwidth(), link.latency_s());
        }
        topology.set_transit(NodeId(0), false);
        Platform {
            name: name.into(),
            gpu,
            gpu_count: gpus,
            topology,
        }
    }

    /// A multi-node cluster: `nodes` servers of `gpus_per_node` GPUs
    /// each. GPUs within a server are fully connected over `intra`
    /// (NVSwitch-style); servers connect through per-server NICs to a
    /// single spine at `inter_bandwidth` bytes/s and `inter_latency_s`
    /// (InfiniBand/Ethernet class). Node layout: host 0, GPUs
    /// `1..=nodes*gpus_per_node`, then one NIC node per server and the
    /// spine (all transit-only).
    ///
    /// This is the hierarchical-network regime AstraSim 2.0 targets; the
    /// flow model handles it with no special casing because routes and
    /// fair sharing already compose.
    ///
    /// # Panics
    ///
    /// Panics if `nodes < 2` or `gpus_per_node < 1`.
    pub fn multi_node(
        gpu: GpuModel,
        nodes: usize,
        gpus_per_node: usize,
        intra: LinkKind,
        inter_bandwidth: f64,
        inter_latency_s: f64,
        name: impl Into<String>,
    ) -> Self {
        assert!(nodes >= 2, "a cluster needs at least two servers");
        assert!(gpus_per_node >= 1, "each server needs a GPU");
        let gpus = nodes * gpus_per_node;
        let nic_base = 1 + gpus;
        let spine = NodeId(nic_base + nodes);
        let mut topology = Topology::new(nic_base + nodes + 1);

        for i in 1..=gpus {
            topology.add_duplex(
                NodeId(0),
                NodeId(i),
                LinkKind::HostPcie.achieved_bandwidth(),
                LinkKind::HostPcie.latency_s(),
            );
        }
        for server in 0..nodes {
            let nic = NodeId(nic_base + server);
            let first = 1 + server * gpus_per_node;
            // Intra-server NVSwitch.
            for a in first..first + gpus_per_node {
                for b in (a + 1)..first + gpus_per_node {
                    topology.add_duplex(
                        NodeId(a),
                        NodeId(b),
                        intra.achieved_bandwidth(),
                        intra.latency_s(),
                    );
                }
                // Each GPU reaches the server NIC at the inter-node rate.
                topology.add_duplex(NodeId(a), nic, inter_bandwidth, inter_latency_s);
            }
            // NIC uplink to the spine (shared by the server's GPUs).
            topology.add_duplex(nic, spine, inter_bandwidth, inter_latency_s);
        }
        topology.set_transit(NodeId(0), false);
        Platform {
            name: name.into(),
            gpu,
            gpu_count: gpus,
            topology,
        }
    }

    /// A leaf/spine fat-tree cluster: GPUs in groups of `gpus_per_leaf`
    /// under leaf switches, all leaves under one spine, plus host PCIe
    /// uplinks to every GPU. GPU-to-leaf links run at `link_bandwidth`
    /// bytes/s with `link_latency_s` propagation; leaf-to-spine uplinks
    /// at `link_bandwidth * gpus_per_leaf / oversubscription` (set
    /// `oversubscription = 1.0` for non-blocking). Node layout: host 0,
    /// GPUs `1..=gpus`, then leaves, then the spine.
    ///
    /// An oversubscribed fat tree is where the packet fidelity tier
    /// earns its keep: cross-leaf collectives funnel into thin uplinks,
    /// queues build, and flow-vs-packet divergence becomes measurable.
    ///
    /// # Panics
    ///
    /// Panics if `gpus` is not a positive multiple of `gpus_per_leaf`
    /// or `oversubscription < 1`.
    pub fn fat_tree(
        gpu: GpuModel,
        gpus: usize,
        gpus_per_leaf: usize,
        link_bandwidth: f64,
        link_latency_s: f64,
        oversubscription: f64,
        name: impl Into<String>,
    ) -> Self {
        assert!(
            gpus > 0 && gpus_per_leaf > 0 && gpus.is_multiple_of(gpus_per_leaf),
            "gpus must be a positive multiple of gpus_per_leaf"
        );
        assert!(oversubscription >= 1.0, "oversubscription must be >= 1");
        let leaves = gpus / gpus_per_leaf;
        let leaf = |i: usize| NodeId(1 + gpus + i);
        let spine = NodeId(1 + gpus + leaves);
        let uplink = link_bandwidth * gpus_per_leaf as f64 / oversubscription;
        let mut topology = Topology::new(1 + gpus + leaves + 1);
        for i in 1..=gpus {
            topology.add_duplex(
                NodeId(0),
                NodeId(i),
                LinkKind::HostPcie.achieved_bandwidth(),
                LinkKind::HostPcie.latency_s(),
            );
            topology.add_duplex(
                NodeId(i),
                leaf((i - 1) / gpus_per_leaf),
                link_bandwidth,
                link_latency_s,
            );
        }
        for l in 0..leaves {
            topology.add_duplex(leaf(l), spine, uplink, link_latency_s);
        }
        topology.set_transit(NodeId(0), false);
        Platform {
            name: name.into(),
            gpu,
            gpu_count: gpus,
            topology,
        }
    }

    /// Wraps an arbitrary topology. The topology must follow the node
    /// convention (node 0 = host, nodes `1..=gpus` = GPUs; extra nodes may
    /// be switches).
    ///
    /// # Panics
    ///
    /// Panics if the topology has fewer than `gpus + 1` nodes.
    pub fn custom(gpu: GpuModel, gpus: usize, topology: Topology, name: impl Into<String>) -> Self {
        assert!(
            topology.node_count() > gpus,
            "topology must contain the host plus {gpus} GPU nodes"
        );
        Platform {
            name: name.into(),
            gpu,
            gpu_count: gpus,
            topology,
        }
    }

    /// Platform name (P1/P2/P3 or custom).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The GPU model installed.
    pub fn gpu(&self) -> GpuModel {
        self.gpu
    }

    /// Number of GPUs.
    pub fn gpu_count(&self) -> usize {
        self.gpu_count
    }

    /// The interconnect graph.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The network node of GPU `i` (0-based GPU index).
    ///
    /// # Panics
    ///
    /// Panics if `i >= gpu_count`.
    pub fn gpu_node(&self, i: usize) -> NodeId {
        assert!(i < self.gpu_count, "GPU index {i} out of range");
        NodeId(1 + i)
    }

    /// The host (CPU) node.
    pub fn host_node(&self) -> NodeId {
        NodeId(0)
    }
}

impl std::str::FromStr for Platform {
    type Err = String;

    /// Parses the CLI/sweep-spec syntax:
    /// `p1 | p2[:N] | p3 | ring:GPU:N | pcie:GPU:N | fat:GPU:N[:O]`.
    ///
    /// `fat` builds a 2-GPUs-per-leaf fat tree with 25 GB/s links, 5 µs
    /// latency, and oversubscription `O` (default 4).
    fn from_str(spec: &str) -> Result<Self, Self::Err> {
        let num = |s: &str| -> Result<usize, String> {
            s.parse()
                .map_err(|e| format!("invalid GPU count `{s}`: {e}"))
        };
        let parts: Vec<&str> = spec.split(':').collect();
        match parts.as_slice() {
            ["p1"] => Ok(Platform::p1()),
            ["p2"] => Ok(Platform::p2(4)),
            ["p2", n] => Ok(Platform::p2(num(n)?)),
            ["p3"] => Ok(Platform::p3()),
            ["ring", gpu, n] => Ok(Platform::ring(
                GpuModel::from_str(gpu)?,
                num(n)?,
                LinkKind::NvLink3,
                format!("ring-{n}"),
            )),
            ["pcie", gpu, n] => Ok(Platform::pcie(
                GpuModel::from_str(gpu)?,
                num(n)?,
                format!("pcie-{n}"),
            )),
            ["fat", gpu, n] | ["fat", gpu, n, _] => {
                let oversub = match parts.as_slice() {
                    ["fat", _, _, o] => o
                        .parse::<f64>()
                        .map_err(|e| format!("invalid oversubscription `{o}`: {e}"))?,
                    _ => 4.0,
                };
                Ok(Platform::fat_tree(
                    GpuModel::from_str(gpu)?,
                    num(n)?,
                    2,
                    25e9,
                    5e-6,
                    oversub,
                    format!("fat-{n}"),
                ))
            }
            _ => Err(format!(
                "unknown platform `{spec}` (try p1, p2:4, p3, ring:A100:8, pcie:A40:2, fat:A100:4)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p1_is_two_a40_over_pcie() {
        let p = Platform::p1();
        assert_eq!(p.gpu_count(), 2);
        assert_eq!(p.gpu(), GpuModel::A40);
        // GPU-GPU crosses the host: 2 hops.
        let r = p.topology().route(p.gpu_node(0), p.gpu_node(1)).unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn p2_is_direct_nvlink() {
        let p = Platform::p2(4);
        let r = p.topology().route(p.gpu_node(0), p.gpu_node(3)).unwrap();
        assert_eq!(r.len(), 1, "NVSwitch is single-hop");
        let bw = p.topology().bandwidth(r[0]);
        assert!(bw > 100e9, "NVLink-class bandwidth, got {bw}");
    }

    #[test]
    fn p3_has_eight_h100() {
        let p = Platform::p3();
        assert_eq!(p.gpu_count(), 8);
        assert_eq!(p.gpu(), GpuModel::H100);
    }

    #[test]
    fn host_reaches_every_gpu() {
        for p in [Platform::p1(), Platform::p2(4), Platform::p3()] {
            for i in 0..p.gpu_count() {
                let r = p.topology().route(p.host_node(), p.gpu_node(i)).unwrap();
                assert_eq!(r.len(), 1, "host uplink is direct");
            }
        }
    }

    #[test]
    fn ring_platform_wraps() {
        let p = Platform::ring(GpuModel::A100, 8, LinkKind::NvLink3, "ring8");
        let r = p.topology().route(p.gpu_node(0), p.gpu_node(7)).unwrap();
        assert_eq!(r.len(), 1, "ring neighbours");
        let r = p.topology().route(p.gpu_node(0), p.gpu_node(4)).unwrap();
        assert_eq!(r.len(), 4, "across the ring");
    }

    #[test]
    fn multi_node_routing_hierarchy() {
        let p = Platform::multi_node(
            GpuModel::A100,
            2,
            4,
            LinkKind::NvLink3,
            25e9,
            5e-6,
            "cluster",
        );
        assert_eq!(p.gpu_count(), 8);
        // Intra-server: 1 NVLink hop.
        let intra = p.topology().route(p.gpu_node(0), p.gpu_node(3)).unwrap();
        assert_eq!(intra.len(), 1);
        assert!(p.topology().bandwidth(intra[0]) > 100e9);
        // Cross-server: gpu -> NIC -> spine -> NIC -> gpu.
        let inter = p.topology().route(p.gpu_node(0), p.gpu_node(4)).unwrap();
        assert_eq!(inter.len(), 4);
        assert!((p.topology().bandwidth(inter[0]) - 25e9).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn gpu_node_bounds_checked() {
        Platform::p1().gpu_node(2);
    }

    #[test]
    fn fat_tree_oversubscribes_uplinks() {
        let p = Platform::fat_tree(GpuModel::A100, 4, 2, 25e9, 5e-6, 4.0, "fat4");
        assert_eq!(p.gpu_count(), 4);
        // Same leaf: gpu -> leaf -> gpu.
        let same = p.topology().route(p.gpu_node(0), p.gpu_node(1)).unwrap();
        assert_eq!(same.len(), 2);
        // Cross leaf: gpu -> leaf -> spine -> leaf -> gpu, through a
        // 2 x 25 / 4 = 12.5 GB/s uplink.
        let cross = p.topology().route(p.gpu_node(0), p.gpu_node(3)).unwrap();
        assert_eq!(cross.len(), 4);
        assert!((p.topology().bandwidth(cross[0]) - 25e9).abs() < 1.0);
        assert!((p.topology().bandwidth(cross[1]) - 12.5e9).abs() < 1.0);
        // The host never transits GPU traffic.
        assert!(!cross
            .iter()
            .any(|&l| { matches!(p.topology().endpoints(l), (NodeId(0), _) | (_, NodeId(0))) }));
    }

    #[test]
    fn fat_spec_parses_with_default_oversubscription() {
        use std::str::FromStr;
        let p = Platform::from_str("fat:A100:4").unwrap();
        assert_eq!(p.gpu_count(), 4);
        assert_eq!(p.gpu(), GpuModel::A100);
        let cross = p.topology().route(p.gpu_node(0), p.gpu_node(3)).unwrap();
        // Default oversubscription 4: uplink = 2 x 25 / 4 GB/s.
        assert!((p.topology().bandwidth(cross[1]) - 12.5e9).abs() < 1.0);
        let p2 = Platform::from_str("fat:A100:4:1").unwrap();
        let cross2 = p2.topology().route(p2.gpu_node(0), p2.gpu_node(3)).unwrap();
        assert!((p2.topology().bandwidth(cross2[1]) - 50e9).abs() < 1.0);
        assert!(Platform::from_str("fat:A100").is_err());
    }
}
