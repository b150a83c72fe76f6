//! Flow-based network modeling for TrioSim-RS.
//!
//! The paper's lightweight network model (§4.5) discards protocol detail
//! and keeps only the factors that dominate transfer time: link latency,
//! link bandwidth, and bandwidth sharing between concurrent streams. A
//! packet transfer is a 4-step process — (1) shortest-path routing, (2)
//! bandwidth allocation, (3) scheduling a *potential* delivery event, and
//! (4) delivery with reallocation — and every flow start or completion
//! triggers rescheduling of all in-flight deliveries. This crate
//! implements exactly that, plus:
//!
//! * [`Topology`] builders for the platforms' interconnects: ring, chain,
//!   PCIe host tree, NVSwitch-style all-to-all, and a two-level fat tree.
//!   Fig 15's wafer mesh and the Hop case study's graphs build their own.
//! * [`FlowNetwork`] — the packet-switching model. With a
//!   [`FlowNetworkConfig`] adding per-message protocol overhead and a
//!   small-message bandwidth ramp, the *same* engine doubles as the
//!   high-fidelity reference network used as ground truth (the effects
//!   TrioSim's clean model abstracts away — see DESIGN.md §2).
//! * [`PhotonicNetwork`] — the circuit-switching Passage model from case
//!   study §7.1 (link setup latency, limited ports with LRU eviction,
//!   fixed per-circuit bandwidth).
//! * [`PacketNetwork`] — the opt-in packet-level tier: MTU packetization,
//!   FIFO tail-drop switch queues, store-and-forward per-hop delays, ECN
//!   with a DCTCP-style window, and RTO retransmission. Cross-validated
//!   against [`FlowNetwork`] by `tests/fidelity.rs`.
//!
//! All network models implement [`NetworkModel`], mirroring the paper's
//! claim that a model only needs `Send` and `Deliver` to plug in.
//!
//! # Example
//!
//! ```rust
//! use triosim_des::VirtualTime;
//! use triosim_network::{FlowNetwork, NetworkModel, NodeId, Topology};
//!
//! let topo = Topology::ring(4, 100e9, 1e-6); // 4 GPUs, 100 GB/s, 1 us
//! let mut net = FlowNetwork::new(topo);
//! let t0 = VirtualTime::ZERO;
//! let (flow, cmds) = net.send(t0, NodeId(0), NodeId(1), 100_000_000);
//! // One scheduled delivery for the new flow:
//! assert_eq!(cmds.len(), 1);
//! # let _ = flow;
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// Part of the hardened error path: production code in this crate must
// surface typed errors, not unwrap. Tests are exempt.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod flow;
mod model;
mod packet;
mod photonic;
mod topology;

pub use flow::{FlowNetwork, FlowNetworkConfig, LinkStats, ReallocationMode};
pub use model::{
    FlowId, LinkCheckpoint, LinkFault, LinkObservation, NetCheckpoint, NetCommand, NetObservation,
    NetRestoreError, NetStatsSnapshot, NetworkModel, PacketObservation, PartitionedError,
};
pub use packet::{PacketConfig, PacketNetwork};
pub use photonic::{PhotonicConfig, PhotonicNetwork};
pub use topology::{LinkId, NodeId, Topology, TopologyError};
