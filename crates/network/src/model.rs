//! The pluggable network-model interface.
//!
//! The paper emphasizes that a TrioSim network model "only requires
//! implementing the Send and Deliver functions". [`NetworkModel`] is that
//! contract. Because network models cannot own the simulator's event
//! queue (the simulator does), every operation returns a list of
//! [`NetCommand`]s — schedule or cancel delivery events — that the caller
//! applies to its queue. Deterministic and allocation-light.

use std::fmt;

use serde::{Deserialize, Serialize};
use triosim_des::{TimeSpan, VirtualTime};

use crate::topology::NodeId;

/// Identifier of one in-flight transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u64);

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flow{}", self.0)
    }
}

/// An instruction from the network model to the simulation loop.
///
/// `Schedule` means: (re-)arm the delivery event of `flow` at `at`,
/// cancelling any previously armed delivery for the same flow. `Cancel`
/// means: disarm it without a replacement (the flow's finish time is
/// currently unknown, e.g. it is queued behind a busy photonic circuit).
///
/// Models are not required to re-emit `Schedule` for flows whose rate a
/// reallocation left unchanged: the previously armed delivery event is
/// still exact, so the absence of a command *is* the delta-rescheduling
/// contract. Callers must keep armed events live until a new `Schedule`
/// or `Cancel` replaces them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetCommand {
    /// Arm (or re-arm) the delivery event for a flow.
    Schedule {
        /// The flow whose delivery fires.
        flow: FlowId,
        /// Absolute virtual time of delivery under current allocations.
        at: VirtualTime,
    },
    /// Disarm the delivery event for a flow.
    Cancel {
        /// The flow whose delivery is disarmed.
        flow: FlowId,
    },
}

/// Cumulative, whole-network observable counters.
///
/// `reallocations` counts bandwidth-reallocation rounds (every flow
/// start/completion triggers one in a fair-sharing model);
/// `reschedules` counts delivery events that were re-armed as a result —
/// the reallocation *churn* that dominates flow-model cost on congested
/// topologies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetObservation {
    /// Flows currently in flight.
    pub in_flight: usize,
    /// Payload bytes delivered so far.
    pub bytes_delivered: u64,
    /// Flows completed so far.
    pub flows_completed: u64,
    /// Bandwidth-reallocation rounds performed.
    pub reallocations: u64,
    /// Delivery events re-armed by reallocation (churn).
    pub reschedules: u64,
    /// Link faults applied (degradations, failures, repairs).
    pub link_faults: u64,
    /// In-flight flows rerouted around a failed link.
    pub reroutes: u64,
    /// Extra hops accumulated by those reroutes (new route length minus
    /// old, summed over all rerouted flows).
    pub added_hops: u64,
}

/// Cumulative packet-level counters, reported only by models that
/// simulate individual packets (the packet fidelity tier).
///
/// `queue_depth_hist[i]` counts switch-queue enqueues observed at a
/// waiting depth in `[2^(i-1), 2^i)` packets (bucket 0 is an empty
/// queue; the last bucket is open-ended). Together with `drops` and
/// `ecn_marks` this is the structured divergence evidence the
/// flow-vs-packet cross-validation harness reports on congested
/// topologies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PacketObservation {
    /// Data packets injected at sources, including retransmissions.
    pub packets_sent: u64,
    /// Packets re-injected after an RTO fired for a tail-drop.
    pub retransmits: u64,
    /// Packets tail-dropped at a full switch queue.
    pub drops: u64,
    /// Packets ECN-marked at enqueue (queue depth at or above the
    /// marking threshold).
    pub ecn_marks: u64,
    /// Deepest switch-queue waiting depth observed, in packets.
    pub max_queue_depth: u64,
    /// Log2-bucketed histogram of switch-queue depth at enqueue.
    pub queue_depth_hist: [u64; 8],
}

/// A fault applied to the duplex link between two endpoints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkFault {
    /// Scale the link's bandwidth (both directions) by `factor`.
    Degrade {
        /// Bandwidth multiplier, finite and positive.
        factor: f64,
    },
    /// Take the link down (both directions). In-flight flows crossing it
    /// are rerouted; new sends route around it.
    Fail,
    /// Bring the link back up (both directions). Already-rerouted flows
    /// keep their detours; new sends may use the link again.
    Repair,
}

/// A send or link failure left two endpoints with no connecting path.
///
/// This is the structured alternative to hanging (a flow that can never
/// drain) or panicking: the simulator surfaces it as a typed error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionedError {
    /// Source endpoint of the path that no longer exists.
    pub src: NodeId,
    /// Destination endpoint of the path that no longer exists.
    pub dst: NodeId,
}

impl fmt::Display for PartitionedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "network partitioned: no path from {} to {}",
            self.src, self.dst
        )
    }
}

impl std::error::Error for PartitionedError {}

/// One link's cumulative observable state.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkObservation {
    /// Stable human-readable link name (e.g. `n0->n1`).
    pub label: String,
    /// Capacity in bytes/s.
    pub bandwidth: f64,
    /// Payload bytes that have crossed the link.
    pub bytes: f64,
    /// Seconds during which at least one flow was draining through it.
    pub busy_s: f64,
    /// Flows currently routed through the link.
    pub active_flows: usize,
}

/// An exact, mergeable snapshot of a model's cumulative statistics.
///
/// Steady-state replay takes one before and after a simulated iteration,
/// and absorbs the difference ([`since`](NetStatsSnapshot::since)) once
/// per iteration it synthesizes. That must not drift, so every field is
/// an integer (tick-typed for durations): integer sums are exact and
/// associative, so the absorbed totals are byte-identical to the ones
/// simulating those iterations would have left.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NetStatsSnapshot {
    /// Whole-network cumulative counters at snapshot time.
    pub observation: NetObservation,
    /// Per-link `(payload bytes crossed, busy time)` in the model's
    /// stable link order. Empty for models without link accounting.
    pub links: Vec<(u64, TimeSpan)>,
}

impl NetStatsSnapshot {
    /// The statistics accrued since `earlier`, an older snapshot of the
    /// same model: every cumulative counter subtracts, and `in_flight`
    /// (a level, not a total) is this snapshot's. Absorbing the result
    /// into a model at `earlier`'s state brings it to `self`'s.
    ///
    /// # Panics
    ///
    /// Panics if the snapshots cover different link counts.
    pub fn since(&self, earlier: &NetStatsSnapshot) -> NetStatsSnapshot {
        assert_eq!(
            self.links.len(),
            earlier.links.len(),
            "snapshots must come from the same topology"
        );
        let (o, e) = (&self.observation, &earlier.observation);
        NetStatsSnapshot {
            observation: NetObservation {
                in_flight: o.in_flight,
                bytes_delivered: o.bytes_delivered - e.bytes_delivered,
                flows_completed: o.flows_completed - e.flows_completed,
                reallocations: o.reallocations - e.reallocations,
                reschedules: o.reschedules - e.reschedules,
                link_faults: o.link_faults - e.link_faults,
                reroutes: o.reroutes - e.reroutes,
                added_hops: o.added_hops - e.added_hops,
            },
            links: self
                .links
                .iter()
                .zip(&earlier.links)
                .map(|(&(bytes, busy), &(b0, t0))| (bytes - b0, busy - t0))
                .collect(),
        }
    }
}

/// One link's complete checkpointable state: the live topology
/// parameters fault injection may have changed (bandwidth, up/down) plus
/// the cumulative per-link statistics.
///
/// Bandwidth is stored as raw IEEE-754 bits so restore reproduces the
/// exact value a chain of degradations left behind — a decimal
/// round-trip could perturb the last ulp and shift downstream flow
/// timings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkCheckpoint {
    /// Link bandwidth in bytes/s, as `f64::to_bits`.
    pub bandwidth_bits: u64,
    /// Whether the link is up.
    pub up: bool,
    /// Payload bytes that have crossed the link.
    pub bytes: u64,
    /// Cumulative busy time (integer ticks).
    pub busy: TimeSpan,
}

/// A complete, self-contained snapshot of a network model's state at a
/// quiescent instant (no flows in flight).
///
/// Deliberately route-cache-free: routes are a pure function of the
/// restored topology state, so the cache rebuilds on demand and its
/// contents never appear in (or constrain) the snapshot format.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct NetCheckpoint {
    /// Payload bytes delivered so far.
    pub bytes_delivered: u64,
    /// Flows completed so far.
    pub flows_completed: u64,
    /// Bandwidth-reallocation rounds performed.
    pub reallocations: u64,
    /// Delivery events re-armed by reallocation.
    pub reschedules: u64,
    /// Link faults applied.
    pub link_faults: u64,
    /// In-flight flows rerouted around a failed link.
    pub reroutes: u64,
    /// Extra hops accumulated by reroutes.
    pub added_hops: u64,
    /// Per-link state in the model's stable link order.
    pub links: Vec<LinkCheckpoint>,
}

/// Why a [`NetworkModel::restore_state`] call was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetRestoreError {
    /// The model does not implement checkpoint/restore.
    Unsupported,
    /// The snapshot's link list does not match this model's topology.
    LinkCountMismatch {
        /// Links in the live topology.
        expected: usize,
        /// Links in the snapshot.
        got: usize,
    },
    /// A snapshot link carries a non-finite or non-positive bandwidth.
    BadBandwidth {
        /// Index of the offending link.
        link: usize,
    },
    /// The model has in-flight flows; restore requires a quiescent model.
    NotQuiescent,
}

impl fmt::Display for NetRestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetRestoreError::Unsupported => {
                f.write_str("network model does not support checkpoint/restore")
            }
            NetRestoreError::LinkCountMismatch { expected, got } => write!(
                f,
                "snapshot has {got} links but the topology has {expected}"
            ),
            NetRestoreError::BadBandwidth { link } => {
                write!(f, "snapshot link {link} has a non-positive bandwidth")
            }
            NetRestoreError::NotQuiescent => {
                f.write_str("cannot restore into a network with in-flight flows")
            }
        }
    }
}

impl std::error::Error for NetRestoreError {}

/// A network performance model that the simulator can drive.
///
/// The protocol:
///
/// 1. The simulator calls [`send`](NetworkModel::send) when a transfer
///    starts, obtaining a [`FlowId`] and commands to apply.
/// 2. When a scheduled delivery event fires, the simulator calls
///    [`deliver`](NetworkModel::deliver); the flow is complete, and the
///    returned commands re-arm other flows whose rates changed.
pub trait NetworkModel: fmt::Debug {
    /// Starts a transfer of `bytes` from `src` to `dst` at time `now`.
    ///
    /// Returns the new flow's id and the event commands to apply (always
    /// including a `Schedule` for the new flow, possibly preceded by
    /// re-schedules of existing flows).
    ///
    /// # Panics
    ///
    /// Implementations may panic if `src`/`dst` are unknown or
    /// disconnected — a configuration bug, not a runtime condition.
    fn send(
        &mut self,
        now: VirtualTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
    ) -> (FlowId, Vec<NetCommand>);

    /// Fallible variant of [`send`](NetworkModel::send): reports a
    /// missing path as a typed [`PartitionedError`] instead of panicking.
    /// The default delegates to `send` (and therefore inherits its panic
    /// behavior); models that support fault injection override this.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionedError`] when no path connects `src` to `dst`.
    fn try_send(
        &mut self,
        now: VirtualTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
    ) -> Result<(FlowId, Vec<NetCommand>), PartitionedError> {
        Ok(self.send(now, src, dst, bytes))
    }

    /// Applies a fault to the duplex link between `a` and `b` at time
    /// `now`, returning event commands for flows whose delivery times
    /// moved. The default (for models without fault support) ignores the
    /// fault and returns no commands.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionedError`] when a link failure leaves an
    /// in-flight flow with no path between its endpoints.
    fn apply_link_fault(
        &mut self,
        now: VirtualTime,
        a: NodeId,
        b: NodeId,
        fault: LinkFault,
    ) -> Result<Vec<NetCommand>, PartitionedError> {
        let _ = (now, a, b, fault);
        Ok(Vec::new())
    }

    /// Completes `flow` at time `now` (its armed delivery event fired).
    ///
    /// Returns commands re-arming the remaining flows whose delivery
    /// times moved (flows with unchanged rates may be omitted — see
    /// [`NetCommand`]).
    fn deliver(&mut self, flow: FlowId, now: VirtualTime) -> Vec<NetCommand>;

    /// Number of flows currently in flight.
    fn in_flight(&self) -> usize;

    /// Whole-network observable counters. The default reports only the
    /// in-flight count; instrumented models override this with their
    /// full activity/churn accounting.
    fn observe(&self) -> NetObservation {
        NetObservation {
            in_flight: self.in_flight(),
            ..NetObservation::default()
        }
    }

    /// Per-link observable state, in a stable order. The default (for
    /// models without link-level accounting) reports no links.
    fn observe_links(&self) -> Vec<LinkObservation> {
        Vec::new()
    }

    /// Packet-level counters for models that simulate individual packets,
    /// or `None` (the default) for flow-level models. Callers skip packet
    /// report sections and metrics entirely on `None`, which keeps
    /// flow-tier output byte-identical to builds that predate the packet
    /// tier.
    fn observe_packets(&self) -> Option<PacketObservation> {
        None
    }

    /// True when the model is *iteration-invariant*: running the same
    /// traffic pattern shifted by a constant virtual-time offset produces
    /// identically shifted commands and identical statistics deltas, so
    /// from a quiescent instant its behavior does not depend on the
    /// traffic it carried before. Steady-state replay requires it before
    /// it verifies one iteration against the previous one and
    /// synthesizes the rest. The default is conservative.
    fn iteration_invariant(&self) -> bool {
        false
    }

    /// A fresh copy of this model in its pristine (pre-traffic) state:
    /// same topology and configuration, zeroed statistics, no in-flight
    /// flows. `None` (the default) means the model cannot be forked.
    fn fork_pristine(&self) -> Option<Box<dyn NetworkModel + Send>> {
        None
    }

    /// This model's cumulative statistics as an exactly mergeable
    /// snapshot, or `None` (the default) when the model does not support
    /// snapshot/absorb merging (and so cannot be replayed).
    fn stats_snapshot(&self) -> Option<NetStatsSnapshot> {
        None
    }

    /// Folds a statistics delta (see [`NetStatsSnapshot::since`]) into
    /// this model's cumulative counters (integer sums — exact in any
    /// order). The default is a no-op for models without snapshot
    /// support.
    fn absorb_stats(&mut self, snapshot: &NetStatsSnapshot) {
        let _ = snapshot;
    }

    /// A stable fingerprint of the model's *configuration* (topology
    /// shape, link parameters, timing constants) — folded into a
    /// checkpoint's spec hash so a snapshot is never restored against a
    /// differently configured network. The default (`0`) is fine for
    /// models that also leave [`checkpoint_state`](Self::checkpoint_state)
    /// unimplemented.
    fn spec_fingerprint(&self) -> u64 {
        0
    }

    /// The model's complete state as a restorable snapshot, or `None`
    /// when the model cannot be checkpointed **right now** (flows in
    /// flight — snapshots are only taken at quiescent instants) or does
    /// not support checkpointing at all (the default).
    fn checkpoint_state(&self) -> Option<NetCheckpoint> {
        None
    }

    /// Restores this (freshly constructed, traffic-free) model to the
    /// state `ck` describes: exact link bandwidths and up/down flags,
    /// cumulative counters, per-link statistics. Any derived caches are
    /// rebuilt lazily — the snapshot is route-cache-free by design.
    ///
    /// # Errors
    ///
    /// [`NetRestoreError::Unsupported`] (the default) for models without
    /// checkpoint support; [`NetRestoreError::NotQuiescent`] when flows
    /// are in flight; [`NetRestoreError::LinkCountMismatch`] when the
    /// snapshot does not match the live topology.
    fn restore_state(&mut self, ck: &NetCheckpoint) -> Result<(), NetRestoreError> {
        let _ = ck;
        Err(NetRestoreError::Unsupported)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commands_compare() {
        let a = NetCommand::Schedule {
            flow: FlowId(1),
            at: VirtualTime::from_seconds(1.0),
        };
        let b = NetCommand::Cancel { flow: FlowId(1) };
        assert_ne!(a, b);
        assert_eq!(format!("{}", FlowId(3)), "flow3");
    }
}
