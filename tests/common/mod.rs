//! Shared support for the replay-vs-oracle tests: the serial oracle.

use triosim::Platform;
use triosim_des::VirtualTime;
use triosim_network::{
    FlowId, FlowNetwork, LinkFault, LinkObservation, NetCheckpoint, NetCommand, NetObservation,
    NetRestoreError, NetStatsSnapshot, NetworkModel, NodeId, PacketObservation, PartitionedError,
};

/// Forwards every call to the model it wraps, but reports
/// `iteration_invariant() == false`: a run on it simulates every
/// iteration, so it is the serial oracle a replayed run must match byte
/// for byte. No switch in the simulator is involved.
#[derive(Debug)]
pub struct Serial<N>(pub N);

/// The flow network `SimBuilder` builds for `platform` by default,
/// behind the serial oracle.
pub fn serial_flow(platform: &Platform) -> Box<dyn NetworkModel> {
    Box::new(Serial(FlowNetwork::new(platform.topology().clone())))
}

impl<N: NetworkModel> NetworkModel for Serial<N> {
    fn send(
        &mut self,
        now: VirtualTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
    ) -> (FlowId, Vec<NetCommand>) {
        self.0.send(now, src, dst, bytes)
    }

    fn try_send(
        &mut self,
        now: VirtualTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
    ) -> Result<(FlowId, Vec<NetCommand>), PartitionedError> {
        self.0.try_send(now, src, dst, bytes)
    }

    fn apply_link_fault(
        &mut self,
        now: VirtualTime,
        a: NodeId,
        b: NodeId,
        fault: LinkFault,
    ) -> Result<Vec<NetCommand>, PartitionedError> {
        self.0.apply_link_fault(now, a, b, fault)
    }

    fn deliver(&mut self, flow: FlowId, now: VirtualTime) -> Vec<NetCommand> {
        self.0.deliver(flow, now)
    }

    fn in_flight(&self) -> usize {
        self.0.in_flight()
    }

    fn observe(&self) -> NetObservation {
        self.0.observe()
    }

    fn observe_links(&self) -> Vec<LinkObservation> {
        self.0.observe_links()
    }

    fn observe_packets(&self) -> Option<PacketObservation> {
        self.0.observe_packets()
    }

    fn iteration_invariant(&self) -> bool {
        false
    }

    fn fork_pristine(&self) -> Option<Box<dyn NetworkModel + Send>> {
        self.0.fork_pristine()
    }

    fn stats_snapshot(&self) -> Option<NetStatsSnapshot> {
        self.0.stats_snapshot()
    }

    fn absorb_stats(&mut self, snapshot: &NetStatsSnapshot) {
        self.0.absorb_stats(snapshot);
    }

    fn spec_fingerprint(&self) -> u64 {
        self.0.spec_fingerprint()
    }

    fn checkpoint_state(&self) -> Option<NetCheckpoint> {
        self.0.checkpoint_state()
    }

    fn restore_state(&mut self, ck: &NetCheckpoint) -> Result<(), NetRestoreError> {
        self.0.restore_state(ck)
    }
}
