//! `TimedNetwork`: a [`NetworkModel`] that forwards every call to the
//! model it wraps and times the calls that do work. It is how the traced
//! run sees the network layer from outside the program: the simulator
//! drives it like any other model, so the report stays byte-identical.

use std::time::Instant;

use triosim_des::VirtualTime;
use triosim_network::{
    FlowId, LinkFault, LinkObservation, NetCheckpoint, NetCommand, NetObservation, NetRestoreError,
    NetStatsSnapshot, NetworkModel, NodeId, PacketObservation, PartitionedError,
};

/// Host time and call counts of the network layer during one run.
#[derive(Debug, Default, Clone, Copy)]
pub struct NetTally {
    /// Seconds inside `send`/`try_send`/`deliver`/`apply_link_fault`.
    pub self_s: f64,
    pub sends: u64,
    pub delivers: u64,
    /// Schedule/cancel commands handed back to the engine.
    pub commands: u64,
}

#[derive(Debug)]
pub struct TimedNetwork {
    inner: Box<dyn NetworkModel>,
    tally: NetTally,
}

impl TimedNetwork {
    pub fn new(inner: Box<dyn NetworkModel>) -> Self {
        TimedNetwork {
            inner,
            tally: NetTally::default(),
        }
    }

    pub fn tally(&self) -> NetTally {
        self.tally
    }

    fn timed<T>(&mut self, f: impl FnOnce(&mut dyn NetworkModel) -> T) -> T {
        let t0 = Instant::now();
        let out = f(self.inner.as_mut());
        self.tally.self_s += t0.elapsed().as_secs_f64();
        out
    }
}

impl NetworkModel for TimedNetwork {
    fn send(
        &mut self,
        now: VirtualTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
    ) -> (FlowId, Vec<NetCommand>) {
        let (flow, cmds) = self.timed(|n| n.send(now, src, dst, bytes));
        self.tally.sends += 1;
        self.tally.commands += cmds.len() as u64;
        (flow, cmds)
    }

    fn try_send(
        &mut self,
        now: VirtualTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
    ) -> Result<(FlowId, Vec<NetCommand>), PartitionedError> {
        let out = self.timed(|n| n.try_send(now, src, dst, bytes));
        self.tally.sends += 1;
        if let Ok((_, cmds)) = &out {
            self.tally.commands += cmds.len() as u64;
        }
        out
    }

    fn apply_link_fault(
        &mut self,
        now: VirtualTime,
        a: NodeId,
        b: NodeId,
        fault: LinkFault,
    ) -> Result<Vec<NetCommand>, PartitionedError> {
        let out = self.timed(|n| n.apply_link_fault(now, a, b, fault));
        if let Ok(cmds) = &out {
            self.tally.commands += cmds.len() as u64;
        }
        out
    }

    fn deliver(&mut self, flow: FlowId, now: VirtualTime) -> Vec<NetCommand> {
        let cmds = self.timed(|n| n.deliver(flow, now));
        self.tally.delivers += 1;
        self.tally.commands += cmds.len() as u64;
        cmds
    }

    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }

    fn observe(&self) -> NetObservation {
        self.inner.observe()
    }

    fn observe_links(&self) -> Vec<LinkObservation> {
        self.inner.observe_links()
    }

    fn observe_packets(&self) -> Option<PacketObservation> {
        self.inner.observe_packets()
    }

    fn iteration_invariant(&self) -> bool {
        self.inner.iteration_invariant()
    }

    fn fork_pristine(&self) -> Option<Box<dyn NetworkModel + Send>> {
        self.inner.fork_pristine()
    }

    fn stats_snapshot(&self) -> Option<NetStatsSnapshot> {
        self.inner.stats_snapshot()
    }

    fn absorb_stats(&mut self, snapshot: &NetStatsSnapshot) {
        self.inner.absorb_stats(snapshot);
    }

    fn spec_fingerprint(&self) -> u64 {
        self.inner.spec_fingerprint()
    }

    fn checkpoint_state(&self) -> Option<NetCheckpoint> {
        self.inner.checkpoint_state()
    }

    fn restore_state(&mut self, ck: &NetCheckpoint) -> Result<(), NetRestoreError> {
        self.inner.restore_state(ck)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use triosim::{Fidelity, Platform, SimBuilder};
    use triosim_modelzoo::ModelId;
    use triosim_network::{FlowNetwork, PacketNetwork};
    use triosim_trace::{GpuModel, Tracer};

    #[test]
    fn canonical_bytes_through_timed_network_equal_plain_bytes() {
        let trace = Tracer::new(GpuModel::A100).trace(&ModelId::ResNet18.build(8));
        let platform = Platform::p2(2);
        for fidelity in [Fidelity::TrioSim, Fidelity::Packet] {
            let plain = SimBuilder::new(&trace, &platform)
                .fidelity(fidelity)
                .run()
                .to_canonical_string();
            let topo = platform.topology().clone();
            let inner: Box<dyn NetworkModel> = match fidelity {
                Fidelity::Packet => Box::new(PacketNetwork::new(topo)),
                _ => Box::new(FlowNetwork::new(topo)),
            };
            let timed = SimBuilder::new(&trace, &platform)
                .fidelity(fidelity)
                .network(Box::new(TimedNetwork::new(inner)))
                .run()
                .to_canonical_string();
            assert_eq!(plain, timed, "{fidelity:?}");
        }
    }
}
