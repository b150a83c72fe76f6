//! Flow-vs-packet cross-validation suite.
//!
//! The packet tier ([`PacketNetwork`]) must agree with the flow tier
//! exactly where protocol effects cannot matter, and must disagree —
//! with structured evidence — exactly where they must. Three layers:
//!
//! * **Convergence oracle**: on an uncongested single-link topology the
//!   packet-tier delivery time equals the flow-tier analytic time within
//!   one MTU serialization delay, across proptest-generated sizes,
//!   latencies, and bandwidths.
//! * **Divergence evidence**: on an oversubscribed fat tree the packet
//!   tier reports a *longer* total than the flow tier, plus nonzero
//!   ECN marks (and a populated queue-depth histogram) the flow tier
//!   cannot see. Canonical packet reports are pinned as golden
//!   snapshots (`tests/golden/packet_{ddp,tp,ddp8,ddp8_x4}.json`), re-blessable via
//!   `TRIOSIM_BLESS=1 cargo test --test fidelity`.
//! * **Determinism**: packet runs are byte-identical across invocations.
//!   The packet tier is not iteration-invariant, so its runs simulate
//!   every iteration and say so in `SimReport::replay`.

use std::path::PathBuf;

use proptest::prelude::*;
use triosim::{Fidelity, Parallelism, Platform, Replay, SerialReason, SimBuilder};
use triosim_des::VirtualTime;
use triosim_modelzoo::ModelId;
use triosim_network::{FlowNetwork, NetCommand, NetworkModel, NodeId, PacketNetwork, Topology};
use triosim_trace::{GpuModel, Tracer};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn bless_mode() -> bool {
    std::env::var_os("TRIOSIM_BLESS").is_some_and(|v| v == "1")
}

/// The congested scenario the two 2-GPU golden snapshots and the
/// divergence test share: two A100s on a 4:1-oversubscribed fat tree (one
/// GPU per leaf, so every collective byte crosses the thin 6.25 GB/s
/// spine uplinks), ResNet-18 at batch 8. Small enough for debug-mode CI,
/// congested enough that queues build, ECN fires, and the tiers diverge.
fn congested_platform() -> Platform {
    Platform::fat_tree(GpuModel::A100, 2, 1, 25e9, 5e-6, 4.0, "fat2")
}

fn congested_report(
    platform: &Platform,
    parallelism: Parallelism,
    fidelity: Fidelity,
    iterations: usize,
) -> triosim::SimReport {
    let trace = Tracer::new(GpuModel::A100).trace(&ModelId::ResNet18.build(8));
    SimBuilder::new(&trace, platform)
        .parallelism(parallelism)
        .fidelity(fidelity)
        .iterations(iterations)
        .run()
}

fn check_golden(name: &str, platform: &Platform, parallelism: Parallelism, iterations: usize) {
    let report = congested_report(platform, parallelism, Fidelity::Packet, iterations);
    let actual =
        serde_json::to_string(&report.to_canonical_json()).expect("canonical JSON is finite");
    let path = golden_dir().join(format!("{name}.json"));
    if bless_mode() {
        std::fs::write(&path, &actual).unwrap_or_else(|e| panic!("bless {}: {e}", path.display()));
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); run `TRIOSIM_BLESS=1 cargo test --test fidelity` \
             and commit the result",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "\n`{name}` drifted from its golden snapshot.\n\
         If this change is intentional, re-bless with \
         `TRIOSIM_BLESS=1 cargo test --test fidelity` and commit the diff.\n\
         actual  : {actual}\n\
         expected: {expected}\n"
    );
}

#[test]
fn golden_packet_ddp() {
    check_golden(
        "packet_ddp",
        &congested_platform(),
        Parallelism::DataParallel { overlap: true },
        1,
    );
}

#[test]
fn golden_packet_tp() {
    check_golden(
        "packet_tp",
        &congested_platform(),
        Parallelism::TensorParallel,
        1,
    );
}

/// The benchmark's packet shape: eight A100s on `fat:A100:8`, so each
/// DDP bucket's ring step is eight simultaneous sends in one busy period.
#[test]
fn golden_packet_ddp8() {
    let platform: Platform = "fat:A100:8".parse().expect("a valid platform spec");
    check_golden(
        "packet_ddp8",
        &platform,
        Parallelism::DataParallel { overlap: true },
        1,
    );
}

/// The same shape over four iterations. Nearly every ring step of
/// iterations 1–3 repeats a step of iteration 0 shifted in time, so a
/// wrong cross-iteration reuse of a packet replay shows here first.
#[test]
fn golden_packet_ddp8_four_iterations() {
    let platform: Platform = "fat:A100:8".parse().expect("a valid platform spec");
    check_golden(
        "packet_ddp8_x4",
        &platform,
        Parallelism::DataParallel { overlap: true },
        4,
    );
}

/// The headline divergence assertion: under congestion the packet tier
/// must be slower than the flow tier (queueing and congestion control
/// the flow model cannot see), and must say *why* via its structured
/// counters. The flow tier must carry no packet section at all — that
/// absence is what keeps flow reports byte-identical to pre-packet
/// builds. Two congested cases: the 2-GPU DDP fat tree, and a 4-GPU TP
/// incast that funnels every shard's activations across the
/// oversubscribed spine at once.
#[test]
fn packet_tier_diverges_under_congestion_with_evidence() {
    let fat4 = Platform::fat_tree(GpuModel::A100, 4, 1, 25e9, 5e-6, 4.0, "fat4");
    for (platform, parallelism) in [
        (
            congested_platform(),
            Parallelism::DataParallel { overlap: true },
        ),
        (fat4, Parallelism::TensorParallel),
    ] {
        let flow = congested_report(&platform, parallelism, Fidelity::TrioSim, 1);
        let packet = congested_report(&platform, parallelism, Fidelity::Packet, 1);
        assert!(
            flow.packet_stats().is_none(),
            "flow tier reports no packets"
        );
        let ps = *packet
            .packet_stats()
            .expect("packet tier reports packet counters");
        let ratio = packet.total_time_s() / flow.total_time_s();
        assert!(
            ratio > 1.0,
            "{parallelism} on {}: congestion must slow the packet tier: ratio {ratio}",
            platform.name()
        );
        assert!(
            ps.drops > 0 && ps.ecn_marks > 0 && ps.packets_sent > 0,
            "{parallelism} on {}: divergence needs drops and marks: {ps:?}",
            platform.name()
        );
        assert!(
            ps.queue_depth_hist.iter().sum::<u64>() > 0,
            "switch queues were never observed: {ps:?}"
        );
    }
}

/// On an *uncongested* topology (every flow on its own NVLink) the two
/// tiers must agree closely: same total to within a small relative
/// bound, because without queueing the packet dynamics reduce to
/// serialization + propagation — exactly the flow model's arithmetic.
#[test]
fn tiers_converge_on_uncongested_topology() {
    let trace = Tracer::new(GpuModel::A100).trace(&ModelId::ResNet18.build(8));
    let platform = Platform::p2(2);
    let run = |fidelity| {
        SimBuilder::new(&trace, &platform)
            .parallelism(Parallelism::DataParallel { overlap: true })
            .fidelity(fidelity)
            .run()
            .total_time_s()
    };
    let flow = run(Fidelity::TrioSim);
    let packet = run(Fidelity::Packet);
    let ratio = packet / flow;
    assert!(
        (0.99..=1.02).contains(&ratio),
        "uncongested tiers must agree: flow {flow} vs packet {packet} (ratio {ratio})"
    );
}

/// Packet runs are deterministic: byte-identical canonical reports
/// across two invocations. The packet tier is not iteration-invariant,
/// so steady-state replay never engages on it.
#[test]
fn packet_run_is_byte_identical_across_invocations() {
    let trace = Tracer::new(GpuModel::A100).trace(&ModelId::ResNet18.build(8));
    let platform = congested_platform();
    let run = || {
        let r = SimBuilder::new(&trace, &platform)
            .parallelism(Parallelism::DataParallel { overlap: true })
            .fidelity(Fidelity::Packet)
            .iterations(3)
            .run();
        assert_eq!(
            r.replay(),
            Replay::Serial(SerialReason::NetworkNotInvariant)
        );
        serde_json::to_string(&r.to_canonical_json()).expect("canonical JSON is finite")
    };
    assert_eq!(run(), run(), "rerun diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The flow==packet convergence oracle. On a 2-node single-link
    /// topology with no competing traffic, the packet tier's delivery
    /// time must equal the flow tier's (`latency + bytes/bandwidth`)
    /// within one MTU serialization delay — the only slack packetization
    /// is allowed to introduce. Ranges keep the bandwidth-delay product
    /// under the initial congestion window, which is precisely the
    /// uncongested regime the bound documents.
    #[test]
    fn packet_delivery_matches_flow_analytic_when_uncongested(
        bytes in 1u64..32_000_000,
        bw_gbps in 1u64..50,
        lat_ns in 1u64..5_000,
    ) {
        let bandwidth = bw_gbps as f64 * 1e9;
        let latency = lat_ns as f64 * 1e-9;
        let mut topo = Topology::new(2);
        topo.add_duplex(NodeId(0), NodeId(1), bandwidth, latency);

        let at_of = |cmds: &[NetCommand]| match cmds.last().expect("one schedule") {
            NetCommand::Schedule { at, .. } => *at,
            NetCommand::Cancel { .. } => panic!("expected a schedule"),
        };
        let mut flow_net = FlowNetwork::new(topo.clone());
        let (_, cmds) = flow_net.send(VirtualTime::ZERO, NodeId(0), NodeId(1), bytes);
        let flow_s = at_of(&cmds).as_seconds();

        let mut pkt_net = PacketNetwork::new(topo);
        let (_, cmds) = pkt_net.send(VirtualTime::ZERO, NodeId(0), NodeId(1), bytes);
        let pkt_s = at_of(&cmds).as_seconds();

        let bound = pkt_net.config().mtu_bytes as f64 / bandwidth;
        prop_assert!(
            (pkt_s - flow_s).abs() <= bound + 1e-12,
            "packet {pkt_s} vs flow {flow_s}: off by more than one MTU serialization ({bound})"
        );
    }
}
