//! Steady-state replay identity properties. A run that simulates two
//! iterations, verifies the second as the first shifted in time, and
//! synthesizes the rest must be byte-identical to the serial oracle — the
//! same run on a network that forwards every call but denies iteration
//! invariance, so every iteration is simulated — in canonical bytes, in
//! the full timeline, and in the snapshots it writes. A network that
//! claims invariance but changes after iteration 0 must be caught by the
//! verifier, and budget trips must not move.

mod common;

use std::path::PathBuf;
use std::process::Command;

use common::{serial_flow, Serial};
use proptest::prelude::*;
use triosim::{
    FaultPlan, GpuSlowdown, Jitter, Parallelism, Platform, Replay, SerialReason, SimBuilder,
    SimReport,
};
use triosim_des::{RunBudget, VirtualTime};
use triosim_modelzoo::ModelId;
use triosim_network::{
    FlowId, FlowNetwork, LinkFault, LinkObservation, NetCommand, NetObservation, NetStatsSnapshot,
    NetworkModel, NodeId,
};
use triosim_trace::{GpuModel, Trace, Tracer};

fn trace(model: ModelId, batch: u64) -> Trace {
    Tracer::new(GpuModel::A100).trace(&model.build(batch))
}

fn parallelism(index: usize) -> Parallelism {
    match index % 4 {
        0 => Parallelism::DataParallel { overlap: false },
        1 => Parallelism::DataParallel { overlap: true },
        2 => Parallelism::TensorParallel,
        _ => Parallelism::Pipeline { chunks: 2 },
    }
}

fn model(index: usize) -> ModelId {
    [ModelId::Vgg11, ModelId::ResNet18][index % 2]
}

fn canonical(r: &SimReport) -> String {
    serde_json::to_string(&r.to_canonical_json()).expect("canonical JSON is finite")
}

/// `b` on the serial oracle network.
fn oracle<'a>(b: SimBuilder<'a>, p: &Platform) -> SimBuilder<'a> {
    b.network(serial_flow(p))
}

fn temp_path(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "triosim-replay-test-{tag}-{}-{n}.json",
        std::process::id()
    ))
}

/// The tentpole contract, over the whole matrix: every parallelism,
/// both models, 2 and 4 GPUs, 1 to 8 iterations — the same bytes and the
/// same timeline as the serial oracle, with replay engaged whenever the
/// run is long enough.
#[test]
fn replayed_reports_are_byte_identical_to_serial() {
    for (model_ix, batch) in [(0, 8), (1, 4)] {
        let t = trace(model(model_ix), batch);
        for gpus in [2, 4] {
            let p = Platform::p2(gpus);
            for par_ix in 0..4 {
                for iterations in 1..=8 {
                    let b = || {
                        SimBuilder::new(&t, &p)
                            .parallelism(parallelism(par_ix))
                            .iterations(iterations)
                    };
                    let case = format!(
                        "model={:?} par={:?} gpus={gpus} iters={iterations}",
                        model(model_ix),
                        parallelism(par_ix)
                    );
                    let replayed = b().run();
                    let serial = oracle(b(), &p).run();
                    let expected = if iterations >= 3 {
                        Replay::Synthesized(iterations - 2)
                    } else {
                        Replay::Serial(SerialReason::FewIterations)
                    };
                    assert_eq!(replayed.replay(), expected, "{case}");
                    assert_eq!(canonical(&replayed), canonical(&serial), "{case}");
                    assert!(replayed.timeline() == serial.timeline(), "{case}");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Fault plans keep every iteration simulated: the faulted run
    /// reports why, and matches the oracle.
    #[test]
    fn faulted_runs_simulate_every_iteration(
        par_ix in 0usize..4,
        seed in 0u64..1000,
        iterations in 3usize..5,
    ) {
        let t = trace(ModelId::Vgg11, 4);
        let p = Platform::p2(2);
        let plan = FaultPlan {
            seed,
            gpu_slowdowns: vec![GpuSlowdown { gpu: 0, factor: 1.25 }],
            jitter: Some(Jitter { amplitude: 0.03 }),
            ..FaultPlan::default()
        };
        let b = || {
            SimBuilder::new(&t, &p)
                .parallelism(parallelism(par_ix))
                .iterations(iterations)
                .faults(plan.clone())
        };
        let faulted = b().run();
        prop_assert_eq!(faulted.replay(), Replay::Serial(SerialReason::Faults));
        prop_assert_eq!(canonical(&faulted), canonical(&oracle(b(), &p).run()));
    }

    /// Event budgets trip on the same event with or without replay
    /// available — a deterministic axis keeps every iteration simulated
    /// — and a budget that never trips changes no byte of the replayed
    /// run.
    #[test]
    fn budget_trips_are_unchanged_by_replay(
        limit_ix in 0usize..5,
        iterations in 3usize..6,
    ) {
        let limit = [50u64, 500, 5_000, 50_000, 500_000][limit_ix];
        let t = trace(ModelId::Vgg11, 4);
        let p = Platform::p2(2);
        let b = || {
            SimBuilder::new(&t, &p)
                .iterations(iterations)
                .budget(RunBudget::unlimited().with_max_events(limit))
        };
        let run = |b: SimBuilder<'_>| b.try_run().map(|r| canonical(&r)).map_err(|e| e.to_string());
        let budgeted = run(b());
        prop_assert_eq!(&budgeted, &run(oracle(b(), &p)), "limit={}", limit);
        if let Ok(bytes) = &budgeted {
            let replayed = SimBuilder::new(&t, &p).iterations(iterations).run();
            prop_assert_eq!(bytes, &canonical(&replayed));
        }
    }
}

/// Simulated-time budgets trip identically too.
#[test]
fn sim_time_budget_trips_identically_with_and_without_replay() {
    let t = trace(ModelId::Vgg11, 4);
    let p = Platform::p2(2);
    let b = |us: u64| {
        SimBuilder::new(&t, &p)
            .iterations(4)
            .budget(RunBudget::unlimited().with_max_sim_time_us(us))
    };
    let run = |b: SimBuilder<'_>| {
        b.try_run()
            .map(|r| canonical(&r))
            .map_err(|e| e.to_string())
    };
    // Trip points from "inside iteration 0" to "inside the last
    // iteration" to "never".
    for us in [1, 1_000, 30_000, 1_000_000_000] {
        assert_eq!(run(b(us)), run(oracle(b(us), &p)), "us={us}");
    }
}

/// Claims iteration invariance, but halves the GPU 1 <-> GPU 2 link as
/// soon as traffic starts at or after `after` (the end of iteration 0),
/// so iteration 1 does not repeat iteration 0.
#[derive(Debug)]
struct Lying {
    net: FlowNetwork,
    after: VirtualTime,
    degraded: bool,
}

impl NetworkModel for Lying {
    fn send(
        &mut self,
        now: VirtualTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
    ) -> (FlowId, Vec<NetCommand>) {
        if !self.degraded && now >= self.after {
            self.degraded = true;
            let moved = self
                .net
                .apply_link_fault(
                    now,
                    NodeId(1),
                    NodeId(2),
                    LinkFault::Degrade { factor: 0.5 },
                )
                .expect("the GPU link exists");
            assert!(moved.is_empty(), "degraded between iterations");
        }
        self.net.send(now, src, dst, bytes)
    }

    fn deliver(&mut self, flow: FlowId, now: VirtualTime) -> Vec<NetCommand> {
        self.net.deliver(flow, now)
    }

    fn in_flight(&self) -> usize {
        self.net.in_flight()
    }

    fn observe(&self) -> NetObservation {
        self.net.observe()
    }

    fn observe_links(&self) -> Vec<LinkObservation> {
        self.net.observe_links()
    }

    fn iteration_invariant(&self) -> bool {
        true
    }

    fn stats_snapshot(&self) -> Option<NetStatsSnapshot> {
        self.net.stats_snapshot()
    }

    fn absorb_stats(&mut self, snapshot: &NetStatsSnapshot) {
        self.net.absorb_stats(snapshot);
    }
}

#[test]
fn lying_network_is_rejected_by_the_verifier() {
    let t = trace(ModelId::Vgg11, 8);
    let p = Platform::p2(2);
    let b = || {
        SimBuilder::new(&t, &p)
            .parallelism(Parallelism::DataParallel { overlap: false })
            .iterations(4)
    };
    let honest = b().run();
    let one = b().iterations(1).run();
    let lying = || Lying {
        net: FlowNetwork::new(p.topology().clone()),
        after: VirtualTime::ZERO + one.total_time(),
        degraded: false,
    };
    let caught = b().network(Box::new(lying())).run();
    let serial = b().network(Box::new(Serial(lying()))).run();
    assert_eq!(caught.replay(), Replay::Serial(SerialReason::Rejected));
    assert_eq!(canonical(&caught), canonical(&serial));
    assert_ne!(
        canonical(&caught),
        canonical(&honest),
        "the degraded link must change the run"
    );
}

/// Snapshots written at synthesized boundaries are byte-identical to
/// the oracle's, and restoring from any boundary — which simulates two
/// iterations again, verifies, and synthesizes — reproduces the
/// uninterrupted run.
#[test]
fn snapshots_at_synthesized_boundaries_match_the_oracle() {
    let t = trace(ModelId::ResNet18, 8);
    let p = Platform::p2(2);
    let n = 7;
    let b = || SimBuilder::new(&t, &p).iterations(n);
    let uninterrupted = canonical(&oracle(b(), &p).run());
    for k in 1..=n {
        // A k-iteration run with cadence k leaves the snapshot a longer
        // run would have written at boundary k.
        let snapshot = |oracle_net: bool| {
            let path = temp_path("boundary");
            let mut prefix = SimBuilder::new(&t, &p).iterations(k).checkpoint(&path, k);
            if oracle_net {
                prefix = oracle(prefix, &p);
            }
            prefix.try_run().expect("prefix run completes");
            path
        };
        let (ours, theirs) = (snapshot(false), snapshot(true));
        assert_eq!(
            std::fs::read(&ours).expect("snapshot written"),
            std::fs::read(&theirs).expect("snapshot written"),
            "snapshot at boundary {k} differs from the oracle's"
        );
        let resumed = b().restore(&ours).try_run().expect("restore succeeds");
        let expected = if n - k >= 3 {
            Replay::Synthesized(n - k - 2)
        } else {
            Replay::Serial(SerialReason::FewIterations)
        };
        assert_eq!(resumed.replay(), expected, "boundary {k}");
        assert_eq!(
            canonical(&resumed),
            uninterrupted,
            "restore from boundary {k}"
        );
        std::fs::remove_file(&ours).ok();
        std::fs::remove_file(&theirs).ok();
    }
}

/// `simulate` prints the decision, and `--metrics` (a recorder, so the
/// serial path) writes the same `--report` bytes but for the queue
/// counters, which also count the recorder's sampling ticks.
#[test]
fn simulate_prints_the_replay_decision() {
    let bin = env!("CARGO_BIN_EXE_triosim-cli");
    let dir = temp_path("cli").with_extension("d");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("trace.json");
    let out = Command::new(bin)
        .args(["trace", "--model", "vgg11", "--batch", "8", "--gpu", "A100"])
        .arg("-o")
        .arg(&trace)
        .output()
        .expect("trace subcommand runs");
    assert!(out.status.success(), "trace failed: {out:?}");
    let simulate = |report: &PathBuf, extra: &[&str]| {
        let out = Command::new(bin)
            .args(["simulate", "--platform", "p2:2", "--iterations", "5"])
            .arg("--trace")
            .arg(&trace)
            .arg("--report")
            .arg(report)
            .args(extra)
            .output()
            .expect("simulate subcommand runs");
        assert!(out.status.success(), "simulate failed: {out:?}");
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let (plain, observed) = (dir.join("plain.json"), dir.join("observed.json"));
    let metrics = dir.join("metrics.prom");
    let stdout = simulate(&plain, &[]);
    assert!(
        stdout.contains("replay        : 3 iterations synthesized"),
        "{stdout}"
    );
    let stdout = simulate(&observed, &["--metrics", metrics.to_str().expect("utf-8")]);
    assert!(
        stdout.contains("replay        : every iteration simulated (a recorder"),
        "{stdout}"
    );
    let without_queue = |path: &PathBuf| {
        let report = std::fs::read_to_string(path).expect("report written");
        let start = report.find(r#""queue":{"#).expect("queue counters");
        let end = start + report[start..].find('}').expect("flat object") + 1;
        format!("{}{}", &report[..start], &report[end..])
    };
    assert_eq!(without_queue(&plain), without_queue(&observed));
    std::fs::remove_dir_all(&dir).ok();
}
