//! History independence of warm runs: a thread keeps the large buffers
//! of its last run for its next one (DESIGN.md §5, "Warm runs"), so a
//! run must not depend on the runs before it on its thread. One thread
//! runs every scenario below in order, through completed runs, errors,
//! a budget trip and a panic, and each result must equal the same
//! scenario run alone on a freshly spawned thread, whose spare is empty.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};

use triosim::{
    FaultPlan, Fidelity, GpuDropout, Parallelism, Platform, SimBuilder, SimError, SimReport,
};
use triosim_des::{RunBudget, TimeSpan, VirtualTime};
use triosim_modelzoo::ModelId;
use triosim_network::{FlowId, FlowNetwork, NetCommand, NetworkModel, NodeId};
use triosim_obs::{JsonlSink, RunRecorder};
use triosim_trace::{GpuModel, Trace, Tracer};

const DDP: Parallelism = Parallelism::DataParallel { overlap: true };

/// ResNet-18 at batch 8, traced once for every thread.
fn resnet18() -> &'static Trace {
    static TRACE: OnceLock<Trace> = OnceLock::new();
    TRACE.get_or_init(|| Tracer::new(GpuModel::A100).trace(&ModelId::ResNet18.build(8)))
}

/// ResNet-50 at batch 128, the trace of perfbench's `ring64`.
fn resnet50() -> &'static Trace {
    static TRACE: OnceLock<Trace> = OnceLock::new();
    TRACE.get_or_init(|| Tracer::new(GpuModel::A100).trace(&ModelId::ResNet50.build(128)))
}

fn p2(gpus: usize) -> Platform {
    Platform::p2(gpus)
}

/// ResNet-18 b8 DDP on `platform`, at a global batch of 8 per GPU.
fn rn18<'a>(platform: &'a Platform) -> SimBuilder<'a> {
    let batch = 8 * platform.gpu_count() as u64;
    SimBuilder::new(resnet18(), platform)
        .parallelism(DDP)
        .global_batch(batch)
}

fn canonical(run: Result<SimReport, SimError>) -> String {
    match run {
        Ok(report) => report.to_canonical_string(),
        Err(e) => format!("error: {e}"),
    }
}

/// A snapshot path no other thread or process uses.
fn temp_path(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "triosim-warm-runs-{tag}-{}-{n}.ckpt",
        std::process::id()
    ))
}

/// A JSONL sink's bytes, shared with the test.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("unpoisoned").extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A flow network that panics on its `at`-th delivery.
#[derive(Debug)]
struct PanicsOnDeliver {
    inner: FlowNetwork,
    delivered: usize,
    at: usize,
}

impl NetworkModel for PanicsOnDeliver {
    fn send(
        &mut self,
        now: VirtualTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
    ) -> (FlowId, Vec<NetCommand>) {
        self.inner.send(now, src, dst, bytes)
    }

    fn deliver(&mut self, flow: FlowId, now: VirtualTime) -> Vec<NetCommand> {
        self.delivered += 1;
        assert!(self.delivered < self.at, "delivery {} panics", self.at);
        self.inner.deliver(flow, now)
    }

    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }
}

/// The first scenario, and the last: its canonical report and its
/// Chrome trace.
fn small_ddp() -> Vec<String> {
    let p = p2(2);
    let report = rn18(&p).try_run().expect("the run completes");
    let chrome = report.to_chrome_trace().expect("the trace serializes");
    vec![report.to_canonical_string(), chrome]
}

/// `ring64`'s scenario: ResNet-50 b128 DDP on `p2:64`, one iteration.
fn ring64() -> Vec<String> {
    let p = p2(64);
    let run = SimBuilder::new(resnet50(), &p)
        .parallelism(DDP)
        .global_batch(128 * 64)
        .try_run();
    vec![canonical(run)]
}

fn packet() -> Vec<String> {
    let p: Platform = "fat:A100:8".parse().expect("a valid platform spec");
    vec![canonical(rn18(&p).fidelity(Fidelity::Packet).try_run())]
}

fn reference() -> Vec<String> {
    let p = p2(4);
    vec![canonical(rn18(&p).fidelity(Fidelity::Reference).try_run())]
}

fn gpu_lost() -> Vec<String> {
    let p = p2(2);
    let plan = FaultPlan {
        gpu_dropouts: vec![GpuDropout { gpu: 1, at_s: 1e-3 }],
        ..FaultPlan::default()
    };
    let run = rn18(&p).faults(plan).try_run();
    assert!(matches!(run, Err(SimError::GpuLost { gpu: 1, .. })));
    vec![canonical(run)]
}

fn budget_tripped() -> Vec<String> {
    let p = p2(2);
    let run = rn18(&p)
        .budget(RunBudget::unlimited().with_max_events(10))
        .try_run();
    assert!(matches!(run, Err(SimError::BudgetExceeded { .. })));
    vec![canonical(run)]
}

fn network_panics() -> Vec<String> {
    let p = p2(2);
    let net = PanicsOnDeliver {
        inner: FlowNetwork::new(p.topology().clone()),
        delivered: 0,
        at: 5,
    };
    let run = catch_unwind(AssertUnwindSafe(|| {
        rn18(&p).network(Box::new(net)).try_run()
    }));
    let panic = run.expect_err("the fifth delivery panics");
    let message = panic
        .downcast_ref::<String>()
        .expect("the panic carries its message");
    vec![message.clone()]
}

fn observed() -> Vec<String> {
    let p = p2(2);
    let buf = SharedBuf::default();
    let mut recorder = RunRecorder::new();
    recorder.push(Box::new(JsonlSink::new(buf.clone())));
    let run = rn18(&p)
        .iterations(2)
        .recorder(Box::new(recorder))
        .sample_period(TimeSpan::from_micros(500.0))
        .try_run();
    let jsonl = String::from_utf8(buf.0.lock().expect("unpoisoned").clone()).expect("UTF-8");
    assert!(!jsonl.is_empty());
    vec![canonical(run), jsonl]
}

/// A 3-iteration run that snapshots every second iteration, then the
/// same run restored from its snapshot after iteration 2.
fn checkpointed() -> Vec<String> {
    let p = p2(2);
    let path = temp_path("ckpt");
    let whole = canonical(rn18(&p).iterations(3).checkpoint(&path, 2).try_run());
    let restored = canonical(rn18(&p).iterations(3).restore(&path).try_run());
    std::fs::remove_file(&path).ok();
    assert_eq!(whole, restored, "the restored run resumes byte for byte");
    vec![whole, restored]
}

/// A scenario: its name, and a run that returns the outputs to compare.
type Scenario = (&'static str, fn() -> Vec<String>);

/// Every scenario, in the order the warm thread runs them.
const SCENARIOS: [Scenario; 10] = [
    ("resnet18 b8 DDP on p2:2", small_ddp),
    ("ring64", ring64),
    ("packet tier on fat:A100:8", packet),
    ("reference fidelity", reference),
    ("GPU lost", gpu_lost),
    ("max_events 10", budget_tripped),
    ("network panics on its 5th delivery", network_panics),
    ("observed, JSONL", observed),
    ("checkpointed and restored", checkpointed),
    ("resnet18 b8 DDP on p2:2, again", small_ddp),
];

#[test]
fn a_run_on_a_warm_thread_equals_the_run_alone() {
    // Every thread has a spare of its own, so the fresh threads may run
    // beside the warm one.
    let (warm, alone) = std::thread::scope(|s| {
        let warm = s.spawn(|| SCENARIOS.map(|(_, run)| run()));
        let alone = SCENARIOS.map(|(_, run)| s.spawn(run));
        (
            warm.join().expect("the warm thread completes"),
            alone.map(|h| h.join().expect("a fresh thread completes")),
        )
    });
    for (((name, _), got), alone) in SCENARIOS.iter().zip(&warm).zip(&alone) {
        assert_eq!(got.len(), alone.len(), "{name}");
        for (i, (got, alone)) in got.iter().zip(alone).enumerate() {
            // Not `assert_eq!`: a report or trace can run to megabytes.
            assert!(
                got == alone,
                "{name}: output {i} differs after the runs before it ({} vs {} bytes)",
                got.len(),
                alone.len()
            );
        }
    }
}
