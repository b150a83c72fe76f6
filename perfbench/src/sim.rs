//! The simulation layers: a workload's inputs as [`Case`]s, their set-up,
//! the plain op, and the traced op that calls each layer through its own
//! public entry point and times it from here.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::str::FromStr;
use std::time::Instant;

use serde::Value;
use triosim::{
    execute_budgeted_profiled, ComputeModel, FaultPlan, Fidelity, Observability, Parallelism,
    Platform, SelfProfiler, SimBuilder, SimReport,
};
use triosim_des::RunBudget;
use triosim_modelzoo::ModelId;
use triosim_network::{FlowNetwork, NetworkModel, PacketNetwork};
use triosim_perfmodel::LisModel;
use triosim_trace::{GpuModel, Trace, Tracer};

use crate::alloc;
use crate::metrics::{Sample, Spans};
use crate::stats::self_time;
use crate::timed::TimedNetwork;

/// Every workload trains with overlapped DDP (the segmented ring).
const PARALLELISM: &str = "ddp";

/// One simulation configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Case {
    /// Names the case's output; the digest key in `expected.json`.
    pub key: String,
    pub model: ModelId,
    pub trace_batch: u64,
    pub gpu: GpuModel,
    pub platform: &'static str,
    pub global_batch: u64,
    pub fidelity: Fidelity,
    pub iterations: usize,
}

fn fidelity_name(f: Fidelity) -> &'static str {
    match f {
        Fidelity::TrioSim => "triosim",
        Fidelity::Reference => "reference",
        Fidelity::Packet => "packet",
    }
}

impl Case {
    /// This case as one entry of a sweep spec's `scenarios` list.
    pub fn scenario(&self) -> Value {
        let s = |v: &str| Value::Str(v.to_string());
        Value::Object(vec![
            ("label".into(), s(&self.key)),
            ("model".into(), s(&self.model.to_string())),
            ("trace_batch".into(), Value::UInt(self.trace_batch)),
            ("gpu".into(), s(&self.gpu.to_string())),
            ("platform".into(), s(self.platform)),
            ("parallelism".into(), s(PARALLELISM)),
            ("global_batch".into(), Value::UInt(self.global_batch)),
            ("fidelity".into(), s(fidelity_name(self.fidelity))),
            ("iterations".into(), Value::UInt(self.iterations as u64)),
        ])
    }
}

/// A case after set-up: its trace built and its strings parsed.
#[derive(Debug)]
pub struct Prepared {
    pub case: Case,
    pub trace: Trace,
    platform: Platform,
    parallelism: Parallelism,
}

/// One cold set-up: parses every case's platform and parallelism and
/// builds its single-GPU trace. Returns the prepared cases and the
/// seconds spent building traces.
pub fn prepare(cases: &[Case]) -> Result<(Vec<Prepared>, f64), String> {
    let mut trace_s = 0.0;
    let mut out = Vec::with_capacity(cases.len());
    for case in cases {
        let platform = Platform::from_str(case.platform)?;
        let parallelism = Parallelism::from_str(PARALLELISM)?;
        let t = Instant::now();
        let trace = Tracer::new(case.gpu).trace(&case.model.build(case.trace_batch));
        trace_s += t.elapsed().as_secs_f64();
        out.push(Prepared {
            case: case.clone(),
            trace,
            platform,
            parallelism,
        });
    }
    Ok((out, trace_s))
}

fn builder(p: &Prepared) -> SimBuilder<'_> {
    SimBuilder::new(&p.trace, &p.platform)
        .parallelism(p.parallelism)
        .global_batch(p.case.global_batch)
        .fidelity(p.case.fidelity)
        .iterations(p.case.iterations)
}

/// The FNV-1a digest of a canonical string as 16 hex digits: the
/// workspace's content fingerprint, which the server also names jobs by.
pub use triosim_server::job_id as digest;

/// What an op hands back for checking. The digest is taken after the
/// clock stops, so hashing is not charged to the op.
#[derive(Debug)]
pub struct Sim {
    pub canonical: String,
    pub events: u64,
}

impl Sim {
    fn of(report: &SimReport, canonical: String) -> Self {
        Sim {
            canonical,
            events: report.queue_stats().delivered(),
        }
    }
}

/// Runs `f`, turning a panic into an error like any other failed op.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        Err(p
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .map_or_else(|| "panic".to_string(), |m| format!("panic: {m}")))
    })
}

/// The plain op: one simulation through the public builder, ending in the
/// canonical report a user would write out.
pub fn simulate(p: &Prepared) -> Result<Sim, String> {
    let report = builder(p).try_run().map_err(|e| e.to_string())?;
    let canonical = report.to_canonical_string();
    Ok(Sim::of(&report, canonical))
}

/// The plain op with a snapshot every 500 iterations. Adds its seconds,
/// the seconds of its canonical report alone, and the size of its last
/// snapshot (0 when the run is too short to take one) to `s`.
pub fn simulate_checkpointed(p: &Prepared, path: &Path, s: &mut Sample) -> Result<Sim, String> {
    let t0 = Instant::now();
    let report = builder(p)
        .checkpoint(path, 500)
        .try_run()
        .map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    let canonical = report.to_canonical_string();
    let t2 = Instant::now();
    s.add("checkpoint.run_s", t2.duration_since(t0).as_secs_f64());
    s.add(
        "checkpoint.canonical_s",
        t2.duration_since(t1).as_secs_f64(),
    );
    let bytes = std::fs::metadata(path).map_or(0, |m| m.len());
    std::fs::remove_file(path).ok();
    s.add("checkpoint.snapshot_bytes", bytes as f64);
    Ok(Sim::of(&report, canonical))
}

/// The traced op: the same simulation as [`simulate`], with each layer
/// called through its own public entry point and timed here, and the
/// network wrapped in a [`TimedNetwork`]. Adds the layer numbers to `s`,
/// plus `sim.op_s` (the op's host seconds) and `sim.op_self_s` (its time
/// outside every layer), which feed `bench.coverage_frac`.
pub fn traced(p: &Prepared, s: &mut Sample, spans: &mut Spans) -> Result<Sim, String> {
    let secs = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64();
    let gpu = p.case.gpu;
    let t0 = Instant::now();
    let mut calls = 0u64;
    let compute =
        ComputeModel::resolve_with(p.case.fidelity, gpu, &p.platform, p.parallelism, &mut |g| {
            calls += 1;
            LisModel::calibrated(g)
        });
    let t1 = Instant::now();
    alloc::counting(true);
    let (graph, graph_allocs, _) =
        alloc::measure(|| builder(p).compute_model(compute).build_graph());
    let t2 = Instant::now();
    let topo = p.platform.topology().clone();
    let inner: Box<dyn NetworkModel> = match p.case.fidelity {
        Fidelity::Packet => Box::new(PacketNetwork::new(topo)),
        _ => Box::new(FlowNetwork::new(topo)),
    };
    let mut net = TimedNetwork::new(inner);
    let t3 = Instant::now();
    let mut prof = SelfProfiler::new();
    let (run, exec_allocs, exec_bytes) = alloc::measure(|| {
        execute_budgeted_profiled(
            &graph,
            &mut net,
            p.case.iterations,
            Observability::off(),
            &FaultPlan::default(),
            RunBudget::unlimited(),
            Some(&mut prof),
        )
    });
    let t4 = Instant::now();
    let report = match run {
        Ok(r) => r,
        Err(e) => {
            alloc::counting(false);
            return Err(e.to_string());
        }
    };
    let (canonical, report_allocs, _) = alloc::measure(|| report.to_canonical_string());
    alloc::counting(false);
    let t5 = Instant::now();
    // Benchmark bookkeeping, outside every layer: read what the checks and
    // counters need, then free the run (teardown counts as epilogue).
    let tally = net.tally();
    let engine_s = prof.snapshot().total(&["engine_loop"]).unwrap_or(0.0);
    let tasks = graph.len() as f64;
    let records = report.timeline().len() as f64;
    let queue = *report.queue_stats();
    let netobs = *report.network_stats();
    let packets = report.packet_stats().copied();
    let sim = Sim::of(&report, canonical);
    let t6 = Instant::now();
    drop((report, graph, net));
    let t7 = Instant::now();

    s.add("perfmodel.calibrate_s", secs(t0, t1));
    s.add("perfmodel.calls", calls as f64);
    s.add("extrapolate.build_s", secs(t1, t2));
    s.add("extrapolate.tasks", tasks);
    s.add("extrapolate.allocs", graph_allocs as f64);
    s.add("network.build_s", secs(t2, t3));
    s.add("network.self_s", tally.self_s);
    s.add("network.send_calls", tally.sends as f64);
    s.add("network.deliver_calls", tally.delivers as f64);
    s.add("network.commands", tally.commands as f64);
    s.add("network.reallocations", netobs.reallocations as f64);
    s.add("network.reschedules", netobs.reschedules as f64);
    if let Some(ps) = packets {
        s.add("packet.packets_sent", ps.packets_sent as f64);
        s.add("packet.drops", ps.drops as f64);
        s.add("packet.ecn_marks", ps.ecn_marks as f64);
        s.add("packet.retransmits", ps.retransmits as f64);
    }
    s.add("des.self_s", engine_s - tally.self_s);
    s.add("des.events_scheduled", queue.scheduled() as f64);
    s.add("des.events_delivered", queue.delivered() as f64);
    s.add("des.events_cancelled", queue.cancelled() as f64);
    s.max("des.max_pending", queue.max_pending() as f64);
    s.add(
        "executor.epilogue_s",
        secs(t3, t4) - engine_s + secs(t6, t7),
    );
    s.add("executor.timeline_records", records);
    s.add("executor.allocs", exec_allocs as f64);
    s.add("executor.alloc_bytes", exec_bytes as f64);
    s.add("report.canonical_s", secs(t4, t5));
    s.add("report.canonical_bytes", sim.canonical.len() as f64);
    s.add("report.allocs", report_allocs as f64);
    let at = |t: Instant| secs(t0, t);
    let layers = [
        (0.0, at(t1)),
        (at(t1), at(t2)),
        (at(t2), at(t3)),
        (at(t3), at(t4)),
        (at(t4), at(t5)),
        (at(t6), at(t7)),
    ];
    s.add("sim.op_self_s", self_time((0.0, at(t7)), &layers));
    s.add("sim.op_s", at(t7));
    spans.add(&p.case.key, t0, t7, vec![]);
    spans.add("perfmodel.calibrate", t0, t1, vec![("calls", calls as f64)]);
    spans.add("extrapolate.build", t1, t2, vec![("tasks", tasks)]);
    spans.add("network.build", t2, t3, vec![]);
    spans.add(
        "executor.execute",
        t3,
        t4,
        vec![
            ("engine_loop_s", engine_s),
            ("network_self_s", tally.self_s),
        ],
    );
    spans.add("report.canonical", t4, t5, vec![]);
    spans.add("executor.teardown", t6, t7, vec![]);
    Ok(sim)
}

/// Mean |TrioSim − Reference| / Reference in percent over the cases,
/// summed in case-key order so the result does not depend on the order
/// a seed shuffled them into.
pub fn error_pct(prepared: &[Prepared]) -> Result<f64, String> {
    let mut sorted: Vec<&Prepared> = prepared.iter().collect();
    sorted.sort_by(|a, b| a.case.key.cmp(&b.case.key));
    let mut sum = 0.0;
    for p in &sorted {
        let total = |fidelity| {
            guarded(|| {
                builder(p)
                    .fidelity(fidelity)
                    .try_run()
                    .map(|r| r.total_time_s())
                    .map_err(|e| e.to_string())
            })
        };
        let (pred, truth) = (total(p.case.fidelity)?, total(Fidelity::Reference)?);
        sum += 100.0 * (pred - truth).abs() / truth;
    }
    Ok(sum / sorted.len() as f64)
}
