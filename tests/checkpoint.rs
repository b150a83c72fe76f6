//! Checkpoint/restore identity properties: a run resumed from any
//! boundary snapshot must produce canonical bytes identical to the
//! uninterrupted run — fault-free, faulted, and budgeted alike — and
//! every malformed or mismatched snapshot must surface as a typed
//! [`CheckpointError`], never undefined behavior.
//!
//! The "kill at boundary k" scenario is modeled exactly: a run of `k`
//! iterations with cadence `k` leaves behind the same snapshot a longer
//! run killed right after boundary `k` would have left (the snapshot's
//! spec hash deliberately excludes the iteration count), so restoring it
//! into an `n`-iteration run reproduces the interrupted-and-resumed
//! lifecycle byte for byte.

mod common;

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use serde::Deserialize as _;
use triosim::{
    run_sweep, run_sweep_with, CheckpointError, FaultPlan, GpuSlowdown, Jitter, LinkDegradation,
    Parallelism, Platform, Replay, SelfProfiler, SimBuilder, SimError, SweepRunConfig, SweepSpec,
};
use triosim_des::{RunBudget, TimeSpan};
use triosim_modelzoo::ModelId;
use triosim_obs::{JsonlSink, ProgressMonitor, RunRecorder};
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

fn temp_path(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "triosim-ckpt-test-{tag}-{}-{n}.json",
        std::process::id()
    ))
}

/// A fault plan whose timed entries land mid-run: a permanent GPU
/// slowdown, per-op jitter (exercises the seeded RNG position across the
/// restore), and a link degradation that fires partway through.
fn fault_plan(at_s: f64) -> FaultPlan {
    FaultPlan {
        seed: 7,
        gpu_slowdowns: vec![GpuSlowdown {
            gpu: 0,
            factor: 1.25,
        }],
        jitter: Some(Jitter { amplitude: 0.03 }),
        link_degradations: vec![LinkDegradation {
            src: 1,
            dst: 2,
            factor: 0.5,
            at_s,
        }],
        ..FaultPlan::default()
    }
}

#[test]
fn checkpointing_is_invisible_in_the_report() {
    let t = trace(ModelId::ResNet18, 16);
    let p = Platform::p2(2);
    let plain = SimBuilder::new(&t, &p).iterations(4).run();
    let path = temp_path("invisible");
    let checkpointed = SimBuilder::new(&t, &p)
        .iterations(4)
        .checkpoint(&path, 2)
        .try_run()
        .expect("checkpointed run completes");
    assert_eq!(plain.to_canonical_json(), checkpointed.to_canonical_json());
    assert!(path.exists(), "final boundary snapshot is on disk");
    std::fs::remove_file(&path).ok();
}

/// Profiling composes with snapshots, since host time is not part of
/// one: a profiled checkpointed run and a profiled restored run each
/// return the uninterrupted run's canonical bytes, and each profile has
/// its engine loop.
#[test]
fn profiled_checkpoint_and_restore_are_byte_identical() {
    let t = trace(ModelId::ResNet18, 16);
    let p = Platform::p2(2);
    let plain = SimBuilder::new(&t, &p)
        .iterations(4)
        .run()
        .to_canonical_json();
    let has_engine_loop = |prof: &SelfProfiler| prof.snapshot().find(&["engine_loop"]).is_some();
    let path = temp_path("profiled");
    let mut prof = SelfProfiler::new();
    let checkpointed = SimBuilder::new(&t, &p)
        .iterations(4)
        .checkpoint(&path, 2)
        .try_run_profiled(&mut prof)
        .expect("profiled checkpointed run completes");
    assert_eq!(plain, checkpointed.to_canonical_json());
    assert!(has_engine_loop(&prof), "{}", prof.snapshot().render());
    SimBuilder::new(&t, &p)
        .iterations(2)
        .checkpoint(&path, 2)
        .try_run()
        .expect("prefix run completes");
    let mut prof = SelfProfiler::new();
    let restored = SimBuilder::new(&t, &p)
        .iterations(4)
        .restore(&path)
        .try_run_profiled(&mut prof)
        .expect("profiled restore succeeds");
    std::fs::remove_file(&path).ok();
    assert_eq!(plain, restored.to_canonical_json());
    assert!(has_engine_loop(&prof), "{}", prof.snapshot().render());
}

/// A writer that keeps everything written through it, readable after the
/// run consumed the recorder that owns a clone.
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

fn quiet() -> ProgressMonitor {
    ProgressMonitor::with_writer(Box::new(std::io::sink()))
}

/// Observability composes with snapshots: samples are taken between
/// events, never queued, so a recorder or progress monitor changes no
/// byte of a snapshot or of the report. A recorder with `checkpoint` and
/// a progress monitor with `restore` both give the plain run's canonical
/// bytes.
#[test]
fn observability_composes_with_snapshots() {
    let t = trace(ModelId::Vgg11, 8);
    let p = Platform::p2(2);
    let plain = SimBuilder::new(&t, &p)
        .iterations(4)
        .run()
        .to_canonical_json();
    let (bare, observed) = (temp_path("bare"), temp_path("recorded"));
    SimBuilder::new(&t, &p)
        .iterations(4)
        .checkpoint(&bare, 2)
        .try_run()
        .expect("checkpointed run completes");
    let mut recorder = RunRecorder::new();
    recorder.push(Box::new(JsonlSink::new(std::io::sink())));
    let recorded = SimBuilder::new(&t, &p)
        .iterations(4)
        .checkpoint(&observed, 2)
        .recorder(Box::new(recorder))
        .progress(quiet())
        .try_run()
        .expect("recorded checkpointed run completes");
    assert_eq!(plain, recorded.to_canonical_json());
    let snapshot = |path: &PathBuf| std::fs::read(path).expect("snapshot written");
    assert!(
        snapshot(&bare) == snapshot(&observed),
        "observability changed the snapshot"
    );
    SimBuilder::new(&t, &p)
        .iterations(2)
        .checkpoint(&bare, 2)
        .try_run()
        .expect("prefix run completes");
    let progressed = SimBuilder::new(&t, &p)
        .iterations(4)
        .restore(&bare)
        .progress(quiet())
        .try_run()
        .expect("observed restore succeeds");
    std::fs::remove_file(&bare).ok();
    std::fs::remove_file(&observed).ok();
    assert_eq!(plain, progressed.to_canonical_json());
}

/// One sampled gauge of a JSONL recording: its time in femtoseconds, its
/// link label (empty for unlabelled gauges), its value, and the line.
struct Gauge {
    at: u64,
    link: String,
    value: f64,
    line: String,
}

/// The gauges named `names` in a JSONL recording, in recorded order.
fn gauges(jsonl: &str, names: &[&str]) -> Vec<Gauge> {
    jsonl
        .lines()
        .filter_map(|line| {
            let v: serde::Value = serde_json::from_str(line).expect("a JSONL line");
            let text = |key: &str| match v.get(key) {
                Some(serde::Value::Str(s)) => s.clone(),
                _ => String::new(),
            };
            if text("ev") != "gauge" || !names.contains(&text("name").as_str()) {
                return None;
            }
            let field = |key| v.get(key).expect("gauges carry a time and a value");
            Some(Gauge {
                at: u64::from_value(field("t_fs")).expect("femtos"),
                link: match v.get("labels").and_then(|l| l.get("link")) {
                    Some(serde::Value::Str(s)) => s.clone(),
                    _ => String::new(),
                },
                value: f64::from_value(field("value")).expect("a number"),
                line: line.to_string(),
            })
        })
        .collect()
}

/// The sampled gauges of an observed run restored at a boundary equal the
/// uninterrupted observed run's at every sample after the restored run's
/// first, and every sample covers every link. The first differs in its
/// utilization window: the uninterrupted run's opens at its previous
/// sample, the restored run's at the boundary, from the busy time each
/// link had there.
#[test]
fn restored_observed_run_samples_like_the_uninterrupted_one() {
    let t = trace(ModelId::ResNet18, 16);
    let p = Platform::p2(2);
    let (n, k) = (4, 2);
    // The first window after the boundary holds the input copy's delivery.
    let period_us = 500.0;
    let recorded = |b: SimBuilder<'_>, period_us: f64| {
        let buf = SharedBuf::default();
        let mut recorder = RunRecorder::new();
        recorder.push(Box::new(JsonlSink::new(buf.clone())));
        b.recorder(Box::new(recorder))
            .sample_period(TimeSpan::from_micros(period_us))
            .try_run()
            .expect("observed run completes");
        let out = String::from_utf8(buf.0.lock().expect("unpoisoned").clone()).expect("utf-8");
        out
    };
    let sampled = [
        "triosim_queue_depth",
        "triosim_net_flows_in_flight",
        "triosim_link_utilization",
    ];
    let whole = recorded(SimBuilder::new(&t, &p).iterations(n), period_us);
    let uninterrupted = gauges(&whole, &sampled);
    // Every link, as the end-of-run busy-time counters name them.
    let links: std::collections::BTreeSet<String> = whole
        .lines()
        .filter(|l| l.contains(r#""name":"triosim_link_busy_seconds_total""#))
        .map(|l| {
            let v: serde::Value = serde_json::from_str(l).expect("a JSONL line");
            match v.get("labels").and_then(|l| l.get("link")) {
                Some(serde::Value::Str(s)) => s.clone(),
                other => panic!("no link label: {other:?}"),
            }
        })
        .collect();
    assert!(links.len() > 1, "{links:?}");
    let path = temp_path("sampled");
    SimBuilder::new(&t, &p)
        .iterations(k)
        .checkpoint(&path, k)
        .try_run()
        .expect("prefix run completes");
    let restore = || SimBuilder::new(&t, &p).iterations(n).restore(&path);
    let restored = gauges(&recorded(restore(), period_us), &sampled);
    let coarse = gauges(&recorded(restore(), 2.0 * period_us), &sampled);
    std::fs::remove_file(&path).ok();
    let first = restored.first().expect("the restored run samples").at;
    let after = |samples: &[Gauge]| {
        samples
            .iter()
            .filter(|g| g.at > first)
            .map(|g| g.line.clone())
            .collect::<Vec<_>>()
    };
    assert!(after(&restored).len() > 100, "{} samples", restored.len());
    assert_eq!(after(&restored), after(&uninterrupted));
    // Every sample of the restored run gauges every link's utilization.
    let utilization = |samples: &[Gauge], at: u64| {
        samples
            .iter()
            .filter(|g| g.at == at && g.line.contains("triosim_link_utilization"))
            .map(|g| (g.link.clone(), g.value))
            .collect::<std::collections::BTreeMap<_, _>>()
    };
    let mut times: Vec<u64> = restored.iter().map(|g| g.at).collect();
    times.dedup();
    for &at in &times {
        let gauged: Vec<_> = utilization(&restored, at).into_keys().collect();
        assert!(gauged.iter().eq(&links), "at {at} fs: {gauged:?}");
    }
    // The first window opens at the boundary: its busy time and the second
    // window's add up to that of a window twice as long opened there.
    let second = times[1];
    assert_eq!(second - first, (period_us * 1e9) as u64);
    assert_eq!(coarse.first().expect("the coarse run samples").at, second);
    let (u1, u2) = (
        utilization(&restored, first),
        utilization(&restored, second),
    );
    let w = utilization(&coarse, second);
    for link in &links {
        let (u1, u2, w) = (u1[link], u2[link], w[link]);
        assert!(
            (u1 + u2 - 2.0 * w).abs() < 1e-9,
            "{link}: {u1} + {u2} != 2 x {w}"
        );
    }
    assert!(
        links.iter().any(|l| u2[l] < 1.0) && links.iter().any(|l| u1[l] > 0.0),
        "the windows show no partial traffic: {u1:?} {u2:?}"
    );
}

/// Each link's utilization windows add up to its busy time. ResNet-18
/// DDP on `p2:2`, sampled every 200 µs, leaves every link idle after its
/// last sample, so utilization × window, summed over a link's samples,
/// equals its end-of-run `triosim_link_busy_seconds_total` to 1e-9 s, and
/// no window reads above 1. The flow tier accounts busy time at its own
/// events; a window must count the time a link has been draining up to
/// the sample, not wait for the event that ends the drain.
#[test]
fn utilization_windows_sum_to_link_busy_time() {
    let t = trace(ModelId::ResNet18, 16);
    let p = Platform::p2(2);
    let buf = SharedBuf::default();
    let mut recorder = RunRecorder::new();
    recorder.push(Box::new(JsonlSink::new(buf.clone())));
    SimBuilder::new(&t, &p)
        .parallelism(Parallelism::DataParallel { overlap: true })
        .recorder(Box::new(recorder))
        .sample_period(TimeSpan::from_micros(200.0))
        .try_run()
        .expect("observed run completes");
    let out = String::from_utf8(buf.0.lock().expect("unpoisoned").clone()).expect("utf-8");
    let records: Vec<serde::Value> = out
        .lines()
        .map(|l| serde_json::from_str(l).expect("a JSONL line"))
        .collect();
    let field = |v: &serde::Value, key: &str| match v.get(key) {
        Some(serde::Value::Str(s)) => s.clone(),
        _ => String::new(),
    };
    let link = |v: &serde::Value| match v.get("labels").and_then(|l| l.get("link")) {
        Some(serde::Value::Str(s)) => s.clone(),
        other => panic!("no link label: {other:?}"),
    };
    let samples = gauges(&out, &["triosim_link_utilization"]);
    let last = samples.last().expect("the run samples").at;
    let last_flow_end = records
        .iter()
        .filter(|v| field(v, "ev") == "span" && field(v, "track") == "network")
        .map(|v| u64::from_value(v.get("end_fs").expect("spans end")).expect("femtos"))
        .max()
        .expect("the run moves data");
    assert!(last_flow_end <= last, "a flow ends after the last sample");
    let mut credited = std::collections::BTreeMap::<String, f64>::new();
    let (mut opened, mut at) = (0, 0);
    for g in &samples {
        assert!(g.value <= 1.0, "{}", g.line);
        if g.at != at {
            (opened, at) = (at, g.at);
        }
        *credited.entry(g.link.clone()).or_default() += g.value * (at - opened) as f64 * 1e-15;
    }
    let busy: Vec<(String, f64)> = records
        .iter()
        .filter(|v| field(v, "name") == "triosim_link_busy_seconds_total")
        .map(|v| {
            let delta = f64::from_value(v.get("delta").expect("counters carry a delta"));
            (link(v), delta.expect("a number"))
        })
        .collect();
    assert_eq!(busy.len(), credited.len(), "{busy:?}");
    assert!(busy.iter().any(|(_, s)| *s > 0.0), "{busy:?}");
    for (link, busy_s) in &busy {
        let windows_s = credited[link];
        assert!(
            (windows_s - busy_s).abs() < 1e-9,
            "{link}: windows credit {windows_s} s of {busy_s} s busy"
        );
    }
}

/// When `simulate` fails it deletes each sink file it created and left
/// empty, so a run rejected before it simulates leaves nothing behind,
/// while a run that fails midway keeps its flushed partial output. Sinks
/// compose with `--checkpoint` and `--restore`.
#[test]
fn simulate_deletes_the_empty_sinks_of_a_failed_run() {
    let bin = env!("CARGO_BIN_EXE_triosim-cli");
    let dir = temp_path("cli").with_extension("d");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("trace.json");
    let out = std::process::Command::new(bin)
        .args(["trace", "--model", "vgg11", "--batch", "8", "--gpu", "A100"])
        .arg("-o")
        .arg(&trace)
        .output()
        .expect("trace subcommand runs");
    assert!(out.status.success(), "trace failed: {out:?}");
    // Runs `simulate` with `args` and every sink at `<stem>.<sink>`; returns
    // its output and each sink file's length, `None` when it is absent.
    let sinks = ["events", "trace-events", "metrics"];
    let simulate = |stem: &str, args: &[&str]| {
        let out = std::process::Command::new(bin)
            .args(["simulate", "--platform", "p2:2", "--trace"])
            .arg(&trace)
            .args(args)
            .args(
                sinks
                    .iter()
                    .flat_map(|s| [format!("--{s}"), format!("{stem}.{s}")]),
            )
            .current_dir(&dir)
            .output()
            .expect("simulate subcommand runs");
        let written = sinks.map(|s| std::fs::metadata(dir.join(format!("{stem}.{s}"))).ok());
        (out, written.map(|m| m.map(|m| m.len())))
    };
    // Rejected before anything runs: a plan naming GPU 9 on a 2-GPU
    // platform, and a restore from a snapshot that does not exist.
    let plan = r#"{"gpu_slowdowns":[{"gpu":9,"factor":2.0}]}"#;
    std::fs::write(dir.join("gpu9.json"), plan).expect("plan written");
    for (stem, args) in [
        ("plan", ["--faults", "gpu9.json"]),
        ("missing", ["--restore", "missing.ckpt"]),
    ] {
        let (out, written) = simulate(stem, &args);
        assert_eq!(out.status.code(), Some(1), "{stem}: {out:?}");
        assert_eq!(written, [None; 3], "{stem} left sink files");
    }
    // A sink path that existed before the run is never deleted, though it
    // reads as empty: here a symlink to /dev/null.
    #[cfg(unix)]
    {
        let null = dir.join("null.events");
        std::os::unix::fs::symlink("/dev/null", &null).expect("symlink made");
        let (out, written) = simulate("null", &["--faults", "gpu9.json"]);
        assert_eq!(out.status.code(), Some(1), "{out:?}");
        assert_eq!(written, [Some(0), None, None]);
        assert!(
            std::fs::symlink_metadata(&null).is_ok_and(|m| m.file_type().is_symlink()),
            "the symlink was deleted"
        );
    }
    // A sink that cannot be created fails the run before it starts, and
    // the sink created before it is deleted.
    let out = std::process::Command::new(bin)
        .args(["simulate", "--platform", "p2:2", "--trace"])
        .arg(&trace)
        .args(["--events", "first.events", "--metrics", "no/such/dir.prom"])
        .current_dir(&dir)
        .output()
        .expect("simulate subcommand runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(!dir.join("first.events").exists(), "the first sink stayed");
    // A GPU lost 1 ms in fails midway: its partial trace stays.
    let plan = r#"{"gpu_dropouts":[{"gpu":1,"at_s":0.001}]}"#;
    std::fs::write(dir.join("drop.json"), plan).expect("plan written");
    let (out, written) = simulate("drop", &["--faults", "drop.json"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(
        written.iter().all(|w| w.is_some_and(|n| n > 0)),
        "{written:?}"
    );
    // Sinks with snapshots: every sink written, and the snapshot too.
    for (stem, mode, iterations) in [
        ("checkpointed", "--checkpoint", "2"),
        ("restored", "--restore", "3"),
    ] {
        let (out, written) = simulate(stem, &["--iterations", iterations, mode, "run.ckpt"]);
        assert!(out.status.success(), "{mode}: {out:?}");
        assert!(
            written.iter().all(|w| w.is_some_and(|n| n > 0)),
            "{mode}: {written:?}"
        );
        assert!(dir.join("run.ckpt").exists(), "{mode}: no snapshot");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The report's timeline view yields as many records as its `len()`
/// says, on a serial run, a replayed run, and a run restored from a
/// snapshot. A restored run's view holds only the post-restore
/// iterations: the serial run's records from the restore boundary on.
#[test]
fn timeline_view_counts_what_it_yields() {
    let t = trace(ModelId::ResNet18, 16);
    let p = Platform::p2(2);
    let (n, k) = (5, 2);
    let b = || SimBuilder::new(&t, &p).iterations(n);
    let serial = b().network(common::serial_flow(&p)).run();
    let replayed = b().run();
    assert_eq!(replayed.replay(), Replay::Synthesized(n - 2));
    let path = temp_path("view");
    SimBuilder::new(&t, &p)
        .iterations(k)
        .checkpoint(&path, k)
        .try_run()
        .expect("prefix run completes");
    let restored = b().restore(&path).try_run().expect("restore succeeds");
    std::fs::remove_file(&path).ok();
    for report in [&serial, &replayed, &restored] {
        assert_eq!(report.timeline().len(), report.timeline().iter().count());
    }
    assert!(replayed.timeline() == serial.timeline());
    let per_iteration = serial.timeline().len() / n;
    assert_eq!(restored.timeline().len(), per_iteration * (n - k));
    assert!(restored
        .timeline()
        .iter()
        .eq(serial.timeline().iter().skip(per_iteration * k)));
}

#[test]
fn restore_from_every_boundary_is_byte_identical() {
    let t = trace(ModelId::ResNet18, 16);
    let p = Platform::p2(2);
    let n = 5;
    let uninterrupted = SimBuilder::new(&t, &p).iterations(n).run();
    let serial = uninterrupted.to_canonical_json();
    // The uninterrupted run replays; the serial oracle must agree.
    let oracle = SimBuilder::new(&t, &p)
        .iterations(n)
        .network(common::serial_flow(&p))
        .run()
        .to_canonical_json();
    assert_eq!(serial, oracle);
    for k in 1..=n {
        let path = temp_path("boundary");
        // A k-iteration run with cadence k leaves the snapshot a longer
        // run killed right after boundary k would have left.
        SimBuilder::new(&t, &p)
            .iterations(k)
            .checkpoint(&path, k)
            .try_run()
            .expect("prefix run completes");
        let resumed = SimBuilder::new(&t, &p)
            .iterations(n)
            .restore(&path)
            .try_run()
            .expect("restore succeeds");
        assert_eq!(
            serial,
            resumed.to_canonical_json(),
            "restore from boundary {k} of {n} diverged"
        );
        std::fs::remove_file(&path).ok();
    }
}

/// A committed file under `tests/fixtures/`.
fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures")
        .join(name)
}

/// The spec hash a snapshot file records.
fn recorded_spec_hash(path: &Path) -> String {
    let text = std::fs::read_to_string(path).expect("snapshot readable");
    let v: serde::Value = serde_json::from_str(text.trim_end()).expect("snapshot is JSON");
    String::from_value(v.get("spec_hash").expect("a spec hash")).expect("a string")
}

/// The golden quartet's DDP scenario, 4 iterations, restored from
/// `snapshot` if given: the committed snapshots hold it after 2, written
/// with cadence 2.
fn committed_scenario(
    t: &Trace,
    p: &Platform,
    snapshot: Option<PathBuf>,
) -> Result<triosim::SimReport, SimError> {
    let b = SimBuilder::new(t, p)
        .parallelism(Parallelism::DataParallel { overlap: true })
        .iterations(4);
    match snapshot {
        Some(path) => b.restore(path).try_run(),
        None => b.try_run(),
    }
}

/// `tests/fixtures/ddp_boundary2_v2.ckpt` was written by the build that
/// introduced format v2, and every later build must restore it. Every
/// other restore test writes its snapshot with the binary under test, so
/// only this one notices a spec hash or snapshot format that drifted
/// between builds. Its spec hash is the v1 file's: the format changed,
/// the scenario did not.
#[test]
fn committed_snapshot_restores_byte_identically() {
    let t = Tracer::new(GpuModel::A40).trace(&ModelId::Vgg11.build(8));
    let p = Platform::p2(2);
    let v2 = fixture("ddp_boundary2_v2.ckpt");
    assert_eq!(
        recorded_spec_hash(&v2),
        recorded_spec_hash(&fixture("ddp_boundary2.ckpt"))
    );
    let restored = committed_scenario(&t, &p, Some(v2)).expect("the committed snapshot restores");
    let uninterrupted = committed_scenario(&t, &p, None).expect("the scenario runs");
    assert_eq!(
        uninterrupted.to_canonical_json(),
        restored.to_canonical_json()
    );
}

/// `tests/fixtures/ddp_boundary2.ckpt`, the same scenario in format v1,
/// whose comm intervals, iteration ends and four dispatch slots format
/// v2 dropped: restore refuses it with the typed version error.
#[test]
fn v1_snapshot_is_an_unsupported_version() {
    let t = Tracer::new(GpuModel::A40).trace(&ModelId::Vgg11.build(8));
    let p = Platform::p2(2);
    let err = committed_scenario(&t, &p, Some(fixture("ddp_boundary2.ckpt")))
        .expect_err("a v1 snapshot does not restore");
    assert!(
        matches!(
            err,
            SimError::Checkpoint(CheckpointError::UnsupportedVersion {
                found: 1,
                supported: 2
            })
        ),
        "{err:?}"
    );
}

/// A `--checkpoint-dir` sweep that finds the v1 snapshot of its
/// scenario reruns the scenario, as it reruns any unusable snapshot, to
/// the bytes of a sweep that found none, and leaves no snapshot behind.
#[test]
fn checkpoint_dir_sweep_reruns_a_v1_snapshot() {
    let spec = SweepSpec::from_json(
        r#"{ "name": "v1",
             "defaults": { "model": "vgg11", "trace_batch": 8, "gpu": "A40",
                           "iterations": 4 },
             "grid": { "parallelism": ["ddp"], "platform": ["p2:2"] } }"#,
    )
    .expect("spec parses");
    let clean = run_sweep(&spec, 1, false).expect("clean sweep runs");
    let dir = temp_path("v1-sweep");
    std::fs::create_dir_all(&dir).expect("checkpoint dir");
    let snapshot = dir.join("scenario-0.ckpt");
    std::fs::copy(fixture("ddp_boundary2.ckpt"), &snapshot).expect("copy the v1 snapshot");
    let outcome = run_sweep_with(
        &spec,
        &SweepRunConfig {
            threads: 1,
            checkpoint_dir: Some(dir.clone()),
            ..SweepRunConfig::default()
        },
    )
    .expect("sweep runs");
    let left = snapshot.exists();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(outcome.failures(), 0);
    assert_eq!(clean.to_canonical_string(), outcome.to_canonical_string());
    assert!(!left, "the rerun scenario's snapshot is removed");
}

#[test]
fn restore_of_a_finished_run_reproduces_its_report() {
    let t = trace(ModelId::Vgg11, 8);
    let p = Platform::p2(2);
    let path = temp_path("finished");
    let full = SimBuilder::new(&t, &p)
        .iterations(3)
        .checkpoint(&path, 3)
        .try_run()
        .expect("checkpointed run completes");
    let resumed = SimBuilder::new(&t, &p)
        .iterations(3)
        .restore(&path)
        .try_run()
        .expect("zero-remaining restore succeeds");
    assert_eq!(full.to_canonical_json(), resumed.to_canonical_json());
    std::fs::remove_file(&path).ok();
}

#[test]
fn faulted_restore_is_byte_identical() {
    let t = trace(ModelId::ResNet18, 16);
    let p = Platform::p2(2);
    // Place the timed link degradation inside iteration 2 of 4.
    let per_iter = SimBuilder::new(&t, &p).iterations(1).run().total_time_s();
    let plan = fault_plan(1.5 * per_iter);
    let n = 4;
    let uninterrupted = SimBuilder::new(&t, &p)
        .iterations(n)
        .faults(plan.clone())
        .try_run()
        .expect("faulted run completes");
    for k in [1, 2, 3] {
        let path = temp_path("faulted");
        SimBuilder::new(&t, &p)
            .iterations(k)
            .faults(plan.clone())
            .checkpoint(&path, k)
            .try_run()
            .expect("faulted prefix completes");
        let resumed = SimBuilder::new(&t, &p)
            .iterations(n)
            .faults(plan.clone())
            .restore(&path)
            .try_run()
            .expect("faulted restore succeeds");
        assert_eq!(
            uninterrupted.to_canonical_json(),
            resumed.to_canonical_json(),
            "faulted restore from boundary {k} diverged"
        );
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn budgeted_restore_trips_identically() {
    let t = trace(ModelId::ResNet18, 16);
    let p = Platform::p2(2);
    // An event budget that survives iteration 1 but trips later.
    let events_per_iter = {
        let path = temp_path("budget-probe");
        SimBuilder::new(&t, &p)
            .iterations(1)
            .checkpoint(&path, 1)
            .try_run()
            .expect("probe completes");
        let text = std::fs::read_to_string(&path).expect("snapshot readable");
        std::fs::remove_file(&path).ok();
        let v: serde::Value = serde_json::from_str(text.trim_end()).expect("snapshot is JSON");
        // The event-budget axis counts exactly the compute and flow
        // deliveries, which are the two dispatch counters.
        let dispatches = Vec::<u64>::from_value(
            v.get("state")
                .and_then(|s| s.get("totals"))
                .and_then(|t| t.get("dispatches"))
                .expect("snapshot records dispatch counters"),
        )
        .expect("dispatches are integers");
        dispatches[0] + dispatches[1]
    };
    let limit = events_per_iter * 2 + events_per_iter / 2;
    let budget = || RunBudget::unlimited().with_max_events(limit);
    let serial = SimBuilder::new(&t, &p)
        .iterations(4)
        .budget(budget())
        .try_run()
        .expect_err("budget trips in iteration 3");
    let path = temp_path("budget");
    SimBuilder::new(&t, &p)
        .iterations(2)
        .budget(budget())
        .checkpoint(&path, 2)
        .try_run()
        .expect("two iterations fit the budget");
    let resumed = SimBuilder::new(&t, &p)
        .iterations(4)
        .budget(budget())
        .restore(&path)
        .try_run()
        .expect_err("restored run trips the same budget");
    assert_eq!(serial.to_string(), resumed.to_string());
    std::fs::remove_file(&path).ok();
}

#[test]
fn mismatched_spec_is_a_typed_error() {
    let t = trace(ModelId::ResNet18, 16);
    let p = Platform::p2(2);
    let path = temp_path("mismatch");
    SimBuilder::new(&t, &p)
        .iterations(2)
        .checkpoint(&path, 2)
        .try_run()
        .expect("run completes");
    // Different platform ⇒ different graph and network ⇒ different hash.
    let p4 = Platform::p2(4);
    let err = SimBuilder::new(&t, &p4)
        .iterations(4)
        .restore(&path)
        .try_run()
        .expect_err("restoring under a different scenario must fail");
    assert!(
        matches!(
            err,
            SimError::Checkpoint(CheckpointError::SpecMismatch { .. })
        ),
        "got {err:?}"
    );
    // Same scenario but a different fault plan also mismatches.
    let err = SimBuilder::new(&t, &p)
        .iterations(4)
        .faults(fault_plan(0.1))
        .restore(&path)
        .try_run()
        .expect_err("a different fault plan must fail");
    assert!(matches!(
        err,
        SimError::Checkpoint(CheckpointError::SpecMismatch { .. })
    ));
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupt_and_future_snapshots_are_typed_errors() {
    let t = trace(ModelId::Vgg11, 8);
    let p = Platform::p2(2);
    let path = temp_path("corrupt");
    std::fs::write(&path, "{not json").expect("write scratch file");
    let err = SimBuilder::new(&t, &p)
        .iterations(2)
        .restore(&path)
        .try_run()
        .expect_err("garbage must fail");
    assert!(matches!(
        err,
        SimError::Checkpoint(CheckpointError::Corrupt(_))
    ));
    std::fs::write(
        &path,
        "{\"checkpoint\":\"triosim-sim\",\"version\":99,\"spec_hash\":\"0\",\"completed\":1,\
         \"state\":{}}\n",
    )
    .expect("write scratch file");
    let err = SimBuilder::new(&t, &p)
        .iterations(2)
        .restore(&path)
        .try_run()
        .expect_err("future version must fail");
    assert!(matches!(
        err,
        SimError::Checkpoint(CheckpointError::UnsupportedVersion { found: 99, .. })
    ));
    let err = SimBuilder::new(&t, &p)
        .iterations(2)
        .restore(temp_path("absent"))
        .try_run()
        .expect_err("missing file must fail");
    assert!(matches!(err, SimError::Checkpoint(CheckpointError::Io(_))));
    std::fs::remove_file(&path).ok();
}

#[test]
fn snapshot_with_more_iterations_than_requested_is_corrupt() {
    let t = trace(ModelId::Vgg11, 8);
    let p = Platform::p2(2);
    let path = temp_path("excess");
    SimBuilder::new(&t, &p)
        .iterations(3)
        .checkpoint(&path, 3)
        .try_run()
        .expect("run completes");
    let err = SimBuilder::new(&t, &p)
        .iterations(2)
        .restore(&path)
        .try_run()
        .expect_err("3 completed iterations cannot resume a 2-iteration run");
    assert!(matches!(
        err,
        SimError::Checkpoint(CheckpointError::Corrupt(_))
    ));
    std::fs::remove_file(&path).ok();
}

/// A snapshot's `completed` count must be the iteration count its
/// attribution recorded: one edited from 2 to 1 is corrupt, not a run
/// that resumes at the wrong boundary.
#[test]
fn snapshot_with_an_edited_completed_count_is_corrupt() {
    let t = trace(ModelId::Vgg11, 8);
    let p = Platform::p2(2);
    let path = temp_path("completed");
    SimBuilder::new(&t, &p)
        .iterations(2)
        .checkpoint(&path, 2)
        .try_run()
        .expect("run completes");
    let text = std::fs::read_to_string(&path).expect("snapshot readable");
    let edited = text.replacen(r#""completed":2,"#, r#""completed":1,"#, 1);
    assert_ne!(edited, text, "the snapshot records 2 completed iterations");
    std::fs::write(&path, edited).expect("write scratch file");
    let err = SimBuilder::new(&t, &p)
        .iterations(4)
        .restore(&path)
        .try_run()
        .expect_err("1 completed iteration against 2 recorded must fail");
    std::fs::remove_file(&path).ok();
    assert!(
        matches!(err, SimError::Checkpoint(CheckpointError::Corrupt(_))),
        "{err:?}"
    );
}

/// A restored run that trips its budget profiles the iterations it ran
/// itself, not the snapshot's: restored at boundary 2 and tripping in
/// iteration 3, its engine loop counts one.
#[test]
fn profiled_budget_trip_after_restore_counts_its_own_iterations() {
    let t = trace(ModelId::ResNet18, 16);
    let p = Platform::p2(2);
    let per_iteration = SimBuilder::new(&t, &p).run().queue_stats().delivered();
    let budget = || RunBudget::unlimited().with_max_events(per_iteration * 2 + per_iteration / 2);
    let path = temp_path("profiled-budget");
    SimBuilder::new(&t, &p)
        .iterations(2)
        .budget(budget())
        .checkpoint(&path, 2)
        .try_run()
        .expect("two iterations fit the budget");
    let mut prof = SelfProfiler::new();
    let err = SimBuilder::new(&t, &p)
        .iterations(4)
        .budget(budget())
        .restore(&path)
        .try_run_profiled(&mut prof)
        .expect_err("the restored run trips in iteration 3");
    std::fs::remove_file(&path).ok();
    assert!(matches!(err, SimError::BudgetExceeded { .. }), "{err:?}");
    let profile = prof.snapshot();
    let engine_loop = profile.find(&["engine_loop"]).map(|n| n.calls);
    assert_eq!(engine_loop, Some(1), "{}", profile.render());
}

/// Every array and object in `v`, by path, with its length or keys.
fn shape(v: &serde::Value, path: &str, out: &mut Vec<String>) {
    match v {
        serde::Value::Array(items) => {
            out.push(format!("{path}: {} items", items.len()));
            for (i, item) in items.iter().enumerate() {
                shape(item, &format!("{path}[{i}]"), out);
            }
        }
        serde::Value::Object(fields) => {
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            out.push(format!("{path}: {keys:?}"));
            for (k, field) in fields {
                shape(field, &format!("{path}.{k}"), out);
            }
        }
        _ => {}
    }
}

/// A snapshot holds nothing that grows with the run: a replayed run's
/// state at boundary 40 has every array and object of its state at
/// boundary 3, at the same length and with the same keys.
#[test]
fn snapshot_shape_does_not_grow_with_the_boundary() {
    let t = trace(ModelId::ResNet18, 8);
    let p = Platform::p2(2);
    let state_shape = |k: usize| {
        let path = temp_path("shape");
        let report = SimBuilder::new(&t, &p)
            .iterations(k)
            .checkpoint(&path, k)
            .try_run()
            .expect("run completes");
        assert_eq!(report.replay(), Replay::Synthesized(k - 2));
        let text = std::fs::read_to_string(&path).expect("snapshot readable");
        std::fs::remove_file(&path).ok();
        let v: serde::Value = serde_json::from_str(text.trim_end()).expect("snapshot is JSON");
        let mut out = Vec::new();
        shape(v.get("state").expect("a state"), "state", &mut out);
        out
    };
    let (early, late) = (state_shape(3), state_shape(40));
    assert!(early
        .iter()
        .any(|s| s.starts_with("state.attr.last_path: ")));
    let first_change = early.iter().zip(&late).find(|(e, l)| e != l);
    assert!(
        early == late,
        "{} vs {} entries, first change: {first_change:?}",
        early.len(),
        late.len()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Kill-at-any-boundary identity over random model × parallelism ×
    /// iteration counts: restoring boundary `k` of an `n`-iteration run
    /// reproduces the uninterrupted run's canonical bytes exactly, with
    /// and without replay available.
    #[test]
    fn restore_from_any_checkpoint_is_byte_identical(
        model_idx in 0usize..2,
        par_idx in 0usize..4,
        n in 2usize..5,
        k_frac in 0usize..3,
    ) {
        let k = 1 + k_frac % n.saturating_sub(1).max(1);
        let t = trace(model(model_idx), 8);
        let p = Platform::p2(2);
        let par = parallelism(par_idx);
        let serial = SimBuilder::new(&t, &p)
            .parallelism(par)
            .iterations(n)
            .run()
            .to_canonical_json();
        let oracle = SimBuilder::new(&t, &p)
            .parallelism(par)
            .iterations(n)
            .network(common::serial_flow(&p))
            .run()
            .to_canonical_json();
        prop_assert_eq!(&serial, &oracle, "serial oracle diverged");
        let path = temp_path("prop");
        SimBuilder::new(&t, &p)
            .parallelism(par)
            .iterations(k)
            .checkpoint(&path, k)
            .try_run()
            .expect("prefix run completes");
        let resumed = SimBuilder::new(&t, &p)
            .parallelism(par)
            .iterations(n)
            .restore(&path)
            .try_run()
            .expect("restore succeeds")
            .to_canonical_json();
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(&serial, &resumed, "boundary {} of {} diverged", k, n);
    }
}
