//! Golden snapshot tests: canonical `SimReport` JSON for a small
//! DP/DDP/TP/PP scenario quartet and a hybrid DP x PP run, committed
//! under `tests/golden/`.
//!
//! Any drift in a simulation-determined field — totals, per-GPU
//! occupancy, queue/network counters, or the order-sensitive timeline
//! hash — fails the comparison with both strings printed. To bless an
//! intentional behavior change, regenerate the snapshots:
//!
//! ```text
//! TRIOSIM_BLESS=1 cargo test --test golden
//! ```
//!
//! and commit the diff under `tests/golden/` (review it: the diff *is*
//! the behavior change). See `TESTING.md` for the full workflow.

mod common;

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use serde::Value;
use triosim::{Parallelism, Platform, Replay, SimBuilder};
use triosim_des::{fnv1a, TimeSpan, FNV_OFFSET};
use triosim_modelzoo::ModelId;
use triosim_obs::{ChromeTraceSink, JsonlSink, PrometheusSink, RunRecorder};
use triosim_trace::{GpuModel, Tracer};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn bless_mode() -> bool {
    std::env::var_os("TRIOSIM_BLESS").is_some_and(|v| v == "1")
}

/// The goldens' shared trace: VGG-11 traced at batch 8 on an A40,
/// simulated on `platform`. The quartet runs on two NVLink'd A100s (P2).
/// Small enough to run in milliseconds, rich enough that every report
/// field is non-trivial.
fn canonical_report(platform: &Platform, parallelism: Parallelism) -> String {
    let trace = Tracer::new(GpuModel::A40).trace(&ModelId::Vgg11.build(8));
    let report = SimBuilder::new(&trace, platform)
        .parallelism(parallelism)
        .run();
    serde_json::to_string(&report.to_canonical_json()).expect("canonical JSON is finite")
}

fn check(name: &str, parallelism: Parallelism) {
    check_snapshot(name, &canonical_report(&Platform::p2(2), parallelism));
}

/// Compares `actual` with the committed `tests/golden/{name}.json`, or
/// overwrites it in bless mode.
fn check_snapshot(name: &str, actual: &str) {
    let path = golden_dir().join(format!("{name}.json"));
    if bless_mode() {
        std::fs::write(&path, actual).unwrap_or_else(|e| panic!("bless {}: {e}", path.display()));
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); run `TRIOSIM_BLESS=1 cargo test --test golden` \
             and commit the result",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "\n`{name}` drifted from its golden snapshot.\n\
         If this change is intentional, re-bless with \
         `TRIOSIM_BLESS=1 cargo test --test golden` and commit the diff.\n\
         actual  : {actual}\n\
         expected: {expected}\n"
    );
}

#[test]
fn golden_dp() {
    check("dp", Parallelism::DataParallel { overlap: false });
}

#[test]
fn golden_ddp() {
    check("ddp", Parallelism::DataParallel { overlap: true });
}

#[test]
fn golden_tp() {
    check("tp", Parallelism::TensorParallel);
}

#[test]
fn golden_pp() {
    check("pp", Parallelism::Pipeline { chunks: 2 });
}

/// Hybrid DP x PP on four GPUs: two data-parallel groups of two pipeline
/// stages each, whose per-stage gradient AllReduce runs over a GPU map.
#[test]
fn golden_hp() {
    let parallelism = Parallelism::Hybrid {
        dp_groups: 2,
        chunks: 2,
    };
    check_snapshot("hp", &canonical_report(&Platform::p2(4), parallelism));
}

/// FNV-1a over `bytes`, as 16 hex digits: keeps a large export's
/// snapshot small.
fn fnv_hex(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a(FNV_OFFSET, bytes))
}

/// The exported timeline of a replayed run. The canonical form digests
/// the timeline records, but not the Chrome export or the per-layer
/// breakdown, which read every record (labels included) back out of the
/// report, synthesized iterations too.
#[test]
fn golden_timeline_export() {
    let trace = Tracer::new(GpuModel::A100).trace(&ModelId::ResNet18.build(8));
    let platform = Platform::p2(2);
    let report = SimBuilder::new(&trace, &platform)
        .parallelism(Parallelism::DataParallel { overlap: true })
        .iterations(4)
        .run();
    assert_eq!(report.replay(), Replay::Synthesized(2));
    let chrome = report.to_chrome_trace().expect("timeline exports");
    let export = Value::Object(vec![
        (
            "timeline_records".to_string(),
            Value::UInt(report.timeline().len() as u64),
        ),
        (
            "chrome_trace_bytes".to_string(),
            Value::UInt(chrome.len() as u64),
        ),
        (
            "chrome_trace_fnv".to_string(),
            Value::Str(fnv_hex(chrome.as_bytes())),
        ),
        (
            "per_layer_compute_s".to_string(),
            Value::Array(
                report
                    .per_layer_compute_s()
                    .into_iter()
                    .map(Value::Float)
                    .collect(),
            ),
        ),
    ]);
    let actual = serde_json::to_string(&export).expect("export digest JSON is finite");
    check_snapshot("export_ddp", &actual);
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

/// The three sink outputs of one observed run, as `simulate` writes them
/// to `--events` (JSONL), `--trace-events` (Chrome) and `--metrics`
/// (Prometheus): the golden DDP scenario for one iteration, sampled every
/// 1 ms, so the files hold spans, samples with link traffic and the
/// end-of-run metrics. Each sink is pinned by its byte length, line count
/// and FNV-1a digest; a mismatch names the sinks whose bytes moved.
#[test]
fn golden_sinks() {
    let trace = Tracer::new(GpuModel::A40).trace(&ModelId::Vgg11.build(8));
    let platform = Platform::p2(2);
    let sinks = ["events", "trace_events", "metrics"].map(|name| (name, SharedBuf::default()));
    let mut recorder = RunRecorder::new();
    recorder.push(Box::new(JsonlSink::new(sinks[0].1.clone())));
    recorder.push(Box::new(ChromeTraceSink::new(sinks[1].1.clone())));
    recorder.push(Box::new(PrometheusSink::new(sinks[2].1.clone())));
    SimBuilder::new(&trace, &platform)
        .parallelism(Parallelism::DataParallel { overlap: true })
        .recorder(Box::new(recorder))
        .sample_period(TimeSpan::from_millis(1.0))
        .try_run()
        .expect("observed run completes");
    let digest = |buf: &SharedBuf| {
        let bytes = buf.0.lock().expect("unpoisoned");
        let lines = bytes.iter().filter(|&&b| b == b'\n').count();
        Value::Object(vec![
            ("bytes".to_string(), Value::UInt(bytes.len() as u64)),
            ("lines".to_string(), Value::UInt(lines as u64)),
            ("fnv".to_string(), Value::Str(fnv_hex(&bytes))),
        ])
    };
    let actual = Value::Object(
        sinks
            .iter()
            .map(|(name, buf)| (name.to_string(), digest(buf)))
            .collect(),
    );
    let path = golden_dir().join("sinks_ddp.json");
    let text = serde_json::to_string(&actual).expect("sink digests are finite");
    if bless_mode() {
        std::fs::write(&path, text).unwrap_or_else(|e| panic!("bless {}: {e}", path.display()));
        return;
    }
    let expected: Value = std::fs::read_to_string(&path)
        .ok()
        .and_then(|s| serde_json::from_str(&s).ok())
        .unwrap_or_else(|| {
            panic!(
                "missing or unreadable golden {}; run `TRIOSIM_BLESS=1 cargo test --test golden` \
                 and commit the result",
                path.display()
            )
        });
    let moved: Vec<&str> = sinks
        .iter()
        .map(|(name, _)| *name)
        .filter(|name| actual.get(name) != expected.get(name))
        .collect();
    assert!(
        moved.is_empty(),
        "\nthe {moved:?} sink output drifted from `sinks_ddp`.\n\
         If this change is intentional, re-bless with \
         `TRIOSIM_BLESS=1 cargo test --test golden` and commit the diff.\n\
         actual  : {text}\n"
    );
}

/// The golden quartet under steady-state replay: a 1-iteration run
/// (the snapshots above) never replays, and at multiple iterations the
/// replayed run must be byte-identical to the serial oracle.
#[test]
fn golden_quartet_is_replay_invariant() {
    let trace = Tracer::new(GpuModel::A40).trace(&ModelId::Vgg11.build(8));
    let platform = Platform::p2(2);
    let quartet = [
        ("dp", Parallelism::DataParallel { overlap: false }),
        ("ddp", Parallelism::DataParallel { overlap: true }),
        ("tp", Parallelism::TensorParallel),
        ("pp", Parallelism::Pipeline { chunks: 2 }),
    ];
    for (name, parallelism) in quartet {
        let b = || {
            SimBuilder::new(&trace, &platform)
                .parallelism(parallelism)
                .iterations(3)
        };
        let replayed = b().run();
        assert_eq!(replayed.replay(), Replay::Synthesized(1), "`{name}` x3");
        let serial = b().network(common::serial_flow(&platform)).run();
        assert_eq!(
            serde_json::to_string(&replayed.to_canonical_json()).expect("canonical JSON is finite"),
            serde_json::to_string(&serial.to_canonical_json()).expect("canonical JSON is finite"),
            "`{name}` x3 diverged from the serial oracle"
        );
    }
}

/// The snapshot comparison is only as strong as the canonical form:
/// verify the timeline hash actually covers scheduling order, not just
/// aggregate totals, by checking two different configurations disagree.
#[test]
fn canonical_form_is_sensitive_to_configuration() {
    let p = Platform::p2(2);
    let a = canonical_report(&p, Parallelism::DataParallel { overlap: true });
    let b = canonical_report(&p, Parallelism::TensorParallel);
    assert_ne!(a, b);
}
