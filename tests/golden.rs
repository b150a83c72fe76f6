//! Golden snapshot tests: canonical `SimReport` JSON for a small
//! DP/DDP/TP/PP scenario quartet, committed under `tests/golden/`.
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

use serde::Value;
use triosim::{Parallelism, Platform, Replay, SimBuilder};
use triosim_modelzoo::ModelId;
use triosim_trace::{GpuModel, Tracer};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn bless_mode() -> bool {
    std::env::var_os("TRIOSIM_BLESS").is_some_and(|v| v == "1")
}

/// The quartet's shared configuration: VGG-11 traced at batch 8 on an
/// A40, simulated on two NVLink'd A100s (P2). Small enough to run in
/// milliseconds, rich enough that every report field is non-trivial.
fn canonical_report(parallelism: Parallelism) -> String {
    let trace = Tracer::new(GpuModel::A40).trace(&ModelId::Vgg11.build(8));
    let platform = Platform::p2(2);
    let report = SimBuilder::new(&trace, &platform)
        .parallelism(parallelism)
        .run();
    serde_json::to_string(&report.to_canonical_json()).expect("canonical JSON is finite")
}

fn check(name: &str, parallelism: Parallelism) {
    check_snapshot(name, &canonical_report(parallelism));
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

/// FNV-1a over `bytes`, as 16 hex digits: keeps a large export's
/// snapshot small.
fn fnv_hex(bytes: &[u8]) -> String {
    let digest = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{digest:016x}")
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
    let a = canonical_report(Parallelism::DataParallel { overlap: true });
    let b = canonical_report(Parallelism::TensorParallel);
    assert_ne!(a, b);
}
