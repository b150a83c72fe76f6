//! Deserializer hardening: every parser that accepts bytes from outside
//! the process — sweep specs, fault plans, traces, journals, engine
//! snapshots — must degrade through *typed errors* on arbitrary
//! truncated, flipped, or garbage input. A panic anywhere in these
//! paths is a denial-of-service against `triosim-cli serve`, so the
//! property under test is simply "calling the parser never panics"
//! (proptest fails the case if it does).
//!
//! Strategy: each parser gets (a) fully arbitrary bytes and (b) a
//! *mutated valid corpus document* — truncations and byte edits of real
//! output from the matching serializer, which reach much deeper than
//! random noise.
//!
//! The CLI's count options are external input too: each refuses zero
//! with a one-line error before anything starts.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use triosim::sweep::journal::read_journal;
use triosim::{validate_snapshot_file, FaultPlan, GpuSlowdown, LinkFailure, SweepSpec};
use triosim_modelzoo::ModelId;
use triosim_trace::{GpuModel, Trace, Tracer};

fn temp_file(tag: &str, case: u64) -> PathBuf {
    std::env::temp_dir().join(format!(
        "triosim-hardening-{tag}-{}-{case}",
        std::process::id()
    ))
}

/// Applies one structured mutation to a corpus document.
fn mutate(doc: &[u8], choice: u8, index: usize, byte: u8) -> Vec<u8> {
    if doc.is_empty() {
        return vec![byte];
    }
    let i = index % doc.len();
    let mut out = doc.to_vec();
    match choice % 4 {
        0 => out.truncate(i),                              // torn write
        1 => out[i] = byte,                                // bit rot
        2 => out.insert(i, byte),                          // framing slip
        _ => out.drain(..i.min(out.len())).for_each(drop), // lost prefix
    }
    out
}

// ---- corpus documents (built once; serializer output, not literals) ----

fn corpus_spec() -> &'static str {
    r#"{
        "name": "hardening",
        "defaults": { "model": "vgg11", "trace_batch": 8, "gpu": "A40",
                       "platform": "p2:2", "parallelism": "ddp" },
        "grid": { "trace_batch": [8, 16] },
        "scenarios": [ { "parallelism": "tp", "label": "explicit" } ]
    }"#
}

fn corpus_fault_plan() -> &'static String {
    static PLAN: OnceLock<String> = OnceLock::new();
    PLAN.get_or_init(|| {
        let mut plan = FaultPlan::default();
        plan.gpu_slowdowns.push(GpuSlowdown {
            gpu: 0,
            factor: 1.5,
        });
        plan.link_failures.push(LinkFailure {
            src: 0,
            dst: 1,
            at_s: 0.5,
            repair_s: None,
        });
        plan.to_json()
    })
}

fn corpus_trace() -> &'static String {
    static TRACE: OnceLock<String> = OnceLock::new();
    TRACE.get_or_init(|| {
        let model = ModelId::ResNet18.build(8);
        Tracer::new(GpuModel::A40)
            .trace(&model)
            .to_json()
            .expect("tracing a zoo model serializes")
    })
}

fn corpus_journal() -> &'static Vec<u8> {
    static JOURNAL: OnceLock<Vec<u8>> = OnceLock::new();
    JOURNAL.get_or_init(|| {
        let path = temp_file("journal-corpus", 0);
        let spec = SweepSpec::from_json(corpus_spec()).unwrap();
        let config = triosim::SweepRunConfig {
            threads: 1,
            journal: Some(path.clone()),
            spec_text: Some(corpus_spec().to_string()),
            ..Default::default()
        };
        triosim::run_sweep_with(&spec, &config).expect("corpus sweep runs");
        let bytes = std::fs::read(&path).expect("journal written");
        std::fs::remove_file(&path).ok();
        bytes
    })
}

fn corpus_snapshot() -> &'static Vec<u8> {
    static SNAP: OnceLock<Vec<u8>> = OnceLock::new();
    SNAP.get_or_init(|| {
        let path = temp_file("snapshot-corpus", 0);
        let model = ModelId::ResNet18.build(8);
        let trace = Tracer::new(GpuModel::A40).trace(&model);
        let platform = triosim::Platform::p2(2);
        triosim::SimBuilder::new(&trace, &platform)
            .iterations(2)
            .checkpoint(&path, 1)
            .run();
        let bytes = std::fs::read(&path).expect("snapshot written");
        std::fs::remove_file(&path).ok();
        bytes
    })
}

// ---- the properties ----

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn sweep_spec_parser_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..1024)) {
        let _ = SweepSpec::from_json(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn sweep_spec_parser_never_panics_on_mutated_spec(
        choice in any::<u8>(), index in any::<usize>(), byte in any::<u8>(),
    ) {
        let doc = mutate(corpus_spec().as_bytes(), choice, index, byte);
        let _ = SweepSpec::from_json(&String::from_utf8_lossy(&doc));
    }

    #[test]
    fn fault_plan_parser_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..1024)) {
        let _ = FaultPlan::from_json(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn fault_plan_parser_never_panics_on_mutated_plan(
        choice in any::<u8>(), index in any::<usize>(), byte in any::<u8>(),
    ) {
        let doc = mutate(corpus_fault_plan().as_bytes(), choice, index, byte);
        let _ = FaultPlan::from_json(&String::from_utf8_lossy(&doc));
    }

    #[test]
    fn trace_parser_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..1024)) {
        let _ = Trace::from_json(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn trace_parser_never_panics_on_mutated_trace(
        choice in any::<u8>(), index in any::<usize>(), byte in any::<u8>(),
    ) {
        let doc = mutate(corpus_trace().as_bytes(), choice, index, byte);
        let _ = Trace::from_json(&String::from_utf8_lossy(&doc));
    }
}

// File-backed parsers write one temp file per case; fewer cases keep the
// suite fast while the corpus mutations still cover the framing logic.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn journal_reader_never_panics_on_mutated_journal(
        case in any::<u64>(), choice in any::<u8>(),
        index in any::<usize>(), byte in any::<u8>(),
    ) {
        let doc = mutate(corpus_journal(), choice, index, byte);
        let path = temp_file("journal", case);
        std::fs::write(&path, &doc).unwrap();
        let _ = read_journal(&path);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn journal_reader_never_panics_on_garbage(case in any::<u64>(), bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let path = temp_file("journal-raw", case);
        std::fs::write(&path, &bytes).unwrap();
        let _ = read_journal(&path);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshot_reader_never_panics_on_mutated_snapshot(
        case in any::<u64>(), choice in any::<u8>(),
        index in any::<usize>(), byte in any::<u8>(),
    ) {
        let doc = mutate(corpus_snapshot(), choice, index, byte);
        let path = temp_file("snapshot", case);
        std::fs::write(&path, &doc).unwrap();
        let _ = validate_snapshot_file(&path);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshot_reader_never_panics_on_garbage(case in any::<u64>(), bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let path = temp_file("snapshot-raw", case);
        std::fs::write(&path, &bytes).unwrap();
        let _ = validate_snapshot_file(&path);
        std::fs::remove_file(&path).ok();
    }
}

/// The corpus documents themselves are valid — the mutation tests above
/// are only meaningful if the unmutated document parses.
#[test]
fn corpus_documents_are_valid() {
    SweepSpec::from_json(corpus_spec()).unwrap();
    FaultPlan::from_json(corpus_fault_plan()).unwrap();
    Trace::from_json(corpus_trace()).unwrap();

    let path = temp_file("journal-valid", 1);
    std::fs::write(&path, corpus_journal()).unwrap();
    read_journal(&path).unwrap();
    std::fs::remove_file(&path).ok();

    let path = temp_file("snapshot-valid", 1);
    std::fs::write(&path, corpus_snapshot()).unwrap();
    validate_snapshot_file(&path).unwrap();
    std::fs::remove_file(&path).ok();
}

/// Every count option refuses zero with `--<flag> must be at least 1`
/// (exit 1) before anything starts: no snapshot, no sweep, and no server
/// binding `127.0.0.1:0` or creating its data directory.
#[test]
fn count_flags_refuse_zero_before_anything_starts() {
    let bin = env!("CARGO_BIN_EXE_triosim-cli");
    let dir = temp_file("counts", 0);
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().expect("utf-8 temp dir").to_string();
    std::fs::write(path("trace.json"), corpus_trace()).unwrap();
    std::fs::write(path("spec.json"), corpus_spec()).unwrap();
    let (trace, spec) = (path("trace.json"), path("spec.json"));
    let (snapshot, snapshots, jobs) = (path("run.ckpt"), path("ckpts"), path("jobs"));
    let simulate = ["simulate", "--trace", &trace];
    let sweep = ["sweep", "--spec", &spec];
    let serve = ["serve", "--addr", "127.0.0.1:0", "--data-dir", &jobs];
    // Port 9 (discard) on loopback: a zero that slipped through would
    // submit and fail there, not with the count error.
    let submit = ["submit", "--spec", &spec, "--addr", "127.0.0.1:9", "--wait"];
    let cases: Vec<(&str, Vec<&str>)> = vec![
        ("iterations", simulate.to_vec()),
        (
            "checkpoint-every",
            [&simulate[..], &["--checkpoint", &snapshot]].concat(),
        ),
        ("threads", sweep.to_vec()),
        (
            "checkpoint-every",
            [&sweep[..], &["--checkpoint-dir", &snapshots]].concat(),
        ),
        ("job-threads", serve.to_vec()),
        ("workers", serve.to_vec()),
        ("max-conns", serve.to_vec()),
        ("retry-max", serve.to_vec()),
        ("checkpoint-every", serve.to_vec()),
        ("queue-cap", serve.to_vec()),
        ("read-timeout-ms", serve.to_vec()),
        ("write-timeout-ms", serve.to_vec()),
        ("poll-ms", submit.to_vec()),
    ];
    for (flag, args) in cases {
        let mut child = Command::new(bin)
            .args(&args)
            .arg(format!("--{flag}"))
            .arg("0")
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("the CLI starts");
        // A zero that slipped through would start a server that never
        // exits on its own.
        let deadline = Instant::now() + Duration::from_secs(30);
        while child.try_wait().expect("child status").is_none() {
            if Instant::now() > deadline {
                child.kill().ok();
                child.wait().ok();
                panic!("{args:?} --{flag} 0 is still running");
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let out = child.wait_with_output().expect("child output");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?} --{flag} 0: {stderr}");
        assert_eq!(
            stderr.trim(),
            format!("error: --{flag} must be at least 1"),
            "{args:?}"
        );
    }
    for started in [&snapshot, &snapshots, &jobs] {
        assert!(!PathBuf::from(started).exists(), "{started} was created");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A command whose stdout closes after its first line ends quietly, as
/// `triosim-cli simulate ... | head -1` should: no panic on stderr and
/// not the panic exit code 101. (The broken pipe ends it by SIGPIPE.)
#[test]
fn closed_stdout_ends_a_command_quietly() {
    use std::io::BufRead as _;
    let bin = env!("CARGO_BIN_EXE_triosim-cli");
    let trace = temp_file("sigpipe-trace", 0);
    std::fs::write(&trace, corpus_trace()).unwrap();
    let mut child = Command::new(bin)
        .args(["simulate", "--platform", "p2:2", "--iterations", "6"])
        .arg("--trace")
        .arg(&trace)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the CLI starts");
    let mut first = String::new();
    // The line is printed before the run; the reader, and with it the
    // pipe's read end, is dropped as soon as it is read.
    std::io::BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("the first line");
    let out = child.wait_with_output().expect("child output");
    std::fs::remove_file(&trace).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(first.starts_with("resnet18 | 2 x"), "{first}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");
}
