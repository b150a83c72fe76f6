//! Sweep-engine integration tests: the same `SweepSpec` run at thread
//! counts 1, 2, and 8 must produce byte-identical aggregated output —
//! including when a scenario's fault plan terminates its run inside the
//! pool (the `try_run` error path becomes a deterministic `error` entry,
//! never a lost or reordered result), and including when the run is
//! killed mid-sweep and resumed from its journal.

use std::path::PathBuf;
use std::process::Command;

use triosim::{run_sweep, run_sweep_with, ScenarioError, SweepError, SweepRunConfig, SweepSpec};

/// A mixed 6-scenario spec: a 4-point grid plus two explicit scenarios,
/// one of which severs a P1 GPU's only host link mid-run so `try_run`
/// fails with `SimError::Partitioned` inside a pool worker.
const MIXED_SPEC: &str = r#"{
    "name": "determinism",
    "defaults": { "model": "vgg11", "trace_batch": 8, "gpu": "A40" },
    "grid": {
        "parallelism": ["ddp", "pp:2"],
        "platform": ["p1", "p2:2"]
    },
    "scenarios": [
        { "platform": "p2:4", "parallelism": "tp", "fidelity": "reference" },
        { "platform": "p1", "parallelism": "ddp", "label": "partitioned",
          "faults": { "link_failures": [ { "src": 0, "dst": 2, "at_s": 0.0 } ] } }
    ]
}"#;

#[test]
fn aggregate_is_byte_identical_across_thread_counts() {
    let spec = SweepSpec::from_json(MIXED_SPEC).unwrap();
    let baseline = run_sweep(&spec, 1, false).unwrap().to_canonical_string();
    for threads in [2, 8] {
        let outcome = run_sweep(&spec, threads, false).unwrap();
        assert_eq!(
            outcome.to_canonical_string(),
            baseline,
            "thread count {threads} changed the aggregate"
        );
    }
}

#[test]
fn fault_terminated_scenario_is_isolated_and_deterministic() {
    let spec = SweepSpec::from_json(MIXED_SPEC).unwrap();
    let outcome = run_sweep(&spec, 8, false).unwrap();
    assert_eq!(outcome.results.len(), 6);
    assert_eq!(outcome.failures(), 1, "exactly the partitioned scenario");
    let failed = &outcome.results[5];
    assert_eq!(failed.label, "partitioned");
    let error = failed.outcome.as_ref().unwrap_err().to_string();
    assert!(error.contains("partition"), "typed error surfaced: {error}");
    // Its neighbors still produced full reports.
    for r in &outcome.results[..5] {
        assert!(r.outcome.is_ok(), "{} unexpectedly failed", r.label);
    }
}

#[test]
fn scenario_order_follows_expansion_not_completion() {
    let spec = SweepSpec::from_json(MIXED_SPEC).unwrap();
    let expected: Vec<String> = spec
        .expand()
        .unwrap()
        .into_iter()
        .map(|s| s.label)
        .collect();
    let outcome = run_sweep(&spec, 8, false).unwrap();
    let got: Vec<String> = outcome.results.iter().map(|r| r.label.clone()).collect();
    assert_eq!(got, expected);
}

#[test]
fn parse_errors_surface_before_any_simulation() {
    let spec = SweepSpec::from_json(
        r#"{ "grid": { "platform": ["p2:2", "p9"], "parallelism": ["ddp"] } }"#,
    )
    .unwrap();
    match run_sweep(&spec, 4, false).unwrap_err() {
        SweepError::Scenario { index, error, .. } => {
            assert_eq!(index, 1, "second grid point holds the bad platform");
            assert!(error.contains("p9"), "{error}");
        }
        other => panic!("wrong error: {other}"),
    }
}

fn temp_path(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "triosim-sweep-it-{}-{seq}-{tag}.jsonl",
        std::process::id()
    ))
}

/// The tentpole guarantee: kill a journaled sweep partway (modeled as a
/// journal truncated after K fsync'd entries plus a torn final line),
/// resume at several thread counts, and the aggregate must be
/// byte-identical to an uninterrupted run every time.
#[test]
fn kill_and_resume_is_byte_identical_across_thread_counts() {
    let spec = SweepSpec::from_json(MIXED_SPEC).unwrap();
    let clean = run_sweep(&spec, 2, false).unwrap().to_canonical_string();

    // A full journaled run, to harvest realistic journal bytes.
    let journal = temp_path("full");
    let config = SweepRunConfig {
        threads: 2,
        journal: Some(journal.clone()),
        spec_text: Some(MIXED_SPEC.to_string()),
        ..SweepRunConfig::default()
    };
    let journaled = run_sweep_with(&spec, &config).unwrap();
    assert_eq!(
        journaled.to_canonical_string(),
        clean,
        "journaling must not perturb the canonical output"
    );

    // "Kill" the run: keep the header + the first 3 durable entries, then
    // a torn final line — exactly what SIGKILL mid-write leaves behind.
    let text = std::fs::read_to_string(&journal).unwrap();
    let mut lines = text.lines();
    let mut truncated = String::new();
    for _ in 0..4 {
        truncated.push_str(lines.next().unwrap());
        truncated.push('\n');
    }
    truncated.push_str(r#"{"index":4,"label":"torn mid-"#);

    for threads in [1, 2, 8] {
        let resume = temp_path(&format!("resume-{threads}"));
        std::fs::write(&resume, &truncated).unwrap();
        let config = SweepRunConfig {
            threads,
            resume: Some(resume.clone()),
            ..SweepRunConfig::default()
        };
        let outcome = run_sweep_with(&spec, &config).unwrap();
        assert_eq!(outcome.replayed, 3, "threads {threads}: replay count");
        assert_eq!(
            outcome.to_canonical_string(),
            clean,
            "threads {threads}: resumed aggregate diverged"
        );
        // The extended journal must itself be resumable (tear healed).
        let config = SweepRunConfig {
            threads: 1,
            resume: Some(resume.clone()),
            ..SweepRunConfig::default()
        };
        let again = run_sweep_with(&spec, &config).unwrap();
        assert_eq!(again.replayed, 6, "everything replays the second time");
        assert_eq!(again.to_canonical_string(), clean);
        std::fs::remove_file(&resume).ok();
    }
    std::fs::remove_file(&journal).ok();
}

/// A journal written before the `shards` knob was retired — its header
/// embeds a spec that sets `"shards": 4`, and it holds one of three
/// entries — still resumes: the spec hash it carries matches, the field
/// is ignored with one stderr line, and the aggregate is byte-identical
/// to a clean run of the same spec without the field.
#[test]
fn journal_with_legacy_shards_field_resumes() {
    let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures/legacy_shards_journal.jsonl");
    let journal = temp_path("legacy");
    std::fs::copy(&fixture, &journal).unwrap();
    let out_path = journal.with_extension("out.json");
    let out = Command::new(env!("CARGO_BIN_EXE_triosim-cli"))
        .args(["sweep", "--threads", "1", "--resume"])
        .arg(&journal)
        .arg("--out")
        .arg(&out_path)
        .output()
        .expect("sweep subcommand runs");
    assert!(out.status.success(), "resume failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("resumed       : 1 of 3 scenarios from journal"),
        "{stdout}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.matches("`shards`").count(), 1, "{stderr}");
    let plain = SweepSpec::from_json(
        r#"{
  "name": "legacy-shards",
  "defaults": { "model": "vgg11", "trace_batch": 8, "gpu": "A40",
                "platform": "p2:2", "iterations": 3 },
  "grid": { "parallelism": ["ddp", "tp", "pp:2"] }
}"#,
    )
    .unwrap();
    let clean = run_sweep(&plain, 1, false).unwrap().to_canonical_string();
    assert_eq!(std::fs::read_to_string(&out_path).unwrap(), clean);
    std::fs::remove_file(&journal).ok();
    std::fs::remove_file(&out_path).ok();
}

/// A journal written for one spec must not silently resume a different
/// one: the header's spec hash catches edits to any canonical field.
#[test]
fn stale_journal_is_rejected_on_resume() {
    let spec = SweepSpec::from_json(MIXED_SPEC).unwrap();
    let journal = temp_path("stale");
    let config = SweepRunConfig {
        threads: 2,
        journal: Some(journal.clone()),
        ..SweepRunConfig::default()
    };
    run_sweep_with(&spec, &config).unwrap();

    // Same name, different grid: the hash must differ.
    let edited = SweepSpec::from_json(
        r#"{
            "name": "determinism",
            "defaults": { "model": "vgg11", "trace_batch": 8, "gpu": "A40" },
            "grid": { "parallelism": ["ddp"], "platform": ["p1"] }
        }"#,
    )
    .unwrap();
    let config = SweepRunConfig {
        threads: 1,
        resume: Some(journal.clone()),
        ..SweepRunConfig::default()
    };
    match run_sweep_with(&edited, &config).unwrap_err() {
        SweepError::Journal(msg) => {
            assert!(msg.contains("stale journal"), "names the staleness: {msg}");
        }
        other => panic!("wrong error: {other}"),
    }
    std::fs::remove_file(&journal).ok();
}

/// Panic isolation and budget enforcement must be exactly as
/// deterministic as ordinary errors: a spec containing a healthy
/// scenario, a panicking scenario, and a budget-limited scenario
/// aggregates byte-identically at thread counts 1, 2, and 8 — and the
/// error entries keep their structured kinds.
#[test]
fn panic_and_budget_entries_are_deterministic_across_thread_counts() {
    // global_batch 0 trips the extrapolator's assertion (a genuine bug
    // panic, not a typed error); max_events 5 trips the runaway guard.
    let spec = SweepSpec::from_json(
        r#"{
            "name": "isolation",
            "defaults": { "model": "vgg11", "trace_batch": 8, "gpu": "A40",
                          "platform": "p2:2", "parallelism": "ddp" },
            "scenarios": [
                {},
                { "global_batch": 0, "label": "boom" },
                { "max_events": 5, "label": "runaway" },
                { "parallelism": "tp" }
            ]
        }"#,
    )
    .unwrap();
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let baseline = run_sweep(&spec, 1, false).unwrap();
    let canonical = baseline.to_canonical_string();
    for threads in [2, 8] {
        let outcome = run_sweep(&spec, threads, false).unwrap();
        assert_eq!(
            outcome.to_canonical_string(),
            canonical,
            "threads {threads} changed the aggregate"
        );
        assert_eq!(outcome.panicked(), 1);
        assert_eq!(outcome.budget_terminated(), 1);
        assert_eq!(outcome.failures(), 2);
    }
    std::panic::set_hook(prev_hook);
    assert!(matches!(
        baseline.results[1].outcome,
        Err(ScenarioError::Panicked { index: 1, .. })
    ));
    assert_eq!(
        baseline.results[2]
            .outcome
            .as_ref()
            .unwrap_err()
            .to_string(),
        "budget exceeded: more than 5 events delivered"
    );
    // Healthy neighbors on both sides of the failures still completed.
    assert!(baseline.results[0].outcome.is_ok());
    assert!(baseline.results[3].outcome.is_ok());
}

/// `wall_timeout_ms` is the one budget knob excluded from canonical
/// output (wall-clock enforcement is host-dependent): a generous
/// timeout must leave the aggregate byte-identical to no timeout.
#[test]
fn generous_wall_timeout_does_not_change_canonical_output() {
    let base = SweepSpec::from_json(MIXED_SPEC).unwrap();
    let with_timeout = SweepSpec::from_json(&MIXED_SPEC.replace(
        r#""defaults": { "model": "vgg11", "trace_batch": 8, "gpu": "A40" }"#,
        r#""defaults": { "model": "vgg11", "trace_batch": 8, "gpu": "A40",
                         "wall_timeout_ms": 3600000 }"#,
    ))
    .unwrap();
    assert_eq!(
        run_sweep(&base, 2, false).unwrap().to_canonical_string(),
        run_sweep(&with_timeout, 2, false)
            .unwrap()
            .to_canonical_string()
    );
}

/// A sweep scenario must match a directly-configured `SimBuilder` run
/// bit-for-bit: the shared-artifact plumbing (Arc'd trace, memoized
/// calibration) cannot change results.
#[test]
fn sweep_scenario_matches_direct_simbuilder_run() {
    use triosim::{Parallelism, Platform, SimBuilder};
    use triosim_modelzoo::ModelId;
    use triosim_trace::{GpuModel, Tracer};

    let spec = SweepSpec::from_json(
        r#"{ "scenarios": [ { "model": "vgg11", "trace_batch": 8, "gpu": "A40",
                              "platform": "p2:2", "parallelism": "ddp" } ] }"#,
    )
    .unwrap();
    let outcome = run_sweep(&spec, 1, false).unwrap();
    let from_sweep = outcome.results[0].outcome.as_ref().unwrap();

    let trace = Tracer::new(GpuModel::A40).trace(&ModelId::Vgg11.build(8));
    let platform = Platform::p2(2);
    let direct = SimBuilder::new(&trace, &platform)
        .parallelism(Parallelism::DataParallel { overlap: true })
        .run()
        .to_canonical_json();

    assert_eq!(
        serde_json::to_string(from_sweep).unwrap(),
        serde_json::to_string(&direct).unwrap()
    );
}
