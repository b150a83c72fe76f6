//! Checkpoint overhead benchmark: the same simulation with snapshotting
//! off and on, asserting that checkpointing is both *free enough* and
//! *invisible*, and that a restore reproduces the uninterrupted run.
//!
//! Three contracts are asserted:
//!
//! * **Canonical invisibility**: the checkpointed run's canonical report
//!   is byte-identical to the plain one (snapshots observe quiescent
//!   state, they never perturb it).
//! * **Bounded overhead**: the median of per-pair wall-time differences
//!   (each pair runs plain and checkpointed back to back, alternating
//!   order to cancel drift) is within [`MAX_OVERHEAD_FRAC`] of the
//!   median plain wall time, with a small absolute slack so scheduler
//!   noise cannot flake the gate.
//! * **Restore identity**: resuming from a mid-run boundary snapshot
//!   yields the uninterrupted run's canonical bytes exactly.
//!
//! Both sides take the same path: steady-state replay simulates two
//! iterations and synthesizes the rest, and every run folds its timeline
//! digest at each iteration boundary, so the snapshots' file writes are
//! the only difference, and the recorded overhead is not negative.
//!
//! Results land in `results/BENCH_checkpoint.json`, which CI uploads as
//! an artifact.

use std::path::PathBuf;
use std::time::Instant;

use serde::Value;
use triosim::{Platform, SimBuilder, SimReport};
use triosim_bench::{num, Summary};
use triosim_modelzoo::ModelId;
use triosim_trace::{GpuModel, Trace, Tracer};

/// Checkpointed wall time may exceed plain by at most this fraction...
const MAX_OVERHEAD_FRAC: f64 = 0.05;
/// ...or by this many seconds, whichever is larger (absolute slack so a
/// few-hundred-ms workload cannot fail the gate on scheduler jitter).
const ABS_SLACK_S: f64 = 0.050;
/// Interleaved (plain, checkpointed) measurement pairs. The gate uses
/// the median per-pair difference: adjacent runs share cache and
/// frequency state, so differencing within a pair cancels most noise,
/// and the median discards stray outliers.
const PAIRS: usize = 7;
/// Iterations per simulation; with [`EVERY`] this fixes the snapshot
/// count per run.
const ITERATIONS: usize = 1000;
/// Snapshot cadence: a snapshot every this many iteration boundaries.
const EVERY: usize = 500;
/// Back-to-back simulations per timed measurement, so one measurement
/// is long enough for the wall clock to resolve the overhead.
const REPS: usize = 1;

fn snapshot_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "triosim-bench-ckpt-{}-{tag}.json",
        std::process::id()
    ))
}

/// Runs `REPS` back-to-back simulations, returning the last canonical
/// report and the total wall seconds. The timed region includes
/// canonicalization, the end-to-end cost a user pays for a report.
fn run_once(trace: &Trace, platform: &Platform, ckpt: Option<&PathBuf>) -> (Value, f64) {
    let start = Instant::now();
    let mut canonical: Option<Value> = None;
    for _ in 0..REPS {
        let mut builder = SimBuilder::new(trace, platform).iterations(ITERATIONS);
        if let Some(path) = ckpt {
            builder = builder.checkpoint(path, EVERY);
        }
        let report: SimReport = builder
            .try_run()
            .unwrap_or_else(|e| panic!("bench_checkpoint run failed: {e}"));
        canonical = Some(report.to_canonical_json());
    }
    let wall = start.elapsed().as_secs_f64();
    (canonical.expect("REPS > 0"), wall)
}

fn main() {
    let trace = Tracer::new(GpuModel::A100).trace(&ModelId::ResNet50.build(32));
    let platform = Platform::p2(4);
    let snapshots_per_run = ITERATIONS / EVERY;
    println!(
        "checkpoint bench: resnet50 x{REPS}, {ITERATIONS} iterations, snapshot every {EVERY} \
         ({snapshots_per_run} snapshots/run), {PAIRS} interleaved pairs"
    );

    let ckpt = snapshot_path("overhead");
    let mut offs = Vec::with_capacity(PAIRS);
    let mut diffs = Vec::with_capacity(PAIRS);
    let mut canonical_off = Value::Null;
    let mut canonical_on = Value::Null;
    for pair in 0..PAIRS {
        // Alternate order inside the pair so frequency/cache drift does
        // not systematically favor one configuration.
        let (c_off, w_off, c_on, w_on) = if pair % 2 == 0 {
            let (c_off, w_off) = run_once(&trace, &platform, None);
            let (c_on, w_on) = run_once(&trace, &platform, Some(&ckpt));
            (c_off, w_off, c_on, w_on)
        } else {
            let (c_on, w_on) = run_once(&trace, &platform, Some(&ckpt));
            let (c_off, w_off) = run_once(&trace, &platform, None);
            (c_off, w_off, c_on, w_on)
        };
        println!(
            "pair {pair}: off {w_off:>7.3} s | on {w_on:>7.3} s | diff {:+8.3} s",
            w_on - w_off
        );
        offs.push(w_off);
        diffs.push(w_on - w_off);
        canonical_off = c_off;
        canonical_on = c_on;
    }
    std::fs::remove_file(&ckpt).ok();
    let median = |v: &mut Vec<f64>| -> f64 {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let off_median = median(&mut offs);
    let overhead_s = median(&mut diffs);

    // Invisibility is unconditional: snapshots must never leak into the
    // canonical report.
    assert!(
        canonical_on == canonical_off,
        "checkpointing changed the canonical report"
    );
    println!("canonical reports byte-identical with checkpointing on/off");

    // Restore identity: a prefix run's final snapshot resumed into the
    // full iteration count reproduces the uninterrupted bytes.
    let resume_from = ITERATIONS / 2;
    let prefix = snapshot_path("restore");
    SimBuilder::new(&trace, &platform)
        .iterations(resume_from)
        .checkpoint(&prefix, resume_from)
        .try_run()
        .unwrap_or_else(|e| panic!("prefix run failed: {e}"));
    let restore_start = Instant::now();
    let resumed = SimBuilder::new(&trace, &platform)
        .iterations(ITERATIONS)
        .restore(&prefix)
        .try_run()
        .unwrap_or_else(|e| panic!("restore failed: {e}"));
    let restore_wall_s = restore_start.elapsed().as_secs_f64();
    std::fs::remove_file(&prefix).ok();
    assert!(
        resumed.to_canonical_json() == canonical_off,
        "restore from boundary {resume_from} diverged from the uninterrupted run"
    );
    println!(
        "restore from boundary {resume_from}/{ITERATIONS} byte-identical ({restore_wall_s:.3} s)"
    );

    let overhead_frac = overhead_s / off_median.max(1e-9);
    let budget_s = (off_median * MAX_OVERHEAD_FRAC).max(ABS_SLACK_S);
    println!(
        "overhead: median-of-{PAIRS} pairs, off {off_median:.3} s, diff {overhead_s:+.3} s \
         -> {:+.1}% (budget {budget_s:.3} s)",
        100.0 * overhead_frac
    );
    assert!(
        overhead_s <= budget_s,
        "checkpoint overhead {overhead_s:.3} s exceeds budget {budget_s:.3} s \
         ({:+.1}% vs {:.0}% allowed)",
        100.0 * overhead_frac,
        100.0 * MAX_OVERHEAD_FRAC
    );

    let mut summary = Summary::new("BENCH_checkpoint");
    summary.int("iterations", ITERATIONS as u64);
    summary.int("snapshot_every", EVERY as u64);
    summary.int("snapshots_per_run", snapshots_per_run as u64);
    summary.int("reps_per_measurement", REPS as u64);
    summary.int("pairs", PAIRS as u64);
    summary.num("wall_off_median_s", off_median);
    summary.num("overhead_median_s", overhead_s);
    summary.num("overhead_frac", overhead_frac);
    summary.num("overhead_budget_s", budget_s);
    summary.num("restore_wall_s", restore_wall_s);
    summary.put("canonical_identical", Value::Bool(true));
    summary.put("restore_identical", Value::Bool(true));
    summary.put(
        "overhead_per_snapshot_s",
        num(overhead_s.max(0.0) / ((REPS * snapshots_per_run).max(1) as f64)),
    );
    summary.finish();
}
