//! Self-profiler overhead benchmark: the same sweep with wall-clock
//! profiling off and on, asserting that profiling is both *free enough*
//! and *invisible*.
//!
//! Three contracts are asserted:
//!
//! * **Canonical invisibility**: the profiled sweep's canonical
//!   aggregate is byte-identical to the unprofiled one (profiling reads
//!   the wall clock, never virtual-time state).
//! * **Bounded overhead**: the best-of-N profiled wall time is within
//!   [`MAX_OVERHEAD_FRAC`] of the best-of-N unprofiled wall time, with a
//!   small absolute slack so timer noise on tiny workloads cannot flake
//!   the gate.
//! * **Attribution coverage**: the profile actually pinpoints the
//!   setup-vs-engine split — the `resolve` and per-scenario
//!   `engine_loop` spans exist and are non-trivial.
//!
//! Results land in `results/BENCH_profile.json`, including the
//! setup/engine/journal split CI uploads as an artifact.

use serde::Value;
use triosim::{run_sweep_with, ScenarioPatch, SelfProfile, SweepRunConfig, SweepSpec};
use triosim_bench::{json_obj, num, Summary};

/// Profiled wall time may exceed unprofiled by at most this fraction...
const MAX_OVERHEAD_FRAC: f64 = 0.05;
/// ...or by this many seconds, whichever is larger (absolute slack so a
/// few-hundred-ms workload cannot fail the gate on scheduler jitter).
const ABS_SLACK_S: f64 = 0.050;
/// Best-of-N runs per configuration; the minimum is the least-noisy
/// estimator of intrinsic cost.
const RUNS: usize = 3;

fn spec() -> SweepSpec {
    let mut defaults = ScenarioPatch::default();
    defaults.set("gpu", Value::Str("A100".to_string()));
    defaults.set("trace_batch", Value::UInt(64));
    defaults.set("iterations", Value::UInt(10));
    SweepSpec {
        name: "bench_profile".to_string(),
        defaults,
        grid: vec![
            (
                "model".to_string(),
                vec![
                    Value::Str("resnet50".to_string()),
                    Value::Str("vgg16".to_string()),
                ],
            ),
            (
                "parallelism".to_string(),
                vec![
                    Value::Str("dp".to_string()),
                    Value::Str("ddp".to_string()),
                    Value::Str("tp".to_string()),
                    Value::Str("pp:2".to_string()),
                ],
            ),
            ("platform".to_string(), vec![Value::Str("p2:4".to_string())]),
        ],
        scenarios: Vec::new(),
    }
}

/// Runs the sweep once, returning (canonical aggregate, wall seconds,
/// profile snapshot when enabled).
fn run_once(spec: &SweepSpec, threads: usize, profile: bool) -> (String, f64, Option<SelfProfile>) {
    let outcome = run_sweep_with(
        spec,
        &SweepRunConfig {
            threads,
            profile,
            ..SweepRunConfig::default()
        },
    )
    .unwrap_or_else(|e| panic!("bench_profile sweep failed: {e}"));
    assert_eq!(outcome.failures(), 0, "grid scenarios are fault-free");
    (
        outcome.to_canonical_string(),
        outcome.elapsed_s,
        outcome.profile,
    )
}

/// Total seconds of a span path, or 0 when absent.
fn span_s(profile: &SelfProfile, path: &[&str]) -> f64 {
    profile.total(path).unwrap_or(0.0)
}

/// `--threads <n>` (at least 1), or the host's available parallelism.
fn threads() -> Result<usize, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => Ok(std::thread::available_parallelism().map_or(1, std::num::NonZero::get)),
        [flag, n] if flag == "--threads" => match n.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(format!("--threads must be at least 1, not `{n}`")),
        },
        _ => Err("usage: bench_profile [--threads <n>]".to_string()),
    }
}

fn main() {
    let threads = threads().unwrap_or_else(|e| {
        eprintln!("bench_profile: {e}");
        std::process::exit(1)
    });
    let spec = spec();
    let host_cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    println!(
        "self-profiler bench: {} scenarios, {threads} threads, best of {RUNS}, host cores \
         {host_cores}",
        spec.len()
    );

    let mut off_best = f64::INFINITY;
    let mut on_best = f64::INFINITY;
    let mut canonical_off = String::new();
    let mut canonical_on = String::new();
    let mut best_profile: Option<SelfProfile> = None;
    for run in 0..RUNS {
        let (c_off, w_off, _) = run_once(&spec, threads, false);
        let (c_on, w_on, p) = run_once(&spec, threads, true);
        println!("run {run}: off {w_off:>7.3} s | on {w_on:>7.3} s");
        off_best = off_best.min(w_off);
        if w_on < on_best {
            on_best = w_on;
            best_profile = p;
        }
        canonical_off = c_off;
        canonical_on = c_on;
    }

    // Invisibility is unconditional: profiling must never leak into the
    // canonical aggregate.
    assert!(
        canonical_on == canonical_off,
        "profiling changed the canonical sweep aggregate"
    );
    println!("canonical aggregates byte-identical with profiling on/off");

    let overhead_frac = (on_best - off_best) / off_best.max(1e-9);
    let budget_s = (off_best * MAX_OVERHEAD_FRAC).max(ABS_SLACK_S);
    println!(
        "overhead: best-of-{RUNS} off {off_best:.3} s, on {on_best:.3} s -> {:+.1}% \
         (budget {budget_s:.3} s)",
        100.0 * overhead_frac
    );
    assert!(
        on_best - off_best <= budget_s,
        "profiling overhead {:.3} s exceeds budget {budget_s:.3} s \
         ({:+.1}% vs {:.0}% allowed)",
        on_best - off_best,
        100.0 * overhead_frac,
        100.0 * MAX_OVERHEAD_FRAC
    );

    // The profile must pinpoint where the wall clock went: the serial
    // setup phase vs the parallel engine phase.
    let profile = best_profile.expect("profiled run returns a profile");
    let setup_s = span_s(&profile, &["resolve"]);
    let execute_s = span_s(&profile, &["execute"]);
    let engine_s = span_s(&profile, &["scenarios", "engine_loop"]);
    let graph_s = span_s(&profile, &["scenarios", "graph_build"]);
    let network_s = span_s(&profile, &["scenarios", "engine_loop", "network"]);
    assert!(setup_s > 0.0, "resolve span recorded");
    assert!(engine_s > 0.0, "per-scenario engine_loop spans roll up");
    println!(
        "split: resolve {setup_s:.3} s | execute {execute_s:.3} s (engine_loop {engine_s:.3} s \
         across workers, graph_build {graph_s:.3} s, network {network_s:.3} s)"
    );

    let mut summary = Summary::new("BENCH_profile");
    summary.int("scenarios", spec.len() as u64);
    summary.int("threads", threads as u64);
    summary.int("host_cores", host_cores as u64);
    summary.int("runs", RUNS as u64);
    summary.num("wall_off_best_s", off_best);
    summary.num("wall_on_best_s", on_best);
    summary.num("overhead_frac", overhead_frac);
    summary.num("overhead_budget_s", budget_s);
    summary.put("canonical_identical", Value::Bool(true));
    summary.num("setup_resolve_s", setup_s);
    summary.num("execute_s", execute_s);
    summary.num("engine_loop_s", engine_s);
    summary.num("graph_build_s", graph_s);
    summary.num("engine_network_s", network_s);
    summary.put(
        "spans",
        Value::Array(
            profile
                .flatten()
                .into_iter()
                .map(|(path, seconds, calls)| {
                    json_obj(vec![
                        ("span", Value::Str(path)),
                        ("wall_s", num(seconds)),
                        ("calls", Value::UInt(calls)),
                    ])
                })
                .collect(),
        ),
    );
    summary.finish();
}
