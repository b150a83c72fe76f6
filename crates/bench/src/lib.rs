//! Shared harness for regenerating every table and figure of the TrioSim
//! paper.
//!
//! Each `fig*` binary in `src/bin/` reproduces one figure: it builds the
//! paper's workloads, runs the TrioSim prediction *and* the reference
//! ground-truth simulation (the hardware stand-in — see `DESIGN.md` §2),
//! and prints the same rows the paper plots, including the per-model and
//! average errors. Criterion micro-benchmarks under `benches/` back the
//! performance claims (Figure 14's "completes within seconds").
//!
//! Everything is seeded and deterministic; binaries accept
//! `--seed <n>` where randomness is involved (Figure 16).

use std::path::PathBuf;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;
use triosim::{
    Fidelity, HopConfig, HopGraph, HopSimulator, Parallelism, Platform, SimBuilder, SimReport,
};
use triosim_modelzoo::ModelId;
use triosim_trace::{GpuModel, Phase, Trace, Tracer};

/// One row of a validation figure: predicted vs ground truth.
#[derive(Debug, Clone)]
pub struct Row {
    /// Row label (usually the model's figure label).
    pub label: String,
    /// Ground-truth time in seconds (reference simulation).
    pub truth_s: f64,
    /// TrioSim-predicted time in seconds.
    pub pred_s: f64,
}

impl Row {
    /// Relative error |pred - truth| / truth, as a percentage.
    pub fn error_pct(&self) -> f64 {
        if self.truth_s == 0.0 {
            0.0
        } else {
            100.0 * (self.pred_s - self.truth_s).abs() / self.truth_s
        }
    }
}

/// Prints a validation table in the paper's style and returns the average
/// error percentage.
pub fn print_table(title: &str, rows: &[Row]) -> f64 {
    println!("\n== {title} ==");
    println!(
        "{:<12} {:>14} {:>14} {:>9}",
        "model", "hardware(s)*", "predicted(s)", "error%"
    );
    for r in rows {
        println!(
            "{:<12} {:>14.4} {:>14.4} {:>8.2}%",
            r.label,
            r.truth_s,
            r.pred_s,
            r.error_pct()
        );
    }
    let avg = average_error_pct(rows);
    println!("{:<12} {:>14} {:>14} {:>8.2}%", "average", "", "", avg);
    println!("(*hardware = high-fidelity reference simulation; see DESIGN.md)");
    avg
}

/// Builds a JSON object from `(key, value)` pairs, preserving field order.
pub fn json_obj<K: Into<String>>(fields: Vec<(K, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// A JSON number, with non-finite floats downgraded to `null` (JSON has
/// no NaN/infinity and the serializer rejects them).
pub fn json_num(v: f64) -> Value {
    if v.is_finite() {
        Value::Float(v)
    } else {
        Value::Null
    }
}

/// Machine-readable companion to a figure binary's printed output.
///
/// Accumulates the same numbers the binary prints — validation tables,
/// average errors, case-study totals — and writes them as
/// `results/<name>.json` so downstream tooling (plot scripts, regression
/// diffs) can consume runs without scraping stdout.
#[derive(Debug)]
pub struct Summary {
    name: String,
    fields: Vec<(String, Value)>,
}

impl Summary {
    /// Starts a summary named after the binary (e.g. `"fig06"`).
    pub fn new(name: &str) -> Self {
        Summary {
            name: name.to_string(),
            fields: vec![("figure".to_string(), Value::Str(name.to_string()))],
        }
    }

    /// Records an arbitrary JSON value under `key`.
    pub fn put(&mut self, key: &str, value: Value) {
        self.fields.push((key.to_string(), value));
    }

    /// Records a floating-point number (non-finite becomes `null`).
    pub fn num(&mut self, key: &str, v: f64) {
        self.put(key, json_num(v));
    }

    /// Records an integer.
    pub fn int(&mut self, key: &str, v: u64) {
        self.put(key, Value::UInt(v));
    }

    /// Records a string.
    pub fn text(&mut self, key: &str, v: &str) {
        self.put(key, Value::Str(v.to_string()));
    }

    /// Records a validation table as
    /// `{rows: [{label, truth_s, pred_s, error_pct}], avg_error_pct}` —
    /// the JSON twin of [`print_table`].
    pub fn table(&mut self, key: &str, rows: &[Row]) {
        let json_rows = rows
            .iter()
            .map(|r| {
                json_obj(vec![
                    ("label", Value::Str(r.label.clone())),
                    ("truth_s", json_num(r.truth_s)),
                    ("pred_s", json_num(r.pred_s)),
                    ("error_pct", json_num(r.error_pct())),
                ])
            })
            .collect();
        self.put(
            key,
            json_obj(vec![
                ("rows", Value::Array(json_rows)),
                ("avg_error_pct", json_num(average_error_pct(rows))),
            ]),
        );
    }

    /// The summary as a compact JSON string.
    pub fn to_json(&self) -> String {
        serde_json::to_string(&Value::Object(self.fields.clone()))
            .expect("summary values are pre-sanitized to finite numbers")
    }

    /// Writes `results/<name>.json` (creating `results/` if needed) and
    /// returns the path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from creating the directory or
    /// writing the file.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        self.write_to(&PathBuf::from("results"))
    }

    /// Writes `<dir>/<name>.json` (creating `dir` if needed) and returns
    /// the path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from creating the directory or
    /// writing the file.
    pub fn write_to(&self, dir: &std::path::Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.name));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// Writes the summary and prints its path; a filesystem refusal is a
    /// warning, not a failure (the printed table is the primary output).
    pub fn finish(self) {
        match self.write() {
            Ok(path) => println!("\nsummary: {}", path.display()),
            Err(e) => eprintln!("warning: could not write summary for {}: {e}", self.name),
        }
    }
}

/// Average error percentage across rows.
pub fn average_error_pct(rows: &[Row]) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    rows.iter().map(Row::error_pct).sum::<f64>() / rows.len() as f64
}

/// The per-GPU batch size the paper traces at for a model (128, except
/// Llama at 16 to avoid out-of-memory on real hardware).
pub fn trace_batch(model: ModelId) -> u64 {
    match model {
        ModelId::Llama32_1B => 16,
        _ => 128,
    }
}

/// Collects the single-GPU trace of `model` on `gpu` at the paper's
/// batch size.
pub fn paper_trace(model: ModelId, gpu: GpuModel) -> Trace {
    Tracer::new(gpu).trace(&model.build(trace_batch(model)))
}

/// Runs the TrioSim prediction and the reference ground truth for the
/// same configuration, returning `(prediction, truth)`.
pub fn predict_and_truth(
    trace: &Trace,
    platform: &Platform,
    parallelism: Parallelism,
    global_batch: u64,
) -> (SimReport, SimReport) {
    let pred = SimBuilder::new(trace, platform)
        .parallelism(parallelism)
        .global_batch(global_batch)
        .run();
    let truth = SimBuilder::new(trace, platform)
        .parallelism(parallelism)
        .global_batch(global_batch)
        .fidelity(Fidelity::Reference)
        .run();
    (pred, truth)
}

/// Convenience: a validation row for one model under one configuration.
pub fn validation_row(
    model: ModelId,
    gpu: GpuModel,
    platform: &Platform,
    parallelism: Parallelism,
    global_batch: u64,
) -> Row {
    let trace = paper_trace(model, gpu);
    let (pred, truth) = predict_and_truth(&trace, platform, parallelism, global_batch);
    Row {
        label: model.figure_label().to_string(),
        truth_s: truth.total_time_s(),
        pred_s: pred.total_time_s(),
    }
}

/// Workers in Figure 16's Hop case study.
pub const HOP_WORKERS: usize = 8;

/// Figure 16's Hop case study for one scenario family. [`HOP_WORKERS`]
/// A100s train VGG-11 @128 with decentralized gossip; in each of 8
/// groups, seeded from `seed`, every directed link is slowed by a factor
/// drawn uniformly from [1, 10]. Returns, per group, the speedup one
/// backup worker achieves over none on the ring-based and on the
/// double-ring graph.
pub fn hop_speedups(seed: u64) -> Vec<(f64, f64)> {
    // Compute time from the single-GPU trace, update volume = the model's
    // parameters (as in the Hop paper's setup).
    let trace = paper_trace(ModelId::Vgg11, GpuModel::A100);
    let compute_time_s = trace.phase_time_s(Phase::Forward) + trace.phase_time_s(Phase::Backward);
    let update_bytes = trace.gradient_bytes();
    let config = |backup: usize| HopConfig {
        backup_workers: backup,
        bounded_staleness: 2,
        iterations: 20,
        compute_time_s,
        update_bytes,
        // Hop targets decentralized clusters on commodity interconnects
        // (Ethernet/IB class), where update exchange is comparable to
        // compute — the regime in which backup workers matter.
        link_bandwidth: 10.0e9,
        link_latency_s: 5.0e-6,
        skip_lag: None,
    };
    (0..8u64)
        .map(|group| {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(1000) + group);
            let mut factors = vec![vec![1.0f64; HOP_WORKERS]; HOP_WORKERS];
            for f in factors.iter_mut().flatten() {
                *f = rng.gen_range(1.0..10.0);
            }
            let slowdown = |from: usize, to: usize| factors[from][to];
            let speedup = |graph: HopGraph| {
                let base = HopSimulator::new(graph.clone(), config(0)).run(&slowdown);
                let backup = HopSimulator::new(graph, config(1)).run(&slowdown);
                base.total_time_s / backup.total_time_s
            };
            (
                speedup(HopGraph::ring_based(HOP_WORKERS)),
                speedup(HopGraph::double_ring(HOP_WORKERS)),
            )
        })
        .collect()
}

/// Parses `--<name> <value>` from argv, with a default.
pub fn arg_u64(name: &str, default: u64) -> u64 {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == format!("--{name}") {
            if let Some(v) = args.next() {
                return v.parse().unwrap_or_else(|_| {
                    eprintln!("invalid value for --{name}: {v}; using {default}");
                    default
                });
            }
        }
    }
    default
}

/// Walks `path` through nested canonical-report JSON objects, panicking
/// with the full dotted path on a miss — bench binaries treat a missing
/// field as a harness bug, not a recoverable condition.
fn canonical_field<'a>(v: &'a Value, path: &[&str]) -> &'a Value {
    let mut cur = v;
    for key in path {
        cur = cur
            .get(key)
            .unwrap_or_else(|| panic!("canonical report lacks field `{}`", path.join(".")));
    }
    cur
}

/// Reads a float at `path` inside a canonical report, accepting any
/// numeric JSON variant (the serializer emits counters as unsigned).
pub fn field_f64(v: &Value, path: &[&str]) -> f64 {
    match canonical_field(v, path) {
        Value::Float(f) => *f,
        Value::UInt(u) => *u as f64,
        Value::Int(i) => *i as f64,
        other => panic!("field `{}` is not numeric: {other:?}", path.join(".")),
    }
}

/// Reads an unsigned counter at `path` inside a canonical report.
pub fn field_u64(v: &Value, path: &[&str]) -> u64 {
    match canonical_field(v, path) {
        Value::UInt(u) => *u,
        Value::Int(i) if *i >= 0 => *i as u64,
        other => panic!("field `{}` is not a counter: {other:?}", path.join(".")),
    }
}

/// Whether a host-dependent performance gate should be *enforced* (hard
/// assertion) rather than merely recorded: true when the host has at
/// least `min_cores` cores. Bench binaries with wall-clock or scaling
/// gates (`bench_sweep`, `bench_fidelity`) share this predicate and
/// record it as the `gate_armed` summary field; callers AND in any
/// binary-specific environment overrides on top.
pub fn gate_armed(min_cores: usize) -> bool {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get) >= min_cores
}

/// Worker-thread count for sweep-backed binaries: `--threads <n>` when
/// given, otherwise the host's available parallelism. Thread count never
/// changes results (the sweep aggregate is canonical), only wall time.
pub fn sweep_threads() -> usize {
    let host = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    (arg_u64("threads", host as u64).max(1)) as usize
}

/// Wall-clock measurement helper (Figure 14).
pub fn time_it<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// The subset of models a figure uses, by name, so binaries stay
/// consistent with the paper's sets.
pub fn figure_models(set: &str) -> Vec<ModelId> {
    match set {
        "image" => ModelId::IMAGE_CLASSIFICATION.to_vec(),
        "transformer" => ModelId::TRANSFORMERS.to_vec(),
        "all" => ModelId::ALL.to_vec(),
        // Pipeline figures: the models the paper could run through
        // torch.distributed pipelining without code changes.
        "pipeline" => vec![
            ModelId::ResNet18,
            ModelId::ResNet34,
            ModelId::ResNet50,
            ModelId::ResNet101,
            ModelId::ResNet152,
            ModelId::DenseNet121,
            ModelId::DenseNet161,
            ModelId::DenseNet169,
            ModelId::DenseNet201,
            ModelId::Vgg16,
            ModelId::Gpt2,
            ModelId::BertBase,
        ],
        // Wafer-scale case study: a representative cross-section.
        "wafer" => vec![
            ModelId::ResNet50,
            ModelId::DenseNet169,
            ModelId::Vgg19,
            ModelId::Gpt2,
            ModelId::BertBase,
            ModelId::Llama32_1B,
        ],
        other => panic!("unknown figure model set `{other}`"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure 16 at its default seed, to 1e-3: a change to the vendored
    /// `rand` stream, or to the Hop simulator, moves these speedups.
    #[test]
    fn hop_speedups_at_seed_42_are_pinned() {
        const EXPECTED: [(f64, f64); 8] = [
            (1.3327, 1.3255),
            (1.2900, 1.2548),
            (1.1932, 1.2021),
            (1.3016, 1.2118),
            (1.2621, 1.2524),
            (1.2628, 1.2617),
            (1.1362, 1.1366),
            (1.2451, 1.2427),
        ];
        let got = hop_speedups(42);
        assert_eq!(got.len(), EXPECTED.len());
        for (group, (&(ring, double), &(r, d))) in (1..).zip(got.iter().zip(&EXPECTED)) {
            assert!(
                (ring - r).abs() <= 1e-3 && (double - d).abs() <= 1e-3,
                "group {group}: speedups ({ring}, {double}), pinned ({r}, {d})"
            );
        }
    }

    #[test]
    fn row_error() {
        let r = Row {
            label: "x".into(),
            truth_s: 2.0,
            pred_s: 2.2,
        };
        assert!((r.error_pct() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn average_error_over_rows() {
        let rows = vec![
            Row {
                label: "a".into(),
                truth_s: 1.0,
                pred_s: 1.1,
            },
            Row {
                label: "b".into(),
                truth_s: 1.0,
                pred_s: 0.7,
            },
        ];
        assert!((average_error_pct(&rows) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn summary_serializes_tables_and_scalars() {
        let mut s = Summary::new("figtest");
        s.table(
            "p1",
            &[Row {
                label: "resnet18".into(),
                truth_s: 2.0,
                pred_s: 2.2,
            }],
        );
        s.num("paper_avg_error_pct", 7.39);
        s.int("gpus", 4);
        s.text("platform", "p2");
        let json = s.to_json();
        assert!(json.starts_with(r#"{"figure":"figtest""#));
        assert!(json.contains(r#""label":"resnet18""#));
        assert!(json.contains(r#""avg_error_pct":"#));
        assert!(json.contains(r#""gpus":4"#));
        // Round-trips through the parser.
        let v: Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v.get("platform"), Some(&Value::Str("p2".into())));
    }

    #[test]
    fn summary_downgrades_non_finite_to_null() {
        let mut s = Summary::new("nan");
        s.num("bad", f64::NAN);
        s.num("worse", f64::INFINITY);
        let json = s.to_json();
        assert!(json.contains(r#""bad":null"#));
        assert!(json.contains(r#""worse":null"#));
    }

    #[test]
    fn summary_writes_into_results_dir() {
        let dir = std::env::temp_dir().join("triosim-summary-test/results");
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = Summary::new("smoke");
        s.int("x", 1);
        let path = s.write_to(&dir).unwrap();
        assert_eq!(path, dir.join("smoke.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains(r#""x":1"#));
        let _ = std::fs::remove_dir_all(dir.parent().unwrap());
    }

    #[test]
    fn gate_arms_on_core_count() {
        // One core always satisfies the minimum; usize::MAX never does.
        assert!(gate_armed(1));
        assert!(!gate_armed(usize::MAX));
    }

    #[test]
    fn llama_traces_at_sixteen() {
        assert_eq!(trace_batch(ModelId::Llama32_1B), 16);
        assert_eq!(trace_batch(ModelId::ResNet50), 128);
    }

    #[test]
    fn figure_sets_resolve() {
        assert_eq!(figure_models("image").len(), 13);
        assert_eq!(figure_models("all").len(), 18);
        assert!(!figure_models("pipeline").is_empty());
        assert!(!figure_models("wafer").is_empty());
    }

    #[test]
    fn validation_row_end_to_end_small() {
        // Smoke: one small model on P1.
        let row = validation_row(
            ModelId::ResNet18,
            GpuModel::A40,
            &Platform::p1(),
            Parallelism::DataParallel { overlap: true },
            2 * trace_batch(ModelId::ResNet18),
        );
        assert!(row.truth_s > 0.0 && row.pred_s > 0.0);
        assert!(row.error_pct() < 30.0, "error {}", row.error_pct());
    }
}
