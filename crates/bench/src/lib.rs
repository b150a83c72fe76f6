//! Regenerates every table and figure of the TrioSim paper.
//!
//! [`FIGURES`] is the whole reproduction: one entry per table, figure and
//! ablation, each with its name, its title, what the paper reports, and
//! one function that measures it. The function returns a [`Measured`]:
//! tables of named columns, named scalars, and the figure's shape claims,
//! each with whether it holds. The `repro` binary runs entries by name,
//! prints them with [`Figure::print`] and writes `results/<name>.json`
//! with [`Figure::json`]; the golden test (`tests/golden.rs`) compares the
//! same JSON with `tests/golden/<name>.json`.
//!
//! The validation figures (6–10) are rows of one spec, [`VALIDATION`]:
//! each row runs the TrioSim prediction and the reference ground-truth
//! simulation (the hardware stand-in, see `DESIGN.md` §2) for every model
//! of its set, directly through `SimBuilder`.
//!
//! Everything is deterministic. Only Figure 16 takes a seed: `repro
//! --seed <n>` draws its slowdown scenarios (default [`DEFAULT_SEED`]). The
//! `bench_checkpoint` and `bench_profile` binaries gate the wall-clock
//! overhead of snapshots and of the self-profiler, and write a
//! [`Summary`] to `results/BENCH_*.json`.

mod figures;
mod validation;

use std::path::{Path, PathBuf};

use serde::Value;
use triosim::{Fidelity, Parallelism, Platform, SimBuilder, SimReport};
use triosim_modelzoo::ModelId;
use triosim_trace::{GpuModel, Trace, Tracer};

pub use validation::{GlobalBatch, Validation, VALIDATION};

/// Figure 16's seed when `repro` is given no `--seed`.
pub const DEFAULT_SEED: u64 = 42;

/// One table, figure or ablation of the reproduction.
#[derive(Debug)]
pub struct Figure {
    /// Its name on the `repro` command line and in `results/<name>.json`.
    pub name: &'static str,
    /// What it shows.
    pub title: &'static str,
    /// What the paper reports. The validation figures' average errors
    /// are in [`VALIDATION`], one per table.
    pub paper: &'static str,
    /// Measures the figure; the argument is the seed (Figure 16 only).
    pub measure: fn(u64) -> Measured,
}

/// Every table, figure and ablation, in the paper's order.
pub const FIGURES: [Figure; 15] = [
    Figure {
        name: "table01",
        title: "feature comparison with similar performance modeling tools",
        paper: "qualitative; reprinted from the paper",
        measure: figures::table01,
    },
    Figure {
        name: "fig06",
        title: "single-GPU validation, traced at batch 128, predicted at 256",
        paper: "models out of memory at batch 256 on real hardware are left out",
        measure: figures::fig06,
    },
    Figure {
        name: "fig07",
        title: "standard DataParallel on P1 (2x A40, PCIe)",
        paper: "the AllReduce waits for the whole backward pass; \
                Python dispatch makes DP the least accurate",
        measure: figures::fig07,
    },
    Figure {
        name: "fig08",
        title: "DistributedDataParallel on P1 and P2",
        paper: "bucketed AllReduce overlaps the backward pass",
        measure: |_| validation::measure("fig08"),
    },
    Figure {
        name: "fig09",
        title: "tensor parallelism on P1 and P2",
        paper: "P2's error is larger: more ranks, smaller shards",
        measure: figures::fig09,
    },
    Figure {
        name: "fig10",
        title: "GPipe on 2 and 4 A100s with 1, 2 and 4 chunks",
        paper: "the 4-chunk error is the largest on 2 GPUs",
        measure: figures::fig10,
    },
    Figure {
        name: "fig11",
        title: "new-GPU prediction on P3 (8x H100) at batch 256",
        paper: "case 1 (A40/A100 traces at batch 128): DDP 9.09%, TP 9.07%, \
                PP 5.65% (1 chunk) / 16.28% (2 chunks); case 2 (H100 trace): \
                6.69% / 9.09% / 4.20% / 13.76%",
        measure: figures::fig11,
    },
    Figure {
        name: "fig12",
        title: "DP vs TP vs PP on P2 (4x A100), total batch 128",
        paper: "TrioSim ranks the strategies as the hardware does; \
                DP is always the most efficient at constant total workload",
        measure: figures::fig12,
    },
    Figure {
        name: "fig13",
        title: "communication/computation breakdown, TP and DDP on P1",
        paper: "TP's communication share is higher than DP's on P1",
        measure: figures::fig13,
    },
    Figure {
        name: "fig14",
        title: "simulator wall-clock time, DDP on P2 (4x A100)",
        paper: "TrioSim completes simulations within seconds",
        measure: figures::fig14,
    },
    Figure {
        name: "fig15",
        title: "wafer-scale 84 GPUs (12x7), DP, electrical mesh vs photonic",
        paper: "communication dominates on the electrical mesh (VGG-19: 92.21%); \
                the photonic network cuts communication time roughly in half",
        measure: figures::fig15,
    },
    Figure {
        name: "fig16",
        title: "Hop with 1 backup worker, 8x A100, VGG-11 at batch 128",
        paper: "the backup worker's effect varies greatly with the slowdown scenario",
        measure: figures::fig16,
    },
    Figure {
        name: "ablation_allreduce",
        title: "AllReduce algorithm x topology x payload",
        paper: "beyond the paper: tree wins small payloads, ring wins large ones on rings, \
                halving-doubling wins large ones on switches",
        measure: figures::ablation_allreduce,
    },
    Figure {
        name: "ablation_compute",
        title: "Li's Model linear features vs NeuSight-style sublinear ones (H100)",
        paper: "beyond the paper (§8.2): sublinear features track the utilization ramp; \
                end-to-end TP error is dominated by framework dispatch overhead",
        measure: figures::ablation_compute,
    },
    Figure {
        name: "ablation_hybrid",
        title: "hybrid DP x PP vs the pure strategies on NVLink rings",
        paper: "beyond the paper: hybrid trades DDP's global AllReduce for PP's bubble; \
                DDP and HP rows process dp_groups x batch, PP one batch",
        measure: figures::ablation_hybrid,
    },
];

/// The entry of [`FIGURES`] named `name`.
pub fn figure(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.name == name)
}

/// One table of a figure.
#[derive(Debug)]
pub(crate) struct Table {
    /// Its name, unique within the figure.
    pub name: String,
    /// Column names. `*_pct` columns print as percentages, and `*wall_s`
    /// columns are host wall-clock readings.
    pub columns: Vec<&'static str>,
    /// One cell per column in every row.
    pub rows: Vec<Vec<Value>>,
}

/// What a figure measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Tables of named columns.
    pub(crate) tables: Vec<Table>,
    /// Named single values, named like columns.
    pub(crate) scalars: Vec<(String, Value)>,
    /// The figure's shape claims, each with whether it holds.
    pub claims: Vec<(String, bool)>,
}

impl Measured {
    /// Adds a table; `columns` names its columns, separated by `", "`.
    pub(crate) fn table(
        &mut self,
        name: impl Into<String>,
        columns: &'static str,
        rows: Vec<Vec<Value>>,
    ) {
        let columns: Vec<&'static str> = columns.split(", ").collect();
        debug_assert!(rows.iter().all(|row| row.len() == columns.len()));
        let name = name.into();
        self.tables.push(Table {
            name,
            columns,
            rows,
        });
    }

    /// Adds a scalar.
    pub(crate) fn scalar(&mut self, name: impl Into<String>, value: Value) {
        self.scalars.push((name.into(), value));
    }

    /// Adds a shape claim and whether it holds.
    pub(crate) fn claim(&mut self, claim: impl Into<String>, holds: bool) {
        self.claims.push((claim.into(), holds));
    }

    /// The number held by scalar `name`.
    ///
    /// # Panics
    ///
    /// Panics if there is no such scalar or it is not a float.
    pub(crate) fn number(&self, name: &str) -> f64 {
        match self.scalars.iter().find(|(n, _)| n == name) {
            Some((_, Value::Float(v))) => *v,
            other => panic!("no number scalar `{name}` (found {other:?})"),
        }
    }
}

impl Figure {
    /// The figure as JSON text: its name, title and paper result, then
    /// its tables, scalars and claims. With `host_times` false, columns
    /// and scalars named `*wall_s` are left out, so that the text is the
    /// same on every host.
    pub fn json(&self, m: &Measured, host_times: bool) -> String {
        let keep = |name: &str| host_times || !name.ends_with("wall_s");
        let tables = m.tables.iter().map(|t| {
            let kept: Vec<usize> = (0..t.columns.len())
                .filter(|&i| keep(t.columns[i]))
                .collect();
            let pick =
                |row: &Vec<Value>| Value::Array(kept.iter().map(|&i| row[i].clone()).collect());
            let table = json_obj(vec![
                (
                    "columns",
                    pick(&t.columns.iter().map(|c| text(c)).collect()),
                ),
                ("rows", Value::Array(t.rows.iter().map(pick).collect())),
            ]);
            (t.name.clone(), table)
        });
        let scalars = m.scalars.iter().filter(|(n, _)| keep(n)).cloned();
        let claims = m
            .claims
            .iter()
            .map(|(c, holds)| (c.clone(), Value::Bool(*holds)));
        let value = json_obj(vec![
            ("figure", text(self.name)),
            ("title", text(self.title)),
            ("paper", text(self.paper)),
            ("tables", Value::Object(tables.collect())),
            ("scalars", Value::Object(scalars.collect())),
            ("claims", Value::Object(claims.collect())),
        ]);
        let mut out = String::new();
        pretty(&value, 0, &mut out);
        out.push('\n');
        out
    }

    /// Prints the figure: its tables, its scalars, then each claim marked
    /// ✓ or ✗.
    pub fn print(&self, m: &Measured) {
        println!(
            "\n== {}: {} ==\npaper: {}",
            self.name, self.title, self.paper
        );
        for t in &m.tables {
            let cells: Vec<Vec<String>> = (t.rows.iter())
                .map(|row| t.columns.iter().zip(row).map(|(c, v)| cell(c, v)).collect())
                .collect();
            let width = |i: usize| {
                cells
                    .iter()
                    .map(|r| r[i].chars().count())
                    .fold(t.columns[i].len(), usize::max)
            };
            let line = |row: Vec<&str>| {
                let padded: Vec<String> = (row.iter().enumerate())
                    .map(|(i, s)| match t.rows.first().map(|r| &r[i]) {
                        Some(Value::Str(_)) => format!("{s:<w$}", w = width(i)),
                        _ => format!("{s:>w$}", w = width(i)),
                    })
                    .collect();
                println!("{}", padded.join("  ").trim_end());
            };
            println!("\n-- {} --", t.name);
            line(t.columns.clone());
            for row in &cells {
                line(row.iter().map(String::as_str).collect());
            }
        }
        println!();
        for (name, v) in &m.scalars {
            println!("{name}: {}", cell(name, v));
        }
        for (claim, holds) in &m.claims {
            println!("{} {claim}", if *holds { '✓' } else { '✗' });
        }
    }
}

/// A cell as printed: `*_pct` floats to 2 places with `%`, other floats
/// to 4 places.
fn cell(column: &str, v: &Value) -> String {
    match v {
        Value::Float(x) if column.ends_with("_pct") => format!("{x:.2}%"),
        Value::Float(x) => format!("{x:.4}"),
        Value::Str(s) => s.clone(),
        Value::Array(items) => items
            .iter()
            .map(|v| cell(column, v))
            .collect::<Vec<_>>()
            .join(", "),
        other => serde_json::to_string(other).unwrap_or_default(),
    }
}

/// Writes `v` as JSON with each object field on a line of its own, and
/// each entry of an array that holds arrays or objects, so that a table
/// row is one line.
fn pretty(v: &Value, indent: usize, out: &mut String) {
    let container = |v: &Value| matches!(v, Value::Array(_) | Value::Object(_));
    let entries: Vec<(Option<&str>, &Value)> = match v {
        Value::Object(fields) if !fields.is_empty() => {
            fields.iter().map(|(k, v)| (Some(k.as_str()), v)).collect()
        }
        Value::Array(items) if items.iter().any(container) => {
            items.iter().map(|item| (None, item)).collect()
        }
        _ => {
            return out
                .push_str(&serde_json::to_string(v).expect("figure values are finite or null"))
        }
    };
    let (open, close) = if matches!(v, Value::Array(_)) {
        ('[', ']')
    } else {
        ('{', '}')
    };
    out.push(open);
    for (i, (key, item)) in entries.into_iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&" ".repeat(indent + 2));
        if let Some(key) = key {
            out.push_str(&serde_json::to_string(&text(key)).expect("strings serialize"));
            out.push_str(": ");
        }
        pretty(item, indent + 2, out);
    }
    out.push('\n');
    out.push_str(&" ".repeat(indent));
    out.push(close);
}

/// Writes `contents` to `<dir>/<name>.json`, creating `dir` if needed,
/// and returns the path. The binaries write into `results/`.
///
/// # Errors
///
/// Propagates filesystem errors from creating the directory or writing
/// the file.
pub fn write_result(dir: &Path, name: &str, contents: &str) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, contents)?;
    Ok(path)
}

/// The JSON summary of an overhead bench, written to
/// `results/<name>.json` as one compact object.
#[derive(Debug)]
pub struct Summary {
    name: String,
    fields: Vec<(String, Value)>,
}

impl Summary {
    /// Starts a summary named after the bench (e.g. `"BENCH_profile"`).
    pub fn new(name: &str) -> Self {
        Summary {
            name: name.to_string(),
            fields: vec![("figure".to_string(), text(name))],
        }
    }

    /// Records a JSON value under `key`.
    pub fn put(&mut self, key: &str, value: Value) {
        self.fields.push((key.to_string(), value));
    }

    /// Records a float (non-finite becomes `null`).
    pub fn num(&mut self, key: &str, v: f64) {
        self.put(key, num(v));
    }

    /// Records an integer.
    pub fn int(&mut self, key: &str, v: u64) {
        self.put(key, Value::UInt(v));
    }

    /// The summary as one compact JSON object.
    pub fn to_json(&self) -> String {
        serde_json::to_string(&Value::Object(self.fields.clone()))
            .expect("fields are finite or null")
    }

    /// Writes the summary to `results/` and prints its path; a filesystem
    /// refusal is a warning, as the bench's gate has already passed.
    pub fn finish(self) {
        match write_result(Path::new("results"), &self.name, &self.to_json()) {
            Ok(path) => println!("\nsummary: {}", path.display()),
            Err(e) => eprintln!("warning: could not write summary for {}: {e}", self.name),
        }
    }
}

/// Builds a JSON object from `(key, value)` pairs, preserving their order.
pub fn json_obj<K: Into<String>>(fields: Vec<(K, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// A JSON number; a non-finite float becomes `null`, as JSON has no NaN
/// or infinity.
pub fn num(v: f64) -> Value {
    if v.is_finite() {
        Value::Float(v)
    } else {
        Value::Null
    }
}

/// A JSON string.
pub(crate) fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

/// Relative error `|pred - truth| / truth`, as a percentage.
fn error_pct(pred: f64, truth: f64) -> f64 {
    100.0 * (pred - truth).abs() / truth
}

/// The per-GPU batch size the paper traces at for a model (128, except
/// Llama at 16 to avoid out-of-memory on real hardware).
fn trace_batch(model: ModelId) -> u64 {
    match model {
        ModelId::Llama32_1B => 16,
        _ => 128,
    }
}

/// The single-GPU trace of `model` on `gpu` at the paper's batch size.
fn paper_trace(model: ModelId, gpu: GpuModel) -> Trace {
    Tracer::new(gpu).trace(&model.build(trace_batch(model)))
}

/// Runs the TrioSim prediction and the reference ground truth of the
/// same configuration, returning `(prediction, truth)`.
fn predict_and_truth(
    trace: &Trace,
    platform: &Platform,
    parallelism: Parallelism,
    global_batch: u64,
) -> (SimReport, SimReport) {
    let run = |fidelity| {
        SimBuilder::new(trace, platform)
            .parallelism(parallelism)
            .global_batch(global_batch)
            .fidelity(fidelity)
            .run()
    };
    (run(Fidelity::TrioSim), run(Fidelity::Reference))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// JSON has no NaN or infinity: figure cells and bench summaries
    /// write `null` for them.
    #[test]
    fn summary_downgrades_non_finite_to_null() {
        let mut s = Summary::new("nan");
        s.num("bad", f64::NAN);
        s.num("worse", f64::INFINITY);
        s.num("fine", 1.5);
        let values: Vec<&Value> = s.fields.iter().skip(1).map(|(_, v)| v).collect();
        assert_eq!(values, [&Value::Null, &Value::Null, &Value::Float(1.5)]);
    }

    #[test]
    fn row_error() {
        assert!((error_pct(2.2, 2.0) - 10.0).abs() < 1e-9);
        assert!((error_pct(0.7, 1.0) - 30.0).abs() < 1e-9);
    }

    #[test]
    fn llama_traces_at_sixteen() {
        assert_eq!(trace_batch(ModelId::Llama32_1B), 16);
        assert_eq!(trace_batch(ModelId::ResNet50), 128);
    }

    /// A figure's JSON parses back with every table, scalar and claim,
    /// puts each table row on a line of its own, and leaves host
    /// wall-clock columns and scalars out when asked.
    #[test]
    fn summary_serializes_tables_and_scalars() {
        let mut m = Measured::default();
        let rows = (0..8)
            .map(|i| vec![text("RN-18"), num(f64::from(i)), num(0.25)])
            .collect();
        m.table("runs", "label, time_s, sim_wall_s", rows);
        m.scalar("total_wall_s", num(2.0));
        m.scalar("models", Value::UInt(1));
        m.claim("time grows", true);
        let fig = &FIGURES[0];
        let full: Value = serde_json::from_str(&fig.json(&m, true)).unwrap();
        let runs = full.get("tables").and_then(|t| t.get("runs")).unwrap();
        assert_eq!(
            runs.get("rows")
                .and_then(Value::as_array)
                .map(<[Value]>::len),
            Some(8)
        );
        assert_eq!(
            full.get("scalars").and_then(|s| s.get("total_wall_s")),
            Some(&num(2.0))
        );
        assert_eq!(
            full.get("claims").and_then(|c| c.get("time grows")),
            Some(&Value::Bool(true))
        );
        let stable = fig.json(&m, false);
        assert!(
            stable.lines().any(|l| l.trim() == r#"["RN-18",7.0]"#),
            "{stable}"
        );
        assert!(!stable.contains("wall_s"), "{stable}");
        assert!(
            stable.lines().any(|l| l.trim() == r#""models": 1"#),
            "{stable}"
        );
    }

    fn float(v: &Value) -> f64 {
        match v {
            Value::Float(x) => *x,
            other => panic!("not a float: {other:?}"),
        }
    }

    fn scalar<'a>(m: &'a Measured, name: &str) -> Option<&'a Value> {
        m.scalars.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// A validation table's average error is the mean of its rows'
    /// `|pred - truth| / truth`, over the models it keeps: a model out of
    /// memory at the global batch is listed, not averaged.
    #[test]
    fn average_error_over_rows() {
        let row = Validation {
            figure: "fig06",
            table: "a40",
            models: &[ModelId::ResNet18, ModelId::ResNet34, ModelId::ResNet101],
            gpu: GpuModel::A40,
            platform: "pcie:A40:1",
            parallelism: Parallelism::DataParallel { overlap: false },
            batch: GlobalBatch::Fixed(256),
            drop_oom: true,
            paper_pct: 1.10,
        };
        let mut m = Measured::default();
        validation::measure_row(&row, &mut m);
        assert_eq!(
            scalar(&m, "a40_oom_excluded"),
            Some(&Value::Array(vec![text("RN-101")]))
        );
        let errors: Vec<f64> = (m.tables[0].rows.iter())
            .map(|cells| {
                let (truth, pred, error) = (float(&cells[1]), float(&cells[2]), float(&cells[3]));
                assert_eq!(error, error_pct(pred, truth));
                error
            })
            .collect();
        assert_eq!(errors.len(), 2);
        assert_eq!(m.number("a40_avg_error_pct"), (errors[0] + errors[1]) / 2.0);
    }

    /// Smoke: one small model through a validation row, DDP on P1 at the
    /// traced batch on each of its 2 GPUs.
    #[test]
    fn validation_row_end_to_end_small() {
        let row = Validation {
            figure: "fig08",
            table: "P1",
            models: &[ModelId::ResNet18],
            gpu: GpuModel::A40,
            platform: "p1",
            parallelism: Parallelism::DataParallel { overlap: true },
            batch: GlobalBatch::PerGpu,
            drop_oom: false,
            paper_pct: 2.91,
        };
        let mut m = Measured::default();
        validation::measure_row(&row, &mut m);
        assert_eq!(scalar(&m, "P1_gpus"), Some(&Value::UInt(2)));
        assert_eq!(scalar(&m, "P1_paper_avg_error_pct"), Some(&num(2.91)));
        assert_eq!(scalar(&m, "P1_oom_excluded"), None);
        let cells = &m.tables[0].rows[0];
        assert_eq!(cells[0], text("RN-18"));
        assert!(float(&cells[1]) > 0.0 && float(&cells[2]) > 0.0);
        let error = m.number("P1_avg_error_pct");
        assert!(error < 30.0, "error {error}");
    }

    /// Every entry of [`FIGURES`] resolves by its own name and no other
    /// name does. Every validation row belongs to one of Figures 6–10,
    /// names a platform that parses to the GPU it traces on, is the only
    /// row of its table name in its figure, and runs the paper's model
    /// set: all 18 models, or the 12 pipeline models in Figure 10.
    #[test]
    fn figure_sets_resolve() {
        for fig in &FIGURES {
            assert_eq!(FIGURES.iter().filter(|f| f.name == fig.name).count(), 1);
            assert_eq!(figure(fig.name).map(|f| f.title), Some(fig.title));
        }
        assert!(figure("fig05").is_none() && figure("all").is_none());
        for row in &VALIDATION {
            let name = format!("{}/{}", row.figure, row.table);
            assert!(
                ["fig06", "fig07", "fig08", "fig09", "fig10"].contains(&row.figure),
                "{name}"
            );
            let platform: Platform = row.platform.parse().expect("validation platforms parse");
            assert_eq!(platform.gpu(), row.gpu, "{name}");
            let same_table = VALIDATION
                .iter()
                .filter(|r| r.figure == row.figure && r.table == row.table);
            assert_eq!(same_table.count(), 1, "{name}");
            let set = if row.figure == "fig10" { 12 } else { 18 };
            assert_eq!(row.models.len(), set, "{name}");
            for (i, model) in row.models.iter().enumerate() {
                assert!(!row.models[..i].contains(model), "{name}: {model:?} twice");
            }
        }
    }

    /// A summary is written as `<dir>/<name>.json`, creating the
    /// directory if it is missing.
    #[test]
    fn summary_writes_into_results_dir() {
        let root = std::env::temp_dir().join(format!("triosim-summary-{}", std::process::id()));
        let dir = root.join("results");
        let _ = std::fs::remove_dir_all(&root);
        let mut s = Summary::new("smoke");
        s.int("x", 1);
        let path = write_result(&dir, &s.name, &s.to_json()).unwrap();
        assert_eq!(path, dir.join("smoke.json"));
        let written = std::fs::read_to_string(&path).unwrap();
        assert_eq!(written, r#"{"figure":"smoke","x":1}"#);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
