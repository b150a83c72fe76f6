//! The metric registry (the single list `BENCHMARK.json` mirrors), the
//! outcome of one run, and the run's output files.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use serde::Value;

/// Where every output lands, relative to the checkout root.
pub const RESULTS_DIR: &str = "results/benchmark";

/// End-to-end metrics: `(name, unit, better)`. Measured untraced.
pub const END_TO_END: [(&str, &str, &str); 4] = [
    ("setup_s", "s", "lower"),
    ("latency_p50_s", "s", "lower"),
    ("events_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
];

/// Per-layer metrics from the traced run: `(name, unit, better, exact)`.
/// `exact` marks deterministic work counters, which `--compare` diffs
/// exactly; every other value is a host measurement. Allocation counts
/// are not exact: the same `served` inputs made 178,339 or 178,340
/// allocations from one process to the next, likely because std's
/// `HashMap` seeds its hasher per process and the seed decides when a
/// map grows. Every workload runs every layer; only the packet counters
/// are 0 off the packet tier.
pub const PER_LAYER: [(&str, &str, &str, bool); 47] = [
    ("trace.build_s", "s", "lower", false),
    ("trace.ops", "count", "lower", true),
    ("perfmodel.calibrate_s", "s", "lower", false),
    ("perfmodel.calls", "count", "lower", true),
    ("extrapolate.build_s", "s", "lower", false),
    ("extrapolate.tasks", "count", "lower", true),
    ("extrapolate.allocs", "count", "lower", false),
    ("network.build_s", "s", "lower", false),
    ("network.self_s", "s", "lower", false),
    ("network.send_calls", "count", "lower", true),
    ("network.deliver_calls", "count", "lower", true),
    ("network.commands", "count", "lower", true),
    ("network.reallocations", "count", "lower", true),
    ("network.reschedules", "count", "lower", true),
    ("packet.packets_sent", "count", "lower", true),
    ("packet.drops", "count", "lower", true),
    ("packet.ecn_marks", "count", "lower", true),
    ("packet.retransmits", "count", "lower", true),
    ("des.self_s", "s", "lower", false),
    ("des.events_scheduled", "count", "lower", true),
    ("des.events_delivered", "count", "lower", true),
    ("des.events_cancelled", "count", "lower", true),
    ("des.max_pending", "count", "lower", true),
    ("executor.epilogue_s", "s", "lower", false),
    ("executor.timeline_records", "count", "lower", true),
    ("executor.allocs", "count", "lower", false),
    ("executor.alloc_bytes", "bytes", "lower", false),
    ("report.canonical_s", "s", "lower", false),
    ("report.canonical_bytes", "bytes", "lower", true),
    ("report.allocs", "count", "lower", false),
    ("checkpoint.run_s", "s", "lower", false),
    ("checkpoint.canonical_s", "s", "lower", false),
    ("checkpoint.snapshot_bytes", "bytes", "lower", true),
    ("sweep.raw_s", "s", "lower", false),
    ("sweep.job_s", "s", "lower", false),
    ("sweep.journal_bytes", "bytes", "lower", true),
    ("server.submit_s", "s", "lower", false),
    ("server.start_lag_s", "s", "lower", false),
    ("server.run_s", "s", "lower", false),
    ("server.result_lag_s", "s", "lower", false),
    ("server.polls", "count", "lower", false),
    ("bench.trace_overhead_frac", "ratio", "lower", false),
    ("bench.coverage_frac", "ratio", "higher", false),
    ("latency_tail_s", "s", "lower", false),
    ("error_pct", "%", "lower", true),
    ("bench.ops", "count", "higher", false),
    ("bench.probe_s", "s", "lower", false),
];

/// One traced unit's layer numbers, keyed by metric name.
#[derive(Debug, Default, Clone)]
pub struct Sample(pub BTreeMap<&'static str, f64>);

impl Sample {
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_insert(0.0) += v;
    }

    pub fn max(&mut self, name: &'static str, v: f64) {
        let e = self.0.entry(name).or_insert(v);
        *e = e.max(v);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// A run's per-layer values from its traced units: each deterministic
/// counter as the first unit counted it (the unit count depends on host
/// speed, the first unit's inputs only on the seed), every other value as
/// the median over units.
pub fn summarize(samples: &[Sample]) -> BTreeMap<&'static str, f64> {
    let mut names: Vec<&'static str> = samples.iter().flat_map(|s| s.0.keys().copied()).collect();
    names.sort_unstable();
    names.dedup();
    let exact = |n: &str| PER_LAYER.iter().any(|m| m.0 == n && m.3);
    names
        .into_iter()
        .map(|n| {
            let v = if exact(n) {
                samples[0].get(n)
            } else {
                let xs: Vec<f64> = samples.iter().map(|s| s.get(n)).collect();
                crate::stats::median(&xs)
            };
            (n, v)
        })
        .collect()
}

/// Chrome trace "complete" events of a traced run's first units, for
/// Perfetto; recording is off once enough units are kept.
#[derive(Debug)]
pub struct Spans {
    pub events: Vec<Value>,
    epoch: Instant,
    pub on: bool,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            events: Vec::new(),
            epoch: Instant::now(),
            on: false,
        }
    }

    /// One span from `t0` to `t1`, in microseconds since the epoch.
    pub fn add(&mut self, name: &str, t0: Instant, t1: Instant, args: Vec<(&str, f64)>) {
        if !self.on {
            return;
        }
        let us = |t: Instant| t.duration_since(self.epoch).as_secs_f64() * 1e6;
        self.events.push(Value::Object(vec![
            ("name".to_string(), Value::Str(name.to_string())),
            ("ph".to_string(), Value::Str("X".to_string())),
            ("pid".to_string(), Value::UInt(1)),
            ("tid".to_string(), Value::UInt(1)),
            ("ts".to_string(), num(us(t0))),
            ("dur".to_string(), num(us(t1) - us(t0))),
            (
                "args".to_string(),
                Value::Object(
                    args.into_iter()
                        .map(|(k, v)| (k.to_string(), num(v)))
                        .collect(),
                ),
            ),
        ]));
    }
}

/// What one `--workload` run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<&'static str, f64>,
    /// Diagnostic details for the results file: configuration, digests,
    /// the first few failures.
    pub notes: Vec<(String, Value)>,
    /// Chrome trace events of the traced run, for Perfetto.
    pub spans: Vec<Value>,
}

impl Outcome {
    /// Records a failed op, keeping the first few reasons.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("failed op: {why}");
            self.notes.push(("failure".to_string(), Value::Str(why)));
        }
    }

    pub fn note(&mut self, key: &str, v: Value) {
        self.notes.push((key.to_string(), v));
    }

    /// The run's metrics in registry order: end-to-end ones untraced,
    /// per-layer ones traced. A metric the run did not measure is 0.
    pub fn metrics(&self, traced: bool) -> Vec<(&'static str, f64, &'static str)> {
        let get = |n: &str| self.values.get(n).copied().unwrap_or(0.0);
        if traced {
            PER_LAYER
                .iter()
                .map(|&(n, u, _, _)| (n, get(n), u))
                .collect()
        } else {
            END_TO_END.iter().map(|&(n, u, _)| (n, get(n), u)).collect()
        }
    }

    /// The machine-readable last line of a run.
    pub fn result_value(&self, traced: bool) -> Value {
        let metrics = self
            .metrics(traced)
            .into_iter()
            .map(|(n, v, u)| {
                (
                    n.to_string(),
                    Value::Object(vec![
                        ("value".to_string(), num(v)),
                        ("unit".to_string(), Value::Str(u.to_string())),
                    ]),
                )
            })
            .collect();
        Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.correct)),
            ("attempted".to_string(), Value::UInt(self.attempted)),
            ("failed".to_string(), Value::UInt(self.failed)),
            ("metrics".to_string(), Value::Object(metrics)),
        ])
    }
}

/// A JSON number; a non-finite measurement becomes `null` (and the
/// run's `correct` is already false in that case).
pub fn num(v: f64) -> Value {
    if v.is_finite() {
        Value::Float(v)
    } else {
        Value::Null
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// A per-process scratch directory inside the results directory, removed
/// when dropped.
#[derive(Debug)]
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(tag: &str) -> Result<Self, String> {
        let dir = Path::new(RESULTS_DIR).join(format!("work-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Writes `value` as JSON to `results/benchmark/<name>`.
pub fn write_result(name: &str, value: &Value) -> Result<PathBuf, String> {
    std::fs::create_dir_all(RESULTS_DIR).map_err(|e| format!("{RESULTS_DIR}: {e}"))?;
    let path = Path::new(RESULTS_DIR).join(name);
    let text = serde_json::to_string(value).map_err(|e| e.to_string())?;
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is the machine-readable copy of the registry; the
    /// two must list the same metrics in the same order.
    #[test]
    fn registry_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let v: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String, String)> {
            v.get(key)
                .and_then(Value::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| match m.get(k) {
                        Some(Value::Str(s)) => s.clone(),
                        other => panic!("{key}: `{k}` is {other:?}"),
                    };
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|&(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect();
        let layers: Vec<_> = PER_LAYER
            .iter()
            .map(|&(n, u, b, _)| (n.to_string(), u.to_string(), b.to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        assert_eq!(listed("per_layer"), layers);
    }

    #[test]
    fn counters_come_from_the_first_unit_and_timings_are_medians() {
        let unit = |events, secs| {
            let mut s = Sample::default();
            s.add("des.events_delivered", events);
            s.add("des.self_s", secs);
            s
        };
        let v = summarize(&[unit(10.0, 3.0), unit(20.0, 1.0), unit(30.0, 2.0)]);
        assert_eq!(v["des.events_delivered"], 10.0);
        assert_eq!(v["des.self_s"], 2.0);
    }

    #[test]
    fn missing_layers_report_zero_in_registry_order() {
        let mut o = Outcome::default();
        o.values.insert("des.self_s", 0.5);
        let m = o.metrics(true);
        assert_eq!(m.len(), PER_LAYER.len());
        assert_eq!(m[0], ("trace.build_s", 0.0, "s"));
        assert!(m.contains(&("des.self_s", 0.5, "s")));
        let e = o.metrics(false);
        assert_eq!(
            e.iter().map(|m| m.0).collect::<Vec<_>>(),
            ["setup_s", "latency_p50_s", "events_per_s", "peak_rss_mb"]
        );
    }
}
