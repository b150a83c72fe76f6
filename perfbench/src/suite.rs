//! The full set (every workload, each run in a child process of its own)
//! and `--compare`, which applies the bounds in `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

use serde::Value;

use crate::host::Host;
use crate::metrics::{num, write_result, PER_LAYER};
use crate::stats::{median, spread};
use crate::workload::WORKLOADS;

/// One child run's last line.
#[derive(Debug)]
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)` in the order the child printed them.
    metrics: Vec<(String, f64, String)>,
}

fn as_u64(v: Option<&Value>) -> Option<u64> {
    match v? {
        Value::UInt(n) => Some(*n),
        Value::Int(n) => u64::try_from(*n).ok(),
        _ => None,
    }
}

fn as_f64(v: Option<&Value>) -> Option<f64> {
    match v? {
        Value::Float(x) => Some(*x),
        Value::UInt(n) => Some(*n as f64),
        Value::Int(n) => Some(*n as f64),
        _ => None,
    }
}

fn as_str(v: Option<&Value>) -> Option<&str> {
    match v? {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

fn parse_result(line: &str) -> Result<ChildResult, String> {
    let v: Value = serde_json::from_str(line).map_err(|e| format!("bad result line: {e}"))?;
    let metrics = v
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("result line has no metrics")?
        .iter()
        .map(|(name, m)| {
            Ok((
                name.clone(),
                as_f64(m.get("value")).ok_or_else(|| format!("{name}: no value"))?,
                as_str(m.get("unit")).unwrap_or("").to_string(),
            ))
        })
        .collect::<Result<_, String>>()?;
    Ok(ChildResult {
        correct: v.get("correct") == Some(&Value::Bool(true)),
        attempted: as_u64(v.get("attempted")).ok_or("no attempted")?,
        failed: as_u64(v.get("failed")).ok_or("no failed")?,
        metrics,
    })
}

/// Runs one workload in a child process of this binary and waits for it.
fn child(workload: &str, seed: u64, seconds: u64, traced: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    eprintln!(
        "running {workload} seed {seed}{}",
        if traced { " (traced)" } else { "" }
    );
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}",
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    parse_result(stdout.lines().last().unwrap_or(""))
}

/// Untraced runs per workload in a full set.
const SET_RUNS: u64 = 10;

/// Runs every workload `SET_RUNS` times untraced (seeds
/// `seed..seed+SET_RUNS`) and once traced (seed `seed`), prints every
/// metric as `workload metric value unit`, and writes the set to
/// `results/benchmark/<out>`. Returns whether every run was correct with
/// no failed op.
pub fn run_set(seed: u64, seconds: u64, out: &str) -> Result<bool, String> {
    let host = Host::detect();
    println!("{}", host.line());
    let mut all_ok = true;
    let mut workloads = Vec::new();
    for workload in WORKLOADS {
        let mut e2e: Vec<(String, String, Vec<f64>)> = Vec::new();
        let (mut attempted, mut failed, mut correct) = (0, 0, true);
        for r in 0..SET_RUNS {
            let res = child(workload, seed + r, seconds, false)?;
            attempted += res.attempted;
            failed += res.failed;
            correct &= res.correct;
            for (i, (name, v, unit)) in res.metrics.into_iter().enumerate() {
                match e2e.get_mut(i) {
                    Some(slot) => slot.2.push(v),
                    None => e2e.push((name, unit, vec![v])),
                }
            }
        }
        let traced = child(workload, seed, seconds, true)?;
        attempted += traced.attempted;
        failed += traced.failed;
        correct &= traced.correct;
        all_ok &= correct && failed == 0;
        for (name, unit, values) in &e2e {
            println!("{workload} {name} {} {unit}", median(values));
        }
        for (name, v, unit) in &traced.metrics {
            println!("{workload} {name} {v} {unit}");
        }
        println!(
            "{workload} failed_frac {} ratio",
            failed as f64 / attempted.max(1) as f64
        );
        println!("{workload} correct {correct}");
        let obj = |pairs: Vec<(String, Value)>| Value::Object(pairs);
        workloads.push(obj(vec![
            ("name".into(), Value::Str(workload.to_string())),
            ("correct".into(), Value::Bool(correct)),
            ("attempted".into(), Value::UInt(attempted)),
            ("failed".into(), Value::UInt(failed)),
            (
                "end_to_end".into(),
                obj(e2e
                    .iter()
                    .map(|(n, u, vs)| {
                        (
                            n.clone(),
                            obj(vec![
                                ("unit".into(), Value::Str(u.clone())),
                                (
                                    "values".into(),
                                    Value::Array(vs.iter().map(|&v| num(v)).collect()),
                                ),
                            ]),
                        )
                    })
                    .collect()),
            ),
            (
                "per_layer".into(),
                obj(traced
                    .metrics
                    .iter()
                    .map(|(n, v, u)| {
                        (
                            n.clone(),
                            obj(vec![
                                ("unit".into(), Value::Str(u.clone())),
                                ("value".into(), num(*v)),
                            ]),
                        )
                    })
                    .collect()),
            ),
        ]));
    }
    let set = Value::Object(vec![
        ("host".into(), host.to_value()),
        ("seed".into(), Value::UInt(seed)),
        ("seconds".into(), Value::UInt(seconds)),
        ("runs".into(), Value::UInt(SET_RUNS)),
        ("workloads".into(), Value::Array(workloads)),
    ]);
    let path = write_result(out, &set)?;
    eprintln!("set written to {}", path.display());
    Ok(all_ok)
}

/// How a metric moved between two sets of runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Within,
    /// Run-to-run spread is wider than the bound, so no call is made.
    Unresolved,
}

/// Compares the runs of `b` against those of `a` under `bound` (a share
/// of `a`'s median). A spread wider than the bound on either side is
/// unresolved unless every run of `b` beats every run of `a`.
pub fn verdict(a: &[f64], b: &[f64], bound: f64, lower_is_better: bool) -> (Verdict, f64) {
    let (ma, mb) = (median(a), median(b));
    let change = (mb - ma) / ma.abs();
    let gain = if lower_is_better { -change } else { change };
    let fold = |f: fn(f64, f64) -> f64, xs: &[f64], init| xs.iter().copied().fold(init, f);
    let b_beats_all = if lower_is_better {
        fold(f64::max, b, f64::NEG_INFINITY) < fold(f64::min, a, f64::INFINITY)
    } else {
        fold(f64::min, b, f64::INFINITY) > fold(f64::max, a, f64::NEG_INFINITY)
    };
    let v = if spread(a) > bound || spread(b) > bound {
        if b_beats_all {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if gain < -bound {
        Verdict::Worse
    } else if gain > bound {
        Verdict::Better
    } else {
        Verdict::Within
    };
    (v, change)
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// `(bound, lower_is_better)` per end-to-end metric, from
/// `BENCHMARK.json` in the working directory.
fn bounds() -> Result<BTreeMap<String, (f64, bool)>, String> {
    let spec = load("BENCHMARK.json")?;
    spec.get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = as_str(m.get("name")).ok_or("end_to_end entry without a name")?;
            let bound = as_f64(m.get("bound")).ok_or_else(|| format!("{name}: no bound"))?;
            Ok((
                name.to_string(),
                (bound, as_str(m.get("better")) == Some("lower")),
            ))
        })
        .collect()
}

/// Prints the verdict for every (workload, end-to-end metric) pair and
/// an exact diff of every deterministic counter. Returns whether the two
/// sets agree: nothing worse, counters identical, both sets correct.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let bounds = bounds()?;
    let exact: Vec<&str> = PER_LAYER.iter().filter(|m| m.3).map(|m| m.0).collect();
    let workloads = |set: &Value| -> Vec<Value> {
        set.get("workloads")
            .and_then(Value::as_array)
            .map(<[Value]>::to_vec)
            .unwrap_or_default()
    };
    let mut agree = true;
    for wa in workloads(&a) {
        let name = as_str(wa.get("name")).unwrap_or("?").to_string();
        let Some(wb) = workloads(&b)
            .into_iter()
            .find(|w| as_str(w.get("name")) == Some(&name))
        else {
            println!("{name}: missing from {path_b}");
            agree = false;
            continue;
        };
        for w in [&wa, &wb] {
            let (failed, ok) = (
                as_u64(w.get("failed")),
                w.get("correct") == Some(&Value::Bool(true)),
            );
            if failed != Some(0) || !ok {
                println!("{name}: a set has failed ops or incorrect output");
                agree = false;
            }
        }
        for (metric, &(bound, lower)) in &bounds {
            let values = |w: &Value| -> Vec<f64> {
                w.get("end_to_end")
                    .and_then(|e| e.get(metric))
                    .and_then(|m| m.get("values"))
                    .and_then(Value::as_array)
                    .map(|vs| vs.iter().filter_map(|v| as_f64(Some(v))).collect())
                    .unwrap_or_default()
            };
            let (va, vb) = (values(&wa), values(&wb));
            if va.is_empty() || vb.is_empty() {
                println!("{name} {metric}: missing");
                agree = false;
                continue;
            }
            let (v, change) = verdict(&va, &vb, bound, lower);
            agree &= v != Verdict::Worse;
            println!(
                "{name} {metric} {} -> {} ({:+.2}%, spread {:.2}% / {:.2}%, bound {:.0}%): {v:?}",
                median(&va),
                median(&vb),
                100.0 * change,
                100.0 * spread(&va),
                100.0 * spread(&vb),
                100.0 * bound,
            );
        }
        for metric in &exact {
            let value = |w: &Value| {
                as_f64(
                    w.get("per_layer")
                        .and_then(|p| p.get(metric))
                        .and_then(|m| m.get("value")),
                )
            };
            let (x, y) = (value(&wa), value(&wb));
            let same = x == y;
            agree &= same;
            let show = |v: Option<f64>| v.map_or("missing".to_string(), |v| v.to_string());
            println!(
                "{name} {metric} {} {} {}",
                show(x),
                if same { "==" } else { "!=" },
                show(y)
            );
        }
    }
    Ok(agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_check_calls_each_direction() {
        let a = [1.00, 1.01, 0.99, 1.00, 1.00];
        // Lower is better: 5% slower within a 10% bound, 20% slower is worse.
        assert_eq!(
            verdict(&a, &[1.05, 1.05, 1.04, 1.06, 1.05], 0.10, true).0,
            Verdict::Within
        );
        assert_eq!(
            verdict(&a, &[1.2, 1.21, 1.19, 1.2, 1.2], 0.10, true).0,
            Verdict::Worse
        );
        assert_eq!(
            verdict(&a, &[0.8, 0.81, 0.79, 0.8, 0.8], 0.10, true).0,
            Verdict::Better
        );
        // Higher is better flips the call.
        assert_eq!(
            verdict(&a, &[1.2, 1.21, 1.19, 1.2, 1.2], 0.10, false).0,
            Verdict::Better
        );
        let (v, change) = verdict(&a, &[0.8, 0.81, 0.79, 0.8, 0.8], 0.10, false);
        assert_eq!(v, Verdict::Worse);
        assert!((change + 0.2).abs() < 1e-12);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_wins() {
        let noisy = [0.5, 1.0, 1.5, 1.0, 0.7];
        // Median moved 20% but the parent's spread exceeds the bound.
        assert_eq!(
            verdict(&noisy, &[1.2; 5], 0.10, true).0,
            Verdict::Unresolved
        );
        // Every run of the change beats every run of the parent.
        assert_eq!(verdict(&noisy, &[0.4; 5], 0.10, true).0, Verdict::Better);
    }

    #[test]
    fn result_lines_round_trip() {
        let line = r#"{"correct":true,"attempted":12,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"s"}}}"#;
        let r = parse_result(line).unwrap();
        assert!(r.correct);
        assert_eq!((r.attempted, r.failed), (12, 0));
        assert_eq!(
            r.metrics,
            vec![("setup_s".to_string(), 0.5, "s".to_string())]
        );
        assert!(parse_result("not json").is_err());
    }
}
