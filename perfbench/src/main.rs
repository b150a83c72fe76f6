//! The repository benchmark.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run of one workload; the last stdout line is its JSON result
//! benchmark [--seed <n>] [--seconds <s>] [--out <file>]
//!     the full set: every workload in child processes, one after another
//! benchmark --compare <a.json> <b.json>
//!     applies the bounds in BENCHMARK.json to two full sets
//! benchmark --setup-child --workload <name> --seed <n>
//!     times cold set-ups in a process of its own (run by a workload run)
//! benchmark --memory-child --workload <name> --seed <n>
//!     prints the peak resident set of a set-up and two ops (likewise)
//! ```
//!
//! Run from the repository root; see `perfbench/README.md`.

mod alloc;
mod host;
mod metrics;
mod probe;
mod service;
mod sim;
mod stats;
mod suite;
mod timed;
mod workload;

use std::process::ExitCode;

use serde::Value;

use crate::host::Host;
use crate::metrics::write_result;
use crate::workload::WORKLOADS;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

#[derive(Debug, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// `--setup-child` or `--memory-child`.
    child: Option<String>,
    out: String,
    compare: Option<(String, String)>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 0,
        seconds: 15,
        trace: false,
        child: None,
        out: "set.json".to_string(),
        compare: None,
    };
    let num = |flag: &str, v: Option<String>| -> Result<u64, String> {
        let v = v.ok_or_else(|| format!("{flag} needs a value"))?;
        v.parse()
            .map_err(|_| format!("{flag}: `{v}` is not a whole number"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(it.next().ok_or("--workload needs a value")?),
            "--seed" => args.seed = num("--seed", it.next())?,
            "--seconds" => args.seconds = num("--seconds", it.next())?.max(1),
            "--trace" => args.trace = num("--trace", it.next())? != 0,
            "--setup-child" | "--memory-child" => args.child = Some(flag),
            "--out" => args.out = it.next().ok_or("--out needs a file name")?,
            "--compare" => {
                let a = it.next().ok_or("--compare needs two files")?;
                let b = it.next().ok_or("--compare needs two files")?;
                args.compare = Some((a, b));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload `{w}` (one of {})",
                WORKLOADS.join(", ")
            ));
        }
    }
    Ok(args)
}

/// One run of one workload: human lines, a results file, and the JSON
/// result as the last line.
fn run_one(workload: &str, seed: u64, seconds: u64, traced: bool) -> Result<(), String> {
    let host = Host::detect();
    println!("{}", host.line());
    let outcome = workload::run(workload, seed, seconds as f64, traced)?;
    for (name, value, unit) in outcome.metrics(traced) {
        println!("{workload} {name} {value} {unit}");
    }
    println!(
        "{workload} failed {} of {} ops; correct {}",
        outcome.failed, outcome.attempted, outcome.correct
    );
    let result = outcome.result_value(traced);
    let tag = format!(
        "{workload}-seed{seed}{}",
        if traced { "-traced" } else { "" }
    );
    write_result(
        &format!("{tag}.json"),
        &Value::Object(vec![
            ("host".into(), host.to_value()),
            ("workload".into(), Value::Str(workload.to_string())),
            ("seed".into(), Value::UInt(seed)),
            ("seconds".into(), Value::UInt(seconds)),
            ("trace".into(), Value::Bool(traced)),
            ("result".into(), result.clone()),
            ("notes".into(), Value::Object(outcome.notes)),
        ]),
    )?;
    if !outcome.spans.is_empty() {
        write_result(
            &format!("{workload}.spans.json"),
            &Value::Object(vec![("traceEvents".into(), Value::Array(outcome.spans))]),
        )?;
    }
    println!(
        "{}",
        serde_json::to_string(&result).map_err(|e| e.to_string())?
    );
    Ok(())
}

fn main() -> ExitCode {
    let run = || -> Result<bool, String> {
        let args = parse_args(std::env::args().skip(1))?;
        if let Some((a, b)) = &args.compare {
            return suite::compare(a, b);
        }
        match &args.workload {
            Some(w) if args.child.is_some() => {
                let v = match args.child.as_deref() {
                    Some("--setup-child") => workload::setup_child(w, args.seed)?,
                    _ => workload::memory_child(w, args.seed)?,
                };
                println!("{v}");
                Ok(true)
            }
            Some(w) => run_one(w, args.seed, args.seconds, args.trace).map(|()| true),
            None => suite::run_set(args.seed, args.seconds, &args.out),
        }
    };
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn single_run_invocation_parses() {
        let a = parse("--workload ring64 --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("ring64"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10, true));
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seed x").is_err());
        assert!(parse("--bogus").is_err());
        assert_eq!(
            parse("--compare a b").unwrap().compare,
            Some(("a".into(), "b".into()))
        );
    }
}
