//! Reproduces tables and figures of the TrioSim paper:
//!
//! ```text
//! repro <name>... | all [--seed <n>]
//! ```
//!
//! Each named entry of `triosim_bench::FIGURES` is measured, printed and
//! written to `results/<name>.json`. `--seed` seeds Figure 16. Exits 1 on
//! a refused argument, and after the run if any shape claim fails.

use std::path::Path;
use std::process::ExitCode;

use triosim_bench::{figure, Figure, DEFAULT_SEED, FIGURES};

/// The figures to run and the seed, from the command line.
fn parse(args: impl IntoIterator<Item = String>) -> Result<(Vec<&'static Figure>, u64), String> {
    let (mut figures, mut seed) = (Vec::new(), DEFAULT_SEED);
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                let value = args.next().unwrap_or_default();
                seed = value
                    .parse()
                    .map_err(|_| format!("--seed takes a non-negative integer, not `{value}`"))?;
            }
            "all" => figures.extend(FIGURES.iter()),
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            name => figures.push(figure(name).ok_or_else(|| {
                let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
                format!(
                    "unknown figure `{name}` (expected all, {})",
                    names.join(", ")
                )
            })?),
        }
    }
    if figures.is_empty() {
        return Err("usage: repro <name>... | all [--seed <n>]".to_string());
    }
    Ok((figures, seed))
}

fn main() -> ExitCode {
    let (figures, seed) = match parse(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("repro: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = 0;
    for fig in figures {
        let measured = (fig.measure)(seed);
        fig.print(&measured);
        failed += measured.claims.iter().filter(|(_, holds)| !holds).count();
        match triosim_bench::write_result(
            Path::new("results"),
            fig.name,
            &fig.json(&measured, true),
        ) {
            Ok(path) => println!("written: {}", path.display()),
            Err(e) => {
                eprintln!("repro: cannot write results/{}.json: {e}", fig.name);
                return ExitCode::FAILURE;
            }
        }
    }
    if failed > 0 {
        eprintln!("repro: {failed} shape claim(s) fail");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
