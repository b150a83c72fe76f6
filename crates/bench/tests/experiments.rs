//! EXPERIMENTS.md's "Measured avg error" cells (Figs 6–11) against the
//! committed figure goldens. Reads the goldens only; runs no simulation.
//! After re-blessing the goldens, rewrite the cells with
//!
//! ```text
//! TRIOSIM_BLESS=1 cargo test -p triosim-bench --test experiments
//! ```

use std::path::PathBuf;

use serde::Value;
use triosim_bench::VALIDATION;

fn manifest_path(relative: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(relative)
}

/// Scalar `name` of the golden of figure `figure`.
fn golden_number(figure: &str, name: &str) -> f64 {
    let path = manifest_path(&format!("tests/golden/{figure}.json"));
    let text = std::fs::read_to_string(&path).expect("golden exists");
    let golden: Value = serde_json::from_str(&text).expect("golden parses");
    match golden.get("scalars").and_then(|s| s.get(name)) {
        Some(Value::Float(v)) => *v,
        other => panic!("{}: no number `{name}` ({other:?})", path.display()),
    }
}

/// The cells in table order: one per validation row, then Figure 11's
/// DDP case 1 (A40 / A100), DDP case 2, and case 1 (A40, A100) / case 2
/// for TP, PP-1 and PP-2.
fn measured_cells() -> Vec<String> {
    let pct = |v: f64| format!("{v:.2}%");
    let mut cells: Vec<String> = (VALIDATION.iter())
        .map(|row| {
            pct(golden_number(
                row.figure,
                &format!("{}_avg_error_pct", row.table),
            ))
        })
        .collect();
    let case = |table: &str, case: &str| {
        pct(golden_number(
            "fig11",
            &format!("{table}_avg_{case}_error_pct"),
        ))
    };
    cells.push(format!(
        "{} / {}",
        case("ddp", "case1_a40"),
        case("ddp", "case1_a100")
    ));
    cells.push(case("ddp", "case2_h100"));
    for t in ["tp", "pp_chunks_1", "pp_chunks_2"] {
        let (a40, a100, h100) = (
            case(t, "case1_a40"),
            case(t, "case1_a100"),
            case(t, "case2_h100"),
        );
        cells.push(format!("{a40}, {a100} / {h100}"));
    }
    cells
}

#[test]
fn validation_table_reads_the_goldens() {
    const HEADER: &str =
        "| Experiment | Configuration | Paper avg error | Measured avg error | Shape check |";
    let path = manifest_path("../../EXPERIMENTS.md");
    let text = std::fs::read_to_string(&path).expect("EXPERIMENTS.md exists");
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let first = 2 + lines
        .iter()
        .position(|l| l == HEADER)
        .expect("validation table header");
    let rows = first
        ..first
            + lines[first..]
                .iter()
                .take_while(|l| l.starts_with('|'))
                .count();
    let expected = measured_cells();
    if std::env::var_os("TRIOSIM_BLESS").is_some_and(|v| v == "1") {
        assert_eq!(
            rows.len(),
            expected.len(),
            "one table row per measured cell"
        );
        for (line, cell) in lines[rows].iter_mut().zip(&expected) {
            let mut cells: Vec<String> = line.split('|').map(str::to_string).collect();
            cells[4] = format!(" {cell} ");
            *line = cells.join("|");
        }
        std::fs::write(&path, lines.join("\n") + "\n").expect("EXPERIMENTS.md is writable");
    } else {
        let written: Vec<&str> = (lines[rows].iter())
            .map(|l| l.split('|').nth(4).unwrap_or_default().trim())
            .collect();
        assert_eq!(
            written, expected,
            "EXPERIMENTS.md's measured errors differ from the goldens; \
             rewrite them with TRIOSIM_BLESS=1 and review the diff"
        );
    }
}
