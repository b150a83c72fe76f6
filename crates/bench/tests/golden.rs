//! Every figure's JSON against its committed golden, and every shape
//! claim held.
//!
//! Each test measures one entry of `FIGURES` at the default seed and
//! compares `Figure::json` without host wall-clock fields with
//! `tests/golden/<name>.json`. After an intentional change, re-bless:
//!
//! ```text
//! TRIOSIM_BLESS=1 cargo test --release -p triosim-bench --test golden
//! ```
//!
//! and review the diff under `crates/bench/tests/golden/`: it is the
//! change in the reproduced figures.

use std::path::PathBuf;

use triosim_bench::{figure, DEFAULT_SEED, FIGURES};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/{name}.json"))
}

fn check(name: &str) {
    let fig = figure(name).expect("every golden names a figure");
    let measured = (fig.measure)(DEFAULT_SEED);
    let actual = fig.json(&measured, false);
    let path = golden_path(name);
    if std::env::var_os("TRIOSIM_BLESS").is_some_and(|v| v == "1") {
        std::fs::write(&path, &actual).expect("golden directory is writable");
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); bless it with TRIOSIM_BLESS=1",
            path.display()
        )
    });
    if let Some((line, (a, e))) = (1..)
        .zip(actual.lines().zip(expected.lines()))
        .find(|(_, (a, e))| a != e)
    {
        panic!(
            "{name} drifted from {} at line {line}:\n  actual  : {a}\n  expected: {e}\n\
             If the change is intentional, re-bless with TRIOSIM_BLESS=1 and review the diff.",
            path.display()
        );
    }
    assert_eq!(actual, expected, "{name}: the golden's length differs");
    let failed: Vec<&str> = (measured.claims.iter())
        .filter(|(_, holds)| !holds)
        .map(|(claim, _)| claim.as_str())
        .collect();
    assert!(failed.is_empty(), "{name}: shape claims fail: {failed:?}");
}

macro_rules! golden {
    ($($name:ident),*) => {$(
        #[test]
        fn $name() {
            check(stringify!($name));
        }
    )*};
}

golden!(
    table01,
    fig06,
    fig07,
    fig08,
    fig09,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
    fig16,
    ablation_allreduce,
    ablation_compute,
    ablation_hybrid
);

/// Twelve 84-GPU runs of three iterations: 3 s in release, over two
/// minutes in a debug build.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "over two minutes in a debug build; CI runs it with `cargo test --release`"
)]
fn fig15() {
    check("fig15");
}

/// A figure added to `FIGURES` without a test above has no golden, as
/// only its test can bless one.
#[test]
fn every_figure_has_a_golden() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut goldens: Vec<String> = std::fs::read_dir(&dir)
        .expect("golden directory exists")
        .map(|e| {
            e.expect("readable entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    goldens.sort();
    let mut names: Vec<String> = FIGURES.iter().map(|f| format!("{}.json", f.name)).collect();
    names.sort();
    assert_eq!(goldens, names);
}
