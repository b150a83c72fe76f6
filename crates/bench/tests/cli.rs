//! `repro` and `bench_profile` refuse a bad argument with a one-line error
//! and exit 1 before running anything; `repro table01` writes its JSON.

use std::path::PathBuf;
use std::process::{Command, Output};

/// A fresh directory for one test's run, so that `results/` lands there.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("triosim-bench-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir is writable");
    dir
}

fn assert_refused(out: &Output, message: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "one line: {stderr}");
    assert!(stderr.contains(message), "`{message}` not in: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "ran before refusing: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn repro_refuses_bad_arguments() {
    let dir = scratch("refusals");
    let cases: [(&[&str], &str); 6] = [
        (&[], "usage: repro"),
        (&["fig99"], "unknown figure `fig99`"),
        (&["table01", "--threads", "2"], "unknown flag `--threads`"),
        (
            &["fig16", "--seed", "x"],
            "--seed takes a non-negative integer, not `x`",
        ),
        (
            &["fig16", "--seed", "-1"],
            "--seed takes a non-negative integer, not `-1`",
        ),
        (
            &["fig16", "--seed"],
            "--seed takes a non-negative integer, not ``",
        ),
    ];
    for (args, message) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .current_dir(&dir)
            .output();
        assert_refused(&out.expect("repro starts"), message);
    }
    assert!(!dir.join("results").exists(), "a refused run wrote results");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn repro_writes_table01() {
    let dir = scratch("table01");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("table01")
        .current_dir(&dir)
        .output();
    let out = out.expect("repro starts");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("Claimed error"));
    let json =
        std::fs::read_to_string(dir.join("results/table01.json")).expect("table01.json written");
    let value: serde::Value = serde_json::from_str(&json).expect("table01.json parses");
    assert_eq!(
        value.get("figure"),
        Some(&serde::Value::Str("table01".to_string()))
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn bench_profile_refuses_a_zero_or_malformed_thread_count() {
    for n in ["0", "x", "-3"] {
        let out = Command::new(env!("CARGO_BIN_EXE_bench_profile"))
            .args(["--threads", n])
            .output();
        assert_refused(
            &out.expect("bench_profile starts"),
            &format!("--threads must be at least 1, not `{n}`"),
        );
    }
}
