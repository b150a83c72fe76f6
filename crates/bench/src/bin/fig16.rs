//! Figure 16: the Hop heterogeneous-training case study.
//!
//! 8 A100 GPUs train VGG-11 (batch 128) with decentralized gossip over a
//! ring-based and a double-ring communication graph. Communication links
//! are randomly slowed by factors in [1, 10]; each of 8 seeded scenarios
//! reports the speedup one backup worker achieves over none.
//!
//! Run with `--seed <n>` to change the scenario family.

use serde::Value;
use triosim_bench::{arg_u64, hop_speedups, json_num, json_obj, Summary, HOP_WORKERS};

fn main() {
    let seed = arg_u64("seed", 42);
    println!("== Figure 16: Hop with 1 backup worker, 8x A100, VGG-11 @128 ==");
    println!(
        "{:<8} {:>16} {:>18}",
        "group", "ring speedup", "double-ring speedup"
    );
    let speedups = hop_speedups(seed);
    let mut json_rows = Vec::new();
    for (group, &(ring, double)) in (1u64..).zip(&speedups) {
        println!("{group:<8} {ring:>15.3}x {double:>17.3}x");
        json_rows.push(json_obj(vec![
            ("group", Value::UInt(group)),
            ("ring_speedup", json_num(ring)),
            ("double_ring_speedup", json_num(double)),
        ]));
    }
    let n = speedups.len() as f64;
    let avg_ring = speedups.iter().map(|s| s.0).sum::<f64>() / n;
    let avg_double = speedups.iter().map(|s| s.1).sum::<f64>() / n;
    println!("{:<8} {avg_ring:>15.3}x {avg_double:>17.3}x", "average");
    println!(
        "\npaper: the backup worker's effect varies greatly with the slowdown \
         scenario, demonstrating heterogeneity-aware simulation"
    );
    let mut summary = Summary::new("fig16");
    summary.int("seed", seed);
    summary.int("workers", HOP_WORKERS as u64);
    summary.put("rows", Value::Array(json_rows));
    summary.num("avg_ring_speedup", avg_ring);
    summary.num("avg_double_ring_speedup", avg_double);
    summary.finish();
}
