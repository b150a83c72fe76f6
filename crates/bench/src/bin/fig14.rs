//! Figure 14: the simulator's own execution time (wall clock) when
//! modeling DDP on P2 — the "completes within seconds" claim.
//!
//! Reports trace size, task count, and wall-clock seconds per model. The
//! repository benchmark's `fig14` workload (`perfbench/`) measures the
//! same quantity with repeated runs and a bound.

use serde::Value;
use triosim::{Parallelism, Platform, SimBuilder};
use triosim_bench::{
    figure_models, json_num, json_obj, paper_trace, time_it, trace_batch, Summary,
};
use triosim_trace::GpuModel;

fn main() {
    let platform = Platform::p2(4);
    println!("== Figure 14: simulator wall-clock time, DDP on P2 (4x A100) ==");
    println!(
        "{:<12} {:>12} {:>10} {:>14}",
        "model", "trace ops", "tasks", "sim time (s)"
    );
    let mut total = 0.0;
    let mut json_rows = Vec::new();
    for model in figure_models("all") {
        let trace = paper_trace(model, GpuModel::A100);
        let batch = trace_batch(model) * 4;
        let (report, wall) = time_it(|| {
            SimBuilder::new(&trace, &platform)
                .parallelism(Parallelism::DataParallel { overlap: true })
                .global_batch(batch)
                .run()
        });
        total += wall;
        println!(
            "{:<12} {:>12} {:>10} {:>14.4}",
            model.figure_label(),
            trace.entries().len(),
            report.tasks_executed(),
            wall
        );
        json_rows.push(json_obj(vec![
            ("label", Value::Str(model.figure_label().to_string())),
            ("trace_ops", Value::UInt(trace.entries().len() as u64)),
            ("tasks", Value::UInt(report.tasks_executed() as u64)),
            ("sim_wall_s", json_num(wall)),
        ]));
    }
    println!(
        "\ntotal wall-clock for all {} simulations: {total:.2} s",
        figure_models("all").len()
    );
    println!("paper claim: TrioSim completes simulations within seconds");
    let mut summary = Summary::new("fig14");
    summary.put("rows", Value::Array(json_rows));
    summary.num("total_wall_s", total);
    summary.finish();
}
