//! `triosim-cli` — trace, inspect, and simulate from the command line.
//!
//! ```text
//! triosim-cli models
//! triosim-cli trace    --model resnet50 --batch 128 --gpu A100 -o trace.json
//! triosim-cli inspect  --trace trace.json
//! triosim-cli simulate --trace trace.json --platform p2:4 --parallelism ddp \
//!                      [--batch 512] [--reference] [--timeline out.json]
//! triosim-cli analyze  --trace trace.json --platform p2:4 --parallelism ddp
//! triosim-cli memory   --trace trace.json --gpus 4 --parallelism tp --batch 128
//! ```
//!
//! The argument parser is deliberately hand-rolled (no CLI dependency);
//! every subcommand prints usage on `--help`.

use std::collections::HashMap;
use std::process::ExitCode;
use std::str::FromStr;

use triosim::{
    estimate_memory, Fidelity, Parallelism, Platform, SelfProfile, SelfProfiler, SimBuilder,
};
use triosim_des::{TimeSpan, VirtualTime};
use triosim_modelzoo::ModelId;
use triosim_obs::{
    ChromeTraceSink, JsonlSink, ProgressMonitor, PrometheusSink, Recorder, RunRecorder,
};
use triosim_trace::{GpuModel, Phase, Trace, Tracer};

const USAGE: &str = "\
triosim-cli — TrioSim-RS command line

USAGE:
    triosim-cli <COMMAND> [OPTIONS]

COMMANDS:
    models                      list the built-in model zoo
    trace                       collect a single-GPU trace
        --model <name>          zoo model (see `models`)
        --batch <n>             batch size (default 128)
        --gpu <A40|A100|H100>   GPU to trace on (default A100)
        -o, --out <file>        output path (default <model>.trace.json)
    inspect                     summarize a trace file
        --trace <file>
    simulate                    predict a multi-GPU iteration
        --trace <file>
        --platform <p1|p2:N|p3|ring:GPU:N|pcie:GPU:N|fat:GPU:N[:O]>
                                (default p2:4; fat = oversubscribed
                                fat tree, O = oversubscription, default 4)
        --parallelism <dp|ddp|tp|pp[:chunks]|hp:groups[:chunks]>  (default ddp)
        --batch <n>             global batch (default: weak scaling)
        --iterations <n>        back-to-back training iterations (default 1;
                                long flow-tier runs verify one iteration
                                and synthesize the rest, byte-identically)
        --fidelity <tier>       triosim (default), reference, or packet
                                (packet-level network: switch queues,
                                ECN/DCTCP, drops and retransmits)
        --reference             alias for --fidelity reference
        --timeline <file>       write the Chrome-trace timeline
        --html <file>           write a self-contained HTML timeline view
        --events <file>         write structured observability events (JSONL)
        --trace-events <file>   write a live Chrome/Perfetto trace (spans +
                                sampled counter tracks; supersedes --timeline)
        --metrics <file>        write Prometheus text-format metrics
        --progress              print live progress to stderr
        --sample-period-us <n>  observability sampling period (default 1000)
        --faults <plan.json>    inject the faults described by a plan file
                                (GPU slowdowns, jitter, link degradation,
                                link failure/repair, GPU drop-out)
        --fault-seed <n>        override the plan's jitter seed
        --checkpoint <file>     write a crash-safe engine snapshot at
                                iteration boundaries (atomic rename +
                                fsync); a killed run resumes from it
        --checkpoint-every <n>  boundaries between snapshots (default 1;
                                requires --checkpoint)
        --restore <file>        resume from a snapshot; output is
                                byte-identical to an uninterrupted run
        --report <file>         write the canonical JSON report (the
                                byte-stable form golden tests compare;
                                what --restore reproduces exactly)
        --profile               print the simulator's own wall-clock
                                self-profile (setup vs engine loop) after
                                the run; never changes simulation output
    analyze                     run a simulation and explain where the
                                virtual time went: critical path, per-GPU
                                compute/overlap/exposed-comm/idle buckets,
                                top critical ops, stragglers, hot links
        --trace <file>          plus the same --platform/--parallelism/
                                --batch/--iterations/--fidelity/
                                --reference/--faults/--fault-seed flags
                                as `simulate`
        --top <k>               critical ops / links to list (default 8)
        --profile               also print the wall-clock self-profile
    memory                      estimate the per-GPU memory footprint
        --trace <file> --gpus <n> --parallelism <...> --batch <n>
    sweep                       run a declarative scenario sweep
        --spec <sweep.json>     sweep spec (defaults + cartesian grid +
                                explicit scenario list; see docs/TESTING.md)
        --threads <n>           worker threads (default: available cores)
        --out <file>            write the deterministic aggregate JSON
                                (byte-identical across thread counts)
        --progress              print live per-scenario progress to stderr
        --journal <file>        append each scenario's fsync'd result to a
                                JSONL journal as it completes (crash-safe)
        --resume <journal>      replay a journal's completed scenarios and
                                run only the rest (--spec optional: the
                                journal header embeds the spec); the final
                                aggregate is byte-identical to an
                                uninterrupted run
        --fail-fast             abort the sweep on the first scenario
                                panic instead of isolating it as a
                                structured error entry
        --metrics <file>        write Prometheus text-format sweep
                                counters (total/recovered/failed/
                                panicked/budget-terminated; with
                                --profile also per-span wall-clock
                                gauges)
        --profile               collect and print the sweep's wall-clock
                                self-profile (resolve / execute /
                                aggregate, per-scenario engine loops);
                                the canonical aggregate stays
                                byte-identical
        --checkpoint-dir <dir>  write per-scenario engine snapshots into
                                <dir> so a resumed sweep restarts
                                in-progress scenarios from their last
                                iteration boundary instead of scratch
        --checkpoint-every <n>  boundaries between snapshots (default 1;
                                requires --checkpoint-dir)
    serve                       run the crash-recoverable sweep service
                                (POST specs to /jobs; see DESIGN.md §15)
        --addr <host:port>      listen address (default 127.0.0.1:7077)
        --data-dir <dir>        durable job store (default .triosim-jobs);
                                restarting against the same directory
                                recovers every in-flight job
        --workers <n>           concurrent jobs (default 1)
        --job-threads <n>       sweep worker threads per job (default:
                                available cores)
        --queue-cap <n>         bounded admission queue; submissions
                                beyond it shed with 429 (default 64)
        --max-conns <n>         concurrent connection cap (default 64)
        --read-timeout-ms <n>   per-connection read deadline; slow-loris
                                clients get 408 (default 5000)
        --write-timeout-ms <n>  per-connection write deadline (default 5000)
        --retry-max <n>         attempts per job before dead-letter
                                (default 3)
        --retry-base-ms <n>     backoff base (default 100)
        --retry-cap-ms <n>      backoff cap (default 5000)
        --retry-seed <n>        jitter seed; fixed seed = fully
                                deterministic retry schedule (default 0)
        --max-events <n>        default per-scenario event budget injected
                                into specs that do not set one
        --max-sim-time-us <n>   default per-scenario virtual-time budget
        --wall-timeout-ms <n>   default per-scenario wall-clock deadline
        --checkpoint-every <n>  iteration boundaries between scenario
                                snapshots (default 1)
    submit                      submit a sweep spec to a running server
        --spec <sweep.json>     the spec to submit (required)
        --addr <host:port>      server address (default 127.0.0.1:7077)
        --wait                  poll until the job finishes and print or
                                save its canonical result
        --poll-ms <n>           poll interval with --wait (default 500)
        -o, --out <file>        with --wait, write the result here
                                (byte-identical to `sweep --out`)
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let opts = parse_options(&args[1..]);
    let result = validate_flags(command, &opts).and_then(|()| match command.as_str() {
        "models" => cmd_models(),
        "trace" => cmd_trace(&opts),
        "inspect" => cmd_inspect(&opts),
        "simulate" => cmd_simulate(&opts),
        "analyze" => cmd_analyze(&opts),
        "memory" => cmd_memory(&opts),
        "sweep" => cmd_sweep(&opts),
        "serve" => cmd_serve(&opts),
        "submit" => cmd_submit(&opts),
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Rejects flags a subcommand does not understand with a one-line,
/// actionable error instead of silently ignoring them.
fn validate_flags(command: &str, opts: &HashMap<String, String>) -> Result<(), String> {
    let allowed: &[&str] = match command {
        "models" => &[],
        "trace" => &["model", "batch", "gpu", "out"],
        "inspect" => &["trace"],
        "simulate" => &[
            "trace",
            "platform",
            "parallelism",
            "batch",
            "iterations",
            "fidelity",
            "reference",
            "timeline",
            "html",
            "events",
            "trace-events",
            "metrics",
            "progress",
            "sample-period-us",
            "faults",
            "fault-seed",
            "checkpoint",
            "checkpoint-every",
            "restore",
            "report",
            "profile",
        ],
        "analyze" => &[
            "trace",
            "platform",
            "parallelism",
            "batch",
            "iterations",
            "fidelity",
            "reference",
            "faults",
            "fault-seed",
            "top",
            "profile",
        ],
        "memory" => &["trace", "gpus", "parallelism", "batch"],
        "sweep" => &[
            "spec",
            "threads",
            "out",
            "progress",
            "journal",
            "resume",
            "fail-fast",
            "metrics",
            "profile",
            "checkpoint-dir",
            "checkpoint-every",
        ],
        "serve" => &[
            "addr",
            "data-dir",
            "workers",
            "job-threads",
            "queue-cap",
            "max-conns",
            "read-timeout-ms",
            "write-timeout-ms",
            "retry-max",
            "retry-base-ms",
            "retry-cap-ms",
            "retry-seed",
            "max-events",
            "max-sim-time-us",
            "wall-timeout-ms",
            "checkpoint-every",
        ],
        "submit" => &["spec", "addr", "wait", "poll-ms", "out"],
        // Unknown commands produce their own error.
        _ => return Ok(()),
    };
    let mut unknown: Vec<&str> = opts
        .keys()
        .map(String::as_str)
        .filter(|k| !allowed.contains(k))
        .collect();
    unknown.sort_unstable();
    match unknown.first() {
        Some(k) => Err(format!(
            "unknown option `--{k}` for `{command}` (run `triosim-cli --help` for the option list)"
        )),
        None => Ok(()),
    }
}

fn parse_options(args: &[String]) -> HashMap<String, String> {
    let mut opts = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i].trim_start_matches('-').to_string();
        if i + 1 < args.len() && !args[i + 1].starts_with('-') {
            opts.insert(
                if key == "o" { "out".into() } else { key },
                args[i + 1].clone(),
            );
            i += 2;
        } else {
            opts.insert(key, "true".into());
            i += 1;
        }
    }
    opts
}

fn cmd_models() -> Result<(), String> {
    println!(
        "{:<16} {:>10} {:>12} {:>12}",
        "model", "layers", "params (M)", "GFLOPs@1"
    );
    for id in ModelId::ALL {
        let m = id.build(1);
        println!(
            "{:<16} {:>10} {:>12.1} {:>12.1}",
            id.to_string(),
            m.layer_count(),
            m.param_count() as f64 / 1e6,
            m.total_flops() / 1e9
        );
    }
    Ok(())
}

fn cmd_trace(opts: &HashMap<String, String>) -> Result<(), String> {
    let model: ModelId = opts.get("model").ok_or("missing --model")?.parse()?;
    let batch: u64 = parse_num(opts, "batch", 128)?;
    let gpu: GpuModel = opts
        .get("gpu")
        .map(|s| GpuModel::from_str(s))
        .transpose()?
        .unwrap_or(GpuModel::A100);
    let out = opts
        .get("out")
        .cloned()
        .unwrap_or_else(|| format!("{model}.trace.json"));

    let trace = Tracer::new(gpu).trace(&model.build(batch));
    let json = trace.to_json().map_err(|e| e.to_string())?;
    std::fs::write(&out, json).map_err(|e| e.to_string())?;
    println!(
        "traced {model} @ batch {batch} on {gpu}: {} operators, {:.2} ms -> {out}",
        trace.entries().len(),
        trace.total_time_s() * 1e3
    );
    Ok(())
}

fn load_trace(opts: &HashMap<String, String>) -> Result<Trace, String> {
    let path = opts.get("trace").ok_or("missing --trace")?;
    let json = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Trace::from_json(&json).map_err(|e| e.to_string())
}

fn cmd_inspect(opts: &HashMap<String, String>) -> Result<(), String> {
    let trace = load_trace(opts)?;
    println!("model      : {}", trace.model());
    println!("gpu        : {}", trace.gpu());
    println!("batch      : {}", trace.batch());
    println!("operators  : {}", trace.entries().len());
    println!("layers     : {}", trace.layer_count());
    println!("tensors    : {}", trace.tensors().len());
    println!("total time : {:.3} ms", trace.total_time_s() * 1e3);
    for phase in [Phase::Forward, Phase::Backward, Phase::Optimizer] {
        println!("  {phase:<9}: {:.3} ms", trace.phase_time_s(phase) * 1e3);
    }
    println!(
        "gradients  : {:.1} MB (the DP AllReduce volume)",
        trace.gradient_bytes() as f64 / 1e6
    );
    println!("time by operator class:");
    for (class, count, secs) in trace.class_breakdown() {
        println!(
            "  {:<12} {:>5} ops {:>10.3} ms ({:>4.1}%)",
            class.to_string(),
            count,
            secs * 1e3,
            100.0 * secs / trace.total_time_s()
        );
    }
    Ok(())
}

fn parse<T: FromStr>(s: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    s.parse().map_err(|e| format!("invalid number `{s}`: {e}"))
}

fn parse_num(opts: &HashMap<String, String>, key: &str, default: u64) -> Result<u64, String> {
    opts.get(key)
        .map(|s| parse(s))
        .transpose()
        .map(|v| v.unwrap_or(default))
}

/// Applies the simulation flags `simulate` and `analyze` share: global
/// batch, iteration count, fidelity, and the fault plan.
fn apply_sim_flags<'a>(
    mut builder: SimBuilder<'a>,
    opts: &HashMap<String, String>,
) -> Result<SimBuilder<'a>, String> {
    if let Some(batch) = opts.get("batch") {
        builder = builder.global_batch(parse(batch)?);
    }
    if let Some(iters) = opts.get("iterations") {
        let iters: usize = parse(iters)?;
        if iters == 0 {
            return Err("--iterations must be at least 1".into());
        }
        builder = builder.iterations(iters);
    }
    match (opts.get("fidelity"), opts.contains_key("reference")) {
        (Some(_), true) => {
            return Err("--fidelity and --reference are mutually exclusive".into());
        }
        (Some(spec), false) => builder = builder.fidelity(Fidelity::from_str(spec)?),
        // `--reference` predates `--fidelity` and stays as an alias.
        (None, true) => builder = builder.fidelity(Fidelity::Reference),
        (None, false) => {}
    }
    if let Some(path) = opts.get("faults") {
        let json = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let plan = triosim::FaultPlan::from_json(&json).map_err(|e| format!("{path}: {e}"))?;
        builder = builder.faults(plan);
    } else if opts.contains_key("fault-seed") {
        return Err("--fault-seed requires --faults".into());
    }
    if let Some(seed) = opts.get("fault-seed") {
        builder = builder.fault_seed(parse(seed)?);
    }
    Ok(builder)
}

/// Runs the configured builder, routing through the profiled session
/// path when `--profile` was given. Profiling never changes the report.
fn run_builder(
    builder: SimBuilder<'_>,
    opts: &HashMap<String, String>,
) -> Result<(triosim::SimReport, Option<SelfProfile>), String> {
    if opts.contains_key("profile") {
        let mut prof = SelfProfiler::new();
        let report = builder
            .try_run_profiled(&mut prof)
            .map_err(|e| e.to_string())?;
        Ok((report, Some(prof.snapshot())))
    } else {
        Ok((builder.try_run().map_err(|e| e.to_string())?, None))
    }
}

fn cmd_simulate(opts: &HashMap<String, String>) -> Result<(), String> {
    let trace = load_trace(opts)?;
    let platform = Platform::from_str(opts.get("platform").map(String::as_str).unwrap_or("p2:4"))?;
    let parallelism =
        Parallelism::from_str(opts.get("parallelism").map(String::as_str).unwrap_or("ddp"))?;
    let mut builder = apply_sim_flags(
        SimBuilder::new(&trace, &platform).parallelism(parallelism),
        opts,
    )?;

    // Observability sinks: each flag adds one deterministic output file.
    let create = |path: &String| -> Result<std::io::BufWriter<std::fs::File>, String> {
        std::fs::File::create(path)
            .map(std::io::BufWriter::new)
            .map_err(|e| format!("{path}: {e}"))
    };
    let mut recorder = RunRecorder::new();
    if let Some(path) = opts.get("events") {
        recorder.push(Box::new(JsonlSink::new(create(path)?)));
    }
    if let Some(path) = opts.get("trace-events") {
        recorder.push(Box::new(ChromeTraceSink::new(create(path)?)));
    }
    if let Some(path) = opts.get("metrics") {
        recorder.push(Box::new(PrometheusSink::new(create(path)?)));
    }
    if !recorder.is_empty() {
        builder = builder.recorder(Box::new(recorder));
    }
    if opts.contains_key("progress") {
        builder = builder.progress(ProgressMonitor::new());
    }
    if let Some(us) = opts.get("sample-period-us") {
        let us: f64 = parse(us)?;
        if !us.is_finite() || us <= 0.0 {
            return Err("--sample-period-us must be positive".into());
        }
        builder = builder.sample_period(TimeSpan::from_micros(us));
    }
    if let Some(path) = opts.get("checkpoint") {
        let every: usize = match opts.get("checkpoint-every") {
            Some(n) => parse(n)?,
            None => 1,
        };
        if every == 0 {
            return Err("--checkpoint-every must be at least 1".into());
        }
        builder = builder.checkpoint(path, every);
    } else if opts.contains_key("checkpoint-every") {
        return Err("--checkpoint-every requires --checkpoint".into());
    }
    if let Some(path) = opts.get("restore") {
        builder = builder.restore(path);
    }
    let (report, profile) = run_builder(builder, opts)?;

    if let Some(out) = opts.get("report") {
        let mut line = report.to_canonical_string();
        line.push('\n');
        std::fs::write(out, line).map_err(|e| format!("{out}: {e}"))?;
    }

    println!(
        "{} | {} x {} | {}",
        trace.model(),
        platform.gpu_count(),
        platform.gpu(),
        parallelism
    );
    println!("total time    : {:.3} ms", report.total_time_s() * 1e3);
    println!("compute (max) : {:.3} ms", report.compute_time_s() * 1e3);
    println!(
        "communication : {:.3} ms ({:.1}%)",
        report.comm_time_s() * 1e3,
        100.0 * report.comm_ratio()
    );
    let b = report.bottleneck();
    println!(
        "critical path : {:.3} ms ({:.1}% exposed comm; run `analyze` for the breakdown)",
        b.critical_path_s * 1e3,
        100.0 * b.exposed_comm_fraction
    );
    if !b.stragglers.is_empty() {
        let list: Vec<String> = b
            .stragglers
            .iter()
            .map(|s| format!("gpu{} ({:.2}x median)", s.gpu, s.vs_median))
            .collect();
        println!("stragglers    : {}", list.join(", "));
    }
    println!(
        "network bytes : {:.1} MB",
        report.bytes_transferred() as f64 / 1e6
    );
    println!("tasks         : {}", report.tasks_executed());
    let q = report.queue_stats();
    println!(
        "events        : {} scheduled, {} delivered, {} cancelled, {} max pending, {} compactions",
        q.scheduled(),
        q.delivered(),
        q.cancelled(),
        q.max_pending(),
        q.compactions()
    );
    let net = report.network_stats();
    println!(
        "reallocation  : {} rounds, {} reschedules ({:.1}% rate churn)",
        net.reallocations,
        net.reschedules,
        100.0 * report.rate_change_ratio()
    );
    println!("replay        : {}", report.replay());
    if let Some(fs) = report.fault_stats() {
        println!(
            "faults        : {} injected ({} degrade, {} fail, {} repair), {} reroutes (+{} hops), lost compute {:.3} ms",
            fs.faults_injected,
            fs.link_degrades,
            fs.link_fails,
            fs.link_repairs,
            net.reroutes,
            net.added_hops,
            fs.lost_compute_s.iter().sum::<f64>() * 1e3
        );
    }
    // Heaviest layers (the per-layer breakdown of §4.1).
    let per_layer = report.per_layer_compute_s();
    let mut heaviest: Vec<(usize, f64)> = per_layer.iter().copied().enumerate().collect();
    heaviest.sort_by(|a, b| b.1.total_cmp(&a.1));
    let shown: Vec<String> = heaviest
        .iter()
        .take(5)
        .filter(|(_, t)| *t > 0.0)
        .map(|(l, t)| format!("L{l}={:.1}ms", t * 1e3))
        .collect();
    if !shown.is_empty() {
        println!("heaviest layers: {}", shown.join("  "));
    }
    // AkitaRTM-style utilization strip: one row per GPU, 40 buckets.
    const BUCKETS: usize = 40;
    let glyphs = [' ', '.', ':', '-', '=', '#'];
    for (g, row) in report.gpu_utilization(BUCKETS).iter().enumerate() {
        let strip: String = row
            .iter()
            .map(|&u| {
                glyphs[((u * (glyphs.len() - 1) as f64).round() as usize).min(glyphs.len() - 1)]
            })
            .collect();
        println!("gpu{g:<2} util    : [{strip}]");
    }
    if let Some(path) = opts.get("timeline") {
        let json = report.to_chrome_trace().map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| e.to_string())?;
        println!("timeline      : {path}");
    }
    if let Some(path) = opts.get("html") {
        let title = format!("{} | {} | {}", trace.model(), platform.name(), parallelism);
        let html = triosim::render_html_timeline(&report, &title);
        std::fs::write(path, html).map_err(|e| e.to_string())?;
        println!("html timeline : {path}");
    }
    for (key, label) in [
        ("events", "event log"),
        ("trace-events", "trace events"),
        ("metrics", "metrics"),
    ] {
        if let Some(path) = opts.get(key) {
            println!("{label:<14}: {path}");
        }
    }
    if let Some(p) = profile {
        println!("self-profile (wall clock, diagnostic only):");
        print!("{}", p.render());
    }
    Ok(())
}

/// `analyze`: run the simulation and print the full bottleneck
/// attribution — where the virtual time went and what gates it.
fn cmd_analyze(opts: &HashMap<String, String>) -> Result<(), String> {
    let trace = load_trace(opts)?;
    let platform = Platform::from_str(opts.get("platform").map(String::as_str).unwrap_or("p2:4"))?;
    let parallelism =
        Parallelism::from_str(opts.get("parallelism").map(String::as_str).unwrap_or("ddp"))?;
    let top = parse_num(opts, "top", 8)? as usize;
    let builder = apply_sim_flags(
        SimBuilder::new(&trace, &platform).parallelism(parallelism),
        opts,
    )?;
    let (report, profile) = run_builder(builder, opts)?;
    let b = report.bottleneck();

    println!(
        "{} | {} x {} | {} | {} iteration(s)",
        trace.model(),
        platform.gpu_count(),
        platform.gpu(),
        parallelism,
        b.iterations
    );
    println!(
        "critical path   : {:.3} ms of {:.3} ms total",
        b.critical_path_s * 1e3,
        report.total_time_s() * 1e3
    );
    println!(
        "  compute       : {:.3} ms ({:.1}%)",
        b.path_compute_s * 1e3,
        100.0 * (1.0 - b.exposed_comm_fraction)
    );
    println!(
        "  exposed comm  : {:.3} ms ({:.1}%)",
        b.path_comm_s * 1e3,
        100.0 * b.exposed_comm_fraction
    );
    println!("top critical ops:");
    for (rank, op) in b.top_ops.iter().take(top).enumerate() {
        println!(
            "  {:>2}. {:<28} {:>7} {:>10.3} ms  x{:<5} {:>5.1}%",
            rank + 1,
            op.label,
            op.kind,
            op.seconds * 1e3,
            op.count,
            100.0 * op.share
        );
    }
    println!("per-GPU time (ms): compute + exposed comm + idle = total; overlap is hidden comm");
    println!(
        "  {:<5} {:>10} {:>10} {:>10} {:>10} {:>10} {:>6}",
        "gpu", "compute", "overlap", "exposed", "idle", "total", "busy%"
    );
    for (g, bk) in b.per_gpu.iter().enumerate() {
        println!(
            "  {:<5} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>5.1}%",
            format!("gpu{g}"),
            bk.compute_s * 1e3,
            bk.overlapped_comm_s * 1e3,
            bk.exposed_comm_s * 1e3,
            bk.idle_s * 1e3,
            bk.total_s * 1e3,
            100.0 * bk.compute_s / bk.total_s.max(f64::MIN_POSITIVE)
        );
    }
    if b.stragglers.is_empty() {
        println!("stragglers      : none (no GPU above 1.25x median busy time)");
    } else {
        println!("stragglers      :");
        for s in &b.stragglers {
            let fault = if s.fault_lost_s > 0.0 {
                format!(
                    "  ({:.3} ms attributed to injected faults)",
                    s.fault_lost_s * 1e3
                )
            } else {
                String::new()
            };
            println!(
                "  gpu{:<3} busy {:>10.3} ms = {:.2}x median{fault}",
                s.gpu,
                s.compute_s * 1e3,
                s.vs_median
            );
        }
    }
    if !b.hottest_links.is_empty() {
        println!("hottest links   :");
        for l in b.hottest_links.iter().take(top) {
            println!(
                "  {:<28} busy {:>10.3} ms  {:>8.1} MB  {:>5.1}% util",
                l.label,
                l.busy_s * 1e3,
                l.bytes / 1e6,
                100.0 * l.utilization
            );
        }
    }
    if let Some(p) = profile {
        println!("self-profile (wall clock, diagnostic only):");
        print!("{}", p.render());
    }
    Ok(())
}

fn cmd_sweep(opts: &HashMap<String, String>) -> Result<(), String> {
    if opts.contains_key("journal") && opts.contains_key("resume") {
        return Err("--journal and --resume are mutually exclusive \
                    (resume keeps appending to the journal it reads)"
            .into());
    }
    // The spec comes from --spec, or (on resume) from the journal header,
    // so a sweep can be resumed even after the spec file is gone.
    let text = match (opts.get("spec"), opts.get("resume")) {
        (Some(path), _) => std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?,
        (None, Some(journal_path)) => {
            let (header, _) =
                triosim::sweep::journal::read_journal(std::path::Path::new(journal_path))
                    .map_err(|e| format!("{journal_path}: {e}"))?;
            if header.spec_text.is_empty() {
                return Err(format!(
                    "{journal_path}: journal has no embedded spec; pass --spec"
                ));
            }
            header.spec_text
        }
        (None, None) => return Err("missing --spec".into()),
    };
    let spec = triosim::SweepSpec::from_json(&text).map_err(|e| e.to_string())?;
    let threads = match opts.get("threads") {
        Some(n) => {
            let n: usize = parse(n)?;
            if n == 0 {
                return Err("--threads must be at least 1".into());
            }
            n
        }
        None => std::thread::available_parallelism()
            .map(std::num::NonZero::get)
            .unwrap_or(1),
    };
    let checkpoint_every: usize = match opts.get("checkpoint-every") {
        Some(n) => {
            if !opts.contains_key("checkpoint-dir") {
                return Err("--checkpoint-every requires --checkpoint-dir".into());
            }
            let n: usize = parse(n)?;
            if n == 0 {
                return Err("--checkpoint-every must be at least 1".into());
            }
            n
        }
        None => 1,
    };
    let config = triosim::SweepRunConfig {
        threads,
        progress: opts.contains_key("progress"),
        journal: opts.get("journal").map(std::path::PathBuf::from),
        resume: opts.get("resume").map(std::path::PathBuf::from),
        fail_fast: opts.contains_key("fail-fast"),
        spec_text: Some(text),
        profile: opts.contains_key("profile"),
        checkpoint_dir: opts.get("checkpoint-dir").map(std::path::PathBuf::from),
        checkpoint_every,
        cancel: None,
        rerun_panicked: false,
    };
    let outcome = triosim::run_sweep_with(&spec, &config).map_err(|e| e.to_string())?;

    println!(
        "sweep `{}` | {} scenarios | {} threads",
        outcome.name,
        outcome.results.len(),
        outcome.threads
    );
    println!(
        "elapsed       : {:.2}s ({:.2} scenarios/s)",
        outcome.elapsed_s,
        outcome.scenarios_per_sec()
    );
    if outcome.replayed > 0 {
        println!(
            "resumed       : {} of {} scenarios from journal",
            outcome.replayed,
            outcome.results.len()
        );
    }
    if outcome.failures() > 0 {
        println!(
            "failures      : {} (see `error` entries; {} panicked, {} over budget)",
            outcome.failures(),
            outcome.panicked(),
            outcome.budget_terminated()
        );
    }
    // Slowest scenarios dominate the wall clock; show where time went.
    let mut by_cost: Vec<&triosim::ScenarioResult> = outcome.results.iter().collect();
    by_cost.sort_by(|a, b| b.wall_s.total_cmp(&a.wall_s));
    for r in by_cost.iter().take(3) {
        println!("  {:>7.2}s  {}", r.wall_s, r.label);
    }
    if let Some(out) = opts.get("out") {
        std::fs::write(out, outcome.to_canonical_string()).map_err(|e| format!("{out}: {e}"))?;
        println!("aggregate     : {out}");
    }
    if let Some(path) = opts.get("metrics") {
        let file = std::fs::File::create(path)
            .map(std::io::BufWriter::new)
            .map_err(|e| format!("{path}: {e}"))?;
        let mut sink = PrometheusSink::new(file);
        let counters: [(&str, f64); 5] = [
            ("triosim_scenarios_total", outcome.results.len() as f64),
            ("triosim_scenarios_recovered_total", outcome.replayed as f64),
            ("triosim_scenarios_failed_total", outcome.failures() as f64),
            (
                "triosim_scenarios_panicked_total",
                outcome.panicked() as f64,
            ),
            (
                "triosim_scenarios_budget_terminated_total",
                outcome.budget_terminated() as f64,
            ),
        ];
        for (name, value) in counters {
            sink.counter_add(name, &[("sweep", &outcome.name)], value);
        }
        // Wall-clock self-profile spans as gauges (diagnostic series;
        // the canonical aggregate file never contains them).
        if let Some(p) = &outcome.profile {
            for (span, seconds, _calls) in p.flatten() {
                sink.gauge_set(
                    VirtualTime::ZERO,
                    "triosim_selfprof_seconds",
                    &[("sweep", &outcome.name), ("span", &span)],
                    seconds,
                );
            }
        }
        sink.finish().map_err(|e| format!("{path}: {e}"))?;
        println!("metrics       : {path}");
    }
    if let Some(p) = &outcome.profile {
        println!("self-profile (wall clock, diagnostic only):");
        print!("{}", p.render());
    }
    Ok(())
}

fn cmd_memory(opts: &HashMap<String, String>) -> Result<(), String> {
    let trace = load_trace(opts)?;
    let gpus: u64 = parse_num(opts, "gpus", 1)?;
    let parallelism =
        Parallelism::from_str(opts.get("parallelism").map(String::as_str).unwrap_or("ddp"))?;
    let batch = parse_num(opts, "batch", trace.batch() * gpus)?;
    let est = estimate_memory(&trace, parallelism, gpus as usize, batch);
    let gb = |b: u64| b as f64 / (1u64 << 30) as f64;
    println!(
        "{} | {gpus} GPUs | {parallelism} | global batch {batch}",
        trace.model()
    );
    println!("weights        : {:>8.2} GB", gb(est.weights));
    println!("gradients      : {:>8.2} GB", gb(est.gradients));
    println!("optimizer state: {:>8.2} GB", gb(est.optimizer_state));
    println!("activations    : {:>8.2} GB", gb(est.activations));
    println!("input          : {:>8.2} GB", gb(est.input));
    println!("total          : {:>8.2} GB", gb(est.total()));
    for gpu in GpuModel::ALL {
        let cap = gpu.spec().mem_capacity;
        println!(
            "  fits {:<5} ({:>3} GB): {}",
            gpu.to_string(),
            cap >> 30,
            if est.fits(cap) { "yes" } else { "NO" }
        );
    }
    Ok(())
}

/// A process-wide "please drain" flag flipped by SIGTERM/SIGINT. The
/// handler only stores to an atomic (async-signal-safe); the serve loop
/// polls it.
static SHUTDOWN: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

#[cfg(unix)]
fn install_shutdown_handler() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    extern "C" fn on_signal(_sig: i32) {
        SHUTDOWN.store(true, std::sync::atomic::Ordering::SeqCst);
    }
    // SIGINT = 2, SIGTERM = 15 (POSIX). Hand-rolled because the
    // workspace is vendored-only — no signal-handling crate to lean on.
    unsafe {
        signal(2, on_signal as extern "C" fn(i32) as usize);
        signal(15, on_signal as extern "C" fn(i32) as usize);
    }
}

#[cfg(not(unix))]
fn install_shutdown_handler() {
    // No signal plumbing off Unix; the daemon runs until killed.
}

fn cmd_serve(opts: &HashMap<String, String>) -> Result<(), String> {
    let job_threads = match opts.get("job-threads") {
        Some(n) => {
            let n: usize = parse(n)?;
            if n == 0 {
                return Err("--job-threads must be at least 1".into());
            }
            n
        }
        None => std::thread::available_parallelism()
            .map(std::num::NonZero::get)
            .unwrap_or(1),
    };
    let runner = triosim::SweepJobRunner {
        threads: job_threads,
        checkpoint_every: parse_num(opts, "checkpoint-every", 1)? as usize,
        max_events: opts.get("max-events").map(|s| parse(s)).transpose()?,
        max_sim_time_us: opts.get("max-sim-time-us").map(|s| parse(s)).transpose()?,
        wall_timeout_ms: opts.get("wall-timeout-ms").map(|s| parse(s)).transpose()?,
    };
    let config = triosim_server::ServerConfig {
        addr: opts
            .get("addr")
            .cloned()
            .unwrap_or_else(|| "127.0.0.1:7077".into()),
        workers: parse_num(opts, "workers", 1)?.max(1) as usize,
        queue_cap: parse_num(opts, "queue-cap", 64)? as usize,
        max_conns: parse_num(opts, "max-conns", 64)?.max(1) as usize,
        read_timeout_ms: parse_num(opts, "read-timeout-ms", 5_000)?,
        write_timeout_ms: parse_num(opts, "write-timeout-ms", 5_000)?,
        retry: triosim_server::RetryPolicy {
            max_attempts: parse_num(opts, "retry-max", 3)?.max(1) as u32,
            base_ms: parse_num(opts, "retry-base-ms", 100)?,
            cap_ms: parse_num(opts, "retry-cap-ms", 5_000)?,
            seed: parse_num(opts, "retry-seed", 0)?,
        },
        data_dir: std::path::PathBuf::from(
            opts.get("data-dir")
                .map(String::as_str)
                .unwrap_or(".triosim-jobs"),
        ),
    };
    install_shutdown_handler();
    let server = triosim_server::Server::start(config, Box::new(runner))
        .map_err(|e| format!("cannot start server: {e}"))?;
    println!("triosim-server listening on {}", server.local_addr());
    println!("  POST /jobs | GET /jobs/<id> | GET /jobs/<id>/result");
    println!("  GET /healthz /readyz /metrics   (SIGTERM drains gracefully)");
    while !SHUTDOWN.load(std::sync::atomic::Ordering::SeqCst) {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    eprintln!("shutdown signal received; draining (in-flight jobs are journaled) ...");
    server.drain();
    server.join();
    eprintln!("drained; all accepted jobs are durable in the data dir");
    Ok(())
}

/// Pulls the string value of `key` out of a JSON response body.
fn json_str_field(body: &str, key: &str) -> Option<String> {
    let v: serde::Value = serde_json::from_str(body).ok()?;
    match v.get(key) {
        Some(serde::Value::Str(s)) => Some(s.clone()),
        _ => None,
    }
}

fn cmd_submit(opts: &HashMap<String, String>) -> Result<(), String> {
    let spec_path = opts.get("spec").ok_or("missing --spec")?;
    let body = std::fs::read(spec_path).map_err(|e| format!("{spec_path}: {e}"))?;
    let addr = opts
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7077".into());
    let timeout = std::time::Duration::from_secs(10);
    let r = triosim_server::request(&addr, "POST", "/jobs", Some(&body), timeout)?;
    let text = r.body_text();
    match r.status {
        200 | 202 => {}
        429 => {
            let after = r.header("retry-after").unwrap_or("1").to_string();
            return Err(format!(
                "server shed the submission (queue full); retry after {after}s: {text}"
            ));
        }
        other => return Err(format!("server rejected the submission ({other}): {text}")),
    }
    let id =
        json_str_field(&text, "id").ok_or_else(|| format!("response has no job id: {text}"))?;
    println!(
        "job {id} {}",
        if r.status == 200 {
            "already known"
        } else {
            "accepted"
        }
    );
    if !opts.contains_key("wait") {
        println!("poll with: triosim-cli submit --wait, or GET http://{addr}/jobs/{id}");
        return Ok(());
    }
    let poll = std::time::Duration::from_millis(parse_num(opts, "poll-ms", 500)?.max(10));
    loop {
        let r =
            triosim_server::request(&addr, "GET", &format!("/jobs/{id}/result"), None, timeout)?;
        match r.status {
            200 => {
                let result = r.body;
                if let Some(out) = opts.get("out") {
                    std::fs::write(out, &result).map_err(|e| format!("{out}: {e}"))?;
                    println!("result        : {out}");
                } else {
                    println!("{}", String::from_utf8_lossy(&result));
                }
                return Ok(());
            }
            409 => {
                let body = r.body_text();
                let state = json_str_field(&body, "state").unwrap_or_else(|| "unknown".into());
                if state == "dead" {
                    return Err(format!("job {id} dead-lettered: {body}"));
                }
                eprintln!("job {id}: {state}");
            }
            other => return Err(format!("polling {id} failed ({other}): {}", r.body_text())),
        }
        std::thread::sleep(poll);
    }
}
