//! The five workloads: their inputs (a function of the seed), their
//! set-up, and the run loop. A run measures plain ops; a traced run
//! alternates them with traced units, which take the same inputs through
//! every layer, each timed at its public entry point.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use serde::Value;
use triosim::Fidelity;
use triosim_modelzoo::ModelId;
use triosim_trace::GpuModel;

use crate::host::pin_to_last_cpu;
use crate::metrics::{num, peak_rss_mb, summarize, Outcome, Sample, Spans, WorkDir};
use crate::probe::{Probe, REFERENCE_S};
use crate::service::{job_run, scenario_digests, spec_text, sweep, Service};
use crate::sim::{self, digest, guarded, Case, Prepared};
use crate::stats::{median, self_time, tail, Rng};

/// Every workload, in the order the full set runs them.
pub const WORKLOADS: [&str; 5] = ["fig14", "steady_1000", "ring64", "incast_packet", "served"];

/// Child processes that time set-ups, and cold set-ups each one times.
/// The children are spread evenly over the measured time: on the
/// reference host, trace builds ran ~1.5x slower in stretches of a second
/// or so that the probe does not see, and set-ups timed back to back in
/// one such stretch all read slow. A child has a fresh heap, so unlike a
/// set-up in this process it cannot pay for an op's freed memory.
/// `setup_s` is the median over children of each one's median.
const SETUP_PROCESSES: usize = 21;
const SETUPS_PER_PROCESS: usize = 5;
/// Ops the memory child runs after its set-up: the first op and one that
/// reuses what the first freed.
const MEMORY_OPS: u64 = 2;
/// Traced units whose spans go into the Perfetto file.
const SPAN_UNITS: usize = 3;
/// The client's think time before each submit is uniform below this. The
/// server accepts connections on a 10 ms poll, and a client that submits
/// back to back locks to its phase; think time lands each submit at a
/// random phase, as independent `submit --wait` calls do.
const THINK_MAX_US: usize = 10_000;
/// How often the host-speed probe runs between ops.
const PROBE_EVERY: Duration = Duration::from_millis(250);

/// The committed per-case digests and Fig 14 accuracy.
const EXPECTED: &str = include_str!("../expected.json");

/// The fixed scenarios draw from a menu of configurations with the same
/// task-graph shape (only the batch differs), so every seed does the same
/// amount of simulator work.
fn menu<T: Copy>(items: [T; 3], seed: u64) -> T {
    items[(seed % 3) as usize]
}

/// One iteration of DDP at trace batch `b` on `gpus` GPUs of `platform`.
fn case(model: ModelId, b: u64, gpu: GpuModel, platform: &'static str, gpus: u64) -> Case {
    Case {
        key: format!("{model}-b{b}"),
        model,
        trace_batch: b,
        gpu,
        platform,
        global_batch: b * gpus,
        fidelity: Fidelity::TrioSim,
        iterations: 1,
    }
}

/// The inputs of simulation workload `workload` for `seed`, or `None`
/// for a name that is not a simulation workload.
pub fn cases(workload: &str, seed: u64) -> Option<Vec<Case>> {
    let a100 = GpuModel::A100;
    Some(match workload {
        // Fig 14: the paper's 18 models on P2 with 4 A100s, traced at the
        // paper's batch (Llama at 16); the seed shuffles the order.
        "fig14" => {
            let mut v: Vec<Case> = ModelId::ALL
                .iter()
                .map(|&model| {
                    let b = if model == ModelId::Llama32_1B {
                        16
                    } else {
                        128
                    };
                    Case {
                        key: model.to_string(),
                        ..case(model, b, a100, "p2:4", 4)
                    }
                })
                .collect();
            Rng::new(seed).shuffle(&mut v);
            v
        }
        "steady_1000" => vec![Case {
            iterations: 1000,
            ..case(ModelId::ResNet50, menu([32, 48, 64], seed), a100, "p2:4", 4)
        }],
        "ring64" => vec![case(
            ModelId::ResNet50,
            menu([128, 96, 112], seed),
            a100,
            "p2:64",
            64,
        )],
        "incast_packet" => vec![Case {
            fidelity: Fidelity::Packet,
            ..case(
                ModelId::ResNet18,
                menu([8, 12, 10], seed),
                a100,
                "fat:A100:8",
                8,
            )
        }],
        _ => return None,
    })
}

/// A served scenario is one iteration of one of these models on P2 with
/// 16 A100s, at one of these trace batches.
const SERVED_MODELS: [ModelId; 3] = [ModelId::Vgg11, ModelId::Vgg13, ModelId::Vgg16];
const SERVED_BATCHES: [u64; 8] = [8, 16, 24, 32, 40, 48, 56, 64];
/// Job `i` runs `JOB_SIZES[i % 5]` scenarios of each model. The server
/// accepts connections on a 10 ms poll, so a job's result is seen at the
/// first tick after its run ends. Runs of about 100 ms span many ticks,
/// their lengths vary, and every run serves the same mix, so the median
/// latency follows the run's cost instead of sticking to one tick.
const JOB_SIZES: [usize; 5] = [3, 4, 5, 6, 7];

/// Served job `i`'s cases: `JOB_SIZES[i % 5]` scenarios of each model,
/// at distinct batches drawn from `rng`, models interleaved. The batch
/// barely changes a scenario's cost, so the seed picks inputs without
/// changing how much work a job is.
pub fn draw_job(rng: &mut Rng, i: u64) -> Vec<Case> {
    let per_model = JOB_SIZES[i as usize % JOB_SIZES.len()];
    let batches: Vec<[u64; 8]> = SERVED_MODELS
        .iter()
        .map(|_| {
            let mut b = SERVED_BATCHES;
            rng.shuffle(&mut b);
            b
        })
        .collect();
    (0..per_model)
        .flat_map(|k| {
            SERVED_MODELS
                .iter()
                .zip(&batches)
                .map(move |(&m, b)| (m, b[k]))
        })
        .map(|(model, b)| case(model, b, GpuModel::A100, "p2:16", 16))
        .collect()
}

/// `cases` as the sweep and service layers take them. The job runner
/// checkpoints every scenario and the packet tier cannot be checkpointed
/// (such a scenario ends in a checkpoint error), so a packet case goes
/// through those layers as its flow-tier twin.
fn servable(cases: &[Case]) -> Vec<Case> {
    cases
        .iter()
        .map(|c| match c.fidelity {
            Fidelity::Packet => Case {
                key: format!("{}-flow", c.key),
                fidelity: Fidelity::TrioSim,
                ..c.clone()
            },
            _ => c.clone(),
        })
        .collect()
}

/// `expected.json`: each simulation workload's committed case digests
/// and Fig 14's accuracy.
#[derive(Debug)]
struct Expected(Value);

impl Expected {
    fn get(&self, workload: &str, path: &[&str]) -> Option<&str> {
        let mut v = self.0.get(workload)?;
        for key in path {
            v = v.get(key)?;
        }
        match v {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// What a workload's plain op runs on.
enum Plain {
    /// A simulation workload's prepared cases; an op is one simulation.
    Sim(Vec<Prepared>),
    /// The `served` workload's server; an op is one job, submit to result.
    Served(Service),
}

/// A run's measurements and checks.
struct Run<'a> {
    workload: &'a str,
    expected: Expected,
    work: WorkDir,
    out: Outcome,
    /// Each correct plain op's host seconds and the DES events it
    /// delivered.
    ops: Vec<(f64, u64)>,
    /// Draws the served client's think times.
    think: Rng,
    /// The first digest each case key produced.
    digests: BTreeMap<String, String>,
    /// Plain served jobs, checked after the measured loop so the
    /// in-process reruns do not slow the client.
    served: Vec<ServedJob>,
    samples: Vec<Sample>,
    spans: Spans,
}

/// A plain served job: its cases' keys, its spec, its result and its host
/// seconds from submit to result.
struct ServedJob {
    keys: Vec<String>,
    spec: String,
    body: String,
    wall: f64,
}

impl Run<'_> {
    /// Whether `got` is the right output of case `key`: the committed
    /// digest on a simulation workload, and on every workload the first
    /// output this run saw for the same key.
    fn verify(&mut self, key: &str, got: &str) -> Result<(), String> {
        let seen = self
            .digests
            .entry(key.to_string())
            .or_insert_with(|| got.to_string());
        let committed = self.expected.get(self.workload, &["digests", key]);
        let want = if self.workload == "served" {
            Some(seen.as_str())
        } else {
            committed
        };
        match want {
            Some(w) if w == got && seen == got => Ok(()),
            w => Err(format!(
                "{key}: digest {got}, expected {}",
                w.unwrap_or("none committed")
            )),
        }
    }

    /// Counts one op; a failed one is recorded with its reason.
    fn op<T>(&mut self, what: &str, r: Result<T, String>) -> Option<T> {
        self.out.attempted += 1;
        r.map_err(|e| self.out.fail(format!("{what}: {e}"))).ok()
    }

    /// Sleeps for the served client's next think time.
    fn think(&mut self) {
        let us = self.think.below(THINK_MAX_US) as u64;
        std::thread::sleep(Duration::from_micros(us));
    }

    /// One plain op on a simulation workload: a simulation of each case,
    /// in order. Returns its host seconds.
    fn plain_sims(&mut self, prepared: &[Prepared]) -> f64 {
        let (mut total, mut events, mut correct) = (0.0, 0, true);
        for p in prepared {
            let t = Instant::now();
            let r = guarded(|| sim::simulate(p));
            total += t.elapsed().as_secs_f64();
            let r = r.and_then(|s| self.verify(&p.case.key, &digest(&s.canonical)).map(|()| s));
            match self.op("plain", r) {
                Some(s) => events += s.events,
                None => correct = false,
            }
        }
        if correct {
            self.ops.push((total, events));
        }
        total
    }

    /// One plain op on `cases` (a simulation of each, or one served job
    /// named `name`); returns its host seconds.
    fn plain(&mut self, plain: &Plain, cases: &[Case], name: &str) -> f64 {
        let service = match plain {
            Plain::Sim(p) => return self.plain_sims(p),
            Plain::Served(service) => service,
        };
        let spec = spec_text(name, cases);
        self.think();
        match service.serve(&spec) {
            Ok(s) => {
                let wall = s.wall_s();
                let keys = cases.iter().map(|c| c.key.clone()).collect();
                self.served.push(ServedJob {
                    keys,
                    spec,
                    body: s.body,
                    wall,
                });
                wall
            }
            Err(e) => {
                self.op::<()>("served", Err(e));
                f64::NAN
            }
        }
    }

    /// Checks every plain served job against an in-process `run_sweep` of
    /// the same spec, and counts the latency and events of those that
    /// match.
    fn check_served(&mut self) {
        for job in std::mem::take(&mut self.served) {
            let ServedJob {
                keys,
                spec,
                body,
                wall,
            } = job;
            let r = sweep(&spec).and_then(|direct| {
                if direct != body {
                    return Err("served bytes differ from run_sweep".to_string());
                }
                let (digests, events) = scenario_digests(&body)?;
                for (key, d) in keys.iter().zip(&digests) {
                    self.verify(key, d)?;
                }
                Ok(events)
            });
            if let Some(events) = self.op("served", r) {
                self.ops.push((wall, events));
            }
        }
    }

    /// One traced unit: `cases` through every layer. Returns its sample,
    /// whose `op_s` is the host seconds of the workload's op (the traced
    /// simulations, or the served job) and whose `bench.coverage_frac` is
    /// the share of that op the layer spans cover.
    fn traced_unit(&mut self, cases: &[Case], name: &str, timed: &Service) -> Sample {
        let mut s = Sample::default();
        self.spans.on = self.samples.len() < SPAN_UNITS;
        let t = Instant::now();
        let Some((prepared, trace_s)) = self.op("prepare", sim::prepare(cases)) else {
            return s;
        };
        self.spans.add("trace.build", t, Instant::now(), vec![]);
        s.add("trace.build_s", trace_s);
        s.add(
            "trace.ops",
            prepared
                .iter()
                .map(|p| p.trace.entries().len() as f64)
                .sum(),
        );

        // The simulation layers, then the same case checkpointed.
        let ckpt = self.work.join("run.ckpt");
        for p in &prepared {
            let key = &p.case.key;
            let spans = &mut self.spans;
            let r = guarded(|| sim::traced(p, &mut s, spans))
                .and_then(|sim| self.verify(key, &digest(&sim.canonical)));
            self.op("traced", r);
            let t = Instant::now();
            let r = guarded(|| sim::simulate_checkpointed(p, &ckpt, &mut s));
            self.spans.add("checkpoint.run", t, Instant::now(), vec![]);
            let r = r.and_then(|sim| self.verify(key, &digest(&sim.canonical)));
            self.op("checkpointed", r);
        }

        // The sweep layer: in-process, then through the job runner.
        let servable = servable(cases);
        let spec = spec_text(name, &servable);
        let t = Instant::now();
        let raw = guarded(|| sweep(&spec));
        let t1 = Instant::now();
        s.add("sweep.raw_s", t1.duration_since(t).as_secs_f64());
        self.spans.add("sweep.raw", t, t1, vec![]);
        let raw = raw.and_then(|raw| {
            let (digests, _) = scenario_digests(&raw)?;
            for (case, d) in servable.iter().zip(&digests) {
                self.verify(&case.key, d)?;
            }
            Ok(raw)
        });
        let raw = self.op("sweep", raw).unwrap_or_default();
        let t = Instant::now();
        let r = guarded(|| job_run(&self.work.join("store"), &spec));
        self.spans.add("sweep.job", t, Instant::now(), vec![]);
        let r = r.and_then(|(result, job_s, journal_bytes)| {
            if result == raw {
                Ok((job_s, journal_bytes))
            } else {
                Err("job runner bytes differ from run_sweep".to_string())
            }
        });
        if let Some((job_s, journal_bytes)) = self.op("job", r) {
            s.add("sweep.job_s", job_s);
            s.add("sweep.journal_bytes", journal_bytes as f64);
        }

        // The service layer: one job through the timed server.
        self.think();
        let r = timed.serve(&spec).and_then(|served| {
            let (run_start, run_end) = timed
                .run_span(&spec)
                .ok_or("the timed runner never ran the job")?;
            if served.body == raw {
                Ok((served, run_start, run_end))
            } else {
                Err("served bytes differ from run_sweep".to_string())
            }
        });
        let Some((served, run_start, run_end)) = self.op("served", r) else {
            return s;
        };
        let at = |t: Instant| t.saturating_duration_since(served.sent).as_secs_f64();
        let wall = served.wall_s();
        // One client never finds a queue: the worker takes the job before
        // the submit's answer is back, so the run can start inside the
        // submit. Start lag, run and result lag partition the op.
        s.add("server.submit_s", at(served.accepted));
        s.add("server.start_lag_s", at(run_start));
        s.add("server.run_s", at(run_end) - at(run_start));
        s.add("server.result_lag_s", at(served.done) - at(run_end));
        s.add("server.polls", served.polls as f64);
        self.spans
            .add("server.job", served.sent, served.done, vec![]);
        self.spans
            .add("server.start_lag", served.sent, run_start, vec![]);
        self.spans.add("server.run", run_start, run_end, vec![]);
        self.spans
            .add("server.result_lag", run_end, served.done, vec![]);

        let (op_s, uncovered) = if self.workload == "served" {
            let layers = [
                (0.0, at(run_start)),
                (at(run_start), at(run_end)),
                (at(run_end), wall),
            ];
            (wall, self_time((0.0, wall), &layers))
        } else {
            (s.get("sim.op_s"), s.get("sim.op_self_s"))
        };
        s.0.remove("sim.op_s");
        s.0.remove("sim.op_self_s");
        s.add("op_s", op_s);
        s.add("bench.coverage_frac", 1.0 - uncovered / op_s);
        s
    }
}

/// A simulation workload measures on one fixed CPU (see
/// [`pin_to_last_cpu`]). `served` is not pinned: its client and server
/// threads need both CPUs.
fn pin(sim_cases: Option<&[Case]>) -> Option<usize> {
    sim_cases.and_then(|_| pin_to_last_cpu())
}

/// One cold set-up: the prepared cases of a simulation workload, or a
/// server on `dir` ready to take jobs. Returns it and its host seconds.
fn set_up(sim_cases: Option<&[Case]>, dir: &Path) -> Result<(Plain, f64), String> {
    let t = Instant::now();
    let p = match sim_cases {
        Some(c) => Plain::Sim(sim::prepare(c)?.0),
        None => Plain::Served(Service::start(dir, false)?),
    };
    let secs = t.elapsed().as_secs_f64();
    if let Plain::Served(service) = &p {
        service.check_ready()?;
    }
    Ok((p, secs))
}

/// The body of a set-up child: `SETUPS_PER_PROCESS` cold set-ups back to
/// back, after one probe run so that none is timed on a CPU that has just
/// been idle. Returns their median host seconds.
pub fn setup_child(workload: &str, seed: u64) -> Result<f64, String> {
    let sim_cases = cases(workload, seed);
    pin(sim_cases.as_deref());
    Probe::new().time();
    let work = WorkDir::new(&format!("{workload}-setup"))?;
    let mut secs = Vec::with_capacity(SETUPS_PER_PROCESS);
    let mut last = None;
    for _ in 0..SETUPS_PER_PROCESS {
        drop(last.take());
        let (p, s) = set_up(sim_cases.as_deref(), &work.join("data"))?;
        secs.push(s);
        last = Some(p);
    }
    Ok(median(&secs))
}

/// The body of a memory child: one set-up and `MEMORY_OPS` ops, in a
/// process that holds nothing else (no probe, no measurements), so its
/// peak resident set is the workload's and does not depend on how many
/// ops a time-bound run fits. Returns `VmHWM` in MiB.
pub fn memory_child(workload: &str, seed: u64) -> Result<f64, String> {
    let sim_cases = cases(workload, seed);
    let work = WorkDir::new(&format!("{workload}-memory"))?;
    let (plain, _) = set_up(sim_cases.as_deref(), &work.join("data"))?;
    let mut rng = Rng::new(seed);
    for i in 0..MEMORY_OPS {
        match &plain {
            Plain::Sim(prepared) => {
                for p in prepared {
                    guarded(|| sim::simulate(p))?;
                }
            }
            Plain::Served(service) => {
                let name = format!("perfbench-{workload}-{seed}-memory-{i}");
                service.serve(&spec_text(&name, &draw_job(&mut rng, i)))?;
            }
        }
    }
    peak_rss_mb()
}

/// Runs this binary as a child in `mode` (`--setup-child` or
/// `--memory-child`) and waits for it; returns the number it prints.
fn in_child(mode: &str, workload: &str, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let seed = seed.to_string();
    let out = Command::new(exe)
        .args([mode, "--workload", workload, "--seed", &seed])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{mode}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().parse::<f64>() {
        Ok(v) if out.status.success() => Ok(v),
        _ => Err(format!("{mode} {}: {}", out.status, text.trim())),
    }
}

/// Runs workload `workload` for `seconds` of measured ops; a traced run
/// fills the per-layer values instead of the end-to-end ones.
pub fn run(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let sim_cases = cases(workload, seed);
    if sim_cases.is_none() && workload != "served" {
        return Err(format!("unknown workload `{workload}`"));
    }
    let expected = serde_json::from_str(EXPECTED)
        .map(Expected)
        .map_err(|e| format!("expected.json: {e}"))?;
    let work = WorkDir::new(workload)?;

    // The timed server starts before the pin below, so its threads may
    // use every CPU.
    let timed = if traced {
        let service = Service::start(&work.join("timed"), true)?;
        service.check_ready()?;
        Some(service)
    } else {
        None
    };
    let pinned = pin(sim_cases.as_deref());
    let mut probe = Probe::new();
    let mut probe_s = vec![probe.time()];
    let (plain, _) = set_up(sim_cases.as_deref(), &work.join("plain"))?;
    let mut run = Run {
        workload,
        expected,
        work,
        out: Outcome::default(),
        ops: Vec::new(),
        think: Rng::new(!seed),
        digests: BTreeMap::new(),
        served: Vec::new(),
        samples: Vec::new(),
        spans: Spans::new(),
    };
    let mut rng = Rng::new(seed);
    let mut first_unit = None;
    // Warm-up: untimed and unchecked; a broken op fails the measured ones.
    match &plain {
        Plain::Sim(p) => drop(guarded(|| sim::simulate(&p[0]))),
        Plain::Served(service) => drop(service.serve(&spec_text(
            &format!("perfbench-{workload}-{seed}-warmup"),
            &draw_job(&mut rng.clone(), 0),
        ))),
    }
    // Each traced unit's op time over its plain twin's, minus one.
    let mut overheads = Vec::new();
    let mut next_probe = Instant::now();
    // Set-up children run in the untraced run only, and inherit the pin.
    let setups = if traced { 0 } else { SETUP_PROCESSES };
    let mut setup_s = Vec::with_capacity(setups);
    let setup_every = seconds / SETUP_PROCESSES as f64;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    for i in 0u64.. {
        let due = setup_every * setup_s.len() as f64;
        if setup_s.len() < setups && start.elapsed().as_secs_f64() >= due {
            setup_s.push(in_child("--setup-child", workload, seed)?);
        }
        let unit_cases = match &plain {
            Plain::Sim(p) => p.iter().map(|p| p.case.clone()).collect(),
            Plain::Served(_) => draw_job(&mut rng, i),
        };
        // Spec names are fixed-width, so journal sizes do not grow with i.
        let name = format!("perfbench-{workload}-{seed}-{i:06}");
        let traced_name = format!("{name}-traced");
        let unit_of = |run: &mut Run<'_>| {
            timed
                .as_ref()
                .map(|t| run.traced_unit(&unit_cases, &traced_name, t))
        };
        // Alternate which side goes first so drift favours neither.
        let traced_first = i % 2 == 1;
        let first = if traced_first {
            unit_of(&mut run)
        } else {
            None
        };
        let plain_s = run.plain(&plain, &unit_cases, &name);
        let unit = if traced_first {
            first
        } else {
            unit_of(&mut run)
        };
        if let Some(s) = unit {
            overheads.push(s.get("op_s") / plain_s - 1.0);
            run.samples.push(s);
        }
        first_unit.get_or_insert(unit_cases);
        if Instant::now() >= next_probe {
            probe_s.push(probe.time());
            next_probe = Instant::now() + PROBE_EVERY;
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    while setup_s.len() < setups {
        setup_s.push(in_child("--setup-child", workload, seed)?);
    }
    let probe_s = median(&probe_s);
    run.out.note("probe_s", num(probe_s));
    if let Some(cpu) = pinned {
        run.out.note("pinned_cpu", Value::UInt(cpu as u64));
    }
    run.check_served();
    drop((plain, timed));

    let latencies: Vec<f64> = run.ops.iter().map(|o| o.0).collect();
    let accurate = if traced {
        let cases = first_unit.unwrap_or_default();
        let (prepared, _) = sim::prepare(&cases)?;
        let mut values = summarize(&run.samples);
        values.remove("op_s");
        values.insert("bench.trace_overhead_frac", median(&overheads));
        let (tail_s, tail_pct) = tail(&latencies);
        values.insert("latency_tail_s", tail_s);
        values.insert("bench.ops", latencies.len() as f64);
        values.insert("bench.probe_s", probe_s);
        values.insert("error_pct", sim::error_pct(&prepared)?);
        run.out.note("latency_tail_percentile", num(tail_pct));
        run.out.values = values;
        true
    } else {
        // The event rate of each round of ops: one op on a simulation
        // workload, one job of each size on `served`, so that every rate
        // is taken over the same mix of work.
        let round = if sim_cases.is_some() {
            1
        } else {
            JOB_SIZES.len()
        };
        let rates: Vec<f64> = run
            .ops
            .chunks_exact(round)
            .map(|ops| {
                let events: u64 = ops.iter().map(|o| o.1).sum();
                events as f64 / ops.iter().map(|o| o.0).sum::<f64>()
            })
            .collect();
        let raw = [
            ("setup_s", median(&setup_s)),
            ("latency_p50_s", median(&latencies)),
            ("events_per_s", median(&rates)),
        ];
        // Timings scale to the reference host speed.
        let slowdown = probe_s / REFERENCE_S;
        let per_process = setup_s.iter().map(|&v| num(v)).collect();
        run.out
            .note("setup_process_medians_s", Value::Array(per_process));
        for (name, v) in raw {
            run.out.note(&format!("measured_{name}"), num(v));
            let scaled = match name {
                "events_per_s" => v * slowdown,
                _ => v / slowdown,
            };
            run.out.values.insert(name, scaled);
        }
        let peak_rss = in_child("--memory-child", workload, seed)?;
        run.out.values.insert("peak_rss_mb", peak_rss);
        match (run.expected.get(workload, &["error_pct"]), &sim_cases) {
            (Some(want), Some(cases)) => {
                let got = sim::error_pct(&sim::prepare(cases)?.0)?;
                run.out.note("error_pct", num(got));
                let ok = got.to_string() == want;
                if !ok {
                    eprintln!("error_pct {got}, expected {want}");
                }
                ok
            }
            _ => true,
        }
    };
    let digests = run
        .digests
        .iter()
        .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
        .collect();
    run.out.note("digests", Value::Object(digests));
    // A simulation workload's digest is that of its cases' digests
    // concatenated in key order, so it names the outputs whatever the op
    // count or order.
    if let Some(cases) = &sim_cases {
        let mut keys: Vec<&str> = cases.iter().map(|c| c.key.as_str()).collect();
        keys.sort_unstable();
        let joined: String = keys
            .iter()
            .map(|k| run.digests.get(*k).map_or("", String::as_str))
            .collect();
        run.out.note("workload_digest", Value::Str(digest(&joined)));
    }
    run.out.spans = std::mem::take(&mut run.spans.events);
    let finite = run.out.metrics(traced).iter().all(|m| m.1.is_finite());
    run.out.correct = run.out.failed == 0 && accurate && finite;
    Ok(run.out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use triosim::SweepSpec;

    /// The seed picks `menu[seed % 3]` for the fixed scenarios (seed 0 is
    /// the configuration the README lists) and shuffles Fig 14's models.
    #[test]
    fn seed_maps_to_menu_entry() {
        let key = |w: &str, seed| cases(w, seed).unwrap()[0].key.clone();
        assert_eq!(key("steady_1000", 0), "resnet50-b32");
        assert_eq!(key("ring64", 0), "resnet50-b128");
        assert_eq!(key("incast_packet", 0), "resnet18-b8");
        for w in ["steady_1000", "ring64", "incast_packet"] {
            assert_eq!(key(w, 4), key(w, 1));
            assert_ne!(key(w, 1), key(w, 2));
            assert_eq!(cases(w, 5).unwrap().len(), 1);
        }
        let order = |seed| {
            cases("fig14", seed)
                .unwrap()
                .into_iter()
                .map(|c| c.key)
                .collect::<Vec<_>>()
        };
        assert_eq!(order(3), order(3));
        assert_ne!(order(3), order(4));
        let mut sorted = order(3);
        sorted.sort();
        let mut all = order(0);
        all.sort();
        assert_eq!(sorted, all);
        assert_eq!(all.len(), 18);
        assert!(cases("served", 0).is_none());
    }

    #[test]
    fn served_jobs_are_a_function_of_the_seed() {
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..20).map(|i| draw_job(&mut rng, i)).collect::<Vec<_>>()
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
        for (i, job) in draw(5).into_iter().enumerate() {
            for m in SERVED_MODELS {
                let n = job.iter().filter(|c| c.model == m).count();
                assert_eq!(n, JOB_SIZES[i % JOB_SIZES.len()]);
            }
            let mut keys: Vec<&str> = job.iter().map(|c| c.key.as_str()).collect();
            keys.sort_unstable();
            keys.dedup();
            assert_eq!(keys.len(), job.len());
            let spec = SweepSpec::from_json(&spec_text("t", &job)).unwrap();
            assert_eq!(spec.expand().unwrap().len(), job.len());
        }
    }

    #[test]
    fn packet_cases_are_served_as_their_flow_twin() {
        let incast = cases("incast_packet", 0).unwrap();
        let twin = servable(&incast);
        assert_eq!(twin[0].key, "resnet18-b8-flow");
        assert_eq!(twin[0].fidelity, Fidelity::TrioSim);
        let fig14 = cases("fig14", 0).unwrap();
        assert_eq!(servable(&fig14), fig14);
    }
}
