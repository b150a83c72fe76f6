//! Binds the generic sweep engine ([`triosim_sweep`]) to the simulator.
//!
//! The sweep crate owns the declarative [`SweepSpec`] and the
//! index-ordered work-stealing pool; this module owns everything that
//! requires simulator knowledge:
//!
//! * parsing scenario strings (`"ddp"`, `"p2:4"`, `"reference"`) into
//!   typed configuration, reported per scenario with its index and label;
//! * sharing expensive read-only artifacts across scenarios — the
//!   synthetic trace (parsed/generated once per unique
//!   model x batch x GPU behind an [`Arc`]); Li's Models are calibrated
//!   once per GPU model per process by [`LisModel::calibrated`] itself;
//! * executing each scenario in full isolation: its own DES engine and
//!   its own [`FlowNetwork`] state, so no scenario can observe another's
//!   scheduling;
//! * deterministic aggregation: the canonical sweep JSON
//!   ([`SweepOutcome::to_canonical_string`]) contains only
//!   simulation-determined data, ordered by scenario index — byte-
//!   identical across thread counts, including `threads == 1`.
//!
//! Wall-clock numbers (per-scenario and sweep-level) are collected
//! alongside but kept **out** of the canonical form; they feed the CLI's
//! stdout summary and the `bench_profile` artifact instead.
//!
//! # Crash safety
//!
//! [`run_sweep_with`] adds the durability layer on top:
//!
//! * **Journaling** ([`SweepRunConfig::journal`]): each completed
//!   scenario's canonical result (or deterministic error entry) is
//!   appended to a JSONL [`journal`] and fsync'd as it finishes.
//! * **Resume** ([`SweepRunConfig::resume`]): completed entries are
//!   replayed from the journal (after a spec-hash compatibility check)
//!   and only the remaining scenarios execute; the final
//!   [`SweepOutcome`] is byte-identical to an uninterrupted run at any
//!   thread count.
//! * **Panic isolation**: each scenario runs under `catch_unwind`, so
//!   one panicking scenario degrades to a structured
//!   [`ScenarioError::Panicked`] entry instead of aborting the sweep
//!   ([`SweepRunConfig::fail_fast`] restores the aborting behavior).
//! * **Runaway guards**: a scenario's `max_events` / `max_sim_time_us` /
//!   `wall_timeout_ms` fields become a [`RunBudget`], and blowing it
//!   degrades to a [`ScenarioError::Budget`] entry exactly like
//!   fault-terminated scenarios.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::Arc;
use std::time::Instant;

use serde::Value;
use triosim_des::RunBudget;
use triosim_network::{
    FlowNetwork, FlowNetworkConfig, NetworkModel, PacketNetwork, ReallocationMode,
};
use triosim_obs::{SelfProfile, SelfProfiler};
use triosim_perfmodel::LisModel;
use triosim_trace::{GpuModel, Trace, Tracer};

pub use triosim_sweep::journal;
pub use triosim_sweep::{
    pool::run_ordered, Scenario, ScenarioError, ScenarioPatch, SpecError, SweepProgress, SweepSpec,
};

use crate::compute::{ComputeModel, Fidelity};
use crate::error::SimError;
use crate::parallelism::{CollectiveStyle, Parallelism};
use crate::platform::Platform;
use crate::session::SimBuilder;
use journal::{read_journal, spec_hash, JournalEntry, JournalHeader, JournalWriter};
use triosim_faults::FaultPlan;
use triosim_modelzoo::ModelId;

/// A sweep failed before any scenario ran.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepError {
    /// The spec itself was malformed (parse/expansion failure).
    Spec(SpecError),
    /// A scenario's configuration string did not parse.
    Scenario {
        /// Index of the offending scenario in expansion order.
        index: usize,
        /// Its (possibly auto-generated) label.
        label: String,
        /// What failed to parse.
        error: String,
    },
    /// The run configuration is invalid: a zero `threads` or
    /// `checkpoint_every`, or both `journal` and `resume` set.
    Config(String),
    /// The journal could not be created, read, or replayed — including a
    /// stale journal whose spec hash no longer matches the spec.
    Journal(String),
    /// The sweep was cancelled via [`SweepRunConfig::cancel`] before
    /// every scenario completed. Scenarios that had already finished
    /// were journaled (when journaling was on), so a later resume picks
    /// up exactly where the cancellation cut.
    Cancelled {
        /// Scenarios whose results were durable when the sweep stopped.
        completed: usize,
        /// Total scenarios in the sweep.
        total: usize,
    },
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Spec(e) => write!(f, "{e}"),
            SweepError::Scenario {
                index,
                label,
                error,
            } => write!(f, "scenario {index} ({label}): {error}"),
            SweepError::Config(e) | SweepError::Journal(e) => write!(f, "{e}"),
            SweepError::Cancelled { completed, total } => write!(
                f,
                "sweep cancelled after {completed} of {total} scenarios \
                 (completed results are journaled; resume to continue)"
            ),
        }
    }
}

impl std::error::Error for SweepError {}

impl From<SpecError> for SweepError {
    fn from(e: SpecError) -> Self {
        SweepError::Spec(e)
    }
}

/// One scenario's fully-parsed, ready-to-run configuration. `exec` is
/// `None` for scenarios whose result was replayed from a journal — their
/// strings are still parsed (so configuration errors surface
/// deterministically) but the expensive artifacts are not built.
struct ResolvedScenario {
    scenario: Scenario,
    exec: Option<ExecScenario>,
}

/// The expensive, execution-only half of a resolved scenario.
struct ExecScenario {
    trace: Arc<Trace>,
    platform: Platform,
    parallelism: Parallelism,
    global_batch: Option<u64>,
    fidelity: Fidelity,
    collective: CollectiveStyle,
    iterations: usize,
    realloc: ReallocationMode,
    compute: ComputeModel,
    faults: Option<FaultPlan>,
    fault_seed: Option<u64>,
}

/// The outcome of one scenario: its canonical report (or a deterministic
/// structured error) plus its wall time.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Scenario label.
    pub label: String,
    /// Canonical report JSON on success; a [`ScenarioError`] whose
    /// rendering is deterministic when the scenario failed.
    pub outcome: Result<Value, ScenarioError>,
    /// Wall-clock seconds this scenario took (excluded from canonical
    /// output — it varies run to run; zero for journal-replayed results).
    pub wall_s: f64,
    /// This scenario's self-profile when [`SweepRunConfig::profile`] was
    /// set (excluded from canonical output — wall clock only; `None` for
    /// journal-replayed results and unprofiled runs).
    pub profile: Option<SelfProfile>,
}

/// A completed sweep: per-scenario results in expansion order plus
/// timing.
#[derive(Debug)]
pub struct SweepOutcome {
    /// The spec's name.
    pub name: String,
    /// The expanded scenarios, in order.
    pub scenarios: Vec<Scenario>,
    /// Per-scenario results, index-aligned with `scenarios`.
    pub results: Vec<ScenarioResult>,
    /// Worker threads the pool ran with.
    pub threads: usize,
    /// End-to-end wall-clock seconds (excluded from canonical output).
    pub elapsed_s: f64,
    /// Scenarios replayed from a journal instead of executed (excluded
    /// from canonical output — a resumed run must be byte-identical to
    /// an uninterrupted one).
    pub replayed: usize,
    /// Sweep-level self-profile when [`SweepRunConfig::profile`] was
    /// set: the resolve / execute / aggregate phases plus every
    /// scenario's profile merged under `scenarios`. Wall clock only,
    /// excluded from canonical output.
    pub profile: Option<SelfProfile>,
}

impl SweepOutcome {
    /// The deterministic aggregate: spec name, scenario configurations,
    /// and per-scenario reports/errors, ordered by scenario index, with
    /// every wall-clock field excluded. Byte-identical across thread
    /// counts, hosts, and resume boundaries.
    pub fn to_canonical_json(&self) -> Value {
        let results = self
            .scenarios
            .iter()
            .zip(&self.results)
            .map(|(scenario, r)| {
                let mut fields = vec![
                    ("label".to_string(), Value::Str(r.label.clone())),
                    ("scenario".to_string(), serde::Serialize::to_value(scenario)),
                ];
                match &r.outcome {
                    Ok(report) => fields.push(("report".to_string(), report.clone())),
                    Err(e) => fields.push(("error".to_string(), Value::Str(e.to_string()))),
                }
                Value::Object(fields)
            })
            .collect();
        Value::Object(vec![
            ("name".to_string(), Value::Str(self.name.clone())),
            (
                "scenario_count".to_string(),
                Value::UInt(self.scenarios.len() as u64),
            ),
            ("results".to_string(), Value::Array(results)),
        ])
    }

    /// [`to_canonical_json`](Self::to_canonical_json) as a compact JSON
    /// string (what `triosim-cli sweep --out` writes).
    pub fn to_canonical_string(&self) -> String {
        serde_json::to_string(&self.to_canonical_json())
            .expect("canonical sweep JSON has no non-finite floats")
    }

    /// Number of scenarios that ended in an error entry (of any kind).
    pub fn failures(&self) -> usize {
        self.results.iter().filter(|r| r.outcome.is_err()).count()
    }

    /// Number of scenarios isolated after a panic.
    pub fn panicked(&self) -> usize {
        self.results
            .iter()
            .filter(|r| matches!(r.outcome, Err(ScenarioError::Panicked { .. })))
            .count()
    }

    /// Number of scenarios terminated by their run budget.
    pub fn budget_terminated(&self) -> usize {
        self.results
            .iter()
            .filter(|r| matches!(r.outcome, Err(ScenarioError::Budget(_))))
            .count()
    }

    /// Sweep throughput: scenarios per wall-clock second.
    pub fn scenarios_per_sec(&self) -> f64 {
        self.results.len() as f64 / self.elapsed_s.max(1e-9)
    }
}

/// Parses every scenario and pre-builds the shared artifacts, serially —
/// so parse errors surface deterministically (lowest index first) before
/// any simulation work starts, and so the caches need no locking during
/// the parallel phase. Scenarios whose index is in `skip` (journal
/// replays) are parsed but their trace and compute model are not built.
///
/// When `prof` is enabled, each unique trace build (a cache miss; hits
/// never read the clock) and each scenario's Li's Model calibrations are
/// timed and reported as `trace_build` / `calibration` spans relative to
/// the caller's open span. [`LisModel::calibrated`] calibrates each GPU
/// model once per process, so only the first calibration of a GPU costs
/// more than a copy.
fn resolve_scenarios(
    scenarios: Vec<Scenario>,
    skip: &HashSet<usize>,
    prof: &mut SelfProfiler,
) -> Result<Vec<ResolvedScenario>, SweepError> {
    let profiling = prof.is_enabled();
    let mut trace_wall = (0.0f64, 0u64);
    let mut cal_wall = (0.0f64, 0u64);
    let mut traces: HashMap<(String, u64, GpuModel), Arc<Trace>> = HashMap::new();
    let mut calibrate = |gpu: GpuModel| {
        let t0 = profiling.then(Instant::now);
        let model = LisModel::calibrated(gpu);
        if let Some(t0) = t0 {
            cal_wall.0 += t0.elapsed().as_secs_f64();
            cal_wall.1 += 1;
        }
        model
    };
    let mut resolved = Vec::with_capacity(scenarios.len());
    for (index, scenario) in scenarios.into_iter().enumerate() {
        let fail = |error: String| SweepError::Scenario {
            index,
            label: scenario.label.clone(),
            error,
        };
        let model = ModelId::from_str(&scenario.model).map_err(&fail)?;
        let gpu = GpuModel::from_str(&scenario.gpu).map_err(&fail)?;
        let platform = Platform::from_str(&scenario.platform).map_err(&fail)?;
        let parallelism = Parallelism::from_str(&scenario.parallelism).map_err(&fail)?;
        let fidelity = Fidelity::from_str(&scenario.fidelity).map_err(&fail)?;
        let collective = CollectiveStyle::from_str(&scenario.collective).map_err(&fail)?;
        let realloc = ReallocationMode::from_str(&scenario.realloc).map_err(&fail)?;
        if scenario.iterations == 0 {
            return Err(fail("iterations must be at least 1".into()));
        }
        if skip.contains(&index) {
            resolved.push(ResolvedScenario {
                scenario,
                exec: None,
            });
            continue;
        }
        let trace = match traces.entry((scenario.model.clone(), scenario.trace_batch, gpu)) {
            Entry::Occupied(e) => e.get().clone(),
            Entry::Vacant(v) => {
                let t0 = profiling.then(Instant::now);
                let built = Arc::new(Tracer::new(gpu).trace(&model.build(scenario.trace_batch)));
                if let Some(t0) = t0 {
                    trace_wall.0 += t0.elapsed().as_secs_f64();
                    trace_wall.1 += 1;
                }
                v.insert(built).clone()
            }
        };
        let compute =
            ComputeModel::resolve_with(fidelity, gpu, &platform, parallelism, &mut calibrate);
        let exec = ExecScenario {
            faults: scenario.faults.clone(),
            fault_seed: scenario.fault_seed,
            global_batch: scenario.global_batch,
            iterations: scenario.iterations as usize,
            trace,
            platform,
            parallelism,
            fidelity,
            collective,
            realloc,
            compute,
        };
        resolved.push(ResolvedScenario {
            scenario,
            exec: Some(exec),
        });
    }
    prof.add_path(&["trace_build"], trace_wall.0, trace_wall.1);
    prof.add_path(&["calibration"], cal_wall.0, cal_wall.1);
    Ok(resolved)
}

/// Runs one resolved scenario in full isolation: fresh network state,
/// fresh DES engine, nothing shared but the read-only trace and compute
/// model. An enabled `prof` collects the session's graph build /
/// network build / engine loop spans, checkpointed and restored runs
/// included; a disabled one reads no clock. Profiling never changes the
/// canonical report bytes.
fn run_scenario(
    r: &ResolvedScenario,
    prof: &mut SelfProfiler,
    ckpt: Option<(&Path, usize, usize)>,
) -> Result<Value, ScenarioError> {
    let e = r
        .exec
        .as_ref()
        .expect("only pending scenarios are executed");
    let s = &r.scenario;
    let ckpt_path =
        ckpt.map(|(dir, every, index)| (dir.join(format!("scenario-{index}.ckpt")), every));
    // A snapshot pays off only if one lands before the final boundary. A
    // scenario of at most `every` iterations could only write one at its
    // end, which is deleted as soon as the scenario returns.
    let cadence = ckpt_path
        .as_ref()
        .filter(|(_, every)| e.iterations > *every);
    // Reconstructible builder: a stale per-scenario snapshot must not
    // fail the scenario, so the rerun-from-scratch path rebuilds the
    // whole configuration (network state included) from the same inputs.
    let mk = || {
        let topo = e.platform.topology().clone();
        // The reallocation-mode knob only exists on the flow tiers; the
        // packet tier re-simulates its busy period instead.
        let network: Box<dyn NetworkModel> = match e.fidelity {
            Fidelity::TrioSim => {
                let mut n = FlowNetwork::new(topo);
                n.set_reallocation_mode(e.realloc);
                Box::new(n)
            }
            Fidelity::Reference => {
                let mut n = FlowNetwork::with_config(topo, FlowNetworkConfig::reference());
                n.set_reallocation_mode(e.realloc);
                Box::new(n)
            }
            Fidelity::Packet => Box::new(PacketNetwork::new(topo)),
        };
        let mut builder = SimBuilder::new(&e.trace, &e.platform)
            .parallelism(e.parallelism)
            .fidelity(e.fidelity)
            .compute_model(e.compute.clone())
            .collective_style(e.collective)
            .iterations(e.iterations)
            .network(network);
        if let Some(batch) = e.global_batch {
            builder = builder.global_batch(batch);
        }
        if let Some(plan) = &e.faults {
            builder = builder.faults(plan.clone());
        }
        if let Some(seed) = e.fault_seed {
            builder = builder.fault_seed(seed);
        }
        // Runaway guard: built here (not at resolve time) because the
        // wall-clock deadline arms the moment it is constructed.
        if s.max_events.is_some() || s.max_sim_time_us.is_some() || s.wall_timeout_ms.is_some() {
            let mut budget = RunBudget::unlimited();
            if let Some(n) = s.max_events {
                budget = budget.with_max_events(n);
            }
            if let Some(us) = s.max_sim_time_us {
                budget = budget.with_max_sim_time_us(us);
            }
            if let Some(ms) = s.wall_timeout_ms {
                budget = budget.with_wall_timeout_ms(ms);
            }
            builder = builder.budget(budget);
        }
        if let Some((path, every)) = cadence {
            builder = builder.checkpoint(path, *every);
        }
        builder
    };
    let mut builder = mk();
    let mut resuming = false;
    if let Some((path, _)) = &ckpt_path {
        if path.exists() {
            resuming = true;
            builder = builder.restore(path);
        }
    }
    let mut run = builder.try_run_profiled(prof);
    if resuming {
        if let Err(SimError::Checkpoint(ce)) = &run {
            // A stale or corrupt snapshot (e.g. the spec changed between
            // sweep invocations) must not fail the scenario: warn, drop
            // it, and rerun from scratch at the same cadence.
            let (path, _) = ckpt_path
                .as_ref()
                .expect("resuming implies a snapshot path");
            eprintln!(
                "warning: scenario snapshot {} unusable ({ce}); rerunning from scratch",
                path.display()
            );
            std::fs::remove_file(path).ok();
            run = mk().try_run_profiled(prof);
        }
    }
    if run.is_ok() {
        // The scenario finished; its snapshot has served its purpose.
        if let Some((path, _)) = &ckpt_path {
            std::fs::remove_file(path).ok();
        }
    }
    run.map(|report| report.to_canonical_json())
        .map_err(|e| match e {
            SimError::BudgetExceeded { .. } => ScenarioError::Budget(e.to_string()),
            other => ScenarioError::Sim(other.to_string()),
        })
}

/// [`run_scenario`] with panic isolation (unless `fail_fast`): a panic
/// inside the scenario becomes a structured [`ScenarioError::Panicked`]
/// instead of unwinding into the pool.
fn execute_one(
    r: &ResolvedScenario,
    index: usize,
    fail_fast: bool,
    prof: &mut SelfProfiler,
    ckpt: Option<(&Path, usize)>,
) -> Result<Value, ScenarioError> {
    let ckpt = ckpt.map(|(dir, every)| (dir, every, index));
    if fail_fast {
        return run_scenario(r, prof, ckpt);
    }
    match catch_unwind(AssertUnwindSafe(|| run_scenario(r, prof, ckpt))) {
        Ok(outcome) => outcome,
        Err(payload) => Err(ScenarioError::Panicked {
            index,
            message: panic_message(payload.as_ref()),
        }),
    }
}

/// Extracts the human-readable message from a panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Crash-safety and execution options for [`run_sweep_with`]. The
/// default runs on one thread, without a journal or snapshots.
#[derive(Debug)]
pub struct SweepRunConfig {
    /// Worker threads for the pool, at least 1.
    pub threads: usize,
    /// Live progress reporting on stderr.
    pub progress: bool,
    /// Write an fsync'd scenario journal to this path (truncates any
    /// existing file). Mutually exclusive with `resume`.
    pub journal: Option<PathBuf>,
    /// Resume from this journal: replay its completed entries, execute
    /// only the rest, and keep appending new entries to the same file.
    pub resume: Option<PathBuf>,
    /// Abort the whole sweep on the first scenario panic (pre-isolation
    /// behavior) instead of degrading it to an error entry.
    pub fail_fast: bool,
    /// The raw spec text, recorded in a newly created journal's header
    /// so `--resume` can reconstruct the sweep without the spec file.
    pub spec_text: Option<String>,
    /// Collect wall-clock self-profiles: per-scenario (resolve spans,
    /// engine loop, journal I/O) and rolled up sweep-wide into
    /// [`SweepOutcome::profile`]. Diagnostic only — the canonical sweep
    /// output is byte-identical with profiling on or off.
    pub profile: bool,
    /// Write per-scenario engine snapshots (`scenario-<index>.ckpt`)
    /// into this directory at iteration boundaries. A journaled sweep
    /// killed mid-scenario then resumed restarts that scenario from its
    /// last boundary instead of from scratch; snapshots are deleted as
    /// their scenarios complete, and a stale or corrupt snapshot demotes
    /// to a warning plus a from-scratch rerun. A scenario whose only
    /// snapshot would land at its final boundary writes none.
    pub checkpoint_dir: Option<PathBuf>,
    /// Iteration boundaries between snapshots, at least 1 (`1` means
    /// every boundary). Only meaningful with `checkpoint_dir`.
    pub checkpoint_every: usize,
    /// Cooperative cancellation (the server's graceful drain). When the
    /// flag flips to `true`, in-flight scenarios run to completion (and
    /// are journaled), no further scenarios start, and the sweep returns
    /// [`SweepError::Cancelled`] instead of a partial outcome.
    pub cancel: Option<Arc<std::sync::atomic::AtomicBool>>,
    /// On resume, re-execute scenarios whose journal entry is a *panic*
    /// error instead of replaying the error. A panic is the one failure
    /// class that can be transient from the job's point of view (an
    /// environmental OOM, a since-fixed bug), so the service retry path
    /// sets this; deterministic `Sim`/`Budget` errors always replay.
    /// The re-run's entry is appended to the same journal and wins by
    /// last-write-wins dedupe.
    pub rerun_panicked: bool,
}

impl Default for SweepRunConfig {
    fn default() -> Self {
        SweepRunConfig {
            threads: 1,
            progress: false,
            journal: None,
            resume: None,
            fail_fast: false,
            spec_text: None,
            profile: false,
            checkpoint_dir: None,
            checkpoint_every: 1,
            cancel: None,
            rerun_panicked: false,
        }
    }
}

/// Expands `spec` and runs every scenario on `threads` worker threads,
/// with panic isolation and no journaling.
///
/// Scenarios are claimed work-stealing style (uneven scenario costs
/// cannot idle workers behind a static shard) and collected by index, so
/// the returned outcome's canonical form does not depend on `threads`.
/// Scenario failures — fault-induced (`SimError::Partitioned` /
/// `GpuLost`), budget-induced, or a panic — do not abort the sweep: they
/// become that scenario's deterministic error entry, and the remaining
/// scenarios still run.
///
/// # Errors
///
/// [`SweepError::Spec`] when the spec fails to expand;
/// [`SweepError::Scenario`] when a scenario's configuration string does
/// not parse (reported before any simulation starts).
pub fn run_sweep(
    spec: &SweepSpec,
    threads: usize,
    progress: bool,
) -> Result<SweepOutcome, SweepError> {
    run_sweep_with(
        spec,
        &SweepRunConfig {
            threads,
            progress,
            ..SweepRunConfig::default()
        },
    )
}

/// [`run_sweep`] with the full crash-safety surface: journaling, resume,
/// and fail-fast control. See [`SweepRunConfig`].
///
/// # Errors
///
/// Everything [`run_sweep`] reports, plus [`SweepError::Config`] when
/// `threads` or `checkpoint_every` is 0 or both `journal` and `resume`
/// are set, and [`SweepError::Journal`] when the journal cannot be
/// created or read or is stale (spec hash mismatch).
pub fn run_sweep_with(
    spec: &SweepSpec,
    config: &SweepRunConfig,
) -> Result<SweepOutcome, SweepError> {
    let at_least_one = |name: &str, n: usize| {
        NonZeroUsize::new(n).ok_or_else(|| SweepError::Config(format!("{name} must be at least 1")))
    };
    let threads = at_least_one("threads", config.threads)?;
    at_least_one("checkpoint_every", config.checkpoint_every)?;
    if config.journal.is_some() && config.resume.is_some() {
        return Err(SweepError::Config(
            "--journal and --resume are mutually exclusive (resume keeps \
             appending to the journal it reads)"
                .into(),
        ));
    }
    if let Some(dir) = &config.checkpoint_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| SweepError::Journal(format!("checkpoint dir {}: {e}", dir.display())))?;
        // Startup hygiene: a crash mid-`write_checkpoint` leaves a
        // `.tmp` staging sibling behind. It can never be mistaken for a
        // snapshot (restore only opens the renamed final path), but it
        // would leak forever if nobody swept it up.
        for stale in crate::checkpoint::remove_stale_staging(dir).unwrap_or_default() {
            eprintln!(
                "warning: removed stale checkpoint staging file {}",
                stale.display()
            );
        }
    }
    let scenarios = spec.expand()?;
    let total = scenarios.len();
    let hash = spec_hash(&spec.name, &scenarios);

    let mut slots: Vec<Option<ScenarioResult>> = (0..total).map(|_| None).collect();
    let mut replayed = 0usize;
    let journal_err = |e: journal::JournalError| SweepError::Journal(e.to_string());
    let writer: Option<JournalWriter> = if let Some(path) = &config.resume {
        let (header, entries) = read_journal(path).map_err(journal_err)?;
        header
            .check_compatible(&spec.name, hash, total)
            .map_err(journal_err)?;
        for entry in entries {
            if slots[entry.index].is_none() {
                replayed += 1;
            }
            // Replay is free: a replayed result has no wall time.
            slots[entry.index] = Some(ScenarioResult {
                label: entry.label,
                outcome: entry.outcome,
                wall_s: 0.0,
                profile: None,
            });
        }
        if config.rerun_panicked {
            // Clear panic entries *after* replay so last-write-wins dedupe
            // has already settled: a panic superseded by a later success
            // stays replayed; only still-panicked scenarios re-execute.
            for slot in slots.iter_mut() {
                if matches!(
                    slot.as_ref().map(|r| &r.outcome),
                    Some(Err(ScenarioError::Panicked { .. }))
                ) {
                    *slot = None;
                    replayed -= 1;
                }
            }
        }
        Some(JournalWriter::open_append(path).map_err(journal_err)?)
    } else if let Some(path) = &config.journal {
        let header = JournalHeader {
            name: spec.name.clone(),
            spec_hash: hash,
            total,
            spec_text: config.spec_text.clone().unwrap_or_default(),
        };
        Some(JournalWriter::create(path, &header).map_err(journal_err)?)
    } else {
        None
    };

    let mut prof = if config.profile {
        SelfProfiler::new()
    } else {
        SelfProfiler::disabled()
    };
    let skip: HashSet<usize> = (0..total).filter(|i| slots[*i].is_some()).collect();
    let resolve_span = prof.begin("resolve");
    let resolved = resolve_scenarios(scenarios, &skip, &mut prof);
    prof.end(resolve_span);
    let resolved = resolved?;
    let pending: Vec<usize> = (0..total).filter(|i| !skip.contains(i)).collect();
    let tracker = SweepProgress::with_replayed(total, replayed, config.progress);
    let started = Instant::now();
    let execute_span = prof.begin("execute");
    let fresh = run_ordered(pending.len(), threads, |j| {
        // Graceful drain: once the flag flips, claimed-but-unstarted
        // scenarios are skipped (never journaled), while scenarios that
        // already began keep running to completion below.
        if config
            .cancel
            .as_ref()
            .is_some_and(|c| c.load(std::sync::atomic::Ordering::SeqCst))
        {
            return None;
        }
        let index = pending[j];
        let r = &resolved[index];
        // Each worker scenario profiles into its own tree (the sweep
        // profiler is not shared across threads); snapshots roll up
        // under `scenarios` after the pool drains.
        let mut sprof = if config.profile {
            SelfProfiler::new()
        } else {
            SelfProfiler::disabled()
        };
        let t0 = Instant::now();
        let ckpt = config
            .checkpoint_dir
            .as_deref()
            .map(|dir| (dir, config.checkpoint_every));
        let outcome = execute_one(r, index, config.fail_fast, &mut sprof, ckpt);
        let wall_s = t0.elapsed().as_secs_f64();
        if let Some(w) = &writer {
            let entry = JournalEntry {
                index,
                label: r.scenario.label.clone(),
                outcome: outcome.clone(),
            };
            let jt = sprof.is_enabled().then(Instant::now);
            let written = w.record(&entry);
            if let Some(jt) = jt {
                sprof.add_path(&["journal_io"], jt.elapsed().as_secs_f64(), 1);
            }
            if let Err(e) = written {
                // Losing durability must not lose the sweep: warn and
                // keep the in-memory result.
                eprintln!("warning: journal write failed: {e}");
            }
        }
        tracker.scenario_done(&r.scenario.label, outcome.is_err());
        let profile = config.profile.then(|| sprof.snapshot());
        Some(ScenarioResult {
            label: r.scenario.label.clone(),
            outcome,
            wall_s,
            profile,
        })
    });
    prof.end(execute_span);
    let elapsed_s = started.elapsed().as_secs_f64();
    let aggregate_span = prof.begin("aggregate");
    for (j, result) in fresh.into_iter().enumerate() {
        if let Some(result) = result {
            slots[pending[j]] = Some(result);
        }
    }
    if slots.iter().any(|s| s.is_none()) {
        let completed = slots.iter().filter(|s| s.is_some()).count();
        return Err(SweepError::Cancelled { completed, total });
    }
    let results: Vec<ScenarioResult> = slots
        .into_iter()
        .map(|s| s.expect("every scenario is replayed or executed"))
        .collect();
    prof.end(aggregate_span);
    let profile = config.profile.then(|| {
        for r in &results {
            if let Some(p) = &r.profile {
                prof.attach("scenarios", p);
            }
        }
        prof.snapshot()
    });
    Ok(SweepOutcome {
        name: spec.name.clone(),
        scenarios: resolved.into_iter().map(|r| r.scenario).collect(),
        results,
        threads: config.threads,
        elapsed_s,
        replayed,
        profile,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> SweepSpec {
        SweepSpec::from_json(
            r#"{
                "name": "tiny",
                "defaults": { "model": "vgg11", "trace_batch": 8, "gpu": "A40" },
                "grid": {
                    "parallelism": ["ddp", "tp"],
                    "platform": ["p1", "p2:2"]
                }
            }"#,
        )
        .unwrap()
    }

    fn iterated_spec() -> SweepSpec {
        SweepSpec::from_json(
            r#"{
                "name": "iterated",
                "defaults": { "model": "vgg11", "trace_batch": 8, "gpu": "A40",
                              "iterations": 3 },
                "grid": {
                    "parallelism": ["ddp", "tp"],
                    "platform": ["p2:2"]
                }
            }"#,
        )
        .unwrap()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "triosim-sweep-ckpt-{tag}-{}-{n}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn snapshot_files(dir: &Path) -> Vec<PathBuf> {
        std::fs::read_dir(dir)
            .map(|rd| rd.filter_map(|e| e.ok().map(|e| e.path())).collect())
            .unwrap_or_default()
    }

    #[test]
    fn checkpointed_sweep_is_byte_identical_and_cleans_up() {
        let spec = iterated_spec();
        let plain = run_sweep(&spec, 1, false).unwrap().to_canonical_string();
        let dir = temp_dir("identity");
        let outcome = run_sweep_with(
            &spec,
            &SweepRunConfig {
                threads: 1,
                checkpoint_dir: Some(dir.clone()),
                ..SweepRunConfig::default()
            },
        )
        .unwrap();
        assert_eq!(plain, outcome.to_canonical_string());
        assert!(
            snapshot_files(&dir).is_empty(),
            "completed scenarios delete their snapshots"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn only_multi_boundary_scenarios_write_snapshots() {
        // A snapshot into a directory that does not exist fails, so
        // success means no snapshot was attempted.
        let missing =
            std::env::temp_dir().join(format!("triosim-sweep-ckpt-missing-{}", std::process::id()));
        assert!(!missing.exists());
        let run = |iterations: u32| {
            let spec = SweepSpec::from_json(&format!(
                r#"{{ "scenarios": [ {{ "model": "vgg11", "trace_batch": 8, "gpu": "A40",
                                       "platform": "p2:2", "parallelism": "ddp",
                                       "iterations": {iterations} }} ] }}"#
            ))
            .unwrap();
            let resolved = resolve_scenarios(
                spec.expand().unwrap(),
                &HashSet::new(),
                &mut SelfProfiler::disabled(),
            )
            .unwrap();
            run_scenario(
                &resolved[0],
                &mut SelfProfiler::disabled(),
                Some((&missing, 1, 0)),
            )
        };
        // One iteration at cadence 1: the only boundary is the last.
        let single = run(1);
        assert!(single.is_ok(), "{single:?}");
        // Three iterations: boundaries 1 and 2 still snapshot.
        match run(3) {
            Err(ScenarioError::Sim(m)) => assert!(m.contains("snapshot i/o failed"), "{m}"),
            other => panic!("a multi-boundary scenario must snapshot: {other:?}"),
        }
    }

    #[test]
    fn stale_snapshot_demotes_to_a_fresh_rerun() {
        let spec = iterated_spec();
        let plain = run_sweep(&spec, 1, false).unwrap().to_canonical_string();
        let dir = temp_dir("stale");
        // A leftover snapshot from some other world: not even JSON.
        std::fs::write(dir.join("scenario-0.ckpt"), "{torn").unwrap();
        let outcome = run_sweep_with(
            &spec,
            &SweepRunConfig {
                threads: 1,
                checkpoint_dir: Some(dir.clone()),
                ..SweepRunConfig::default()
            },
        )
        .unwrap();
        assert_eq!(
            outcome.failures(),
            0,
            "stale snapshot must not fail the scenario"
        );
        assert_eq!(plain, outcome.to_canonical_string());
        assert!(
            snapshot_files(&dir).is_empty(),
            "stale snapshot is cleaned up"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_staging_file_is_swept_and_never_mistaken_for_a_snapshot() {
        let spec = iterated_spec();
        let plain = run_sweep(&spec, 1, false).unwrap().to_canonical_string();
        let dir = temp_dir("torn-tmp");
        // A crash mid-`write_checkpoint` leaves the staging sibling
        // behind: partial bytes under the `.tmp` suffix, never renamed.
        std::fs::write(dir.join("scenario-0.ckpt.tmp"), "{\"version\":1,\"eng").unwrap();
        let outcome = run_sweep_with(
            &spec,
            &SweepRunConfig {
                threads: 1,
                checkpoint_dir: Some(dir.clone()),
                ..SweepRunConfig::default()
            },
        )
        .unwrap();
        assert_eq!(outcome.failures(), 0, "torn staging must not fail anything");
        assert_eq!(
            plain,
            outcome.to_canonical_string(),
            "torn staging file must never be restored as a snapshot"
        );
        assert!(
            snapshot_files(&dir).is_empty(),
            "startup hygiene removes the stale .tmp"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cancelled_sweep_is_resumable_to_identical_bytes() {
        use std::sync::atomic::AtomicBool;
        let spec = tiny_spec();
        let plain = run_sweep(&spec, 1, false).unwrap().to_canonical_string();
        let dir = temp_dir("cancel");
        let journal_path = dir.join("sweep.jsonl");
        // Drain before anything starts: every scenario is skipped, none
        // journaled, and the error reports exactly how far the sweep got.
        let cancel = Arc::new(AtomicBool::new(true));
        let err = run_sweep_with(
            &spec,
            &SweepRunConfig {
                threads: 2,
                journal: Some(journal_path.clone()),
                cancel: Some(cancel),
                ..SweepRunConfig::default()
            },
        )
        .unwrap_err();
        assert_eq!(
            err,
            SweepError::Cancelled {
                completed: 0,
                total: 4
            }
        );
        // The journal survived the drain; a resume (with no cancel flag)
        // finishes the sweep to the exact uninterrupted bytes.
        let resumed = run_sweep_with(
            &spec,
            &SweepRunConfig {
                threads: 2,
                resume: Some(journal_path),
                ..SweepRunConfig::default()
            },
        )
        .unwrap();
        assert_eq!(plain, resumed.to_canonical_string());
        // An armed-but-unset flag changes nothing.
        let unset = run_sweep_with(
            &spec,
            &SweepRunConfig {
                threads: 2,
                cancel: Some(Arc::new(AtomicBool::new(false))),
                ..SweepRunConfig::default()
            },
        )
        .unwrap();
        assert_eq!(plain, unset.to_canonical_string());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rerun_panicked_reexecutes_only_panic_entries_on_resume() {
        let spec = SweepSpec::from_json(
            r#"{
                "defaults": { "model": "vgg11", "trace_batch": 8, "gpu": "A40",
                               "platform": "p1", "parallelism": "ddp" },
                "scenarios": [ {}, { "global_batch": 0, "label": "boom" } ]
            }"#,
        )
        .unwrap();
        let dir = temp_dir("rerun-panic");
        let journal_path = dir.join("sweep.jsonl");
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let first = run_sweep_with(
            &spec,
            &SweepRunConfig {
                threads: 1,
                journal: Some(journal_path.clone()),
                ..SweepRunConfig::default()
            },
        )
        .unwrap();
        assert_eq!(first.panicked(), 1);
        // Plain resume replays both entries — nothing re-executes.
        let replay = run_sweep_with(
            &spec,
            &SweepRunConfig {
                threads: 1,
                resume: Some(journal_path.clone()),
                ..SweepRunConfig::default()
            },
        )
        .unwrap();
        assert_eq!(replay.replayed, 2);
        // The retry path replays the success but re-executes the panic;
        // the rerun is deterministic, so bytes still match.
        let retried = run_sweep_with(
            &spec,
            &SweepRunConfig {
                threads: 1,
                resume: Some(journal_path),
                rerun_panicked: true,
                ..SweepRunConfig::default()
            },
        )
        .unwrap();
        std::panic::set_hook(prev_hook);
        assert_eq!(retried.replayed, 1, "only the healthy entry replays");
        assert_eq!(retried.panicked(), 1, "deterministic panic re-recorded");
        assert_eq!(first.to_canonical_string(), retried.to_canonical_string());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sweep_runs_and_reports_per_scenario() {
        let outcome = run_sweep(&tiny_spec(), 1, false).unwrap();
        assert_eq!(outcome.results.len(), 4);
        assert_eq!(outcome.failures(), 0);
        assert_eq!(outcome.replayed, 0);
        for r in &outcome.results {
            let report = r.outcome.as_ref().unwrap();
            assert!(report.get("total_time_s").is_some());
        }
    }

    #[test]
    fn bad_scenario_string_is_reported_with_index() {
        let spec =
            SweepSpec::from_json(r#"{ "scenarios": [ {}, { "parallelism": "zz" } ] }"#).unwrap();
        match run_sweep(&spec, 1, false).unwrap_err() {
            SweepError::Scenario { index, error, .. } => {
                assert_eq!(index, 1);
                assert!(error.contains("zz"), "{error}");
            }
            other => panic!("wrong error {other:?}"),
        }
    }

    /// The retired `shards` field still parses: any shard count leaves
    /// the canonical output as it is without one.
    #[test]
    fn canonical_output_is_shard_count_invariant() {
        let base = r#"{
            "name": "legacy",
            "defaults": { "model": "vgg11", "trace_batch": 8, "gpu": "A40",
                          "platform": "p2:2", "iterations": 3 SHARDS },
            "grid": { "parallelism": ["ddp", "tp"] }
        }"#;
        let plain = SweepSpec::from_json(&base.replace("SHARDS", "")).unwrap();
        let legacy = SweepSpec::from_json(&base.replace("SHARDS", r#", "shards": 4"#)).unwrap();
        let a = run_sweep(&plain, 1, false).unwrap().to_canonical_string();
        let b = run_sweep(&legacy, 1, false).unwrap().to_canonical_string();
        assert_eq!(
            a, b,
            "the ignored shards field must never reach canonical output"
        );
    }

    #[test]
    fn canonical_output_is_thread_count_invariant() {
        let spec = tiny_spec();
        let serial = run_sweep(&spec, 1, false).unwrap().to_canonical_string();
        let parallel = run_sweep(&spec, 4, false).unwrap().to_canonical_string();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn fault_terminated_scenario_becomes_error_entry() {
        // p1's two GPUs talk through the host; severing one GPU's only
        // link partitions the platform mid-AllReduce.
        let spec = SweepSpec::from_json(
            r#"{
                "defaults": { "model": "vgg11", "trace_batch": 8, "gpu": "A40",
                               "platform": "p1", "parallelism": "ddp" },
                "scenarios": [
                    {},
                    { "faults": { "link_failures": [ { "src": 0, "dst": 2, "at_s": 0.0 } ] },
                      "label": "partition" }
                ]
            }"#,
        )
        .unwrap();
        let outcome = run_sweep(&spec, 2, false).unwrap();
        assert_eq!(outcome.results.len(), 2);
        assert!(outcome.results[0].outcome.is_ok());
        assert!(outcome.results[1].outcome.is_err(), "partition surfaces");
        assert_eq!(outcome.failures(), 1);
        assert_eq!(outcome.panicked(), 0);
        // And the error text itself is deterministic.
        let again = run_sweep(&spec, 1, false).unwrap();
        assert_eq!(outcome.to_canonical_string(), again.to_canonical_string());
    }

    #[test]
    fn budget_terminated_scenario_becomes_error_entry() {
        let spec = SweepSpec::from_json(
            r#"{
                "defaults": { "model": "vgg11", "trace_batch": 8, "gpu": "A40",
                               "platform": "p1", "parallelism": "ddp" },
                "scenarios": [ {}, { "max_events": 10, "label": "runaway" } ]
            }"#,
        )
        .unwrap();
        let outcome = run_sweep(&spec, 2, false).unwrap();
        assert!(outcome.results[0].outcome.is_ok());
        let err = outcome.results[1].outcome.as_ref().unwrap_err();
        assert_eq!(
            err.to_string(),
            "budget exceeded: more than 10 events delivered"
        );
        assert_eq!(outcome.budget_terminated(), 1);
        assert_eq!(outcome.panicked(), 0);
    }

    #[test]
    fn panicking_scenario_is_isolated() {
        // global_batch 0 trips the extrapolation assertion inside the
        // scenario worker — exactly the class of bug panic isolation is
        // for. Suppress the default hook's backtrace noise.
        let spec = SweepSpec::from_json(
            r#"{
                "defaults": { "model": "vgg11", "trace_batch": 8, "gpu": "A40",
                               "platform": "p1", "parallelism": "ddp" },
                "scenarios": [ {}, { "global_batch": 0, "label": "boom" } ]
            }"#,
        )
        .unwrap();
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let outcome = run_sweep(&spec, 2, false).unwrap();
        std::panic::set_hook(prev_hook);
        assert!(outcome.results[0].outcome.is_ok(), "healthy scenario runs");
        match outcome.results[1].outcome.as_ref().unwrap_err() {
            ScenarioError::Panicked { index, message } => {
                assert_eq!(*index, 1);
                assert!(message.contains("global batch"), "{message}");
            }
            other => panic!("wrong error {other:?}"),
        }
        assert_eq!(outcome.panicked(), 1);
    }

    #[test]
    fn fail_fast_restores_the_abort() {
        let spec = SweepSpec::from_json(
            r#"{
                "defaults": { "model": "vgg11", "trace_batch": 8, "gpu": "A40",
                               "platform": "p1", "parallelism": "ddp" },
                "scenarios": [ { "global_batch": 0 } ]
            }"#,
        )
        .unwrap();
        let config = SweepRunConfig {
            threads: 1,
            fail_fast: true,
            ..SweepRunConfig::default()
        };
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let result = catch_unwind(AssertUnwindSafe(|| run_sweep_with(&spec, &config)));
        std::panic::set_hook(prev_hook);
        assert!(
            result.is_err(),
            "--fail-fast lets the panic abort the sweep"
        );
    }

    #[test]
    fn profiled_sweep_is_canonically_identical_and_carries_profile() {
        let spec = tiny_spec();
        let plain = run_sweep(&spec, 2, false).unwrap();
        assert!(plain.profile.is_none(), "profiling is opt-in");
        let config = SweepRunConfig {
            threads: 2,
            profile: true,
            ..SweepRunConfig::default()
        };
        let profiled = run_sweep_with(&spec, &config).unwrap();
        assert_eq!(
            plain.to_canonical_string(),
            profiled.to_canonical_string(),
            "profiling must not perturb canonical bytes"
        );
        let prof = profiled.profile.as_ref().expect("sweep profile collected");
        assert!(prof.find(&["resolve", "trace_build"]).is_some());
        assert!(prof.find(&["execute"]).is_some());
        assert!(prof.find(&["aggregate"]).is_some());
        assert!(
            prof.find(&["scenarios", "engine_loop"]).is_some(),
            "per-scenario profiles roll up under `scenarios`:\n{}",
            prof.render()
        );
        for r in &profiled.results {
            let p = r.profile.as_ref().expect("each scenario profiled");
            assert!(p.total(&["engine_loop"]).is_some(), "{}", r.label);
        }
    }

    #[test]
    fn journal_and_resume_are_mutually_exclusive() {
        let config = SweepRunConfig {
            journal: Some(PathBuf::from("/tmp/a.jsonl")),
            resume: Some(PathBuf::from("/tmp/a.jsonl")),
            ..SweepRunConfig::default()
        };
        let err = run_sweep_with(&tiny_spec(), &config).unwrap_err();
        assert!(matches!(err, SweepError::Config(_)));
    }
}
