//! The high-level simulation entry point.

use std::path::PathBuf;
use std::str::FromStr;

use triosim_des::{RunBudget, TimeSpan};
use triosim_faults::FaultPlan;
use triosim_network::{FlowNetwork, FlowNetworkConfig, NetworkModel, NodeId, PacketNetwork};
use triosim_obs::{ProgressMonitor, Recorder, SelfProfiler};
use triosim_perfmodel::LisModel;
use triosim_trace::{GpuModel, Trace};

use crate::compute::{ComputeModel, Fidelity};
use crate::error::SimError;
use crate::executor::{execute, RunOptions};
use crate::extrapolate::extrapolate_with_style;
use crate::parallelism::{CollectiveStyle, Parallelism};
use crate::platform::Platform;
use crate::report::SimReport;
use crate::taskgraph::TaskGraph;

/// Configures and runs one TrioSim simulation.
///
/// Defaults: distributed data parallelism, per-GPU batch equal to the
/// trace's batch (so DP defaults to weak scaling, exactly the paper's
/// P1/P2 validation setup), TrioSim fidelity with automatically
/// calibrated Li's Models, and the platform's packet-switching flow
/// network.
///
/// # Example
///
/// ```rust
/// use triosim::{Fidelity, Parallelism, Platform, SimBuilder};
/// use triosim_modelzoo::ModelId;
/// use triosim_trace::{GpuModel, Tracer};
///
/// let trace = Tracer::new(GpuModel::A40).trace(&ModelId::Vgg11.build(16));
/// let platform = Platform::p1();
///
/// // TrioSim prediction and reference ground truth for the same setup.
/// let predicted = SimBuilder::new(&trace, &platform)
///     .parallelism(Parallelism::DataParallel { overlap: true })
///     .run();
/// let truth = SimBuilder::new(&trace, &platform)
///     .parallelism(Parallelism::DataParallel { overlap: true })
///     .fidelity(Fidelity::Reference)
///     .run();
/// let err = (predicted.total_time_s() - truth.total_time_s()).abs() / truth.total_time_s();
/// assert!(err < 0.25, "prediction error {err:.3}");
/// ```
#[derive(Debug)]
pub struct SimBuilder<'a> {
    trace: &'a Trace,
    platform: &'a Platform,
    parallelism: Parallelism,
    global_batch: Option<u64>,
    fidelity: Fidelity,
    compute: Option<ComputeModel>,
    network: Option<Box<dyn NetworkModel>>,
    collective_style: CollectiveStyle,
    fault_seed: Option<u64>,
    run: RunOptions<'a>,
}

impl<'a> SimBuilder<'a> {
    /// Starts configuring a simulation of `trace` on `platform`.
    pub fn new(trace: &'a Trace, platform: &'a Platform) -> Self {
        SimBuilder {
            trace,
            platform,
            parallelism: Parallelism::DataParallel { overlap: true },
            global_batch: None,
            fidelity: Fidelity::TrioSim,
            compute: None,
            network: None,
            collective_style: CollectiveStyle::default(),
            fault_seed: None,
            run: RunOptions::default(),
        }
    }

    /// Simulates `iterations` back-to-back training iterations on
    /// persistent network state (photonic circuits amortize their setup
    /// across iterations).
    ///
    /// Long runs on an iteration-invariant network (the default flow
    /// tier) simulate two iterations and synthesize the rest once the
    /// second is verified as a time-shifted copy of the first; the
    /// report is byte-identical to simulating them all, and
    /// [`SimReport::replay`] tells which happened.
    ///
    /// # Panics
    ///
    /// Panics if `iterations` is zero.
    pub fn iterations(mut self, iterations: usize) -> Self {
        assert!(iterations > 0, "need at least one iteration");
        self.run.iterations = iterations;
        self
    }

    /// Sets the parallelism strategy.
    pub fn parallelism(mut self, p: Parallelism) -> Self {
        self.parallelism = p;
        self
    }

    /// Sets the global mini-batch (see [`extrapolate`](fn@crate::extrapolate)
    /// for its meaning under each parallelism).
    pub fn global_batch(mut self, batch: u64) -> Self {
        self.global_batch = Some(batch);
        self
    }

    /// Chooses TrioSim prediction or reference ground truth.
    pub fn fidelity(mut self, f: Fidelity) -> Self {
        self.fidelity = f;
        self
    }

    /// Overrides the operator-time policy (e.g. a pre-calibrated or
    /// cross-GPU [`ComputeModel`]).
    pub fn compute_model(mut self, m: ComputeModel) -> Self {
        self.compute = Some(m);
        self
    }

    /// Chooses the ring-AllReduce variant for data parallelism (the
    /// wafer-scale case study uses [`CollectiveStyle::Unsegmented`]).
    pub fn collective_style(mut self, style: CollectiveStyle) -> Self {
        self.collective_style = style;
        self
    }

    /// Overrides the network model (e.g. a
    /// [`PhotonicNetwork`](triosim_network::PhotonicNetwork)).
    pub fn network(mut self, n: Box<dyn NetworkModel>) -> Self {
        self.network = Some(n);
        self
    }

    /// Attaches an observability recorder (e.g. a
    /// [`RunRecorder`](triosim_obs::RunRecorder) fanning out to JSONL,
    /// Chrome-trace, and Prometheus sinks). The run emits spans and
    /// metrics into it and calls `finish` when done.
    pub fn recorder(mut self, r: Box<dyn Recorder>) -> Self {
        self.run.observability.recorder = Some(r);
        self
    }

    /// Attaches a live progress monitor (wall-clock throttled, stderr).
    pub fn progress(mut self, p: ProgressMonitor) -> Self {
        self.run.observability.progress = Some(p);
        self
    }

    /// Sets the virtual-time period between observability samples.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn sample_period(mut self, period: TimeSpan) -> Self {
        self.run.observability =
            std::mem::take(&mut self.run.observability).with_sample_period(period);
        self
    }

    /// Attaches a fault-injection plan. An empty plan is equivalent to no
    /// plan at all — the run takes the plain, bit-identical code path.
    /// The plan is validated against the platform by
    /// [`try_run`](Self::try_run) before execution.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.run.faults = plan;
        self
    }

    /// Overrides the fault plan's jitter seed (the CLI's `--fault-seed`).
    pub fn fault_seed(mut self, seed: u64) -> Self {
        self.fault_seed = Some(seed);
        self
    }

    /// Attaches a runaway guard: the run terminates with
    /// [`SimError::BudgetExceeded`] if it blows any axis of `budget`.
    /// An unlimited budget is equivalent to no budget at all — the run
    /// takes the plain, bit-identical code path. A wall-clock deadline
    /// is armed when the budget is constructed, so build it right before
    /// calling [`try_run`](Self::try_run).
    pub fn budget(mut self, budget: RunBudget) -> Self {
        self.run.budget = budget;
        self
    }

    /// Writes a crash-safe engine snapshot to `path` after every `every`
    /// completed iterations (DESIGN.md §13). Snapshots are taken at
    /// quiescent iteration boundaries, written atomically (temp file +
    /// fsync + rename), and stamped with a scenario spec hash; a later
    /// run restores with [`restore`](Self::restore) and produces
    /// canonical bytes identical to an uninterrupted run.
    ///
    /// Self-profiling, a [`recorder`](Self::recorder) and a
    /// [`progress`](Self::progress) monitor compose with checkpointing:
    /// none of them changes a snapshot's bytes.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn checkpoint(mut self, path: impl Into<PathBuf>, every: usize) -> Self {
        assert!(every > 0, "checkpoint cadence must be at least 1");
        self.run.checkpoint = Some((path.into(), every));
        self
    }

    /// Resumes from a snapshot written by [`checkpoint`](Self::checkpoint).
    /// The snapshot's spec hash must match this builder's scenario
    /// (trace, platform, parallelism, network, fault plan, deterministic
    /// budget axes) — iteration count and wall-clock timeout may differ.
    /// Composes with `checkpoint` to keep checkpointing the resumed run.
    pub fn restore(mut self, path: impl Into<PathBuf>) -> Self {
        self.run.restore = Some(path.into());
        self
    }

    fn resolved_batch(&self) -> u64 {
        self.global_batch.unwrap_or(match self.parallelism {
            Parallelism::DataParallel { .. } => {
                self.trace.batch() * self.platform.gpu_count() as u64
            }
            Parallelism::Hybrid { dp_groups, .. } => self.trace.batch() * dp_groups as u64,
            _ => self.trace.batch(),
        })
    }

    fn resolved_compute(&self) -> ComputeModel {
        if let Some(m) = &self.compute {
            return m.clone();
        }
        let source_gpu = GpuModel::from_str(self.trace.gpu())
            .expect("trace GPU must be a known model (A40/A100/H100)");
        ComputeModel::resolve_with(
            self.fidelity,
            source_gpu,
            self.platform,
            self.parallelism,
            &mut LisModel::calibrated,
        )
    }

    fn resolved_network(&mut self) -> Box<dyn NetworkModel> {
        if let Some(n) = self.network.take() {
            return n;
        }
        let topo = self.platform.topology().clone();
        match self.fidelity {
            Fidelity::TrioSim => Box::new(FlowNetwork::new(topo)),
            Fidelity::Reference => Box::new(FlowNetwork::with_config(
                topo,
                FlowNetworkConfig::reference(),
            )),
            Fidelity::Packet => Box::new(PacketNetwork::new(topo)),
        }
    }

    /// Builds the extrapolated task graph without executing it.
    pub fn build_graph(&self) -> TaskGraph {
        let compute = self.resolved_compute();
        self.build_graph_with(&compute)
    }

    /// [`build_graph`](Self::build_graph) with an already-resolved
    /// compute model (lets the profiled path time calibration and
    /// extrapolation separately).
    fn build_graph_with(&self, compute: &ComputeModel) -> TaskGraph {
        extrapolate_with_style(
            self.trace,
            self.platform,
            self.parallelism,
            self.resolved_batch(),
            compute,
            self.collective_style,
        )
    }

    /// Checks a non-empty plan against the platform: entity ranges and
    /// value domains via [`FaultPlan::validate`], plus that every link
    /// fault names a link the topology actually has.
    fn validate_plan(&self, plan: &FaultPlan) -> Result<(), SimError> {
        let topo = self.platform.topology();
        plan.validate(self.platform.gpu_count(), topo.node_count())
            .map_err(|e| SimError::InvalidPlan(e.to_string()))?;
        let has_link = |a: usize, b: usize| {
            topo.links_from(NodeId(a)).iter().any(|(n, _)| n.0 == b)
                || topo.links_from(NodeId(b)).iter().any(|(n, _)| n.0 == a)
        };
        for (i, d) in plan.link_degradations.iter().enumerate() {
            if !has_link(d.src, d.dst) {
                return Err(SimError::InvalidPlan(format!(
                    "invalid fault plan: link_degradations[{i}]: no link between n{} and n{}",
                    d.src, d.dst
                )));
            }
        }
        for (i, l) in plan.link_failures.iter().enumerate() {
            if !has_link(l.src, l.dst) {
                return Err(SimError::InvalidPlan(format!(
                    "invalid fault plan: link_failures[{i}]: no link between n{} and n{}",
                    l.src, l.dst
                )));
            }
        }
        Ok(())
    }

    /// Extrapolates and executes the simulation, surfacing fault-induced
    /// or budget-induced early termination and invalid fault plans as
    /// typed errors.
    ///
    /// The builder validates the fault plan, builds the graph and the
    /// network, and hands everything else to one
    /// [`execute`] call.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidPlan`] when the fault plan references GPUs,
    /// nodes, or links the platform does not have (or carries
    /// out-of-domain values); [`SimError::Partitioned`] /
    /// [`SimError::GpuLost`] when a transfer finds no path or an injected
    /// fault makes the remaining work impossible;
    /// [`SimError::BudgetExceeded`] when the run blows an axis of its
    /// [`budget`](Self::budget); [`SimError::Checkpoint`] when a snapshot
    /// cannot be written, read or applied.
    pub fn try_run(self) -> Result<SimReport, SimError> {
        self.try_run_inner(None)
    }

    /// [`try_run`](Self::try_run) with host self-profiling: wall-clock
    /// spans for Li's-Model calibration (`calibration`), graph
    /// extrapolation (`graph_build`), network construction
    /// (`network_build`), and the engine loop with its network share
    /// (`engine_loop`/`network`) accumulate into `prof`.
    ///
    /// Profiling is strictly diagnostic: the returned report — including
    /// its canonical bytes — is byte-identical to an unprofiled run,
    /// checkpointed and restored runs included. A disabled `prof` reads
    /// no clock.
    ///
    /// # Errors
    ///
    /// Same as [`try_run`](Self::try_run).
    pub fn try_run_profiled(self, prof: &mut SelfProfiler) -> Result<SimReport, SimError> {
        self.try_run_inner(Some(prof))
    }

    fn try_run_inner(mut self, mut prof: Option<&mut SelfProfiler>) -> Result<SimReport, SimError> {
        let mut run = std::mem::take(&mut self.run);
        if let Some(seed) = self.fault_seed {
            run.faults = run.faults.with_seed(seed);
        }
        if !run.faults.is_empty() {
            self.validate_plan(&run.faults)?;
        }
        let graph = match prof.as_deref_mut() {
            None => self.build_graph(),
            Some(p) => {
                let compute = p.time("calibration", || self.resolved_compute());
                p.time("graph_build", || self.build_graph_with(&compute))
            }
        };
        let mut network = match prof.as_deref_mut() {
            None => self.resolved_network(),
            Some(p) => p.time("network_build", || self.resolved_network()),
        };
        let opts = RunOptions {
            profiler: prof,
            ..run
        };
        execute(&graph, network.as_mut(), opts)
    }

    /// Extrapolates and executes the simulation.
    ///
    /// # Panics
    ///
    /// Panics on any condition [`try_run`](Self::try_run) reports as an
    /// error (invalid fault plans, partitions, GPU loss, budget trips,
    /// snapshot errors).
    pub fn run(self) -> SimReport {
        self.try_run().unwrap_or_else(|e| panic!("{e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{Replay, SerialReason};
    use triosim_modelzoo::ModelId;
    use triosim_trace::Tracer;

    fn trace() -> Trace {
        Tracer::new(GpuModel::A100).trace(&ModelId::ResNet18.build(16))
    }

    #[test]
    fn default_run_completes() {
        let t = trace();
        let p = Platform::p2(2);
        let r = SimBuilder::new(&t, &p).run();
        assert!(r.total_time_s() > 0.0);
        assert!(r.tasks_executed() > 100);
    }

    #[test]
    fn default_dp_batch_is_weak_scaling() {
        let t = trace();
        let p = Platform::p2(4);
        let b = SimBuilder::new(&t, &p);
        assert_eq!(b.resolved_batch(), 16 * 4);
    }

    #[test]
    fn reference_differs_from_prediction_but_not_wildly() {
        let t = trace();
        let p = Platform::p2(2);
        let pred = SimBuilder::new(&t, &p).run();
        let truth = SimBuilder::new(&t, &p).fidelity(Fidelity::Reference).run();
        let err = (pred.total_time_s() - truth.total_time_s()).abs() / truth.total_time_s();
        assert!(err < 0.20, "error {err}");
        assert!(err > 0.0, "models are distinct");
    }

    #[test]
    fn more_gpus_scale_weakly() {
        let t = trace();
        let p2 = Platform::p2(2);
        let p4 = Platform::p2(4);
        let r2 = SimBuilder::new(&t, &p2).run();
        let r4 = SimBuilder::new(&t, &p4).run();
        // Weak scaling: total time grows only mildly with GPU count.
        assert!(r4.total_time_s() < 1.5 * r2.total_time_s());
    }

    #[test]
    fn pipeline_runs() {
        let t = trace();
        let p = Platform::p2(2);
        let r = SimBuilder::new(&t, &p)
            .parallelism(Parallelism::Pipeline { chunks: 2 })
            .run();
        assert!(r.total_time_s() > 0.0);
        assert!(r.comm_time_s() > 0.0, "activations crossed the wire");
    }

    #[test]
    fn event_budget_terminates_with_typed_error() {
        let t = trace();
        let p = Platform::p2(2);
        let err = SimBuilder::new(&t, &p)
            .budget(RunBudget::unlimited().with_max_events(10))
            .try_run()
            .expect_err("10 events cannot finish a training iteration");
        assert_eq!(
            err.to_string(),
            "budget exceeded: more than 10 events delivered"
        );
    }

    #[test]
    fn sim_time_budget_terminates_with_typed_error() {
        let t = trace();
        let p = Platform::p2(2);
        let err = SimBuilder::new(&t, &p)
            .budget(RunBudget::unlimited().with_max_sim_time_us(1))
            .try_run()
            .expect_err("1us cannot finish a training iteration");
        assert_eq!(
            err.to_string(),
            "budget exceeded: simulated time passed 1us"
        );
    }

    #[test]
    fn generous_budget_is_bit_identical_to_no_budget() {
        let t = trace();
        let p = Platform::p2(2);
        let plain = SimBuilder::new(&t, &p).run();
        let budgeted = SimBuilder::new(&t, &p)
            .budget(RunBudget::unlimited().with_max_events(u64::MAX))
            .try_run()
            .expect("generous budget never trips");
        assert_eq!(plain.to_canonical_json(), budgeted.to_canonical_json());
        // An unlimited budget is no budget at all.
        let unlimited = SimBuilder::new(&t, &p)
            .budget(RunBudget::unlimited())
            .try_run()
            .expect("an unlimited budget never trips");
        assert_eq!(plain.to_canonical_json(), unlimited.to_canonical_json());
    }

    #[test]
    fn budget_composes_with_fault_plans() {
        use triosim_faults::GpuDropout;
        let t = trace();
        let p = Platform::p2(2);
        let plan = FaultPlan {
            gpu_dropouts: vec![GpuDropout { gpu: 1, at_s: 1e9 }],
            ..FaultPlan::default()
        };
        let err = SimBuilder::new(&t, &p)
            .faults(plan)
            .budget(RunBudget::unlimited().with_max_events(10))
            .try_run()
            .expect_err("budget trips long before the scheduled fault");
        assert!(matches!(err, SimError::BudgetExceeded { .. }));
    }

    /// The serial oracle for replay tests: a generous deterministic
    /// budget never trips, but keeps replay from engaging.
    fn serial_oracle(b: SimBuilder<'_>) -> SimReport {
        let report = b
            .budget(RunBudget::unlimited().with_max_events(u64::MAX))
            .try_run()
            .expect("generous budget never trips");
        assert_eq!(
            report.replay(),
            Replay::Serial(SerialReason::DeterministicBudget)
        );
        report
    }

    #[test]
    fn replayed_run_is_byte_identical_to_serial() {
        let t = trace();
        let p = Platform::p2(2);
        for iterations in [3, 5] {
            let replayed = SimBuilder::new(&t, &p).iterations(iterations).run();
            assert_eq!(replayed.replay(), Replay::Synthesized(iterations - 2));
            let serial = serial_oracle(SimBuilder::new(&t, &p).iterations(iterations));
            assert_eq!(serial.to_canonical_json(), replayed.to_canonical_json());
            assert_eq!(serial.timeline(), replayed.timeline());
        }
    }

    #[test]
    fn deterministic_budgets_run_serially_and_trip_exactly() {
        let t = trace();
        let p = Platform::p2(2);
        let replayed = SimBuilder::new(&t, &p).iterations(4).run();
        let per_iteration = replayed.queue_stats().delivered() / 4;
        // Limits from "trips in iteration 0" through "trips in the last
        // iteration" to "never trips".
        for limit in [10, per_iteration + 1, 3 * per_iteration + 7, u64::MAX - 1] {
            match SimBuilder::new(&t, &p)
                .iterations(4)
                .budget(RunBudget::unlimited().with_max_events(limit))
                .try_run()
            {
                Ok(r) => {
                    assert_eq!(
                        r.replay(),
                        Replay::Serial(SerialReason::DeterministicBudget)
                    );
                    assert_eq!(r.to_canonical_json(), replayed.to_canonical_json());
                }
                Err(e) => assert_eq!(
                    e.to_string(),
                    format!("budget exceeded: more than {limit} events delivered")
                ),
            }
        }
    }

    #[test]
    fn wall_clock_budget_composes_with_replay() {
        let t = trace();
        let p = Platform::p2(2);
        let plain = SimBuilder::new(&t, &p).iterations(4).run();
        let guarded = SimBuilder::new(&t, &p)
            .iterations(4)
            .budget(RunBudget::unlimited().with_wall_timeout_ms(600_000))
            .try_run()
            .expect("generous deadline never trips");
        assert_eq!(guarded.replay(), Replay::Synthesized(2));
        assert_eq!(plain.to_canonical_json(), guarded.to_canonical_json());
    }

    #[test]
    fn faulted_runs_simulate_every_iteration() {
        use triosim_faults::GpuSlowdown;
        let t = trace();
        let p = Platform::p2(2);
        let plan = FaultPlan {
            gpu_slowdowns: vec![GpuSlowdown {
                gpu: 1,
                factor: 1.5,
            }],
            ..FaultPlan::default()
        };
        let faulted = SimBuilder::new(&t, &p).iterations(3).faults(plan).run();
        assert_eq!(faulted.replay(), Replay::Serial(SerialReason::Faults));
        // An empty plan is no plan at all: replay engages.
        let empty = SimBuilder::new(&t, &p)
            .iterations(3)
            .faults(FaultPlan::default())
            .run();
        assert_eq!(empty.replay(), Replay::Synthesized(1));
    }

    /// Replay's serial-fallback reasons, in the order the run checks them.
    #[test]
    fn fallback_reasons_are_named_in_priority_order() {
        let t = trace();
        let p = Platform::p2(2);
        let reason = |b: SimBuilder<'_>| b.run().replay();
        assert_eq!(
            reason(SimBuilder::new(&t, &p).iterations(2)),
            Replay::Serial(SerialReason::FewIterations)
        );
        let quiet = || ProgressMonitor::with_writer(Box::new(std::io::sink()));
        assert_eq!(
            reason(SimBuilder::new(&t, &p).iterations(3).progress(quiet())),
            Replay::Serial(SerialReason::Observed)
        );
        assert_eq!(
            reason(
                SimBuilder::new(&t, &p)
                    .iterations(3)
                    .fidelity(Fidelity::Packet)
            ),
            Replay::Serial(SerialReason::NetworkNotInvariant)
        );
        // The iteration count is checked first.
        assert_eq!(
            reason(SimBuilder::new(&t, &p).iterations(1).progress(quiet())),
            Replay::Serial(SerialReason::FewIterations)
        );
    }

    #[test]
    fn checkpoint_cadence_must_be_positive() {
        let t = trace();
        let p = Platform::p2(2);
        let result = std::panic::catch_unwind(|| {
            let _ = SimBuilder::new(&t, &p).checkpoint("/tmp/x", 0);
        });
        assert!(result.is_err(), "zero cadence must panic");
    }

    #[test]
    fn tensor_parallel_runs() {
        let t = trace();
        let p = Platform::p2(2);
        let r = SimBuilder::new(&t, &p)
            .parallelism(Parallelism::TensorParallel)
            .run();
        assert!(r.total_time_s() > 0.0);
        assert!(r.comm_ratio() > 0.0);
    }
}
