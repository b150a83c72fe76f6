//! Checkpoint/restore identity properties: a run resumed from any
//! boundary snapshot must produce canonical bytes identical to the
//! uninterrupted run — fault-free, faulted, and budgeted alike — and
//! every malformed or mismatched snapshot must surface as a typed
//! [`CheckpointError`], never undefined behavior.
//!
//! The "kill at boundary k" scenario is modeled exactly: a run of `k`
//! iterations with cadence `k` leaves behind the same snapshot a longer
//! run killed right after boundary `k` would have left (the snapshot's
//! spec hash deliberately excludes the iteration count), so restoring it
//! into an `n`-iteration run reproduces the interrupted-and-resumed
//! lifecycle byte for byte.

mod common;

use std::path::PathBuf;

use proptest::prelude::*;
use serde::Deserialize as _;
use triosim::{
    CheckpointError, FaultPlan, GpuSlowdown, Jitter, LinkDegradation, Parallelism, Platform,
    SimBuilder, SimError,
};
use triosim_des::RunBudget;
use triosim_modelzoo::ModelId;
use triosim_trace::{GpuModel, Trace, Tracer};

fn trace(model: ModelId, batch: u64) -> Trace {
    Tracer::new(GpuModel::A100).trace(&model.build(batch))
}

fn parallelism(index: usize) -> Parallelism {
    match index % 4 {
        0 => Parallelism::DataParallel { overlap: false },
        1 => Parallelism::DataParallel { overlap: true },
        2 => Parallelism::TensorParallel,
        _ => Parallelism::Pipeline { chunks: 2 },
    }
}

fn model(index: usize) -> ModelId {
    [ModelId::Vgg11, ModelId::ResNet18][index % 2]
}

fn temp_path(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "triosim-ckpt-test-{tag}-{}-{n}.json",
        std::process::id()
    ))
}

/// A fault plan whose timed entries land mid-run: a permanent GPU
/// slowdown, per-op jitter (exercises the seeded RNG position across the
/// restore), and a link degradation that fires partway through.
fn fault_plan(at_s: f64) -> FaultPlan {
    FaultPlan {
        seed: 7,
        gpu_slowdowns: vec![GpuSlowdown {
            gpu: 0,
            factor: 1.25,
        }],
        jitter: Some(Jitter { amplitude: 0.03 }),
        link_degradations: vec![LinkDegradation {
            src: 1,
            dst: 2,
            factor: 0.5,
            at_s,
        }],
        ..FaultPlan::default()
    }
}

#[test]
fn checkpointing_is_invisible_in_the_report() {
    let t = trace(ModelId::ResNet18, 16);
    let p = Platform::p2(2);
    let plain = SimBuilder::new(&t, &p).iterations(4).run();
    let path = temp_path("invisible");
    let checkpointed = SimBuilder::new(&t, &p)
        .iterations(4)
        .checkpoint(&path, 2)
        .try_run()
        .expect("checkpointed run completes");
    assert_eq!(plain.to_canonical_json(), checkpointed.to_canonical_json());
    assert!(path.exists(), "final boundary snapshot is on disk");
    std::fs::remove_file(&path).ok();
}

#[test]
fn restore_from_every_boundary_is_byte_identical() {
    let t = trace(ModelId::ResNet18, 16);
    let p = Platform::p2(2);
    let n = 5;
    let uninterrupted = SimBuilder::new(&t, &p).iterations(n).run();
    let serial = uninterrupted.to_canonical_json();
    // The uninterrupted run replays; the serial oracle must agree.
    let oracle = SimBuilder::new(&t, &p)
        .iterations(n)
        .network(common::serial_flow(&p))
        .run()
        .to_canonical_json();
    assert_eq!(serial, oracle);
    for k in 1..=n {
        let path = temp_path("boundary");
        // A k-iteration run with cadence k leaves the snapshot a longer
        // run killed right after boundary k would have left.
        SimBuilder::new(&t, &p)
            .iterations(k)
            .checkpoint(&path, k)
            .try_run()
            .expect("prefix run completes");
        let resumed = SimBuilder::new(&t, &p)
            .iterations(n)
            .restore(&path)
            .try_run()
            .expect("restore succeeds");
        assert_eq!(
            serial,
            resumed.to_canonical_json(),
            "restore from boundary {k} of {n} diverged"
        );
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn restore_of_a_finished_run_reproduces_its_report() {
    let t = trace(ModelId::Vgg11, 8);
    let p = Platform::p2(2);
    let path = temp_path("finished");
    let full = SimBuilder::new(&t, &p)
        .iterations(3)
        .checkpoint(&path, 3)
        .try_run()
        .expect("checkpointed run completes");
    let resumed = SimBuilder::new(&t, &p)
        .iterations(3)
        .restore(&path)
        .try_run()
        .expect("zero-remaining restore succeeds");
    assert_eq!(full.to_canonical_json(), resumed.to_canonical_json());
    std::fs::remove_file(&path).ok();
}

#[test]
fn faulted_restore_is_byte_identical() {
    let t = trace(ModelId::ResNet18, 16);
    let p = Platform::p2(2);
    // Place the timed link degradation inside iteration 2 of 4.
    let per_iter = SimBuilder::new(&t, &p).iterations(1).run().total_time_s();
    let plan = fault_plan(1.5 * per_iter);
    let n = 4;
    let uninterrupted = SimBuilder::new(&t, &p)
        .iterations(n)
        .faults(plan.clone())
        .try_run()
        .expect("faulted run completes");
    for k in [1, 2, 3] {
        let path = temp_path("faulted");
        SimBuilder::new(&t, &p)
            .iterations(k)
            .faults(plan.clone())
            .checkpoint(&path, k)
            .try_run()
            .expect("faulted prefix completes");
        let resumed = SimBuilder::new(&t, &p)
            .iterations(n)
            .faults(plan.clone())
            .restore(&path)
            .try_run()
            .expect("faulted restore succeeds");
        assert_eq!(
            uninterrupted.to_canonical_json(),
            resumed.to_canonical_json(),
            "faulted restore from boundary {k} diverged"
        );
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn budgeted_restore_trips_identically() {
    let t = trace(ModelId::ResNet18, 16);
    let p = Platform::p2(2);
    // An event budget that survives iteration 1 but trips later.
    let events_per_iter = {
        let path = temp_path("budget-probe");
        SimBuilder::new(&t, &p)
            .iterations(1)
            .checkpoint(&path, 1)
            .try_run()
            .expect("probe completes");
        let text = std::fs::read_to_string(&path).expect("snapshot readable");
        std::fs::remove_file(&path).ok();
        let v: serde::Value = serde_json::from_str(text.trim_end()).expect("snapshot is JSON");
        // The event-budget axis counts exactly the compute and flow
        // deliveries, which are the first two dispatch counters.
        let dispatches = Vec::<u64>::from_value(
            v.get("state")
                .and_then(|s| s.get("dispatches"))
                .expect("snapshot records dispatch counters"),
        )
        .expect("dispatches are integers");
        dispatches[0] + dispatches[1]
    };
    let limit = events_per_iter * 2 + events_per_iter / 2;
    let budget = || RunBudget::unlimited().with_max_events(limit);
    let serial = SimBuilder::new(&t, &p)
        .iterations(4)
        .budget(budget())
        .try_run()
        .expect_err("budget trips in iteration 3");
    let path = temp_path("budget");
    SimBuilder::new(&t, &p)
        .iterations(2)
        .budget(budget())
        .checkpoint(&path, 2)
        .try_run()
        .expect("two iterations fit the budget");
    let resumed = SimBuilder::new(&t, &p)
        .iterations(4)
        .budget(budget())
        .restore(&path)
        .try_run()
        .expect_err("restored run trips the same budget");
    assert_eq!(serial.to_string(), resumed.to_string());
    std::fs::remove_file(&path).ok();
}

#[test]
fn mismatched_spec_is_a_typed_error() {
    let t = trace(ModelId::ResNet18, 16);
    let p = Platform::p2(2);
    let path = temp_path("mismatch");
    SimBuilder::new(&t, &p)
        .iterations(2)
        .checkpoint(&path, 2)
        .try_run()
        .expect("run completes");
    // Different platform ⇒ different graph and network ⇒ different hash.
    let p4 = Platform::p2(4);
    let err = SimBuilder::new(&t, &p4)
        .iterations(4)
        .restore(&path)
        .try_run()
        .expect_err("restoring under a different scenario must fail");
    assert!(
        matches!(
            err,
            SimError::Checkpoint(CheckpointError::SpecMismatch { .. })
        ),
        "got {err:?}"
    );
    // Same scenario but a different fault plan also mismatches.
    let err = SimBuilder::new(&t, &p)
        .iterations(4)
        .faults(fault_plan(0.1))
        .restore(&path)
        .try_run()
        .expect_err("a different fault plan must fail");
    assert!(matches!(
        err,
        SimError::Checkpoint(CheckpointError::SpecMismatch { .. })
    ));
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupt_and_future_snapshots_are_typed_errors() {
    let t = trace(ModelId::Vgg11, 8);
    let p = Platform::p2(2);
    let path = temp_path("corrupt");
    std::fs::write(&path, "{not json").expect("write scratch file");
    let err = SimBuilder::new(&t, &p)
        .iterations(2)
        .restore(&path)
        .try_run()
        .expect_err("garbage must fail");
    assert!(matches!(
        err,
        SimError::Checkpoint(CheckpointError::Corrupt(_))
    ));
    std::fs::write(
        &path,
        "{\"checkpoint\":\"triosim-sim\",\"version\":99,\"spec_hash\":\"0\",\"completed\":1,\
         \"state\":{}}\n",
    )
    .expect("write scratch file");
    let err = SimBuilder::new(&t, &p)
        .iterations(2)
        .restore(&path)
        .try_run()
        .expect_err("future version must fail");
    assert!(matches!(
        err,
        SimError::Checkpoint(CheckpointError::UnsupportedVersion { found: 99, .. })
    ));
    let err = SimBuilder::new(&t, &p)
        .iterations(2)
        .restore(temp_path("absent"))
        .try_run()
        .expect_err("missing file must fail");
    assert!(matches!(err, SimError::Checkpoint(CheckpointError::Io(_))));
    std::fs::remove_file(&path).ok();
}

#[test]
fn snapshot_with_more_iterations_than_requested_is_corrupt() {
    let t = trace(ModelId::Vgg11, 8);
    let p = Platform::p2(2);
    let path = temp_path("excess");
    SimBuilder::new(&t, &p)
        .iterations(3)
        .checkpoint(&path, 3)
        .try_run()
        .expect("run completes");
    let err = SimBuilder::new(&t, &p)
        .iterations(2)
        .restore(&path)
        .try_run()
        .expect_err("3 completed iterations cannot resume a 2-iteration run");
    assert!(matches!(
        err,
        SimError::Checkpoint(CheckpointError::Corrupt(_))
    ));
    std::fs::remove_file(&path).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Kill-at-any-boundary identity over random model × parallelism ×
    /// iteration counts: restoring boundary `k` of an `n`-iteration run
    /// reproduces the uninterrupted run's canonical bytes exactly, with
    /// and without replay available.
    #[test]
    fn restore_from_any_checkpoint_is_byte_identical(
        model_idx in 0usize..2,
        par_idx in 0usize..4,
        n in 2usize..5,
        k_frac in 0usize..3,
    ) {
        let k = 1 + k_frac % n.saturating_sub(1).max(1);
        let t = trace(model(model_idx), 8);
        let p = Platform::p2(2);
        let par = parallelism(par_idx);
        let serial = SimBuilder::new(&t, &p)
            .parallelism(par)
            .iterations(n)
            .run()
            .to_canonical_json();
        let oracle = SimBuilder::new(&t, &p)
            .parallelism(par)
            .iterations(n)
            .network(common::serial_flow(&p))
            .run()
            .to_canonical_json();
        prop_assert_eq!(&serial, &oracle, "serial oracle diverged");
        let path = temp_path("prop");
        SimBuilder::new(&t, &p)
            .parallelism(par)
            .iterations(k)
            .checkpoint(&path, k)
            .try_run()
            .expect("prefix run completes");
        let resumed = SimBuilder::new(&t, &p)
            .parallelism(par)
            .iterations(n)
            .restore(&path)
            .try_run()
            .expect("restore succeeds")
            .to_canonical_json();
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(&serial, &resumed, "boundary {} of {} diverged", k, n);
    }
}
