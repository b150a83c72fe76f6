//! The per-GPU, per-class operator time model.

use std::collections::HashMap;
use std::sync::OnceLock;

use triosim_modelzoo::{OpClass, Operator};
use triosim_trace::{GpuModel, GpuSpec, OracleGpu};

use crate::calibration::calibration_ops;
use crate::features::{op_features_with, FeatureSet};
use crate::linreg::LinearRegression;

/// Li's Model for one GPU: a linear regression per operator class.
///
/// Calibration "measures" the sweep on the oracle GPU model — the
/// reproduction's stand-in for running microbenchmarks on hardware — with
/// measurement jitter included, then fits OLS per class.
///
/// # Example
///
/// ```rust
/// use triosim_modelzoo::Operator;
/// use triosim_trace::{GpuModel, OracleGpu};
/// use triosim_perfmodel::LisModel;
///
/// let model = LisModel::calibrated(GpuModel::A40);
/// let op = Operator::linear("fc", 2048, 4096, 4096);
/// let predicted = model.predict(&op);
/// let measured = OracleGpu::new(GpuModel::A40).op_time_s(&op);
/// let err = ((predicted - measured) / measured).abs();
/// assert!(err < 0.10, "prediction within 10%, got {err:.3}");
/// ```
#[derive(Debug, Clone)]
pub struct LisModel {
    spec: GpuSpec,
    features: FeatureSet,
    per_class: HashMap<OpClass, LinearRegression>,
}

impl LisModel {
    /// Calibrates the model for `gpu` from the standard microbenchmark
    /// sweep (measured with the default oracle jitter, as real
    /// microbenchmarks are noisy).
    ///
    /// The oracle's jitter is deterministic, so the result depends on
    /// `gpu` alone: each GPU model is calibrated once per process, and
    /// every call returns a clone of that model.
    pub fn calibrated(gpu: GpuModel) -> Self {
        static A40: OnceLock<LisModel> = OnceLock::new();
        static A100: OnceLock<LisModel> = OnceLock::new();
        static H100: OnceLock<LisModel> = OnceLock::new();
        let cell = match gpu {
            GpuModel::A40 => &A40,
            GpuModel::A100 => &A100,
            GpuModel::H100 => &H100,
        };
        cell.get_or_init(|| Self::calibrated_with(OracleGpu::new(gpu)))
            .clone()
    }

    /// Calibrates against a specific oracle (e.g. jitter-free in tests).
    pub fn calibrated_with(oracle: OracleGpu) -> Self {
        Self::calibrated_with_features(oracle, FeatureSet::Linear)
    }

    /// Calibrates with an explicit feature family — [`FeatureSet::Sublinear`]
    /// is the NeuSight-style alternative compute model of §8.2.
    pub fn calibrated_with_features(oracle: OracleGpu, features: FeatureSet) -> Self {
        let mut per_class = HashMap::new();
        for class in OpClass::ALL {
            let ops = calibration_ops(class);
            let xs: Vec<Vec<f64>> = ops.iter().map(|o| op_features_with(o, features)).collect();
            let ys: Vec<f64> = ops.iter().map(|o| oracle.op_time_s(o)).collect();
            // Tiny ridge: several classes have FLOPs exactly
            // proportional to bytes, which is singular under plain OLS.
            let reg = LinearRegression::fit_ridge(&xs, &ys, 1e-9)
                .expect("ridge-regularized calibration always solves");
            per_class.insert(class, reg);
        }
        LisModel {
            spec: *oracle.spec(),
            features,
            per_class,
        }
    }

    /// The feature family this model was calibrated with.
    pub fn feature_set(&self) -> FeatureSet {
        self.features
    }

    /// The hardware spec this model was calibrated for.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// Predicts the execution time of one operator, in seconds.
    ///
    /// Predictions are floored at one kernel-launch overhead — a linear
    /// model extrapolated to tiny operators can go negative, but no real
    /// kernel finishes faster than its launch.
    pub fn predict(&self, op: &Operator) -> f64 {
        let reg = self
            .per_class
            .get(&op.class)
            .expect("all classes calibrated");
        let floor = self.spec.kernel_launch_overhead_s;
        reg.predict(&op_features_with(op, self.features)).max(floor)
    }

    /// Predicts the total time of an operator sequence.
    pub fn predict_sequence<'a>(&self, ops: impl IntoIterator<Item = &'a Operator>) -> f64 {
        ops.into_iter().map(|op| self.predict(op)).sum()
    }

    /// Rescales a *measured* time from one operator to a shape-modified
    /// version of it (changed batch or split tensor), using the model's
    /// prediction *ratio*.
    ///
    /// This is exactly the paper's method: "TrioSim can use single-GPU
    /// operator time to predict the time for multi-GPU operators by
    /// comparing the FLOPs difference and using the prediction results as
    /// the new operator execution time." Anchoring on the measured time
    /// keeps trace fidelity; the ratio carries the shape change.
    pub fn rescale_measured(&self, measured_s: f64, from: &Operator, to: &Operator) -> f64 {
        let p_from = self.predict(from);
        let p_to = self.predict(to);
        if p_from <= 0.0 {
            return p_to.max(0.0);
        }
        measured_s * (p_to / p_from)
    }

    /// Cross-GPU prediction: rescales a time measured on the GPU `self`
    /// was calibrated for onto `target`'s model, for a possibly
    /// shape-modified operator.
    ///
    /// Two fitted models participate, so cross-GPU predictions accumulate
    /// both models' fit error — the effect behind the paper's Case 1
    /// (cross-GPU) errors exceeding Case 2 (same-GPU).
    pub fn rescale_cross_gpu(
        &self,
        measured_s: f64,
        from: &Operator,
        target: &LisModel,
        to: &Operator,
    ) -> f64 {
        let p_from = self.predict(from);
        let p_to = target.predict(to);
        if p_from <= 0.0 {
            return p_to.max(0.0);
        }
        measured_s * (p_to / p_from)
    }

    /// Mean absolute percentage error of this model over a labelled
    /// operator set measured by `oracle`.
    pub fn validation_mape(&self, ops: &[Operator], oracle: &OracleGpu) -> f64 {
        if ops.is_empty() {
            return 0.0;
        }
        let total: f64 = ops
            .iter()
            .map(|op| {
                let truth = oracle.op_time_s(op);
                ((self.predict(op) - truth) / truth).abs()
            })
            .sum();
        total / ops.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use triosim_modelzoo::ModelId;

    #[test]
    fn calibration_fits_its_own_sweep_within_lis_accuracy() {
        // The oracle's sub-linear utilization shoulder is deliberately
        // outside the linear feature space, so the per-operator fit error
        // lands in the band Li's Model reports on real GPUs (~7-15%),
        // not at zero.
        let oracle = OracleGpu::with_jitter(GpuModel::A100, 0.0);
        let model = LisModel::calibrated_with(oracle);
        for class in [OpClass::Conv2d, OpClass::Linear, OpClass::Activation] {
            let ops = calibration_ops(class);
            let mape = model.validation_mape(&ops, &oracle);
            assert!(mape < 0.30, "{class}: mape {mape:.3}");
            assert!(mape > 0.005, "{class}: suspiciously perfect fit {mape:.4}");
        }
    }

    #[test]
    fn predicts_real_model_ops_within_reason() {
        let oracle = OracleGpu::new(GpuModel::A100);
        let model = LisModel::calibrated(GpuModel::A100);
        let graph = ModelId::ResNet50.build(128);
        let ops: Vec<Operator> = graph.layers().iter().flat_map(|l| l.ops.clone()).collect();
        let mape = model.validation_mape(&ops, &oracle);
        assert!(mape < 0.35, "mape {mape:.3}");
        // End-to-end totals are much tighter than per-op errors.
        let pred = model.predict_sequence(ops.iter());
        let truth = oracle.sequence_time_s(ops.iter());
        let err = ((pred - truth) / truth).abs();
        assert!(err < 0.12, "aggregate error {err:.4}");
    }

    #[test]
    fn memoized_calibration_predicts_as_a_fresh_one() {
        let graph = ModelId::ResNet50.build(32);
        let model_ops = graph.layers().iter().flat_map(|l| l.ops.iter().cloned());
        let ops: Vec<Operator> = OpClass::ALL
            .into_iter()
            .flat_map(calibration_ops)
            .chain(model_ops)
            .collect();
        for gpu in GpuModel::ALL {
            let fresh = LisModel::calibrated_with(OracleGpu::new(gpu));
            // The second call is served from the per-process memo.
            for memo in [LisModel::calibrated(gpu), LisModel::calibrated(gpu)] {
                assert_eq!(memo.spec(), fresh.spec());
                for op in &ops {
                    assert_eq!(
                        memo.predict(op).to_bits(),
                        fresh.predict(op).to_bits(),
                        "{gpu} {}",
                        op.name
                    );
                }
            }
        }
    }

    #[test]
    fn predictions_are_floored_at_launch_overhead() {
        let model = LisModel::calibrated(GpuModel::H100);
        let tiny = Operator::linear("t", 1, 2, 2);
        assert!(model.predict(&tiny) >= GpuModel::H100.spec().kernel_launch_overhead_s);
    }

    #[test]
    fn rescale_measured_doubles_with_batch() {
        let model = LisModel::calibrated(GpuModel::A40);
        let op = Operator::linear("fc", 4096, 4096, 4096);
        let double = op.with_batch_scaled(4096, 8192);
        let t = model.rescale_measured(0.01, &op, &double);
        assert!((t / 0.01 - 2.0).abs() < 0.1, "ratio {}", t / 0.01);
    }

    #[test]
    fn cross_gpu_rescaling_moves_toward_target_speed() {
        let a40 = LisModel::calibrated(GpuModel::A40);
        let h100 = LisModel::calibrated(GpuModel::H100);
        let op = Operator::linear("fc", 8192, 4096, 4096);
        let measured_a40 = OracleGpu::new(GpuModel::A40).op_time_s(&op);
        let predicted_h100 = a40.rescale_cross_gpu(measured_a40, &op, &h100, &op);
        let truth_h100 = OracleGpu::new(GpuModel::H100).op_time_s(&op);
        let err = ((predicted_h100 - truth_h100) / truth_h100).abs();
        assert!(err < 0.15, "cross-GPU error {err:.3}");
        assert!(predicted_h100 < measured_a40, "H100 is faster than A40");
    }

    #[test]
    fn spec_accessor() {
        assert_eq!(LisModel::calibrated(GpuModel::A40).spec().name, "A40");
        assert_eq!(
            LisModel::calibrated(GpuModel::A40).feature_set(),
            FeatureSet::Linear
        );
    }

    #[test]
    fn hypothetical_gpu_calibrates_and_predicts() {
        // A made-up next-gen part: 2x H100 compute, 1.5x bandwidth.
        let h100 = GpuModel::H100.spec();
        let next_gen = GpuSpec {
            name: "NextGen",
            peak_flops: 2.0 * h100.peak_flops,
            mem_bandwidth: 1.5 * h100.mem_bandwidth,
            ..h100
        };
        let oracle = OracleGpu::from_spec_with_jitter(next_gen, 0.0);
        let model = LisModel::calibrated_with(oracle);
        assert_eq!(model.spec().name, "NextGen");
        let op = Operator::linear("fc", 8192, 4096, 4096);
        let t_next = model.predict(&op);
        let t_h100 =
            LisModel::calibrated_with(OracleGpu::with_jitter(GpuModel::H100, 0.0)).predict(&op);
        let speedup = t_h100 / t_next;
        assert!((1.6..2.4).contains(&speedup), "speedup {speedup}");
    }

    #[test]
    fn sublinear_features_fit_small_ops_better() {
        // The oracle's utilization shoulder is a sqrt term: the sublinear
        // family should fit the calibration sweep strictly better.
        let oracle = OracleGpu::with_jitter(GpuModel::A100, 0.0);
        let linear = LisModel::calibrated_with_features(oracle, FeatureSet::Linear);
        let sublinear = LisModel::calibrated_with_features(oracle, FeatureSet::Sublinear);
        for class in [OpClass::Conv2d, OpClass::Linear] {
            let ops = calibration_ops(class);
            let lin = linear.validation_mape(&ops, &oracle);
            let sub = sublinear.validation_mape(&ops, &oracle);
            assert!(sub < lin, "{class}: sublinear {sub:.4} vs linear {lin:.4}");
        }
    }
}
