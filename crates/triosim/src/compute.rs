//! Operator-time policies (§4.4 of the paper).
//!
//! TrioSim offers two ways to time a computation operator: the
//! trace-provided measured time (exact, but only valid when the simulated
//! GPU and shapes match the trace) and Li's Model (flexible: new batch
//! sizes, split tensors, new GPUs). [`ComputeModel`] encodes that policy,
//! plus the *reference* policy this reproduction uses as its hardware
//! stand-in ground truth.

use std::hash::{Hash, Hasher};

use triosim_modelzoo::Operator;
use triosim_perfmodel::LisModel;
use triosim_trace::{GpuModel, OracleGpu};

use crate::parallelism::Parallelism;
use crate::platform::Platform;

/// Which side of a validation experiment a simulation plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Fidelity {
    /// TrioSim proper: clean flow network, Li's-Model compute policy.
    #[default]
    TrioSim,
    /// The high-fidelity reference ("real hardware" stand-in): oracle
    /// operator times with multi-GPU context jitter, protocol-aware
    /// network.
    Reference,
    /// TrioSim compute with the packet-level network tier: MTU
    /// packetization, switch queues, ECN/DCTCP congestion control, and
    /// retransmission. Use where protocol effects matter (incast,
    /// oversubscribed fabrics); `tests/fidelity.rs` cross-validates it
    /// against the flow tier.
    Packet,
}

/// The operator-time policy of one simulation.
#[derive(Debug, Clone)]
pub enum ComputeModel {
    /// TrioSim's policy: trace-provided time when the operator is
    /// unchanged; Li's-Model ratio rescaling when shapes changed; a
    /// second calibrated model when predicting a different GPU than the
    /// trace was collected on.
    Lis {
        /// Model calibrated for the GPU the trace was collected on.
        source: LisModel,
        /// Model for the simulated GPU, when different from the source.
        target: Option<LisModel>,
    },
    /// Ground-truth policy: every operator re-timed by the oracle at its
    /// simulated shape, plus the multi-GPU effects TrioSim abstracts
    /// away: a systematic per-board speed factor (silicon binning and
    /// thermal variation make nominally identical GPUs run a few percent
    /// apart), small per-operator interference noise, and an optional
    /// per-operator host dispatch overhead (the single-process GIL
    /// serialization that makes `DataParallel` slower than DDP).
    Reference {
        /// The oracle for the simulated GPU.
        oracle: OracleGpu,
        /// Per-board systematic speed variation amplitude (e.g. 0.02).
        board_skew: f64,
        /// Per-operator interference noise amplitude (e.g. 0.005).
        context_jitter: f64,
        /// Fixed host-dispatch overhead added to every operator, seconds.
        dispatch_overhead_s: f64,
    },
}

impl ComputeModel {
    /// TrioSim policy for a same-GPU simulation.
    pub fn lis(source: LisModel) -> Self {
        ComputeModel::Lis {
            source,
            target: None,
        }
    }

    /// TrioSim policy for a cross-GPU prediction (trace collected on
    /// `source`'s GPU, simulating `target`'s GPU).
    pub fn lis_cross(source: LisModel, target: LisModel) -> Self {
        ComputeModel::Lis {
            source,
            target: Some(target),
        }
    }

    /// Reference (ground truth) policy with the default ±2% board skew
    /// and ±0.5% interference noise.
    pub fn reference(oracle: OracleGpu) -> Self {
        ComputeModel::Reference {
            oracle,
            board_skew: 0.02,
            context_jitter: 0.005,
            dispatch_overhead_s: 0.0,
        }
    }

    /// Reference policy with a per-operator host dispatch overhead.
    ///
    /// Real systems pay CPU-side costs TrioSim does not model: the Python
    /// GIL serializes `DataParallel` kernel launches across replicas, and
    /// the torch pipelining runtime adds scheduling work per micro-batch
    /// operator (the effect behind the paper's Figure 10 anomalies at
    /// small micro-batches). Ground-truth simulations of those modes pass
    /// the corresponding overhead here.
    pub fn reference_with_dispatch(oracle: OracleGpu, dispatch_overhead_s: f64) -> Self {
        assert!(dispatch_overhead_s >= 0.0, "overhead must be non-negative");
        ComputeModel::Reference {
            oracle,
            board_skew: 0.02,
            context_jitter: 0.005,
            dispatch_overhead_s,
        }
    }

    /// Resolves the default operator-time policy for a simulation of a
    /// trace collected on `source_gpu`, run on `platform` under
    /// `parallelism` at `fidelity`.
    ///
    /// `calibrate` supplies Li's Models per GPU: usually
    /// [`LisModel::calibrated`], which calibrates each GPU model once per
    /// process; callers wrap it to time or count the calls.
    pub fn resolve_with(
        fidelity: Fidelity,
        source_gpu: GpuModel,
        platform: &Platform,
        parallelism: Parallelism,
        calibrate: &mut dyn FnMut(GpuModel) -> LisModel,
    ) -> Self {
        match fidelity {
            // The packet tier changes only the network; compute stays
            // on TrioSim's Li's-Model policy.
            Fidelity::TrioSim | Fidelity::Packet => {
                let source = calibrate(source_gpu);
                if source_gpu == platform.gpu() {
                    ComputeModel::lis(source)
                } else {
                    ComputeModel::lis_cross(source, calibrate(platform.gpu()))
                }
            }
            Fidelity::Reference => {
                let oracle = OracleGpu::new(platform.gpu());
                match parallelism {
                    // Single-process DataParallel pays GIL-serialized
                    // kernel dispatch on real hardware; DDP does not.
                    Parallelism::DataParallel { overlap: false } if platform.gpu_count() > 1 => {
                        ComputeModel::reference_with_dispatch(
                            oracle,
                            25.0e-6 * platform.gpu_count() as f64,
                        )
                    }
                    // The torch pipelining runtime adds CPU scheduling
                    // work per operator; with small micro-batches this is
                    // what makes real 4-chunk runs *slower* than 2-chunk
                    // ones (the paper's orange-triangle cases).
                    Parallelism::Pipeline { .. } | Parallelism::Hybrid { .. } => {
                        ComputeModel::reference_with_dispatch(oracle, 40.0e-6)
                    }
                    // The tensor_parallel library wraps every sharded
                    // module in Python glue that re-dispatches per layer.
                    Parallelism::TensorParallel => {
                        ComputeModel::reference_with_dispatch(oracle, 30.0e-6)
                    }
                    _ => ComputeModel::reference(oracle),
                }
            }
        }
    }

    /// Times one operator on GPU `gpu_index`.
    ///
    /// `measured_s` and `from` describe the operator as it appears in the
    /// single-GPU trace; `to` is the (possibly rescaled or split)
    /// operator actually executing in the simulated configuration.
    pub fn op_time_s(
        &self,
        measured_s: f64,
        from: &Operator,
        to: &Operator,
        gpu_index: usize,
    ) -> f64 {
        match self {
            ComputeModel::Lis {
                source,
                target: None,
            } => {
                if shapes_match(from, to) {
                    measured_s
                } else {
                    source.rescale_measured(measured_s, from, to)
                }
            }
            ComputeModel::Lis {
                source,
                target: Some(target),
            } => source.rescale_cross_gpu(measured_s, from, target, to),
            ComputeModel::Reference {
                oracle,
                board_skew,
                context_jitter,
                dispatch_overhead_s,
            } => {
                let base = oracle.op_time_s(to);
                let skew = board_factor(gpu_index, *board_skew);
                base * (1.0 + skew + context_noise(gpu_index, to, *context_jitter))
                    + dispatch_overhead_s
            }
        }
    }
}

impl std::str::FromStr for Fidelity {
    type Err = String;

    fn from_str(spec: &str) -> Result<Self, Self::Err> {
        match spec {
            "triosim" | "prediction" => Ok(Fidelity::TrioSim),
            "reference" | "truth" => Ok(Fidelity::Reference),
            "packet" => Ok(Fidelity::Packet),
            _ => Err(format!(
                "unknown fidelity `{spec}` (try triosim, reference, or packet)"
            )),
        }
    }
}

/// Whether the simulated operator is byte-for-byte the traced one (then
/// the trace-provided time applies directly).
fn shapes_match(from: &Operator, to: &Operator) -> bool {
    from.flops == to.flops
        && from.bytes_in == to.bytes_in
        && from.bytes_out == to.bytes_out
        && from.weight_bytes == to.weight_bytes
}

/// Systematic per-board speed factor in [-amp, +amp], constant across
/// all operators on one GPU.
fn board_factor(gpu_index: usize, amp: f64) -> f64 {
    if amp == 0.0 {
        return 0.0;
    }
    let mut h = std::collections::hash_map::DefaultHasher::new();
    gpu_index.hash(&mut h);
    0xB0A2Du64.hash(&mut h);
    let unit = (h.finish() % 10_000) as f64 / 10_000.0;
    (unit * 2.0 - 1.0) * amp
}

/// Deterministic multi-GPU context noise in [-amp, +amp].
fn context_noise(gpu_index: usize, op: &Operator, amp: f64) -> f64 {
    if amp == 0.0 {
        return 0.0;
    }
    let mut h = std::collections::hash_map::DefaultHasher::new();
    gpu_index.hash(&mut h);
    op.name.hash(&mut h);
    op.flops.to_bits().hash(&mut h);
    let unit = (h.finish() % 10_000) as f64 / 10_000.0;
    (unit * 2.0 - 1.0) * amp
}

#[cfg(test)]
mod tests {
    use super::*;
    use triosim_trace::GpuModel;

    #[test]
    fn unchanged_op_passes_measured_time_through() {
        let model = ComputeModel::lis(LisModel::calibrated(GpuModel::A100));
        let op = Operator::linear("fc", 128, 1024, 1024);
        assert_eq!(model.op_time_s(0.123, &op, &op.clone(), 0), 0.123);
    }

    #[test]
    fn rescaled_op_scales_roughly_with_batch() {
        let model = ComputeModel::lis(LisModel::calibrated(GpuModel::A100));
        let op = Operator::linear("fc", 4096, 4096, 4096);
        let half = op.with_batch_scaled(4096, 2048);
        let t = model.op_time_s(0.1, &op, &half, 0);
        assert!((0.4..0.6).contains(&(t / 0.1)), "ratio {}", t / 0.1);
    }

    #[test]
    fn cross_gpu_always_rescales() {
        let model = ComputeModel::lis_cross(
            LisModel::calibrated(GpuModel::A40),
            LisModel::calibrated(GpuModel::H100),
        );
        let op = Operator::linear("fc", 8192, 4096, 4096);
        let t = model.op_time_s(0.1, &op, &op.clone(), 0);
        assert!(t < 0.1, "H100 faster than A40 even with identical shapes");
    }

    #[test]
    fn reference_jitter_varies_by_gpu_but_is_deterministic() {
        let model = ComputeModel::reference(OracleGpu::new(GpuModel::A100));
        let op = Operator::linear("fc", 512, 512, 512);
        let t0 = model.op_time_s(0.0, &op, &op.clone(), 0);
        let t1 = model.op_time_s(0.0, &op, &op.clone(), 1);
        assert_ne!(t0, t1, "different GPUs see different context noise");
        assert_eq!(t0, model.op_time_s(0.0, &op, &op.clone(), 0));
        let ratio = t0 / t1;
        assert!((0.97..1.03).contains(&ratio), "noise bounded: {ratio}");
    }

    #[test]
    fn fidelity_default_is_triosim() {
        assert_eq!(Fidelity::default(), Fidelity::TrioSim);
    }
}
