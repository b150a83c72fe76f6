//! The tracer: produces a single-GPU operator-level training trace from a
//! model graph, with times stamped by the oracle GPU model.
//!
//! This is the reproduction's replacement for the paper's PyTorch-based
//! tracer (PyTorch Profiler + Execution Graph Observer): same output
//! format, but the "hardware" is the [`OracleGpu`].

use triosim_modelzoo::{DType, ModelGraph, Operator, TensorShape};

use crate::format::{Phase, TensorCategory, TensorId, TensorTable, Trace, TraceEntry, TraceError};
use crate::gpu::GpuModel;
use crate::oracle::OracleGpu;

/// Builds training traces for a given GPU.
///
/// One trace covers exactly one training iteration: forward pass, backward
/// pass, and optimizer step, in program order (the order PyTorch executes
/// them eagerly).
///
/// # Example
///
/// ```rust
/// use triosim_modelzoo::ModelId;
/// use triosim_trace::{GpuModel, Tracer};
///
/// let trace = Tracer::new(GpuModel::A40).trace(&ModelId::ResNet18.build(16));
/// assert_eq!(trace.gpu(), "A40");
/// assert_eq!(trace.batch(), 16);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Tracer {
    oracle: OracleGpu,
}

impl Tracer {
    /// Creates a tracer backed by the default oracle for `gpu`.
    pub fn new(gpu: GpuModel) -> Self {
        Tracer {
            oracle: OracleGpu::new(gpu),
        }
    }

    /// The oracle stamping execution times.
    pub fn oracle(&self) -> &OracleGpu {
        &self.oracle
    }

    /// Traces one *inference* pass of `model`: forward operators only, no
    /// gradients, no optimizer. This is the workload class Li's Model was
    /// originally built for, and the input for serving-style simulations
    /// (replicated or pipelined inference).
    ///
    /// # Panics
    ///
    /// Panics if the model has no layers or operators; use
    /// [`try_trace_inference`](Self::try_trace_inference) for a typed
    /// error instead.
    pub fn trace_inference(&self, model: &ModelGraph) -> Trace {
        self.try_trace_inference(model)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`trace_inference`](Self::trace_inference).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::EmptyModel`] when the model has no layers or
    /// its first layer has no operators.
    pub fn try_trace_inference(&self, model: &ModelGraph) -> Result<Trace, TraceError> {
        let mut tensors = TensorTable::new();
        let mut entries = Vec::new();

        let first_op = first_op(model)?;
        let input_elems = (first_op.bytes_in / DType::F32.size_bytes()).max(1);
        let mut current_activation = tensors.register(
            TensorCategory::Input,
            TensorShape::from([input_elems]),
            DType::F32,
        );
        let weight_ids: Vec<Option<TensorId>> = model
            .layers()
            .iter()
            .map(|layer| {
                let bytes = layer.param_bytes();
                (bytes > 0).then(|| {
                    tensors.register(
                        TensorCategory::Weight,
                        TensorShape::from([bytes / DType::F32.size_bytes()]),
                        DType::F32,
                    )
                })
            })
            .collect();

        for (li, layer) in model.layers().iter().enumerate() {
            for op in &layer.ops {
                let out =
                    tensors.register(TensorCategory::Activation, op.output.clone(), DType::F32);
                let mut inputs = vec![current_activation];
                if op.weight_bytes > 0 {
                    if let Some(w) = weight_ids[li] {
                        inputs.push(w);
                    }
                }
                entries.push(TraceEntry {
                    time_s: self.oracle.op_time_s(op),
                    op: op.clone(),
                    layer: li,
                    phase: Phase::Forward,
                    inputs,
                    outputs: vec![out],
                });
                current_activation = out;
            }
        }

        Trace::try_new(
            model.name(),
            model.batch(),
            self.oracle.spec().name,
            entries,
            tensors,
        )
    }

    /// Traces one training iteration of `model`.
    ///
    /// # Panics
    ///
    /// Panics if the model has no layers or operators; use
    /// [`try_trace`](Self::try_trace) for a typed error instead.
    pub fn trace(&self, model: &ModelGraph) -> Trace {
        self.try_trace(model).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`trace`](Self::trace).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::EmptyModel`] when the model has no layers or
    /// its first layer has no operators.
    pub fn try_trace(&self, model: &ModelGraph) -> Result<Trace, TraceError> {
        let mut tensors = TensorTable::new();
        let mut entries = Vec::new();

        // The data batch arriving from the host.
        let first_op = first_op(model)?;
        let input_elems = (first_op.bytes_in / DType::F32.size_bytes()).max(1);
        let mut current_activation = tensors.register(
            TensorCategory::Input,
            TensorShape::from([input_elems]),
            DType::F32,
        );

        // Per-layer weight tensors (registered up front, as parameters
        // exist before execution starts).
        let weight_ids: Vec<Option<TensorId>> = model
            .layers()
            .iter()
            .map(|layer| {
                let bytes = layer.param_bytes();
                (bytes > 0).then(|| {
                    tensors.register(
                        TensorCategory::Weight,
                        TensorShape::from([bytes / DType::F32.size_bytes()]),
                        DType::F32,
                    )
                })
            })
            .collect();

        // Forward pass.
        for (li, layer) in model.layers().iter().enumerate() {
            for op in &layer.ops {
                let out =
                    tensors.register(TensorCategory::Activation, op.output.clone(), DType::F32);
                let mut inputs = vec![current_activation];
                if op.weight_bytes > 0 {
                    if let Some(w) = weight_ids[li] {
                        inputs.push(w);
                    }
                }
                entries.push(TraceEntry {
                    time_s: self.oracle.op_time_s(op),
                    op: op.clone(),
                    layer: li,
                    phase: Phase::Forward,
                    inputs,
                    outputs: vec![out],
                });
                current_activation = out;
            }
        }

        // Backward pass (reverse program order).
        let mut grad_ids: Vec<Option<TensorId>> = vec![None; model.layer_count()];
        for (li, layer) in model.layers().iter().enumerate().rev() {
            let grad_id = {
                let bytes = layer.param_bytes();
                (bytes > 0).then(|| {
                    tensors.register(
                        TensorCategory::Gradient,
                        TensorShape::from([bytes / DType::F32.size_bytes()]),
                        DType::F32,
                    )
                })
            };
            grad_ids[li] = grad_id;
            for op in layer.ops.iter().rev() {
                let bwd = backward_of(op);
                let out =
                    tensors.register(TensorCategory::Activation, bwd.output.clone(), DType::F32);
                let mut outputs = vec![out];
                if let Some(g) = grad_id {
                    if op.weight_bytes > 0 {
                        outputs.push(g);
                    }
                }
                entries.push(TraceEntry {
                    time_s: self.oracle.op_time_s(&bwd),
                    op: bwd,
                    layer: li,
                    phase: Phase::Backward,
                    inputs: vec![current_activation],
                    outputs,
                });
                current_activation = out;
            }
        }

        // Optimizer step (one fused update per parameterized layer, as
        // torch.optim executes per-parameter-group kernels).
        for (li, layer) in model.layers().iter().enumerate() {
            let bytes = layer.param_bytes();
            if bytes == 0 {
                continue;
            }
            let op = Operator::optimizer(format!("{}.sgd", layer.name), bytes);
            let mut inputs = Vec::new();
            if let Some(w) = weight_ids[li] {
                inputs.push(w);
            }
            if let Some(g) = grad_ids[li] {
                inputs.push(g);
            }
            let outputs = weight_ids[li].into_iter().collect();
            entries.push(TraceEntry {
                time_s: self.oracle.op_time_s(&op),
                op,
                layer: li,
                phase: Phase::Optimizer,
                inputs,
                outputs,
            });
        }

        Trace::try_new(
            model.name(),
            model.batch(),
            self.oracle.spec().name,
            entries,
            tensors,
        )
    }
}

/// The model's first operator (the shape source for the input tensor), or
/// [`TraceError::EmptyModel`] when there is none.
fn first_op(model: &ModelGraph) -> Result<&Operator, TraceError> {
    model
        .layers()
        .first()
        .and_then(|layer| layer.ops.first())
        .ok_or(TraceError::EmptyModel)
}

/// Derives the backward operator for a forward operator.
///
/// Operators with weights compute two gradients (input and weight), so
/// their backward cost is ~2x the forward; weightless operators cost ~1x.
/// This is the standard FLOP-accounting convention (fwd : bwd = 1 : 2 for
/// GEMM-like layers) and matches what profilers observe for cuDNN/cuBLAS
/// backward kernels.
pub fn backward_of(op: &Operator) -> Operator {
    let factor = if op.weight_bytes > 0 { 2.0 } else { 1.0 };
    Operator {
        name: format!("{}.bwd", op.name),
        class: op.class,
        flops: op.flops * factor,
        // Reads the upstream gradient and the saved activations/weights;
        // writes the input gradient (and weight gradient if any).
        bytes_in: op.bytes_out + op.weight_bytes,
        bytes_out: op.bytes_in + op.weight_bytes,
        weight_bytes: op.weight_bytes,
        output: op.output.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use triosim_modelzoo::ModelId;

    fn sample() -> Trace {
        Tracer::new(GpuModel::A100).trace(&ModelId::ResNet18.build(8))
    }

    #[test]
    fn empty_model_is_a_typed_error_not_a_panic() {
        // `ModelGraph::new` asserts non-empty, so a hollow graph can only
        // arrive via deserialization — exactly the path a tracer consuming
        // external model files has to survive.
        let empty: triosim_modelzoo::ModelGraph =
            serde_json::from_str(r#"{"name":"hollow","batch":8,"layers":[]}"#)
                .expect("structurally valid JSON");
        let err = Tracer::new(GpuModel::A100).try_trace(&empty).unwrap_err();
        assert!(matches!(err, TraceError::EmptyModel));
        assert!(err.to_string().contains("no layers or operators"));
        let err = Tracer::new(GpuModel::A100)
            .try_trace_inference(&empty)
            .unwrap_err();
        assert!(matches!(err, TraceError::EmptyModel));
    }

    #[test]
    fn phases_appear_in_program_order() {
        let t = sample();
        let mut last_phase = Phase::Forward;
        let mut transitions = 0;
        for e in t.entries() {
            if e.phase != last_phase {
                transitions += 1;
                last_phase = e.phase;
            }
        }
        // fwd -> bwd -> opt: exactly two transitions.
        assert_eq!(transitions, 2);
        assert_eq!(t.entries().first().unwrap().phase, Phase::Forward);
        assert_eq!(t.entries().last().unwrap().phase, Phase::Optimizer);
    }

    #[test]
    fn backward_reverses_layer_order() {
        let t = sample();
        let bwd_layers: Vec<usize> = t
            .entries()
            .iter()
            .filter(|e| e.phase == Phase::Backward)
            .map(|e| e.layer)
            .collect();
        let mut sorted = bwd_layers.clone();
        sorted.sort_by(|a, b| b.cmp(a));
        assert_eq!(bwd_layers, sorted, "backward must walk layers in reverse");
    }

    #[test]
    fn backward_costs_more_than_forward() {
        let t = sample();
        let fwd = t.phase_time_s(Phase::Forward);
        let bwd = t.phase_time_s(Phase::Backward);
        assert!(bwd > 1.3 * fwd, "fwd {fwd}, bwd {bwd}");
        assert!(bwd < 3.0 * fwd);
    }

    #[test]
    fn gradient_bytes_equal_param_bytes() {
        let model = ModelId::ResNet18.build(8);
        let t = Tracer::new(GpuModel::A100).trace(&model);
        assert_eq!(t.gradient_bytes(), model.param_bytes());
    }

    #[test]
    fn weight_ops_reference_weight_tensors() {
        let t = sample();
        for e in t.entries().iter().filter(|e| e.phase == Phase::Forward) {
            if e.op.weight_bytes > 0 {
                let has_weight_input = e.inputs.iter().any(|id| {
                    t.tensors().get(*id).map(|r| r.category) == Some(TensorCategory::Weight)
                });
                assert!(has_weight_input, "{} missing weight input", e.op.name);
            }
        }
    }

    #[test]
    fn backward_factor_is_two_for_weighted_ops() {
        let lin = Operator::linear("fc", 8, 16, 32);
        let bwd = backward_of(&lin);
        assert_eq!(bwd.flops, 2.0 * lin.flops);
        let relu = Operator::activation("relu", &TensorShape::from([8, 16]));
        assert_eq!(backward_of(&relu).flops, relu.flops);
    }

    #[test]
    fn optimizer_entries_only_for_parameterized_layers() {
        let model = ModelId::Vgg11.build(4);
        let t = Tracer::new(GpuModel::A40).trace(&model);
        let opt_layers: Vec<usize> = t
            .entries()
            .iter()
            .filter(|e| e.phase == Phase::Optimizer)
            .map(|e| e.layer)
            .collect();
        for (li, layer) in model.layers().iter().enumerate() {
            assert_eq!(
                opt_layers.contains(&li),
                layer.param_bytes() > 0,
                "layer {} ({})",
                li,
                layer.name
            );
        }
    }

    #[test]
    fn trace_is_deterministic() {
        let a = sample();
        let b = sample();
        assert_eq!(a, b);
    }

    #[test]
    fn inference_trace_is_forward_only() {
        let model = ModelId::ResNet18.build(8);
        let t = Tracer::new(GpuModel::A100).trace_inference(&model);
        assert!(t.entries().iter().all(|e| e.phase == Phase::Forward));
        assert_eq!(t.gradient_bytes(), 0, "no gradients in inference");
        // Inference forward times match the training trace's forward.
        let train = Tracer::new(GpuModel::A100).trace(&model);
        assert!((t.total_time_s() - train.phase_time_s(Phase::Forward)).abs() < 1e-12);
    }

    #[test]
    fn transformer_traces_build() {
        let t = Tracer::new(GpuModel::H100).trace(&ModelId::Gpt2.build(4));
        assert!(t.total_time_s() > 0.0);
        assert!(t.entries().len() > 100);
    }
}
