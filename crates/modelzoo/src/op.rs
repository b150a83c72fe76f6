//! Operators: the unit of work in a trace.

use std::borrow::Cow;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::shapes::{DType, TensorShape};

/// The class of a GPU operator.
///
/// Li's Model (the operator performance model) fits one linear regression
/// per operator class, so this enum is the feature-space partition used
/// throughout the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum OpClass {
    /// 2-D convolution.
    Conv2d,
    /// Fully connected / linear layer (GEMM with a weight matrix).
    Linear,
    /// Batched matrix multiply with no weights (attention score/context).
    MatMul,
    /// Batch normalization.
    BatchNorm,
    /// Layer normalization (incl. RMSNorm).
    LayerNorm,
    /// Elementwise activation (ReLU, GELU, SiLU…).
    Activation,
    /// Elementwise arithmetic (residual add, scale, mask…).
    Elementwise,
    /// Max/avg pooling.
    Pool,
    /// Softmax.
    Softmax,
    /// Embedding table lookup.
    Embedding,
    /// Loss computation (cross-entropy).
    Loss,
    /// Optimizer step (SGD weight update).
    Optimizer,
}

impl OpClass {
    /// All classes, in a stable order (used to build per-class models).
    pub const ALL: [OpClass; 12] = [
        OpClass::Conv2d,
        OpClass::Linear,
        OpClass::MatMul,
        OpClass::BatchNorm,
        OpClass::LayerNorm,
        OpClass::Activation,
        OpClass::Elementwise,
        OpClass::Pool,
        OpClass::Softmax,
        OpClass::Embedding,
        OpClass::Loss,
        OpClass::Optimizer,
    ];

    /// True for classes whose cost is dominated by arithmetic (GEMM-like);
    /// false for memory-bound classes. The oracle GPU model uses this to
    /// pick the roofline regime.
    pub const fn is_compute_bound(self) -> bool {
        matches!(self, OpClass::Conv2d | OpClass::Linear | OpClass::MatMul)
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpClass::Conv2d => "conv2d",
            OpClass::Linear => "linear",
            OpClass::MatMul => "matmul",
            OpClass::BatchNorm => "batch_norm",
            OpClass::LayerNorm => "layer_norm",
            OpClass::Activation => "activation",
            OpClass::Elementwise => "elementwise",
            OpClass::Pool => "pool",
            OpClass::Softmax => "softmax",
            OpClass::Embedding => "embedding",
            OpClass::Loss => "loss",
            OpClass::Optimizer => "optimizer",
        };
        f.write_str(s)
    }
}

/// One forward-pass operator with its shape-derived cost features.
///
/// An `Operator` is passive data in the C-struct spirit: the zoo computes
/// the cost features (FLOPs, bytes in/out, weight bytes) once from the
/// architecture definition, and every downstream consumer (tracer, Li's
/// Model, extrapolator) reads them directly.
///
/// # Example
///
/// ```rust
/// use triosim_modelzoo::{Operator, OpClass, TensorShape};
///
/// // A 128x1024 -> 128x1000 classifier head.
/// let op = Operator::linear("fc", 128, 1024, 1000);
/// assert_eq!(op.class, OpClass::Linear);
/// assert_eq!(op.flops, 2.0 * 128.0 * 1024.0 * 1000.0);
/// assert_eq!(op.output, TensorShape::from([128, 1000]));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Operator {
    /// Human-readable operator name, e.g. `layer3.0.conv2`.
    pub name: String,
    /// Operator class (regression-model partition).
    pub class: OpClass,
    /// Forward floating-point operations (multiply-accumulate = 2 FLOPs).
    pub flops: f64,
    /// Bytes of activation input read.
    pub bytes_in: u64,
    /// Bytes of activation output written.
    pub bytes_out: u64,
    /// Bytes of parameters (weights) read; also the gradient volume this
    /// operator contributes to AllReduce in data parallelism.
    pub weight_bytes: u64,
    /// Output activation shape.
    pub output: TensorShape,
}

impl Operator {
    const DT: DType = DType::F32;

    /// A 2-D convolution operator.
    ///
    /// `input` is `[n, c_in, h, w]`; stride/padding are folded into the
    /// caller-provided output spatial size.
    pub fn conv2d(
        name: impl Into<String>,
        input: &TensorShape,
        c_out: u64,
        kernel: u64,
        h_out: u64,
        w_out: u64,
    ) -> Self {
        let dims = input.dims();
        assert_eq!(dims.len(), 4, "conv2d input must be NCHW");
        let (n, c_in) = (dims[0], dims[1]);
        let output = TensorShape::from([n, c_out, h_out, w_out]);
        let weight = c_out * c_in * kernel * kernel;
        Operator {
            name: name.into(),
            class: OpClass::Conv2d,
            flops: 2.0 * (weight * n * h_out * w_out) as f64,
            bytes_in: input.bytes(Self::DT),
            bytes_out: output.bytes(Self::DT),
            weight_bytes: (weight + c_out) * Self::DT.size_bytes(),
            output,
        }
    }

    /// A fully connected layer over `[n, in_features]`.
    pub fn linear(name: impl Into<String>, n: u64, in_features: u64, out_features: u64) -> Self {
        let output = TensorShape::from([n, out_features]);
        Operator {
            name: name.into(),
            class: OpClass::Linear,
            flops: 2.0 * (n * in_features * out_features) as f64,
            bytes_in: n * in_features * Self::DT.size_bytes(),
            bytes_out: output.bytes(Self::DT),
            weight_bytes: (in_features * out_features + out_features) * Self::DT.size_bytes(),
            output,
        }
    }

    /// A weightless batched matmul `[b, m, k] x [b, k, p] -> [b, m, p]`
    /// (attention scores and context products).
    pub fn matmul(name: impl Into<String>, b: u64, m: u64, k: u64, p: u64) -> Self {
        let output = TensorShape::from([b, m, p]);
        Operator {
            name: name.into(),
            class: OpClass::MatMul,
            flops: 2.0 * (b * m * k * p) as f64,
            bytes_in: (b * m * k + b * k * p) * Self::DT.size_bytes(),
            bytes_out: output.bytes(Self::DT),
            weight_bytes: 0,
            output,
        }
    }

    /// Batch normalization over an NCHW activation.
    pub fn batch_norm(name: impl Into<String>, input: &TensorShape) -> Self {
        let channels = input.dims().get(1).copied().unwrap_or(1);
        Operator {
            name: name.into(),
            class: OpClass::BatchNorm,
            flops: 5.0 * input.numel() as f64,
            bytes_in: input.bytes(Self::DT),
            bytes_out: input.bytes(Self::DT),
            weight_bytes: 2 * channels * Self::DT.size_bytes(),
            output: input.clone(),
        }
    }

    /// Layer normalization (or RMSNorm) over the last dimension.
    pub fn layer_norm(name: impl Into<String>, input: &TensorShape) -> Self {
        let d = *input.dims().last().expect("layer_norm needs rank >= 1");
        Operator {
            name: name.into(),
            class: OpClass::LayerNorm,
            flops: 8.0 * input.numel() as f64,
            bytes_in: input.bytes(Self::DT),
            bytes_out: input.bytes(Self::DT),
            weight_bytes: 2 * d * Self::DT.size_bytes(),
            output: input.clone(),
        }
    }

    /// Elementwise activation function (ReLU/GELU/SiLU).
    pub fn activation(name: impl Into<String>, input: &TensorShape) -> Self {
        Operator {
            name: name.into(),
            class: OpClass::Activation,
            flops: input.numel() as f64,
            bytes_in: input.bytes(Self::DT),
            bytes_out: input.bytes(Self::DT),
            weight_bytes: 0,
            output: input.clone(),
        }
    }

    /// Elementwise binary arithmetic (residual add etc.); both operands
    /// share `input`'s shape.
    pub fn elementwise(name: impl Into<String>, input: &TensorShape) -> Self {
        Operator {
            name: name.into(),
            class: OpClass::Elementwise,
            flops: input.numel() as f64,
            bytes_in: 2 * input.bytes(Self::DT),
            bytes_out: input.bytes(Self::DT),
            weight_bytes: 0,
            output: input.clone(),
        }
    }

    /// Max or average pooling with a `kernel x kernel` window producing
    /// the given output spatial size.
    pub fn pool(
        name: impl Into<String>,
        input: &TensorShape,
        kernel: u64,
        h_out: u64,
        w_out: u64,
    ) -> Self {
        let dims = input.dims();
        assert_eq!(dims.len(), 4, "pool input must be NCHW");
        let output = TensorShape::from([dims[0], dims[1], h_out, w_out]);
        Operator {
            name: name.into(),
            class: OpClass::Pool,
            flops: (output.numel() * kernel * kernel) as f64,
            bytes_in: input.bytes(Self::DT),
            bytes_out: output.bytes(Self::DT),
            weight_bytes: 0,
            output,
        }
    }

    /// Softmax over the last dimension.
    pub fn softmax(name: impl Into<String>, input: &TensorShape) -> Self {
        Operator {
            name: name.into(),
            class: OpClass::Softmax,
            flops: 5.0 * input.numel() as f64,
            bytes_in: input.bytes(Self::DT),
            bytes_out: input.bytes(Self::DT),
            weight_bytes: 0,
            output: input.clone(),
        }
    }

    /// Embedding lookup: `[n, seq]` token ids into a `vocab x d` table.
    pub fn embedding(name: impl Into<String>, n: u64, seq: u64, vocab: u64, d: u64) -> Self {
        let output = TensorShape::from([n, seq, d]);
        Operator {
            name: name.into(),
            class: OpClass::Embedding,
            flops: output.numel() as f64,
            bytes_in: n * seq * DType::I64.size_bytes(),
            bytes_out: output.bytes(Self::DT),
            weight_bytes: vocab * d * Self::DT.size_bytes(),
            output,
        }
    }

    /// Cross-entropy loss over `[n, classes]` logits.
    pub fn loss(name: impl Into<String>, n: u64, classes: u64) -> Self {
        let input = TensorShape::from([n, classes]);
        Operator {
            name: name.into(),
            class: OpClass::Loss,
            flops: 6.0 * input.numel() as f64,
            bytes_in: input.bytes(Self::DT),
            bytes_out: n * Self::DT.size_bytes(),
            output: TensorShape::from([n]),
            weight_bytes: 0,
        }
    }

    /// SGD parameter update touching `param_bytes` of weights.
    pub fn optimizer(name: impl Into<String>, param_bytes: u64) -> Self {
        let elems = (param_bytes / Self::DT.size_bytes()).max(1);
        Operator {
            name: name.into(),
            class: OpClass::Optimizer,
            flops: 2.0 * elems as f64,
            // Reads weight + gradient, writes weight.
            bytes_in: 2 * param_bytes,
            bytes_out: param_bytes,
            weight_bytes: 0,
            output: TensorShape::from([elems]),
        }
    }

    /// Number of parameters (elements, not bytes) this operator owns.
    pub fn param_count(&self) -> u64 {
        self.weight_bytes / Self::DT.size_bytes()
    }

    /// Total bytes this operator touches (activations + weights), the
    /// memory-side feature of Li's Model.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_in + self.bytes_out + self.weight_bytes
    }

    /// Returns a rescaled copy of this operator for a different batch size.
    ///
    /// All activation-related quantities (FLOPs, activation bytes) scale
    /// linearly with the batch dimension; weight bytes do not. This is the
    /// shape-level transformation behind the paper's "change the batch size
    /// without re-tracing" capability.
    ///
    /// # Panics
    ///
    /// Panics if `old_batch` or `new_batch` is zero.
    pub fn with_batch_scaled(&self, old_batch: u64, new_batch: u64) -> Operator {
        self.at_batch(old_batch, new_batch).into_owned()
    }

    /// [`with_batch_scaled`](Self::with_batch_scaled), borrowing `self`
    /// instead of copying it when the rescale leaves it unchanged (same
    /// batch, or an optimizer step, whose work is per parameter).
    ///
    /// # Panics
    ///
    /// Panics if `old_batch` or `new_batch` is zero.
    pub fn at_batch(&self, old_batch: u64, new_batch: u64) -> Cow<'_, Operator> {
        assert!(
            old_batch > 0 && new_batch > 0,
            "batch sizes must be positive"
        );
        if old_batch == new_batch || self.class == OpClass::Optimizer {
            return Cow::Borrowed(self);
        }
        let ratio = new_batch as f64 / old_batch as f64;
        let scale_bytes = |b: u64| -> u64 { (b as f64 * ratio).round() as u64 };
        Cow::Owned(Operator {
            name: self.name.clone(),
            class: self.class,
            flops: self.flops * ratio,
            bytes_in: scale_bytes(self.bytes_in),
            bytes_out: scale_bytes(self.bytes_out),
            weight_bytes: self.weight_bytes,
            output: self
                .output
                .with_batch(((self.output.batch() as f64) * ratio).round().max(1.0) as u64),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_flops_formula() {
        // 3x3 conv, 64 -> 128 channels, 56x56 output, batch 2.
        let input = TensorShape::from([2, 64, 56, 56]);
        let op = Operator::conv2d("c", &input, 128, 3, 56, 56);
        let expected = 2.0 * (128u64 * 64 * 9 * 2 * 56 * 56) as f64;
        assert_eq!(op.flops, expected);
        assert_eq!(op.output, TensorShape::from([2, 128, 56, 56]));
        // weight = 128*64*3*3 + bias 128
        assert_eq!(op.param_count(), 128 * 64 * 9 + 128);
    }

    #[test]
    fn linear_weights_include_bias() {
        let op = Operator::linear("fc", 4, 512, 1000);
        assert_eq!(op.param_count(), 512 * 1000 + 1000);
        assert_eq!(op.bytes_out, 4 * 1000 * 4);
    }

    #[test]
    fn matmul_has_no_weights() {
        let op = Operator::matmul("qk", 12, 128, 64, 128);
        assert_eq!(op.weight_bytes, 0);
        assert_eq!(op.flops, 2.0 * (12u64 * 128 * 64 * 128) as f64);
    }

    #[test]
    fn embedding_reads_token_ids() {
        let op = Operator::embedding("wte", 8, 128, 50257, 768);
        assert_eq!(op.bytes_in, 8 * 128 * 8);
        assert_eq!(op.param_count(), 50257 * 768);
        assert_eq!(op.output, TensorShape::from([8, 128, 768]));
    }

    #[test]
    fn batch_rescaling_scales_activations_not_weights() {
        let input = TensorShape::from([128, 64, 28, 28]);
        let op = Operator::conv2d("c", &input, 64, 3, 28, 28);
        let scaled = op.with_batch_scaled(128, 256);
        assert_eq!(scaled.flops, op.flops * 2.0);
        assert_eq!(scaled.bytes_in, op.bytes_in * 2);
        assert_eq!(scaled.weight_bytes, op.weight_bytes);
        assert_eq!(scaled.output.batch(), 256);
    }

    #[test]
    fn optimizer_not_batch_scaled() {
        let op = Operator::optimizer("sgd", 1024);
        let scaled = op.with_batch_scaled(1, 64);
        assert_eq!(scaled, op);
    }

    #[test]
    fn compute_bound_partition() {
        assert!(OpClass::Conv2d.is_compute_bound());
        assert!(OpClass::MatMul.is_compute_bound());
        assert!(!OpClass::BatchNorm.is_compute_bound());
        assert!(!OpClass::Pool.is_compute_bound());
    }

    #[test]
    fn all_classes_listed_once() {
        let mut v = OpClass::ALL.to_vec();
        v.sort();
        v.dedup();
        assert_eq!(v.len(), OpClass::ALL.len());
    }
}
