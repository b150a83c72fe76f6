//! DNN model zoo for TrioSim-RS.
//!
//! The TrioSim paper traces real PyTorch models (ResNet, DenseNet, VGG,
//! GPT-2, BERT, T5, FLAN-T5, Llama) on physical GPUs. This crate replaces
//! the *models themselves*: every workload from the paper's evaluation is
//! expressed as an operator graph with exact tensor shapes, parameter
//! counts, and FLOP totals matching the published architectures. The
//! `triosim-trace` crate walks these graphs to produce operator-level
//! traces in the same format the paper's PyTorch tracer emits.
//!
//! The graph is deliberately *sequential at layer granularity*: pipeline
//! parallelism assigns whole layers to GPUs and tensor parallelism splits
//! individual layers, so a chain of [`Layer`]s — each containing its
//! internal forward operators — is exactly the structure the simulator
//! needs. Residual/branchy dataflow stays *inside* a layer.
//!
//! # Example
//!
//! ```rust
//! use triosim_modelzoo::{ModelId, ModelGraph};
//!
//! let model: ModelGraph = ModelId::ResNet50.build(128);
//! assert_eq!(model.batch(), 128);
//! // ResNet-50 has ~25.6 M parameters.
//! let params = model.param_count();
//! assert!((25_000_000..26_200_000).contains(&params));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// Part of the hardened error path: `TensorShape` parses external trace
// files, so production code in this crate must not unwrap. Tests are
// exempt.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod cnn;
mod graph;
mod op;
mod shapes;
mod synthetic;
mod transformer;
mod zoo;

pub use cnn::{densenet, resnet, vgg, DenseNetVariant, ResNetVariant, VggVariant};
pub use graph::{GraphBuilder, Layer, LayerKind, ModelGraph};
pub use op::{OpClass, Operator};
pub use shapes::{DType, TensorShape};
pub use synthetic::{random_cnn, random_transformer};
pub use transformer::{
    bert_base, flan_t5_small, gpt2, llama_3_2_1b, t5_small, transformer, TransformerConfig,
};
pub use zoo::ModelId;
