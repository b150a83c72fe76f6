//! Figures 6–10: TrioSim's prediction against the reference ground truth,
//! one table per row of [`VALIDATION`].

use serde::Value;
use triosim::{estimate_memory, Parallelism, Platform};
use triosim_modelzoo::ModelId;
use triosim_trace::GpuModel::{self, A100, A40};

use self::GlobalBatch::{Fixed, PerGpu, Traced};

use crate::{error_pct, num, paper_trace, predict_and_truth, text, trace_batch, Measured};

/// How a validation row sets the global batch.
#[derive(Debug, Clone, Copy)]
pub enum GlobalBatch {
    /// The traced batch on every GPU (weak scaling).
    PerGpu,
    /// The traced batch, split across the GPUs.
    Traced,
    /// A fixed batch.
    Fixed(u64),
}

/// One table of a validation figure: every model of a set, traced on one
/// GPU and predicted on one platform.
#[derive(Debug)]
pub struct Validation {
    /// The figure it belongs to.
    pub figure: &'static str,
    /// Its table's name within the figure.
    pub table: &'static str,
    /// The models, in table order.
    pub models: &'static [ModelId],
    /// The GPU each model is traced on, at the paper's batch.
    pub gpu: GpuModel,
    /// The platform predicted, in the CLI's syntax (`p1`, `p2:4`,
    /// `pcie:A40:1`).
    pub platform: &'static str,
    /// How the workload is split.
    pub parallelism: Parallelism,
    /// The global batch of the predicted run.
    pub batch: GlobalBatch,
    /// Leave out the models whose footprint at the global batch does not
    /// fit the GPU, as the paper does where "other models are out of
    /// memory" (Figure 6).
    pub drop_oom: bool,
    /// The paper's average error, in percent.
    pub paper_pct: f64,
}

const DP: Parallelism = Parallelism::DataParallel { overlap: false };
const DDP: Parallelism = Parallelism::DataParallel { overlap: true };
const TP: Parallelism = Parallelism::TensorParallel;

/// The models the paper could run through torch.distributed pipelining
/// without code changes (Figure 10).
const PIPELINE_MODELS: [ModelId; 12] = [
    ModelId::ResNet18,
    ModelId::ResNet34,
    ModelId::ResNet50,
    ModelId::ResNet101,
    ModelId::ResNet152,
    ModelId::DenseNet121,
    ModelId::DenseNet161,
    ModelId::DenseNet169,
    ModelId::DenseNet201,
    ModelId::Vgg16,
    ModelId::Gpt2,
    ModelId::BertBase,
];

/// A row over all 18 models that keeps every one.
const fn row(
    figure: &'static str,
    table: &'static str,
    gpu: GpuModel,
    platform: &'static str,
    parallelism: Parallelism,
    batch: GlobalBatch,
    paper_pct: f64,
) -> Validation {
    Validation {
        figure,
        table,
        models: &ModelId::ALL,
        gpu,
        platform,
        parallelism,
        batch,
        drop_oom: false,
        paper_pct,
    }
}

/// A Figure 10 row: GPipe with `chunks` micro-batches.
const fn gpipe(table: &'static str, platform: &'static str, chunks: u64, paper: f64) -> Validation {
    let parallelism = Parallelism::Pipeline { chunks };
    Validation {
        models: &PIPELINE_MODELS,
        ..row("fig10", table, A100, platform, parallelism, Traced, paper)
    }
}

/// Every table of Figures 6–10, in the paper's order. Figure 6 drops the
/// models that do not fit at batch 256.
pub const VALIDATION: [Validation; 13] = [
    Validation {
        drop_oom: true,
        ..row("fig06", "a40", A40, "pcie:A40:1", DP, Fixed(256), 1.10)
    },
    Validation {
        drop_oom: true,
        ..row("fig06", "a100", A100, "pcie:A100:1", DP, Fixed(256), 3.25)
    },
    row("fig07", "p1_standard_dp", A40, "p1", DP, PerGpu, 7.39),
    row("fig08", "P1", A40, "p1", DDP, PerGpu, 2.91),
    row("fig08", "P2", A100, "p2:4", DDP, PerGpu, 2.73),
    row("fig09", "P1", A40, "p1", TP, Traced, 4.54),
    row("fig09", "P2", A100, "p2:4", TP, Traced, 11.24),
    gpipe("gpipe_2gpu_1chunk", "p2:2", 1, 6.82),
    gpipe("gpipe_2gpu_2chunk", "p2:2", 2, 6.58),
    gpipe("gpipe_2gpu_4chunk", "p2:2", 4, 15.10),
    gpipe("gpipe_4gpu_1chunk", "p2:4", 1, 5.14),
    gpipe("gpipe_4gpu_2chunk", "p2:4", 2, 8.96),
    gpipe("gpipe_4gpu_4chunk", "p2:4", 4, 8.18),
];

/// Measures the rows of `figure`. Each row gives a `(label, truth_s,
/// pred_s, error_pct)` table and the scalars `<table>_avg_error_pct`,
/// `<table>_paper_avg_error_pct` and `<table>_gpus`, and
/// `<table>_oom_excluded` where it drops models.
pub(crate) fn measure(figure: &str) -> Measured {
    let mut m = Measured::default();
    for row in VALIDATION.iter().filter(|row| row.figure == figure) {
        measure_row(row, &mut m);
    }
    m
}

/// Measures one row into `m`, as [`measure`] does for each row of a figure.
pub(crate) fn measure_row(row: &Validation, m: &mut Measured) {
    let platform: Platform = row.platform.parse().expect("validation platforms parse");
    let gpus = platform.gpu_count();
    let (mut rows, mut excluded, mut sum) = (Vec::new(), Vec::new(), 0.0);
    for &model in row.models {
        let trace = paper_trace(model, row.gpu);
        let batch = match row.batch {
            PerGpu => trace_batch(model) * gpus as u64,
            Traced => trace_batch(model),
            Fixed(batch) => batch,
        };
        if row.drop_oom
            && !estimate_memory(&trace, row.parallelism, gpus, batch)
                .fits(row.gpu.spec().mem_capacity)
        {
            excluded.push(text(model.figure_label()));
            continue;
        }
        let (pred, truth) = predict_and_truth(&trace, &platform, row.parallelism, batch);
        let (pred_s, truth_s) = (pred.total_time_s(), truth.total_time_s());
        let error = error_pct(pred_s, truth_s);
        sum += error;
        rows.push(vec![
            text(model.figure_label()),
            num(truth_s),
            num(pred_s),
            num(error),
        ]);
    }
    let t = row.table;
    m.scalar(format!("{t}_avg_error_pct"), num(sum / rows.len() as f64));
    m.scalar(format!("{t}_paper_avg_error_pct"), num(row.paper_pct));
    m.scalar(format!("{t}_gpus"), Value::UInt(gpus as u64));
    if row.drop_oom {
        m.scalar(format!("{t}_oom_excluded"), Value::Array(excluded));
    }
    m.table(t, "label, truth_s, pred_s, error_pct", rows);
}
