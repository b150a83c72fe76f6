//! The multi-GPU trace extrapolator (§4.3 of the paper).
//!
//! Converts a single-GPU trace into a multi-GPU execution plan according
//! to the parallelism strategy, inserting data-movement operators (host
//! input transfers, pipeline activation sends) and NCCL-style collective
//! communication (ring AllReduce / AllGather) where tensors are not local
//! to the GPU that needs them.
//!
//! The original extrapolates lazily while simulating; we build the full
//! task DAG eagerly — semantically identical for these workloads (the
//! plan does not depend on simulated times), and it keeps the executor a
//! clean, separately testable component.

use std::borrow::Cow;

use triosim_collectives::{
    halving_doubling_all_reduce, ring_all_gather, ring_all_reduce, ring_all_reduce_unsegmented,
    tree_all_reduce, CollectiveSchedule, GradientBucketizer,
};
use triosim_des::TimeSpan;
use triosim_modelzoo::{OpClass, Operator};
use triosim_trace::Trace;

use crate::compute::ComputeModel;
use crate::layers::{summarize_layers, LayerSummary};
use crate::parallelism::{CollectiveStyle, Parallelism};
use crate::platform::Platform;
use crate::taskgraph::{CollectiveMeta, Piece, Pieces, TaskGraph, TaskId};

/// Extrapolates a single-GPU `trace` onto `platform` under `parallelism`.
///
/// `global_batch` is the total mini-batch per iteration:
/// * data parallelism — each GPU processes `global_batch / gpus` samples;
/// * tensor parallelism — every GPU participates in the same
///   `global_batch` samples;
/// * pipeline parallelism — the mini-batch is `global_batch`, split into
///   the configured number of micro-batches.
///
/// `compute` decides operator times (trace pass-through, Li's-Model
/// rescale, cross-GPU, or the reference oracle).
///
/// # Panics
///
/// Panics if `global_batch` is zero or not compatible with the GPU count
/// / chunk count (each share must be at least one sample).
pub fn extrapolate(
    trace: &Trace,
    platform: &Platform,
    parallelism: Parallelism,
    global_batch: u64,
    compute: &ComputeModel,
) -> TaskGraph {
    extrapolate_with_style(
        trace,
        platform,
        parallelism,
        global_batch,
        compute,
        CollectiveStyle::Segmented,
    )
}

/// [`extrapolate`] with an explicit AllReduce style (the wafer-scale case
/// study uses [`CollectiveStyle::Unsegmented`]).
///
/// # Panics
///
/// Same conditions as [`extrapolate`].
pub fn extrapolate_with_style(
    trace: &Trace,
    platform: &Platform,
    parallelism: Parallelism,
    global_batch: u64,
    compute: &ComputeModel,
    style: CollectiveStyle,
) -> TaskGraph {
    assert!(global_batch > 0, "global batch must be positive");
    let layers = summarize_layers(trace);
    let ex = Extrapolator {
        trace,
        platform,
        compute,
        layers,
        style,
    };
    match parallelism {
        Parallelism::DataParallel { overlap } => ex.data_parallel(global_batch, overlap),
        Parallelism::TensorParallel => ex.tensor_parallel(global_batch),
        Parallelism::Pipeline { chunks } => ex.pipeline(global_batch, chunks),
        Parallelism::Hybrid { dp_groups, chunks } => ex.hybrid(global_batch, dp_groups, chunks),
    }
}

struct Extrapolator<'a> {
    trace: &'a Trace,
    platform: &'a Platform,
    compute: &'a ComputeModel,
    layers: Vec<LayerSummary>,
    style: CollectiveStyle,
}

impl<'a> Extrapolator<'a> {
    fn gpus(&self) -> usize {
        self.platform.gpu_count()
    }

    fn all_reduce(&self, n: usize, bytes: u64) -> CollectiveSchedule {
        match self.style {
            CollectiveStyle::Segmented => ring_all_reduce(n, bytes),
            CollectiveStyle::Unsegmented => ring_all_reduce_unsegmented(n, bytes),
            CollectiveStyle::Tree => tree_all_reduce(n, bytes),
            CollectiveStyle::HalvingDoubling if n.is_power_of_two() => {
                halving_doubling_all_reduce(n, bytes)
            }
            CollectiveStyle::HalvingDoubling => ring_all_reduce(n, bytes),
        }
    }

    /// Bytes of the input batch the host ships to a GPU, at `batch`
    /// samples.
    fn input_bytes(&self, batch: u64) -> u64 {
        let first = &self.trace.entries()[0].op;
        first.at_batch(self.trace.batch(), batch.max(1)).bytes_in
    }

    /// Every trace entry's operator at `batch` samples, indexed like the
    /// trace: each entry is rescaled once however many GPUs or
    /// micro-batches run it, and borrowed where rescaling leaves it as
    /// it is.
    fn ops_at(&self, batch: u64) -> Vec<Cow<'a, Operator>> {
        let from = self.trace.batch();
        let entries = self.trace.entries();
        entries.iter().map(|e| e.op.at_batch(from, batch)).collect()
    }

    /// Appends a compute task running trace entry `ei`, shaped as `to`
    /// in this configuration, on `gpu` after `dep`. The operator is
    /// timed per GPU: the reference policy's board skew and noise depend
    /// on the GPU index.
    fn compute_task(
        &self,
        g: &mut TaskGraph,
        ei: usize,
        to: &Operator,
        gpu: usize,
        dep: TaskId,
    ) -> TaskId {
        let entry = &self.trace.entries()[ei];
        let s = self.compute.op_time_s(entry.time_s, &entry.op, to, gpu);
        let label = [
            Piece::Str(&entry.op.name),
            Piece::Str("@g"),
            Piece::Int(gpu as u64),
        ];
        g.compute_in_layer(
            Pieces(&label),
            gpu,
            TimeSpan::from_seconds(s.max(0.0)),
            [dep],
            entry.layer,
        )
    }

    /// Emits a collective schedule as transfer tasks with per-step
    /// barriers. `deps(r)` gates rank `r`'s first-step sends; returns the
    /// final barrier. Ranks map to GPUs 0..n in order.
    fn collective(
        &self,
        g: &mut TaskGraph,
        label: &str,
        schedule: &CollectiveSchedule,
        deps: impl Fn(usize) -> TaskId,
    ) -> TaskId {
        self.collective_mapped(g, label, schedule, deps, |r| r)
    }

    /// [`collective`](Self::collective) with an explicit rank-to-GPU map
    /// (hybrid parallelism reduces gradients across the GPUs that hold
    /// the same pipeline stage in different data-parallel groups).
    fn collective_mapped(
        &self,
        g: &mut TaskGraph,
        label: &str,
        schedule: &CollectiveSchedule,
        deps: impl Fn(usize) -> TaskId,
        gpu_of: impl Fn(usize) -> usize,
    ) -> TaskId {
        let mut prev_step: Option<TaskId> = None;
        let mut first_send: Option<TaskId> = None;
        for (si, step) in schedule.steps().iter().enumerate() {
            let si = si as u64;
            // A step's sends are consecutive tasks; its barrier joins them.
            let sends = g.len()..g.len() + step.len();
            for t in step {
                let dep = prev_step.unwrap_or_else(|| deps(t.src.0));
                let src = self.platform.gpu_node(gpu_of(t.src.0));
                let dst = self.platform.gpu_node(gpu_of(t.dst.0));
                let name = [
                    Piece::Str(label),
                    Piece::Str(".s"),
                    Piece::Int(si),
                    Piece::Str(".rank"),
                    Piece::Int(t.src.0 as u64),
                    Piece::Str("->rank"),
                    Piece::Int(t.dst.0 as u64),
                ];
                let id = g.transfer(Pieces(&name), src, dst, t.bytes, [dep]);
                first_send.get_or_insert(id);
            }
            let name = [
                Piece::Str(label),
                Piece::Str(".s"),
                Piece::Int(si),
                Piece::Str(".done"),
            ];
            prev_step = Some(g.barrier(Pieces(&name), sends.map(TaskId)));
        }
        let done = prev_step.expect("collective schedules have at least one step");
        g.register_collective(CollectiveMeta {
            label: label.to_string(),
            algorithm: schedule.kind().name(),
            payload_bytes: schedule.payload_bytes(),
            participants: schedule.ranks(),
            steps: schedule.step_count(),
            first: first_send.unwrap_or(done),
            last: done,
        });
        done
    }

    // ---------------- data parallelism ----------------

    fn data_parallel(&self, global_batch: u64, overlap: bool) -> TaskGraph {
        let n = self.gpus();
        let per_gpu = global_batch / n as u64;
        assert!(
            per_gpu >= 1,
            "global batch {global_batch} too small for {n} GPUs"
        );
        let mut g = TaskGraph::new(n);
        let host = self.platform.host_node();

        // Host ships each GPU its input slice.
        let inputs: Vec<TaskId> = (0..n)
            .map(|gpu| {
                g.transfer(
                    format_args!("h2d.input@g{gpu}"),
                    host,
                    self.platform.gpu_node(gpu),
                    self.input_bytes(per_gpu),
                    [],
                )
            })
            .collect();

        // Forward + backward chains, replicated per GPU at the per-GPU
        // batch size. Track where each layer's backward finishes.
        let ops = self.ops_at(per_gpu);
        let mut bwd_done: Vec<Vec<Option<TaskId>>> = vec![vec![None; self.layers.len()]; n];
        let mut cursors: Vec<TaskId> = inputs;
        for gpu in 0..n {
            let mut cursor = cursors[gpu];
            for l in &self.layers {
                for &ei in &l.fwd {
                    cursor = self.compute_task(&mut g, ei, &ops[ei], gpu, cursor);
                }
            }
            for l in self.layers.iter().rev() {
                for &ei in &l.bwd {
                    cursor = self.compute_task(&mut g, ei, &ops[ei], gpu, cursor);
                }
                bwd_done[gpu][l.index] = Some(cursor);
            }
            cursors[gpu] = cursor;
        }

        // Gradient synchronization. Inference traces (no backward ops)
        // produce no gradients: replicas are independent.
        let is_inference = self.layers.iter().all(|l| l.bwd.is_empty());
        let total_grads: u64 = self.layers.iter().map(|l| l.param_bytes).sum();
        let sync_done = if n == 1 || is_inference || total_grads == 0 {
            // Single GPU or inference: nothing to synchronize.
            g.barrier("no-sync", cursors)
        } else if overlap {
            // DDP: bucketed AllReduce, each kicked off as soon as the
            // bucket's last layer finishes backward; buckets serialize on
            // the communicator.
            let grad_sizes: Vec<u64> = self.layers.iter().map(|l| l.param_bytes).collect();
            let buckets = GradientBucketizer::default().bucketize(&grad_sizes);
            let mut last = None;
            for (bi, bucket) in buckets.iter().enumerate() {
                let ready_layer = bucket.ready_after_layer();
                let ready =
                    (0..n).map(|gpu| bwd_done[gpu][ready_layer].expect("layer has backward"));
                let gate = g.barrier(format_args!("ddp.bucket{bi}.ready"), ready.chain(last));
                let sched = self.all_reduce(n, bucket.bytes);
                last = Some(self.collective(
                    &mut g,
                    &format!("ddp.bucket{bi}.allreduce"),
                    &sched,
                    |_| gate,
                ));
            }
            last.unwrap_or_else(|| g.barrier("no-grads", cursors))
        } else {
            // Standard DataParallel: one AllReduce after the full
            // backward pass of every replica.
            let gate = g.barrier("dp.bwd.done", cursors);
            let sched = self.all_reduce(n, total_grads);
            self.collective(&mut g, "dp.allreduce", &sched, |_| gate)
        };

        // Optimizer step on every replica.
        for gpu in 0..n {
            let mut cursor = sync_done;
            for l in &self.layers {
                for &ei in &l.opt {
                    cursor = self.compute_task(&mut g, ei, &ops[ei], gpu, cursor);
                }
            }
        }
        g
    }

    // ---------------- tensor parallelism ----------------

    fn tensor_parallel(&self, global_batch: u64) -> TaskGraph {
        let n = self.gpus();
        assert!(n >= 2, "tensor parallelism needs at least 2 GPUs");
        let mut g = TaskGraph::new(n);
        let host = self.platform.host_node();

        // Every GPU sees the full batch: the host broadcasts the input.
        let inputs: Vec<TaskId> = (0..n)
            .map(|gpu| {
                g.transfer(
                    format_args!("h2d.input@g{gpu}"),
                    host,
                    self.platform.gpu_node(gpu),
                    self.input_bytes(global_batch),
                    [],
                )
            })
            .collect();

        let mut cursors = inputs;
        let ops = self.tp_ops(global_batch, n);

        // Forward: splittable layers shard compute then AllGather the
        // partial outputs; other layers run replicated.
        for l in &self.layers {
            for (gpu, cursor) in cursors.iter_mut().enumerate() {
                for &ei in &l.fwd {
                    *cursor = self.compute_task(&mut g, ei, &ops[ei], gpu, *cursor);
                }
            }
            if l.tp_splittable && l.output_bytes > 0 {
                let out = scaled_bytes(l.output_bytes, self.trace.batch(), global_batch);
                let sched = ring_all_gather(n, out.max(1));
                let label = format!("tp.l{}.allgather", l.index);
                let done = self.collective(&mut g, &label, &sched, |r| cursors[r]);
                cursors.fill(done);
            }
        }

        // Backward: mirrored; splittable layers AllReduce the gradient of
        // their input activation.
        for l in self.layers.iter().rev() {
            for (gpu, cursor) in cursors.iter_mut().enumerate() {
                for &ei in &l.bwd {
                    *cursor = self.compute_task(&mut g, ei, &ops[ei], gpu, *cursor);
                }
            }
            if l.tp_splittable {
                let input_bytes = self
                    .layers
                    .get(l.index.wrapping_sub(1))
                    .map(|p| p.output_bytes)
                    .unwrap_or(0);
                if input_bytes > 0 {
                    let bytes = scaled_bytes(input_bytes, self.trace.batch(), global_batch);
                    let sched = ring_all_reduce(n, bytes.max(1));
                    let label = format!("tp.l{}.grad.allreduce", l.index);
                    let done = self.collective(&mut g, &label, &sched, |r| cursors[r]);
                    cursors.fill(done);
                }
            }
        }

        // Optimizer: each GPU updates its own shard (1/n of splittable
        // layers' parameters, full copy of replicated layers).
        for l in &self.layers {
            for (gpu, cursor) in cursors.iter_mut().enumerate() {
                for &ei in &l.opt {
                    *cursor = self.compute_task(&mut g, ei, &ops[ei], gpu, *cursor);
                }
            }
        }
        g
    }

    /// Every trace entry's operator as one of `n` TP ranks runs it, at
    /// `batch` samples, indexed like the trace. Forward and backward
    /// operators are batch-rescaled, and sharded 1/n if their layer
    /// splits; optimizer operators keep the traced batch and update a
    /// 1/n shard of a split layer's parameters.
    fn tp_ops(&self, batch: u64, n: usize) -> Vec<Cow<'a, Operator>> {
        let entries = self.trace.entries();
        let mut ops: Vec<Cow<'a, Operator>> =
            entries.iter().map(|e| Cow::Borrowed(&e.op)).collect();
        for l in &self.layers {
            for &ei in l.fwd.iter().chain(&l.bwd) {
                let op = &entries[ei].op;
                let rescaled = op.at_batch(self.trace.batch(), batch);
                ops[ei] = if l.tp_splittable && shards_under_tp(op.class) {
                    Cow::Owned(shard_op(&rescaled, n))
                } else {
                    rescaled
                };
            }
            if l.tp_splittable {
                for &ei in &l.opt {
                    ops[ei] = Cow::Owned(scale_op(&entries[ei].op, 1.0 / n as f64));
                }
            }
        }
        ops
    }

    // ---------------- pipeline parallelism ----------------

    fn pipeline(&self, mini_batch: u64, chunks: u64) -> TaskGraph {
        let n = self.gpus();
        let mut g = TaskGraph::new(n);
        let gpu_map: Vec<usize> = (0..n).collect();
        let micro = Self::micro_batch(mini_batch, chunks);
        let ops = self.ops_at(micro);
        let (stages, bwd_done) = self.build_gpipe(&mut g, &ops, micro, chunks, &gpu_map, "pp");

        // Optimizer: each stage updates its own layers once its backward
        // micro-batches are done.
        for (s, stage_layers) in stages.iter().enumerate() {
            let mut cursor = g.barrier(
                format_args!("pp.s{s}.bwd.done"),
                bwd_done[s].iter().copied(),
            );
            for &li in stage_layers {
                for &ei in &self.layers[li].opt {
                    cursor = self.compute_task(&mut g, ei, &ops[ei], s, cursor);
                }
            }
        }
        g
    }

    fn micro_batch(mini_batch: u64, chunks: u64) -> u64 {
        assert!(chunks >= 1, "need at least one micro-batch");
        let micro = mini_batch / chunks;
        assert!(
            micro >= 1,
            "mini-batch {mini_batch} too small for {chunks} chunks"
        );
        micro
    }

    /// Builds one GPipe schedule over `gpu_map` (stage s runs on GPU
    /// `gpu_map[s]`), running `ops` (the trace's operators at `micro`
    /// samples). Returns the stage->layers assignment and, per stage,
    /// the completion tasks of every micro-batch's backward.
    fn build_gpipe(
        &self,
        g: &mut TaskGraph,
        ops: &[Cow<'a, Operator>],
        micro: u64,
        chunks: u64,
        gpu_map: &[usize],
        tag: &str,
    ) -> (Vec<Vec<usize>>, Vec<Vec<TaskId>>) {
        let n = gpu_map.len();
        let stages = self.assign_stages(n);
        let host = self.platform.host_node();

        // Forward: micro-batches flow through the stages.
        // fwd_done[stage][chunk] = completion task. Each stage processes
        // its micro-batches strictly in chunk order (the GPipe schedule):
        // chunk c+1's first operator additionally depends on chunk c's
        // last — otherwise the per-GPU FIFO would round-robin the chunks
        // and delay every downstream stage until the whole stage drained.
        let mut fwd_done: Vec<Vec<Option<TaskId>>> = vec![vec![None; chunks as usize]; n];
        let mut prev_chunk: Vec<Option<TaskId>> = vec![None; n];
        let mut all_fwd: Vec<TaskId> = Vec::new();
        #[allow(clippy::needless_range_loop)]
        for c in 0..chunks as usize {
            let mut carry: Option<TaskId> = None;
            for (s, stage_layers) in stages.iter().enumerate() {
                // Activations (or host input for stage 0) arrive first.
                let arrive = if s == 0 {
                    g.transfer(
                        format_args!("{tag}.h2d.input.c{c}"),
                        host,
                        self.platform.gpu_node(gpu_map[0]),
                        self.input_bytes(micro),
                        [],
                    )
                } else {
                    let prev_out = stages[s - 1]
                        .last()
                        .map(|&li| self.layers[li].output_bytes)
                        .unwrap_or(0);
                    let bytes = scaled_bytes(prev_out, self.trace.batch(), micro).max(1);
                    g.transfer(
                        format_args!("{tag}.act.c{c}.s{}to{}", s - 1, s),
                        self.platform.gpu_node(gpu_map[s - 1]),
                        self.platform.gpu_node(gpu_map[s]),
                        bytes,
                        carry,
                    )
                };
                let deps = std::iter::once(arrive).chain(prev_chunk[s]);
                let gate = g.barrier(format_args!("{tag}.fwd.c{c}.s{s}.start"), deps);
                let mut cursor = gate;
                for &li in stage_layers {
                    for &ei in &self.layers[li].fwd {
                        cursor = self.compute_task(g, ei, &ops[ei], gpu_map[s], cursor);
                    }
                }
                fwd_done[s][c] = Some(cursor);
                prev_chunk[s] = Some(cursor);
                all_fwd.push(cursor);
                carry = Some(cursor);
            }
        }

        // GPipe flush: backward begins after every forward micro-batch
        // completes.
        let flush = g.barrier(format_args!("{tag}.flush"), all_fwd);

        // Backward: micro-batches drain in reverse stage order, each
        // stage again processing chunks strictly in (reverse) order.
        let mut bwd_done: Vec<Vec<Option<TaskId>>> = vec![vec![None; chunks as usize]; n];
        let mut prev_chunk: Vec<Option<TaskId>> = vec![None; n];
        for c in (0..chunks as usize).rev() {
            let mut carry: Option<TaskId> = None;
            for s in (0..n).rev() {
                let arrive = if s == n - 1 {
                    flush
                } else {
                    // Gradient of this stage's output arrives from the
                    // next stage.
                    let out_bytes = stages[s]
                        .last()
                        .map(|&li| self.layers[li].output_bytes)
                        .unwrap_or(0);
                    let bytes = scaled_bytes(out_bytes, self.trace.batch(), micro).max(1);
                    g.transfer(
                        format_args!("{tag}.grad.c{c}.s{}to{}", s + 1, s),
                        self.platform.gpu_node(gpu_map[s + 1]),
                        self.platform.gpu_node(gpu_map[s]),
                        bytes,
                        carry,
                    )
                };
                let deps = std::iter::once(arrive).chain(prev_chunk[s]);
                let gate = g.barrier(format_args!("{tag}.bwd.c{c}.s{s}.start"), deps);
                let mut cursor = gate;
                for &li in stages[s].iter().rev() {
                    for &ei in &self.layers[li].bwd {
                        cursor = self.compute_task(g, ei, &ops[ei], gpu_map[s], cursor);
                    }
                }
                bwd_done[s][c] = Some(cursor);
                prev_chunk[s] = Some(cursor);
                carry = Some(cursor);
            }
        }

        let bwd_done = bwd_done
            .into_iter()
            .map(|per_chunk| {
                per_chunk
                    .into_iter()
                    .map(|t| t.expect("bwd built"))
                    .collect()
            })
            .collect();
        (stages, bwd_done)
    }

    // ---------------- hybrid (data x pipeline) parallelism ----------------

    /// Hybrid parallelism: `dp_groups` data-parallel replicas, each a
    /// GPipe pipeline over `gpus / dp_groups` stages. After backward,
    /// each stage's gradients are AllReduced across the groups (one ring
    /// per stage, over the GPUs holding that stage), then every replica
    /// steps its optimizer. This is the DP x PP composition Table 1
    /// credits to DistSim/vTrain — implemented here as an extension.
    fn hybrid(&self, global_batch: u64, dp_groups: usize, chunks: u64) -> TaskGraph {
        let n = self.gpus();
        assert!(
            dp_groups >= 2,
            "hybrid needs at least two data-parallel groups"
        );
        assert!(
            n.is_multiple_of(dp_groups),
            "{n} GPUs do not divide into {dp_groups} groups"
        );
        let stages_per_group = n / dp_groups;
        assert!(
            stages_per_group >= 2,
            "hybrid needs at least two pipeline stages per group"
        );
        let per_group = global_batch / dp_groups as u64;
        let micro = Self::micro_batch(per_group.max(1), chunks);
        let ops = self.ops_at(micro);
        let mut g = TaskGraph::new(n);

        // Build one pipeline per group. Group gr owns GPUs
        // gr*stages .. (gr+1)*stages-1.
        let mut group_builds = Vec::with_capacity(dp_groups);
        for gr in 0..dp_groups {
            let gpu_map: Vec<usize> = (0..stages_per_group)
                .map(|s| gr * stages_per_group + s)
                .collect();
            let tag = format!("hp{gr}");
            let build = self.build_gpipe(&mut g, &ops, micro, chunks, &gpu_map, &tag);
            group_builds.push(build);
        }
        let stages = group_builds[0].0.clone();

        // Per-stage gradient AllReduce across groups, then optimizers.
        for (s, stage_layers) in stages.iter().enumerate() {
            let grad_bytes: u64 = stage_layers
                .iter()
                .map(|&li| self.layers[li].param_bytes)
                .sum();
            // Every group's backward for this stage must finish.
            let deps = group_builds
                .iter()
                .flat_map(|(_, bwd)| bwd[s].iter().copied());
            let gate = g.barrier(format_args!("hp.s{s}.bwd.done"), deps);
            let gpu_of = |gr: usize| gr * stages_per_group + s;
            let sync = if grad_bytes > 0 {
                let sched = self.all_reduce(dp_groups, grad_bytes);
                let label = format!("hp.s{s}.allreduce");
                self.collective_mapped(&mut g, &label, &sched, |_| gate, gpu_of)
            } else {
                gate
            };
            for gr in 0..dp_groups {
                let gpu = gpu_of(gr);
                let mut cursor = sync;
                for &li in stage_layers {
                    for &ei in &self.layers[li].opt {
                        cursor = self.compute_task(&mut g, ei, &ops[ei], gpu, cursor);
                    }
                }
            }
        }
        g
    }

    /// FLOP-balanced contiguous stage assignment (the paper's
    /// extrapolator "automatically assigns layers to GPUs to balance
    /// workloads"): stage boundaries land where the cumulative forward
    /// FLOPs cross each 1/n share, clamped so every stage gets at least
    /// one layer.
    fn assign_stages(&self, n: usize) -> Vec<Vec<usize>> {
        let len = self.layers.len();
        assert!(
            len >= n,
            "model has fewer layers ({len}) than pipeline stages ({n})"
        );
        let mut prefix = Vec::with_capacity(len);
        let mut acc = 0.0;
        for l in &self.layers {
            acc += l.fwd_flops;
            prefix.push(acc);
        }
        let total = acc;

        // cuts[k] = index of the last layer of stage k (0-based), for
        // k < n-1; stage n-1 runs to the end.
        let mut cuts = Vec::with_capacity(n - 1);
        let mut prev_cut: isize = -1;
        for k in 1..n {
            let target = total * k as f64 / n as f64;
            let raw = prefix.partition_point(|&p| p < target);
            // Each earlier stage needs >= 1 layer (lo), and n-k stages
            // after this cut each need >= 1 layer (hi).
            let lo = (prev_cut + 1) as usize;
            let hi = len - (n - k) - 1;
            let cut = raw.clamp(lo, hi);
            cuts.push(cut);
            prev_cut = cut as isize;
        }

        let mut stages: Vec<Vec<usize>> = Vec::with_capacity(n);
        let mut start = 0usize;
        for &cut in &cuts {
            stages.push((start..=cut).collect());
            start = cut + 1;
        }
        stages.push((start..len).collect());
        debug_assert!(stages.iter().all(|s| !s.is_empty()));
        stages
    }
}

/// Classes whose weights shard under tensor parallelism.
fn shards_under_tp(class: OpClass) -> bool {
    matches!(
        class,
        OpClass::Conv2d | OpClass::Linear | OpClass::Embedding | OpClass::MatMul
    )
}

/// Shards an operator 1/n for tensor parallelism: compute, weights, and
/// produced activation split; consumed activation stays whole.
fn shard_op(op: &Operator, n: usize) -> Operator {
    let f = 1.0 / n as f64;
    Operator {
        name: op.name.clone(),
        class: op.class,
        flops: op.flops * f,
        bytes_in: op.bytes_in,
        bytes_out: ((op.bytes_out as f64) * f).round().max(1.0) as u64,
        weight_bytes: ((op.weight_bytes as f64) * f).round() as u64,
        output: op.output.clone(),
    }
}

/// Uniformly scales an operator's compute and bytes (optimizer shards).
fn scale_op(op: &Operator, f: f64) -> Operator {
    Operator {
        name: op.name.clone(),
        class: op.class,
        flops: op.flops * f,
        bytes_in: ((op.bytes_in as f64) * f).round().max(1.0) as u64,
        bytes_out: ((op.bytes_out as f64) * f).round().max(1.0) as u64,
        weight_bytes: ((op.weight_bytes as f64) * f).round() as u64,
        output: op.output.clone(),
    }
}

fn scaled_bytes(bytes: u64, from_batch: u64, to_batch: u64) -> u64 {
    ((bytes as f64) * (to_batch as f64) / (from_batch as f64)).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::ComputeModel;
    use triosim_modelzoo::ModelId;
    use triosim_perfmodel::LisModel;
    use triosim_trace::{GpuModel, Tracer};

    /// Every task of `g` with its label.
    fn labeled(g: &TaskGraph) -> impl Iterator<Item = (&str, &crate::Task)> {
        g.tasks()
            .iter()
            .enumerate()
            .map(|(i, t)| (g.label(TaskId(i)), t))
    }

    fn setup() -> (Trace, Platform, ComputeModel) {
        let model = ModelId::ResNet18.build(32);
        let trace = Tracer::new(GpuModel::A100).trace(&model);
        let platform = Platform::p2(4);
        let compute = ComputeModel::lis(LisModel::calibrated(GpuModel::A100));
        (trace, platform, compute)
    }

    #[test]
    fn dp_replicates_compute_per_gpu() {
        let (trace, platform, compute) = setup();
        let g = extrapolate(
            &trace,
            &platform,
            Parallelism::DataParallel { overlap: false },
            128,
            &compute,
        );
        let compute_tasks = g
            .tasks()
            .iter()
            .filter(|t| matches!(t.kind, crate::TaskKind::Compute { .. }))
            .count();
        assert_eq!(compute_tasks, 4 * trace.entries().len());
    }

    #[test]
    fn dp_allreduce_moves_the_gradients() {
        let (trace, platform, compute) = setup();
        let g = extrapolate(
            &trace,
            &platform,
            Parallelism::DataParallel { overlap: false },
            128,
            &compute,
        );
        // Non-input traffic must equal exactly one ring AllReduce of the
        // full gradient volume.
        let inputs: u64 = labeled(&g)
            .filter_map(|(label, t)| match t.kind {
                crate::TaskKind::Transfer { bytes, .. } if label.starts_with("h2d") => Some(bytes),
                _ => None,
            })
            .sum();
        let expected = ring_all_reduce(4, trace.gradient_bytes()).total_bytes();
        let total = g.total_transfer_bytes() - inputs;
        assert_eq!(total, expected);
    }

    #[test]
    fn ddp_produces_multiple_buckets() {
        let (trace, platform, compute) = setup();
        let g = extrapolate(
            &trace,
            &platform,
            Parallelism::DataParallel { overlap: true },
            128,
            &compute,
        );
        let buckets: std::collections::HashSet<&str> = labeled(&g)
            .filter(|(label, _)| label.contains("bucket"))
            .map(|(label, _)| label.split('.').nth(1).unwrap())
            .collect();
        // ResNet-18 has ~45 MB of gradients: at least 2 buckets of 25 MB.
        assert!(buckets.len() >= 2, "only {} buckets", buckets.len());
    }

    #[test]
    fn tp_sharded_flops_sum_to_replica_flops() {
        let (trace, platform, compute) = setup();
        let g = extrapolate(&trace, &platform, Parallelism::TensorParallel, 32, &compute);
        assert!(g.len() > trace.entries().len());
        // AllGather traffic exists.
        let gathers = labeled(&g)
            .filter(|(label, _)| label.contains("allgather"))
            .count();
        assert!(gathers > 0);
    }

    #[test]
    fn pp_stage_count_matches_gpus_and_chunks() {
        let (trace, platform, compute) = setup();
        let g = extrapolate(
            &trace,
            &platform,
            Parallelism::Pipeline { chunks: 4 },
            32,
            &compute,
        );
        let act_sends = labeled(&g)
            .filter(|(label, _)| label.starts_with("pp.act"))
            .count();
        // 4 chunks x 3 stage boundaries.
        assert_eq!(act_sends, 12);
        let grad_sends = labeled(&g)
            .filter(|(label, _)| label.starts_with("pp.grad"))
            .count();
        assert_eq!(grad_sends, 12);
    }

    #[test]
    fn pp_single_chunk_has_no_parallel_microbatches() {
        let (trace, platform, compute) = setup();
        let g1 = extrapolate(
            &trace,
            &platform,
            Parallelism::Pipeline { chunks: 1 },
            32,
            &compute,
        );
        let g4 = extrapolate(
            &trace,
            &platform,
            Parallelism::Pipeline { chunks: 4 },
            32,
            &compute,
        );
        assert!(g4.len() > g1.len());
    }

    #[test]
    fn hybrid_builds_pipelines_per_group() {
        let (trace, platform, compute) = setup();
        let g = extrapolate(
            &trace,
            &platform,
            Parallelism::Hybrid {
                dp_groups: 2,
                chunks: 2,
            },
            64,
            &compute,
        );
        // Two groups, each with its own activation sends (1 boundary x 2
        // chunks each) and a per-stage AllReduce.
        let hp0 = labeled(&g)
            .filter(|(label, _)| label.starts_with("hp0.act"))
            .count();
        let hp1 = labeled(&g)
            .filter(|(label, _)| label.starts_with("hp1.act"))
            .count();
        assert_eq!(hp0, 2);
        assert_eq!(hp1, 2);
        let allreduces = labeled(&g)
            .filter(|(label, _)| label.contains("allreduce") && label.starts_with("hp.s"))
            .count();
        assert!(allreduces > 0, "per-stage gradient sync exists");
    }

    #[test]
    fn hybrid_gradient_volume_matches_dp_over_groups() {
        let (trace, platform, compute) = setup();
        let g = extrapolate(
            &trace,
            &platform,
            Parallelism::Hybrid {
                dp_groups: 2,
                chunks: 1,
            },
            64,
            &compute,
        );
        // Sum of per-stage AllReduce payloads = one 2-rank ring AllReduce
        // of the full gradient volume.
        let sync_bytes: u64 = labeled(&g)
            .filter(|(label, _)| label.starts_with("hp.s") && label.contains("allreduce"))
            .map(|(_, t)| match t.kind {
                crate::TaskKind::Transfer { bytes, .. } => bytes,
                _ => 0,
            })
            .sum();
        let expected = ring_all_reduce(2, trace.gradient_bytes()).total_bytes();
        // Per-stage sharding rounds each stage's payload, so allow 1%.
        let ratio = sync_bytes as f64 / expected as f64;
        assert!((0.99..1.01).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "do not divide")]
    fn hybrid_group_count_must_divide_gpus() {
        let (trace, platform, compute) = setup();
        extrapolate(
            &trace,
            &platform,
            Parallelism::Hybrid {
                dp_groups: 3,
                chunks: 1,
            },
            96,
            &compute,
        );
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn dp_batch_must_cover_gpus() {
        let (trace, platform, compute) = setup();
        extrapolate(
            &trace,
            &platform,
            Parallelism::DataParallel { overlap: false },
            2,
            &compute,
        );
    }
}
