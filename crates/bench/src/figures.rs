//! The measuring functions of [`FIGURES`](crate::FIGURES), apart from the
//! validation tables, which [`validation`] measures.

use std::collections::BTreeMap;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;
use triosim::{
    summarize_layers, CollectiveStyle, ComputeModel, Fidelity, HopConfig, HopGraph, HopSimulator,
    Parallelism, Platform, SimBuilder, SimReport,
};
use triosim_collectives::{
    halving_doubling_all_reduce, ring_all_reduce, tree_all_reduce, CollectiveSchedule,
};
use triosim_des::VirtualTime;
use triosim_modelzoo::{ModelId, OpClass};
use triosim_network::{
    FlowNetwork, NetCommand, NetworkModel, NodeId, PhotonicConfig, PhotonicNetwork, Topology,
};
use triosim_perfmodel::{calibration_ops, FeatureSet, LisModel};
use triosim_trace::GpuModel::{self, A100, A40};
use triosim_trace::{LinkKind, OracleGpu, Phase, Trace, Tracer};

use crate::{
    error_pct, num, paper_trace, predict_and_truth, text, trace_batch, validation, Measured,
    DEFAULT_SEED,
};

const DDP: Parallelism = Parallelism::DataParallel { overlap: true };
const TP: Parallelism = Parallelism::TensorParallel;

fn count(n: usize) -> Value {
    Value::UInt(n as u64)
}

/// A run's compute time, communication time and communication share (%).
fn breakdown(r: &SimReport) -> [Value; 3] {
    [
        num(r.compute_time_s()),
        num(r.comm_time_s()),
        num(100.0 * r.comm_ratio()),
    ]
}

/// The index of the first smallest value.
fn argmin(values: &[f64]) -> usize {
    (0..values.len()).fold(0, |best, i| if values[i] < values[best] { i } else { best })
}

/// Table 1's rows as the paper prints them, one per line, cells split by
/// `|`.
const TABLE1: &str = "\
Target workload | DNN inference | DNN training | DNN training | Transformer training | DNN training
Parallelism | not supported | DP, TP, PP | DP, TP, PP, HP | DP, TP, PP, HP | DP, TP, PP
Network | not supported | symmetrical | profile-based | profile-based | flexible
Trace requirement | single-GPU | multi-GPU | multi-node | multi-node | single-GPU
Performance model | analytical | cycle-level sim | analytical | analytical | hybrid analytical & simulation
Support new GPU | yes | no | no | no | via Li's Model
Claimed error | 7% (single GPU) | N/A | <4% (multi-GPU) | 8.37% (single node) | 2.91% DP / 4.54% TP / 6.82% PP";

pub(crate) fn table01(_: u64) -> Measured {
    let columns = "Feature, Li's Model, AstraSim, DistSim, vTrain, TrioSim (this work)";
    let rows = TABLE1
        .lines()
        .map(|line| line.split(" | ").map(text).collect());
    let mut m = Measured::default();
    m.table("features", columns, rows.collect());
    m
}

pub(crate) fn fig06(_: u64) -> Measured {
    let mut m = validation::measure("fig06");
    let below = (m.tables.iter().flat_map(|t| &t.rows))
        .all(|row| matches!(row[3], Value::Float(e) if e < 4.0));
    m.claim("every model's error is below 4% on both GPUs", below);
    m
}

pub(crate) fn fig07(_: u64) -> Measured {
    let mut m = validation::measure("fig07");
    let ddp = validation::measure("fig08").number("P1_avg_error_pct");
    let dp = m.number("p1_standard_dp_avg_error_pct");
    m.claim("DP's error is above DDP's on P1 (Figure 8)", dp > ddp);
    m
}

pub(crate) fn fig09(_: u64) -> Measured {
    let mut m = validation::measure("fig09");
    let ddp = validation::measure("fig08");
    for platform in ["P1", "P2"] {
        let avg = format!("{platform}_avg_error_pct");
        let above = m.number(&avg) > ddp.number(&avg);
        m.claim(
            format!("TP's error is above DDP's on {platform} (Figure 8)"),
            above,
        );
    }
    let p2_above = m.number("P2_avg_error_pct") > m.number("P1_avg_error_pct");
    m.claim("TP's error on P2 is above its error on P1", p2_above);
    m
}

pub(crate) fn fig10(_: u64) -> Measured {
    let mut m = validation::measure("fig10");
    for gpus in [2, 4] {
        let avg = |chunks: u64| m.number(&format!("gpipe_{gpus}gpu_{chunks}chunk_avg_error_pct"));
        let rises = avg(1) < avg(2) && avg(2) < avg(4);
        m.claim(
            format!("the error rises with the chunk count on {gpus} GPUs"),
            rises,
        );
    }
    m
}

/// Case 1 predicts from A40 and A100 traces at batch 128 (cross-GPU,
/// through Li's Model), case 2 from an H100 trace at batch 256; the
/// ground truth is the reference simulation of the H100 trace.
pub(crate) fn fig11(_: u64) -> Measured {
    const CASES: [(GpuModel, u64); 3] = [(A40, 128), (A100, 128), (GpuModel::H100, 256)];
    const COLUMNS: &str =
        "label, truth_s, case1_a40_error_pct, case1_a100_error_pct, case2_h100_error_pct";
    let platform = Platform::p3();
    let models = ModelId::IMAGE_CLASSIFICATION;
    let traces: Vec<[Trace; 3]> = (models.iter())
        .map(|model| CASES.map(|(gpu, batch)| Tracer::new(gpu).trace(&model.build(batch))))
        .collect();
    let mut m = Measured::default();
    for (name, parallelism) in [
        ("ddp", DDP),
        ("tp", TP),
        ("pp_chunks_1", Parallelism::Pipeline { chunks: 1 }),
        ("pp_chunks_2", Parallelism::Pipeline { chunks: 2 }),
    ] {
        // DDP weak-scales the batch over the 8 GPUs.
        let batch = if parallelism == DDP { 256 * 8 } else { 256 };
        let run = |trace: &Trace, fidelity| {
            SimBuilder::new(trace, &platform)
                .parallelism(parallelism)
                .global_batch(batch)
                .fidelity(fidelity)
                .run()
                .total_time_s()
        };
        let mut sums = [0.0; 3];
        let rows = (models.iter().zip(&traces))
            .map(|(model, traces)| {
                let truth = run(&traces[2], Fidelity::Reference);
                let mut row = vec![text(model.figure_label()), num(truth)];
                for (sum, trace) in sums.iter_mut().zip(traces) {
                    let error = error_pct(run(trace, Fidelity::TrioSim), truth);
                    *sum += error;
                    row.push(num(error));
                }
                row
            })
            .collect();
        m.table(name, COLUMNS, rows);
        for (column, sum) in COLUMNS.split(", ").skip(2).zip(sums) {
            let avg = num(sum / models.len() as f64);
            m.scalar(format!("{name}_avg_{column}"), avg);
        }
    }
    let avg = |table: &str, case: &str| m.number(&format!("{table}_avg_{case}_error_pct"));
    let a40_largest = ["ddp", "pp_chunks_1", "pp_chunks_2"].iter().all(|t| {
        avg(t, "case1_a40") > avg(t, "case1_a100") && avg(t, "case1_a40") > avg(t, "case2_h100")
    });
    let pp2_above = ["case1_a40", "case1_a100", "case2_h100"]
        .iter()
        .all(|case| avg("pp_chunks_2", case) > avg("pp_chunks_1", case));
    m.claim(
        "case 1 from the A40 trace has the largest error under DDP, PP-1 and PP-2",
        a40_largest,
    );
    m.claim("PP-2's error is above PP-1's in every case", pp2_above);
    m
}

/// Ranks DP, TP and PP (micro-batch 64) at a fixed total batch of 128, in
/// the reference ("hw") and in TrioSim ("sim").
pub(crate) fn fig12(_: u64) -> Measured {
    let platform = Platform::p2(4);
    let strategies = [
        ("DP", DDP),
        ("TP", TP),
        ("PP", Parallelism::Pipeline { chunks: 2 }),
    ];
    let (mut agree, mut dp_best, mut tp_hw, mut tp_sim) = (0, 0, 0, 0);
    let rows = (ModelId::ALL.iter())
        .map(|&model| {
            let trace = paper_trace(model, A100);
            let runs = strategies.map(|(_, p)| predict_and_truth(&trace, &platform, p, 128));
            let sim = runs.each_ref().map(|(pred, _)| pred.total_time_s());
            let hw = runs.each_ref().map(|(_, truth)| truth.total_time_s());
            let (hw_best, sim_best) = (strategies[argmin(&hw)].0, strategies[argmin(&sim)].0);
            agree += usize::from(hw_best == sim_best);
            dp_best += usize::from(hw_best == "DP" && sim_best == "DP");
            tp_hw += usize::from(hw[1] < hw[2]);
            tp_sim += usize::from(sim[1] < sim[2]);
            let mut row = vec![text(model.figure_label())];
            row.extend(hw.iter().chain(&sim).map(|&t| num(t)));
            row.extend([text(hw_best), text(sim_best)]);
            row
        })
        .collect();
    let n = ModelId::ALL.len();
    let mut m = Measured::default();
    let columns =
        "label, dp_hw_s, tp_hw_s, pp_hw_s, dp_sim_s, tp_sim_s, pp_sim_s, hw_best, sim_best";
    m.table("times", columns, rows);
    m.scalar("best_strategy_agreement", count(agree));
    m.scalar("models", count(n));
    m.scalar("tp_beats_pp_hw", count(tp_hw));
    m.scalar("tp_beats_pp_sim", count(tp_sim));
    m.claim(
        "TrioSim picks the hardware's best strategy on every model",
        agree == n,
    );
    m.claim(
        "DP is fastest on every model, in hardware and in simulation",
        dp_best == n,
    );
    m.claim("TP beats PP on every model in hardware", tp_hw == n);
    m.claim(
        "TP beats PP on all models but one in simulation (DN-201)",
        tp_sim == n - 1,
    );
    m
}

/// TP runs the traced batch; DDP weak-scales it over P1's two GPUs.
pub(crate) fn fig13(_: u64) -> Measured {
    let platform = Platform::p1();
    let mut tp_higher = 0;
    let rows = (ModelId::ALL.iter())
        .map(|&model| {
            let trace = paper_trace(model, A40);
            let [tp, ddp] = [(TP, 1), (DDP, 2)].map(|(parallelism, replicas)| {
                SimBuilder::new(&trace, &platform)
                    .parallelism(parallelism)
                    .global_batch(trace_batch(model) * replicas)
                    .run()
            });
            tp_higher += usize::from(tp.comm_ratio() > ddp.comm_ratio());
            let mut row = vec![text(model.figure_label())];
            row.extend(breakdown(&tp).into_iter().chain(breakdown(&ddp)));
            row
        })
        .collect();
    let n = ModelId::ALL.len();
    let mut m = Measured::default();
    let columns = "label, tp_compute_s, tp_comm_s, tp_comm_pct, \
                   ddp_compute_s, ddp_comm_s, ddp_comm_pct";
    m.table("breakdown", columns, rows);
    m.scalar("tp_comm_share_higher", count(tp_higher));
    m.scalar("models", count(n));
    m.claim(
        "TP's communication share is above DDP's on all models but at most one",
        tp_higher + 1 >= n,
    );
    m
}

/// Times each model's simulation on this host; perfbench's `fig14`
/// workload measures the same pass with repeated runs and a bound.
pub(crate) fn fig14(_: u64) -> Measured {
    let platform = Platform::p2(4);
    let mut total = 0.0;
    let rows = (ModelId::ALL.iter())
        .map(|&model| {
            let trace = paper_trace(model, A100);
            let start = Instant::now();
            let report = SimBuilder::new(&trace, &platform)
                .parallelism(DDP)
                .global_batch(trace_batch(model) * 4)
                .run();
            let wall = start.elapsed().as_secs_f64();
            total += wall;
            let ops = trace.entries().len();
            vec![
                text(model.figure_label()),
                count(ops),
                count(report.tasks_executed()),
                num(wall),
            ]
        })
        .collect();
    let mut m = Measured::default();
    m.table("runtime", "label, trace_ops, tasks, sim_wall_s", rows);
    m.scalar("total_wall_s", num(total));
    m
}

const WAFER_W: usize = 12;
const WAFER_H: usize = 7;
const WAFER_GPUS: usize = WAFER_W * WAFER_H;
const WAFER_ITERATIONS: usize = 3;

/// Snake (boustrophedon) ordering: consecutive GPU ranks are mesh
/// neighbours, so the ring AllReduce path stays on short mesh links.
fn snake_node(x: usize, y: usize) -> NodeId {
    let pos = if y.is_multiple_of(2) {
        y * WAFER_W + x
    } else {
        y * WAFER_W + (WAFER_W - 1 - x)
    };
    NodeId(1 + pos)
}

/// 84 A100-class chiplets in a 2-D mesh of wafer links, each with a host
/// uplink for input shipping.
fn wafer_platform() -> Platform {
    let mut topo = Topology::new(1 + WAFER_GPUS);
    let mut link = |a, b, kind: LinkKind| {
        topo.add_duplex(a, b, kind.achieved_bandwidth(), kind.latency_s());
    };
    for i in 1..=WAFER_GPUS {
        link(NodeId(0), NodeId(i), LinkKind::HostPcie);
    }
    let wafer = LinkKind::WaferElectrical;
    for y in 0..WAFER_H {
        for x in 0..WAFER_W {
            if x + 1 < WAFER_W {
                link(snake_node(x, y), snake_node(x + 1, y), wafer);
            }
            if y + 1 < WAFER_H {
                link(snake_node(x, y), snake_node(x, y + 1), wafer);
            }
        }
    }
    topo.set_transit(NodeId(0), false);
    Platform::custom(A100, WAFER_GPUS, topo, "wafer-84")
}

/// Data parallelism over the wafer with the unsegmented ring of the
/// paper's §2, which is what makes communication dominate; the photonic
/// circuits amortize their setup over the iterations.
pub(crate) fn fig15(_: u64) -> Measured {
    const MODELS: [ModelId; 6] = [
        ModelId::ResNet50,
        ModelId::DenseNet169,
        ModelId::Vgg19,
        ModelId::Gpt2,
        ModelId::BertBase,
        ModelId::Llama32_1B,
    ];
    let platform = wafer_platform();
    let rows: Vec<Vec<Value>> = (MODELS.iter())
        .map(|&model| {
            let trace = paper_trace(model, A100);
            let builder = || {
                SimBuilder::new(&trace, &platform)
                    .parallelism(DDP)
                    .collective_style(CollectiveStyle::Unsegmented)
                    .global_batch(trace_batch(model) * WAFER_GPUS as u64)
                    .iterations(WAFER_ITERATIONS)
            };
            let mut photonic = PhotonicNetwork::new(1 + WAFER_GPUS, PhotonicConfig::passage());
            let host = LinkKind::HostPcie;
            photonic.set_electrical_bypass(NodeId(0), host.achieved_bandwidth(), host.latency_s());
            let electrical = builder().run();
            let photonic = builder().network(Box::new(photonic)).run();
            let speedup = electrical.comm_time_s() / photonic.comm_time_s().max(1e-12);
            let mut row = vec![text(model.figure_label())];
            row.extend(
                breakdown(&electrical)
                    .into_iter()
                    .chain(breakdown(&photonic)),
            );
            row.push(num(speedup));
            row
        })
        .collect();
    let cut = rows
        .iter()
        .all(|row| matches!(row[7], Value::Float(s) if (1.6..=1.8).contains(&s)));
    let wall = rows
        .iter()
        .all(|row| matches!(row[6], Value::Float(pct) if pct > 25.0));
    let mut m = Measured::default();
    let columns = "label, elec_compute_s, elec_comm_s, elec_comm_pct, \
                   phot_compute_s, phot_comm_s, phot_comm_pct, comm_speedup";
    m.table("wafer", columns, rows);
    m.scalar("gpus", count(WAFER_GPUS));
    m.scalar("iterations", count(WAFER_ITERATIONS));
    m.claim(
        "the photonic network cuts communication time 1.6-1.8x on every model",
        cut,
    );
    m.claim(
        "communication still takes over a quarter of every model's time on it",
        wall,
    );
    m
}

/// Workers in Figure 16's Hop case study.
const HOP_WORKERS: usize = 8;

/// Figure 16's Hop case study for one scenario family. [`HOP_WORKERS`]
/// A100s train VGG-11 at batch 128 with decentralized gossip; in each of
/// 8 groups, seeded from `seed`, every directed link is slowed by a
/// factor drawn uniformly from [1, 10]. Returns, per group, the speedup
/// one backup worker achieves over none on the ring-based and on the
/// double-ring graph.
fn hop_speedups(seed: u64) -> Vec<(f64, f64)> {
    // Compute time from the single-GPU trace, update volume = the model's
    // parameters (as in the Hop paper's setup).
    let trace = paper_trace(ModelId::Vgg11, A100);
    let compute_time_s = trace.phase_time_s(Phase::Forward) + trace.phase_time_s(Phase::Backward);
    let config = |backup: usize| HopConfig {
        backup_workers: backup,
        bounded_staleness: 2,
        iterations: 20,
        compute_time_s,
        update_bytes: trace.gradient_bytes(),
        // Hop targets decentralized clusters on commodity interconnects
        // (Ethernet/IB class), where update exchange is comparable to
        // compute: the regime in which backup workers matter.
        link_bandwidth: 10.0e9,
        link_latency_s: 5.0e-6,
        skip_lag: None,
    };
    (0..8u64)
        .map(|group| {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(1000) + group);
            let mut factors = vec![vec![1.0f64; HOP_WORKERS]; HOP_WORKERS];
            for f in factors.iter_mut().flatten() {
                *f = rng.gen_range(1.0..10.0);
            }
            let slowdown = |from: usize, to: usize| factors[from][to];
            let speedup = |graph: HopGraph| {
                let base = HopSimulator::new(graph.clone(), config(0)).run(&slowdown);
                let backup = HopSimulator::new(graph, config(1)).run(&slowdown);
                base.total_time_s / backup.total_time_s
            };
            (
                speedup(HopGraph::ring_based(HOP_WORKERS)),
                speedup(HopGraph::double_ring(HOP_WORKERS)),
            )
        })
        .collect()
}

pub(crate) fn fig16(seed: u64) -> Measured {
    let speedups = hop_speedups(seed);
    let rows = (1..)
        .zip(&speedups)
        .map(|(group, &(ring, double))| vec![count(group), num(ring), num(double)]);
    let n = speedups.len() as f64;
    let mut m = Measured::default();
    m.table(
        "groups",
        "group, ring_speedup, double_ring_speedup",
        rows.collect(),
    );
    m.scalar("seed", Value::UInt(seed));
    m.scalar("workers", count(HOP_WORKERS));
    m.scalar(
        "avg_ring_speedup",
        num(speedups.iter().map(|s| s.0).sum::<f64>() / n),
    );
    m.scalar(
        "avg_double_ring_speedup",
        num(speedups.iter().map(|s| s.1).sum::<f64>() / n),
    );
    // EXPERIMENTS.md quotes the default seed's range; another seed draws
    // other slowdown scenarios.
    if seed == DEFAULT_SEED {
        let within = speedups
            .iter()
            .all(|&(ring, double)| [ring, double].iter().all(|s| (1.135..1.335).contains(s)));
        let claim = format!("at seed {seed} every speedup is within 1.14-1.33x on both graphs");
        m.claim(claim, within);
    }
    m
}

/// Executes one collective schedule on a fresh flow network over the
/// platform's topology and returns the completion time in seconds.
fn run_schedule(platform: &Platform, schedule: &CollectiveSchedule) -> f64 {
    let mut net = FlowNetwork::new(platform.topology().clone());
    let mut now = VirtualTime::ZERO;
    for step in schedule.steps() {
        // All transfers of a step start together; the step ends when the
        // last one delivers.
        let mut deliveries: BTreeMap<_, VirtualTime> = BTreeMap::new();
        for t in step {
            let (_, cmds) = net.send(
                now,
                platform.gpu_node(t.src.0),
                platform.gpu_node(t.dst.0),
                t.bytes,
            );
            for c in cmds {
                if let NetCommand::Schedule { flow, at } = c {
                    deliveries.insert(flow, at);
                }
            }
        }
        // Drain this step in delivery order.
        while let Some((&flow, &at)) = deliveries.iter().min_by_key(|(f, at)| (**at, **f)) {
            deliveries.remove(&flow);
            now = now.max(at);
            for c in net.deliver(flow, at) {
                if let NetCommand::Schedule { flow, at } = c {
                    if deliveries.contains_key(&flow) {
                        deliveries.insert(flow, at);
                    }
                }
            }
        }
    }
    now.as_seconds()
}

/// Pure AllReduce completion time of the segmented ring, the binomial
/// tree and halving-doubling under the flow network, per topology,
/// payload and GPU count.
pub(crate) fn ablation_allreduce(_: u64) -> Measured {
    let styles = ["ring", "tree", "halv-dbl"];
    let mut rows = Vec::new();
    for gpus in [4, 8, 16] {
        let platforms = [
            (
                "nvswitch",
                Platform::nvswitch(A100, gpus, LinkKind::NvLink3, "sw"),
            ),
            ("ring", Platform::ring(A100, gpus, LinkKind::NvLink3, "rg")),
            ("pcie-tree", Platform::pcie(A40, gpus, "pc")),
        ];
        for (topology, platform) in platforms {
            for bytes in [256u64 * 1024, 16 << 20, 512 << 20] {
                let schedules = [
                    ring_all_reduce(gpus, bytes),
                    tree_all_reduce(gpus, bytes),
                    halving_doubling_all_reduce(gpus, bytes),
                ];
                let ms = schedules.map(|s| run_schedule(&platform, &s) * 1e3);
                let mut row = vec![
                    text(&format!("{topology}{gpus}")),
                    count(gpus),
                    Value::UInt(bytes),
                ];
                row.extend(ms.map(num));
                row.push(text(styles[argmin(&ms)]));
                rows.push(row);
            }
        }
    }
    let mut m = Measured::default();
    let columns = "topology, gpus, payload_bytes, ring_ms, tree_ms, halving_doubling_ms, winner";
    m.table("allreduce", columns, rows);
    m
}

/// Per-class calibration error of the two feature families, and
/// end-to-end error under 8-way tensor parallelism on P3, whose 1/8
/// weight shards push every operator into the utilization ramp that a
/// linear fit cuts across.
pub(crate) fn ablation_compute(_: u64) -> Measured {
    let gpu = GpuModel::H100;
    let oracle = OracleGpu::new(gpu);
    let models = [FeatureSet::Linear, FeatureSet::Sublinear]
        .map(|f| LisModel::calibrated_with_features(oracle, f));
    let mut m = Measured::default();
    let mape = (OpClass::ALL.iter())
        .map(|&class| {
            let ops = calibration_ops(class);
            let mut row = vec![text(&class.to_string())];
            row.extend(
                models
                    .iter()
                    .map(|lis| num(100.0 * lis.validation_mape(&ops, &oracle))),
            );
            row
        })
        .collect();
    let columns = "class, linear_mape_pct, sublinear_mape_pct";
    m.table("calibration_mape", columns, mape);
    let platform = Platform::p3();
    let tp = [ModelId::ResNet50, ModelId::Vgg16, ModelId::BertBase].map(|model| {
        let trace = Tracer::new(gpu).trace(&model.build(128));
        let builder = || {
            SimBuilder::new(&trace, &platform)
                .parallelism(TP)
                .global_batch(128)
        };
        let truth = builder().fidelity(Fidelity::Reference).run().total_time_s();
        let mut row = vec![text(model.figure_label())];
        for lis in &models {
            let pred = builder()
                .compute_model(ComputeModel::lis(lis.clone()))
                .run()
                .total_time_s();
            row.push(num(error_pct(pred, truth)));
        }
        row
    });
    let columns = "label, linear_error_pct, sublinear_error_pct";
    m.table("tensor_parallel_8way", columns, Vec::from(tp));
    m
}

/// Pure DDP, pure GPipe across every GPU (where the model has as many
/// layers as GPUs) and two hybrids, on NVLink rings of 8 and 16 GPUs.
/// Total and communication time per iteration.
pub(crate) fn ablation_hybrid(_: u64) -> Measured {
    let mut rows = Vec::new();
    for gpus in [8usize, 16] {
        let platform = Platform::ring(A100, gpus, LinkKind::NvLink3, "ring");
        for model in [ModelId::Gpt2, ModelId::Llama32_1B, ModelId::ResNet152] {
            let trace = paper_trace(model, A100);
            let tb = trace.batch();
            let mut runs = vec![("DDP".to_string(), DDP, tb * gpus as u64)];
            if summarize_layers(&trace).len() >= gpus {
                runs.push((
                    format!("PP x{gpus} (4ch)"),
                    Parallelism::Pipeline { chunks: 4 },
                    tb,
                ));
            }
            for dp_groups in [2usize, gpus / 2] {
                let hybrid = Parallelism::Hybrid {
                    dp_groups,
                    chunks: 4,
                };
                runs.push((
                    format!("HP {dp_groups}x{} (4ch)", gpus / dp_groups),
                    hybrid,
                    tb * dp_groups as u64,
                ));
            }
            for (strategy, parallelism, batch) in runs {
                let r = SimBuilder::new(&trace, &platform)
                    .parallelism(parallelism)
                    .global_batch(batch)
                    .run();
                let (total, comm) = (r.total_time_s(), r.comm_time_s());
                rows.push(vec![
                    count(gpus),
                    text(model.figure_label()),
                    Value::Str(strategy),
                    num(total * 1e3),
                    num(comm * 1e3),
                    num(100.0 * comm / total),
                ]);
            }
        }
    }
    let mut m = Measured::default();
    let columns = "gpus, label, strategy, total_ms, comm_ms, comm_pct";
    m.table("strategies", columns, rows);
    m
}
