//! Seeded, deterministic fault-injection plans for TrioSim.
//!
//! A [`FaultPlan`] is a declarative description of everything that can go
//! wrong in a simulated cluster: straggler GPUs (static compute slowdown
//! factors), operator-time jitter, degraded links, transient link failures
//! with repair times, and permanent GPU drop-out. Plans are plain data —
//! JSON-serializable, hashable by content, and **deterministic**: all
//! randomness flows from the plan's single `u64` seed through a splittable
//! SplitMix64 mix, so the same plan always reproduces byte-identical
//! simulation reports no matter the host, thread timing, or event order.
//!
//! The plan itself knows nothing about simulators. The executor consumes a
//! compiled [`FaultSession`], which exposes:
//!
//! * per-GPU static compute dilation factors ([`FaultSession::compute_factor`]),
//! * a stateless jitter factor keyed by `(gpu, task, iteration)`
//!   ([`FaultSession::jitter_factor`]) — order-independent by construction,
//! * a time-sorted [`TimedFault`] timeline of link degradations, failures,
//!   repairs, and GPU drop-outs.
//!
//! An empty plan ([`FaultPlan::is_empty`]) compiles to an empty session and
//! is guaranteed by the executor's test oracle to be bit-identical to a
//! fault-free run.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// Fault plans parse untrusted JSON and drive the crash-safe sweep
// layer: production code here must degrade through typed errors, never
// unwrap. Tests are exempt.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

use std::fmt;

use serde::{DeError, Deserialize, Serialize, Value};

/// A static compute slowdown applied to one GPU for the whole run.
///
/// `factor` multiplies every compute-op duration on `gpu`; `1.0` is a no-op
/// and `10.0` makes the GPU a 10x straggler.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSlowdown {
    /// GPU rank the slowdown applies to.
    pub gpu: usize,
    /// Duration multiplier, must be finite and `>= 1.0`.
    pub factor: f64,
}

/// Uniform operator-time jitter drawn per `(gpu, task, iteration)`.
///
/// Each compute op is dilated by a factor in `[1, 1 + amplitude)` derived
/// deterministically from the plan seed — the same op in the same iteration
/// always draws the same factor, independent of event-processing order.
#[derive(Debug, Clone, PartialEq)]
pub struct Jitter {
    /// Maximum relative dilation; `0.05` means up to +5% per op.
    pub amplitude: f64,
}

/// A bandwidth degradation of the duplex link between two nodes at a given
/// simulated time.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkDegradation {
    /// One endpoint of the link (platform node id).
    pub src: usize,
    /// The other endpoint of the link (platform node id).
    pub dst: usize,
    /// Bandwidth multiplier, must be finite and positive; `0.5` halves the
    /// link's capacity in both directions.
    pub factor: f64,
    /// Simulated time (seconds) at which the degradation takes effect.
    /// Defaults to `0.0` (from the start of the run).
    pub at_s: f64,
}

/// A transient failure of the duplex link between two nodes.
///
/// While failed, the link carries no traffic: in-flight flows crossing it
/// are rerouted around it, and if no alternative path exists the simulation
/// ends with a structured `Partitioned` error instead of hanging.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkFailure {
    /// One endpoint of the link (platform node id).
    pub src: usize,
    /// The other endpoint of the link (platform node id).
    pub dst: usize,
    /// Simulated time (seconds) at which the link goes down.
    pub at_s: f64,
    /// Simulated time (seconds) at which the link comes back, or `None`
    /// for a permanent failure.
    pub repair_s: Option<f64>,
}

/// A permanent GPU drop-out at a given simulated time.
///
/// A synchronous-training run cannot survive losing a worker, so the
/// executor terminates the run with a structured `GpuLost` error.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuDropout {
    /// GPU rank that drops out.
    pub gpu: usize,
    /// Simulated time (seconds) of the drop-out.
    pub at_s: f64,
}

/// A declarative, seeded description of every fault to inject into a run.
///
/// All fields are optional in the JSON form; an absent field means "no
/// faults of that kind". See the crate docs for the schema.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Root seed for all stochastic fault behavior (currently jitter).
    pub seed: u64,
    /// Static per-GPU compute slowdowns (stragglers).
    pub gpu_slowdowns: Vec<GpuSlowdown>,
    /// Optional operator-time jitter.
    pub jitter: Option<Jitter>,
    /// Timed link bandwidth degradations.
    pub link_degradations: Vec<LinkDegradation>,
    /// Timed transient link failures (with optional repair).
    pub link_failures: Vec<LinkFailure>,
    /// Timed permanent GPU drop-outs.
    pub gpu_dropouts: Vec<GpuDropout>,
}

/// Error produced when a [`FaultPlan`] cannot be parsed or fails
/// validation against a concrete platform.
#[derive(Debug)]
pub enum FaultPlanError {
    /// The JSON text was malformed or had the wrong shape.
    Parse(String),
    /// A record in the plan is invalid; the message names it.
    Invalid(String),
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlanError::Parse(e) => write!(f, "invalid fault plan JSON: {e}"),
            FaultPlanError::Invalid(msg) => write!(f, "invalid fault plan: {msg}"),
        }
    }
}

impl std::error::Error for FaultPlanError {}

fn de_field<T: Deserialize>(v: &Value, name: &str) -> Result<T, DeError> {
    match v.get(name) {
        Some(inner) => T::from_value(inner).map_err(|e| DeError(format!("field `{name}`: {e}"))),
        None => T::from_missing().ok_or_else(|| DeError(format!("missing field `{name}`"))),
    }
}

fn de_field_or<T: Deserialize>(v: &Value, name: &str, default: T) -> Result<T, DeError> {
    match v.get(name) {
        Some(inner) => T::from_value(inner).map_err(|e| DeError(format!("field `{name}`: {e}"))),
        None => Ok(default),
    }
}

impl Serialize for GpuSlowdown {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("gpu".into(), self.gpu.to_value()),
            ("factor".into(), self.factor.to_value()),
        ])
    }
}

impl Deserialize for GpuSlowdown {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(GpuSlowdown {
            gpu: de_field(v, "gpu")?,
            factor: de_field(v, "factor")?,
        })
    }
}

impl Serialize for Jitter {
    fn to_value(&self) -> Value {
        Value::Object(vec![("amplitude".into(), self.amplitude.to_value())])
    }
}

impl Deserialize for Jitter {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(Jitter {
            amplitude: de_field(v, "amplitude")?,
        })
    }
}

impl Serialize for LinkDegradation {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("src".into(), self.src.to_value()),
            ("dst".into(), self.dst.to_value()),
            ("factor".into(), self.factor.to_value()),
            ("at_s".into(), self.at_s.to_value()),
        ])
    }
}

impl Deserialize for LinkDegradation {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(LinkDegradation {
            src: de_field(v, "src")?,
            dst: de_field(v, "dst")?,
            factor: de_field(v, "factor")?,
            at_s: de_field_or(v, "at_s", 0.0)?,
        })
    }
}

impl Serialize for LinkFailure {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("src".into(), self.src.to_value()),
            ("dst".into(), self.dst.to_value()),
            ("at_s".into(), self.at_s.to_value()),
            ("repair_s".into(), self.repair_s.to_value()),
        ])
    }
}

impl Deserialize for LinkFailure {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(LinkFailure {
            src: de_field(v, "src")?,
            dst: de_field(v, "dst")?,
            at_s: de_field(v, "at_s")?,
            repair_s: de_field_or(v, "repair_s", None)?,
        })
    }
}

impl Serialize for GpuDropout {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("gpu".into(), self.gpu.to_value()),
            ("at_s".into(), self.at_s.to_value()),
        ])
    }
}

impl Deserialize for GpuDropout {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(GpuDropout {
            gpu: de_field(v, "gpu")?,
            at_s: de_field(v, "at_s")?,
        })
    }
}

impl Serialize for FaultPlan {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("seed".into(), self.seed.to_value()),
            ("gpu_slowdowns".into(), self.gpu_slowdowns.to_value()),
            ("jitter".into(), self.jitter.to_value()),
            (
                "link_degradations".into(),
                self.link_degradations.to_value(),
            ),
            ("link_failures".into(), self.link_failures.to_value()),
            ("gpu_dropouts".into(), self.gpu_dropouts.to_value()),
        ])
    }
}

impl Deserialize for FaultPlan {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        if v.as_object().is_none() {
            return Err(DeError::expected("fault plan object", v));
        }
        Ok(FaultPlan {
            seed: de_field_or(v, "seed", 0)?,
            gpu_slowdowns: de_field_or(v, "gpu_slowdowns", Vec::new())?,
            jitter: de_field_or(v, "jitter", None)?,
            link_degradations: de_field_or(v, "link_degradations", Vec::new())?,
            link_failures: de_field_or(v, "link_failures", Vec::new())?,
            gpu_dropouts: de_field_or(v, "gpu_dropouts", Vec::new())?,
        })
    }
}

impl FaultPlan {
    /// True when the plan injects nothing at all — the executor's
    /// fault-free fast path, guaranteed bit-identical to a run with no
    /// plan.
    pub fn is_empty(&self) -> bool {
        self.gpu_slowdowns.is_empty()
            && self.jitter.is_none()
            && self.link_degradations.is_empty()
            && self.link_failures.is_empty()
            && self.gpu_dropouts.is_empty()
    }

    /// Replaces the plan's seed (builder style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Parses a plan from its JSON form.
    ///
    /// # Errors
    ///
    /// Returns [`FaultPlanError::Parse`] on malformed JSON or a
    /// wrong-shaped document.
    pub fn from_json(json: &str) -> Result<Self, FaultPlanError> {
        serde_json::from_str(json).map_err(|e| FaultPlanError::Parse(e.to_string()))
    }

    /// Serializes the plan to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("fault plans serialize to plain JSON")
    }

    /// Validates the plan against a platform with `gpus` GPU ranks and
    /// `nodes` topology nodes.
    ///
    /// # Errors
    ///
    /// Returns [`FaultPlanError::Invalid`] naming the first offending
    /// record (field, index, and why).
    pub fn validate(&self, gpus: usize, nodes: usize) -> Result<(), FaultPlanError> {
        let bad = |msg: String| Err(FaultPlanError::Invalid(msg));
        for (i, s) in self.gpu_slowdowns.iter().enumerate() {
            if s.gpu >= gpus {
                return bad(format!(
                    "gpu_slowdowns[{i}]: gpu {} out of range (platform has {gpus} GPUs)",
                    s.gpu
                ));
            }
            if !s.factor.is_finite() || s.factor < 1.0 {
                return bad(format!(
                    "gpu_slowdowns[{i}]: factor {} must be finite and >= 1",
                    s.factor
                ));
            }
        }
        if let Some(j) = &self.jitter {
            if !j.amplitude.is_finite() || j.amplitude < 0.0 {
                return bad(format!(
                    "jitter: amplitude {} must be finite and >= 0",
                    j.amplitude
                ));
            }
        }
        for (i, d) in self.link_degradations.iter().enumerate() {
            if d.src >= nodes || d.dst >= nodes {
                return bad(format!(
                    "link_degradations[{i}]: endpoint {}->{} out of range (topology has {nodes} nodes)",
                    d.src, d.dst
                ));
            }
            if d.src == d.dst {
                return bad(format!(
                    "link_degradations[{i}]: endpoints must differ (got {})",
                    d.src
                ));
            }
            if !d.factor.is_finite() || d.factor <= 0.0 {
                return bad(format!(
                    "link_degradations[{i}]: factor {} must be finite and positive",
                    d.factor
                ));
            }
            if !d.at_s.is_finite() || d.at_s < 0.0 {
                return bad(format!(
                    "link_degradations[{i}]: at_s {} must be finite and >= 0",
                    d.at_s
                ));
            }
        }
        for (i, l) in self.link_failures.iter().enumerate() {
            if l.src >= nodes || l.dst >= nodes {
                return bad(format!(
                    "link_failures[{i}]: endpoint {}->{} out of range (topology has {nodes} nodes)",
                    l.src, l.dst
                ));
            }
            if l.src == l.dst {
                return bad(format!(
                    "link_failures[{i}]: endpoints must differ (got {})",
                    l.src
                ));
            }
            if !l.at_s.is_finite() || l.at_s < 0.0 {
                return bad(format!(
                    "link_failures[{i}]: at_s {} must be finite and >= 0",
                    l.at_s
                ));
            }
            if let Some(r) = l.repair_s {
                if !r.is_finite() || r <= l.at_s {
                    return bad(format!(
                        "link_failures[{i}]: repair_s {r} must be finite and > at_s ({})",
                        l.at_s
                    ));
                }
            }
        }
        for (i, d) in self.gpu_dropouts.iter().enumerate() {
            if d.gpu >= gpus {
                return bad(format!(
                    "gpu_dropouts[{i}]: gpu {} out of range (platform has {gpus} GPUs)",
                    d.gpu
                ));
            }
            if !d.at_s.is_finite() || d.at_s < 0.0 {
                return bad(format!(
                    "gpu_dropouts[{i}]: at_s {} must be finite and >= 0",
                    d.at_s
                ));
            }
        }
        Ok(())
    }
}

/// One timed fault on the compiled timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedFault {
    /// Simulated time (seconds) at which the fault fires.
    pub at_s: f64,
    /// What happens.
    pub kind: FaultKind,
}

/// The concrete event a [`TimedFault`] injects.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Scale the bandwidth of the duplex link `src <-> dst` by `factor`.
    LinkDegrade {
        /// One endpoint of the link.
        src: usize,
        /// The other endpoint.
        dst: usize,
        /// Bandwidth multiplier.
        factor: f64,
    },
    /// Take the duplex link `src <-> dst` down.
    LinkFail {
        /// One endpoint of the link.
        src: usize,
        /// The other endpoint.
        dst: usize,
    },
    /// Bring the duplex link `src <-> dst` back up.
    LinkRepair {
        /// One endpoint of the link.
        src: usize,
        /// The other endpoint.
        dst: usize,
    },
    /// Permanently lose a GPU.
    GpuDrop {
        /// GPU rank lost.
        gpu: usize,
    },
}

impl FaultKind {
    /// Stable short label for observability events and metrics.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::LinkDegrade { .. } => "link_degrade",
            FaultKind::LinkFail { .. } => "link_fail",
            FaultKind::LinkRepair { .. } => "link_repair",
            FaultKind::GpuDrop { .. } => "gpu_drop",
        }
    }

    fn rank(&self) -> u8 {
        match self {
            FaultKind::LinkDegrade { .. } => 0,
            FaultKind::LinkFail { .. } => 1,
            FaultKind::LinkRepair { .. } => 2,
            FaultKind::GpuDrop { .. } => 3,
        }
    }

    fn tiebreak(&self) -> (usize, usize) {
        match *self {
            FaultKind::LinkDegrade { src, dst, .. }
            | FaultKind::LinkFail { src, dst }
            | FaultKind::LinkRepair { src, dst } => (src, dst),
            FaultKind::GpuDrop { gpu } => (gpu, 0),
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::LinkDegrade { src, dst, factor } => {
                write!(f, "degrade link n{src}<->n{dst} x{factor}")
            }
            FaultKind::LinkFail { src, dst } => write!(f, "fail link n{src}<->n{dst}"),
            FaultKind::LinkRepair { src, dst } => write!(f, "repair link n{src}<->n{dst}"),
            FaultKind::GpuDrop { gpu } => write!(f, "drop gpu{gpu}"),
        }
    }
}

/// SplitMix64 finalizer — the statistical core of the splittable PRNG.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mixes a seed with a stream of keys into a single hash. Splittable and
/// stateless: the result depends only on the inputs, never on draw order.
fn mix(seed: u64, keys: &[u64]) -> u64 {
    let mut h = splitmix64(seed ^ 0x5151_5151_5151_5151);
    for &k in keys {
        h = splitmix64(h ^ k);
    }
    h
}

/// A [`FaultPlan`] compiled against a concrete GPU count, ready for the
/// executor to consume.
#[derive(Debug, Clone)]
pub struct FaultSession {
    seed: u64,
    compute: Vec<f64>,
    jitter_amplitude: f64,
    timeline: Vec<TimedFault>,
}

impl FaultSession {
    /// Compiles `plan` for a platform with `gpus` GPU ranks.
    ///
    /// Link failures with a repair time expand into a fail + repair pair on
    /// the timeline. The timeline is sorted by time with a deterministic
    /// tie-break (kind, then endpoints), so identical plans always produce
    /// identical injection orders.
    pub fn new(plan: &FaultPlan, gpus: usize) -> Self {
        let mut compute = vec![1.0; gpus];
        for s in &plan.gpu_slowdowns {
            if s.gpu < gpus {
                compute[s.gpu] *= s.factor;
            }
        }
        let mut timeline = Vec::new();
        for d in &plan.link_degradations {
            timeline.push(TimedFault {
                at_s: d.at_s,
                kind: FaultKind::LinkDegrade {
                    src: d.src,
                    dst: d.dst,
                    factor: d.factor,
                },
            });
        }
        for l in &plan.link_failures {
            timeline.push(TimedFault {
                at_s: l.at_s,
                kind: FaultKind::LinkFail {
                    src: l.src,
                    dst: l.dst,
                },
            });
            if let Some(r) = l.repair_s {
                timeline.push(TimedFault {
                    at_s: r,
                    kind: FaultKind::LinkRepair {
                        src: l.src,
                        dst: l.dst,
                    },
                });
            }
        }
        for d in &plan.gpu_dropouts {
            timeline.push(TimedFault {
                at_s: d.at_s,
                kind: FaultKind::GpuDrop { gpu: d.gpu },
            });
        }
        timeline.sort_by(|a, b| {
            a.at_s
                .total_cmp(&b.at_s)
                .then_with(|| a.kind.rank().cmp(&b.kind.rank()))
                .then_with(|| a.kind.tiebreak().cmp(&b.kind.tiebreak()))
        });
        FaultSession {
            seed: plan.seed,
            compute,
            jitter_amplitude: plan.jitter.as_ref().map_or(0.0, |j| j.amplitude),
            timeline,
        }
    }

    /// True when the session injects nothing.
    pub fn is_empty(&self) -> bool {
        self.timeline.is_empty()
            && self.jitter_amplitude == 0.0
            && self.compute.iter().all(|&f| f == 1.0)
    }

    /// The static compute dilation factor for `gpu` (`>= 1.0`).
    pub fn compute_factor(&self, gpu: usize) -> f64 {
        self.compute.get(gpu).copied().unwrap_or(1.0)
    }

    /// The jitter dilation factor for one compute op, in
    /// `[1, 1 + amplitude)`.
    ///
    /// Stateless: the factor depends only on the seed and the
    /// `(gpu, task, iteration)` coordinates of the op, so it is identical
    /// no matter what order events are processed in.
    pub fn jitter_factor(&self, gpu: usize, task: usize, iteration: usize) -> f64 {
        if self.jitter_amplitude == 0.0 {
            return 1.0;
        }
        let h = mix(self.seed, &[1, gpu as u64, task as u64, iteration as u64]);
        // 53 high bits -> uniform in [0, 1).
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
        1.0 + self.jitter_amplitude * unit
    }

    /// The static transfer slowdown between two workers implied by the
    /// plan's link degradations (the Hop model's view of the plan):
    /// a degradation with `factor` 0.5 means transfers take 2x as long.
    ///
    /// Always `>= 1.0`; matches either direction of the pair.
    pub fn link_slowdown(&self, a: usize, b: usize) -> f64 {
        let mut slowdown = 1.0;
        for t in &self.timeline {
            if let FaultKind::LinkDegrade { src, dst, factor } = t.kind {
                if (src == a && dst == b) || (src == b && dst == a) {
                    slowdown *= 1.0 / factor;
                }
            }
        }
        slowdown.max(1.0)
    }

    /// The time-sorted fault timeline.
    pub fn timeline(&self) -> &[TimedFault] {
        &self.timeline
    }

    /// The plan seed the session was compiled from.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> FaultPlan {
        FaultPlan {
            seed: 7,
            gpu_slowdowns: vec![GpuSlowdown {
                gpu: 3,
                factor: 10.0,
            }],
            jitter: Some(Jitter { amplitude: 0.05 }),
            link_degradations: vec![LinkDegradation {
                src: 0,
                dst: 1,
                factor: 0.5,
                at_s: 0.001,
            }],
            link_failures: vec![LinkFailure {
                src: 1,
                dst: 2,
                at_s: 0.002,
                repair_s: Some(0.004),
            }],
            gpu_dropouts: vec![],
        }
    }

    #[test]
    fn json_round_trip() {
        let plan = sample_plan();
        let json = plan.to_json();
        let back = FaultPlan::from_json(&json).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn sparse_json_fills_defaults() {
        let plan = FaultPlan::from_json(r#"{"gpu_slowdowns": [{"gpu": 0, "factor": 2.0}]}"#)
            .expect("sparse plan must parse");
        assert_eq!(plan.seed, 0);
        assert_eq!(plan.gpu_slowdowns.len(), 1);
        assert!(plan.jitter.is_none());
        assert!(!plan.is_empty());
        assert!(FaultPlan::from_json("{}").unwrap().is_empty());
    }

    #[test]
    fn malformed_json_is_a_parse_error() {
        assert!(matches!(
            FaultPlan::from_json("not json"),
            Err(FaultPlanError::Parse(_))
        ));
        assert!(matches!(
            FaultPlan::from_json(r#"{"gpu_slowdowns": [{"gpu": 0}]}"#),
            Err(FaultPlanError::Parse(_))
        ));
    }

    #[test]
    fn validation_names_the_offending_record() {
        let mut plan = sample_plan();
        plan.gpu_slowdowns[0].gpu = 99;
        let err = plan.validate(8, 9).unwrap_err().to_string();
        assert!(err.contains("gpu_slowdowns[0]"), "got: {err}");
        assert!(err.contains("99"), "got: {err}");

        let mut plan = sample_plan();
        plan.link_failures[0].repair_s = Some(0.001);
        let err = plan.validate(8, 9).unwrap_err().to_string();
        assert!(err.contains("link_failures[0]"), "got: {err}");

        assert!(sample_plan().validate(8, 9).is_ok());
    }

    #[test]
    fn timeline_is_sorted_and_expands_repairs() {
        let session = FaultSession::new(&sample_plan(), 8);
        let times: Vec<f64> = session.timeline().iter().map(|t| t.at_s).collect();
        assert_eq!(times, vec![0.001, 0.002, 0.004]);
        assert!(matches!(
            session.timeline()[2].kind,
            FaultKind::LinkRepair { src: 1, dst: 2 }
        ));
    }

    #[test]
    fn jitter_is_stateless_and_bounded() {
        let session = FaultSession::new(&sample_plan(), 8);
        let a = session.jitter_factor(2, 17, 1);
        let b = session.jitter_factor(2, 17, 1);
        assert_eq!(a, b, "same coordinates must draw the same factor");
        assert!(session.jitter_factor(2, 18, 1) != a, "streams must split");
        for gpu in 0..8 {
            for task in 0..64 {
                let f = session.jitter_factor(gpu, task, 0);
                assert!((1.0..1.05 + 1e-12).contains(&f), "factor {f} out of range");
            }
        }
    }

    #[test]
    fn empty_plan_compiles_to_empty_session() {
        let session = FaultSession::new(&FaultPlan::default(), 4);
        assert!(session.is_empty());
        assert_eq!(session.compute_factor(0), 1.0);
        assert_eq!(session.jitter_factor(0, 0, 0), 1.0);
        assert_eq!(session.link_slowdown(0, 1), 1.0);
    }

    #[test]
    fn straggler_and_link_views() {
        let session = FaultSession::new(&sample_plan(), 8);
        assert_eq!(session.compute_factor(3), 10.0);
        assert_eq!(session.compute_factor(0), 1.0);
        assert_eq!(session.link_slowdown(0, 1), 2.0);
        assert_eq!(session.link_slowdown(1, 0), 2.0);
        assert_eq!(session.link_slowdown(4, 5), 1.0);
    }
}
