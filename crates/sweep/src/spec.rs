//! The declarative sweep specification and its deterministic expansion.

use std::fmt;

use serde::{Deserialize, Serialize, Value};
use triosim_faults::FaultPlan;

/// Hard cap on how many scenarios one spec may expand to — a typo'd grid
/// (`"trace_batch": [1..1000]`) should fail fast, not OOM the host.
pub const MAX_SCENARIOS: usize = 100_000;

/// A sweep spec failed to parse or expand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The spec was not valid JSON or not a spec-shaped object.
    Json(String),
    /// A grid axis or scenario entry named a field no scenario has.
    UnknownField(String),
    /// A field held a value of the wrong type or shape.
    BadValue {
        /// The scenario field being set.
        field: String,
        /// What went wrong.
        detail: String,
    },
    /// The spec expands to zero scenarios.
    Empty,
    /// The spec expands past [`MAX_SCENARIOS`].
    TooLarge(usize),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Json(e) => write!(f, "invalid sweep spec: {e}"),
            SpecError::UnknownField(name) => write!(
                f,
                "unknown scenario field `{name}` (try model, trace_batch, gpu, platform, \
                 parallelism, global_batch, fidelity, collective, iterations, realloc, \
                 faults, fault_seed, max_events, max_sim_time_us, wall_timeout_ms, label)"
            ),
            SpecError::BadValue { field, detail } => write!(f, "field `{field}`: {detail}"),
            SpecError::Empty => write!(f, "sweep expands to zero scenarios"),
            SpecError::TooLarge(n) => {
                write!(f, "sweep expands to {n} scenarios (max {MAX_SCENARIOS})")
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// One fully-resolved simulation configuration.
///
/// Fields that name simulator concepts (`gpu`, `platform`, `parallelism`,
/// `fidelity`, `collective`, `realloc`) are kept as strings in exactly
/// the CLI's syntax; the binding layer parses them and reports unknown
/// values per scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Human-readable scenario name (auto-generated when not given).
    pub label: String,
    /// Model-zoo identifier to trace, e.g. `resnet18`, `vgg11`, `gpt2`.
    pub model: String,
    /// Per-GPU batch size the synthetic trace is collected at.
    pub trace_batch: u64,
    /// GPU model the trace is collected on, e.g. `A100`.
    pub gpu: String,
    /// Simulated platform, e.g. `p1`, `p2:4`, `ring:A100:8`.
    pub platform: String,
    /// Parallelism strategy, e.g. `dp`, `ddp`, `tp`, `pp:4`, `hp:2:4`.
    pub parallelism: String,
    /// Global mini-batch; `None` uses the simulator's default
    /// (weak scaling for data parallelism, the trace batch otherwise).
    pub global_batch: Option<u64>,
    /// `triosim` (prediction) or `reference` (ground-truth stand-in).
    pub fidelity: String,
    /// Ring-AllReduce variant, e.g. `segmented`, `tree`.
    pub collective: String,
    /// Back-to-back training iterations to simulate.
    pub iterations: u64,
    /// Flow-network reallocation mode: `incremental`, `full`, or
    /// `full-reschedule`.
    pub realloc: String,
    /// Optional fault-injection plan.
    pub faults: Option<FaultPlan>,
    /// Optional override of the fault plan's jitter seed.
    pub fault_seed: Option<u64>,
    /// Runaway guard: cap on delivered simulation events (deterministic).
    pub max_events: Option<u64>,
    /// Runaway guard: cap on simulated time in µs (deterministic).
    pub max_sim_time_us: Option<u64>,
    /// Runaway guard: wall-clock deadline in ms. Host-dependent by
    /// nature, so it is the one knob **excluded** from the scenario's
    /// canonical serialization (and thus from journal compatibility
    /// hashes and canonical sweep output).
    pub wall_timeout_ms: Option<u64>,
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario {
            label: String::new(),
            model: "resnet18".into(),
            trace_batch: 16,
            gpu: "A100".into(),
            platform: "p2:4".into(),
            parallelism: "ddp".into(),
            global_batch: None,
            fidelity: "triosim".into(),
            collective: "segmented".into(),
            iterations: 1,
            realloc: "incremental".into(),
            faults: None,
            fault_seed: None,
            max_events: None,
            max_sim_time_us: None,
            wall_timeout_ms: None,
        }
    }
}

impl Scenario {
    fn auto_label(&self) -> String {
        let mut label = format!(
            "{}@{} {} {} {}",
            self.model, self.gpu, self.fidelity, self.parallelism, self.platform
        );
        if let Some(b) = self.global_batch {
            label.push_str(&format!(" b{b}"));
        }
        if self.iterations > 1 {
            label.push_str(&format!(" x{}", self.iterations));
        }
        if self.faults.as_ref().is_some_and(|p| !p.is_empty()) {
            label.push_str(" +faults");
        }
        label
    }
}

impl Serialize for Scenario {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("label".into(), self.label.to_value()),
            ("model".into(), self.model.to_value()),
            ("trace_batch".into(), self.trace_batch.to_value()),
            ("gpu".into(), self.gpu.to_value()),
            ("platform".into(), self.platform.to_value()),
            ("parallelism".into(), self.parallelism.to_value()),
            ("global_batch".into(), self.global_batch.to_value()),
            ("fidelity".into(), self.fidelity.to_value()),
            ("collective".into(), self.collective.to_value()),
            ("iterations".into(), self.iterations.to_value()),
            ("realloc".into(), self.realloc.to_value()),
            ("faults".into(), self.faults.to_value()),
            ("fault_seed".into(), self.fault_seed.to_value()),
        ];
        // The deterministic budget axes appear only when set, so specs
        // that never use them serialize bit-identically to pre-budget
        // output. `wall_timeout_ms` is deliberately NEVER serialized:
        // a wall-clock deadline is host-dependent, so it must not leak
        // into canonical sweep output or journal compatibility hashes —
        // a resume may legitimately use a different wall timeout.
        if let Some(v) = self.max_events {
            fields.push(("max_events".into(), v.to_value()));
        }
        if let Some(v) = self.max_sim_time_us {
            fields.push(("max_sim_time_us".into(), v.to_value()));
        }
        Value::Object(fields)
    }
}

/// A partial scenario: every field optional, layered over another
/// scenario by [`apply`](ScenarioPatch::apply). The spec's `defaults`
/// object, each `scenarios` entry, and each grid-point assignment are all
/// patches.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScenarioPatch {
    fields: Vec<(String, Value)>,
}

impl ScenarioPatch {
    /// Decodes a patch from a JSON object, rejecting unknown field names.
    pub fn from_object(v: &Value) -> Result<Self, SpecError> {
        let Some(fields) = v.as_object() else {
            return Err(SpecError::Json(format!(
                "expected a scenario object, got {v:?}"
            )));
        };
        let patch = ScenarioPatch {
            fields: fields.to_vec(),
        };
        for (name, _) in &patch.fields {
            if !FIELD_NAMES.contains(&name.as_str()) {
                return Err(SpecError::UnknownField(name.clone()));
            }
        }
        Ok(patch)
    }

    /// Sets one field (used by grid expansion and by callers building
    /// specs programmatically, e.g. the bench binaries). An unknown
    /// `name` is not rejected here; it surfaces as
    /// [`SpecError::UnknownField`] when the patch is applied during
    /// expansion.
    pub fn set(&mut self, name: &str, value: Value) {
        self.fields.push((name.to_string(), value));
    }

    fn has(&self, name: &str) -> bool {
        self.fields.iter().any(|(n, _)| n == name)
    }

    /// Applies the patch on top of `base`, decoding each field's value.
    pub fn apply(&self, base: &Scenario) -> Result<Scenario, SpecError> {
        let mut s = base.clone();
        for (name, value) in &self.fields {
            apply_field(&mut s, name, value)?;
        }
        Ok(s)
    }
}

const FIELD_NAMES: &[&str] = &[
    "label",
    "model",
    "trace_batch",
    "gpu",
    "platform",
    "parallelism",
    "global_batch",
    "fidelity",
    "collective",
    "iterations",
    "realloc",
    "faults",
    "fault_seed",
    "max_events",
    "max_sim_time_us",
    "wall_timeout_ms",
    LEGACY_SHARDS,
];

/// A retired host-tuning knob (the thread count of a removed parallel
/// executor). Specs, journals and job directories written with it must
/// keep loading with the same spec hash, so it is still accepted, and
/// ignored: it never reached canonical output.
const LEGACY_SHARDS: &str = "shards";

fn decode<T: Deserialize>(field: &str, v: &Value) -> Result<T, SpecError> {
    T::from_value(v).map_err(|e| SpecError::BadValue {
        field: field.to_string(),
        detail: e.to_string(),
    })
}

fn apply_field(s: &mut Scenario, name: &str, v: &Value) -> Result<(), SpecError> {
    match name {
        "label" => s.label = decode(name, v)?,
        "model" => s.model = decode(name, v)?,
        "trace_batch" => s.trace_batch = decode(name, v)?,
        "gpu" => s.gpu = decode(name, v)?,
        "platform" => s.platform = decode(name, v)?,
        "parallelism" => s.parallelism = decode(name, v)?,
        "global_batch" => s.global_batch = Some(decode(name, v)?),
        "fidelity" => s.fidelity = decode(name, v)?,
        "collective" => s.collective = decode(name, v)?,
        "iterations" => s.iterations = decode(name, v)?,
        "realloc" => s.realloc = decode(name, v)?,
        "faults" => s.faults = Some(decode(name, v)?),
        "fault_seed" => s.fault_seed = Some(decode(name, v)?),
        "max_events" => s.max_events = Some(decode(name, v)?),
        "max_sim_time_us" => s.max_sim_time_us = Some(decode(name, v)?),
        "wall_timeout_ms" => s.wall_timeout_ms = Some(decode(name, v)?),
        LEGACY_SHARDS => {}
        other => return Err(SpecError::UnknownField(other.to_string())),
    }
    Ok(())
}

/// A declarative sweep: shared `defaults`, an optional cartesian `grid`,
/// and an optional explicit `scenarios` list.
///
/// ```json
/// {
///   "name": "ddp-vs-tp",
///   "defaults": { "model": "resnet18", "gpu": "A100" },
///   "grid": {
///     "parallelism": ["ddp", "tp"],
///     "platform": ["p2:2", "p2:4", "p2:8"]
///   },
///   "scenarios": [ { "parallelism": "pp:4", "platform": "p2:4" } ]
/// }
/// ```
///
/// [`expand`](SweepSpec::expand) resolves this to a fully-ordered
/// scenario vector: grid points first (cartesian product in the axes'
/// declaration order, the **last** axis varying fastest), then the
/// explicit scenarios in list order. The expansion is a pure function of
/// the spec text, so scenario indices are stable across runs, hosts, and
/// thread counts — the anchor of the sweep engine's determinism.
#[derive(Debug, Clone, Default)]
pub struct SweepSpec {
    /// Sweep name (used in output artifacts).
    pub name: String,
    /// Fields shared by every scenario unless overridden.
    pub defaults: ScenarioPatch,
    /// Cartesian axes: scenario field -> list of values.
    pub grid: Vec<(String, Vec<Value>)>,
    /// Explicit scenario list, appended after the grid.
    pub scenarios: Vec<ScenarioPatch>,
}

impl SweepSpec {
    /// Parses a spec from its JSON text.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] on malformed JSON, unknown field names, or
    /// mistyped values (grid *values* are only shape-checked here; their
    /// content is validated during [`expand`](SweepSpec::expand)).
    pub fn from_json(text: &str) -> Result<Self, SpecError> {
        let v: Value = serde_json::from_str(text).map_err(|e| SpecError::Json(e.to_string()))?;
        if v.as_object().is_none() {
            return Err(SpecError::Json("expected a top-level object".into()));
        }
        let name = match v.get("name") {
            Some(n) => decode("name", n)?,
            None => "sweep".to_string(),
        };
        let defaults = match v.get("defaults") {
            Some(d) => ScenarioPatch::from_object(d)?,
            None => ScenarioPatch::default(),
        };
        let mut grid = Vec::new();
        if let Some(g) = v.get("grid") {
            let Some(axes) = g.as_object() else {
                return Err(SpecError::Json("`grid` must be an object".into()));
            };
            for (axis, values) in axes {
                if !FIELD_NAMES.contains(&axis.as_str()) {
                    return Err(SpecError::UnknownField(axis.clone()));
                }
                let Value::Array(values) = values else {
                    return Err(SpecError::BadValue {
                        field: axis.clone(),
                        detail: "grid axis must be an array of values".into(),
                    });
                };
                if values.is_empty() {
                    return Err(SpecError::BadValue {
                        field: axis.clone(),
                        detail: "grid axis must not be empty".into(),
                    });
                }
                grid.push((axis.clone(), values.clone()));
            }
        }
        let mut scenarios = Vec::new();
        if let Some(list) = v.get("scenarios") {
            let Value::Array(list) = list else {
                return Err(SpecError::Json("`scenarios` must be an array".into()));
            };
            for entry in list {
                scenarios.push(ScenarioPatch::from_object(entry)?);
            }
        }
        let legacy = defaults.has(LEGACY_SHARDS)
            || grid.iter().any(|(axis, _)| axis == LEGACY_SHARDS)
            || scenarios.iter().any(|p| p.has(LEGACY_SHARDS));
        if legacy {
            eprintln!("warning: sweep spec field `shards` is no longer used and is ignored");
        }
        Ok(SweepSpec {
            name,
            defaults,
            grid,
            scenarios,
        })
    }

    /// Number of scenarios the spec expands to (grid product + explicit
    /// list), without building them.
    pub fn len(&self) -> usize {
        let grid: usize = if self.grid.is_empty() {
            0
        } else {
            self.grid
                .iter()
                .map(|(_, vs)| vs.len())
                .product::<usize>()
                .min(MAX_SCENARIOS + 1)
        };
        grid + self.scenarios.len()
    }

    /// True when the spec expands to zero scenarios.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the spec into its fully-ordered scenario vector.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] when a value fails to decode into its field,
    /// the sweep is empty, or it exceeds [`MAX_SCENARIOS`].
    pub fn expand(&self) -> Result<Vec<Scenario>, SpecError> {
        let total = self.len();
        if total == 0 {
            return Err(SpecError::Empty);
        }
        if total > MAX_SCENARIOS {
            return Err(SpecError::TooLarge(total));
        }
        let base = self.defaults.apply(&Scenario::default())?;
        let mut out = Vec::with_capacity(total);
        if !self.grid.is_empty() {
            // Odometer over the axes, last axis fastest.
            let mut idx = vec![0usize; self.grid.len()];
            loop {
                let mut patch = ScenarioPatch::default();
                for (a, (axis, values)) in self.grid.iter().enumerate() {
                    patch.set(axis, values[idx[a]].clone());
                }
                out.push(patch.apply(&base)?);
                let mut a = self.grid.len();
                loop {
                    if a == 0 {
                        break;
                    }
                    a -= 1;
                    idx[a] += 1;
                    if idx[a] < self.grid[a].1.len() {
                        break;
                    }
                    idx[a] = 0;
                    if a == 0 {
                        idx.clear();
                        break;
                    }
                }
                if idx.is_empty() {
                    break;
                }
            }
        }
        for patch in &self.scenarios {
            out.push(patch.apply(&base)?);
        }
        for s in &mut out {
            if s.label.is_empty() {
                s.label = s.auto_label();
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_fill_every_field() {
        let spec = SweepSpec::from_json(r#"{ "scenarios": [ {} ] }"#).unwrap();
        let scenarios = spec.expand().unwrap();
        assert_eq!(scenarios.len(), 1);
        let s = &scenarios[0];
        assert_eq!(s.model, "resnet18");
        assert_eq!(s.parallelism, "ddp");
        assert_eq!(s.platform, "p2:4");
        assert!(!s.label.is_empty(), "auto label generated");
    }

    #[test]
    fn grid_expands_last_axis_fastest() {
        let spec = SweepSpec::from_json(
            r#"{
                "grid": {
                    "parallelism": ["ddp", "tp"],
                    "platform": ["p2:2", "p2:4"]
                }
            }"#,
        )
        .unwrap();
        let s = spec.expand().unwrap();
        assert_eq!(spec.len(), 4);
        let pairs: Vec<(&str, &str)> = s
            .iter()
            .map(|s| (s.parallelism.as_str(), s.platform.as_str()))
            .collect();
        assert_eq!(
            pairs,
            vec![
                ("ddp", "p2:2"),
                ("ddp", "p2:4"),
                ("tp", "p2:2"),
                ("tp", "p2:4"),
            ]
        );
    }

    #[test]
    fn explicit_scenarios_follow_grid_and_override_defaults() {
        let spec = SweepSpec::from_json(
            r#"{
                "defaults": { "model": "vgg11", "trace_batch": 8 },
                "grid": { "parallelism": ["ddp"] },
                "scenarios": [ { "parallelism": "pp:4", "label": "pipe" } ]
            }"#,
        )
        .unwrap();
        let s = spec.expand().unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].parallelism, "ddp");
        assert_eq!(s[0].model, "vgg11");
        assert_eq!(s[1].parallelism, "pp:4");
        assert_eq!(s[1].label, "pipe");
        assert_eq!(s[1].trace_batch, 8);
    }

    #[test]
    fn unknown_field_is_rejected_by_name() {
        let err = SweepSpec::from_json(r#"{ "grid": { "batch": [1] } }"#).unwrap_err();
        assert_eq!(err, SpecError::UnknownField("batch".into()));
        let err = SweepSpec::from_json(r#"{ "scenarios": [ { "modle": "x" } ] }"#).unwrap_err();
        assert_eq!(err, SpecError::UnknownField("modle".into()));
    }

    #[test]
    fn mistyped_value_names_the_field() {
        let spec = SweepSpec::from_json(r#"{ "scenarios": [ { "trace_batch": "big" } ] }"#);
        let err = spec.unwrap().expand().unwrap_err();
        match err {
            SpecError::BadValue { field, .. } => assert_eq!(field, "trace_batch"),
            other => panic!("wrong error {other:?}"),
        }
    }

    #[test]
    fn empty_spec_is_an_error() {
        let spec = SweepSpec::from_json("{}").unwrap();
        assert_eq!(spec.expand().unwrap_err(), SpecError::Empty);
    }

    #[test]
    fn fault_plan_rides_along() {
        let spec = SweepSpec::from_json(
            r#"{
                "scenarios": [ {
                    "faults": { "gpu_slowdowns": [ { "gpu": 0, "factor": 2.0 } ] },
                    "fault_seed": 7
                } ]
            }"#,
        )
        .unwrap();
        let s = spec.expand().unwrap();
        let plan = s[0].faults.as_ref().unwrap();
        assert_eq!(plan.gpu_slowdowns.len(), 1);
        assert_eq!(s[0].fault_seed, Some(7));
        assert!(s[0].label.ends_with("+faults"));
    }

    #[test]
    fn budget_fields_parse_from_defaults_and_overrides() {
        let spec = SweepSpec::from_json(
            r#"{
                "defaults": { "max_events": 1000, "wall_timeout_ms": 5000 },
                "scenarios": [ {}, { "max_events": 50, "max_sim_time_us": 2000 } ]
            }"#,
        )
        .unwrap();
        let s = spec.expand().unwrap();
        assert_eq!(s[0].max_events, Some(1000));
        assert_eq!(s[0].max_sim_time_us, None);
        assert_eq!(s[0].wall_timeout_ms, Some(5000));
        assert_eq!(s[1].max_events, Some(50), "per-scenario override wins");
        assert_eq!(s[1].max_sim_time_us, Some(2000));
    }

    #[test]
    fn unset_budgets_keep_serialization_bit_identical() {
        // A scenario without budgets must serialize exactly as it did
        // before the budget fields existed (canonical-output stability).
        let s = Scenario::default();
        let json = serde_json::to_string(&s.to_value()).unwrap();
        assert!(!json.contains("max_events"));
        assert!(!json.contains("max_sim_time_us"));
        assert!(!json.contains("wall_timeout_ms"));
    }

    #[test]
    fn wall_timeout_is_never_serialized() {
        let s = Scenario {
            max_events: Some(10),
            max_sim_time_us: Some(20),
            wall_timeout_ms: Some(30),
            ..Scenario::default()
        };
        let json = serde_json::to_string(&s.to_value()).unwrap();
        assert!(json.contains(r#""max_events":10"#));
        assert!(json.contains(r#""max_sim_time_us":20"#));
        assert!(
            !json.contains("wall_timeout_ms"),
            "wall clock is host-dependent and must stay out of canonical output: {json}"
        );
    }

    #[test]
    fn shards_parse_but_are_never_serialized() {
        // The retired knob still parses — in defaults, grid axes and
        // scenarios, with any value — and changes nothing.
        let spec = SweepSpec::from_json(
            r#"{ "defaults": { "shards": 4 }, "grid": { "shards": [1, 8] },
                 "scenarios": [ {}, { "shards": 0 } ] }"#,
        )
        .unwrap();
        let s = spec.expand().unwrap();
        assert_eq!(s.len(), 4, "a shards grid axis still expands");
        let plain = SweepSpec::from_json(r#"{ "scenarios": [ {} ] }"#)
            .unwrap()
            .expand()
            .unwrap();
        for scenario in &s {
            assert_eq!(scenario, &plain[0]);
            let json = serde_json::to_string(&scenario.to_value()).unwrap();
            assert!(!json.contains("shards"), "{json}");
        }
    }

    #[test]
    fn expansion_is_deterministic() {
        let text = r#"{
            "grid": { "parallelism": ["ddp", "tp", "pp:2"], "trace_batch": [8, 16] }
        }"#;
        let a = SweepSpec::from_json(text).unwrap().expand().unwrap();
        let b = SweepSpec::from_json(text).unwrap().expand().unwrap();
        assert_eq!(a, b);
    }
}
