//! The on-disk/in-memory trace format (§4.2 of the paper).
//!
//! Each trace entry records the operator name, its measured execution
//! time, and the IDs of input/output tensors; a second table records every
//! tensor's category and dimensions. The format is JSON-serializable,
//! mirroring the PyTorch Profiler / Execution Graph Observer exports the
//! original tracer consumes.

use std::collections::BTreeMap;
use std::fmt;

use serde::{DeError, Deserialize, Serialize, Value};
use triosim_modelzoo::{DType, OpClass, Operator, TensorShape};

/// Identifier of a tensor within one trace.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct TensorId(pub u64);

impl fmt::Display for TensorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// The role of a tensor, as the Execution Graph Observer classifies it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TensorCategory {
    /// Model input (a data batch).
    Input,
    /// Model parameter.
    Weight,
    /// Parameter gradient (the AllReduce payload in data parallelism).
    Gradient,
    /// Intermediate activation.
    Activation,
}

/// Dimensions, element type, and category of one tensor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TensorRecord {
    /// The tensor's id.
    pub id: TensorId,
    /// Role of the tensor.
    pub category: TensorCategory,
    /// Dimensions.
    pub shape: TensorShape,
    /// Element type.
    pub dtype: DType,
}

impl TensorRecord {
    /// Size of the tensor in bytes.
    pub fn bytes(&self) -> u64 {
        self.shape.bytes(self.dtype)
    }
}

/// The table of all tensors referenced by a trace.
///
/// Records sit in a vector sorted by id, one per id. The tracer's ids
/// are 0, 1, 2, …, so a record's id is its index and a lookup reads one
/// slot; the ids of a loaded file may be sparse, and are then found by
/// binary search. It serializes as a `records` object keyed by ascending
/// id, then `next_id`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TensorTable {
    /// `(key, record)` by ascending key. A loaded file's record is filed
    /// under its key even where its `id` field differs.
    records: Vec<(TensorId, TensorRecord)>,
    next_id: u64,
}

impl TensorTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a tensor and returns its fresh id.
    pub fn register(
        &mut self,
        category: TensorCategory,
        shape: TensorShape,
        dtype: DType,
    ) -> TensorId {
        let id = TensorId(self.next_id);
        self.next_id += 1;
        let record = TensorRecord {
            id,
            category,
            shape,
            dtype,
        };
        // A fresh table appends; a loaded one whose `next_id` is not past
        // its keys inserts in order, replacing a record it already holds.
        match self.records.last() {
            Some(&(last, _)) if last >= id => match self.position(id) {
                Ok(i) => self.records[i].1 = record,
                Err(i) => self.records.insert(i, (id, record)),
            },
            _ => self.records.push((id, record)),
        }
        id
    }

    /// Where `id` is (`Ok`) or would be inserted (`Err`).
    fn position(&self, id: TensorId) -> Result<usize, usize> {
        let dense = usize::try_from(id.0)
            .ok()
            .filter(|&i| self.records.get(i).is_some_and(|&(key, _)| key == id));
        match dense {
            Some(i) => Ok(i),
            None => self.records.binary_search_by_key(&id, |&(key, _)| key),
        }
    }

    /// Looks up a tensor record.
    pub fn get(&self, id: TensorId) -> Option<&TensorRecord> {
        self.position(id).ok().map(|i| &self.records[i].1)
    }

    /// Number of tensors in the table.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterates over records in id order.
    pub fn iter(&self) -> impl Iterator<Item = &TensorRecord> {
        self.records.iter().map(|(_, record)| record)
    }

    /// Total bytes of all tensors in a category.
    pub fn category_bytes(&self, category: TensorCategory) -> u64 {
        self.iter()
            .filter(|r| r.category == category)
            .map(TensorRecord::bytes)
            .sum()
    }
}

impl Serialize for TensorTable {
    fn to_value(&self) -> Value {
        let records = self
            .records
            .iter()
            .map(|(key, record)| (key.0.to_string(), record.to_value()))
            .collect();
        Value::Object(vec![
            ("records".to_string(), Value::Object(records)),
            ("next_id".to_string(), self.next_id.to_value()),
        ])
    }
}

impl Deserialize for TensorTable {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let fields = v
            .as_object()
            .ok_or_else(|| DeError::expected("object", v))?;
        // Read through an ordered map: keys parse as serde's integer map
        // keys, and a repeated key keeps its last record.
        let records: BTreeMap<TensorId, TensorRecord> = serde::field(fields, "records")?;
        Ok(TensorTable {
            records: records.into_iter().collect(),
            next_id: serde::field(fields, "next_id")?,
        })
    }
}

/// Training phase an operator belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Phase {
    /// Forward propagation.
    Forward,
    /// Backward propagation.
    Backward,
    /// Optimizer (weight update) step.
    Optimizer,
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Phase::Forward => "fwd",
            Phase::Backward => "bwd",
            Phase::Optimizer => "opt",
        };
        f.write_str(s)
    }
}

/// One operator execution in a trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEntry {
    /// The operator, including its cost features (FLOPs, bytes).
    pub op: Operator,
    /// Measured execution time, in seconds.
    pub time_s: f64,
    /// Index of the model layer this operator belongs to.
    pub layer: usize,
    /// Training phase.
    pub phase: Phase,
    /// Tensors read.
    pub inputs: Vec<TensorId>,
    /// Tensors written.
    pub outputs: Vec<TensorId>,
}

/// Error raised by trace construction, validation, or (de)serialization.
#[derive(Debug)]
pub enum TraceError {
    /// The JSON payload could not be parsed into a trace.
    Parse(serde_json::Error),
    /// The trace contains no operators.
    EmptyTrace,
    /// The trace's batch size is zero.
    ZeroBatch,
    /// An operator references a tensor id the tensor table does not
    /// declare. Names the offending record.
    UnknownTensor {
        /// Name of the operator with the dangling reference.
        op: String,
        /// Index of the entry in the trace.
        index: usize,
        /// The undeclared tensor id.
        tensor: TensorId,
    },
    /// An operator's measured time is negative or not finite. Names the
    /// offending record.
    BadTime {
        /// Name of the operator with the bad time.
        op: String,
        /// Index of the entry in the trace.
        index: usize,
        /// The offending time value.
        time_s: f64,
    },
    /// A model graph with no layers or operators was given to the tracer.
    EmptyModel,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Parse(e) => write!(f, "invalid trace JSON: {e}"),
            TraceError::EmptyTrace => write!(f, "a trace must contain operators"),
            TraceError::ZeroBatch => write!(f, "batch must be positive"),
            TraceError::UnknownTensor { op, index, tensor } => write!(
                f,
                "entry {index} (`{op}`) references tensor {tensor} \
                 which is not in the tensor table"
            ),
            TraceError::BadTime { op, index, time_s } => write!(
                f,
                "entry {index} (`{op}`) has a non-finite or negative time {time_s}"
            ),
            TraceError::EmptyModel => {
                write!(f, "cannot trace a model with no layers or operators")
            }
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Parse(e) => Some(e),
            _ => None,
        }
    }
}

/// A complete single-GPU operator-level execution trace.
///
/// This is the *only* input TrioSim requires from the user (plus the
/// hardware/topology configuration) — the trace extrapolator derives all
/// multi-GPU execution from it.
///
/// # Example
///
/// ```rust
/// use triosim_modelzoo::ModelId;
/// use triosim_trace::{GpuModel, Phase, Tracer};
///
/// let trace = Tracer::new(GpuModel::A40).trace(&ModelId::Vgg11.build(8));
/// let fwd: f64 = trace.phase_time_s(Phase::Forward);
/// let bwd: f64 = trace.phase_time_s(Phase::Backward);
/// assert!(bwd > fwd, "backward is roughly 2x forward");
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    model: String,
    batch: u64,
    gpu: String,
    entries: Vec<TraceEntry>,
    tensors: TensorTable,
}

impl Trace {
    /// Assembles a trace from its parts.
    ///
    /// # Panics
    ///
    /// Panics on any condition [`try_new`](Self::try_new) reports as an
    /// error: empty entries, zero batch, dangling tensor references, or
    /// non-finite operator times.
    pub fn new(
        model: impl Into<String>,
        batch: u64,
        gpu: impl Into<String>,
        entries: Vec<TraceEntry>,
        tensors: TensorTable,
    ) -> Self {
        match Self::try_new(model, batch, gpu, entries, tensors) {
            Ok(t) => t,
            // Preserve the legacy panic messages verbatim.
            Err(TraceError::ZeroBatch) => panic!("batch must be positive"),
            Err(TraceError::EmptyTrace) => panic!("a trace must contain operators"),
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of [`new`](Self::new): validates the assembled
    /// trace and reports the first defect as a typed error naming the
    /// offending record.
    ///
    /// Checks, in order: the batch is positive, at least one operator is
    /// present, every operator time is finite and non-negative, and every
    /// tensor id an operator reads or writes exists in the tensor table.
    ///
    /// # Errors
    ///
    /// [`TraceError::ZeroBatch`], [`TraceError::EmptyTrace`],
    /// [`TraceError::BadTime`], or [`TraceError::UnknownTensor`].
    pub fn try_new(
        model: impl Into<String>,
        batch: u64,
        gpu: impl Into<String>,
        entries: Vec<TraceEntry>,
        tensors: TensorTable,
    ) -> Result<Self, TraceError> {
        if batch == 0 {
            return Err(TraceError::ZeroBatch);
        }
        if entries.is_empty() {
            return Err(TraceError::EmptyTrace);
        }
        for (index, e) in entries.iter().enumerate() {
            if !e.time_s.is_finite() || e.time_s < 0.0 {
                return Err(TraceError::BadTime {
                    op: e.op.name.clone(),
                    index,
                    time_s: e.time_s,
                });
            }
            for &tensor in e.inputs.iter().chain(&e.outputs) {
                if tensors.get(tensor).is_none() {
                    return Err(TraceError::UnknownTensor {
                        op: e.op.name.clone(),
                        index,
                        tensor,
                    });
                }
            }
        }
        Ok(Trace {
            model: model.into(),
            batch,
            gpu: gpu.into(),
            entries,
            tensors,
        })
    }

    /// Name of the traced model.
    pub fn model(&self) -> &str {
        &self.model
    }

    /// Batch size the trace was collected at.
    pub fn batch(&self) -> u64 {
        self.batch
    }

    /// Name of the GPU the trace was collected on.
    pub fn gpu(&self) -> &str {
        &self.gpu
    }

    /// The operator executions, in program order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// The tensor table.
    pub fn tensors(&self) -> &TensorTable {
        &self.tensors
    }

    /// Sum of all operator times (one iteration of single-GPU training).
    pub fn total_time_s(&self) -> f64 {
        self.entries.iter().map(|e| e.time_s).sum()
    }

    /// Sum of operator times in one phase.
    pub fn phase_time_s(&self, phase: Phase) -> f64 {
        self.entries
            .iter()
            .filter(|e| e.phase == phase)
            .map(|e| e.time_s)
            .sum()
    }

    /// Number of model layers covered by the trace.
    pub fn layer_count(&self) -> usize {
        self.entries.iter().map(|e| e.layer + 1).max().unwrap_or(0)
    }

    /// Total gradient bytes (the DP AllReduce volume).
    pub fn gradient_bytes(&self) -> u64 {
        self.tensors.category_bytes(TensorCategory::Gradient)
    }

    /// Per-operator-class breakdown: `(class, operator count, total
    /// seconds)` in descending time order. The CLI's `inspect` prints
    /// this; it is the quickest way to see where a workload's time goes.
    pub fn class_breakdown(&self) -> Vec<(OpClass, usize, f64)> {
        let mut acc: std::collections::BTreeMap<OpClass, (usize, f64)> =
            std::collections::BTreeMap::new();
        for e in &self.entries {
            let slot = acc.entry(e.op.class).or_insert((0, 0.0));
            slot.0 += 1;
            slot.1 += e.time_s;
        }
        let mut v: Vec<(OpClass, usize, f64)> =
            acc.into_iter().map(|(c, (n, t))| (c, n, t)).collect();
        v.sort_by(|a, b| b.2.total_cmp(&a.2));
        v
    }

    /// Serializes to the JSON trace-file format.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Parse`] if serialization fails (cannot happen
    /// for well-formed traces).
    pub fn to_json(&self) -> Result<String, TraceError> {
        serde_json::to_string(self).map_err(TraceError::Parse)
    }

    /// Parses and validates a trace from its JSON format.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Parse`] on malformed input, and the
    /// [`try_new`](Self::try_new) validation errors on well-formed JSON
    /// describing an inconsistent trace (zero batch, no operators,
    /// dangling tensor references, non-finite times) — each naming the
    /// offending record.
    pub fn from_json(json: &str) -> Result<Self, TraceError> {
        let parsed: Trace = serde_json::from_str(json).map_err(TraceError::Parse)?;
        Self::try_new(
            parsed.model,
            parsed.batch,
            parsed.gpu,
            parsed.entries,
            parsed.tensors,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use triosim_modelzoo::Operator;

    fn tiny_trace() -> Trace {
        let mut tensors = TensorTable::new();
        let w = tensors.register(
            TensorCategory::Weight,
            TensorShape::from([16, 8]),
            DType::F32,
        );
        let x = tensors.register(TensorCategory::Input, TensorShape::from([4, 8]), DType::F32);
        let y = tensors.register(
            TensorCategory::Activation,
            TensorShape::from([4, 16]),
            DType::F32,
        );
        let entry = TraceEntry {
            op: Operator::linear("fc", 4, 8, 16),
            time_s: 1e-4,
            layer: 0,
            phase: Phase::Forward,
            inputs: vec![x, w],
            outputs: vec![y],
        };
        Trace::new("tiny", 4, "A100", vec![entry], tensors)
    }

    #[test]
    fn json_round_trip() {
        let t = tiny_trace();
        let json = t.to_json().unwrap();
        let back = Trace::from_json(&json).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn malformed_json_is_an_error() {
        let err = Trace::from_json("{not json").unwrap_err();
        assert!(err.to_string().contains("invalid trace JSON"));
    }

    #[test]
    fn dangling_tensor_reference_names_the_offending_entry() {
        let mut tensors = TensorTable::new();
        let x = tensors.register(TensorCategory::Input, TensorShape::from([4, 8]), DType::F32);
        let entry = TraceEntry {
            op: Operator::linear("fc", 4, 8, 16),
            time_s: 1e-4,
            layer: 0,
            phase: Phase::Forward,
            inputs: vec![x, TensorId(99)],
            outputs: vec![],
        };
        let err = Trace::try_new("bad", 4, "A100", vec![entry], tensors).unwrap_err();
        assert!(matches!(
            &err,
            TraceError::UnknownTensor {
                op,
                index: 0,
                tensor: TensorId(99),
            } if op == "fc"
        ));
        let msg = err.to_string();
        assert!(msg.contains("entry 0"), "message was: {msg}");
        assert!(msg.contains("fc"), "message was: {msg}");
        assert!(msg.contains("t99"), "message was: {msg}");
    }

    #[test]
    fn non_finite_or_negative_time_is_rejected() {
        let mut tensors = TensorTable::new();
        let x = tensors.register(TensorCategory::Input, TensorShape::from([4, 8]), DType::F32);
        let mut entry = TraceEntry {
            op: Operator::linear("fc", 4, 8, 16),
            time_s: -1.0,
            layer: 0,
            phase: Phase::Forward,
            inputs: vec![x],
            outputs: vec![],
        };
        let err =
            Trace::try_new("bad", 4, "A100", vec![entry.clone()], tensors.clone()).unwrap_err();
        assert!(matches!(err, TraceError::BadTime { index: 0, .. }));

        entry.time_s = f64::NAN;
        let err = Trace::try_new("bad", 4, "A100", vec![entry], tensors).unwrap_err();
        assert!(err.to_string().contains("non-finite or negative"));
    }

    #[test]
    fn zero_batch_is_a_typed_error() {
        let t = tiny_trace();
        let err = Trace::try_new("bad", 0, "A100", t.entries().to_vec(), t.tensors().clone())
            .unwrap_err();
        assert!(matches!(err, TraceError::ZeroBatch));
    }

    #[test]
    fn from_json_revalidates_referential_integrity() {
        // Serialize a valid trace, then point an entry at a tensor id that is
        // not in the table. Parsing must fail with the same typed error the
        // constructor raises, not panic downstream.
        let t = tiny_trace();
        let json = t
            .to_json()
            .unwrap()
            .replace("\"inputs\":[1,0]", "\"inputs\":[1,77]");
        let err = Trace::from_json(&json).unwrap_err();
        assert!(
            matches!(err, TraceError::UnknownTensor { .. }),
            "got: {err}"
        );
    }

    #[test]
    fn tensor_table_ids_are_sequential() {
        let mut table = TensorTable::new();
        let a = table.register(TensorCategory::Input, TensorShape::from([1]), DType::F32);
        let b = table.register(TensorCategory::Weight, TensorShape::from([2]), DType::F32);
        assert_eq!((a, b), (TensorId(0), TensorId(1)));
        assert_eq!(table.len(), 2);
        assert_eq!(table.get(a).unwrap().category, TensorCategory::Input);
    }

    #[test]
    fn category_bytes_sums_only_that_category() {
        let t = tiny_trace();
        assert_eq!(
            t.tensors().category_bytes(TensorCategory::Weight),
            16 * 8 * 4
        );
        assert_eq!(t.tensors().category_bytes(TensorCategory::Input), 4 * 8 * 4);
    }

    #[test]
    fn totals_and_phases() {
        let t = tiny_trace();
        assert_eq!(t.total_time_s(), 1e-4);
        assert_eq!(t.phase_time_s(Phase::Forward), 1e-4);
        assert_eq!(t.phase_time_s(Phase::Backward), 0.0);
        assert_eq!(t.layer_count(), 1);
    }

    #[test]
    fn class_breakdown_sums_to_total() {
        let t = tiny_trace();
        let breakdown = t.class_breakdown();
        let total: f64 = breakdown.iter().map(|(_, _, s)| s).sum();
        assert!((total - t.total_time_s()).abs() < 1e-15);
        assert_eq!(breakdown[0].0, triosim_modelzoo::OpClass::Linear);
        assert_eq!(breakdown[0].1, 1);
    }

    #[test]
    #[should_panic(expected = "must contain operators")]
    fn empty_trace_rejected() {
        let _ = Trace::new("x", 1, "A40", vec![], TensorTable::new());
    }
}
