//! Tensor shapes and element types.

use std::fmt;
use std::sync::Arc;

use serde::{DeError, Deserialize, Serialize, Value};

/// Element data type of a tensor.
///
/// Mirrors the `tensor format (element data type, dimension)` field the
/// paper's Execution Graph Observer records. The zoo defaults to `F32`
/// (the paper traces FP32 torchvision/HuggingFace training).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum DType {
    /// 32-bit IEEE float (training default in the paper's setup).
    #[default]
    F32,
    /// 16-bit IEEE float.
    F16,
    /// bfloat16.
    BF16,
    /// 64-bit signed integer (token ids, embedding indices).
    I64,
}

impl DType {
    /// Size of one element in bytes.
    pub const fn size_bytes(self) -> u64 {
        match self {
            DType::F32 => 4,
            DType::F16 | DType::BF16 => 2,
            DType::I64 => 8,
        }
    }
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DType::F32 => "f32",
            DType::F16 => "f16",
            DType::BF16 => "bf16",
            DType::I64 => "i64",
        };
        f.write_str(s)
    }
}

/// The dimensions of a tensor.
///
/// The dimension list is shared: cloning a shape (an operator, a trace
/// entry, a registered output) copies a pointer and allocates nothing.
/// It serializes as a plain array of dimensions.
///
/// # Example
///
/// ```rust
/// use triosim_modelzoo::{DType, TensorShape};
///
/// let act = TensorShape::new(vec![128, 64, 56, 56]);
/// assert_eq!(act.numel(), 128 * 64 * 56 * 56);
/// assert_eq!(act.bytes(DType::F32), act.numel() * 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct TensorShape(Arc<[u64]>);

impl TensorShape {
    /// Creates a shape from its dimension list.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero — degenerate tensors never appear
    /// in the traced workloads and would silently zero out FLOP counts.
    pub fn new(dims: Vec<u64>) -> Self {
        assert_positive(&dims);
        TensorShape(dims.into())
    }

    /// The dimension list.
    pub fn dims(&self) -> &[u64] {
        &self.0
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements.
    pub fn numel(&self) -> u64 {
        self.0.iter().product()
    }

    /// Total size in bytes for the given element type.
    pub fn bytes(&self, dtype: DType) -> u64 {
        self.numel() * dtype.size_bytes()
    }

    /// Returns a copy with the first (batch) dimension replaced.
    ///
    /// Used by the trace extrapolator when rescaling batch sizes, and by
    /// data parallelism when splitting a batch across GPUs.
    ///
    /// # Panics
    ///
    /// Panics if the shape is rank 0 or `new_batch` is zero.
    pub fn with_batch(&self, new_batch: u64) -> Self {
        assert!(!self.0.is_empty(), "cannot rebatch a rank-0 shape");
        assert!(new_batch > 0, "batch must be positive");
        TensorShape(
            std::iter::once(new_batch)
                .chain(self.0[1..].iter().copied())
                .collect(),
        )
    }

    /// The first (batch) dimension.
    ///
    /// # Panics
    ///
    /// Panics if the shape is rank 0.
    pub fn batch(&self) -> u64 {
        *self.0.first().expect("rank-0 shape has no batch dimension")
    }
}

fn assert_positive(dims: &[u64]) {
    assert!(
        dims.iter().all(|&d| d > 0),
        "tensor dimensions must be positive, got {dims:?}"
    );
}

impl fmt::Display for TensorShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl From<&[u64]> for TensorShape {
    fn from(dims: &[u64]) -> Self {
        assert_positive(dims);
        TensorShape(dims.into())
    }
}

impl<const N: usize> From<[u64; N]> for TensorShape {
    fn from(dims: [u64; N]) -> Self {
        TensorShape::from(&dims[..])
    }
}

impl Serialize for TensorShape {
    fn to_value(&self) -> Value {
        self.0.to_value()
    }
}

/// Loads any array of unsigned integers, a zero dimension included (a
/// trace file is data, not a zoo definition; [`TensorShape::new`] is the
/// check for the latter).
impl Deserialize for TensorShape {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Vec::<u64>::from_value(v).map(|dims| TensorShape(dims.into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_and_bytes() {
        let s = TensorShape::from([2, 3, 4]);
        assert_eq!(s.numel(), 24);
        assert_eq!(s.bytes(DType::F32), 96);
        assert_eq!(s.bytes(DType::F16), 48);
        assert_eq!(s.bytes(DType::I64), 192);
    }

    #[test]
    fn rebatch_changes_only_dim0() {
        let s = TensorShape::from([128, 3, 224, 224]);
        let r = s.with_batch(256);
        assert_eq!(r.dims(), &[256, 3, 224, 224]);
        assert_eq!(s.dims()[0], 128, "original untouched");
        assert_eq!(r.batch(), 256);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dims_rejected() {
        let _ = TensorShape::from([1, 0, 3]);
    }

    #[test]
    fn display_formats() {
        assert_eq!(TensorShape::from([8, 16]).to_string(), "[8x16]");
        assert_eq!(DType::F32.to_string(), "f32");
    }

    #[test]
    fn dtype_sizes() {
        assert_eq!(DType::F32.size_bytes(), 4);
        assert_eq!(DType::BF16.size_bytes(), 2);
    }
}
