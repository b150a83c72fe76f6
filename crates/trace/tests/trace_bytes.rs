//! Trace files keep their bytes: the JSON of traced models, pinned as a
//! length and FNV-1a digest, and hand-written files that exercise what
//! the tracer never emits (sparse, out-of-order and repeated tensor ids,
//! zero and rank-5 dimensions), pinned as text.

use triosim_modelzoo::{DType, ModelId, TensorShape};
use triosim_trace::{GpuModel, TensorCategory, TensorId, TensorTable, Trace, Tracer};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Checks a trace's `to_json()` length and digest, and that it parses
/// back to an equal trace.
fn assert_bytes(trace: &Trace, len: usize, digest: u64) {
    let json = trace.to_json().expect("serializes");
    assert_eq!(
        (json.len(), fnv1a(json.as_bytes())),
        (len, digest),
        "{} {} trace JSON moved: {} bytes, digest {:#018x}",
        trace.model(),
        trace.gpu(),
        json.len(),
        fnv1a(json.as_bytes())
    );
    assert_eq!(&Trace::from_json(&json).expect("parses"), trace);
}

#[test]
fn cnn_training_trace_keeps_its_bytes() {
    let trace = Tracer::new(GpuModel::A100).trace(&ModelId::ResNet18.build(8));
    assert_bytes(&trace, 47_931, 0x0691_ce3c_ad2f_1898);
}

#[test]
fn transformer_training_trace_keeps_its_bytes() {
    let trace = Tracer::new(GpuModel::H100).trace(&ModelId::Gpt2.build(4));
    assert_bytes(&trace, 119_838, 0x75e8_4dfd_5a4b_ae24);
}

#[test]
fn inference_trace_keeps_its_bytes() {
    let trace = Tracer::new(GpuModel::A40).trace_inference(&ModelId::Vgg11.build(8));
    assert_bytes(&trace, 9_166, 0x81a6_8619_6769_36aa);
}

/// A trace no tracer writes: tensor ids sparse (one above 2^32) and out
/// of order, id 12 given twice (the second record wins), a rank-5 shape
/// and a shape with a zero dimension.
const SPARSE: &str = r#"{"model":"sparse","batch":4,"gpu":"A100","entries":[
{"op":{"name":"fc","class":"Linear","flops":1024.0,"bytes_in":128,"bytes_out":256,"weight_bytes":576,"output":[4,16]},"time_s":0.0001,"layer":0,"phase":"Forward","inputs":[907,12],"outputs":[40000000000]},
{"op":{"name":"fc.bwd","class":"Linear","flops":2048.0,"bytes_in":832,"bytes_out":704,"weight_bytes":576,"output":[2,2,2,2,2]},"time_s":0.0002,"layer":0,"phase":"Backward","inputs":[40000000000],"outputs":[5,3]}],
"tensors":{"records":{
"907":{"id":907,"category":"Input","shape":[4,8],"dtype":"F32"},
"12":{"id":12,"category":"Weight","shape":[1],"dtype":"F32"},
"40000000000":{"id":40000000000,"category":"Activation","shape":[4,16],"dtype":"F16"},
"5":{"id":5,"category":"Activation","shape":[2,2,2,2,2],"dtype":"BF16"},
"3":{"id":3,"category":"Gradient","shape":[0,16],"dtype":"F32"},
"12":{"id":12,"category":"Weight","shape":[16,8],"dtype":"F32"}},
"next_id":2}}"#;

/// `SPARSE` as `to_json()` writes it back.
const SPARSE_OUT: &str = concat!(
    r#"{"model":"sparse","batch":4,"gpu":"A100","entries":["#,
    r#"{"op":{"name":"fc","class":"Linear","flops":1024.0,"bytes_in":128,"bytes_out":256,"weight_bytes":576,"output":[4,16]},"time_s":0.0001,"layer":0,"phase":"Forward","inputs":[907,12],"outputs":[40000000000]},"#,
    r#"{"op":{"name":"fc.bwd","class":"Linear","flops":2048.0,"bytes_in":832,"bytes_out":704,"weight_bytes":576,"output":[2,2,2,2,2]},"time_s":0.0002,"layer":0,"phase":"Backward","inputs":[40000000000],"outputs":[5,3]}],"#,
    r#""tensors":{"records":{"#,
    r#""3":{"id":3,"category":"Gradient","shape":[0,16],"dtype":"F32"},"#,
    r#""5":{"id":5,"category":"Activation","shape":[2,2,2,2,2],"dtype":"BF16"},"#,
    r#""12":{"id":12,"category":"Weight","shape":[16,8],"dtype":"F32"},"#,
    r#""907":{"id":907,"category":"Input","shape":[4,8],"dtype":"F32"},"#,
    r#""40000000000":{"id":40000000000,"category":"Activation","shape":[4,16],"dtype":"F16"}},"#,
    r#""next_id":2}}"#
);

#[test]
fn sparse_out_of_order_trace_loads_and_keeps_its_bytes() {
    let trace = Trace::from_json(SPARSE).expect("loads");
    let table = trace.tensors();
    assert_eq!(table.len(), 5);
    let ids = [3, 5, 12, 907, 40_000_000_000];
    for id in ids {
        let record = table.get(TensorId(id)).expect("every tensor is found");
        assert_eq!(record.id, TensorId(id));
    }
    for missing in [0, 1, 2, 4, 13, 906, 908, 39_999_999_999, u64::MAX] {
        assert!(table.get(TensorId(missing)).is_none(), "t{missing}");
    }
    let order: Vec<u64> = table.iter().map(|r| r.id.0).collect();
    assert_eq!(order, ids, "records iterate in id order");
    let repeated = table.get(TensorId(12)).expect("t12");
    assert_eq!(
        repeated.shape.dims(),
        &[16, 8],
        "the last record of an id wins"
    );
    assert_eq!(table.get(TensorId(3)).expect("t3").bytes(), 0);
    assert_eq!(table.get(TensorId(5)).expect("t5").shape.rank(), 5);
    let json = trace.to_json().expect("serializes");
    assert_eq!(json, SPARSE_OUT);
    assert_eq!(Trace::from_json(&json).expect("reloads"), trace);
}

#[test]
fn a_loaded_table_registers_and_looks_up_by_key() {
    // A record is filed under its key, not its `id` field; registering
    // at an id the table holds replaces that record, and a fresh id
    // below the largest lands in order.
    let mut table: TensorTable = serde_json::from_str(
        r#"{"records":{"9":{"id":9,"category":"Input","shape":[2],"dtype":"F32"},
        "7":{"id":8,"category":"Weight","shape":[3],"dtype":"F32"}},"next_id":7}"#,
    )
    .expect("loads");
    assert_eq!(table.get(TensorId(7)).expect("t7").id, TensorId(8));
    assert!(table.get(TensorId(8)).is_none());
    let a = table.register(TensorCategory::Gradient, TensorShape::from([4]), DType::F16);
    let b = table.register(
        TensorCategory::Activation,
        TensorShape::from([5]),
        DType::F32,
    );
    assert_eq!((a, b), (TensorId(7), TensorId(8)));
    assert_eq!(table.len(), 3);
    let json = serde_json::to_string(&table).expect("serializes");
    assert_eq!(
        json,
        concat!(
            r#"{"records":{"7":{"id":7,"category":"Gradient","shape":[4],"dtype":"F16"},"#,
            r#""8":{"id":8,"category":"Activation","shape":[5],"dtype":"F32"},"#,
            r#""9":{"id":9,"category":"Input","shape":[2],"dtype":"F32"}},"next_id":9}"#
        )
    );
}

#[test]
fn shapes_round_trip_with_a_zero_dimension_and_at_rank_5() {
    for text in ["[4,0,2]", "[0]", "[2,3,4,5,6]", "[]"] {
        let shape: TensorShape = serde_json::from_str(text).expect("loads");
        assert_eq!(
            shape.rank(),
            text.matches(|c: char| c.is_ascii_digit()).count()
        );
        assert_eq!(serde_json::to_string(&shape).expect("serializes"), text);
    }
    let zero: TensorShape = serde_json::from_str("[4,0,2]").expect("loads");
    assert_eq!((zero.dims(), zero.numel()), (&[4, 0, 2][..], 0));
    let rank5 = TensorShape::from([2, 3, 4, 5, 6]);
    assert_eq!(
        serde_json::from_str::<TensorShape>("[2,3,4,5,6]").expect("loads"),
        rank5
    );
    for bad in ["[-1]", "[1.5]", "[\"2\"]", "{}", "3"] {
        assert!(serde_json::from_str::<TensorShape>(bad).is_err(), "{bad}");
    }
}
