//! Structured JSONL event log: one JSON object per line.
//!
//! Timestamps are raw femtoseconds of virtual time (`*_fs` fields), the
//! simulator's native unit, so the log is exact and byte-deterministic.

use std::fmt;
use std::io::{self, Write};

use serde::Value;
use triosim_des::VirtualTime;

use crate::{Attr, Label, Recorder};

/// A streaming JSONL sink over any [`Write`] target.
///
/// # Example
///
/// ```rust
/// use triosim_des::VirtualTime;
/// use triosim_obs::{JsonlSink, Recorder};
///
/// let mut sink = JsonlSink::new(Vec::new());
/// sink.counter_add("events_total", &[("kind", "compute")], 1.0);
/// sink.finish().unwrap();
/// let text = String::from_utf8(sink.into_inner()).unwrap();
/// assert!(text.contains("\"events_total\""));
/// ```
pub struct JsonlSink<W: Write> {
    out: W,
    error: Option<io::Error>,
}

impl<W: Write> JsonlSink<W> {
    /// Creates a sink writing JSONL records to `out`.
    pub fn new(out: W) -> Self {
        JsonlSink { out, error: None }
    }

    /// Consumes the sink and returns the underlying writer.
    pub fn into_inner(self) -> W {
        self.out
    }

    fn emit(&mut self, record: Value) {
        if self.error.is_some() {
            return;
        }
        let line = serde_json::to_string(&record).expect("observability records are finite");
        if let Err(e) = writeln!(self.out, "{line}") {
            self.error = Some(e);
        }
    }
}

fn attr_obj(attrs: &[Attr<'_>]) -> Value {
    Value::Object(
        attrs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_value()))
            .collect(),
    )
}

fn label_obj(labels: &[Label<'_>]) -> Value {
    Value::Object(
        labels
            .iter()
            .map(|(k, v)| (k.to_string(), Value::Str(v.to_string())))
            .collect(),
    )
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

impl<W: Write> Recorder for JsonlSink<W> {
    fn span(
        &mut self,
        track: &str,
        name: &str,
        begin: VirtualTime,
        end: VirtualTime,
        attrs: &[Attr<'_>],
    ) {
        self.emit(obj(vec![
            ("ev", Value::Str("span".into())),
            ("begin_fs", Value::UInt(begin.as_femtos())),
            ("end_fs", Value::UInt(end.as_femtos())),
            ("track", Value::Str(track.into())),
            ("name", Value::Str(name.into())),
            ("attrs", attr_obj(attrs)),
        ]));
    }

    fn instant(&mut self, now: VirtualTime, track: &str, name: &str, attrs: &[Attr<'_>]) {
        self.emit(obj(vec![
            ("ev", Value::Str("instant".into())),
            ("t_fs", Value::UInt(now.as_femtos())),
            ("track", Value::Str(track.into())),
            ("name", Value::Str(name.into())),
            ("attrs", attr_obj(attrs)),
        ]));
    }

    fn counter_add(&mut self, name: &str, labels: &[Label<'_>], delta: f64) {
        self.emit(obj(vec![
            ("ev", Value::Str("counter".into())),
            ("name", Value::Str(name.into())),
            ("labels", label_obj(labels)),
            ("delta", Value::Float(delta)),
        ]));
    }

    fn gauge_set(&mut self, now: VirtualTime, name: &str, labels: &[Label<'_>], value: f64) {
        self.emit(obj(vec![
            ("ev", Value::Str("gauge".into())),
            ("t_fs", Value::UInt(now.as_femtos())),
            ("name", Value::Str(name.into())),
            ("labels", label_obj(labels)),
            ("value", Value::Float(value)),
        ]));
    }

    fn histogram_record(&mut self, name: &str, labels: &[Label<'_>], value: f64) {
        self.emit(obj(vec![
            ("ev", Value::Str("histogram".into())),
            ("name", Value::Str(name.into())),
            ("labels", label_obj(labels)),
            ("value", Value::Float(value)),
        ]));
    }

    fn finish(&mut self) -> io::Result<()> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.out.flush()
    }
}

impl<W: Write> fmt::Debug for JsonlSink<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JsonlSink")
            .field("errored", &self.error.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(sink: JsonlSink<Vec<u8>>) -> Vec<Value> {
        String::from_utf8(sink.into_inner())
            .unwrap()
            .lines()
            .map(|l| serde_json::from_str(l).expect("every line is valid JSON"))
            .collect()
    }

    #[test]
    fn records_are_one_json_object_per_line() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.span(
            "gpu0",
            "conv1",
            VirtualTime::ZERO,
            VirtualTime::from_millis(2.0),
            &[("layer", crate::AttrValue::U64(1))],
        );
        sink.gauge_set(VirtualTime::from_millis(1.0), "queue_depth", &[], 3.0);
        sink.counter_add("events_total", &[("kind", "compute")], 1.0);
        sink.finish().unwrap();

        let records = lines(sink);
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].get("ev"), Some(&Value::Str("span".into())));
        assert_eq!(records[0].get("track"), Some(&Value::Str("gpu0".into())));
        assert_eq!(
            records[0].get("end_fs"),
            Some(&Value::UInt(VirtualTime::from_millis(2.0).as_femtos()))
        );
        assert_eq!(records[1].get("ev"), Some(&Value::Str("gauge".into())));
        assert_eq!(records[2].get("ev"), Some(&Value::Str("counter".into())));
        let labels = records[2].get("labels").unwrap();
        assert_eq!(labels.get("kind"), Some(&Value::Str("compute".into())));
    }
}
