//! Streaming Chrome trace-event writer.
//!
//! Emits the JSON array flavor of the Trace Event Format — the same
//! format the PyTorch profiler exports — loadable in Perfetto and
//! `chrome://tracing`. Tracks map to threads of a single process (with
//! `thread_name` metadata so viewers show the track names), spans become
//! complete (`"X"`) events, and sampled gauges become counter (`"C"`)
//! tracks. Timestamps are virtual-time microseconds.

use std::fmt;
use std::io::{self, Write};

use serde::Value;
use triosim_des::VirtualTime;

use crate::{micros, Attr, Label, Recorder};

/// A streaming Chrome trace-event sink over any [`Write`] target.
///
/// # Example
///
/// ```rust
/// use triosim_des::VirtualTime;
/// use triosim_obs::{ChromeTraceSink, Recorder};
///
/// let mut sink = ChromeTraceSink::new(Vec::new());
/// sink.span("gpu0", "conv1", VirtualTime::ZERO, VirtualTime::from_millis(1.0), &[]);
/// sink.finish().unwrap();
/// let json = String::from_utf8(sink.into_inner()).unwrap();
/// assert!(json.starts_with('[') && json.trim_end().ends_with(']'));
/// ```
pub struct ChromeTraceSink<W: Write> {
    out: W,
    tracks: Vec<String>,
    any_written: bool,
    error: Option<io::Error>,
}

impl<W: Write> ChromeTraceSink<W> {
    /// Creates a sink writing a trace-event JSON array to `out`.
    pub fn new(out: W) -> Self {
        ChromeTraceSink {
            out,
            tracks: Vec::new(),
            any_written: false,
            error: None,
        }
    }

    /// Consumes the sink and returns the underlying writer.
    pub fn into_inner(self) -> W {
        self.out
    }

    fn emit(&mut self, event: Value) {
        if self.error.is_some() {
            return;
        }
        let sep = if self.any_written { ",\n" } else { "[" };
        let json = serde_json::to_string(&event).expect("trace events are finite");
        if let Err(e) = write!(self.out, "{sep}{json}") {
            self.error = Some(e);
            return;
        }
        self.any_written = true;
    }

    /// Resolves a track name to a tid, emitting `thread_name` metadata on
    /// first use.
    fn tid(&mut self, track: &str) -> usize {
        if let Some(i) = self.tracks.iter().position(|t| t == track) {
            return i;
        }
        let tid = self.tracks.len();
        self.tracks.push(track.to_string());
        self.emit(obj(vec![
            ("name", Value::Str("thread_name".into())),
            ("ph", Value::Str("M".into())),
            ("pid", Value::UInt(0)),
            ("tid", Value::UInt(tid as u64)),
            ("args", obj(vec![("name", Value::Str(track.into()))])),
        ]));
        tid
    }
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn args_obj(attrs: &[Attr<'_>]) -> Value {
    Value::Object(
        attrs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_value()))
            .collect(),
    )
}

/// One counter track per metric+labels combination, e.g.
/// `link_utilization[n0->n1]`.
fn counter_name(name: &str, labels: &[Label<'_>]) -> String {
    if labels.is_empty() {
        name.to_string()
    } else {
        let vals: Vec<&str> = labels.iter().map(|(_, v)| *v).collect();
        format!("{name}[{}]", vals.join(","))
    }
}

impl<W: Write> Recorder for ChromeTraceSink<W> {
    fn span(
        &mut self,
        track: &str,
        name: &str,
        begin: VirtualTime,
        end: VirtualTime,
        attrs: &[Attr<'_>],
    ) {
        let tid = self.tid(track);
        self.emit(obj(vec![
            ("name", Value::Str(name.into())),
            ("ph", Value::Str("X".into())),
            ("ts", Value::Float(micros(begin))),
            ("dur", Value::Float(micros(end) - micros(begin))),
            ("pid", Value::UInt(0)),
            ("tid", Value::UInt(tid as u64)),
            ("args", args_obj(attrs)),
        ]));
    }

    fn instant(&mut self, now: VirtualTime, track: &str, name: &str, attrs: &[Attr<'_>]) {
        let tid = self.tid(track);
        self.emit(obj(vec![
            ("name", Value::Str(name.into())),
            ("ph", Value::Str("i".into())),
            ("s", Value::Str("t".into())),
            ("ts", Value::Float(micros(now))),
            ("pid", Value::UInt(0)),
            ("tid", Value::UInt(tid as u64)),
            ("args", args_obj(attrs)),
        ]));
    }

    fn counter_add(&mut self, _name: &str, _labels: &[Label<'_>], _delta: f64) {
        // Cumulative counters live in the metrics sinks; the trace keeps
        // only sampled series (gauges), which render as counter tracks.
    }

    fn gauge_set(&mut self, now: VirtualTime, name: &str, labels: &[Label<'_>], value: f64) {
        self.emit(obj(vec![
            ("name", Value::Str(counter_name(name, labels))),
            ("ph", Value::Str("C".into())),
            ("ts", Value::Float(micros(now))),
            ("pid", Value::UInt(0)),
            ("args", obj(vec![("value", Value::Float(value))])),
        ]));
    }

    fn histogram_record(&mut self, _name: &str, _labels: &[Label<'_>], _value: f64) {}

    fn finish(&mut self) -> io::Result<()> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        if self.any_written {
            writeln!(self.out, "]")?;
        } else {
            writeln!(self.out, "[]")?;
        }
        self.out.flush()
    }
}

impl<W: Write> fmt::Debug for ChromeTraceSink<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChromeTraceSink")
            .field("tracks", &self.tracks)
            .field("errored", &self.error.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AttrValue;

    fn render(f: impl FnOnce(&mut ChromeTraceSink<Vec<u8>>)) -> (String, Value) {
        let mut sink = ChromeTraceSink::new(Vec::new());
        f(&mut sink);
        sink.finish().unwrap();
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let parsed = serde_json::from_str(text.trim()).expect("valid JSON array");
        (text, parsed)
    }

    #[test]
    fn spans_become_complete_events_with_thread_names() {
        let (text, parsed) = render(|s| {
            s.span(
                "gpu0",
                "conv1",
                VirtualTime::ZERO,
                VirtualTime::from_micros(10.0),
                &[("layer", AttrValue::U64(2))],
            );
        });
        let events = parsed.as_array().unwrap();
        // thread_name metadata + the span itself.
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("ph"), Some(&Value::Str("M".into())));
        assert_eq!(events[1].get("ph"), Some(&Value::Str("X".into())));
        assert_eq!(events[1].get("dur"), Some(&Value::Float(10.0)));
        assert!(text.contains("\"thread_name\""));
    }

    #[test]
    fn tracks_reuse_tids() {
        let (_, parsed) = render(|s| {
            s.span(
                "gpu0",
                "a",
                VirtualTime::ZERO,
                VirtualTime::from_micros(1.0),
                &[],
            );
            s.span(
                "gpu0",
                "b",
                VirtualTime::from_micros(1.0),
                VirtualTime::from_micros(2.0),
                &[],
            );
            s.span(
                "net",
                "c",
                VirtualTime::ZERO,
                VirtualTime::from_micros(1.0),
                &[],
            );
        });
        let events = parsed.as_array().unwrap();
        // 2 metadata + 3 spans.
        assert_eq!(events.len(), 5);
        let tids: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph") == Some(&Value::Str("X".into())))
            .map(|e| e.get("tid").cloned().unwrap())
            .collect();
        assert_eq!(tids, vec![Value::UInt(0), Value::UInt(0), Value::UInt(1)]);
    }

    #[test]
    fn gauges_render_as_counter_tracks() {
        let (_, parsed) = render(|s| {
            s.gauge_set(
                VirtualTime::from_micros(3.0),
                "link_utilization",
                &[("link", "n0->n1")],
                0.5,
            );
        });
        let events = parsed.as_array().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("ph"), Some(&Value::Str("C".into())));
        assert_eq!(
            events[0].get("name"),
            Some(&Value::Str("link_utilization[n0->n1]".into()))
        );
        assert_eq!(
            events[0].get("args").unwrap().get("value"),
            Some(&Value::Float(0.5))
        );
    }

    #[test]
    fn empty_trace_is_an_empty_array() {
        let (text, parsed) = render(|_| {});
        assert_eq!(text.trim(), "[]");
        assert_eq!(parsed.as_array().unwrap().len(), 0);
    }
}
