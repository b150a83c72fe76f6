//! Run-scope observability for TrioSim-RS.
//!
//! The original TrioSim inherits AkitaRTM's real-time monitoring; this
//! crate is the equivalent layer for the Rust reproduction. It defines a
//! single [`Recorder`] contract that the simulator stack reports into —
//! spans (named intervals on named tracks), instant events, and metrics
//! (counters, gauges, histograms) — plus three sink implementations:
//!
//! * [`JsonlSink`] — one structured JSON event per line, for ad-hoc
//!   querying with line-oriented tools;
//! * [`ChromeTraceSink`] — a streaming Chrome trace-event writer whose
//!   output loads in Perfetto / `about:tracing`, with one thread per
//!   track and counter tracks for sampled gauges;
//! * [`PrometheusSink`] — a Prometheus text-format dump of every counter,
//!   gauge, and histogram observed during the run.
//!
//! All sink output is derived exclusively from *virtual* time and
//! deterministic simulation state: two runs of the same configuration
//! produce byte-identical files. Wall-clock time only ever reaches the
//! [`ProgressMonitor`], which writes human-oriented lines to stderr and is
//! never part of a deterministic artifact.
//!
//! A [`RunRecorder`] with no sinks reports [`Recorder::enabled`] as
//! `false`, so instrumented code can skip even the argument construction
//! when nobody is listening.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// Observability feeds the canonical report surface and the checkpoint
// layer: production code here must degrade through typed errors, never
// unwrap. Tests are exempt.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod attribution;
mod chrome;
mod jsonl;
mod progress;
mod prometheus;
pub mod selfprof;

pub use attribution::{
    merge_intervals, total_len, AttributionAccumulator, AttributionState, BottleneckReport,
    CriticalOp, DepTable, GpuBuckets, HotLink, IterationObservation, Straggler, TaskClass, TaskId,
    NOT_RUN, NO_TASK,
};
pub use chrome::ChromeTraceSink;
pub use jsonl::JsonlSink;
pub use progress::ProgressMonitor;
pub use prometheus::PrometheusSink;
pub use selfprof::{ProfSpan, SelfProfile, SelfProfiler};

use std::fmt;
use std::io;

use serde::Value;
use triosim_des::VirtualTime;

/// A typed attribute value attached to spans and instant events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttrValue<'a> {
    /// A string attribute.
    Str(&'a str),
    /// An unsigned integer attribute.
    U64(u64),
}

impl AttrValue<'_> {
    /// Lowers the attribute into the serde data model.
    pub fn to_value(&self) -> Value {
        match *self {
            AttrValue::Str(s) => Value::Str(s.to_string()),
            AttrValue::U64(v) => Value::UInt(v),
        }
    }
}

/// A named attribute: `(key, value)`.
pub type Attr<'a> = (&'a str, AttrValue<'a>);

/// Metric labels: `(key, value)` pairs identifying one series.
pub type Label<'a> = (&'a str, &'a str);

/// The observability contract the simulator stack reports into.
///
/// Implementations must be deterministic functions of the calls they
/// receive: no wall-clock reads, no ambient state. The executor invokes
/// [`finish`](Recorder::finish) exactly once, after the last event.
pub trait Recorder: fmt::Debug {
    /// Whether this recorder does anything. Instrumented code uses this
    /// to skip attribute construction entirely on the no-op path.
    fn enabled(&self) -> bool {
        true
    }

    /// Records a span named `name` on `track` from `begin` to `end`.
    fn span(
        &mut self,
        track: &str,
        name: &str,
        begin: VirtualTime,
        end: VirtualTime,
        attrs: &[Attr<'_>],
    );

    /// Records a zero-duration event on `track` at `now`.
    fn instant(&mut self, now: VirtualTime, track: &str, name: &str, attrs: &[Attr<'_>]);

    /// Adds `delta` to the counter series `name{labels}`.
    fn counter_add(&mut self, name: &str, labels: &[Label<'_>], delta: f64);

    /// Sets the gauge series `name{labels}` to `value` at `now` (sinks
    /// that keep time series record the sample; sinks that keep last
    /// values overwrite).
    fn gauge_set(&mut self, now: VirtualTime, name: &str, labels: &[Label<'_>], value: f64);

    /// Records one observation into the histogram series `name{labels}`.
    fn histogram_record(&mut self, name: &str, labels: &[Label<'_>], value: f64);

    /// Flushes and closes the sink.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error the sink encountered, including any
    /// deferred write error from earlier recording calls.
    fn finish(&mut self) -> io::Result<()>;
}

/// Fans every recording call out to a set of sinks.
///
/// This is the handle a run holds: build one, [`push`](RunRecorder::push)
/// whichever sinks the user asked for, and hand it to the simulator. With
/// no sinks it reports disabled, so the instrumentation skips itself.
#[derive(Debug, Default)]
pub struct RunRecorder {
    sinks: Vec<Box<dyn Recorder>>,
}

impl RunRecorder {
    /// Creates an empty recorder (disabled until a sink is added).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a sink.
    pub fn push(&mut self, sink: Box<dyn Recorder>) {
        self.sinks.push(sink);
    }

    /// Number of attached sinks.
    pub fn len(&self) -> usize {
        self.sinks.len()
    }

    /// True when no sinks are attached.
    pub fn is_empty(&self) -> bool {
        self.sinks.is_empty()
    }
}

impl Recorder for RunRecorder {
    fn enabled(&self) -> bool {
        !self.sinks.is_empty()
    }

    fn span(
        &mut self,
        track: &str,
        name: &str,
        begin: VirtualTime,
        end: VirtualTime,
        attrs: &[Attr<'_>],
    ) {
        for s in &mut self.sinks {
            s.span(track, name, begin, end, attrs);
        }
    }

    fn instant(&mut self, now: VirtualTime, track: &str, name: &str, attrs: &[Attr<'_>]) {
        for s in &mut self.sinks {
            s.instant(now, track, name, attrs);
        }
    }

    fn counter_add(&mut self, name: &str, labels: &[Label<'_>], delta: f64) {
        for s in &mut self.sinks {
            s.counter_add(name, labels, delta);
        }
    }

    fn gauge_set(&mut self, now: VirtualTime, name: &str, labels: &[Label<'_>], value: f64) {
        for s in &mut self.sinks {
            s.gauge_set(now, name, labels, value);
        }
    }

    fn histogram_record(&mut self, name: &str, labels: &[Label<'_>], value: f64) {
        for s in &mut self.sinks {
            s.histogram_record(name, labels, value);
        }
    }

    fn finish(&mut self) -> io::Result<()> {
        let mut first_err = None;
        for s in &mut self.sinks {
            if let Err(e) = s.finish() {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// Virtual time as Chrome-trace microseconds.
pub(crate) fn micros(t: VirtualTime) -> f64 {
    t.as_seconds() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_run_recorder_is_disabled() {
        let r = RunRecorder::new();
        assert!(!r.enabled());
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
    }

    #[test]
    fn run_recorder_fans_out_to_sinks() {
        let mut r = RunRecorder::new();
        r.push(Box::new(JsonlSink::new(Vec::new())));
        r.push(Box::new(JsonlSink::new(Vec::new())));
        assert!(r.enabled());
        assert_eq!(r.len(), 2);
        r.span(
            "gpu0",
            "conv",
            VirtualTime::ZERO,
            VirtualTime::from_millis(1.0),
            &[("layer", AttrValue::U64(3))],
        );
        assert!(r.finish().is_ok());
    }
}
