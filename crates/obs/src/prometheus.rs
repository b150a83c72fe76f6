//! Prometheus text-format metrics dump.
//!
//! Counters, gauges, and histograms accumulate in sorted registries
//! during the run and serialize once, at [`finish`](crate::Recorder::finish),
//! in the Prometheus exposition format. Every map is a `BTreeMap` and
//! label sets are sorted by key, so the dump is byte-deterministic.

use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Write};

use triosim_des::VirtualTime;

use crate::{Attr, Label, Recorder};

/// Histogram bucket upper bounds, in the metric's native unit (the
/// simulator records durations in seconds).
const BUCKET_BOUNDS: [f64; 10] = [1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0];

#[derive(Debug, Clone, Default)]
struct Histogram {
    buckets: [u64; BUCKET_BOUNDS.len()],
    sum: f64,
    count: u64,
}

/// An accumulating metrics registry that dumps Prometheus text.
///
/// # Example
///
/// ```rust
/// use triosim_obs::{PrometheusSink, Recorder};
///
/// let mut sink = PrometheusSink::new(Vec::new());
/// sink.counter_add("triosim_events_total", &[("kind", "compute")], 5.0);
/// sink.finish().unwrap();
/// let text = String::from_utf8(sink.into_inner()).unwrap();
/// assert!(text.contains("# TYPE triosim_events_total counter"));
/// assert!(text.contains("triosim_events_total{kind=\"compute\"} 5"));
/// ```
pub struct PrometheusSink<W: Write> {
    out: W,
    counters: BTreeMap<String, BTreeMap<String, f64>>,
    gauges: BTreeMap<String, BTreeMap<String, f64>>,
    histograms: BTreeMap<String, BTreeMap<String, Histogram>>,
}

impl<W: Write> PrometheusSink<W> {
    /// Creates a sink that dumps the registry to `out` at finish.
    pub fn new(out: W) -> Self {
        PrometheusSink {
            out,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
        }
    }

    /// Consumes the sink and returns the underlying writer.
    pub fn into_inner(self) -> W {
        self.out
    }

    /// Number of distinct series currently registered (each histogram
    /// series counts once).
    pub fn series_count(&self) -> usize {
        self.counters.values().map(BTreeMap::len).sum::<usize>()
            + self.gauges.values().map(BTreeMap::len).sum::<usize>()
            + self.histograms.values().map(BTreeMap::len).sum::<usize>()
    }
}

/// Canonical label string: keys sorted, values escaped.
fn label_string(labels: &[Label<'_>]) -> String {
    let mut sorted: Vec<&Label<'_>> = labels.iter().collect();
    sorted.sort_by_key(|(k, _)| *k);
    sorted
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect::<Vec<_>>()
        .join(",")
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn fmt_value(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

fn series_line(name: &str, labels: &str, value: String) -> String {
    if labels.is_empty() {
        format!("{name} {value}\n")
    } else {
        format!("{name}{{{labels}}} {value}\n")
    }
}

/// Appends `extra` (e.g. `le="..."`) to an existing label string.
fn with_extra(labels: &str, extra: &str) -> String {
    if labels.is_empty() {
        extra.to_string()
    } else {
        format!("{labels},{extra}")
    }
}

impl<W: Write> Recorder for PrometheusSink<W> {
    fn span(&mut self, _: &str, _: &str, _: VirtualTime, _: VirtualTime, _: &[Attr<'_>]) {}

    fn instant(&mut self, _: VirtualTime, _: &str, _: &str, _: &[Attr<'_>]) {}

    fn counter_add(&mut self, name: &str, labels: &[Label<'_>], delta: f64) {
        *self
            .counters
            .entry(name.to_string())
            .or_default()
            .entry(label_string(labels))
            .or_insert(0.0) += delta;
    }

    fn gauge_set(&mut self, _: VirtualTime, name: &str, labels: &[Label<'_>], value: f64) {
        self.gauges
            .entry(name.to_string())
            .or_default()
            .insert(label_string(labels), value);
    }

    fn histogram_record(&mut self, name: &str, labels: &[Label<'_>], value: f64) {
        let h = self
            .histograms
            .entry(name.to_string())
            .or_default()
            .entry(label_string(labels))
            .or_default();
        for (i, bound) in BUCKET_BOUNDS.iter().enumerate() {
            if value <= *bound {
                h.buckets[i] += 1;
            }
        }
        h.sum += value;
        h.count += 1;
    }

    fn finish(&mut self) -> io::Result<()> {
        let mut text = String::new();
        for (name, series) in &self.counters {
            text.push_str(&format!("# TYPE {name} counter\n"));
            for (labels, value) in series {
                text.push_str(&series_line(name, labels, fmt_value(*value)));
            }
        }
        for (name, series) in &self.gauges {
            text.push_str(&format!("# TYPE {name} gauge\n"));
            for (labels, value) in series {
                text.push_str(&series_line(name, labels, fmt_value(*value)));
            }
        }
        for (name, series) in &self.histograms {
            text.push_str(&format!("# TYPE {name} histogram\n"));
            for (labels, h) in series {
                for (i, bound) in BUCKET_BOUNDS.iter().enumerate() {
                    let le = with_extra(labels, &format!("le=\"{}\"", fmt_value(*bound)));
                    text.push_str(&series_line(
                        &format!("{name}_bucket"),
                        &le,
                        fmt_value(h.buckets[i] as f64),
                    ));
                }
                let le = with_extra(labels, "le=\"+Inf\"");
                text.push_str(&series_line(
                    &format!("{name}_bucket"),
                    &le,
                    fmt_value(h.count as f64),
                ));
                text.push_str(&series_line(
                    &format!("{name}_sum"),
                    labels,
                    fmt_value(h.sum),
                ));
                text.push_str(&series_line(
                    &format!("{name}_count"),
                    labels,
                    fmt_value(h.count as f64),
                ));
            }
        }
        self.out.write_all(text.as_bytes())?;
        self.out.flush()
    }
}

impl<W: Write> fmt::Debug for PrometheusSink<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PrometheusSink")
            .field("series", &self.series_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dump(f: impl FnOnce(&mut PrometheusSink<Vec<u8>>)) -> String {
        let mut sink = PrometheusSink::new(Vec::new());
        f(&mut sink);
        sink.finish().unwrap();
        String::from_utf8(sink.into_inner()).unwrap()
    }

    #[test]
    fn counters_accumulate_per_series() {
        let text = dump(|s| {
            s.counter_add("ev_total", &[("kind", "a")], 1.0);
            s.counter_add("ev_total", &[("kind", "a")], 2.0);
            s.counter_add("ev_total", &[("kind", "b")], 1.0);
        });
        assert!(text.contains("# TYPE ev_total counter\n"));
        assert!(text.contains("ev_total{kind=\"a\"} 3\n"));
        assert!(text.contains("ev_total{kind=\"b\"} 1\n"));
    }

    #[test]
    fn gauges_keep_last_value_and_sort_labels() {
        let text = dump(|s| {
            s.gauge_set(VirtualTime::ZERO, "depth", &[], 5.0);
            s.gauge_set(VirtualTime::from_millis(1.0), "depth", &[], 2.0);
            s.gauge_set(VirtualTime::ZERO, "util", &[("z", "1"), ("a", "2")], 0.5);
        });
        assert!(text.contains("depth 2\n"));
        assert!(text.contains("util{a=\"2\",z=\"1\"} 0.5\n"), "{text}");
    }

    #[test]
    fn histograms_emit_buckets_sum_count() {
        let text = dump(|s| {
            s.histogram_record("dur_seconds", &[], 5e-4);
            s.histogram_record("dur_seconds", &[], 2.0);
        });
        assert!(text.contains("# TYPE dur_seconds histogram\n"));
        assert!(text.contains("dur_seconds_bucket{le=\"0.001\"} 1\n"));
        assert!(text.contains("dur_seconds_bucket{le=\"10\"} 2\n"));
        assert!(text.contains("dur_seconds_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("dur_seconds_count 2\n"));
        assert!(text.contains("dur_seconds_sum 2.0005\n"));
    }

    #[test]
    fn label_values_escape_quotes() {
        let text = dump(|s| {
            s.counter_add("c", &[("op", "a\"b\\c")], 1.0);
        });
        assert!(text.contains("c{op=\"a\\\"b\\\\c\"} 1\n"), "{text}");
    }

    #[test]
    fn series_count_spans_all_kinds() {
        let mut sink = PrometheusSink::new(Vec::new());
        sink.counter_add("a", &[], 1.0);
        sink.counter_add("a", &[("k", "v")], 1.0);
        sink.gauge_set(VirtualTime::ZERO, "b", &[], 1.0);
        sink.histogram_record("c", &[], 1.0);
        assert_eq!(sink.series_count(), 4);
    }
}
