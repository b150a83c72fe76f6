//! Daisen-style timeline visualization.
//!
//! The original TrioSim inherits Daisen (a GPU-execution visualization
//! framework) through the Akita ecosystem. This module renders a
//! [`SimReport`]'s timeline as a single self-contained HTML file — an SVG
//! Gantt chart with one lane per GPU plus a network lane, hover tooltips,
//! and a phase-colored legend — viewable in any browser with no
//! dependencies.

use std::fmt::Write as _;

use crate::report::{SimReport, TimelineRecord, TimelineTrack};

/// Category a timeline record is colored by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lane {
    Forward,
    Backward,
    Optimizer,
    Transfer,
    Other,
}

impl Lane {
    fn of(r: TimelineRecord<'_>) -> Lane {
        if r.track == TimelineTrack::Network {
            return Lane::Transfer;
        }
        if r.label.contains(".bwd") {
            Lane::Backward
        } else if r.label.contains(".sgd") {
            Lane::Optimizer
        } else if r.label.contains('@') || r.label.contains(".fwd") {
            Lane::Forward
        } else {
            Lane::Other
        }
    }

    fn color(self) -> &'static str {
        match self {
            Lane::Forward => "#4c9ac0",
            Lane::Backward => "#c0704c",
            Lane::Optimizer => "#8bc04c",
            Lane::Transfer => "#9b6fc0",
            Lane::Other => "#9aa0a6",
        }
    }

    fn name(self) -> &'static str {
        match self {
            Lane::Forward => "forward",
            Lane::Backward => "backward",
            Lane::Optimizer => "optimizer",
            Lane::Transfer => "transfer",
            Lane::Other => "other",
        }
    }
}

fn escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
        .replace('\'', "&#39;")
}

/// Renders the report's timeline as a standalone HTML document.
///
/// One horizontal lane per GPU plus a network lane; spans are colored by
/// phase (forward / backward / optimizer / transfer) with the task label
/// and timing in a hover tooltip.
///
/// # Example
///
/// ```rust
/// use triosim::{render_html_timeline, Parallelism, Platform, SimBuilder};
/// use triosim_modelzoo::ModelId;
/// use triosim_trace::{GpuModel, Tracer};
///
/// let trace = Tracer::new(GpuModel::A100).trace(&ModelId::ResNet18.build(8));
/// let report = SimBuilder::new(&trace, &Platform::p2(2))
///     .parallelism(Parallelism::Pipeline { chunks: 2 })
///     .run();
/// let html = render_html_timeline(&report, "ResNet-18 GPipe x2");
/// assert!(html.contains("<svg"));
/// assert!(html.contains("GPU 0"));
/// ```
pub fn render_html_timeline(report: &SimReport, title: &str) -> String {
    let total = report.total_time_s().max(1e-12);
    let gpus = report.per_gpu_compute().len();
    const WIDTH: f64 = 1200.0;
    const LANE_H: f64 = 28.0;
    const LANE_GAP: f64 = 8.0;
    const LEFT: f64 = 70.0;
    let lanes = gpus + 1; // + network
    let height = lanes as f64 * (LANE_H + LANE_GAP) + 60.0;

    let mut svg = String::new();
    // Lane backgrounds and labels.
    for lane in 0..lanes {
        let y = 30.0 + lane as f64 * (LANE_H + LANE_GAP);
        let label = if lane < gpus {
            format!("GPU {lane}")
        } else {
            "network".to_string()
        };
        let _ = write!(
            svg,
            r##"<rect x="{LEFT}" y="{y}" width="{WIDTH}" height="{LANE_H}" fill="#f2f3f5"/><text x="4" y="{ty}" font-size="12" fill="#333">{label}</text>"##,
            ty = y + LANE_H / 2.0 + 4.0,
        );
    }
    // Spans.
    for r in report.timeline().iter() {
        let lane = match r.track {
            TimelineTrack::Gpu(g) => g,
            TimelineTrack::Network => gpus,
        };
        let x = LEFT + WIDTH * r.start.as_seconds() / total;
        let w = (WIDTH * (r.end - r.start).as_seconds() / total).max(0.5);
        let y = 30.0 + lane as f64 * (LANE_H + LANE_GAP) + 2.0;
        let kind = Lane::of(r);
        let tip = format!(
            "{} [{:.3}..{:.3} ms]",
            escape(r.label),
            r.start.as_seconds() * 1e3,
            r.end.as_seconds() * 1e3
        );
        let _ = write!(
            svg,
            r##"<rect x="{x:.2}" y="{y:.2}" width="{w:.2}" height="{h:.2}" fill="{color}" opacity="0.9"><title>{tip}</title></rect>"##,
            h = LANE_H - 4.0,
            color = kind.color(),
        );
    }
    // Time axis ticks (5 divisions).
    for i in 0..=5 {
        let x = LEFT + WIDTH * i as f64 / 5.0;
        let t_ms = total * 1e3 * i as f64 / 5.0;
        let _ = write!(
            svg,
            r##"<line x1="{x}" y1="25" x2="{x}" y2="{yb}" stroke="#ccc" stroke-dasharray="2,3"/><text x="{x}" y="18" font-size="11" text-anchor="middle" fill="#555">{t_ms:.1} ms</text>"##,
            yb = height - 30.0,
        );
    }
    // Legend.
    let mut legend = String::new();
    for (i, kind) in [
        Lane::Forward,
        Lane::Backward,
        Lane::Optimizer,
        Lane::Transfer,
    ]
    .into_iter()
    .enumerate()
    {
        let x = LEFT + i as f64 * 130.0;
        let y = height - 18.0;
        let _ = write!(
            legend,
            r##"<rect x="{x}" y="{ry}" width="12" height="12" fill="{c}"/><text x="{tx}" y="{y}" font-size="12" fill="#333">{n}</text>"##,
            ry = y - 11.0,
            c = kind.color(),
            tx = x + 16.0,
            n = kind.name(),
        );
    }

    format!(
        r##"<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>{title}</title></head>
<body style="font-family:sans-serif;margin:16px">
<h2 style="margin:0 0 4px 0">{title}</h2>
<p style="margin:0 0 12px 0;color:#555">total {total_ms:.2} ms &middot; compute (max GPU) {comp_ms:.2} ms &middot; communication {comm_ms:.2} ms ({ratio:.0}%) &middot; {tasks} tasks &middot; hover spans for detail</p>
<svg width="{svg_w}" height="{height}" xmlns="http://www.w3.org/2000/svg">{svg}{legend}</svg>
</body></html>
"##,
        title = escape(title),
        total_ms = total * 1e3,
        comp_ms = report.compute_time_s() * 1e3,
        comm_ms = report.comm_time_s() * 1e3,
        ratio = 100.0 * report.comm_ratio(),
        tasks = report.tasks_executed(),
        svg_w = LEFT + WIDTH + 10.0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Parallelism, Platform, SimBuilder};
    use triosim_modelzoo::ModelId;
    use triosim_trace::{GpuModel, Tracer};

    fn sample_report() -> SimReport {
        let trace = Tracer::new(GpuModel::A100).trace(&ModelId::ResNet18.build(4));
        SimBuilder::new(&trace, &Platform::p2(2))
            .parallelism(Parallelism::DataParallel { overlap: true })
            .run()
    }

    #[test]
    fn html_contains_all_lanes_and_legend() {
        let html = render_html_timeline(&sample_report(), "test run");
        assert!(html.contains("GPU 0") && html.contains("GPU 1"));
        assert!(html.contains(">network<"));
        for name in ["forward", "backward", "optimizer", "transfer"] {
            assert!(html.contains(name), "legend misses {name}");
        }
        assert!(html.starts_with("<!DOCTYPE html>"));
    }

    #[test]
    fn spans_scale_to_the_total() {
        let report = sample_report();
        let html = render_html_timeline(&report, "t");
        // One tooltip-bearing span per timeline record (the head's
        // <title> tag is not a span).
        let count = html.matches(r#"opacity="0.9""#).count();
        assert_eq!(count, report.timeline().len());
    }

    #[test]
    fn labels_are_escaped() {
        let html = render_html_timeline(&sample_report(), "a<b>&c");
        assert!(html.contains("a&lt;b&gt;&amp;c"));
        assert!(!html.contains("<b>&c"));
    }

    #[test]
    fn quotes_are_escaped_in_attribute_context() {
        // A hostile label must not be able to break out of the title=""
        // attribute the span labels are interpolated into.
        let html = render_html_timeline(&sample_report(), r#"x" onmouseover="alert('p0wn')"#);
        assert!(!html.contains(r#"x" onmouseover"#), "quote escaped");
        assert!(html.contains("&quot;"));
        assert!(html.contains("&#39;"));
    }

    #[test]
    fn phase_classification() {
        let trace = Tracer::new(GpuModel::A100).trace(&ModelId::Vgg11.build(4));
        let report = SimBuilder::new(&trace, &Platform::p2(2))
            .parallelism(Parallelism::DataParallel { overlap: false })
            .run();
        let html = render_html_timeline(&report, "phases");
        // All four phase colors appear (fwd, bwd, opt, transfer).
        for color in ["#4c9ac0", "#c0704c", "#8bc04c", "#9b6fc0"] {
            assert!(html.contains(color), "missing {color}");
        }
    }
}
