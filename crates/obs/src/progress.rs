//! Live progress monitoring for long simulations.
//!
//! The one place in the observability layer where wall-clock time is
//! allowed: a throttled stderr reporter showing how far virtual time has
//! advanced, how fast the event loop is running, and how much network
//! traffic is in flight. Never part of a deterministic artifact — output
//! goes to stderr (or an injected writer in tests) and is advisory only.

use std::fmt;
use std::io::Write;
use std::time::{Duration, Instant};

use triosim_des::VirtualTime;

/// Minimum wall-clock interval between progress lines.
const DEFAULT_THROTTLE: Duration = Duration::from_millis(200);

/// A wall-clock-throttled progress reporter.
///
/// The executor calls [`sample`](ProgressMonitor::sample) at every
/// sample period; most calls return without printing. The final
/// [`report_done`](ProgressMonitor::report_done) line always prints.
pub struct ProgressMonitor {
    out: Box<dyn Write + Send>,
    started: Instant,
    last_print: Option<Instant>,
    last_events: u64,
    throttle: Duration,
    lines: u64,
}

impl ProgressMonitor {
    /// Creates a monitor reporting to stderr.
    pub fn new() -> Self {
        Self::with_writer(Box::new(std::io::stderr()))
    }

    /// Creates a monitor reporting to an arbitrary writer (tests).
    pub fn with_writer(out: Box<dyn Write + Send>) -> Self {
        ProgressMonitor {
            out,
            started: Instant::now(),
            last_print: None,
            last_events: 0,
            throttle: DEFAULT_THROTTLE,
            lines: 0,
        }
    }

    /// Overrides the minimum interval between lines (tests use zero).
    pub fn throttle(mut self, interval: Duration) -> Self {
        self.throttle = interval;
        self
    }

    /// Number of lines printed so far.
    pub fn lines_printed(&self) -> u64 {
        self.lines
    }

    /// Reports a sample; prints only if the throttle interval elapsed.
    pub fn sample(&mut self, sim_now: VirtualTime, events_delivered: u64, in_flight_flows: usize) {
        let now = Instant::now();
        let due = match self.last_print {
            None => true,
            Some(prev) => now.duration_since(prev) >= self.throttle,
        };
        if !due {
            return;
        }
        let window_s = self
            .last_print
            .unwrap_or(self.started)
            .elapsed()
            .as_secs_f64()
            .max(1e-9);
        let rate = (events_delivered.saturating_sub(self.last_events)) as f64 / window_s;
        let _ = writeln!(
            self.out,
            "progress: sim {} | {} events ({}/s) | {} flows in flight",
            fmt_sim_time(sim_now),
            events_delivered,
            fmt_rate(rate),
            in_flight_flows,
        );
        self.lines += 1;
        self.last_print = Some(now);
        self.last_events = events_delivered;
    }

    /// Prints the final line (always, regardless of throttling).
    pub fn report_done(&mut self, sim_now: VirtualTime, events_delivered: u64) {
        let wall = self.started.elapsed().as_secs_f64().max(1e-9);
        let _ = writeln!(
            self.out,
            "progress: done | sim {} | {} events in {:.2}s wall ({}/s)",
            fmt_sim_time(sim_now),
            events_delivered,
            wall,
            fmt_rate(events_delivered as f64 / wall),
        );
        self.lines += 1;
    }
}

impl Default for ProgressMonitor {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for ProgressMonitor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProgressMonitor")
            .field("lines", &self.lines)
            .field("throttle", &self.throttle)
            .finish()
    }
}

fn fmt_sim_time(t: VirtualTime) -> String {
    let s = t.as_seconds();
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else {
        format!("{:.1} us", s * 1e6)
    }
}

fn fmt_rate(r: f64) -> String {
    if r >= 1e6 {
        format!("{:.1}M ev", r / 1e6)
    } else if r >= 1e3 {
        format!("{:.1}k ev", r / 1e3)
    } else {
        format!("{r:.0} ev")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    #[derive(Clone, Default)]
    struct Shared(Arc<Mutex<Vec<u8>>>);

    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn throttling_suppresses_rapid_samples() {
        let buf = Shared::default();
        let mut m =
            ProgressMonitor::with_writer(Box::new(buf.clone())).throttle(Duration::from_secs(3600));
        m.sample(VirtualTime::from_millis(1.0), 10, 2);
        m.sample(VirtualTime::from_millis(2.0), 20, 1);
        m.sample(VirtualTime::from_millis(3.0), 30, 0);
        assert_eq!(m.lines_printed(), 1, "only the first sample prints");
        m.report_done(VirtualTime::from_millis(3.0), 30);
        assert_eq!(m.lines_printed(), 2, "the final line always prints");
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert!(text.contains("progress: sim 1.000 ms"), "{text}");
        assert!(text.contains("progress: done"), "{text}");
        assert!(text.contains("flows in flight"), "{text}");
    }

    #[test]
    fn zero_throttle_prints_everything() {
        let buf = Shared::default();
        let mut m = ProgressMonitor::with_writer(Box::new(buf.clone())).throttle(Duration::ZERO);
        m.sample(VirtualTime::from_micros(5.0), 1, 0);
        m.sample(VirtualTime::from_seconds(2.0), 2, 0);
        assert_eq!(m.lines_printed(), 2);
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert!(text.contains("5.0 us"), "{text}");
        assert!(text.contains("2.000 s"), "{text}");
    }
}
