//! Periodic ticking, Akita-style.
//!
//! Akita components that poll state (progress monitors, AkitaRTM's
//! real-time view) are *ticking* components: they re-schedule themselves
//! at a fixed period until told to stop. [`Ticker`] packages that pattern
//! for [`EventQueue`](crate::EventQueue)-based simulators: it hands out
//! the next tick time and knows when to stop, leaving event delivery to
//! the owning loop.

use crate::time::{TimeSpan, VirtualTime};

/// A fixed-period tick source.
///
/// # Example
///
/// ```rust
/// use triosim_des::{EventQueue, TimeSpan, Ticker, VirtualTime};
///
/// #[derive(Debug, PartialEq)]
/// enum Ev {
///     Tick,
///     Done,
/// }
///
/// let mut q = EventQueue::new();
/// let mut ticker = Ticker::new(TimeSpan::from_millis(10.0));
/// q.schedule(ticker.first_tick(VirtualTime::ZERO), Ev::Tick);
/// q.schedule(VirtualTime::from_millis(35.0), Ev::Done);
///
/// let mut ticks = 0;
/// while let Some((now, ev)) = q.pop() {
///     match ev {
///         Ev::Tick => {
///             ticks += 1;
///             if let Some(next) = ticker.next_tick(now) {
///                 q.schedule(next, Ev::Tick);
///             }
///         }
///         Ev::Done => ticker.stop(),
///     }
/// }
/// assert_eq!(ticks, 4, "ticks at 10, 20, 30, 40 ms; stopped after Done");
/// ```
#[derive(Debug, Clone)]
pub struct Ticker {
    period: TimeSpan,
    stopped: bool,
    ticks: u64,
}

impl Ticker {
    /// Creates a ticker with the given period.
    ///
    /// # Panics
    ///
    /// Panics if the period is zero (it would flood the queue).
    pub fn new(period: TimeSpan) -> Self {
        assert!(!period.is_zero(), "tick period must be positive");
        Ticker {
            period,
            stopped: false,
            ticks: 0,
        }
    }

    /// The tick period.
    pub fn period(&self) -> TimeSpan {
        self.period
    }

    /// Number of ticks issued so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// The first tick time after `now`.
    pub fn first_tick(&mut self, now: VirtualTime) -> VirtualTime {
        self.ticks += 1;
        now + self.period
    }

    /// The next tick time, or `None` once stopped.
    pub fn next_tick(&mut self, now: VirtualTime) -> Option<VirtualTime> {
        if self.stopped {
            return None;
        }
        self.ticks += 1;
        Some(now + self.period)
    }

    /// Stops the ticker; subsequent [`next_tick`](Ticker::next_tick)
    /// calls return `None`.
    pub fn stop(&mut self) {
        self.stopped = true;
    }

    /// True once stopped.
    pub fn is_stopped(&self) -> bool {
        self.stopped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_count_and_stop() {
        let mut t = Ticker::new(TimeSpan::from_seconds(1.0));
        let t1 = t.first_tick(VirtualTime::ZERO);
        assert_eq!(t1, VirtualTime::from_seconds(1.0));
        assert_eq!(t.next_tick(t1), Some(VirtualTime::from_seconds(2.0)));
        assert_eq!(t.ticks(), 2);
        t.stop();
        assert!(t.is_stopped());
        assert_eq!(t.next_tick(t1), None);
        assert_eq!(t.ticks(), 2, "stopped ticker issues no ticks");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_period_rejected() {
        let _ = Ticker::new(TimeSpan::ZERO);
    }
}
