//! Per-run execution budgets: the runaway guards of the crash-safe
//! sweep layer.
//!
//! A single mis-specified scenario (a typo'd batch size that explodes the
//! task graph, a fault plan that strands a flow) must not be able to pin
//! a sweep worker forever. [`RunBudget`] caps a run along three axes:
//!
//! * **events** — delivered simulation events, the purest measure of
//!   work done;
//! * **simulated time** — virtual time reached, for workloads whose
//!   event count is fine but whose clock runs away;
//! * **wall clock** — a host-time deadline, the guard of last resort.
//!
//! The first two are deterministic: the same inputs trip them at exactly
//! the same event. The wall-clock deadline is inherently **not**
//! deterministic — it depends on host speed and load — which is why
//! callers that promise byte-identical output (the sweep's canonical
//! aggregate) must keep the wall-clock limit out of any canonical
//! serialization. To keep the guard cheap, the host clock is probed only
//! once every [`RunBudget::WALL_CHECK_PERIOD`] events; the event-count
//! and sim-time comparisons are two branch-predictable integer compares
//! per event.
//!
//! An unlimited budget ([`RunBudget::unlimited`], also the `Default`)
//! never trips and costs one `Option` discriminant test per event at the
//! enforcement site, so budget-free runs stay on their exact pre-budget
//! code path.

use std::fmt;
use std::time::{Duration, Instant};

use crate::fnv::{fnv1a, FNV_OFFSET};
use crate::time::VirtualTime;

/// Which budget axis a run exceeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BudgetKind {
    /// More events were delivered than `max_events` allows.
    Events,
    /// Virtual time passed the `max_sim_time_us` horizon.
    SimTime,
    /// The host clock passed the `wall_timeout_ms` deadline.
    WallClock,
}

impl fmt::Display for BudgetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BudgetKind::Events => "events",
            BudgetKind::SimTime => "sim_time",
            BudgetKind::WallClock => "wall_clock",
        })
    }
}

/// A per-run execution budget along three axes: delivered events and
/// simulated time, which trip at exactly the same event on every run,
/// and a host-time deadline, which does not and so must stay out of any
/// canonical serialization.
///
/// The wall-clock deadline is armed when
/// [`with_wall_timeout_ms`](RunBudget::with_wall_timeout_ms) is called,
/// so construct the budget when the run it guards actually starts.
#[derive(Debug, Clone, Default)]
pub struct RunBudget {
    max_events: Option<u64>,
    /// Limit plus the original microsecond figure for error reporting.
    max_sim_time: Option<(VirtualTime, u64)>,
    /// Deadline plus the original millisecond figure for error reporting.
    deadline: Option<(Instant, u64)>,
}

impl RunBudget {
    /// The host clock is probed once every this many events (must be a
    /// power of two; the check uses a mask).
    pub const WALL_CHECK_PERIOD: u64 = 256;

    /// A budget with no limits: [`check`](RunBudget::check) never trips.
    pub fn unlimited() -> Self {
        RunBudget::default()
    }

    /// Caps the number of delivered events.
    pub fn with_max_events(mut self, max: u64) -> Self {
        self.max_events = Some(max);
        self
    }

    /// Caps virtual time at `us` microseconds.
    pub fn with_max_sim_time_us(mut self, us: u64) -> Self {
        self.max_sim_time = Some((VirtualTime::from_micros(us as f64), us));
        self
    }

    /// Arms a wall-clock deadline `ms` milliseconds from **now** (the
    /// moment this method is called).
    pub fn with_wall_timeout_ms(mut self, ms: u64) -> Self {
        self.deadline = Some((Instant::now() + Duration::from_millis(ms), ms));
        self
    }

    /// True when no axis is limited.
    pub fn is_unlimited(&self) -> bool {
        self.max_events.is_none() && self.max_sim_time.is_none() && self.deadline.is_none()
    }

    /// True when an event-count or sim-time limit (a deterministic axis)
    /// is set.
    pub fn has_deterministic_axes(&self) -> bool {
        self.max_events.is_some() || self.max_sim_time.is_some()
    }

    /// A stable fingerprint of the deterministic axes (event cap and
    /// sim-time horizon), FNV-1a over their configured limits.
    ///
    /// Checkpoint specs fold this in so a snapshot taken under one budget
    /// is never restored under a different deterministic budget — the
    /// resumed run would trip (or fail to trip) at a different event than
    /// the uninterrupted oracle. The wall-clock deadline is deliberately
    /// excluded: it is host-dependent by design and is re-armed on
    /// restore.
    pub fn deterministic_fingerprint(&self) -> u64 {
        let events = self.max_events.map_or(0, |m| 1 + m);
        let sim_time = self.max_sim_time.map_or(0, |(_, us)| 1 + us);
        let h = fnv1a(FNV_OFFSET, &events.to_le_bytes());
        fnv1a(h, &sim_time.to_le_bytes())
    }

    /// Checks the budget against the run's progress: `events` delivered
    /// so far and virtual time `now`. Returns the tripped axis and its
    /// configured limit (events, µs, or ms respectively), or `None` while
    /// the run is within budget.
    ///
    /// The event that *would* exceed the budget trips the check — so with
    /// `max_events = N`, exactly `N` events are processed. The wall clock
    /// is probed only when `events % WALL_CHECK_PERIOD == 1` (including
    /// the very first event), keeping the common path free of syscalls.
    #[inline]
    pub fn check(&self, events: u64, now: VirtualTime) -> Option<(BudgetKind, u64)> {
        if let Some(max) = self.max_events {
            if events > max {
                return Some((BudgetKind::Events, max));
            }
        }
        if let Some((limit, us)) = self.max_sim_time {
            if now > limit {
                return Some((BudgetKind::SimTime, us));
            }
        }
        if events & (Self::WALL_CHECK_PERIOD - 1) == 1 {
            return self.check_wall();
        }
        None
    }

    /// Probes the wall-clock deadline now, whatever the event count:
    /// the tripped axis and its limit in ms, or `None` when no deadline
    /// is armed or it has not passed. For progress made without
    /// delivering events, such as iterations steady-state replay
    /// synthesizes.
    pub fn check_wall(&self) -> Option<(BudgetKind, u64)> {
        let (deadline, ms) = self.deadline?;
        (Instant::now() > deadline).then_some((BudgetKind::WallClock, ms))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let b = RunBudget::unlimited();
        assert!(b.is_unlimited());
        assert!(b.check(u64::MAX, VirtualTime::MAX).is_none());
    }

    #[test]
    fn event_budget_trips_past_the_limit() {
        let b = RunBudget::unlimited().with_max_events(10);
        assert!(!b.is_unlimited());
        assert!(b.check(10, VirtualTime::ZERO).is_none(), "at the limit");
        assert_eq!(
            b.check(11, VirtualTime::ZERO),
            Some((BudgetKind::Events, 10))
        );
    }

    #[test]
    fn sim_time_budget_trips_past_the_horizon() {
        let b = RunBudget::unlimited().with_max_sim_time_us(5);
        let at = |us: f64| VirtualTime::from_micros(us);
        assert!(b.check(1, at(5.0)).is_none(), "at the horizon");
        assert_eq!(b.check(1, at(5.1)), Some((BudgetKind::SimTime, 5)));
    }

    #[test]
    fn wall_clock_is_probed_sparsely() {
        // A deadline armed in the past trips, but only on probe events.
        let b = RunBudget::unlimited().with_wall_timeout_ms(0);
        std::thread::sleep(Duration::from_millis(2));
        assert!(b.check(2, VirtualTime::ZERO).is_none(), "not a probe event");
        assert_eq!(
            b.check(1, VirtualTime::ZERO),
            Some((BudgetKind::WallClock, 0)),
            "first event is a probe"
        );
        assert_eq!(
            b.check(RunBudget::WALL_CHECK_PERIOD + 1, VirtualTime::ZERO),
            Some((BudgetKind::WallClock, 0)),
            "every WALL_CHECK_PERIOD-th event probes"
        );
        assert_eq!(b.check_wall(), Some((BudgetKind::WallClock, 0)));
        assert_eq!(RunBudget::unlimited().check_wall(), None);
        assert_eq!(
            RunBudget::unlimited()
                .with_wall_timeout_ms(60_000)
                .check_wall(),
            None
        );
    }

    #[test]
    fn axes_report_in_fixed_order() {
        // When several axes are exceeded at once the event axis wins,
        // then sim time — deterministic axes before the wall clock.
        let b = RunBudget::unlimited()
            .with_max_events(1)
            .with_max_sim_time_us(1)
            .with_wall_timeout_ms(0);
        assert_eq!(
            b.check(5, VirtualTime::from_micros(9.0)),
            Some((BudgetKind::Events, 1))
        );
    }

    #[test]
    fn axis_splits_partition_the_budget() {
        let b = RunBudget::unlimited()
            .with_max_events(7)
            .with_max_sim_time_us(3)
            .with_wall_timeout_ms(60_000);
        assert!(b.has_deterministic_axes());
    }

    #[test]
    fn kind_displays_are_stable() {
        assert_eq!(BudgetKind::Events.to_string(), "events");
        assert_eq!(BudgetKind::SimTime.to_string(), "sim_time");
        assert_eq!(BudgetKind::WallClock.to_string(), "wall_clock");
    }
}
