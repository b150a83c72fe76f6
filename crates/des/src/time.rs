//! Virtual time and duration types.
//!
//! Virtual time is kept as an integer number of femtoseconds so that the
//! event queue's ordering never suffers from floating-point drift. One
//! femtosecond of resolution is fine-grained enough that even a 1000 GB/s
//! link transferring a single byte advances time by a representable amount,
//! while `u64` still covers simulations of more than five virtual hours —
//! orders of magnitude beyond the multi-second training iterations TrioSim
//! targets.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// Femtoseconds per second.
const FS_PER_SEC: f64 = 1e15;

/// An instant in simulated (virtual) time.
///
/// `VirtualTime` is an absolute point on the simulation clock, measured in
/// femtoseconds since the start of the simulation. Use [`TimeSpan`] for
/// durations; the arithmetic between the two types is closed in the usual
/// affine way (`VirtualTime - VirtualTime = TimeSpan`,
/// `VirtualTime + TimeSpan = VirtualTime`).
///
/// # Example
///
/// ```rust
/// use triosim_des::{TimeSpan, VirtualTime};
///
/// let t0 = VirtualTime::ZERO;
/// let t1 = t0 + TimeSpan::from_micros(3.0);
/// assert_eq!(t1 - t0, TimeSpan::from_micros(3.0));
/// assert!(t1 > t0);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct VirtualTime(u64);

impl VirtualTime {
    /// The start of the simulation.
    pub const ZERO: VirtualTime = VirtualTime(0);

    /// The greatest representable instant; useful as an "infinity" sentinel
    /// when searching for the earliest of several candidate times.
    pub const MAX: VirtualTime = VirtualTime(u64::MAX);

    /// Creates an instant from raw femtoseconds.
    pub const fn from_femtos(fs: u64) -> Self {
        VirtualTime(fs)
    }

    /// Creates an instant `secs` seconds after simulation start.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_seconds(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "virtual time must be finite and non-negative, got {secs}"
        );
        VirtualTime((secs * FS_PER_SEC).round() as u64)
    }

    /// Creates an instant `ms` milliseconds after simulation start.
    ///
    /// # Panics
    ///
    /// Panics if `ms` is negative or not finite.
    pub fn from_millis(ms: f64) -> Self {
        Self::from_seconds(ms * 1e-3)
    }

    /// Creates an instant `us` microseconds after simulation start.
    ///
    /// # Panics
    ///
    /// Panics if `us` is negative or not finite.
    pub fn from_micros(us: f64) -> Self {
        Self::from_seconds(us * 1e-6)
    }

    /// Raw femtoseconds since simulation start.
    pub const fn as_femtos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start (lossy above ~2^53 fs, i.e. ~9 s of
    /// femtosecond-exact range; fine for reporting).
    pub fn as_seconds(self) -> f64 {
        self.0 as f64 / FS_PER_SEC
    }

    /// The later of two instants.
    pub fn max(self, other: Self) -> Self {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The earlier of two instants.
    pub fn min(self, other: Self) -> Self {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The span from `earlier` to `self`, saturating to zero if `earlier`
    /// is actually later.
    pub fn saturating_since(self, earlier: Self) -> TimeSpan {
        TimeSpan(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Display for VirtualTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.as_seconds();
        if s >= 1.0 {
            write!(f, "{s:.6}s")
        } else if s >= 1e-3 {
            write!(f, "{:.3}ms", s * 1e3)
        } else {
            write!(f, "{:.3}us", s * 1e6)
        }
    }
}

/// A length of simulated time (a duration on the virtual clock).
///
/// # Example
///
/// ```rust
/// use triosim_des::TimeSpan;
///
/// let transfer = TimeSpan::from_seconds(0.25);
/// let doubled = transfer * 2.0;
/// assert_eq!(doubled.as_seconds(), 0.5);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct TimeSpan(u64);

impl TimeSpan {
    /// The zero-length span.
    pub const ZERO: TimeSpan = TimeSpan(0);

    /// Creates a span from raw femtoseconds.
    pub const fn from_femtos(fs: u64) -> Self {
        TimeSpan(fs)
    }

    /// Creates a span of `secs` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_seconds(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "time span must be finite and non-negative, got {secs}"
        );
        TimeSpan((secs * FS_PER_SEC).round() as u64)
    }

    /// Creates a span of `ms` milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `ms` is negative or not finite.
    pub fn from_millis(ms: f64) -> Self {
        Self::from_seconds(ms * 1e-3)
    }

    /// Creates a span of `us` microseconds.
    ///
    /// # Panics
    ///
    /// Panics if `us` is negative or not finite.
    pub fn from_micros(us: f64) -> Self {
        Self::from_seconds(us * 1e-6)
    }

    /// Creates a span of `ns` nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `ns` is negative or not finite.
    pub fn from_nanos(ns: f64) -> Self {
        Self::from_seconds(ns * 1e-9)
    }

    /// Raw femtoseconds.
    pub const fn as_femtos(self) -> u64 {
        self.0
    }

    /// The span in seconds.
    pub fn as_seconds(self) -> f64 {
        self.0 as f64 / FS_PER_SEC
    }

    /// True if this span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The longer of two spans.
    pub fn max(self, other: Self) -> Self {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl fmt::Display for TimeSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        VirtualTime(self.0).fmt(f)
    }
}

impl Add<TimeSpan> for VirtualTime {
    type Output = VirtualTime;

    fn add(self, rhs: TimeSpan) -> VirtualTime {
        VirtualTime(
            self.0
                .checked_add(rhs.0)
                .expect("virtual time overflow: simulation ran past the representable horizon"),
        )
    }
}

impl AddAssign<TimeSpan> for VirtualTime {
    fn add_assign(&mut self, rhs: TimeSpan) {
        *self = *self + rhs;
    }
}

impl Sub<VirtualTime> for VirtualTime {
    type Output = TimeSpan;

    fn sub(self, rhs: VirtualTime) -> TimeSpan {
        TimeSpan(
            self.0
                .checked_sub(rhs.0)
                .expect("attempted to compute a negative time span"),
        )
    }
}

impl Add for TimeSpan {
    type Output = TimeSpan;

    fn add(self, rhs: TimeSpan) -> TimeSpan {
        TimeSpan(self.0.checked_add(rhs.0).expect("time span overflow"))
    }
}

impl AddAssign for TimeSpan {
    fn add_assign(&mut self, rhs: TimeSpan) {
        *self = *self + rhs;
    }
}

impl Sub for TimeSpan {
    type Output = TimeSpan;

    fn sub(self, rhs: TimeSpan) -> TimeSpan {
        TimeSpan(
            self.0
                .checked_sub(rhs.0)
                .expect("attempted to compute a negative time span"),
        )
    }
}

impl SubAssign for TimeSpan {
    fn sub_assign(&mut self, rhs: TimeSpan) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for TimeSpan {
    type Output = TimeSpan;

    fn mul(self, rhs: f64) -> TimeSpan {
        assert!(
            rhs.is_finite() && rhs >= 0.0,
            "time span scale factor must be finite and non-negative"
        );
        TimeSpan((self.0 as f64 * rhs).round() as u64)
    }
}

impl Mul<u64> for TimeSpan {
    type Output = TimeSpan;

    /// The span repeated `rhs` times, exactly.
    fn mul(self, rhs: u64) -> TimeSpan {
        TimeSpan(self.0.checked_mul(rhs).expect("time span overflow"))
    }
}

impl Div<f64> for TimeSpan {
    type Output = TimeSpan;

    fn div(self, rhs: f64) -> TimeSpan {
        assert!(
            rhs.is_finite() && rhs > 0.0,
            "time span divisor must be finite and positive"
        );
        TimeSpan((self.0 as f64 / rhs).round() as u64)
    }
}

impl Sum for TimeSpan {
    fn sum<I: Iterator<Item = TimeSpan>>(iter: I) -> TimeSpan {
        iter.fold(TimeSpan::ZERO, Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_round_trip() {
        let t = VirtualTime::from_seconds(1.5);
        assert!((t.as_seconds() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn affine_arithmetic() {
        let t0 = VirtualTime::from_seconds(1.0);
        let dt = TimeSpan::from_seconds(0.5);
        let t1 = t0 + dt;
        assert_eq!(t1 - t0, dt);
        assert_eq!(t0.saturating_since(t1), TimeSpan::ZERO);
    }

    #[test]
    fn ordering_is_total() {
        let a = VirtualTime::from_millis(1.0);
        let b = VirtualTime::from_millis(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn span_scaling() {
        let d = TimeSpan::from_seconds(2.0);
        assert_eq!((d * 0.5).as_seconds(), 1.0);
        assert_eq!((d / 4.0).as_seconds(), 0.5);
        let odd = TimeSpan::from_femtos(3);
        assert_eq!(odd * 1_000_000u64, TimeSpan::from_femtos(3_000_000));
    }

    #[test]
    fn span_sum() {
        let total: TimeSpan = (1..=4).map(|i| TimeSpan::from_seconds(i as f64)).sum();
        assert_eq!(total, TimeSpan::from_seconds(10.0));
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn negative_seconds_rejected() {
        let _ = VirtualTime::from_seconds(-1.0);
    }

    #[test]
    #[should_panic(expected = "negative time span")]
    fn negative_span_rejected() {
        let a = VirtualTime::from_seconds(1.0);
        let b = VirtualTime::from_seconds(2.0);
        let _ = a - b;
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", VirtualTime::from_seconds(2.0)), "2.000000s");
        assert_eq!(format!("{}", VirtualTime::from_millis(2.0)), "2.000ms");
        assert_eq!(format!("{}", VirtualTime::from_micros(2.0)), "2.000us");
    }

    #[test]
    fn millis_and_micros_constructors_agree() {
        assert_eq!(
            VirtualTime::from_millis(1.0),
            VirtualTime::from_micros(1000.0)
        );
        assert_eq!(TimeSpan::from_millis(1.0), TimeSpan::from_micros(1000.0));
        assert_eq!(TimeSpan::from_micros(1.0), TimeSpan::from_nanos(1000.0));
    }
}
