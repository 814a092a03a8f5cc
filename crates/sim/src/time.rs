//! Virtual time: [`SimTime`] (an instant) and [`SimDuration`] (a span).
//!
//! Both are nanosecond-precision `u64` newtypes. A `u64` of nanoseconds
//! covers ~584 years of simulated time, far beyond any experiment here
//! (sessions are minutes long). All arithmetic is checked in debug builds
//! via the standard `+`/`-` operator semantics on `u64`.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Nanoseconds per second, as used throughout the time types.
pub(crate) const NANOS_PER_SEC: u64 = 1_000_000_000;

/// An instant on the simulation clock, measured in nanoseconds since the
/// start of the simulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant; used as an "infinitely far"
    /// sentinel for deadlines that are never expected to fire.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds since the epoch.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from whole microseconds since the epoch.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Construct from whole milliseconds since the epoch.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Construct from whole seconds since the epoch.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * NANOS_PER_SEC)
    }

    /// Construct from fractional seconds since the epoch.
    ///
    /// Negative or non-finite inputs saturate to zero; this keeps trace
    /// ingestion (which may carry tiny negative rounding noise) total.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimTime::ZERO;
        }
        SimTime((s * NANOS_PER_SEC as f64).round() as u64)
    }

    /// Raw nanoseconds since the epoch.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds since the epoch.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Time elapsed since `earlier`, saturating to zero if `earlier` is in
    /// the future (callers comparing estimates against schedules rely on
    /// this never panicking).
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// A zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The greatest representable span; "no deadline" sentinel.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * NANOS_PER_SEC)
    }

    /// Construct from fractional seconds, saturating at zero for negative
    /// or non-finite inputs.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((s * NANOS_PER_SEC as f64).round() as u64)
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Fractional milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// True if the span is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Scale by a non-negative float (used for the scheduler's `α·D` target
    /// window). Saturates at the representable maximum.
    #[inline]
    pub fn mul_f64(self, k: f64) -> SimDuration {
        if !k.is_finite() || k <= 0.0 {
            return SimDuration::ZERO;
        }
        let scaled = self.0 as f64 * k;
        if scaled >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration(scaled.round() as u64)
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Panics in debug if `rhs > self`; use [`SimTime::saturating_since`]
    /// when the ordering is not guaranteed.
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_secs(3).as_nanos(), 3 * NANOS_PER_SEC);
        assert_eq!(SimTime::from_millis(1500).as_secs_f64(), 1.5);
        assert_eq!(SimTime::from_micros(250).as_nanos(), 250_000);
        assert_eq!(SimDuration::from_secs(2).as_millis_f64(), 2000.0);
    }

    #[test]
    fn fractional_seconds_round() {
        let t = SimTime::from_secs_f64(0.123_456_789);
        assert_eq!(t.as_nanos(), 123_456_789);
        assert!((t.as_secs_f64() - 0.123456789).abs() < 1e-12);
    }

    #[test]
    fn negative_and_nan_saturate_to_zero() {
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::NAN), SimTime::ZERO);
        assert_eq!(SimDuration::from_secs_f64(-0.5), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::ZERO);
    }

    #[test]
    fn instant_arithmetic() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_secs(3);
        assert_eq!(t + d, SimTime::from_secs(13));
        assert_eq!(t - d, SimTime::from_secs(7));
        assert_eq!((t + d) - t, d);
    }

    #[test]
    fn saturating_since_never_underflows() {
        let early = SimTime::from_secs(1);
        let late = SimTime::from_secs(5);
        assert_eq!(late.saturating_since(early), SimDuration::from_secs(4));
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_secs(10);
        assert_eq!(d.mul_f64(0.8), SimDuration::from_secs(8));
        assert_eq!(d.mul_f64(0.0), SimDuration::ZERO);
        assert_eq!(d.mul_f64(-3.0), SimDuration::ZERO);
        assert_eq!(d.mul_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(d * 3, SimDuration::from_secs(30));
        assert_eq!(d / 4, SimDuration::from_millis(2500));
    }

    #[test]
    fn ordering_and_min_max() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(
            SimDuration::from_secs(1).max(SimDuration::from_secs(2)),
            SimDuration::from_secs(2)
        );
    }

    #[test]
    fn saturation_at_extremes() {
        assert_eq!(SimTime::MAX + SimDuration::from_secs(1), SimTime::MAX);
        assert_eq!(
            SimDuration::MAX + SimDuration::from_secs(1),
            SimDuration::MAX
        );
        assert_eq!(
            SimDuration::from_secs(1).mul_f64(f64::MAX),
            SimDuration::MAX
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimTime::from_millis(1500)), "1.500s");
        assert_eq!(format!("{}", SimDuration::from_millis(250)), "0.250s");
        assert_eq!(format!("{:?}", SimTime::from_secs(1)), "t=1.000000s");
    }
}
