//! Simulated time.
//!
//! Time is kept as an integer number of nanoseconds since the start of the
//! simulation. Integer time makes event ordering exact and runs
//! bit-reproducible: two events scheduled from the same floating-point
//! expression always compare the same way on every platform.
//!
//! [`SimTime`] is an absolute instant; [`SimDuration`] is a span. The usual
//! arithmetic is provided (`SimTime + SimDuration`, `SimTime - SimTime`, …)
//! and saturates rather than wrapping on overflow, since a saturated
//! simulation horizon (≈584 years) is far beyond any experiment here.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Nanoseconds per second, the resolution of the simulated clock.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;

/// An absolute instant of simulated time, in nanoseconds since time zero.
///
/// # Examples
///
/// ```
/// use peas_des::time::{SimTime, SimDuration};
///
/// let t = SimTime::ZERO + SimDuration::from_secs(5);
/// assert_eq!(t.as_secs_f64(), 5.0);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
///
/// # Examples
///
/// ```
/// use peas_des::time::SimDuration;
///
/// let d = SimDuration::from_millis(100);
/// assert_eq!(d * 3, SimDuration::from_millis(300));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The maximum representable instant; used as an "infinite" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `secs` seconds after time zero.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> SimTime {
        SimTime(secs_to_nanos(secs))
    }

    /// Creates an instant from whole seconds.
    pub const fn from_secs(secs: u64) -> SimTime {
        SimTime(secs.saturating_mul(NANOS_PER_SEC))
    }

    /// Creates an instant from raw nanoseconds.
    pub const fn from_nanos(nanos: u64) -> SimTime {
        SimTime(nanos)
    }

    /// This instant expressed in seconds (lossy above 2^53 ns).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Raw nanoseconds since time zero.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The span from `earlier` to `self`, or zero if `earlier` is later.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The span from `earlier` to `self` if `earlier <= self`.
    pub fn checked_since(self, earlier: SimTime) -> Option<SimDuration> {
        self.0.checked_sub(earlier.0).map(SimDuration)
    }

    /// Returns the later of the two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// Returns the earlier of the two instants.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The maximum representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a span of `secs` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> SimDuration {
        SimDuration(secs_to_nanos(secs))
    }

    /// Creates a span from whole seconds.
    pub const fn from_secs(secs: u64) -> SimDuration {
        SimDuration(secs.saturating_mul(NANOS_PER_SEC))
    }

    /// Creates a span from whole milliseconds.
    pub const fn from_millis(millis: u64) -> SimDuration {
        SimDuration(millis.saturating_mul(1_000_000))
    }

    /// Creates a span from whole microseconds.
    pub const fn from_micros(micros: u64) -> SimDuration {
        SimDuration(micros.saturating_mul(1_000))
    }

    /// Creates a span from raw nanoseconds.
    pub const fn from_nanos(nanos: u64) -> SimDuration {
        SimDuration(nanos)
    }

    /// This span expressed in seconds (lossy above 2^53 ns).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whether the span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction of spans.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiplies the span by a dimensionless factor, saturating.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or NaN.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(
            factor >= 0.0,
            "duration factor must be non-negative, got {factor}"
        );
        let nanos = (self.0 as f64) * factor;
        if nanos >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration(nanos as u64)
        }
    }
}

fn secs_to_nanos(secs: f64) -> u64 {
    assert!(
        secs.is_finite() && secs >= 0.0,
        "time in seconds must be finite and non-negative, got {secs}"
    );
    let nanos = secs * NANOS_PER_SEC as f64;
    if nanos >= u64::MAX as f64 {
        u64::MAX
    } else {
        nanos as u64
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
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// The span between two instants, saturating at zero when `rhs > self`.
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.saturating_since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({:.6}s)", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimDuration({:.6}s)", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_default() {
        assert_eq!(SimTime::default(), SimTime::ZERO);
        assert_eq!(SimDuration::default(), SimDuration::ZERO);
    }

    #[test]
    fn seconds_round_trip() {
        let t = SimTime::from_secs_f64(12.5);
        assert_eq!(t.as_nanos(), 12_500_000_000);
        assert!((t.as_secs_f64() - 12.5).abs() < 1e-12);
    }

    #[test]
    fn add_duration_to_time() {
        let t = SimTime::from_secs(10) + SimDuration::from_millis(250);
        assert_eq!(t.as_nanos(), 10_250_000_000);
    }

    #[test]
    fn time_difference_saturates() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(3);
        assert_eq!(b - a, SimDuration::from_secs(2));
        assert_eq!(a - b, SimDuration::ZERO);
        assert_eq!(a.checked_since(b), None);
        assert_eq!(b.checked_since(a), Some(SimDuration::from_secs(2)));
    }

    #[test]
    fn duration_arithmetic() {
        let d = SimDuration::from_millis(100);
        assert_eq!(d * 3, SimDuration::from_millis(300));
        assert_eq!(d / 4, SimDuration::from_micros(25_000));
        assert_eq!(d + d, SimDuration::from_millis(200));
        assert_eq!(
            d - SimDuration::from_millis(40),
            SimDuration::from_millis(60)
        );
        assert_eq!(
            SimDuration::from_millis(40).saturating_sub(d),
            SimDuration::ZERO
        );
    }

    #[test]
    fn mul_f64_scales_and_saturates() {
        let d = SimDuration::from_secs(2);
        assert_eq!(d.mul_f64(1.5), SimDuration::from_secs(3));
        assert_eq!(SimDuration::MAX.mul_f64(2.0), SimDuration::MAX);
        assert_eq!(d.mul_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn mul_f64_rejects_negative() {
        let _ = SimDuration::from_secs(1).mul_f64(-1.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn from_secs_f64_rejects_nan() {
        let _ = SimTime::from_secs_f64(f64::NAN);
    }

    #[test]
    fn saturating_add_at_horizon() {
        let t = SimTime::MAX + SimDuration::from_secs(1);
        assert_eq!(t, SimTime::MAX);
    }

    #[test]
    fn ordering_is_by_nanos() {
        let a = SimTime::from_nanos(5);
        let b = SimTime::from_nanos(6);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(
            format!("{}", SimTime::from_millis_for_test(1500)),
            "1.500000s"
        );
        assert_eq!(format!("{}", SimDuration::from_millis(25)), "0.025000s");
    }

    impl SimTime {
        fn from_millis_for_test(ms: u64) -> SimTime {
            SimTime::from_nanos(ms * 1_000_000)
        }
    }
}
