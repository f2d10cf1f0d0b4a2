//! Integer picosecond simulated time.
//!
//! DRAM datasheets specify timings with sub-nanosecond resolution
//! (e.g. `tCK = 1.25 ns` for DDR3-1600). Floating-point time accumulates
//! rounding error over millions of events, so the kernel represents time as
//! an integer number of **picoseconds**: `1.25 ns == 1250 ps` exactly.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Number of picoseconds in one nanosecond.
pub const PS_PER_NS: u64 = 1_000;
/// Number of picoseconds in one microsecond.
pub const PS_PER_US: u64 = 1_000_000;
/// Number of picoseconds in one second.
pub const PS_PER_S: u64 = 1_000_000_000_000;

/// An absolute instant of simulated time, in integer picoseconds since the
/// start of the simulation.
///
/// # Examples
///
/// ```
/// use autoplat_sim::{SimTime, SimDuration};
///
/// let t = SimTime::from_ns(1.25) + SimDuration::from_ns(3.75);
/// assert_eq!(t.as_ns(), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in integer picoseconds.
///
/// # Examples
///
/// ```
/// use autoplat_sim::SimDuration;
///
/// let d = SimDuration::from_ns(2.5) * 4;
/// assert_eq!(d.as_ns(), 10.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation origin, `t = 0`.
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from integer picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Creates an instant from (possibly fractional) nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `ns` is negative or not finite.
    pub fn from_ns(ns: f64) -> Self {
        assert!(
            ns.is_finite() && ns >= 0.0,
            "SimTime::from_ns({ns}): invalid"
        );
        SimTime((ns * PS_PER_NS as f64).round() as u64)
    }

    /// Creates an instant from (possibly fractional) microseconds.
    ///
    /// # Panics
    ///
    /// Panics if `us` is negative or not finite.
    pub fn from_us(us: f64) -> Self {
        assert!(
            us.is_finite() && us >= 0.0,
            "SimTime::from_us({us}): invalid"
        );
        SimTime((us * PS_PER_US as f64).round() as u64)
    }

    /// This instant as integer picoseconds.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// This instant as fractional nanoseconds.
    pub fn as_ns(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }

    /// This instant as fractional microseconds.
    pub fn as_us(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// This instant as fractional seconds.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }

    /// The duration elapsed since `earlier`.
    ///
    /// Returns [`SimDuration::ZERO`] if `earlier` is later than `self`
    /// (saturating), which makes it safe for "how long has X waited" queries
    /// against events scheduled in the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The greatest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from integer picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        SimDuration(ps)
    }

    /// Creates a duration from (possibly fractional) nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `ns` is negative or not finite.
    pub fn from_ns(ns: f64) -> Self {
        assert!(
            ns.is_finite() && ns >= 0.0,
            "SimDuration::from_ns({ns}): invalid"
        );
        SimDuration((ns * PS_PER_NS as f64).round() as u64)
    }

    /// Creates a duration from (possibly fractional) microseconds.
    ///
    /// # Panics
    ///
    /// Panics if `us` is negative or not finite.
    pub fn from_us(us: f64) -> Self {
        assert!(
            us.is_finite() && us >= 0.0,
            "SimDuration::from_us({us}): invalid"
        );
        SimDuration((us * PS_PER_US as f64).round() as u64)
    }

    /// This duration as integer picoseconds.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// This duration as fractional nanoseconds.
    pub fn as_ns(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }

    /// This duration as fractional microseconds.
    pub fn as_us(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// This duration as fractional seconds.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }

    /// True if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction; returns [`SimDuration::ZERO`] on underflow.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Checked multiplication by an integer count.
    pub fn checked_mul(self, n: u64) -> Option<SimDuration> {
        self.0.checked_mul(n).map(SimDuration)
    }

    /// The larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// The smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    /// How many whole `other` periods fit in `self`.
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    pub fn div_duration(self, other: SimDuration) -> u64 {
        assert!(!other.is_zero(), "division by zero duration");
        self.0 / other.0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Duration between two instants.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`.
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "SimTime subtraction underflow");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
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
        debug_assert!(self.0 >= rhs.0, "SimDuration subtraction underflow");
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
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} ns", self.as_ns())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} ns", self.as_ns())
    }
}

impl From<SimDuration> for SimTime {
    fn from(d: SimDuration) -> SimTime {
        SimTime(d.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_round_trip_is_exact_for_quarter_ns() {
        let t = SimTime::from_ns(1.25);
        assert_eq!(t.as_ps(), 1250);
        assert_eq!(t.as_ns(), 1.25);
    }

    #[test]
    fn time_plus_duration() {
        let t = SimTime::from_ns(10.0) + SimDuration::from_ns(2.5);
        assert_eq!(t, SimTime::from_ns(12.5));
    }

    #[test]
    fn time_difference() {
        let d = SimTime::from_ns(12.5) - SimTime::from_ns(10.0);
        assert_eq!(d, SimDuration::from_ns(2.5));
    }

    #[test]
    fn saturating_since_clamps_to_zero() {
        let early = SimTime::from_ns(1.0);
        let late = SimTime::from_ns(2.0);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early), SimDuration::from_ns(1.0));
    }

    #[test]
    fn duration_arithmetic() {
        let d = SimDuration::from_ns(5.0);
        assert_eq!(d * 3, SimDuration::from_ns(15.0));
        assert_eq!(d / 2, SimDuration::from_ns(2.5));
        assert_eq!(d + d, SimDuration::from_ns(10.0));
        assert_eq!(d - SimDuration::from_ns(1.0), SimDuration::from_ns(4.0));
    }

    #[test]
    fn duration_div_duration_counts_periods() {
        let refi = SimDuration::from_ns(7800.0);
        let window = SimDuration::from_us(20.0);
        assert_eq!(window.div_duration(refi), 2);
    }

    #[test]
    #[should_panic(expected = "division by zero duration")]
    fn div_duration_by_zero_panics() {
        let _ = SimDuration::from_ns(1.0).div_duration(SimDuration::ZERO);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = [1.0, 2.0, 3.0]
            .iter()
            .map(|&ns| SimDuration::from_ns(ns))
            .sum();
        assert_eq!(total, SimDuration::from_ns(6.0));
    }

    #[test]
    fn display_formats_in_ns() {
        assert_eq!(SimTime::from_ns(1.25).to_string(), "1.250 ns");
        assert_eq!(SimDuration::from_ns(0.5).to_string(), "0.500 ns");
    }

    #[test]
    fn ordering_follows_timeline() {
        assert!(SimTime::from_ns(1.0) < SimTime::from_ns(2.0));
        assert!(SimTime::ZERO < SimTime::MAX);
    }

    #[test]
    fn min_max_helpers() {
        let a = SimTime::from_ns(1.0);
        let b = SimTime::from_ns(2.0);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let x = SimDuration::from_ns(1.0);
        let y = SimDuration::from_ns(2.0);
        assert_eq!(x.max(y), y);
        assert_eq!(x.min(y), x);
    }

    #[test]
    fn saturating_add_does_not_wrap() {
        let t = SimTime::MAX + SimDuration::from_ns(1.0);
        assert_eq!(t, SimTime::MAX);
    }

    #[test]
    fn checked_mul_detects_overflow() {
        assert!(SimDuration::MAX.checked_mul(2).is_none());
        assert_eq!(
            SimDuration::from_ns(2.0).checked_mul(3),
            Some(SimDuration::from_ns(6.0))
        );
    }
}
