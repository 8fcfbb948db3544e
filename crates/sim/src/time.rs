//! Simulation time base.
//!
//! Simulated time is measured in integer microseconds since the start of
//! the experiment. Microsecond resolution is fine enough to express the
//! sub-millisecond datacenter round-trip times of the paper's Table 3
//! while keeping 64-bit arithmetic exact for multi-hour experiments.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub};

/// An absolute instant on the simulation clock, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// A time far in the future, usable as an "never" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// The last whole second the clock can count in microseconds.
    pub const MAX_SECS: u64 = u64::MAX / 1_000_000;

    /// Builds an instant from whole seconds since the epoch, saturating
    /// at [`SimTime::MAX`].
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs.saturating_mul(1_000_000))
    }

    /// Builds an instant from milliseconds since the epoch, saturating
    /// at [`SimTime::MAX`].
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms.saturating_mul(1_000))
    }

    /// Builds an instant from microseconds since the epoch.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Builds an instant from a float number of seconds, rounding up to
    /// the next microsecond (clamping below at zero).
    pub fn from_secs_f64_ceil(secs: f64) -> Self {
        if secs <= 0.0 {
            SimTime(0)
        } else {
            SimTime((secs * 1e6).ceil() as u64)
        }
    }

    /// Microseconds since the epoch.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch, as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Duration elapsed since `earlier`, saturating at zero.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The index of the one-second bucket this instant falls into.
    ///
    /// Used to build per-second throughput time series.
    pub const fn second_bucket(self) -> u64 {
        self.0 / 1_000_000
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds a duration from whole seconds, saturating at `u64::MAX`
    /// microseconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs.saturating_mul(1_000_000))
    }

    /// Builds a duration from milliseconds, saturating at `u64::MAX`
    /// microseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms.saturating_mul(1_000))
    }

    /// Builds a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Builds a duration from a float number of seconds, rounding to the
    /// nearest microsecond and saturating below at zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs <= 0.0 {
            SimDuration(0)
        } else {
            SimDuration((secs * 1e6).round() as u64)
        }
    }

    /// Microseconds in this duration.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Milliseconds in this duration (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds in this duration, as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Component-wise maximum.
    pub fn max(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.max(rhs.0))
    }

    /// Component-wise minimum.
    pub fn min(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.min(rhs.0))
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
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;

    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
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
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;

    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
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

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
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
    fn construction_roundtrips() {
        assert_eq!(SimTime::from_secs(3).as_micros(), 3_000_000);
        assert_eq!(SimTime::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimDuration::from_secs(2).as_millis(), 2_000);
        assert_eq!(SimDuration::from_secs_f64(0.5).as_micros(), 500_000);
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn construction_saturates_instead_of_wrapping() {
        // Wrapped, the first whole second past the clock was a 0.45 s
        // grace period.
        let past = SimTime::MAX_SECS + 1;
        assert_eq!(past, 18_446_744_073_710);
        assert_eq!(SimTime::from_secs(past), SimTime::MAX);
        assert_eq!(SimDuration::from_secs(past).as_micros(), u64::MAX);
        assert_eq!(SimTime::from_millis(u64::MAX), SimTime::MAX);
        assert_eq!(SimDuration::from_millis(u64::MAX).as_micros(), u64::MAX);
        assert_eq!(
            SimTime::from_secs(past - 1).as_micros(),
            18_446_744_073_709_000_000
        );
    }

    #[test]
    fn arithmetic_behaves() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_secs(4);
        assert_eq!(t + d, SimTime::from_secs(14));
        assert_eq!(t - SimTime::from_secs(4), SimDuration::from_secs(6));
        // Subtraction saturates rather than panicking.
        assert_eq!(SimTime::from_secs(1) - t, SimDuration::ZERO);
        assert_eq!(d * 3, SimDuration::from_secs(12));
        assert_eq!(d / 2, SimDuration::from_secs(2));
    }

    #[test]
    fn since_saturates() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(5);
        assert_eq!(b.since(a), SimDuration::from_secs(4));
        assert_eq!(a.since(b), SimDuration::ZERO);
    }

    #[test]
    fn second_buckets() {
        assert_eq!(SimTime::from_millis(999).second_bucket(), 0);
        assert_eq!(SimTime::from_millis(1000).second_bucket(), 1);
        assert_eq!(SimTime::from_secs(120).second_bucket(), 120);
    }

    #[test]
    fn display_is_human_readable() {
        assert_eq!(format!("{}", SimTime::from_millis(1500)), "1.500s");
        assert_eq!(format!("{}", SimDuration::from_micros(250)), "0.000s");
    }
}
