//! Simulated clock types.
//!
//! [`Time`] is an instant (nanoseconds since simulation start) and
//! [`Duration`] is a span. Both are thin wrappers over `u64` nanoseconds so
//! they are `Copy`, hashable, totally ordered, and free of floating-point
//! drift. Conversions to `f64` seconds exist only at reporting boundaries.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant in simulated time, in nanoseconds since the simulation epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

impl Time {
    /// The simulation epoch.
    pub const ZERO: Time = Time(0);
    /// The greatest representable instant (used as an "infinite" horizon).
    pub const MAX: Time = Time(u64::MAX);

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Time {
        Time(s * 1_000_000_000)
    }
    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Time {
        Time(ms * 1_000_000)
    }
    /// Construct from whole microseconds.
    pub const fn from_micros(us: u64) -> Time {
        Time(us * 1_000)
    }
    /// Construct from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Time {
        Time(ns)
    }
    /// Nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }
    /// Seconds since the epoch as a float (reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }
    /// The span since an earlier instant; saturates to zero if `earlier` is
    /// actually later (callers should not rely on that, but it avoids a panic
    /// deep inside a long experiment due to a reordered feedback packet).
    pub fn saturating_since(self, earlier: Time) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
    /// Checked addition of a duration.
    pub fn checked_add(self, d: Duration) -> Option<Time> {
        self.0.checked_add(d.0).map(Time)
    }
}

impl Duration {
    /// The empty span.
    pub const ZERO: Duration = Duration(0);
    /// The longest representable span.
    pub const MAX: Duration = Duration(u64::MAX);

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Duration {
        Duration(s * 1_000_000_000)
    }
    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Duration {
        Duration(ms * 1_000_000)
    }
    /// Construct from whole microseconds.
    pub const fn from_micros(us: u64) -> Duration {
        Duration(us * 1_000)
    }
    /// Construct from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Duration {
        Duration(ns)
    }
    /// Construct from float seconds, rounding to the nearest nanosecond.
    /// Negative and non-finite inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Duration {
        if !s.is_finite() || s <= 0.0 {
            return Duration::ZERO;
        }
        Duration((s * 1e9).round().min(u64::MAX as f64) as u64)
    }
    /// Nanoseconds in this span.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }
    /// Seconds as a float (reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }
    /// True if the span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
    /// Scale by a float factor, rounding; clamps negatives to zero.
    pub fn mul_f64(self, k: f64) -> Duration {
        Duration::from_secs_f64(self.as_secs_f64() * k)
    }
    /// The time to serialize `bytes` onto a link of `rate_bps` bits/second.
    ///
    /// This is the single most common duration computation in the simulator,
    /// so it lives here and is computed in integer arithmetic:
    /// `bytes * 8 * 1e9 / rate_bps` nanoseconds.
    #[inline]
    pub fn for_bytes_at(bytes: u64, rate_bps: u64) -> Duration {
        assert!(rate_bps > 0, "link rate must be positive");
        // bits per byte × nanoseconds per second
        const SCALE: u64 = 8 * 1_000_000_000;
        // Every real frame (anything up to ~2.3 GB) fits one 64-bit divide;
        // the 128-bit one is a libcall (`__udivti3`) paid once per packet.
        if bytes <= u64::MAX / SCALE {
            return Duration(bytes * SCALE / rate_bps);
        }
        let ns = (bytes as u128 * SCALE as u128) / rate_bps as u128;
        Duration(ns.min(u64::MAX as u128) as u64)
    }
}

impl Add<Duration> for Time {
    type Output = Time;
    fn add(self, rhs: Duration) -> Time {
        Time(self.0 + rhs.0)
    }
}
impl AddAssign<Duration> for Time {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}
impl Sub<Duration> for Time {
    type Output = Time;
    fn sub(self, rhs: Duration) -> Time {
        Time(self.0 - rhs.0)
    }
}
impl Sub<Time> for Time {
    type Output = Duration;
    fn sub(self, rhs: Time) -> Duration {
        Duration(self.0 - rhs.0)
    }
}
impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}
impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}
impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}
impl SubAssign for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 -= rhs.0;
    }
}
impl Mul<u64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0 * rhs)
    }
}
impl Div<u64> for Duration {
    type Output = Duration;
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", Duration(self.0))
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(Time::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(Time::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(Time::from_micros(7).as_nanos(), 7_000);
        assert_eq!(Duration::from_secs(1).as_secs_f64(), 1.0);
    }

    #[test]
    fn arithmetic() {
        let t = Time::from_micros(10) + Duration::from_micros(5);
        assert_eq!(t, Time::from_micros(15));
        assert_eq!(t - Time::from_micros(10), Duration::from_micros(5));
        assert_eq!(Duration::from_micros(6) / 2, Duration::from_micros(3));
        assert_eq!(Duration::from_micros(6) * 2, Duration::from_micros(12));
    }

    #[test]
    fn serialization_delay() {
        // 1500 bytes at 10 Gbps = 1.2 us.
        assert_eq!(Duration::for_bytes_at(1500, 10_000_000_000), Duration::from_nanos(1200));
        // 1500 bytes at 1 Gbps = 12 us.
        assert_eq!(Duration::for_bytes_at(1500, 1_000_000_000), Duration::from_micros(12));
    }

    #[test]
    fn serialization_delay_no_overflow() {
        // A pathological 100 GB "frame" must not overflow.
        let d = Duration::for_bytes_at(100_000_000_000, 1_000_000_000);
        assert_eq!(d, Duration::from_secs(800));
    }

    #[test]
    fn serialization_delay_fast_path_equals_wide_formula() {
        let edge = u64::MAX / 8_000_000_000;
        for bytes in [0, 1, 1500, edge, edge + 1, 100_000_000_000] {
            for rate in [1, 1_000_000_000, 40_000_000_000, u64::MAX] {
                let wide = (bytes as u128 * 8 * 1_000_000_000 / rate as u128).min(u64::MAX as u128) as u64;
                assert_eq!(Duration::for_bytes_at(bytes, rate), Duration(wide), "{bytes} B at {rate} bit/s");
            }
        }
    }

    #[test]
    fn saturating_since_clamps() {
        let a = Time::from_micros(5);
        let b = Time::from_micros(9);
        assert_eq!(b.saturating_since(a), Duration::from_micros(4));
        assert_eq!(a.saturating_since(b), Duration::ZERO);
    }

    #[test]
    fn from_secs_f64_edge_cases() {
        assert_eq!(Duration::from_secs_f64(-1.0), Duration::ZERO);
        assert_eq!(Duration::from_secs_f64(f64::NAN), Duration::ZERO);
        assert_eq!(Duration::from_secs_f64(1e-9), Duration::from_nanos(1));
        assert_eq!(Duration::from_secs_f64(0.5), Duration::from_millis(500));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", Duration::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", Duration::from_micros(12)), "12.000us");
        assert_eq!(format!("{}", Duration::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", Duration::from_secs(12)), "12.000s");
    }
}
