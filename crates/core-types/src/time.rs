//! Virtual time.
//!
//! Time is an integer count of nanoseconds since the start of the run (of a
//! simulation, or of a host connection).  Using an integer (rather than `f64`
//! seconds) keeps event ordering exact and runs bit-for-bit reproducible;
//! nanosecond resolution is ample for serialization times down to single
//! bytes on multi-gigabit links.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A point in virtual time (nanoseconds since simulation start).
///
/// `Time` is also used for durations; the arithmetic saturates at zero on
/// subtraction so transient ordering noise can never produce a negative time.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Time(pub u64);

impl Time {
    /// Time zero (simulation start).
    pub const ZERO: Time = Time(0);
    /// The far future; used as an "infinite" timer deadline.
    pub const MAX: Time = Time(u64::MAX);

    /// Construct from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Time {
        Time(ns)
    }

    /// Construct from whole microseconds.
    pub const fn from_micros(us: u64) -> Time {
        Time(us * 1_000)
    }

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Time {
        Time(ms * 1_000_000)
    }

    /// Construct from (possibly fractional) seconds. Negative values clamp to zero.
    pub fn from_secs_f64(secs: f64) -> Time {
        if secs <= 0.0 {
            Time::ZERO
        } else {
            Time((secs * 1e9).round() as u64)
        }
    }

    /// Construct from (possibly fractional) milliseconds. Negative values clamp to zero.
    pub fn from_millis_f64(ms: f64) -> Time {
        Time::from_secs_f64(ms / 1e3)
    }

    /// The raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This time expressed in seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// This time expressed in milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction: `self - other`, clamped at zero.
    pub fn saturating_sub(self, other: Time) -> Time {
        Time(self.0.saturating_sub(other.0))
    }

    /// Checked addition.
    pub fn checked_add(self, other: Time) -> Option<Time> {
        self.0.checked_add(other.0).map(Time)
    }

    /// Multiply a duration by a scalar (used for RTO backoff and the like).
    pub fn mul_f64(self, factor: f64) -> Time {
        if factor <= 0.0 {
            Time::ZERO
        } else {
            Time((self.0 as f64 * factor).round() as u64)
        }
    }

    /// The larger of two times.
    pub fn max(self, other: Time) -> Time {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The smaller of two times.
    pub fn min(self, other: Time) -> Time {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Add for Time {
    type Output = Time;
    fn add(self, rhs: Time) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign for Time {
    fn add_assign(&mut self, rhs: Time) {
        self.0 += rhs.0;
    }
}

impl Sub for Time {
    type Output = Time;
    fn sub(self, rhs: Time) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Time {
    fn sub_assign(&mut self, rhs: Time) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

/// The CCP report cadence (§4.2 of the paper: the datapath reports to the
/// controller every 10 ms).  The one owner of that decision: the simulator's
/// measurement tick, the detector's ẑ sample rate and the multi-flow
/// election's decision interval τ (Eq. 5) are all this value.
pub const REPORT_INTERVAL: Time = Time::from_millis(10);

/// Convert a rate in bits/second and a size in bytes to the serialization
/// time of that many bytes on that link.
pub fn transmission_time(bytes: u32, rate_bps: f64) -> Time {
    assert!(rate_bps > 0.0, "link rate must be positive");
    Time::from_secs_f64(bytes as f64 * 8.0 / rate_bps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(Time::from_millis(50).as_millis_f64(), 50.0);
        assert_eq!(Time::from_micros(10).as_nanos(), 10_000);
        assert!((Time::from_secs_f64(1.5).as_secs_f64() - 1.5).abs() < 1e-12);
        assert_eq!(Time::from_millis_f64(2.5), Time::from_micros(2500));
    }

    #[test]
    fn negative_seconds_clamp_to_zero() {
        assert_eq!(Time::from_secs_f64(-1.0), Time::ZERO);
        assert_eq!(Time::from_millis_f64(-5.0), Time::ZERO);
    }

    #[test]
    fn subtraction_saturates() {
        let a = Time::from_millis(10);
        let b = Time::from_millis(20);
        assert_eq!(a - b, Time::ZERO);
        assert_eq!(b - a, Time::from_millis(10));
        assert_eq!(a.saturating_sub(b), Time::ZERO);
    }

    #[test]
    fn ordering_and_min_max() {
        let a = Time::from_millis(1);
        let b = Time::from_millis(2);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn mul_f64_scales_durations() {
        let rto = Time::from_millis(200);
        assert_eq!(rto.mul_f64(2.0), Time::from_millis(400));
        assert_eq!(rto.mul_f64(0.0), Time::ZERO);
        assert_eq!(rto.mul_f64(-3.0), Time::ZERO);
    }

    #[test]
    fn transmission_time_of_full_packet() {
        // 1500 bytes at 12 Mbit/s = 1 ms.
        let t = transmission_time(1500, 12_000_000.0);
        assert_eq!(t, Time::from_millis(1));
        // 1500 bytes at 96 Mbit/s = 125 µs.
        assert_eq!(
            transmission_time(1500, 96_000_000.0),
            Time::from_micros(125)
        );
    }

    #[test]
    #[should_panic]
    fn transmission_time_rejects_zero_rate() {
        let _ = transmission_time(1500, 0.0);
    }

    #[test]
    fn display_is_human_readable() {
        assert_eq!(format!("{}", Time::from_millis(1500)), "1.500000s");
    }
}
