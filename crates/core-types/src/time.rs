//! Virtual time.
//!
//! Time is an integer count of nanoseconds since the start of the run (of a
//! simulation, or of a host connection).  Using an integer (rather than `f64`
//! seconds) keeps event ordering exact and runs bit-for-bit reproducible;
//! nanosecond resolution is ample for serialization times down to single
//! bytes on multi-gigabit links.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A point in virtual time (nanoseconds since simulation start).
///
/// `Time` is also used for durations.  The arithmetic saturates: at zero on
/// subtraction, so transient ordering noise can never produce a negative
/// time, and at [`Time::MAX`] on addition, so a deadline pushed past the far
/// future stays there instead of wrapping into the past.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
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

    /// Construct from (possibly fractional) seconds, rounded to the nearest
    /// nanosecond (ties away from zero).  Negative values and NaN give
    /// [`Time::ZERO`]; values past `u64::MAX` nanoseconds, and +∞, give
    /// [`Time::MAX`].
    pub fn from_secs_f64(secs: f64) -> Time {
        if secs <= 0.0 {
            Time::ZERO
        } else {
            Time(round_ns(secs * 1e9))
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

    /// Multiply a duration by a scalar (used for RTO backoff and the like),
    /// rounded like [`Time::from_secs_f64`]: a non-positive or NaN factor
    /// gives [`Time::ZERO`], a product past `u64::MAX` gives [`Time::MAX`].
    pub fn mul_f64(self, factor: f64) -> Time {
        if factor <= 0.0 {
            Time::ZERO
        } else {
            Time(round_ns(self.0 as f64 * factor))
        }
    }

    /// `self.mul_f64(2^k)` bit for bit, on the integer clock: below 2^53 ns
    /// the float product is an exact integer (or saturates exactly where the
    /// integer product overflows), so a saturating multiply gives it.  From
    /// 2^53 ns up the float path rounds `self` first, and is kept.
    pub fn mul_pow2(self, k: u32) -> Time {
        assert!(k < 64, "2^{k} is not a u64");
        if self.0 < EXACT_INTEGERS_U64 {
            Time(self.0.saturating_mul(1 << k))
        } else {
            self.mul_f64((1u64 << k) as f64)
        }
    }
}

/// 2^53 as a nanosecond count (see [`EXACT_INTEGERS_F64`]).
const EXACT_INTEGERS_U64: u64 = 1 << 53;

/// 2^53: below it an `f64`'s integer part, and so its fraction, are exact.
const EXACT_INTEGERS_F64: f64 = 9_007_199_254_740_992.0;

/// `x.round() as u64`, bit for bit, without the library `round` call on the
/// per-packet path: below 2^53 the truncation and the remainder are both
/// exact, so one comparison rounds half away from zero (negative `x` gives 0,
/// as the saturating cast does).  NaN, +∞ and values from 2^53 up keep
/// `round` and the saturating cast.
fn round_ns(x: f64) -> u64 {
    if x < EXACT_INTEGERS_F64 {
        let whole = x as u64;
        whole + u64::from(x - whole as f64 >= 0.5)
    } else {
        x.round() as u64
    }
}

impl Add for Time {
    type Output = Time;
    fn add(self, rhs: Time) -> Time {
        Time(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Time {
    fn add_assign(&mut self, rhs: Time) {
        self.0 = self.0.saturating_add(rhs.0);
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

/// `[ns]`, the one-element array a tuple struct writes in JSON.
impl serde::Serialize for Time {
    fn serialize(&self, w: &mut serde::Writer<'_>) {
        w.seq([self.0]);
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

    /// The expressions `from_secs_f64` and `mul_f64` evaluated before
    /// `round_ns` replaced the library `round`.
    fn reference_from_secs(secs: f64) -> Time {
        if secs <= 0.0 {
            Time::ZERO
        } else {
            Time((secs * 1e9).round() as u64)
        }
    }

    fn reference_mul(t: Time, factor: f64) -> Time {
        if factor <= 0.0 {
            Time::ZERO
        } else {
            Time((t.0 as f64 * factor).round() as u64)
        }
    }

    /// Inputs where rounding can go wrong: ties at x.5 ns and their
    /// neighbours, both sides of 2^53, past `u64::MAX`, NaN, ±∞,
    /// subnormals and negatives.
    fn edge_inputs() -> Vec<f64> {
        let mut xs = vec![
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MAX,
            f64::MIN,
            u64::MAX as f64,
            1.8e19,
            1e30,
            EXACT_INTEGERS_F64,
            EXACT_INTEGERS_F64 * 2.0,
        ];
        let ties = [0.5, 1.5, 2.5, 12_345.5, 4_503_599_627_370_495.5];
        for tie in ties.into_iter().chain([EXACT_INTEGERS_F64]) {
            for x in [tie, -tie] {
                xs.extend([x, next_up(x), next_down(x), next_up(next_up(x))]);
            }
        }
        xs
    }

    fn next_up(x: f64) -> f64 {
        if x == 0.0 {
            f64::from_bits(1)
        } else if x > 0.0 {
            f64::from_bits(x.to_bits() + 1)
        } else {
            f64::from_bits(x.to_bits() - 1)
        }
    }

    fn next_down(x: f64) -> f64 {
        -next_up(-x)
    }

    /// A xorshift stream: random bit patterns cover every exponent, NaN
    /// payloads included.
    fn random_bits(n: usize) -> impl Iterator<Item = f64> {
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        (0..n).map(move |_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            f64::from_bits(state)
        })
    }

    #[test]
    fn round_ns_matches_library_round_bit_for_bit() {
        for x in edge_inputs().into_iter().chain(random_bits(1 << 20)) {
            assert_eq!(round_ns(x), x.round() as u64, "x = {x:e}");
            // The same bits scaled into the exact range, where ties occur.
            let y = x.abs() % EXACT_INTEGERS_F64;
            assert_eq!(round_ns(y), y.round() as u64, "y = {y:e}");
            let half = y.trunc() + 0.5;
            assert_eq!(round_ns(half), half.round() as u64, "tie {half:e}");
        }
    }

    #[test]
    fn from_secs_and_mul_match_the_round_expressions() {
        let scales = [1e-9, 1e-3, 1.0, 1e3, 1e9];
        for x in edge_inputs().into_iter().chain(random_bits(1 << 18)) {
            for scale in scales {
                let secs = x * scale;
                assert_eq!(Time::from_secs_f64(secs), reference_from_secs(secs));
                for t in [Time::ZERO, Time(1), Time(200_000_000), Time::MAX] {
                    assert_eq!(t.mul_f64(secs), reference_mul(t, secs));
                }
            }
        }
        // The half-nanosecond ties round away from zero.
        assert_eq!(Time::from_secs_f64(2.5e-9), Time(3));
        assert_eq!(Time(5).mul_f64(0.5), Time(3));
    }

    #[test]
    fn mul_pow2_matches_mul_f64_bit_for_bit() {
        let edges = [
            0,
            1,
            3,
            200_000_000,
            EXACT_INTEGERS_U64 - 1,
            EXACT_INTEGERS_U64,
            EXACT_INTEGERS_U64 + 1,
            (1 << 58) + 3,
            u64::MAX / 2,
            u64::MAX - 1,
            u64::MAX,
        ];
        let randoms = random_bits(1 << 14).map(f64::to_bits);
        // The same bits shifted down so most land below 2^53.
        let small = random_bits(1 << 14).map(|x| x.to_bits() >> 11);
        for ns in edges.into_iter().chain(randoms).chain(small) {
            for k in 0..64 {
                let t = Time(ns);
                let factor = 2f64.powi(k as i32);
                assert_eq!(t.mul_pow2(k), t.mul_f64(factor), "{ns} ns × 2^{k}");
            }
        }
        // Four windows over the clamped measurement-window range, 10 ms to
        // 2 s: the horizon of the Nimbus report aggregator's records.
        let (lo, hi) = (10_000_000, 2_000_000_000);
        let ends = (lo..lo + 100_000).chain(hi - 100_000..=hi);
        for ns in ends.chain((lo..=hi).step_by(997)) {
            assert_eq!(Time(ns).mul_pow2(2), Time(ns).mul_f64(4.0), "{ns} ns × 4");
        }
    }

    #[test]
    fn nan_gives_zero_and_overflow_gives_max() {
        assert_eq!(Time::from_secs_f64(f64::NAN), Time::ZERO);
        assert_eq!(Time::from_secs_f64(f64::INFINITY), Time::MAX);
        assert_eq!(Time::from_secs_f64(f64::NEG_INFINITY), Time::ZERO);
        assert_eq!(Time::from_secs_f64(1e30), Time::MAX);
        assert_eq!(Time::from_millis(1).mul_f64(f64::NAN), Time::ZERO);
        assert_eq!(Time::from_millis(1).mul_f64(f64::INFINITY), Time::MAX);
        assert_eq!(Time::MAX.mul_f64(2.0), Time::MAX);
        assert_eq!(Time::ZERO.mul_f64(f64::INFINITY), Time::ZERO);
    }

    #[test]
    fn addition_saturates_at_max() {
        let late = Time::from_millis(5);
        assert_eq!(late + Time::MAX, Time::MAX);
        assert_eq!(Time::MAX + Time(1), Time::MAX);
        let mut t = late;
        t += Time::MAX;
        assert_eq!(t, Time::MAX);
        assert_eq!(late + late, Time::from_millis(10));
        assert_eq!(Time::MAX.checked_add(Time(1)), None);
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
