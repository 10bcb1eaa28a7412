//! Time-varying bottleneck rates.
//!
//! The paper's detector depends on a live estimate of the bottleneck rate µ
//! (§4.2) and claims robustness across network conditions; real links — and
//! especially cellular links — do not hold a constant rate.  A
//! [`RateSchedule`] describes µ(t) as a piecewise-constant function of
//! simulation time, which the engine consults both for packet serialization
//! (including packets that are mid-serialization when the rate changes) and
//! for keeping delay-sized queue capacities coherent as µ(t) moves.
//!
//! A schedule is one table: an initial rate, sorted `(time, new_rate)`
//! transitions and an optional period after which the table repeats.  Five
//! constructors fill it:
//!
//! * [`RateSchedule::constant`] — the classic fixed-µ link: no transitions.
//! * [`RateSchedule::step`] and [`RateSchedule::steps`] — rate steps,
//!   outages and staircases: transitions at absolute times, no period.
//! * [`RateSchedule::trace`] — per-interval rates (trace-driven
//!   cellular-like links), laid out over one period that repeats.
//! * [`RateSchedule::sinusoid`] — µ oscillating around a mean, quantized
//!   into one period of equal segments so event scheduling stays exact and
//!   deterministic.  A period that is not a whole number of segments — only
//!   possible below millisecond resolution — repeats after the whole number
//!   of segments that covers it instead of drifting against them.
//!
//! [`RateSchedule::from_mahimahi_str`] bins a Mahimahi trace into a
//! [`RateSchedule::trace`].
//!
//! All schedules floor the rate at [`MIN_RATE_BPS`] so a "zero-rate outage"
//! segment serializes glacially instead of dividing by zero or wedging the
//! event loop.

use nimbus_core_types::Time;

/// The minimum rate any schedule will report, in bits per second.  A segment
/// configured at or below zero is clamped here, which models a (near-)outage
/// without producing infinite serialization times.
pub const MIN_RATE_BPS: f64 = 1.0;

/// The shortest segment a periodic schedule is cut into: the floor of a
/// sinusoid's quantization step, and of a spec-described trace's interval.
/// A shorter segment would make the engine take one rate change per
/// segment, i.e. up to one per nanosecond.
pub const MIN_SEGMENT: Time = Time::from_millis(1);

/// A piecewise-constant bottleneck-rate schedule µ(t).
#[derive(Debug, Clone, PartialEq)]
pub struct RateSchedule {
    /// Rate before the first transition (of every period, when periodic),
    /// bits/s.
    initial_bps: f64,
    /// Sorted transition points: at each `Time` the rate becomes the paired
    /// value.  Offsets into the period when periodic, all below it.
    steps: Vec<(Time, f64)>,
    /// When set, µ(t) is the table read at `t mod period`.
    period: Option<Time>,
}

impl RateSchedule {
    /// A constant-rate schedule.
    pub fn constant(rate_bps: f64) -> Self {
        Self::steps(rate_bps, Vec::new())
    }

    /// A single rate step: `initial_bps` until `at`, then `to_bps`.
    pub fn step(initial_bps: f64, at: Time, to_bps: f64) -> Self {
        Self::steps(initial_bps, vec![(at, to_bps)])
    }

    /// `initial_bps` until the first of `steps`; at each `(time, rate)` the
    /// rate becomes `rate`.  The times must not decrease.
    pub fn steps(initial_bps: f64, steps: Vec<(Time, f64)>) -> Self {
        assert!(
            steps.windows(2).all(|w| w[0].0 <= w[1].0),
            "step times must not decrease"
        );
        RateSchedule {
            initial_bps,
            steps,
            period: None,
        }
    }

    /// A sinusoid of `amplitude_frac·mean_bps` around `mean_bps`, quantized
    /// at `period/64` (bounded below by [`MIN_SEGMENT`]): each segment holds
    /// the sinusoid's value at its start.
    pub fn sinusoid(mean_bps: f64, amplitude_frac: f64, period: Time) -> Self {
        let p = period.as_nanos().max(1);
        let update = (p / 64).max(MIN_SEGMENT.as_nanos());
        let amplitude_bps = amplitude_frac * mean_bps;
        let segment = |k: u64| {
            let phase = (k * update % p) as f64 / p as f64;
            mean_bps + amplitude_bps * (std::f64::consts::TAU * phase).sin()
        };
        Self::trace(
            Time::from_nanos(update),
            (0..p.div_ceil(update)).map(segment).collect(),
        )
    }

    /// Bytes one Mahimahi delivery opportunity carries (the mahimahi shell's
    /// fixed MTU).
    pub const MAHIMAHI_BYTES_PER_OPPORTUNITY: f64 = 1504.0;

    /// Default binning interval for Mahimahi traces: fine enough to keep
    /// sub-second fades, coarse enough that a handful of opportunities per
    /// bin quantizes the rate reasonably.
    pub const MAHIMAHI_DEFAULT_BIN: Time = Time::from_millis(100);

    /// Parse a [Mahimahi](http://mahimahi.mit.edu/) packet-delivery trace:
    /// one integer per line, the millisecond timestamp at which one
    /// MTU-sized (1504-byte) packet can cross the link; repeated timestamps
    /// mean multiple deliveries in that millisecond.  Like `mm-link` the
    /// replay loops on the final timestamp — rounded *up* to a whole number
    /// of bins, since the piecewise-constant schedule cannot end
    /// mid-segment; a trace whose length is not a bin multiple replays with
    /// up to one bin of extra period.  The last (possibly partial) bin's
    /// rate is computed over its actual width, so it is not diluted by the
    /// rounding.
    ///
    /// Opportunities are binned into `bin`-sized intervals and converted to
    /// a [`RateSchedule::trace`]; the absolute rates come from the file
    /// (unlike the factor-based built-in traces, no base rate scales them).
    ///
    /// Errors carry the 1-based line number and the offending token.
    pub fn from_mahimahi_str(text: &str, bin: Time) -> Result<Self, String> {
        assert!(bin > Time::ZERO, "bin interval must be positive");
        let mut timestamps_ms: Vec<u64> = Vec::new();
        for (idx, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let ts: u64 = line.parse().map_err(|_| {
                format!(
                    "mahimahi trace line {}: `{line}` is not a millisecond timestamp",
                    idx + 1
                )
            })?;
            timestamps_ms.push(ts);
        }
        let last_ms = *timestamps_ms
            .iter()
            .max()
            .ok_or("mahimahi trace holds no delivery opportunities")?;
        if last_ms == 0 {
            return Err("mahimahi trace ends at t=0: the replay period would be empty".to_string());
        }
        // Bin in nanoseconds: sub-millisecond (or non-whole-millisecond)
        // bins must not truncate to zero-width divisions.
        let bin_ns = bin.as_nanos() as u128;
        let last_ns = last_ms as u128 * 1_000_000;
        let bins = last_ns.div_ceil(bin_ns) as usize;
        let mut counts = vec![0u64; bins];
        for ts in timestamps_ms {
            let idx = ((ts as u128 * 1_000_000 / bin_ns) as usize).min(bins - 1);
            counts[idx] += 1;
        }
        let bin_s = bin.as_secs_f64();
        // The final bin may be partial (the trace ends inside it): quote its
        // deliveries over the width the trace actually covers.
        let last_width_ns = last_ns - bin_ns * (bins as u128 - 1);
        let last_width_s = last_width_ns as f64 / 1e9;
        let n = counts.len();
        let rates = counts
            .into_iter()
            .enumerate()
            .map(|(i, c)| {
                let width = if i == n - 1 { last_width_s } else { bin_s };
                c as f64 * Self::MAHIMAHI_BYTES_PER_OPPORTUNITY * 8.0 / width
            })
            .collect();
        Ok(Self::trace(bin, rates))
    }

    /// [`RateSchedule::from_mahimahi_str`] reading from a file, at the
    /// default 100 ms binning.
    pub fn from_mahimahi_file(path: impl AsRef<std::path::Path>) -> Result<Self, String> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read mahimahi trace {}: {e}", path.display()))?;
        Self::from_mahimahi_str(&text, Self::MAHIMAHI_DEFAULT_BIN)
            .map_err(|e| format!("{}: {e}", path.display()))
    }

    /// A trace schedule: `rates_bps[k]` holds over the `k`-th `interval`,
    /// and the trace repeats once exhausted.
    pub fn trace(interval: Time, rates_bps: Vec<f64>) -> Self {
        assert!(interval > Time::ZERO, "trace interval must be positive");
        let mut rates = rates_bps.into_iter();
        let initial_bps = rates.next().expect("trace must contain at least one rate");
        let at = |k: u64| Time::from_nanos(k * interval.as_nanos());
        let steps: Vec<(Time, f64)> = (1..).map(at).zip(rates).collect();
        let period = Some(at(steps.len() as u64 + 1));
        RateSchedule {
            initial_bps,
            steps,
            period,
        }
    }

    /// Where `t` falls in the table: `t` itself, or its offset into the
    /// period.
    fn offset(&self, t: Time) -> Time {
        self.period
            .map_or(t, |p| Time::from_nanos(t.as_nanos() % p.as_nanos()))
    }

    /// The index of the first transition after `offset` in the table.
    fn next_index(&self, offset: Time) -> usize {
        self.steps.partition_point(|&(at, _)| at <= offset)
    }

    /// The instantaneous rate at time `t`, floored at [`MIN_RATE_BPS`].
    pub fn rate_at(&self, t: Time) -> f64 {
        let raw = match self.next_index(self.offset(t)) {
            0 => self.initial_bps,
            i => self.steps[i - 1].1,
        };
        raw.max(MIN_RATE_BPS)
    }

    /// The earliest time strictly after `t` at which the rate changes, or
    /// `None` if the rate is constant from `t` on.  A periodic schedule
    /// changes at every transition of every period, and at each period's end.
    pub fn next_transition_after(&self, t: Time) -> Option<Time> {
        let offset = self.offset(t);
        let next = match self.steps.get(self.next_index(offset)) {
            Some(&(at, _)) => at,
            None => self.period?,
        };
        Some(t - offset + next)
    }

    /// The rate at simulation start (used to size queues and as the nominal
    /// µ handed to schemes that take a configured link rate).
    pub fn initial_rate_bps(&self) -> f64 {
        self.rate_at(Time::ZERO)
    }

    /// Every rate in the table.
    fn rates(&self) -> impl Iterator<Item = f64> + '_ {
        std::iter::once(self.initial_bps).chain(self.steps.iter().map(|&(_, r)| r))
    }

    /// The largest rate the schedule ever takes (floored at [`MIN_RATE_BPS`]).
    pub fn max_rate_bps(&self) -> f64 {
        self.rates().fold(MIN_RATE_BPS, f64::max)
    }

    /// The smallest rate the schedule ever takes (floored at [`MIN_RATE_BPS`]).
    pub fn min_rate_bps(&self) -> f64 {
        self.rates().fold(f64::INFINITY, f64::min).max(MIN_RATE_BPS)
    }

    /// True when the schedule never changes rate.
    pub fn is_constant(&self) -> bool {
        self.next_transition_after(Time::ZERO).is_none()
    }

    /// Exact integral `∫ µ(t) dt` over `[t0, t1]`, in bits.  Because every
    /// schedule is piecewise constant this walks the transitions analytically;
    /// it is the reference the conservation property tests compare delivered
    /// bytes against.
    pub fn integral_bits(&self, t0: Time, t1: Time) -> f64 {
        if t1 <= t0 {
            return 0.0;
        }
        let mut total = 0.0;
        let mut cursor = t0;
        while cursor < t1 {
            let seg_end = match self.next_transition_after(cursor) {
                Some(next) if next < t1 => next,
                _ => t1,
            };
            let dt = seg_end.saturating_sub(cursor).as_secs_f64();
            total += self.rate_at(cursor) * dt;
            cursor = seg_end;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference implementation: the four-family enum the table replaced,
    /// its trace always repeating (the only way a caller ever built one).
    enum Reference {
        Constant(f64),
        Steps {
            initial_bps: f64,
            steps: Vec<(Time, f64)>,
        },
        Sinusoid {
            mean_bps: f64,
            amplitude_bps: f64,
            period: Time,
            update_interval: Time,
        },
        Trace {
            interval: Time,
            rates_bps: Vec<f64>,
        },
    }

    impl Reference {
        fn sinusoid(mean_bps: f64, amplitude_frac: f64, period: Time) -> Self {
            let update = Time::from_nanos((period.as_nanos() / 64).max(1_000_000));
            Reference::Sinusoid {
                mean_bps,
                amplitude_bps: amplitude_frac * mean_bps,
                period,
                update_interval: update,
            }
        }

        fn rate_at(&self, t: Time) -> f64 {
            let raw = match self {
                Reference::Constant(r) => *r,
                Reference::Steps { initial_bps, steps } => {
                    let mut rate = *initial_bps;
                    for &(at, to) in steps {
                        if t >= at {
                            rate = to;
                        } else {
                            break;
                        }
                    }
                    rate
                }
                Reference::Sinusoid {
                    mean_bps,
                    amplitude_bps,
                    period,
                    update_interval,
                } => {
                    let seg_start =
                        (t.as_nanos() / update_interval.as_nanos()) * update_interval.as_nanos();
                    let phase = (seg_start % period.as_nanos().max(1)) as f64
                        / period.as_nanos().max(1) as f64;
                    mean_bps + amplitude_bps * (std::f64::consts::TAU * phase).sin()
                }
                Reference::Trace {
                    interval,
                    rates_bps,
                } => rates_bps[(t.as_nanos() / interval.as_nanos()) as usize % rates_bps.len()],
            };
            raw.max(MIN_RATE_BPS)
        }

        fn next_transition_after(&self, t: Time) -> Option<Time> {
            let every = |iv: Time| {
                let iv = iv.as_nanos();
                Some(Time::from_nanos((t.as_nanos() / iv + 1) * iv))
            };
            match self {
                Reference::Constant(_) => None,
                Reference::Steps { steps, .. } => {
                    steps.iter().map(|&(at, _)| at).find(|&at| at > t)
                }
                Reference::Sinusoid {
                    update_interval, ..
                } => every(*update_interval),
                Reference::Trace { interval, .. } => every(*interval),
            }
        }

        fn integral_bits(&self, t0: Time, t1: Time) -> f64 {
            let mut total = 0.0;
            let mut cursor = t0;
            while cursor < t1 {
                let seg_end = match self.next_transition_after(cursor) {
                    Some(next) if next < t1 => next,
                    _ => t1,
                };
                total += self.rate_at(cursor) * seg_end.saturating_sub(cursor).as_secs_f64();
                cursor = seg_end;
            }
            total
        }
    }

    #[test]
    fn constant_schedule_is_flat() {
        let s = RateSchedule::constant(48e6);
        assert_eq!(s.rate_at(Time::ZERO), 48e6);
        assert_eq!(s.rate_at(Time::from_secs_f64(1e6)), 48e6);
        assert_eq!(s.next_transition_after(Time::ZERO), None);
        assert!(s.is_constant());
        assert_eq!(s.max_rate_bps(), 48e6);
        assert_eq!(s.min_rate_bps(), 48e6);
    }

    #[test]
    fn step_schedule_switches_at_the_boundary() {
        let s = RateSchedule::step(96e6, Time::from_secs_f64(10.0), 48e6);
        assert_eq!(s.rate_at(Time::from_secs_f64(9.999)), 96e6);
        assert_eq!(s.rate_at(Time::from_secs_f64(10.0)), 48e6);
        assert_eq!(s.rate_at(Time::from_secs_f64(100.0)), 48e6);
        assert_eq!(
            s.next_transition_after(Time::ZERO),
            Some(Time::from_secs_f64(10.0))
        );
        assert_eq!(s.next_transition_after(Time::from_secs_f64(10.0)), None);
        assert!(!s.is_constant());
    }

    #[test]
    fn multi_step_schedule_applies_in_order() {
        let s = RateSchedule::steps(
            10e6,
            vec![
                (Time::from_secs_f64(1.0), 20e6),
                (Time::from_secs_f64(2.0), 5e6),
            ],
        );
        assert_eq!(s.rate_at(Time::from_millis(500)), 10e6);
        assert_eq!(s.rate_at(Time::from_millis(1500)), 20e6);
        assert_eq!(s.rate_at(Time::from_millis(2500)), 5e6);
        assert_eq!(s.max_rate_bps(), 20e6);
        assert_eq!(s.min_rate_bps(), 5e6);
    }

    #[test]
    fn zero_and_negative_rates_are_floored() {
        let s = RateSchedule::step(48e6, Time::from_secs_f64(1.0), 0.0);
        assert_eq!(s.rate_at(Time::from_secs_f64(2.0)), MIN_RATE_BPS);
        let t = RateSchedule::trace(Time::from_millis(100), vec![-5.0, 1e6]);
        assert_eq!(t.rate_at(Time::ZERO), MIN_RATE_BPS);
        assert_eq!(t.min_rate_bps(), MIN_RATE_BPS);
    }

    #[test]
    fn sinusoid_oscillates_within_bounds_and_quantizes() {
        let s = RateSchedule::sinusoid(48e6, 0.25, Time::from_secs_f64(8.0));
        let lo = s.min_rate_bps();
        let hi = s.max_rate_bps();
        assert_eq!(lo, 36e6);
        assert_eq!(hi, 60e6);
        let mut seen_hi = f64::MIN;
        let mut seen_lo = f64::MAX;
        let mut t = Time::ZERO;
        for _ in 0..200 {
            let r = s.rate_at(t);
            assert!(r >= lo - 1.0 && r <= hi + 1.0, "rate {r} out of bounds");
            seen_hi = seen_hi.max(r);
            seen_lo = seen_lo.min(r);
            t = s.next_transition_after(t).unwrap();
        }
        // The quantized waveform still swings through most of its range.
        assert!(seen_hi > 48e6 + 0.9 * 12e6, "peak {seen_hi}");
        assert!(seen_lo < 48e6 - 0.9 * 12e6, "trough {seen_lo}");
        // Constant within a segment.
        let mid = Time::from_nanos(s.next_transition_after(Time::ZERO).unwrap().as_nanos() / 2);
        assert_eq!(s.rate_at(mid), s.rate_at(Time::ZERO));
    }

    #[test]
    fn trace_repeats() {
        let s = RateSchedule::trace(Time::from_millis(100), vec![10e6, 20e6, 30e6]);
        assert_eq!(s.rate_at(Time::from_millis(50)), 10e6);
        assert_eq!(s.rate_at(Time::from_millis(150)), 20e6);
        assert_eq!(s.rate_at(Time::from_millis(250)), 30e6);
        assert_eq!(s.rate_at(Time::from_millis(350)), 10e6);
        assert_eq!(
            s.next_transition_after(Time::from_millis(250)),
            Some(Time::from_millis(300))
        );
        assert_eq!(
            s.next_transition_after(Time::from_millis(350)),
            Some(Time::from_millis(400))
        );
    }

    #[test]
    fn an_off_grid_sinusoid_repeats_after_whole_segments() {
        // 100 ms + 1 ns is not a whole number of its 1.5625 ms segments: the
        // table holds the reference's first 65 segments, then repeats them
        // where the reference drifts against its own segments.
        let period = Time::from_nanos(100_000_001);
        let s = RateSchedule::sinusoid(48e6, 0.25, period);
        let reference = Reference::sinusoid(48e6, 0.25, period);
        let segment = 1_562_500;
        let table = Time::from_nanos(65 * segment);
        assert_eq!(s.period, Some(table));
        for k in 0..65 {
            let t = Time::from_nanos(k * segment);
            assert_eq!(s.rate_at(t).to_bits(), reference.rate_at(t).to_bits());
            assert_eq!(s.rate_at(t + table), s.rate_at(t));
        }
    }

    #[test]
    fn mahimahi_traces_bin_into_rates_and_repeat() {
        // 5 opportunities in [0, 100) ms, 0 in [100, 200), 2 in [200, 300):
        // 3 bins at 100 ms, repeating.  Note the unsorted + repeated lines.
        let text = "0\n50\n50\n99\n20\n250\n201\n300\n";
        let s = RateSchedule::from_mahimahi_str(text, Time::from_millis(100)).unwrap();
        let bps = |packets: f64| packets * 1504.0 * 8.0 / 0.1;
        assert_eq!(s.rate_at(Time::from_millis(50)), bps(5.0));
        // The floor keeps the empty bin from dividing by zero downstream.
        assert_eq!(s.rate_at(Time::from_millis(150)), MIN_RATE_BPS);
        // The final timestamp (300 = the wrap point) lands in the last bin.
        assert_eq!(s.rate_at(Time::from_millis(250)), bps(3.0));
        // Wraps like mm-link.
        assert_eq!(s.rate_at(Time::from_millis(350)), bps(5.0));
        assert!(!s.is_constant());
    }

    #[test]
    fn mahimahi_parse_errors_are_actionable() {
        let err =
            RateSchedule::from_mahimahi_str("12\nfast\n20\n", Time::from_millis(100)).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("fast"), "{err}");
        let err = RateSchedule::from_mahimahi_str("\n  \n", Time::from_millis(100)).unwrap_err();
        assert!(err.contains("no delivery opportunities"), "{err}");
        let err = RateSchedule::from_mahimahi_str("0\n0\n", Time::from_millis(100)).unwrap_err();
        assert!(err.contains("t=0"), "{err}");
        let err = RateSchedule::from_mahimahi_file("/nonexistent/x.trace").unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
    }

    #[test]
    fn bundled_sample_trace_loads() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../traces/sample-cellular.mahimahi"
        );
        let s = RateSchedule::from_mahimahi_file(path).unwrap();
        assert!(!s.is_constant());
        // The sample is a varying multi-Mbit/s link with a deep fade.
        assert!(s.max_rate_bps() > 5e6, "max {}", s.max_rate_bps());
        assert!(s.min_rate_bps() < 1e6, "min {}", s.min_rate_bps());
    }

    #[test]
    fn integral_matches_hand_computation() {
        // 10 Mbit/s for 1 s, then 20 Mbit/s for 1 s: 30 Mbit total.
        let s = RateSchedule::step(10e6, Time::from_secs_f64(1.0), 20e6);
        let bits = s.integral_bits(Time::ZERO, Time::from_secs_f64(2.0));
        assert!((bits - 30e6).abs() < 1.0, "{bits}");
        // Partial windows.
        let bits = s.integral_bits(Time::from_millis(500), Time::from_millis(1500));
        assert!((bits - 15e6).abs() < 1.0, "{bits}");
        // Empty and inverted windows.
        assert_eq!(
            s.integral_bits(Time::from_secs_f64(2.0), Time::from_secs_f64(2.0)),
            0.0
        );
        assert_eq!(
            s.integral_bits(Time::from_secs_f64(3.0), Time::from_secs_f64(2.0)),
            0.0
        );
    }

    #[test]
    fn sinusoid_integral_approximates_mean_rate() {
        // Over a whole number of periods the sinusoid's integral equals the
        // mean rate times the duration (the quantized waveform is slightly
        // off; allow 2%).
        let s = RateSchedule::sinusoid(48e6, 0.25, Time::from_secs_f64(4.0));
        let bits = s.integral_bits(Time::ZERO, Time::from_secs_f64(8.0));
        let expect = 48e6 * 8.0;
        assert!(
            (bits - expect).abs() / expect < 0.02,
            "integral {bits} vs {expect}"
        );
    }

    /// Family `family` of `prop_the_table_matches_the_four_family_reference`
    /// built from its other arguments, with its reference and the span its
    /// queries cover.
    fn draw(
        family: u8,
        rates: &[f64],
        at_ms: &[u64],
        at_zero: bool,
        amplitude_frac: f64,
        period_exp: f64,
        stamps_ms: &[u64],
    ) -> (RateSchedule, Reference, Time) {
        let interval = Time::from_millis(at_ms[0].max(1));
        let mut times: Vec<Time> = at_ms.iter().map(|&ms| Time::from_millis(ms)).collect();
        times.sort();
        if at_zero {
            times[0] = Time::ZERO;
        }
        let mut steps: Vec<(Time, f64)> = times.into_iter().zip(rates.iter().copied()).collect();
        let (s, r) = match family {
            0 => (
                RateSchedule::constant(rates[0]),
                Reference::Constant(rates[0]),
            ),
            1 | 2 => {
                steps.truncate(if family == 1 { 1 } else { steps.len() });
                let initial_bps = rates[rates.len() - 1];
                (
                    RateSchedule::steps(initial_bps, steps.clone()),
                    Reference::Steps { initial_bps, steps },
                )
            }
            3 => {
                // Whole milliseconds from 1 ms to 60 s, log-uniform so about
                // 40 % fall below the 64 ms quantization floor.
                let period_ms = 60_000f64.powf(period_exp).round().max(1.0);
                let period = Time::from_millis(period_ms as u64);
                (
                    RateSchedule::sinusoid(rates[0], amplitude_frac, period),
                    Reference::sinusoid(rates[0], amplitude_frac, period),
                )
            }
            4 | 5 => {
                let rates = if family == 4 { rates } else { &rates[..1] };
                (
                    RateSchedule::trace(interval, rates.to_vec()),
                    Reference::Trace {
                        interval,
                        rates_bps: rates.to_vec(),
                    },
                )
            }
            _ => {
                let text: String = stamps_ms.iter().map(|ms| format!("{ms}\n")).collect();
                let s = RateSchedule::from_mahimahi_str(&format!("{text}3000\n"), interval)
                    .expect("the trace ends at 3 s");
                let rates_bps = s.rates().collect();
                (
                    s,
                    Reference::Trace {
                        interval,
                        rates_bps,
                    },
                )
            }
        };
        // Fifty periods of a periodic table; well past the last step of one
        // that is not.
        let span = match s.period {
            Some(p) => Time::from_nanos(p.as_nanos() * 50),
            None => Time::from_secs_f64(12.0),
        };
        (s, r, span)
    }

    proptest! {
        #[test]
        fn prop_the_table_matches_the_four_family_reference(
            family in 0u8..7,
            rates in collection::vec(0.0f64..100e6, 1..40),
            at_ms in collection::vec(0u64..5_000, 1..8),
            at_zero in 0u8..2,
            amplitude_frac in 0.0f64..1.0,
            period_exp in 0.0f64..1.0,
            stamps_ms in collection::vec(0u64..3_000, 1..200),
            queries in collection::vec((0.0f64..1.0, 0u8..3), 64..128),
            windows in collection::vec((0.0f64..1.0, 0.0f64..1.0), 8..16),
        ) {
            let (s, r, span) = draw(
                family, &rates, &at_ms, at_zero == 1, amplitude_frac, period_exp, &stamps_ms,
            );
            let at = |frac: f64, of: Time| Time::from_nanos((frac * of.as_nanos() as f64) as u64);
            for &(frac, snap) in &queries {
                let mut t = at(frac, span);
                // Land on a transition, or one nanosecond before it.
                if let (1 | 2, Some(next)) = (snap, r.next_transition_after(t)) {
                    t = Time::from_nanos(next.as_nanos() - u64::from(snap == 2));
                }
                prop_assert_eq!(s.rate_at(t).to_bits(), r.rate_at(t).to_bits(), "rate at {}", t);
                prop_assert_eq!(s.next_transition_after(t), r.next_transition_after(t), "after {}", t);
            }
            // Windows up to three periods long (or the whole span).
            let longest = s.period.map_or(span, |p| Time::from_nanos(p.as_nanos() * 3));
            for &(start, len) in &windows {
                let t0 = at(start, span);
                let t1 = t0 + at(len, longest);
                prop_assert_eq!(
                    s.integral_bits(t0, t1).to_bits(),
                    r.integral_bits(t0, t1).to_bits(),
                    "integral over [{}, {}]", t0, t1
                );
            }
        }
    }
}
