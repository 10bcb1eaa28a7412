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
//! Four families are supported:
//!
//! * [`RateSchedule::Constant`] — the classic fixed-µ link.
//! * [`RateSchedule::Steps`] — an initial rate plus a sorted sequence of
//!   `(time, new_rate)` transitions (rate steps, outages, staircases).
//! * [`RateSchedule::Sinusoid`] — µ oscillates around a mean, quantized into
//!   piecewise-constant segments of `update_interval` so event scheduling
//!   stays exact and deterministic.
//! * [`RateSchedule::Trace`] — a slice of rates applied in fixed intervals
//!   (trace-driven cellular-like links), optionally repeating.
//!
//! All schedules floor the rate at [`MIN_RATE_BPS`] so a "zero-rate outage"
//! segment serializes glacially instead of dividing by zero or wedging the
//! event loop.

use nimbus_core_types::Time;
use serde::{Deserialize, Serialize};

/// The minimum rate any schedule will report, in bits per second.  A segment
/// configured at or below zero is clamped here, which models a (near-)outage
/// without producing infinite serialization times.
pub const MIN_RATE_BPS: f64 = 1.0;

/// A piecewise-constant bottleneck-rate schedule µ(t).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum RateSchedule {
    /// A fixed rate for the whole run.
    Constant(f64),
    /// An initial rate plus sorted `(transition_time, new_rate)` steps.
    Steps {
        /// Rate before the first transition, bits/s.
        initial_bps: f64,
        /// Sorted transition points: at each `Time` the rate becomes the paired value.
        steps: Vec<(Time, f64)>,
    },
    /// `µ(t) = mean + amplitude·sin(2π·t/period)`, quantized into
    /// piecewise-constant segments of `update_interval`.
    Sinusoid {
        /// Mean rate, bits/s.
        mean_bps: f64,
        /// Peak deviation from the mean, bits/s.
        amplitude_bps: f64,
        /// Oscillation period.
        period: Time,
        /// Quantization interval: the rate is re-evaluated (and the engine
        /// notified) every `update_interval`.
        update_interval: Time,
    },
    /// A rate trace sampled at a fixed interval.
    Trace {
        /// Duration of each trace sample.
        interval: Time,
        /// The per-interval rates, bits/s.
        rates_bps: Vec<f64>,
        /// Whether the trace wraps around when exhausted (otherwise the last
        /// sample's rate holds forever).
        repeat: bool,
    },
}

impl RateSchedule {
    /// A constant-rate schedule.
    pub fn constant(rate_bps: f64) -> Self {
        RateSchedule::Constant(rate_bps)
    }

    /// A single rate step: `initial_bps` until `at`, then `to_bps`.
    pub fn step(initial_bps: f64, at: Time, to_bps: f64) -> Self {
        RateSchedule::Steps {
            initial_bps,
            steps: vec![(at, to_bps)],
        }
    }

    /// A sinusoid of `amplitude_frac·mean_bps` around `mean_bps`, quantized
    /// at `period/64` (bounded below by 1 ms).
    pub fn sinusoid(mean_bps: f64, amplitude_frac: f64, period: Time) -> Self {
        let update = Time::from_nanos((period.as_nanos() / 64).max(1_000_000));
        RateSchedule::Sinusoid {
            mean_bps,
            amplitude_bps: amplitude_frac * mean_bps,
            period,
            update_interval: update,
        }
    }

    /// The names of the curated built-in traces accepted by
    /// [`RateSchedule::builtin_trace`], for error messages and docs.
    pub fn builtin_trace_names() -> &'static [&'static str] {
        &["cellular", "wifi", "step-outage"]
    }

    /// The curated built-in trace with the given name, as `(interval_s,
    /// factors-of-base-rate)`, or `None` for an unknown name.
    ///
    /// * `cellular` — LTE-like: large swings (0.15–1.5× base) with deep
    ///   fades, 500 ms granularity, repeating every 16 s.
    /// * `wifi` — moderate variation (0.55–1.2× base) with occasional dips
    ///   from contention, 200 ms granularity, repeating every 4.8 s.
    /// * `step-outage` — nominal rate with a 2-second near-outage (0.02×)
    ///   and a staged recovery, 1 s granularity, repeating every 16 s.
    pub fn builtin_trace_factors(name: &str) -> Option<(f64, &'static [f64])> {
        match name {
            "cellular" => Some((
                0.5,
                &[
                    1.0, 1.2, 0.9, 0.5, 0.3, 0.15, 0.4, 0.8, 1.1, 1.5, 1.3, 0.7, 0.45, 0.25, 0.6,
                    1.0, 1.4, 1.1, 0.8, 0.35, 0.2, 0.55, 0.9, 1.2, 1.0, 0.65, 0.4, 0.85, 1.3, 1.5,
                    1.1, 0.75,
                ],
            )),
            "wifi" => Some((
                0.2,
                &[
                    1.0, 1.1, 1.2, 1.0, 0.9, 1.1, 0.7, 0.6, 1.0, 1.2, 1.1, 0.95, 0.8, 0.55, 0.9,
                    1.15, 1.05, 1.0, 0.85, 0.7, 1.1, 1.2, 0.95, 0.65,
                ],
            )),
            "step-outage" => Some((
                1.0,
                &[
                    1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.02, 0.02, 0.3, 0.6, 1.0, 1.0, 1.0, 1.0, 1.0,
                    1.0,
                ],
            )),
            _ => None,
        }
    }

    /// A curated built-in trace materialized against `base_bps` (the trace's
    /// factors scale the base rate), or `None` for an unknown name.  See
    /// [`RateSchedule::builtin_trace_factors`] for the catalogue.
    pub fn builtin_trace(name: &str, base_bps: f64) -> Option<Self> {
        let (interval_s, factors) = Self::builtin_trace_factors(name)?;
        Some(Self::trace(
            Time::from_secs_f64(interval_s),
            factors.iter().map(|f| f * base_bps).collect(),
            true,
        ))
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
    /// a repeating piecewise-constant [`RateSchedule::Trace`]; the absolute
    /// rates come from the file (unlike the factor-based built-in traces, no
    /// base rate scales them).
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
        Ok(Self::trace(bin, rates, true))
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

    /// A trace schedule from per-interval rates.
    pub fn trace(interval: Time, rates_bps: Vec<f64>, repeat: bool) -> Self {
        assert!(
            !rates_bps.is_empty(),
            "trace must contain at least one rate"
        );
        assert!(interval > Time::ZERO, "trace interval must be positive");
        RateSchedule::Trace {
            interval,
            rates_bps,
            repeat,
        }
    }

    /// The instantaneous rate at time `t`, floored at [`MIN_RATE_BPS`].
    pub fn rate_at(&self, t: Time) -> f64 {
        let raw = match self {
            RateSchedule::Constant(r) => *r,
            RateSchedule::Steps { initial_bps, steps } => {
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
            RateSchedule::Sinusoid {
                mean_bps,
                amplitude_bps,
                period,
                update_interval,
            } => {
                // Quantize to the start of the containing segment so the value
                // is constant between transitions the engine knows about.
                let seg_start =
                    (t.as_nanos() / update_interval.as_nanos()) * update_interval.as_nanos();
                let phase =
                    (seg_start % period.as_nanos().max(1)) as f64 / period.as_nanos().max(1) as f64;
                mean_bps + amplitude_bps * (std::f64::consts::TAU * phase).sin()
            }
            RateSchedule::Trace {
                interval,
                rates_bps,
                repeat,
            } => {
                let idx = (t.as_nanos() / interval.as_nanos()) as usize;
                let idx = if *repeat {
                    idx % rates_bps.len()
                } else {
                    idx.min(rates_bps.len() - 1)
                };
                rates_bps[idx]
            }
        };
        raw.max(MIN_RATE_BPS)
    }

    /// The earliest time strictly after `t` at which the rate changes, or
    /// `None` if the rate is constant from `t` on.
    pub fn next_transition_after(&self, t: Time) -> Option<Time> {
        match self {
            RateSchedule::Constant(_) => None,
            RateSchedule::Steps { steps, .. } => steps.iter().map(|&(at, _)| at).find(|&at| at > t),
            RateSchedule::Sinusoid {
                update_interval, ..
            } => {
                let iv = update_interval.as_nanos();
                Some(Time::from_nanos((t.as_nanos() / iv + 1) * iv))
            }
            RateSchedule::Trace {
                interval,
                rates_bps,
                repeat,
            } => {
                let iv = interval.as_nanos();
                let next_k = t.as_nanos() / iv + 1;
                if !*repeat && next_k as usize >= rates_bps.len() {
                    // After the last sample the final rate holds forever.
                    return None;
                }
                Some(Time::from_nanos(next_k * iv))
            }
        }
    }

    /// The rate at simulation start (used to size queues and as the nominal
    /// µ handed to schemes that take a configured link rate).
    pub fn initial_rate_bps(&self) -> f64 {
        self.rate_at(Time::ZERO)
    }

    /// The largest rate the schedule ever takes (floored at [`MIN_RATE_BPS`]).
    pub fn max_rate_bps(&self) -> f64 {
        match self {
            RateSchedule::Constant(r) => r.max(MIN_RATE_BPS),
            RateSchedule::Steps { initial_bps, steps } => steps
                .iter()
                .map(|&(_, r)| r)
                .fold(*initial_bps, f64::max)
                .max(MIN_RATE_BPS),
            RateSchedule::Sinusoid {
                mean_bps,
                amplitude_bps,
                ..
            } => (mean_bps + amplitude_bps.abs()).max(MIN_RATE_BPS),
            RateSchedule::Trace { rates_bps, .. } => {
                rates_bps.iter().copied().fold(MIN_RATE_BPS, f64::max)
            }
        }
    }

    /// The smallest rate the schedule ever takes (floored at [`MIN_RATE_BPS`]).
    pub fn min_rate_bps(&self) -> f64 {
        match self {
            RateSchedule::Constant(r) => r.max(MIN_RATE_BPS),
            RateSchedule::Steps { initial_bps, steps } => steps
                .iter()
                .map(|&(_, r)| r)
                .fold(*initial_bps, f64::min)
                .max(MIN_RATE_BPS),
            RateSchedule::Sinusoid {
                mean_bps,
                amplitude_bps,
                ..
            } => (mean_bps - amplitude_bps.abs()).max(MIN_RATE_BPS),
            RateSchedule::Trace { rates_bps, .. } => rates_bps
                .iter()
                .copied()
                .fold(f64::INFINITY, f64::min)
                .max(MIN_RATE_BPS),
        }
    }

    /// True when the schedule never changes rate.
    pub fn is_constant(&self) -> bool {
        matches!(self, RateSchedule::Constant(_))
            || self.next_transition_after(Time::ZERO).is_none()
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
        let s = RateSchedule::Steps {
            initial_bps: 10e6,
            steps: vec![
                (Time::from_secs_f64(1.0), 20e6),
                (Time::from_secs_f64(2.0), 5e6),
            ],
        };
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
        let t = RateSchedule::trace(Time::from_millis(100), vec![-5.0, 1e6], false);
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
    fn trace_repeats_or_holds() {
        let iv = Time::from_millis(100);
        let rates = vec![10e6, 20e6, 30e6];
        let hold = RateSchedule::trace(iv, rates.clone(), false);
        assert_eq!(hold.rate_at(Time::from_millis(50)), 10e6);
        assert_eq!(hold.rate_at(Time::from_millis(150)), 20e6);
        assert_eq!(hold.rate_at(Time::from_millis(250)), 30e6);
        assert_eq!(hold.rate_at(Time::from_secs_f64(100.0)), 30e6);
        // Transitions stop after the last sample.
        assert_eq!(
            hold.next_transition_after(Time::from_millis(150)),
            Some(Time::from_millis(200))
        );
        assert_eq!(hold.next_transition_after(Time::from_millis(250)), None);

        let wrap = RateSchedule::trace(iv, rates, true);
        assert_eq!(wrap.rate_at(Time::from_millis(350)), 10e6);
        assert_eq!(
            wrap.next_transition_after(Time::from_millis(350)),
            Some(Time::from_millis(400))
        );
    }

    #[test]
    fn builtin_traces_materialize_and_unknown_names_do_not() {
        for &name in RateSchedule::builtin_trace_names() {
            let (interval_s, factors) = RateSchedule::builtin_trace_factors(name).unwrap();
            assert!(interval_s > 0.0);
            assert!(factors.len() >= 8, "trace {name} too short to be useful");
            let s = RateSchedule::builtin_trace(name, 48e6).unwrap();
            // Factors scale the base rate; the schedule repeats.
            assert_eq!(s.rate_at(Time::ZERO), (factors[0] * 48e6).max(MIN_RATE_BPS));
            let period = interval_s * factors.len() as f64;
            assert_eq!(
                s.rate_at(Time::from_secs_f64(period + interval_s / 2.0)),
                s.rate_at(Time::from_secs_f64(interval_s / 2.0)),
            );
        }
        // The outage trace actually dips near zero but never to zero.
        let outage = RateSchedule::builtin_trace("step-outage", 48e6).unwrap();
        assert!(outage.min_rate_bps() < 2e6);
        assert!(outage.min_rate_bps() >= MIN_RATE_BPS);
        assert!(RateSchedule::builtin_trace("nonexistent", 48e6).is_none());
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
}
