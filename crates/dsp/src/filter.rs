//! Filters and moving statistics.
//!
//! * [`Ewma`] — exponentially weighted moving average.  Nimbus *watcher*
//!   flows smooth their transmission rate with an EWMA whose cutoff lies below
//!   `min(f_pc, f_pd)` so they do not react to (and hence do not echo) the
//!   pulser's oscillation (§6 of the paper).
//! * [`WindowedMin`] / [`WindowedMax`] — sliding-window extrema used by the
//!   congestion controllers (BBR's max-delivery-rate and min-RTT filters,
//!   Nimbus's bottleneck-rate estimate).

use std::collections::VecDeque;

/// Exponentially weighted moving average of a scalar signal.
#[derive(Debug, Clone)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Create an EWMA with smoothing factor `alpha` in `(0, 1]`.
    /// Larger `alpha` tracks the input faster.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        Ewma { alpha, value: None }
    }

    /// Create an EWMA whose -3 dB cutoff frequency is approximately
    /// `cutoff_hz` when updated every `sample_interval_s` seconds.
    ///
    /// For a first-order IIR smoother `y += α (x − y)` running at sample rate
    /// `f_s`, the cutoff is `f_c ≈ α f_s / (2π (1 − α))`; inverting gives the
    /// α used here.  Nimbus watchers pick `cutoff_hz < min(f_pc, f_pd)`.
    pub fn with_cutoff(cutoff_hz: f64, sample_interval_s: f64) -> Self {
        assert!(cutoff_hz > 0.0 && sample_interval_s > 0.0);
        let omega = 2.0 * std::f64::consts::PI * cutoff_hz * sample_interval_s;
        let alpha = omega / (omega + 1.0);
        Ewma::new(alpha.clamp(1e-6, 1.0))
    }

    /// Feed a new observation and return the updated average.
    pub fn update(&mut self, x: f64) -> f64 {
        let v = match self.value {
            None => x,
            Some(prev) => prev + self.alpha * (x - prev),
        };
        self.value = Some(v);
        v
    }

    /// Current value of the average (`None` until the first update).
    pub fn value(&self) -> Option<f64> {
        self.value
    }

    /// Reset the filter to its initial (empty) state.
    pub fn reset(&mut self) {
        self.value = None;
    }

    /// The smoothing factor.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

/// Sliding-window minimum over timestamped samples.
pub type WindowedMin = WindowedExtremum<false>;

/// Sliding-window maximum over timestamped samples.
pub type WindowedMax = WindowedExtremum<true>;

/// Sliding-window extremum over timestamped samples: the maximum when `MAX`,
/// the minimum otherwise ([`WindowedMax`] / [`WindowedMin`]).
///
/// Samples older than `window` (in the caller's time unit) relative to the
/// newest sample are evicted.  Uses a monotonic deque so updates are O(1)
/// amortized.
#[derive(Debug, Clone)]
pub struct WindowedExtremum<const MAX: bool> {
    window: f64,
    /// (timestamp, value), the extremum at the front: every later value is
    /// less extreme than the one before it.
    deque: VecDeque<(f64, f64)>,
}

impl<const MAX: bool> WindowedExtremum<MAX> {
    /// Create a windowed filter with the given window length.
    pub fn new(window: f64) -> Self {
        assert!(window > 0.0, "window must be positive");
        WindowedExtremum {
            window,
            deque: VecDeque::new(),
        }
    }

    /// Insert a sample observed at `now` and return the current extremum.
    pub fn update(&mut self, now: f64, value: f64) -> f64 {
        // A sample the new one matches or beats can never be the extremum
        // again: it leaves the window first.
        while let Some(&(_, back)) = self.deque.back() {
            let beaten = if MAX { back <= value } else { back >= value };
            if !beaten {
                break;
            }
            self.deque.pop_back();
        }
        self.deque.push_back((now, value));
        self.expire(now);
        self.deque.front().map(|&(_, v)| v).unwrap_or(value)
    }

    fn extremum(&self) -> Option<f64> {
        self.deque.front().map(|&(_, v)| v)
    }

    /// Drop samples older than the window relative to `now`.
    pub fn expire(&mut self, now: f64) {
        while let Some(&(t, _)) = self.deque.front() {
            if now - t > self.window {
                self.deque.pop_front();
            } else {
                break;
            }
        }
    }

    /// Clear all samples.
    pub fn reset(&mut self) {
        self.deque.clear();
    }
}

impl WindowedMin {
    /// Current minimum, if any sample is in the window.
    pub fn min(&self) -> Option<f64> {
        self.extremum()
    }
}

impl WindowedMax {
    /// Current maximum, if any sample is in the window.
    pub fn max(&self) -> Option<f64> {
        self.extremum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ewma_first_sample_is_identity() {
        let mut e = Ewma::new(0.1);
        assert_eq!(e.value(), None);
        assert_eq!(e.update(42.0), 42.0);
        assert_eq!(e.value(), Some(42.0));
    }

    #[test]
    fn ewma_converges_to_constant_input() {
        let mut e = Ewma::new(0.2);
        for _ in 0..200 {
            e.update(7.0);
        }
        assert!((e.value().unwrap() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn ewma_attenuates_oscillation_above_cutoff() {
        // 5 Hz oscillation, EWMA cutoff at 1 Hz sampled at 100 Hz: the output
        // swing should be far smaller than the input swing.
        let mut e = Ewma::with_cutoff(1.0, 0.01);
        let mut out = Vec::new();
        for i in 0..2000 {
            let t = i as f64 * 0.01;
            let x = 10.0 + 5.0 * (2.0 * std::f64::consts::PI * 5.0 * t).sin();
            out.push(e.update(x));
        }
        let tail = &out[1000..];
        let max = tail.iter().cloned().fold(f64::MIN, f64::max);
        let min = tail.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            max - min < 2.0,
            "swing {} should be well under input swing 10",
            max - min
        );
    }

    #[test]
    fn ewma_passes_slow_drift() {
        let mut e = Ewma::with_cutoff(1.0, 0.01);
        // Very slow ramp: output should track closely.
        let mut last = 0.0;
        for i in 0..5000 {
            let x = i as f64 * 0.001;
            last = e.update(x);
        }
        assert!((last - 5.0).abs() < 0.5);
    }

    #[test]
    #[should_panic]
    fn ewma_rejects_zero_alpha() {
        let _ = Ewma::new(0.0);
    }

    #[test]
    fn windowed_min_tracks_minimum_and_expires() {
        let mut m = WindowedMin::new(1.0);
        assert_eq!(m.update(0.0, 5.0), 5.0);
        assert_eq!(m.update(0.2, 3.0), 3.0);
        assert_eq!(m.update(0.4, 4.0), 3.0);
        // After the 3.0 sample ages out, the min is among {4.0, 6.0}.
        assert_eq!(m.update(1.3, 6.0), 4.0);
        assert_eq!(m.update(3.0, 7.0), 7.0);
    }

    #[test]
    fn windowed_max_tracks_maximum_and_expires() {
        let mut m = WindowedMax::new(10.0);
        m.update(0.0, 10.0);
        m.update(1.0, 20.0);
        m.update(2.0, 5.0);
        assert_eq!(m.max(), Some(20.0));
        m.update(12.5, 1.0);
        assert_eq!(m.max(), Some(1.0));
    }

    #[test]
    fn reset_clears_state() {
        let mut e = Ewma::new(0.5);
        e.update(1.0);
        e.reset();
        assert_eq!(e.value(), None);

        let mut m = WindowedMin::new(1.0);
        m.update(0.0, 1.0);
        m.reset();
        assert_eq!(m.min(), None);
    }

    proptest! {
        #[test]
        fn prop_ewma_bounded_by_input_range(xs in proptest::collection::vec(-1e6f64..1e6, 1..200), alpha in 0.01f64..1.0) {
            let mut e = Ewma::new(alpha);
            let lo = xs.iter().cloned().fold(f64::MAX, f64::min);
            let hi = xs.iter().cloned().fold(f64::MIN, f64::max);
            for &x in &xs {
                let v = e.update(x);
                prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
            }
        }

        #[test]
        fn prop_windowed_min_matches_bruteforce(samples in proptest::collection::vec((0.0f64..100.0, -1e3f64..1e3), 1..100)) {
            // Sort by timestamp to simulate time passing monotonically.
            let mut samples = samples;
            samples.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            let window = 5.0;
            let mut filt = WindowedMin::new(window);
            for (i, &(t, v)) in samples.iter().enumerate() {
                let got = filt.update(t, v);
                let expect = samples[..=i]
                    .iter()
                    .filter(|&&(ts, _)| t - ts <= window)
                    .map(|&(_, vv)| vv)
                    .fold(f64::MAX, f64::min);
                prop_assert!((got - expect).abs() < 1e-12);
            }
        }

        #[test]
        fn prop_windowed_max_matches_bruteforce(samples in proptest::collection::vec((0.0f64..100.0, -1e3f64..1e3), 1..100)) {
            let mut samples = samples;
            samples.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            let window = 5.0;
            let mut filt = WindowedMax::new(window);
            for (i, &(t, v)) in samples.iter().enumerate() {
                let got = filt.update(t, v);
                let expect = samples[..=i]
                    .iter()
                    .filter(|&&(ts, _)| t - ts <= window)
                    .map(|&(_, vv)| vv)
                    .fold(f64::MIN, f64::max);
                prop_assert!((got - expect).abs() < 1e-12);
            }
        }
    }
}
