//! Biquad (second-order IIR) filter sections, including the notch used by
//! the ẑ pre-filter stage.
//!
//! The elasticity detector's input ẑ(t) can carry a large component at the
//! *link's* rate-variation frequency: on a time-varying bottleneck the
//! µ-estimation error `µ̂ − µ(t)` oscillates with the link, and Eq. 1 turns
//! that error into a spurious cross-traffic swing that both dwarfs and (via
//! spectral leakage) contaminates the pulse band the detector inspects.
//! A narrow notch at the known link-variation frequency removes exactly that
//! component while leaving the pulse frequency `f_p` untouched — the
//! `zfilter=notch` stage of the cross-traffic estimator (see
//! `nimbus_core::estimator`).
//!
//! Coefficients follow the RBJ Audio-EQ cookbook; the filter is applied as a
//! *streaming* direct-form-I section so its state is continuous across the
//! detector's sliding windows (re-filtering each window from scratch would
//! put the filter's own transient inside every FFT).

use serde::{Deserialize, Serialize};
use std::f64::consts::TAU;

/// A second-order IIR section with normalized coefficients (`a0 == 1`):
///
/// ```text
/// y[n] = b0·x[n] + b1·x[n−1] + b2·x[n−2] − a1·y[n−1] − a2·y[n−2]
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Biquad {
    /// Feed-forward coefficients.
    b0: f64,
    /// Feed-forward, one sample back.
    b1: f64,
    /// Feed-forward, two samples back.
    b2: f64,
    /// Feedback, one sample back.
    a1: f64,
    /// Feedback, two samples back.
    a2: f64,
    x1: f64,
    x2: f64,
    y1: f64,
    y2: f64,
}

impl Biquad {
    /// A section from raw normalized coefficients.
    pub fn from_coefficients(b0: f64, b1: f64, b2: f64, a1: f64, a2: f64) -> Self {
        Biquad {
            b0,
            b1,
            b2,
            a1,
            a2,
            x1: 0.0,
            x2: 0.0,
            y1: 0.0,
            y2: 0.0,
        }
    }

    /// A notch at `freq_hz` with quality factor `q`, sampled at
    /// `sample_rate_hz` (RBJ cookbook).  Unity gain away from the notch; the
    /// −3 dB bandwidth is `freq_hz / q`.
    ///
    /// # Panics
    /// Panics unless `0 < freq_hz < sample_rate_hz / 2` and `q > 0`.
    pub fn notch(freq_hz: f64, q: f64, sample_rate_hz: f64) -> Self {
        assert!(
            freq_hz > 0.0 && freq_hz < sample_rate_hz / 2.0,
            "notch frequency {freq_hz} Hz must lie in (0, {}) for sample rate {sample_rate_hz} Hz",
            sample_rate_hz / 2.0
        );
        assert!(q > 0.0, "notch Q must be positive");
        let omega = TAU * freq_hz / sample_rate_hz;
        let alpha = omega.sin() / (2.0 * q);
        let cos = omega.cos();
        let a0 = 1.0 + alpha;
        Biquad::from_coefficients(
            1.0 / a0,
            -2.0 * cos / a0,
            1.0 / a0,
            -2.0 * cos / a0,
            (1.0 - alpha) / a0,
        )
    }

    /// Process one sample and return the filtered value.
    pub fn process(&mut self, x: f64) -> f64 {
        let y = self.b0 * x + self.b1 * self.x1 + self.b2 * self.x2
            - self.a1 * self.y1
            - self.a2 * self.y2;
        self.x2 = self.x1;
        self.x1 = x;
        self.y2 = self.y1;
        self.y1 = y;
        y
    }

    /// Magnitude response at `freq_hz` for sample rate `sample_rate_hz`
    /// (evaluates `|H(e^{jω})|` analytically; used by tests and docs).
    pub fn magnitude_at(&self, freq_hz: f64, sample_rate_hz: f64) -> f64 {
        let omega = TAU * freq_hz / sample_rate_hz;
        let (sin, cos) = omega.sin_cos();
        let (sin2, cos2) = (2.0 * omega).sin_cos();
        // H(z) = (b0 + b1 z^-1 + b2 z^-2) / (1 + a1 z^-1 + a2 z^-2)
        let num_re = self.b0 + self.b1 * cos + self.b2 * cos2;
        let num_im = -self.b1 * sin - self.b2 * sin2;
        let den_re = 1.0 + self.a1 * cos + self.a2 * cos2;
        let den_im = -self.a1 * sin - self.a2 * sin2;
        (num_re * num_re + num_im * num_im).sqrt() / (den_re * den_re + den_im * den_im).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(freq_hz: f64, fs: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (TAU * freq_hz * i as f64 / fs).sin())
            .collect()
    }

    fn filtered(f: &mut Biquad, signal: &[f64]) -> Vec<f64> {
        signal.iter().map(|&x| f.process(x)).collect()
    }

    fn rms(xs: &[f64]) -> f64 {
        (xs.iter().map(|x| x * x).sum::<f64>() / xs.len() as f64).sqrt()
    }

    #[test]
    fn notch_kills_its_frequency_and_passes_others() {
        let fs = 100.0;
        let mut f = Biquad::notch(0.1, 0.7, fs);
        // 60 s of warm-up + 60 s of measurement at the notch frequency.
        let sig = tone(0.1, fs, 12_000);
        let out = filtered(&mut f, &sig);
        let tail = &out[6_000..];
        assert!(
            rms(tail) < 0.1 * rms(&sig[6_000..]),
            "notch left rms {}",
            rms(tail)
        );
        // The pulse band (5 Hz) passes essentially untouched.
        let mut f = Biquad::notch(0.1, 0.7, fs);
        let sig = tone(5.0, fs, 4_000);
        let out = filtered(&mut f, &sig);
        let tail = &out[2_000..];
        let ratio = rms(tail) / rms(&sig[2_000..]);
        assert!((ratio - 1.0).abs() < 0.05, "passband gain {ratio}");
    }

    #[test]
    fn analytic_magnitude_matches_measured_attenuation() {
        let fs = 100.0;
        let f = Biquad::notch(1.0, 1.0, fs);
        assert!(f.magnitude_at(1.0, fs) < 1e-9, "gain at the notch");
        assert!((f.magnitude_at(10.0, fs) - 1.0).abs() < 0.02);
        assert!((f.magnitude_at(0.05, fs) - 1.0).abs() < 0.02);
        // −3 dB points sit near f0 ± f0/(2Q).
        let edge = f.magnitude_at(1.0 + 0.5, fs);
        assert!(
            (edge - std::f64::consts::FRAC_1_SQRT_2).abs() < 0.1,
            "{edge}"
        );
    }

    #[test]
    fn filter_is_stable_on_a_step() {
        let mut f = Biquad::notch(0.5, 0.7, 100.0);
        let step = vec![1.0; 20_000];
        let out = filtered(&mut f, &step);
        // DC is in the passband of a notch: settles back to 1.
        assert!((out.last().unwrap() - 1.0).abs() < 1e-6);
        assert!(out.iter().all(|y| y.is_finite() && y.abs() < 10.0));
    }

    #[test]
    #[should_panic(expected = "notch frequency")]
    fn rejects_frequencies_above_nyquist() {
        let _ = Biquad::notch(60.0, 1.0, 100.0);
    }
}
