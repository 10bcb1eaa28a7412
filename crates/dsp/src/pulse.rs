//! Pulse shapes used to modulate the sending rate.
//!
//! §3.4 / Fig. 7 of the paper: rather than a pure sinusoid, Nimbus uses an
//! *asymmetric* sinusoidal pulse.  Over one period `T = 1/f_p`:
//!
//! * for the first quarter of the period the sender **adds** a half-sine of
//!   amplitude `A` (e.g. `µ/4`) to its base rate;
//! * for the remaining three quarters it **subtracts** a half-sine of
//!   amplitude `A/3` (e.g. `µ/12`).
//!
//! The two half-sines integrate to the same area, so the mean added rate over
//! a full period is zero, and a sender whose base rate is as low as `A/3` can
//! still pulse without going negative.

use serde::{Deserialize, Serialize};
use std::f64::consts::PI;

/// The asymmetric sinusoidal pulse of Fig. 7: given the time it returns
/// the rate *offset* (in the same units as the amplitude, e.g. bits per
/// second) to add to the base sending rate.
///
/// Positive half-sine of amplitude `A` over `T/4`, negative half-sine of
/// amplitude `A/3` over `3T/4`. The positive and negative areas cancel:
/// `A·(T/4)·(2/π) = (A/3)·(3T/4)·(2/π)`.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct AsymmetricPulse;

impl AsymmetricPulse {
    /// Rate offset at time `t` seconds for a pulse of frequency `freq_hz` and
    /// peak amplitude `amplitude` (positive peak).
    pub fn offset_at(&self, t: f64, freq_hz: f64, amplitude: f64) -> f64 {
        assert!(freq_hz > 0.0, "pulse frequency must be positive");
        let period = 1.0 / freq_hz;
        let phase = unit_phase(t / period); // in [0, 1)
        if phase < 0.25 {
            // Half sine over the first quarter: sin goes 0 -> 1 -> 0.
            amplitude * (PI * phase / 0.25).sin()
        } else {
            // Negative half sine over the remaining three quarters.
            -(amplitude / 3.0) * (PI * (phase - 0.25) / 0.75).sin()
        }
    }

    /// Mean of the offset over one full period (~0 by construction).
    /// Computed numerically; mostly useful for tests/diagnostics.
    pub fn mean_offset(&self, freq_hz: f64, amplitude: f64) -> f64 {
        let period = 1.0 / freq_hz;
        let steps = 10_000;
        let dt = period / steps as f64;
        let sum: f64 = (0..steps)
            .map(|i| self.offset_at((i as f64 + 0.5) * dt, freq_hz, amplitude))
            .sum();
        sum / steps as f64
    }
}

/// `x.rem_euclid(1.0)` without a library call: the remainder `fmod` returns
/// is exactly `x - x.trunc()`, and below 2^52 in magnitude (where `x` may
/// have a fraction) truncating through `i64` gives the same `x.trunc()`
/// inline.  Bit-identical for every `x ≥ 0`; at a negative integer the
/// result is `+0.0` where `rem_euclid` gives `-0.0`.
fn unit_phase(x: f64) -> f64 {
    const NO_FRACTION_FROM: f64 = 4_503_599_627_370_496.0; // 2^52
    let r = if x.abs() < NO_FRACTION_FROM {
        x - x as i64 as f64
    } else {
        x - x.trunc()
    };
    if r < 0.0 {
        r + 1.0
    } else {
        r
    }
}

/// A pulse generator bound to a particular frequency and amplitude, so the
/// sender machinery can just ask "what's my rate multiplier right now?".
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PulseGenerator {
    /// Pulse frequency in Hz (`f_p` in the paper, default 5 Hz).
    pub freq_hz: f64,
    /// Peak pulse amplitude in the rate unit used by the caller
    /// (the paper uses a fraction of the bottleneck rate, e.g. `µ/4`).
    pub amplitude: f64,
    /// Whether pulsing is currently enabled (watchers do not pulse).
    pub enabled: bool,
}

impl PulseGenerator {
    /// Create an asymmetric pulse generator at `freq_hz` with peak `amplitude`.
    pub fn asymmetric(freq_hz: f64, amplitude: f64) -> Self {
        PulseGenerator {
            freq_hz,
            amplitude,
            enabled: true,
        }
    }

    /// Rate offset (e.g. in bits/s) at absolute time `t` seconds.
    pub fn offset_at(&self, t: f64) -> f64 {
        if !self.enabled {
            return 0.0;
        }
        AsymmetricPulse.offset_at(t, self.freq_hz, self.amplitude)
    }

    /// Apply the pulse to a base rate, clamping at a small positive floor so
    /// the sender never stops entirely.
    pub fn modulate(&self, base_rate: f64, t: f64) -> f64 {
        (base_rate + self.offset_at(t))
            .max(base_rate * 0.05)
            .max(0.0)
    }

    /// Total bytes sent *above* the mean rate during the positive part of a
    /// pulse ("the size of the burst sent in a pulse", §3.4): `A·T/(2π)` for
    /// the asymmetric pulse with peak `A`, which for `A = µ/4` is
    /// `µT/(8π) ≈ 0.04·µT`.
    pub fn burst_bits(&self) -> f64 {
        let period = 1.0 / self.freq_hz;
        self.amplitude * (period / 4.0) * 2.0 / PI
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn asymmetric_pulse_peaks_match_paper() {
        let p = AsymmetricPulse;
        let fp = 5.0;
        let mu = 96e6;
        let amp = mu / 4.0;
        // Peak of the positive half-sine is at T/8.
        let peak = p.offset_at(1.0 / fp / 8.0, fp, amp);
        assert!((peak - amp).abs() < amp * 1e-9);
        // Trough of the negative half sine is at T/4 + (3T/4)/2 = 5T/8.
        let trough = p.offset_at(5.0 / (8.0 * fp), fp, amp);
        assert!((trough + amp / 3.0).abs() < amp * 1e-9);
    }

    #[test]
    fn asymmetric_pulse_integrates_to_zero() {
        let p = AsymmetricPulse;
        let mean = p.mean_offset(5.0, 24e6);
        assert!(mean.abs() < 24e6 * 1e-4, "mean offset {mean} too large");
    }

    #[test]
    fn pulse_is_periodic() {
        let p = AsymmetricPulse;
        let fp = 5.0;
        for k in 0..20 {
            let t = k as f64 * 0.017;
            let a = p.offset_at(t, fp, 1.0);
            let b = p.offset_at(t + 3.0 / fp, fp, 1.0);
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn burst_size_is_about_four_percent_of_mu_times_period() {
        // §3.4: burst ≈ 0.04 µT for amplitude µ/4.
        let mu = 96e6;
        let gen = PulseGenerator::asymmetric(5.0, mu / 4.0);
        let t = 1.0 / 5.0;
        let expected = mu * t / (8.0 * PI);
        assert!((gen.burst_bits() - expected).abs() < expected * 1e-9);
        assert!((gen.burst_bits() / (mu * t) - 0.0398).abs() < 0.002);
    }

    #[test]
    fn disabled_generator_never_modulates() {
        let gen = PulseGenerator {
            enabled: false,
            ..PulseGenerator::asymmetric(5.0, 24e6)
        };
        for i in 0..100 {
            assert_eq!(gen.offset_at(i as f64 * 0.01), 0.0);
            assert_eq!(gen.modulate(10e6, i as f64 * 0.01), 10e6);
        }
    }

    #[test]
    fn modulate_never_goes_negative() {
        let gen = PulseGenerator::asymmetric(5.0, 24e6);
        // Base rate far below amplitude/3: clamp must kick in.
        for i in 0..1000 {
            let r = gen.modulate(1e6, i as f64 * 0.001);
            assert!(r >= 0.0);
        }
    }

    #[test]
    fn fft_of_pulsed_rate_peaks_at_pulse_frequency() {
        // End-to-end within the crate: a rate signal modulated by the pulse
        // generator must show a dominant spectral component at f_p.
        use crate::spectrum::Spectrum;
        let fp = 5.0;
        let gen = PulseGenerator::asymmetric(fp, 24e6);
        let fs = 100.0;
        let sig: Vec<f64> = (0..500)
            .map(|i| gen.modulate(48e6, i as f64 / fs))
            .collect();
        let spec = Spectrum::of_signal(&sig, fs, true);
        let peak = spec.peak_near(fp, spec.bin_width_hz());
        assert!(spec.magnitudes[1..].iter().all(|&m| m <= peak));
    }

    #[test]
    fn unit_phase_is_rem_euclid_bit_for_bit() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(25);
        let edges = [
            0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            0.25,
            1.0 - f64::EPSILON / 2.0,
            1.0,
            1.0 + f64::EPSILON,
            12_345.999_999_999_998,
            4_503_599_627_370_495.5,
            4_503_599_627_370_496.0,
            9_007_199_254_740_992.0,
            9.3e18,
            f64::MAX,
            f64::INFINITY,
        ];
        let mut xs = edges.to_vec();
        // Random non-negative bit patterns (NaN payloads included), and run
        // times scaled by a 6 Hz pulse.
        xs.extend((0..1 << 18).map(|_| f64::from_bits(rng.gen::<u64>() >> 1)));
        xs.extend((0..1 << 18).map(|_| rng.gen_range(0.0..1e5) * 6.0));
        for x in xs {
            let (got, want) = (unit_phase(x), x.rem_euclid(1.0));
            assert!(
                got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                "x = {x:e}: {got:e} vs {want:e}"
            );
        }
        // Negative phases wrap the same way, up to the sign of zero.
        for x in [-0.3, -1.0, -2.75, -1e-300, -1e6 - 0.5, -1e19] {
            assert_eq!(unit_phase(x), x.rem_euclid(1.0), "x = {x:e}");
        }
    }

    proptest! {
        #[test]
        fn prop_asymmetric_bounded(t in 0.0f64..100.0, amp in 1.0f64..1e9, freq in 0.5f64..20.0) {
            let v = AsymmetricPulse.offset_at(t, freq, amp);
            prop_assert!(v <= amp + 1e-9);
            prop_assert!(v >= -amp / 3.0 - 1e-9);
        }

        #[test]
        fn prop_modulated_rate_non_negative(base in 0.0f64..1e9, t in 0.0f64..10.0) {
            let gen = PulseGenerator::asymmetric(5.0, 24e6);
            prop_assert!(gen.modulate(base, t) >= 0.0);
        }
    }
}
