//! Magnitude spectra and band peak searches.
//!
//! The elasticity metric (Eq. 3 of the paper) compares the FFT magnitude of
//! the cross-traffic rate at the pulse frequency `f_p` against the largest
//! magnitude in the open band `(f_p, 2 f_p)`:
//!
//! ```text
//!           |FFT_z(f_p)|
//! η = ─────────────────────────
//!      max_{f ∈ (f_p, 2 f_p)} |FFT_z(f)|
//! ```
//!
//! [`Spectrum`] wraps the magnitudes of a real-signal FFT together with the
//! sampling rate, so callers can ask for magnitudes "at a frequency" without
//! worrying about bin arithmetic.

use crate::complex::Complex;
use crate::fft::Fft;
use std::ops::{Range, RangeInclusive};

/// Magnitude spectrum of a real-valued, uniformly sampled signal.
#[derive(Debug, Clone)]
pub struct Spectrum {
    /// Magnitudes for bins `0..=n/2` (the one-sided spectrum).
    pub magnitudes: Vec<f64>,
    /// Sampling rate of the original signal in Hz.
    pub sample_rate_hz: f64,
    /// Number of time-domain samples the spectrum was computed from.
    pub n: usize,
}

impl Spectrum {
    /// Compute the one-sided magnitude spectrum of `signal` sampled at
    /// `sample_rate_hz`, optionally removing the mean first (the detector
    /// always removes it: the DC component otherwise dwarfs everything).
    pub fn of_signal(signal: &[f64], sample_rate_hz: f64, remove_mean: bool) -> Self {
        Self::of_signal_with_plan(
            &Fft::new(signal.len().max(1)),
            signal,
            sample_rate_hz,
            remove_mean,
        )
    }

    /// Same as [`Spectrum::of_signal`] but reusing a prepared [`Fft`] plan.
    pub fn of_signal_with_plan(
        plan: &Fft,
        signal: &[f64],
        sample_rate_hz: f64,
        remove_mean: bool,
    ) -> Self {
        assert!(
            !signal.is_empty(),
            "cannot take a spectrum of an empty signal"
        );
        assert!(sample_rate_hz > 0.0, "sample rate must be positive");
        let n = signal.len();
        let mean = if remove_mean {
            signal.iter().sum::<f64>() / n as f64
        } else {
            0.0
        };
        let buf: Vec<Complex> = signal
            .iter()
            .map(|&x| Complex::from_real(x - mean))
            .collect();
        let spec = plan.forward(&buf);
        // One-sided spectrum, normalized by n so magnitudes are in signal units.
        let half = n / 2;
        let magnitudes: Vec<f64> = spec[..=half].iter().map(|z| z.abs() / n as f64).collect();
        Spectrum {
            magnitudes,
            sample_rate_hz,
            n,
        }
    }

    /// Frequency resolution (bin width) in Hz.
    pub fn bin_width_hz(&self) -> f64 {
        self.sample_rate_hz / self.n as f64
    }

    /// Frequency in Hz corresponding to `bin`.
    pub fn frequency_of_bin(&self, bin: usize) -> f64 {
        bin as f64 * self.bin_width_hz()
    }

    /// Peak magnitude within `freq_hz ± tolerance_hz` (inclusive).
    ///
    /// The pulse frequency never lands exactly on a bin for arbitrary FFT
    /// durations, so the detector searches a small neighborhood.
    pub fn peak_near(&self, freq_hz: f64, tolerance_hz: f64) -> f64 {
        self.magnitudes[bins_near(freq_hz, tolerance_hz, self.sample_rate_hz, self.n)]
            .iter()
            .copied()
            .fold(0.0_f64, f64::max)
    }

    /// Peak magnitude over the open frequency band `(lo_hz, hi_hz)` —
    /// endpoints excluded, matching Eq. 3's `(f_p, 2 f_p)` band.
    pub fn peak_in_open_band(&self, lo_hz: f64, hi_hz: f64) -> f64 {
        band_peak(&self.magnitudes, self.sample_rate_hz, self.n, lo_hz, hi_hz)
    }
}

/// Bin index nearest to `freq_hz` for an `n`-point transform of a signal
/// sampled at `sample_rate_hz`.
pub fn bin_for_frequency(freq_hz: f64, sample_rate_hz: f64, n: usize) -> usize {
    ((freq_hz * n as f64 / sample_rate_hz).round().max(0.0)) as usize
}

/// The bins of an `n`-point one-sided spectrum that [`Spectrum::peak_near`]
/// searches: from the bin nearest `freq_hz - tolerance_hz` to the bin nearest
/// `freq_hz + tolerance_hz`, both clamped to `0..=n/2`.
pub fn bins_near(
    freq_hz: f64,
    tolerance_hz: f64,
    sample_rate_hz: f64,
    n: usize,
) -> RangeInclusive<usize> {
    let last = n / 2;
    let lo = bin_for_frequency((freq_hz - tolerance_hz).max(0.0), sample_rate_hz, n).min(last);
    let hi = bin_for_frequency(freq_hz + tolerance_hz, sample_rate_hz, n).min(last);
    lo..=hi
}

/// The bins of an `n`-point one-sided spectrum whose centre frequency lies
/// strictly inside the *open* band `(lo_hz, hi_hz)` — Eq. 3's comparison band
/// leaves its endpoints out.  Empty when no bin centre falls inside.
pub fn bins_in_open_band(lo_hz: f64, hi_hz: f64, sample_rate_hz: f64, n: usize) -> Range<usize> {
    let bin_width = sample_rate_hz / n as f64;
    let inside = |k: &usize| {
        let f = *k as f64 * bin_width;
        f > lo_hz + 1e-12 && f < hi_hz - 1e-12
    };
    let one_sided = 0..n / 2 + 1;
    let start = one_sided.clone().find(inside).unwrap_or(one_sided.end);
    start..start + (start..one_sided.end).take_while(inside).count()
}

/// Peak magnitude over the *open* band `(lo_hz, hi_hz)` of a one-sided
/// magnitude spectrum (`mags[k]` is the magnitude of bin `k`).
///
/// Returns 0.0 when the band contains no interior bins.
pub fn band_peak(mags: &[f64], sample_rate_hz: f64, n: usize, lo_hz: f64, hi_hz: f64) -> f64 {
    assert!(hi_hz > lo_hz, "band must be non-empty");
    let bins = bins_in_open_band(lo_hz, hi_hz, sample_rate_hz, n);
    mags[bins.start.min(mags.len())..bins.end.min(mags.len())]
        .iter()
        .copied()
        .fold(0.0_f64, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    /// Build a test signal: sum of sinusoids at the given (freq, amplitude) pairs.
    fn tone_mix(n: usize, fs: f64, tones: &[(f64, f64)]) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let t = i as f64 / fs;
                tones
                    .iter()
                    .map(|&(f, a)| a * (2.0 * PI * f * t).sin())
                    .sum()
            })
            .collect()
    }

    #[test]
    fn single_tone_peak_at_expected_frequency() {
        let fs = 100.0;
        let sig = tone_mix(500, fs, &[(5.0, 3.0)]);
        let spec = Spectrum::of_signal(&sig, fs, true);
        // The 5 Hz bin holds the largest magnitude.
        let peak = spec.peak_near(5.0, spec.bin_width_hz());
        assert!(spec.magnitudes[1..].iter().all(|&m| m <= peak));
        // Amplitude-a sine splits between the positive and negative bins:
        // the one-sided magnitude is a/2.
        assert!((spec.peak_near(5.0, 0.3) - 1.5).abs() < 0.1);
    }

    #[test]
    fn elasticity_style_ratio_distinguishes_tone_from_noise_free_band() {
        let fs = 100.0;
        let sig = tone_mix(500, fs, &[(5.0, 2.0), (12.0, 0.2)]);
        let spec = Spectrum::of_signal(&sig, fs, true);
        let peak_fp = spec.peak_near(5.0, 0.3);
        let band = spec.peak_in_open_band(5.3, 10.0);
        assert!(peak_fp / band.max(1e-12) > 5.0);
    }

    #[test]
    fn dc_removed_when_requested() {
        let sig = vec![10.0; 200];
        let spec = Spectrum::of_signal(&sig, 100.0, true);
        assert!(spec.magnitudes[0] < 1e-9);
        let spec_dc = Spectrum::of_signal(&sig, 100.0, false);
        assert!(spec_dc.magnitudes[0] > 9.0);
    }

    #[test]
    fn bin_frequency_round_trip() {
        let spec = Spectrum::of_signal(&vec![0.0; 500], 100.0, true);
        for bin in [0usize, 5, 25, 50, 100, 250] {
            let f = spec.frequency_of_bin(bin);
            assert_eq!(bin_for_frequency(f, 100.0, 500), bin);
        }
        assert!((spec.bin_width_hz() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn open_band_excludes_endpoints() {
        // Put a strong tone exactly at 5 Hz; the open band (5, 10) must not see it.
        let fs = 100.0;
        let n = 500;
        let sig = tone_mix(n, fs, &[(5.0, 4.0)]);
        let spec = Spectrum::of_signal(&sig, fs, true);
        let in_band = spec.peak_in_open_band(5.0, 10.0);
        let at_fp = spec.peak_near(5.0, 0.05);
        assert!(at_fp > 1.0);
        // Leakage is small compared to the on-bin peak.
        assert!(in_band < at_fp * 0.5);
    }

    #[test]
    fn band_peak_empty_band_is_zero() {
        let mags = vec![1.0, 2.0, 3.0];
        // Band narrower than one bin at high frequency: no interior bins.
        assert_eq!(band_peak(&mags, 100.0, 100, 70.0, 70.5), 0.0);
    }

    #[test]
    #[should_panic]
    fn inverted_band_panics() {
        let mags = vec![1.0; 8];
        band_peak(&mags, 100.0, 16, 10.0, 5.0);
    }
}
