//! A multi-flow watcher's receive-rate window is held to the batch statistic
//! it replaced.
//!
//! A coordinated `ElasticityProbe` keeps the flow's receive rate in a
//! sliding DFT, its `RecvWindow`, and reads the watcher's presence test and
//! the pulser's conflict-check peak from its bins.  The reference is the statistic as it was computed on a whole
//! series: the mean-removed 500-point FFT of the last window, the peaks the
//! largest magnitudes within 0.3 Hz of `f_pc` and `f_pd`, the background the
//! median magnitude over `(1 Hz, 2·max(f_pc, f_pd))` outside both
//! neighbourhoods, and a pulser present at a peak-to-background ratio of 4.
//! Over noisy windows carrying pulses at `f_pc`, at `f_pd`, at both and at
//! neither, at 5/6 Hz and at App. F's 2/3 Hz, this file asserts at every
//! checked step
//!
//! 1. the same presence verdict (no pulser, or one in competitive or delay
//!    mode), except where a ratio lies within 1e-6 of the threshold or the
//!    two peaks within the magnitude bound of each other (there either
//!    answer is rounding);
//! 2. conflict-check peaks (within the detector's 0.25 Hz of `f_pc` and of
//!    `f_pd`) within `1e-9 · scale` of the reference's, where `scale` is the
//!    largest `|x|` among the last two windows of samples, the bound
//!    `streaming_equivalence.rs` holds the detector to.

use nimbus_core::probe::RecvWindow;
use nimbus_core::ElasticityConfig;
use nimbus_core::Mode;
use nimbus_dsp::{PulseGenerator, Spectrum};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: usize = 500;
const SAMPLE_RATE_HZ: f64 = 100.0;
const PRESENCE_TOLERANCE_HZ: f64 = 0.3;
const PEAK_TOLERANCE_HZ: f64 = 0.25;

/// The batch statistic on one window: the presence verdict, both
/// peak-to-background ratios, and the window's spectrum.
fn reference(window: &[f64], fc: f64, fd: f64) -> (Option<Mode>, [f64; 2], [f64; 2], Spectrum) {
    let spectrum = Spectrum::of_signal(window, SAMPLE_RATE_HZ, true);
    let tol = PRESENCE_TOLERANCE_HZ;
    let peaks = [spectrum.peak_near(fc, tol), spectrum.peak_near(fd, tol)];
    let hi = fc.max(fd);
    let mut background_bins: Vec<f64> = (0..spectrum.magnitudes.len())
        .filter(|&bin| {
            let f = spectrum.frequency_of_bin(bin);
            f > 1.0 && f < 2.0 * hi && (f - fc).abs() > tol && (f - fd).abs() > tol
        })
        .map(|bin| spectrum.magnitudes[bin])
        .collect();
    let background = nimbus_dsp::stats::median(&mut background_bins).max(1e-9);
    let ratios = peaks.map(|peak| peak / background);
    let presence = match (ratios[0] >= 4.0, ratios[1] >= 4.0) {
        (false, false) => None,
        _ if peaks[0] >= peaks[1] => Some(Mode::Competitive),
        _ => Some(Mode::Delay),
    };
    (presence, ratios, peaks, spectrum)
}

/// What one family of windows carries: pulses at `f_pc`, at `f_pd`, at both,
/// or at neither.
const FAMILIES: [(&str, bool, bool); 4] = [
    ("f_pc", true, false),
    ("f_pd", false, true),
    ("both", true, true),
    ("neither", false, false),
];

#[test]
fn streaming_presence_and_peaks_match_the_batch_statistic() {
    let mut windows = 0;
    let mut skipped = 0;
    let mut seen = [0usize; 3];
    for fc in [5.0, 2.0] {
        let fd = fc + 1.0;
        let cfg = ElasticityConfig {
            pulse_freq_hz: fc,
            ..ElasticityConfig::default()
        };
        for (family, at_c, at_d) in FAMILIES {
            for seed in 0..4u64 {
                let mut rng = StdRng::seed_from_u64(seed * 97 + fc as u64);
                let mut recv = RecvWindow::new(&cfg, fc, fd);
                // Amplitudes and noise that put the peak-to-background
                // ratio on both sides of the threshold across seeds.
                let (amp_c, amp_d) = (
                    if at_c { rng.gen_range(0.3e6..6e6) } else { 0.0 },
                    if at_d { rng.gen_range(0.3e6..6e6) } else { 0.0 },
                );
                let noise = rng.gen_range(1e6..8e6);
                let (pulse_c, pulse_d) = (
                    PulseGenerator::asymmetric(fc, amp_c),
                    PulseGenerator::asymmetric(fd, amp_d),
                );
                let mut series = Vec::new();
                for i in 0..3 * N {
                    let t = i as f64 / SAMPLE_RATE_HZ;
                    let x = 20e6
                        + pulse_c.offset_at(t)
                        + pulse_d.offset_at(t)
                        + noise * (rng.gen::<f64>() - 0.5) * 2.0;
                    series.push(x);
                    recv.push(t, x);
                    let label = || format!("f_pc={fc} {family} seed={seed} step {i}");
                    if series.len() < N {
                        assert_eq!(recv.presence(), None, "{}", label());
                        assert_eq!(recv.peak(fc), None, "{}", label());
                        continue;
                    }
                    if i % 10 != 0 {
                        continue;
                    }
                    windows += 1;
                    let window = &series[series.len() - N..];
                    let (want, ratios, peaks, spectrum) = reference(window, fc, fd);
                    let scale = series
                        .iter()
                        .rev()
                        .take(2 * N)
                        .fold(0.0_f64, |m, x| m.max(x.abs()));
                    let tol = 1e-9 * scale;
                    for f in [fc, fd] {
                        let got = recv.peak(f).expect("the window is full");
                        let want = spectrum.peak_near(f, PEAK_TOLERANCE_HZ);
                        assert!(
                            (got - want).abs() <= tol,
                            "{}: peak at {f} Hz {got} vs reference {want}",
                            label()
                        );
                    }
                    let got = recv.presence();
                    let on_threshold = ratios.iter().any(|r| (r / 4.0 - 1.0).abs() <= 1e-6);
                    if on_threshold || (peaks[0] - peaks[1]).abs() <= 2.0 * tol {
                        skipped += 1;
                        continue;
                    }
                    assert_eq!(got, want, "{}: ratios {ratios:?}", label());
                    seen[want.map_or(0, |mode| 1 + mode as usize)] += 1;
                }
            }
        }
    }
    assert!(windows >= 1000, "only {windows} windows compared");
    assert!(
        skipped * 100 < windows,
        "{skipped} of {windows} windows skipped"
    );
    // Every verdict occurs, so the comparison is not vacuous.
    assert!(
        seen.iter().all(|&count| count >= 50),
        "verdicts none/delay/competitive seen {seen:?} times"
    );
}
