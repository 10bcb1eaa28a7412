//! The elasticity detector (§3.3–§3.4 of the paper).
//!
//! The detector watches the estimated cross-traffic rate `ẑ(t)`, sampled on
//! every measurement tick, over a sliding window (5 seconds by default) and
//! forms the elasticity metric from that window's spectrum:
//!
//! ```text
//! η = |FFT_ẑ(f_p)| / max_{f ∈ (f_p, 2·f_p)} |FFT_ẑ(f)|        (Eq. 3)
//! ```
//!
//! If the cross traffic contains ACK-clocked (elastic) flows they oscillate
//! at the pulse frequency `f_p`, producing a pronounced peak there; inelastic
//! traffic spreads its energy over all frequencies.  A hard threshold
//! `η ≥` [`ETA_THRESHOLD`] (2, chosen in §3.4 from the Fig. 6 CDFs) yields
//! the binary verdict.
//!
//! The ẑ series is sampled at the CCP report cadence
//! ([`REPORT_INTERVAL`], §4.2) and enters the spectrum unwindowed (§3.4 takes
//! the plain FFT of the last 5 s).
//!
//! # Two ways in, one metric
//!
//! * **Streaming** — [`ElasticityDetector::push`] one sample per report,
//!   [`ElasticityDetector::evaluate_window`] for the verdict.  This is what
//!   the Nimbus controller runs.  No FFT happens: Eq. 3 reads ~30 of the
//!   window's 251 bins and the window moves one sample per report, so the
//!   detector keeps exactly those bins in a [`SlidingDft`] — O(bins) per
//!   sample, no allocation.  The window's mean never needs removing (a
//!   constant is invisible at every bin `k ≥ 1`, and the sliding update only
//!   sees sample differences), and rounding drift cannot build up (every bin
//!   is recomputed from the stored samples once per window); see
//!   [`nimbus_dsp::sliding`].  A verdict exists once the window's samples all
//!   lie within `fft_duration_s` of the newest — a flow whose reports carry
//!   no rates leaves gaps, and a window stretched over a gap is not a 5 s
//!   spectrum.
//! * **Batch** — [`ElasticityDetector::eta`] / [`ElasticityDetector::evaluate`]
//!   on a whole series: mean removal and a planned 500-point FFT.  Offline
//!   analysis (Fig. 6) uses it, and it is the *reference* the streaming path
//!   is held to (`tests/streaming_equivalence.rs`: same availability, same
//!   verdict, magnitudes within 1e-9 of the signal's scale).  Its FFT plan is
//!   built on first use, so a controller never pays for it.
//!
//! Both ways in tally their verdicts ([`VerdictTally`]: how many, how many
//! elastic, the last one) and keep none of them: a detector's memory is its
//! window, however long the connection runs.  The Nimbus controller hands
//! each verdict to its host's [`crate::Publisher`], which records the η
//! series if it wants one.

use nimbus_core_types::REPORT_INTERVAL;
use nimbus_dsp::spectrum::{bins_in_open_band, bins_near};
use nimbus_dsp::{Fft, SlidingDft, Spectrum};
use std::collections::VecDeque;
use std::ops::{Range, RangeInclusive};
use std::sync::OnceLock;

/// Half-width of the neighbourhood of `f_p` searched for its peak, Hz: just
/// over one bin of the 5 s FFT (0.2 Hz), so the pulse's own leakage stays out
/// of the (f_p, 2·f_p) comparison band of Eq. 3.
pub(crate) const PEAK_TOLERANCE_HZ: f64 = 0.25;

/// The decision threshold `η_thresh` (§3.4: 2, from the Fig. 6 CDFs).  A
/// Nimbus flow that must not switch (`switch=never`) keeps it: the mode
/// machine, not the detector, declines the switch.
pub const ETA_THRESHOLD: f64 = 2.0;

/// Detector configuration.
#[derive(Debug, Clone)]
pub struct ElasticityConfig {
    /// Pulse frequency `f_p` to look for, Hz (5 Hz by default).
    pub pulse_freq_hz: f64,
    /// Length of the FFT window, seconds (5 s by default, §3.4).
    pub fft_duration_s: f64,
}

impl Default for ElasticityConfig {
    fn default() -> Self {
        ElasticityConfig {
            pulse_freq_hz: 5.0,
            fft_duration_s: 5.0,
        }
    }
}

impl ElasticityConfig {
    /// Number of samples in a full detection window.
    pub fn window_samples(&self) -> usize {
        (self.fft_duration_s / REPORT_INTERVAL.as_secs_f64()).round() as usize
    }

    /// Sampling rate of the ẑ series in Hz.
    pub fn sample_rate_hz(&self) -> f64 {
        1.0 / REPORT_INTERVAL.as_secs_f64()
    }
}

/// The detector's output for one evaluation.
#[derive(Debug, Clone, Copy)]
pub struct DetectorVerdict {
    /// Evaluation time (seconds).
    pub t_s: f64,
    /// The elasticity metric η.
    pub eta: f64,
    /// η compared against the threshold.
    pub elastic: bool,
    /// |FFT_ẑ(f_p)| (diagnostics).
    pub peak_at_fp: f64,
    /// max over the comparison band (diagnostics).
    pub band_max: f64,
}

/// A [`SlidingDft`] whose samples carry their times: the window the detector
/// reads ẑ from, and the one a multi-flow watcher reads its receive rate
/// from.  Its magnitudes count once the window is full *and* spans at most
/// `fft_duration_s`.
#[derive(Debug, Clone)]
pub(crate) struct TimedWindow {
    bank: SlidingDft,
    /// The time of each sample in the window, oldest first.
    times: VecDeque<f64>,
    duration_s: f64,
}

impl TimedWindow {
    /// An empty window of [`ElasticityConfig::window_samples`], no bins held.
    pub(crate) fn new(cfg: &ElasticityConfig) -> Self {
        let n = cfg.window_samples().max(1);
        TimedWindow {
            bank: SlidingDft::new(n),
            times: VecDeque::with_capacity(n),
            duration_s: cfg.fft_duration_s,
        }
    }

    /// The window length `N`.
    pub(crate) fn len(&self) -> usize {
        self.bank.window_len()
    }

    /// Hold at least the bins from the lowest to the highest of `bins` from
    /// now on (see [`SlidingDft::cover`]).
    pub(crate) fn cover(&mut self, bins: impl Iterator<Item = usize> + Clone) {
        if let (Some(lo), Some(hi)) = (bins.clone().min(), bins.max()) {
            self.bank.cover(lo, hi);
        }
    }

    /// Slide the window by one sample taken at `t_s`.
    pub(crate) fn push(&mut self, t_s: f64, x: f64) {
        if self.times.len() == self.len() {
            self.times.pop_front();
        }
        self.times.push_back(t_s);
        self.bank.push(x);
    }

    /// Whether the window is full and spans at most `fft_duration_s`.
    pub(crate) fn ready(&self) -> bool {
        let n = self.len();
        self.times.len() == n && self.times[n - 1] - self.times[0] <= self.duration_s
    }

    /// The largest magnitude among held `bins`, in signal units like
    /// [`Spectrum`]'s: the root of the largest power, one square root per
    /// search rather than one per bin.
    pub(crate) fn largest_magnitude(&self, bins: impl Iterator<Item = usize>) -> f64 {
        let power = bins.map(|k| self.bank.power(k)).fold(0.0_f64, f64::max);
        power.sqrt() / self.len() as f64
    }
}

/// The elasticity detector.
#[derive(Debug, Clone)]
pub struct ElasticityDetector {
    cfg: ElasticityConfig,
    /// The batch path's FFT plan, built by its first [`Self::eta`] call.
    fft_plan: OnceLock<Fft>,
    /// The streaming path's window, at the bins Eq. 3 reads.
    window: TimedWindow,
    /// The bins around `f_p` and inside `(f_p, 2·f_p)` at the current `f_p`.
    peak_bins: RangeInclusive<usize>,
    band_bins: Range<usize>,
    /// Multiplier on the η threshold (and the elasticity probe scales the
    /// minimum-peak guard by the same factor): the µ-error-aware
    /// ẑ-conditioning stage raises the detection bar when the µ estimate is
    /// uncertain.  `1.0` (the default) reproduces the paper's fixed
    /// threshold exactly.
    eta_scale: f64,
    /// Minimum spectral magnitude at `f_p` (signal units, i.e. bits/s; a
    /// sinusoid of amplitude `A` has magnitude `A/2`) for an *elastic*
    /// verdict.  With no cross traffic ẑ is numerically tiny, and η — a ratio
    /// of two near-zero magnitudes — is meaningless noise; requiring the
    /// oscillation to be physically significant suppresses those spurious
    /// verdicts.  `0.0` (stand-alone use) disables the guard; the elasticity
    /// probe keeps it at 1% of its current µ estimate.
    min_peak_bps: f64,
    /// How many verdicts there were, and the last one.
    verdicts: VerdictTally,
}

/// What the detector remembers of its verdicts: how many, how many were
/// elastic, and the last one.  O(1) — a host that wants the whole history
/// records it from [`crate::Publisher::on_verdict`].
#[derive(Debug, Clone, Copy, Default)]
pub struct VerdictTally {
    count: usize,
    elastic: usize,
    last: Option<DetectorVerdict>,
}

impl VerdictTally {
    /// Verdicts issued so far.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether no verdict has been issued yet.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Verdicts so far that called the cross traffic elastic.
    pub fn elastic(&self) -> usize {
        self.elastic
    }

    /// The most recent verdict, if any.
    pub fn last(&self) -> Option<DetectorVerdict> {
        self.last
    }

    fn record(&mut self, verdict: DetectorVerdict) {
        self.count += 1;
        self.elastic += verdict.elastic as usize;
        self.last = Some(verdict);
    }
}

impl ElasticityDetector {
    /// Create a detector.
    pub fn new(cfg: ElasticityConfig) -> Self {
        let mut detector = ElasticityDetector {
            window: TimedWindow::new(&cfg),
            cfg,
            fft_plan: OnceLock::new(),
            peak_bins: 0..=0,
            band_bins: 0..0,
            eta_scale: 1.0,
            min_peak_bps: 0.0,
            verdicts: VerdictTally::default(),
        };
        detector.select_bins();
        detector
    }

    /// Point the streaming path at the bins Eq. 3 reads for the current
    /// `f_p` — the ones [`Self::eta`] picks out of the full spectrum.  The
    /// bank keeps every bin it has ever been asked for, so a controller
    /// alternating between two pulse frequencies computes each set once.
    fn select_bins(&mut self) {
        let (fp, fs, n) = (
            self.cfg.pulse_freq_hz,
            self.cfg.sample_rate_hz(),
            self.window.len(),
        );
        self.peak_bins = bins_near(fp, PEAK_TOLERANCE_HZ, fs, n);
        self.band_bins = bins_in_open_band(fp + PEAK_TOLERANCE_HZ, 2.0 * fp, fs, n);
        self.window
            .cover(self.peak_bins.clone().chain(self.band_bins.clone()));
    }

    /// The configuration in use.
    pub fn config(&self) -> &ElasticityConfig {
        &self.cfg
    }

    /// Change the pulse frequency being looked for (used by a multi-flow
    /// pulser moving between `f_pc` and `f_pd` with its mode, and by the 2 Hz
    /// slow-pulse variant of App. F).
    pub fn set_pulse_freq(&mut self, freq_hz: f64) {
        if freq_hz != self.cfg.pulse_freq_hz {
            self.cfg.pulse_freq_hz = freq_hz;
            self.select_bins();
        }
    }

    /// Update the minimum-peak guard (the elasticity probe keeps this at a
    /// fraction of its µ estimate, which may itself be learned at runtime).
    pub fn set_min_peak_bps(&mut self, min_peak_bps: f64) {
        self.min_peak_bps = min_peak_bps;
    }

    /// Scale the η threshold (µ-error-aware ẑ conditioning,
    /// [`crate::estimator::ZFilterConfig::Adaptive`]).  `1.0` restores
    /// [`ETA_THRESHOLD`] exactly.
    pub fn set_eta_scale(&mut self, scale: f64) {
        self.eta_scale = scale;
    }

    /// Compute the elasticity metric η — `(η, peak at f_p, band maximum)` —
    /// for a ẑ series sampled at the configured rate: the batch reference.
    /// Returns `None` until a full window of samples exists.
    pub fn eta(&self, z_series: &[f64]) -> Option<(f64, f64, f64)> {
        let needed = self.cfg.window_samples();
        if z_series.len() < needed {
            return None;
        }
        let window = &z_series[z_series.len() - needed..];
        let plan = self.fft_plan.get_or_init(|| Fft::new(needed.max(1)));
        let spectrum = Spectrum::of_signal_with_plan(plan, window, self.cfg.sample_rate_hz(), true);
        let fp = self.cfg.pulse_freq_hz;
        let peak = spectrum.peak_near(fp, PEAK_TOLERANCE_HZ);
        // The comparison band (f_p, 2 f_p): start just above the peak
        // tolerance so the pulse's own leakage is not counted.
        let band = spectrum.peak_in_open_band(fp + PEAK_TOLERANCE_HZ, 2.0 * fp);
        Some((eta_ratio(peak, band), peak, band))
    }

    /// Evaluate the detector at time `t_s` on the current ẑ series and tally
    /// the verdict.  Returns `None` until a full window of samples exists.
    pub fn evaluate(&mut self, t_s: f64, z_series: &[f64]) -> Option<DetectorVerdict> {
        let metric = self.eta(z_series)?;
        Some(self.record(t_s, metric))
    }

    /// Slide the streaming window by one ẑ sample taken at `t_s`.
    pub fn push(&mut self, t_s: f64, z_bps: f64) {
        self.window.push(t_s, z_bps);
    }

    /// [`Self::eta`] of the streaming window.  `None` until the window is
    /// full *and* spans at most `fft_duration_s`.
    pub fn eta_of_window(&self) -> Option<(f64, f64, f64)> {
        if !self.window.ready() {
            return None;
        }
        let peak = self.window.largest_magnitude(self.peak_bins.clone());
        let band = self.window.largest_magnitude(self.band_bins.clone());
        Some((eta_ratio(peak, band), peak, band))
    }

    /// Evaluate the detector at time `t_s` on the streaming window and tally
    /// the verdict.  `None` exactly when [`Self::eta_of_window`] is.
    pub fn evaluate_window(&mut self, t_s: f64) -> Option<DetectorVerdict> {
        let metric = self.eta_of_window()?;
        Some(self.record(t_s, metric))
    }

    fn record(&mut self, t_s: f64, (eta, peak, band): (f64, f64, f64)) -> DetectorVerdict {
        let verdict = DetectorVerdict {
            t_s,
            eta,
            elastic: eta >= ETA_THRESHOLD * self.eta_scale && peak >= self.min_peak_bps,
            peak_at_fp: peak,
            band_max: band,
        };
        self.verdicts.record(verdict);
        verdict
    }

    /// The tally of the verdicts issued so far.
    pub fn verdicts(&self) -> &VerdictTally {
        &self.verdicts
    }
}

/// Eq. 3 from its two magnitudes; an empty or silent comparison band makes
/// any peak infinitely pronounced.
fn eta_ratio(peak: f64, band: f64) -> f64 {
    if band > 0.0 {
        peak / band
    } else {
        f64::INFINITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimbus_dsp::PulseGenerator;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Synthesize a ẑ series: `base + reaction·pulse(t - lag) + noise`.
    fn synthetic_z(
        cfg: &ElasticityConfig,
        secs: f64,
        base: f64,
        reaction_amp: f64,
        lag_s: f64,
        noise_amp: f64,
        seed: u64,
    ) -> Vec<f64> {
        let gen = PulseGenerator::asymmetric(cfg.pulse_freq_hz, 1.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let dt = REPORT_INTERVAL.as_secs_f64();
        let n = (secs / dt) as usize;
        (0..n)
            .map(|i| {
                let t = i as f64 * dt;
                // Elastic cross traffic reacts inversely to the pulse, one RTT later.
                let reaction = -reaction_amp * gen.offset_at(t - lag_s);
                let noise = noise_amp * (rng.gen::<f64>() - 0.5) * 2.0;
                (base + reaction + noise).max(0.0)
            })
            .collect()
    }

    #[test]
    fn needs_a_full_window_before_deciding() {
        let cfg = ElasticityConfig::default();
        let mut det = ElasticityDetector::new(cfg.clone());
        let short = vec![1e6; cfg.window_samples() - 1];
        assert!(det.evaluate(1.0, &short).is_none());
        let full = vec![1e6; cfg.window_samples()];
        assert!(det.evaluate(2.0, &full).is_some());
        assert_eq!(det.verdicts().len(), 1);
    }

    #[test]
    fn reacting_cross_traffic_is_classified_elastic() {
        let cfg = ElasticityConfig::default();
        let mut det = ElasticityDetector::new(cfg.clone());
        // Cross traffic reacting (after a 50 ms RTT) with amplitude 8 Mbit/s,
        // noise 2 Mbit/s.
        let z = synthetic_z(&cfg, 6.0, 48e6, 8e6, 0.05, 2e6, 1);
        let v = det.evaluate(6.0, &z).unwrap();
        assert!(v.elastic, "eta = {}", v.eta);
        assert!(v.eta > 2.0);
    }

    #[test]
    fn non_reacting_cross_traffic_is_classified_inelastic() {
        let cfg = ElasticityConfig::default();
        let mut det = ElasticityDetector::new(cfg.clone());
        // Pure noise around a constant rate: no component at f_p beyond chance.
        let z = synthetic_z(&cfg, 6.0, 48e6, 0.0, 0.0, 6e6, 2);
        let v = det.evaluate(6.0, &z).unwrap();
        assert!(!v.elastic, "eta = {}", v.eta);
    }

    #[test]
    fn detection_is_robust_to_the_cross_traffic_rtt() {
        // §3.3: the frequency-domain method does not need to know the cross
        // traffic's RTT.  Sweep the reaction lag from 10 ms to 200 ms.
        let cfg = ElasticityConfig::default();
        for lag_ms in [10.0, 50.0, 100.0, 150.0, 200.0] {
            let mut det = ElasticityDetector::new(cfg.clone());
            let z = synthetic_z(&cfg, 6.0, 48e6, 8e6, lag_ms / 1000.0, 2e6, 3);
            let v = det.evaluate(6.0, &z).unwrap();
            assert!(v.elastic, "lag {lag_ms} ms: eta = {}", v.eta);
        }
    }

    #[test]
    fn eta_grows_with_the_elastic_fraction() {
        // Fig. 6: the more of the cross traffic is elastic, the higher η.
        let cfg = ElasticityConfig::default();
        let det = ElasticityDetector::new(cfg.clone());
        let eta_for = |amp: f64| {
            let z = synthetic_z(&cfg, 6.0, 48e6, amp, 0.05, 3e6, 7);
            det.eta(&z).unwrap().0
        };
        let none = eta_for(0.0);
        let some = eta_for(4e6);
        let lots = eta_for(12e6);
        assert!(some > none, "{some} vs {none}");
        assert!(lots > some, "{lots} vs {some}");
    }

    #[test]
    fn mixed_rtts_superimpose_rather_than_cancel() {
        // Two elastic responses with different RTTs still produce a peak at f_p.
        let cfg = ElasticityConfig::default();
        let mut det = ElasticityDetector::new(cfg.clone());
        let a = synthetic_z(&cfg, 6.0, 24e6, 5e6, 0.03, 1e6, 11);
        let b = synthetic_z(&cfg, 6.0, 24e6, 5e6, 0.17, 1e6, 12);
        let z: Vec<f64> = a.iter().zip(b.iter()).map(|(x, y)| x + y).collect();
        let v = det.evaluate(6.0, &z).unwrap();
        assert!(v.elastic, "eta = {}", v.eta);
    }

    #[test]
    fn verdict_tally_counts_and_keeps_the_last() {
        let cfg = ElasticityConfig::default();
        let mut det = ElasticityDetector::new(cfg.clone());
        let elastic = synthetic_z(&cfg, 6.0, 48e6, 8e6, 0.05, 2e6, 4);
        let inelastic = synthetic_z(&cfg, 6.0, 48e6, 0.0, 0.0, 6e6, 5);
        det.evaluate(1.0, &elastic);
        det.evaluate(2.0, &elastic);
        det.evaluate(3.0, &inelastic);
        let tally = det.verdicts();
        assert_eq!((tally.len(), tally.elastic()), (3, 2));
        let last = tally.last().expect("three verdicts");
        assert_eq!((last.t_s, last.elastic), (3.0, false));
    }

    #[test]
    fn changing_pulse_frequency_moves_the_detection_band() {
        // A detector listening at 2 Hz must not fire on a 5 Hz reaction
        // (and vice versa) — this is what Appendix F exploits.
        let cfg5 = ElasticityConfig::default();
        let z5 = synthetic_z(&cfg5, 6.0, 48e6, 8e6, 0.05, 2e6, 21);
        let mut det2 = ElasticityDetector::new(ElasticityConfig {
            pulse_freq_hz: 2.0,
            ..ElasticityConfig::default()
        });
        let v = det2.evaluate(6.0, &z5).unwrap();
        assert!(
            !v.elastic,
            "2 Hz detector fired on 5 Hz reaction: eta {}",
            v.eta
        );
    }
}
