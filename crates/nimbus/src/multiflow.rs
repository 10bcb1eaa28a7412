//! Pulser/watcher coordination for multiple Nimbus flows (§6 of the paper).
//!
//! When several Nimbus flows share a bottleneck, exactly one of them should
//! pulse (the *pulser*); the others (*watchers*) must neither pulse nor react
//! to the pulser's oscillation (or the pulser would classify them as elastic
//! and everyone would get stuck in TCP-competitive mode).  Coordination is
//! implicit — no communication channel exists:
//!
//! * The pulser pulses at `f_pc` (5 Hz) in TCP-competitive mode and `f_pd`
//!   (6 Hz) in delay mode, so watchers can read the pulser's mode out of
//!   their own receive-rate spectrum.
//! * A watcher smooths its transmission rate with an EWMA whose cutoff lies
//!   below `min(f_pc, f_pd)` so it does not echo the pulses.
//! * If no pulser is detected, each flow volunteers with probability
//!   `p_i = (κ·τ / FFT duration) · (R_i / µ)` every `τ = 10 ms` (Eq. 5),
//!   which bounds the expected number of new pulsers per FFT window by `κ`.
//! * A pulser that sees *more* oscillation at `f_p` in the cross traffic than
//!   in its own receive rate concludes another pulser exists and steps down
//!   with a fixed probability.
//!
//! Both readings of the receive rate ask the detector's question — the
//! magnitude at a few fixed bins of the last five seconds — so a flow keeps
//! its receive rate in a sliding DFT beside the detector's ẑ window: the
//! same `N` (500 samples), the same sample times (the controller pushes both
//! on the same report) and the same availability rule (a full window
//! spanning at most the FFT duration).  It holds the bins of
//! `(1 Hz, 2·max(f_pc, f_pd))`, 54 of them at 5/6 Hz; no report runs an FFT
//! or allocates.  A single-flow Nimbus keeps no such window.

use crate::detector::{ElasticityConfig, TimedWindow, PEAK_TOLERANCE_HZ};
use nimbus_core_types::REPORT_INTERVAL;
use nimbus_dsp::spectrum::bins_near;
use nimbus_dsp::Ewma;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::ops::RangeInclusive;

/// Expected number of volunteers per FFT window, κ in Eq. 5 (§6).
const KAPPA: f64 = 1.0;
/// Peak-to-background ratio above which a watcher considers a pulser present
/// in its receive-rate spectrum (§6: "a pronounced peak" at `f_pc` or `f_pd`).
const PRESENCE_THRESHOLD: f64 = 4.0;
/// Half-width of the neighbourhoods of `f_pc` and `f_pd` a watcher searches,
/// Hz: wide enough for one bin of leakage, narrower than half their spacing.
const PRESENCE_TOLERANCE_HZ: f64 = 0.3;
/// Probability that a pulser steps down when it suspects a second one (§6).
const STEP_DOWN_PROBABILITY: f64 = 0.5;
/// EWMA cutoff on a watcher's transmission rate, Hz: below the paper's
/// `min(f_pc, f_pd)` = 5 Hz so watchers do not echo the pulses (§6).
const WATCHER_CUTOFF_HZ: f64 = 2.0;

/// The role a Nimbus flow currently plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Role {
    /// This flow modulates its rate with pulses and runs the elasticity detector.
    Pulser,
    /// This flow watches the pulser's pulses in its own receive rate.
    Watcher,
}

/// Multi-flow coordination switch.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MultiflowConfig {
    /// Whether coordination is enabled at all.  Disabled (single-flow mode)
    /// the flow is always the pulser.
    pub enabled: bool,
}

impl MultiflowConfig {
    /// A configuration with coordination enabled.
    pub fn enabled() -> Self {
        MultiflowConfig { enabled: true }
    }
}

/// What a watcher read out of its receive-rate spectrum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PulserPresence {
    /// No pulser detected at either frequency.
    None,
    /// A pulser pulsing at `f_pc` (competitive mode) was detected.
    Competitive,
    /// A pulser pulsing at `f_pd` (delay mode) was detected.
    Delay,
}

/// The flow's receive rate over the detector's window, at the bins a
/// watcher's presence test and a pulser's conflict check read.
#[derive(Debug)]
struct RecvWindow {
    window: TimedWindow,
    /// Reports per second: the window's sample rate.
    sample_rate_hz: f64,
    /// The bins searched for a peak near `f_pc` and near `f_pd`.
    near_c: RangeInclusive<usize>,
    near_d: RangeInclusive<usize>,
    /// The bins whose median magnitude is the background: strictly inside
    /// `(1 Hz, 2·max(f_pc, f_pd))` and farther than the presence tolerance
    /// from both `f_pc` and `f_pd`.
    background: Vec<usize>,
    /// Room for the background magnitudes, so the median allocates nothing.
    scratch: Vec<f64>,
}

impl RecvWindow {
    fn new(elasticity: &ElasticityConfig, f_pc_hz: f64, f_pd_hz: f64) -> Self {
        let mut window = TimedWindow::new(elasticity);
        let (fs, n) = (elasticity.sample_rate_hz(), window.len());
        let tol = PRESENCE_TOLERANCE_HZ;
        let near_c = bins_near(f_pc_hz, tol, fs, n);
        let near_d = bins_near(f_pd_hz, tol, fs, n);
        let bin_width_hz = fs / n as f64;
        let hi = f_pc_hz.max(f_pd_hz);
        let background: Vec<usize> = (0..=n / 2)
            .filter(|&k| {
                let f = k as f64 * bin_width_hz;
                f > 1.0 && f < 2.0 * hi && (f - f_pc_hz).abs() > tol && (f - f_pd_hz).abs() > tol
            })
            .collect();
        let peaks = near_c.clone().chain(near_d.clone());
        window.cover(peaks.chain(background.iter().copied()));
        RecvWindow {
            window,
            sample_rate_hz: fs,
            near_c,
            near_d,
            scratch: Vec::with_capacity(background.len()),
            background,
        }
    }

    /// Which pulsing frequency, if any, stands out of the window: the peak
    /// near `f_pc` or `f_pd` against the *median* magnitude of the
    /// surrounding band rather than its maximum — the asymmetric pulse has
    /// harmonics at multiples of `f_p`, and a max-based background would let
    /// the pulser's own harmonics mask its fundamental.
    fn presence(&mut self) -> PulserPresence {
        if !self.window.ready() {
            return PulserPresence::None;
        }
        let window = &self.window;
        let peak_c = window.largest_magnitude(self.near_c.clone());
        let peak_d = window.largest_magnitude(self.near_d.clone());
        let magnitude = |&k: &usize| window.largest_magnitude(k..=k);
        self.scratch.clear();
        self.scratch.extend(self.background.iter().map(magnitude));
        let background = nimbus_dsp::stats::median(&self.scratch).max(1e-9);
        let c_present = peak_c / background >= PRESENCE_THRESHOLD;
        let d_present = peak_d / background >= PRESENCE_THRESHOLD;
        match (c_present, d_present) {
            (false, false) => PulserPresence::None,
            _ if peak_c >= peak_d => PulserPresence::Competitive,
            _ => PulserPresence::Delay,
        }
    }
}

/// The multi-flow coordination state machine for one Nimbus flow.
#[derive(Debug)]
pub struct Multiflow {
    role: Role,
    rng: StdRng,
    /// EWMA on the transmission rate for watcher smoothing.
    rate_smoother: Ewma,
    last_decision_s: f64,
    /// FFT duration used in the election probability (Eq. 5).
    fft_duration_s: f64,
    /// The receive-rate window; `None` with coordination disabled.
    recv: Option<RecvWindow>,
}

impl Multiflow {
    /// Create the coordination state for one flow.
    ///
    /// With coordination disabled the flow is a permanent [`Role::Pulser`];
    /// with it enabled every flow starts as a [`Role::Watcher`] and must win
    /// the election to start pulsing (§6: "Each new flow begins as a watcher").
    /// Watchers look for a pulser at `elasticity.pulse_freq_hz` (`f_pc`) and
    /// `f_pd_hz`, the controller's competitive- and delay-mode frequencies.
    pub fn new(
        cfg: MultiflowConfig,
        elasticity: &ElasticityConfig,
        f_pd_hz: f64,
        seed: u64,
    ) -> Self {
        let (role, recv) = if cfg.enabled {
            let recv = RecvWindow::new(elasticity, elasticity.pulse_freq_hz, f_pd_hz);
            (Role::Watcher, Some(recv))
        } else {
            (Role::Pulser, None)
        };
        Multiflow {
            role,
            rng: StdRng::seed_from_u64(seed ^ 0x853c49e6748fea9b),
            rate_smoother: Ewma::with_cutoff(WATCHER_CUTOFF_HZ, REPORT_INTERVAL.as_secs_f64()),
            last_decision_s: 0.0,
            fft_duration_s: elasticity.fft_duration_s,
            recv,
        }
    }

    /// The flow's current role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// A watcher's smoothed transmission rate, given its raw one.
    pub fn shape_rate(&mut self, raw_rate_bps: f64) -> f64 {
        self.rate_smoother.update(raw_rate_bps)
    }

    /// Slide the receive-rate window by the flow's receive rate at `t_s`, in
    /// either role.  The controller calls this wherever it pushes a ẑ
    /// sample into the detector.  A no-op with coordination disabled.
    pub fn push_recv(&mut self, t_s: f64, recv_rate_bps: f64) {
        if let Some(recv) = &mut self.recv {
            recv.window.push(t_s, recv_rate_bps);
        }
    }

    /// Inspect the receive-rate window for a pulser's signature and return
    /// which (if any) pulsing frequency dominates.  [`PulserPresence::None`]
    /// until the window is full and spans at most the FFT duration.
    pub fn detect_pulser(&mut self) -> PulserPresence {
        self.recv
            .as_mut()
            .map_or(PulserPresence::None, RecvWindow::presence)
    }

    /// The receive rate's largest magnitude within the detector's peak
    /// tolerance of `freq_hz`: the bins the detector's `peak_at_fp` reads,
    /// scaled the same way.  `None` until the window is ready, and always
    /// with coordination disabled.
    pub fn recv_peak(&mut self, freq_hz: f64) -> Option<f64> {
        let recv = self.recv.as_mut()?;
        let (fs, n) = (recv.sample_rate_hz, recv.window.len());
        let bins = bins_near(freq_hz, PEAK_TOLERANCE_HZ, fs, n);
        recv.window.cover(bins.clone());
        recv.window
            .ready()
            .then(|| recv.window.largest_magnitude(bins))
    }

    /// Run one watcher election decision (Eq. 5), for a watcher that detects
    /// no pulser.  `recv_rate_bps` is this flow's receive rate `R_i`,
    /// `mu_bps` the bottleneck rate.  Returns true if the flow just became
    /// the pulser.
    pub fn maybe_become_pulser(&mut self, now_s: f64, recv_rate_bps: f64, mu_bps: f64) -> bool {
        if self.role == Role::Pulser {
            return false;
        }
        let tau_s = REPORT_INTERVAL.as_secs_f64();
        if now_s - self.last_decision_s < tau_s {
            return false;
        }
        self.last_decision_s = now_s;
        if mu_bps <= 0.0 {
            return false;
        }
        let p = (KAPPA * tau_s / self.fft_duration_s) * (recv_rate_bps / mu_bps).clamp(0.0, 1.0);
        if self.rng.gen::<f64>() < p {
            self.role = Role::Pulser;
            true
        } else {
            false
        }
    }

    /// Pulser-side conflict resolution: if the cross traffic shows a stronger
    /// component at the pulsing frequency than the flow's own receive rate,
    /// another pulser probably exists; step down with a fixed probability.
    /// A lone flow (coordination disabled) never steps down.
    pub fn maybe_step_down(&mut self, z_peak_at_fp: f64, recv_peak_at_fp: f64) -> bool {
        if self.role != Role::Pulser || self.recv.is_none() {
            return false;
        }
        if z_peak_at_fp > recv_peak_at_fp && self.rng.gen::<f64>() < STEP_DOWN_PROBABILITY {
            self.role = Role::Watcher;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimbus_dsp::PulseGenerator;

    fn multiflow(cfg: MultiflowConfig, seed: u64) -> Multiflow {
        Multiflow::new(cfg, &ElasticityConfig::default(), 6.0, seed)
    }

    fn recv_series_with_pulses(freq: f64, secs: f64, amp: f64) -> Vec<f64> {
        let gen = PulseGenerator::asymmetric(freq, amp);
        (0..(secs * 100.0) as usize)
            .map(|i| 20e6 + gen.offset_at(i as f64 * 0.01))
            .collect()
    }

    /// What a fresh watcher reads after receiving `series`, one sample per
    /// 10 ms report.
    fn presence_after(series: &[f64]) -> PulserPresence {
        let mut mf = multiflow(MultiflowConfig::enabled(), 2);
        for (i, &x) in series.iter().enumerate() {
            mf.push_recv(i as f64 * 0.01, x);
        }
        mf.detect_pulser()
    }

    #[test]
    fn disabled_config_is_always_pulser() {
        let mut mf = multiflow(MultiflowConfig::default(), 1);
        assert_eq!(mf.role(), Role::Pulser);
        // ...and keeps no receive-rate window.
        for i in 0..600 {
            mf.push_recv(i as f64 * 0.01, 20e6);
        }
        assert_eq!(mf.recv_peak(5.0), None);
    }

    #[test]
    fn enabled_config_starts_as_watcher() {
        let mf = multiflow(MultiflowConfig::enabled(), 1);
        assert_eq!(mf.role(), Role::Watcher);
    }

    #[test]
    fn watcher_detects_pulser_and_its_mode() {
        let competitive = recv_series_with_pulses(5.0, 6.0, 6e6);
        let delay = recv_series_with_pulses(6.0, 6.0, 6e6);
        assert_eq!(presence_after(&competitive), PulserPresence::Competitive);
        assert_eq!(presence_after(&delay), PulserPresence::Delay);
        assert_eq!(presence_after(&[20e6; 600]), PulserPresence::None);
        // Nothing is read off a window that is not full yet.
        assert_eq!(presence_after(&competitive[..499]), PulserPresence::None);
    }

    #[test]
    fn election_eventually_elects_exactly_someone() {
        // With no pulser present, a watcher receiving a decent share of the
        // link must volunteer within a few FFT durations.
        let mut mf = multiflow(MultiflowConfig::enabled(), 3);
        let mut become_at = None;
        let mut t = 0.0;
        while t < 60.0 {
            t += 0.01;
            if mf.maybe_become_pulser(t, 48e6, 96e6) {
                become_at = Some(t);
                break;
            }
        }
        assert!(become_at.is_some(), "never became pulser");
        assert_eq!(mf.role(), Role::Pulser);
    }

    #[test]
    fn election_respects_the_expected_rate_bound() {
        // Expected number of volunteers per FFT duration ≈ κ·(R/µ).  Over many
        // trials with R/µ = 0.5 and κ = 1, roughly half the 5-second windows
        // should produce a volunteer — certainly not all of them instantly.
        let mut elected_within_one_window = 0;
        let trials = 200;
        for seed in 0..trials {
            let mut mf = multiflow(MultiflowConfig::enabled(), seed);
            let mut t = 0.0;
            while t < 5.0 {
                t += 0.01;
                if mf.maybe_become_pulser(t, 48e6, 96e6) {
                    elected_within_one_window += 1;
                    break;
                }
            }
        }
        let frac = elected_within_one_window as f64 / trials as f64;
        assert!(frac > 0.2 && frac < 0.7, "election fraction {frac}");
    }

    #[test]
    fn pulser_steps_down_on_conflict_evidence() {
        let mut mf = multiflow(MultiflowConfig::enabled(), 6);
        let mut t = 0.0;
        while mf.role() == Role::Watcher {
            t += 0.01;
            mf.maybe_become_pulser(t, 96e6, 96e6);
        }
        // Our own receive rate oscillates harder at f_p than the cross
        // traffic: no evidence of a second pulser, so it never steps down.
        for _ in 0..100 {
            assert!(!mf.maybe_step_down(1e6, 5e6));
        }
        assert_eq!(mf.role(), Role::Pulser);
        // On the opposite evidence it steps down within a few coin flips.
        assert!(
            (0..64).any(|_| mf.maybe_step_down(10e6, 3e6)),
            "never stepped down"
        );
        assert_eq!(mf.role(), Role::Watcher);
    }

    #[test]
    fn watcher_rate_shaping_removes_fast_oscillation() {
        let mut mf = multiflow(MultiflowConfig::enabled(), 7);
        // A 5 Hz oscillating raw rate should come out much smoother.
        let gen = PulseGenerator::asymmetric(5.0, 12e6);
        let mut min_out = f64::MAX;
        let mut max_out = f64::MIN;
        for i in 0..2000 {
            let t = i as f64 * 0.01;
            let raw = 24e6 + gen.offset_at(t);
            let out = mf.shape_rate(raw);
            if i > 500 {
                min_out = min_out.min(out);
                max_out = max_out.max(out);
            }
        }
        assert!(
            max_out - min_out < 6e6,
            "smoothed swing {} should be well below the raw 16 Mbit/s swing",
            max_out - min_out
        );
    }
}
