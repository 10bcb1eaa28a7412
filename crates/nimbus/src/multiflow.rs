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

use nimbus_core_types::REPORT_INTERVAL;
use nimbus_dsp::{Ewma, Fft, Spectrum};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

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

/// The multi-flow coordination state machine for one Nimbus flow.
#[derive(Debug)]
pub struct Multiflow {
    cfg: MultiflowConfig,
    role: Role,
    rng: StdRng,
    /// EWMA on the transmission rate for watcher smoothing.
    rate_smoother: Ewma,
    /// Log of `(time, role)` changes for experiment post-processing.
    role_log: Vec<(f64, Role)>,
    last_decision_s: f64,
    /// The pulser's competitive-mode and delay-mode pulse frequencies
    /// (`f_pc`, `f_pd`), as the controller pulses them.
    f_pc_hz: f64,
    f_pd_hz: f64,
    /// FFT duration used in the election probability (Eq. 5).
    fft_duration_s: f64,
    /// FFT plans for the receive-rate series, newest last.  The series grows
    /// one sample per report while the window fills and then sits at one of
    /// two lengths (whether the sample exactly one window old still counts
    /// is a rounding matter), so the last two plans are the ones reused.
    plans: Vec<Fft>,
}

impl Multiflow {
    /// Create the coordination state for one flow.
    ///
    /// With coordination disabled the flow is a permanent [`Role::Pulser`];
    /// with it enabled every flow starts as a [`Role::Watcher`] and must win
    /// the election to start pulsing (§6: "Each new flow begins as a watcher").
    /// `f_pc_hz` / `f_pd_hz` are the frequencies the controller pulses at in
    /// competitive / delay mode, which is where watchers look for a pulser.
    pub fn new(
        cfg: MultiflowConfig,
        f_pc_hz: f64,
        f_pd_hz: f64,
        fft_duration_s: f64,
        seed: u64,
    ) -> Self {
        let role = if cfg.enabled {
            Role::Watcher
        } else {
            Role::Pulser
        };
        let mut mf = Multiflow {
            cfg,
            role,
            rng: StdRng::seed_from_u64(seed ^ 0x853c49e6748fea9b),
            rate_smoother: Ewma::with_cutoff(WATCHER_CUTOFF_HZ, REPORT_INTERVAL.as_secs_f64()),
            role_log: Vec::new(),
            last_decision_s: 0.0,
            f_pc_hz,
            f_pd_hz,
            fft_duration_s,
            plans: Vec::new(),
        };
        mf.role_log.push((0.0, role));
        mf
    }

    /// The flow's current role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// Role change history as `(time_s, role)` pairs.
    pub fn role_log(&self) -> &[(f64, Role)] {
        &self.role_log
    }

    /// Smooth the transmission rate for watcher flows; pulser rates pass through.
    pub fn shape_rate(&mut self, raw_rate_bps: f64) -> f64 {
        if self.role == Role::Watcher && self.cfg.enabled {
            self.rate_smoother.update(raw_rate_bps)
        } else {
            // Keep the smoother warm so a role change does not start cold.
            self.rate_smoother.update(raw_rate_bps);
            raw_rate_bps
        }
    }

    /// Inspect the receive-rate series for a pulser's signature and return
    /// which (if any) pulsing frequency dominates.
    ///
    /// Presence is judged against the *median* spectral magnitude of the
    /// surrounding band rather than its maximum: the asymmetric pulse has
    /// harmonics at multiples of `f_p`, and a max-based background would let
    /// the pulser's own harmonics mask its fundamental.
    pub fn detect_pulser(&mut self, recv_rate_series: &[f64]) -> PulserPresence {
        if recv_rate_series.len() < 64 {
            return PulserPresence::None;
        }
        let spectrum = self.spectrum_of(recv_rate_series);
        let tol = PRESENCE_TOLERANCE_HZ;
        let fc = self.f_pc_hz;
        let fd = self.f_pd_hz;
        let peak_c = spectrum.peak_near(fc, tol);
        let peak_d = spectrum.peak_near(fd, tol);
        // Background: median magnitude between 1 Hz and 2·max(fc, fd),
        // excluding the neighbourhoods of fc and fd themselves.
        let hi = fc.max(fd);
        let mut background_bins: Vec<f64> = Vec::new();
        for (bin, &mag) in spectrum.magnitudes.iter().enumerate() {
            let f = spectrum.frequency_of_bin(bin);
            if f <= 1.0 || f >= 2.0 * hi {
                continue;
            }
            if (f - fc).abs() <= tol || (f - fd).abs() <= tol {
                continue;
            }
            background_bins.push(mag);
        }
        let background = nimbus_dsp::stats::median(&background_bins).max(1e-9);
        let c_present = peak_c / background >= PRESENCE_THRESHOLD;
        let d_present = peak_d / background >= PRESENCE_THRESHOLD;
        match (c_present, d_present) {
            (false, false) => PulserPresence::None,
            _ => {
                if peak_c >= peak_d {
                    PulserPresence::Competitive
                } else {
                    PulserPresence::Delay
                }
            }
        }
    }

    /// Mean-removed magnitude spectrum of a receive-rate series sampled at
    /// the report cadence — [`Spectrum::of_signal`] without rebuilding the
    /// FFT plan for a length seen on one of the last two calls.
    pub fn spectrum_of(&mut self, recv_rate_series: &[f64]) -> Spectrum {
        let n = recv_rate_series.len();
        let held = self.plans.iter().position(|plan| plan.len() == n);
        let held = held.unwrap_or_else(|| {
            if self.plans.len() == 2 {
                self.plans.remove(0);
            }
            self.plans.push(Fft::new(n));
            self.plans.len() - 1
        });
        let sample_rate_hz = 1.0 / REPORT_INTERVAL.as_secs_f64();
        Spectrum::of_signal_with_plan(&self.plans[held], recv_rate_series, sample_rate_hz, true)
    }

    /// Run one watcher election decision (Eq. 5).  `recv_rate_bps` is this
    /// flow's receive rate `R_i`, `mu_bps` the bottleneck rate.  Returns true
    /// if the flow just became the pulser.
    pub fn maybe_become_pulser(
        &mut self,
        now_s: f64,
        pulser_detected: bool,
        recv_rate_bps: f64,
        mu_bps: f64,
    ) -> bool {
        if !self.cfg.enabled || self.role == Role::Pulser {
            return false;
        }
        let tau_s = REPORT_INTERVAL.as_secs_f64();
        if now_s - self.last_decision_s < tau_s {
            return false;
        }
        self.last_decision_s = now_s;
        if pulser_detected || mu_bps <= 0.0 {
            return false;
        }
        let p = (KAPPA * tau_s / self.fft_duration_s) * (recv_rate_bps / mu_bps).clamp(0.0, 1.0);
        if self.rng.gen::<f64>() < p {
            self.role = Role::Pulser;
            self.role_log.push((now_s, Role::Pulser));
            true
        } else {
            false
        }
    }

    /// Pulser-side conflict resolution: if the cross traffic shows a stronger
    /// component at the pulsing frequency than the flow's own receive rate,
    /// another pulser probably exists; step down with a fixed probability.
    pub fn maybe_step_down(&mut self, now_s: f64, z_peak_at_fp: f64, recv_peak_at_fp: f64) -> bool {
        if !self.cfg.enabled || self.role != Role::Pulser {
            return false;
        }
        if z_peak_at_fp > recv_peak_at_fp && self.rng.gen::<f64>() < STEP_DOWN_PROBABILITY {
            self.role = Role::Watcher;
            self.role_log.push((now_s, Role::Watcher));
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
        Multiflow::new(cfg, 5.0, 6.0, 5.0, seed)
    }

    fn recv_series_with_pulses(freq: f64, secs: f64, amp: f64) -> Vec<f64> {
        let gen = PulseGenerator::asymmetric(freq, amp);
        (0..(secs * 100.0) as usize)
            .map(|i| 20e6 + gen.offset_at(i as f64 * 0.01))
            .collect()
    }

    #[test]
    fn disabled_config_is_always_pulser() {
        let mf = multiflow(MultiflowConfig::default(), 1);
        assert_eq!(mf.role(), Role::Pulser);
    }

    #[test]
    fn enabled_config_starts_as_watcher() {
        let mf = multiflow(MultiflowConfig::enabled(), 1);
        assert_eq!(mf.role(), Role::Watcher);
        assert_eq!(mf.role_log().len(), 1);
    }

    #[test]
    fn watcher_detects_pulser_and_its_mode() {
        let mut mf = multiflow(MultiflowConfig::enabled(), 2);
        let competitive = recv_series_with_pulses(5.0, 6.0, 6e6);
        let delay = recv_series_with_pulses(6.0, 6.0, 6e6);
        let silent: Vec<f64> = vec![20e6; 600];
        assert_eq!(mf.detect_pulser(&competitive), PulserPresence::Competitive);
        assert_eq!(mf.detect_pulser(&delay), PulserPresence::Delay);
        assert_eq!(mf.detect_pulser(&silent), PulserPresence::None);
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
            if mf.maybe_become_pulser(t, false, 48e6, 96e6) {
                become_at = Some(t);
                break;
            }
        }
        assert!(become_at.is_some(), "never became pulser");
        assert_eq!(mf.role(), Role::Pulser);
        assert!(mf.role_log().len() >= 2);
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
                if mf.maybe_become_pulser(t, false, 48e6, 96e6) {
                    elected_within_one_window += 1;
                    break;
                }
            }
        }
        let frac = elected_within_one_window as f64 / trials as f64;
        assert!(frac > 0.2 && frac < 0.7, "election fraction {frac}");
    }

    #[test]
    fn no_election_while_a_pulser_is_detected() {
        let mut mf = multiflow(MultiflowConfig::enabled(), 5);
        let mut t = 0.0;
        while t < 30.0 {
            t += 0.01;
            assert!(!mf.maybe_become_pulser(t, true, 96e6, 96e6));
        }
        assert_eq!(mf.role(), Role::Watcher);
    }

    #[test]
    fn pulser_steps_down_on_conflict_evidence() {
        let mut mf = multiflow(MultiflowConfig::enabled(), 6);
        let mut t = 0.0;
        while mf.role() == Role::Watcher {
            t += 0.01;
            mf.maybe_become_pulser(t, false, 96e6, 96e6);
        }
        // Our own receive rate oscillates harder at f_p than the cross
        // traffic: no evidence of a second pulser, so it never steps down.
        for _ in 0..100 {
            t += 0.01;
            assert!(!mf.maybe_step_down(t, 1e6, 5e6));
        }
        assert_eq!(mf.role(), Role::Pulser);
        // On the opposite evidence it steps down within a few coin flips.
        assert!(
            (0..64).any(|_| mf.maybe_step_down(t, 10e6, 3e6)),
            "never stepped down"
        );
        assert_eq!(mf.role(), Role::Watcher);
        assert_eq!(mf.role_log().last(), Some(&(t, Role::Watcher)));
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
