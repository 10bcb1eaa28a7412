//! The elasticity probe: everything a flow does to learn whether its cross
//! traffic is elastic (§3–§6 of the paper) — the pulse, the ẑ estimator, the
//! streaming detector, ECN mark-rate cross-validation and the pulser/watcher
//! roles.  A host drives it once per report ([`ElasticityProbe::measure`],
//! [`ElasticityProbe::assess`], [`ElasticityProbe::retune`]), turns the
//! [`Evidence`] it returns into a mode ([`crate::NimbusController`] is that
//! mode machine), and asks it to shape the pace and window around its base
//! rate.
//!
//! # Pulsers and watchers
//!
//! When several Nimbus flows share a bottleneck, exactly one of them should
//! pulse (the *pulser*); the others (*watchers*) must neither pulse nor react
//! to the pulser's oscillation (or the pulser would classify them as elastic
//! and everyone would get stuck in TCP-competitive mode).  Coordination is
//! implicit — no communication channel exists:
//!
//! * The pulser pulses at `f_pc` (5 Hz) in TCP-competitive mode and `f_pd`
//!   (6 Hz) in delay mode, so watchers can read the pulser's mode out of
//!   their own receive-rate spectrum.  A lone flow pulses at `f_pc` in both.
//! * A watcher smooths its transmission rate with an EWMA whose cutoff lies
//!   below `min(f_pc, f_pd)` so it does not echo the pulses.
//! * If no pulser is detected, each flow volunteers with probability
//!   `p_i = (κ·τ / FFT duration) · (R_i / µ)` every `τ = 10 ms` (Eq. 5),
//!   which bounds the expected number of new pulsers per FFT window by `κ`.
//! * A pulser that sees *more* oscillation at `f_p` in the cross traffic than
//!   in its own receive rate concludes another pulser exists and steps down
//!   with a fixed probability.
//!
//! A coordinated flow reads its receive rate through a [`RecvWindow`].

use crate::ccp::Report;
use crate::controller::{Mode, NimbusConfig};
use crate::detector::{
    DetectorVerdict, ElasticityConfig, ElasticityDetector, TimedWindow, PEAK_TOLERANCE_HZ,
};
use crate::estimator::{CrossTrafficEstimator, MuSpec, ZFilterConfig};
use nimbus_core_types::REPORT_INTERVAL;
use nimbus_dsp::spectrum::bins_near;
use nimbus_dsp::{Biquad, Ewma, PulseGenerator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::ops::RangeInclusive;

/// How far above `f_pc` (`elasticity.pulse_freq_hz`) a coordinated pulser
/// pulses while in delay mode, Hz (§6: `f_pc` = 5 Hz, `f_pd` = 6 Hz).  An
/// offset rather than a fixed 6 Hz, so App. F's slow pulse stays slow.
const PULSE_FREQ_DELAY_OFFSET_HZ: f64 = 1.0;

/// Quality factor of the `zfilter=notch` stage: the −3 dB bandwidth is
/// `freq_hz / 0.7`, and a 0.1 Hz notch passes the 5 Hz pulse band within 5%.
const NOTCH_Q: f64 = 0.7;

/// Gain of `zfilter=adaptive` on the µ̂ uncertainty `u`: the detector's η
/// threshold and minimum-peak guard scale by `1 + 8·u` (before damping).
const ADAPTIVE_GAIN: f64 = 8.0;

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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// This flow modulates its rate with pulses and runs the elasticity detector.
    Pulser,
    /// This flow watches the pulser's pulses in its own receive rate.
    Watcher,
}

/// Multi-flow coordination switch.
#[derive(Debug, Clone, Default)]
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

/// What the probe saw on a report: the input to the host's mode machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Evidence {
    /// A detector verdict, or ECN marks that ẑ agrees with, call it elastic.
    Elastic,
    /// A detector verdict found no elastic cross traffic.
    Inelastic,
    /// A watcher sees a pulser pulsing in this mode, and follows it.
    Pulser(Mode),
}

/// A flow's receive rate over the detector's window, at the bins a
/// watcher's presence test and a pulser's conflict check read.  Both ask the
/// detector's question — the magnitude at a few fixed bins of the last five
/// seconds — so the window is a sliding DFT like the detector's ẑ window,
/// with the same `N` (500 samples), the same sample times (both are pushed
/// on the same report) and the same availability rule (a full window
/// spanning at most the FFT duration).  It holds the bins of
/// `(1 Hz, 2·max(f_pc, f_pd))`, 54 of them at 5/6 Hz; no report runs an FFT
/// or allocates.  A lone flow keeps no such window.
#[derive(Debug)]
pub struct RecvWindow {
    window: TimedWindow,
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
    /// An empty window of the detector's length that listens for a pulser
    /// at `f_pc_hz` and `f_pd_hz`.
    pub fn new(elasticity: &ElasticityConfig, f_pc_hz: f64, f_pd_hz: f64) -> Self {
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
            near_c,
            near_d,
            scratch: Vec::with_capacity(background.len()),
            background,
        }
    }

    /// Slide the window by the flow's receive rate at `t_s`.
    pub fn push(&mut self, t_s: f64, recv_rate_bps: f64) {
        self.window.push(t_s, recv_rate_bps);
    }

    /// The mode of the pulser the window shows, if any: which of `f_pc`
    /// (competitive) and `f_pd` (delay) stands out, its peak against the
    /// *median* magnitude of the surrounding band rather than its maximum —
    /// the asymmetric pulse has harmonics at multiples of `f_p`, and a
    /// max-based background would let the pulser's own harmonics mask its
    /// fundamental.  `None` until the window is full and spans at most the
    /// FFT duration.
    pub fn presence(&mut self) -> Option<Mode> {
        if !self.window.ready() {
            return None;
        }
        let window = &self.window;
        let peak_c = window.largest_magnitude(self.near_c.clone());
        let peak_d = window.largest_magnitude(self.near_d.clone());
        let magnitude = |&k: &usize| window.largest_magnitude(k..=k);
        self.scratch.clear();
        self.scratch.extend(self.background.iter().map(magnitude));
        let background = nimbus_dsp::stats::median(&mut self.scratch).max(1e-9);
        let c_present = peak_c / background >= PRESENCE_THRESHOLD;
        let d_present = peak_d / background >= PRESENCE_THRESHOLD;
        match (c_present, d_present) {
            (false, false) => None,
            _ if peak_c >= peak_d => Some(Mode::Competitive),
            _ => Some(Mode::Delay),
        }
    }

    /// The receive rate's largest magnitude within the detector's peak
    /// tolerance of `freq_hz`: the bins the detector's `peak_at_fp` reads,
    /// scaled the same way.  `None` until the window is ready.
    pub fn peak(&mut self, freq_hz: f64) -> Option<f64> {
        let fs = 1.0 / REPORT_INTERVAL.as_secs_f64();
        let bins = bins_near(freq_hz, PEAK_TOLERANCE_HZ, fs, self.window.len());
        self.window.cover(bins.clone());
        self.window
            .ready()
            .then(|| self.window.largest_magnitude(bins))
    }
}

/// `(t_s, marked, acked)` packet counts of recent reports, trimmed to the
/// FFT duration and summed; empty until the first CE mark arrives.
#[derive(Debug, Default)]
struct MarkWindow {
    reports: VecDeque<(f64, u64, u64)>,
    marked: u64,
    acked: u64,
    /// Consecutive informative reports where the mark fraction and ẑ agreed.
    streak: u64,
}

/// Everything one flow measures about its cross traffic; see the module docs.
#[derive(Debug)]
pub struct ElasticityProbe {
    estimator: CrossTrafficEstimator,
    detector: ElasticityDetector,
    pulse: PulseGenerator,
    amplitude_fraction: f64,
    /// `f_pc` and `f_pd`, the pulse frequencies by mode (`f_pc` in both alone).
    f_pc_hz: f64,
    f_pd_hz: f64,
    adaptive_bars: bool,
    mss: u32,
    fft_duration_s: f64,
    marks: MarkWindow,
    role: Role,
    rng: StdRng,
    /// A watcher's EWMA on its transmission rate, and the rate it paces at.
    rate_smoother: Ewma,
    watcher_rate_bps: Option<f64>,
    last_decision_s: f64,
    /// The receive-rate window; `None` for a lone flow.
    recv: Option<RecvWindow>,
}

impl ElasticityProbe {
    /// The probe of a flow running `cfg`.  A lone flow is a permanent
    /// [`Role::Pulser`]; with `cfg.multiflow` enabled it starts as a
    /// [`Role::Watcher`] (§6: "Each new flow begins as a watcher").
    ///
    /// # Panics
    /// As [`crate::NimbusController::new`].
    pub fn new(cfg: &NimbusConfig) -> Self {
        let elasticity = &cfg.elasticity;
        let history_s = elasticity.fft_duration_s;
        let mut estimator = match cfg.spec.mu {
            MuSpec::Configured => CrossTrafficEstimator::with_known_mu(cfg.mu_bps, history_s),
            MuSpec::Learned(learned) => CrossTrafficEstimator::learning(learned, history_s),
        };
        if let ZFilterConfig::Notch { freq_hz } = cfg.spec.zfilter {
            let notch = Biquad::notch(freq_hz, NOTCH_Q, elasticity.sample_rate_hz());
            estimator.set_z_prefilter(Some(notch));
        }
        let f_pc_hz = elasticity.pulse_freq_hz;
        let (role, f_pd_hz, recv) = if cfg.multiflow.enabled {
            let f_pd_hz = f_pc_hz + PULSE_FREQ_DELAY_OFFSET_HZ;
            let recv = RecvWindow::new(elasticity, f_pc_hz, f_pd_hz);
            (Role::Watcher, f_pd_hz, Some(recv))
        } else {
            (Role::Pulser, f_pc_hz, None)
        };
        let amplitude = cfg.pulse_amplitude_fraction * cfg.nominal_mu_bps().unwrap_or(0.0);
        ElasticityProbe {
            estimator,
            detector: ElasticityDetector::new(elasticity.clone()),
            pulse: PulseGenerator::asymmetric(f_pc_hz, amplitude),
            amplitude_fraction: cfg.pulse_amplitude_fraction,
            f_pc_hz,
            f_pd_hz,
            adaptive_bars: cfg.spec.zfilter == ZFilterConfig::Adaptive,
            mss: cfg.mss,
            fft_duration_s: history_s,
            marks: MarkWindow::default(),
            role,
            rng: StdRng::seed_from_u64(cfg.seed ^ 0x853c49e6748fea9b),
            rate_smoother: Ewma::with_cutoff(WATCHER_CUTOFF_HZ, REPORT_INTERVAL.as_secs_f64()),
            watcher_rate_bps: None,
            last_decision_s: 0.0,
            recv,
        }
    }

    /// The flow's current role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// The elasticity detector (its window and verdict tally).
    pub fn detector(&self) -> &ElasticityDetector {
        &self.detector
    }

    /// The cross-traffic estimator (µ̂ and the last window of ẑ).
    pub fn estimator(&self) -> &CrossTrafficEstimator {
        &self.estimator
    }

    /// Step one of a report, for a flow in `mode`: the estimator, windows and
    /// mark counts take it.  Returns the raw ẑ, if any, and marks' evidence.
    pub fn measure(&mut self, report: &Report, mode: Mode) -> (Option<f64>, Option<Evidence>) {
        // The ẑ sample-and-hold follows `probe_gain`'s gate: in competitive
        // mode there is no probe burst to blank out, and holding anyway would
        // starve the detector of the samples that say the competition left.
        self.estimator.set_probing_paced(mode == Mode::Delay);
        let z_bps = self.estimator.on_report(report);
        if z_bps.is_some() {
            // The detector's window takes the sample the estimator *stored*
            // (held through probe epochs, notch-filtered), watcher or not;
            // the receive-rate window moves with it.
            let stored = self.estimator.latest_conditioned_z();
            self.detector
                .push(report.now_s, stored.expect("a sample was just stored"));
            if let Some(recv) = &mut self.recv {
                recv.push(report.now_s, report.recv_rate_bps);
            }
        }
        let marks = self.marks_agree(report, mode).then_some(Evidence::Elastic);
        (z_bps, marks)
    }

    /// ECN mark-rate cross-validation.  A queue that keeps marking while the
    /// flow sits in delay mode is a queue somebody else keeps full — and the
    /// ẑ estimate says who.  When both signals agree (persistent mark
    /// fraction AND ẑ a non-trivial share of µ) the cross traffic can be
    /// called elastic in a few hundred milliseconds instead of a full FFT
    /// window.  The fraction is counted over a sliding window of ACKed
    /// packets (the way DCTCP computes α): a starved flow's reports are
    /// mostly empty, and EWMA-smoothing them in as "zero marks" would erase
    /// a persistent mark signal exactly when it matters most.  Inert without
    /// ECN: the window stays empty and no state changes.
    fn marks_agree(&mut self, report: &Report, mode: Mode) -> bool {
        let fft_duration_s = self.fft_duration_s;
        let marks = &mut self.marks;
        if report.marked_packets == 0 && marks.reports.is_empty() {
            return false;
        }
        let acked_pkts = report.acked_bytes / self.mss.max(1) as u64;
        if report.marked_packets > 0 || acked_pkts > 0 {
            marks
                .reports
                .push_back((report.now_s, report.marked_packets, acked_pkts));
            marks.marked += report.marked_packets;
            marks.acked += acked_pkts;
        }
        let horizon = report.now_s - fft_duration_s;
        while let Some((_, m, a)) = marks.reports.pop_front_if(|&mut (t, _, _)| t < horizon) {
            marks.marked -= m;
            marks.acked -= a;
        }
        let (marked, acked) = (marks.marked, marks.acked);
        let span_s = marks
            .reports
            .back()
            .map_or(0.0, |&(t1, _, _)| t1 - marks.reports[0].0);
        // Only read once `acked >= 8` below, so never 0/0.
        let frac = marked as f64 / acked.max(marked) as f64;
        let mu_now = self.estimator.mu_bps();
        let z_mean = self.estimator.mean_conditioned_z(fft_duration_s);
        let z_agrees = mu_now > 0.0 && z_mean.unwrap_or(0.0) > 0.05 * mu_now;
        // Don't trust ẑ before the first FFT window has filled: the
        // slow-start transient inflates both ẑ and the mark rate, and a solo
        // flow on a shallow marking queue would misread its own startup as
        // an elastic competitor.
        let warmed = report.now_s >= fft_duration_s;
        // A couple of marked packets per window is already abnormal for a
        // delay-mode flow that targets a sub-threshold queue, so the
        // fraction bar is low (2%); the false-positive guards are the ẑ
        // agreement, the warm-up, the minimum evidence (≥ 8 ACKed packets
        // spanning ≥ 250 ms), and the persistence streak — a transient ẑ
        // crossing on a solo flow must not flip the mode, so both signals
        // have to hold across 25 informative reports (~250 ms at the CCP
        // cadence, a few seconds when starved).
        if warmed && mode == Mode::Delay && acked >= 8 && span_s >= 0.25 && frac > 0.02 && z_agrees
        {
            marks.streak += 1;
            marks.streak >= 25
        } else {
            marks.streak = 0;
            false
        }
    }

    /// Step two, once the host has acted on [`Self::measure`] and knows its
    /// base rate `rate_bps`.  A watcher smooths that rate and follows the
    /// pulser it sees, or may volunteer (Eq. 5).  A pulser's verdict comes
    /// back, with its evidence unless a second pulser made it step down.
    pub fn assess(
        &mut self,
        report: &Report,
        rate_bps: f64,
    ) -> (Option<DetectorVerdict>, Option<Evidence>) {
        let mu = self.estimator.mu_bps();
        // A flow elected on this report starts pulsing on the next one.
        self.pulse.enabled = self.role == Role::Pulser;
        if self.role == Role::Watcher {
            // Smoothed, so the pulser does not mistake it for elastic traffic.
            self.watcher_rate_bps = Some(self.rate_smoother.update(rate_bps));
            let pulser = self.recv.as_mut().and_then(RecvWindow::presence);
            if pulser.is_none() {
                self.volunteer(report.now_s, report.recv_rate_bps, mu);
            }
            return (None, pulser.map(Evidence::Pulser));
        }
        self.watcher_rate_bps = None;
        self.set_bars(mu);
        let Some(verdict) = self.detector.evaluate_window(report.now_s) else {
            return (None, None);
        };
        // Multi-pulser conflict check: compare the pulse-frequency content
        // of ẑ against our own receive rate, at the same bins of the same
        // window.
        let fp = self.detector.config().pulse_freq_hz;
        let recv_peak = self.recv.as_mut().and_then(|recv| recv.peak(fp));
        if recv_peak.is_some_and(|peak| self.step_down(verdict.peak_at_fp, peak)) {
            return (Some(verdict), None);
        }
        let evidence = if verdict.elastic {
            Evidence::Elastic
        } else {
            Evidence::Inelastic
        };
        (Some(verdict), Some(evidence))
    }

    /// Point the detection bars at µ̂ = `mu`.  The minimum-peak guard tracks
    /// the current µ estimate (which may be learned at runtime): the `f_p`
    /// oscillation in ẑ must reach ~2% of µ peak-to-peak before the cross
    /// traffic can be called elastic.  The adaptive ẑ-conditioning stage
    /// raises the bars (η threshold and minimum peak) with the µ̂
    /// uncertainty: when µ̂ is off by a fraction u, the flow's own pulse
    /// leaks into ẑ with amplitude ∝ u·0.25·µ̂ and η values in exactly the
    /// genuine-elasticity range.  The leak can only masquerade as cross
    /// traffic when there is not much *actual* cross traffic — a real
    /// competitor fills ẑ itself — so the scaling is damped to nothing as
    /// mean ẑ approaches 25% of µ̂.  Without the damping a competitor that
    /// squeezes the flow also widens the recv-rate spread, the raised bar
    /// suppresses the genuine verdict, and the starvation becomes
    /// self-reinforcing.
    fn set_bars(&mut self, mu: f64) {
        let bar_scale = if self.adaptive_bars && mu > 0.0 {
            self.estimator
                .mean_conditioned_z(self.fft_duration_s)
                .map_or(1.0, |mean_z| {
                    let damp = (1.0 - mean_z / (0.25 * mu)).clamp(0.0, 1.0);
                    1.0 + ADAPTIVE_GAIN * self.estimator.mu_uncertainty() * damp
                })
        } else {
            1.0
        };
        if mu > 0.0 {
            self.detector.set_min_peak_bps(0.01 * mu * bar_scale);
        }
        self.detector.set_eta_scale(bar_scale);
    }

    /// Step three, once the host's mode is settled: a pulsing flow moves its
    /// pulse and detector to that mode's frequency, and its amplitude to µ̂.
    pub fn retune(&mut self, mode: Mode) {
        if self.role == Role::Watcher || !self.pulse.enabled {
            return;
        }
        let freq_hz = match mode {
            Mode::Competitive => self.f_pc_hz,
            Mode::Delay => self.f_pd_hz,
        };
        self.pulse.freq_hz = freq_hz;
        self.pulse.amplitude = self.amplitude_fraction * self.estimator.mu_bps();
        self.detector.set_pulse_freq(freq_hz);
    }

    /// The pacing multiplier a probing µ estimator wants at `now_s`.  Probe
    /// epochs only run in delay mode: there the flow is self-limited and a
    /// max filter can never see past its own pace, while in competitive mode
    /// the inner TCP already probes the link by design.
    fn probe_gain(&self, mode: Mode, now_s: f64) -> f64 {
        match mode {
            Mode::Delay => self.estimator.pace_gain(now_s),
            Mode::Competitive => 1.0,
        }
    }

    /// The pulsed (or, for a watcher, smoothed) pace around `base_bps`.
    pub fn pace_bps(&self, base_bps: f64, mode: Mode, now_s: f64) -> f64 {
        let shaped = match self.role {
            Role::Watcher => self.watcher_rate_bps.unwrap_or(base_bps),
            Role::Pulser => self.pulse.modulate(base_bps, now_s),
        };
        // A probing estimator's delivery-informed cap bounds the cruise rate
        // in delay mode: a rate-based inner controller chasing a nominal or
        // crest-riding µ paces straight into a rate fade, melts the queue
        // down and wedges the transport in RTO backoff (the ROADMAP cellular
        // deadlock's other half).  Probe epochs then multiply *after* both
        // the cap and the pacing floor, so probing remains the one way to
        // pace above recent delivery — and the floor (the exact fixed point
        // µ̂ deadlocks at) can never mask the escape mechanism.
        let shaped = match (mode, self.estimator.pace_cap_bps()) {
            (Mode::Delay, Some(cap)) => shaped.min(cap),
            _ => shaped,
        };
        shaped.max(self.mss as f64 * 8.0 / 0.1) * self.probe_gain(mode, now_s)
    }

    /// The inner scheme's window `inner` (its rate `base`, bits/s) with
    /// enough head-room that it never clips the pulse's positive excursion —
    /// pacing (which carries the pulse) must stay the binding constraint.
    /// Without it a starved delay-mode flow has a window of a few packets,
    /// the pulse never reaches the wire, and the detector goes blind when it
    /// is needed most.
    pub fn window_packets(&self, inner: f64, base: f64, mode: Mode, now_s: f64, rtt_s: f64) -> f64 {
        // A probe-up epoch must fit through the window as well as the pulse:
        // the estimator's pace gain scales the headroom exactly as it scales
        // the paced rate (gain is 1.0 outside probing estimators).
        let gain = self.probe_gain(mode, now_s);
        let peak_rate = (base + self.pulse.amplitude) * gain;
        let pulse_headroom = 2.0 * peak_rate * rtt_s / (8.0 * self.mss as f64);
        let cwnd = inner.max(pulse_headroom);
        // A probing estimator's delivery cap bounds the *window* as well as
        // the pace: retransmissions are never paced (only cwnd-gated), so
        // after a timeout an inner controller whose rate has rebounded off
        // the nominal µ would flood the whole go-back-N queue into a faded
        // link and wedge it again.  Two delivery-BDPs of window keep
        // recovery ACK-clocked at the rate the link actually carries (the
        // same 2× that BBR's cwnd gain uses, covering the probe epochs too).
        match (mode, self.estimator.pace_cap_bps()) {
            (Mode::Delay, Some(cap_bps)) => {
                let cap_window = 2.0 * cap_bps * rtt_s / (8.0 * self.mss as f64);
                cwnd.min(cap_window.max(4.0))
            }
            _ => cwnd,
        }
    }

    /// One watcher election decision (Eq. 5), for a watcher that detects no
    /// pulser: `recv_rate_bps` is this flow's receive rate `R_i`, `mu_bps`
    /// the bottleneck rate.
    fn volunteer(&mut self, now_s: f64, recv_rate_bps: f64, mu_bps: f64) {
        let tau_s = REPORT_INTERVAL.as_secs_f64();
        if now_s - self.last_decision_s < tau_s {
            return;
        }
        self.last_decision_s = now_s;
        let p = (KAPPA * tau_s / self.fft_duration_s) * (recv_rate_bps / mu_bps).clamp(0.0, 1.0);
        // No draw without a bottleneck rate to weigh the share by.
        if mu_bps > 0.0 && self.rng.gen::<f64>() < p {
            self.role = Role::Pulser;
        }
    }

    /// Pulser-side conflict resolution: if the cross traffic shows a stronger
    /// component at the pulsing frequency than the flow's own receive rate,
    /// another pulser probably exists; step down with a fixed probability.
    /// Returns whether it did.
    fn step_down(&mut self, z_peak_at_fp: f64, recv_peak_at_fp: f64) -> bool {
        let yields =
            z_peak_at_fp > recv_peak_at_fp && self.rng.gen::<f64>() < STEP_DOWN_PROBABILITY;
        if yields {
            self.role = Role::Watcher;
        }
        yields
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::CongestionControl;
    use crate::controller::tests::{ack, report};
    use crate::NimbusController;
    use nimbus_core_types::Time;

    fn probe(multiflow: MultiflowConfig, seed: u64) -> ElasticityProbe {
        let cfg = NimbusConfig::default_for_link(96e6).with_multiflow(multiflow);
        ElasticityProbe::new(&cfg.with_seed(seed))
    }

    /// 20 Mbit/s carrying pulses at `freq_hz`, one sample per 10 ms.
    fn pulsed(freq_hz: f64, samples: usize) -> Vec<f64> {
        let gen = PulseGenerator::asymmetric(freq_hz, 6e6);
        (0..samples)
            .map(|i| 20e6 + gen.offset_at(i as f64 * 0.01))
            .collect()
    }

    /// Run `watcher`'s election every 10 ms for up to `secs` at a receive
    /// rate of `recv_bps` on a 96 Mbit/s link; whether it won.
    fn elect(watcher: &mut ElasticityProbe, secs: f64, recv_bps: f64) -> bool {
        let mut t = 0.0;
        while t < secs && watcher.role() == Role::Watcher {
            t += 0.01;
            watcher.volunteer(t, recv_bps, 96e6);
        }
        watcher.role() == Role::Pulser
    }

    /// What a receive-rate window reads after `series`, one sample per 10 ms
    /// report, pushed from sample number `from` on.
    fn presence_after(recv: &mut RecvWindow, from: usize, series: &[f64]) -> Option<Mode> {
        for (i, &x) in series.iter().enumerate() {
            recv.push((from + i) as f64 * 0.01, x);
        }
        recv.presence()
    }

    #[test]
    fn a_lone_flow_pulses_and_a_coordinated_one_starts_watching() {
        let lone = probe(MultiflowConfig::default(), 1);
        assert_eq!(lone.role(), Role::Pulser);
        assert_eq!((lone.f_pc_hz, lone.f_pd_hz), (5.0, 5.0));
        // ...and keeps no receive-rate window.
        assert!(lone.recv.is_none());
        let coordinated = probe(MultiflowConfig::enabled(), 1);
        assert_eq!(coordinated.role(), Role::Watcher);
        assert_eq!((coordinated.f_pc_hz, coordinated.f_pd_hz), (5.0, 6.0));
    }

    #[test]
    fn marks_that_z_agrees_with_are_elastic_evidence_within_a_second() {
        // Marked reports over [5 s, 6 s), once the validator trusts ẑ.
        let evidence = |send_bps, recv_bps| {
            let mut lone = probe(MultiflowConfig::default(), 1);
            (501..600).any(|k| {
                let mut r = report(k as f64 * 0.01, send_bps, recv_bps, 0.05);
                (r.marked_packets, r.marked_bytes) = (5, 7_500);
                lone.measure(&r, Mode::Delay).1 == Some(Evidence::Elastic)
            })
        };
        // Eq. 1's ẑ = 24 Mbit/s agrees with the marks; S == R == µ (ẑ ≈ 0,
        // our own pulse brushing a shallow threshold) does not.
        assert!(evidence(40e6, 60e6));
        assert!(!evidence(96e6, 96e6));
    }

    #[test]
    fn watcher_detects_pulser_and_its_mode() {
        let presence = |series: &[f64]| {
            let mut watcher = probe(MultiflowConfig::enabled(), 2);
            presence_after(watcher.recv.as_mut().unwrap(), 0, series)
        };
        assert_eq!(presence(&pulsed(5.0, 600)), Some(Mode::Competitive));
        assert_eq!(presence(&pulsed(6.0, 600)), Some(Mode::Delay));
        assert_eq!(presence(&[20e6; 600]), None);
        // Nothing is read off a window that is not full yet.
        assert_eq!(presence(&pulsed(5.0, 499)), None);
    }

    #[test]
    fn election_eventually_elects_exactly_someone() {
        // With no pulser present, a watcher receiving a decent share of the
        // link must volunteer within a few FFT durations.
        let mut watcher = probe(MultiflowConfig::enabled(), 3);
        assert!(elect(&mut watcher, 60.0, 48e6), "never became pulser");
    }

    #[test]
    fn election_respects_the_expected_rate_bound() {
        // Expected number of volunteers per FFT duration ≈ κ·(R/µ).  Over many
        // trials with R/µ = 0.5 and κ = 1, roughly half the 5-second windows
        // should produce a volunteer — certainly not all of them instantly.
        let trials = 200;
        let elected_within_one_window = (0..trials)
            .filter(|&seed| elect(&mut probe(MultiflowConfig::enabled(), seed), 5.0, 48e6))
            .count();
        let frac = elected_within_one_window as f64 / trials as f64;
        assert!(frac > 0.2 && frac < 0.7, "election fraction {frac}");
    }

    #[test]
    fn pulser_steps_down_on_conflict_evidence() {
        let mut flow = probe(MultiflowConfig::enabled(), 6);
        assert!(elect(&mut flow, 60.0, 96e6));
        // Our own receive rate oscillates harder at f_p than the cross
        // traffic: no evidence of a second pulser, so it never steps down.
        for _ in 0..100 {
            assert!(!flow.step_down(1e6, 5e6));
        }
        assert_eq!(flow.role(), Role::Pulser);
        // On the opposite evidence it steps down within a few coin flips.
        assert!(
            (0..64).any(|_| flow.step_down(10e6, 3e6)),
            "never stepped down"
        );
        assert_eq!(flow.role(), Role::Watcher);
    }

    #[test]
    fn watcher_rate_shaping_removes_fast_oscillation() {
        let mut watcher = probe(MultiflowConfig::enabled(), 7);
        // A 5 Hz oscillating raw rate should come out much smoother.
        let gen = PulseGenerator::asymmetric(5.0, 12e6);
        let (mut min_out, mut max_out) = (f64::MAX, f64::MIN);
        for i in 0..2000 {
            let t = i as f64 * 0.01;
            let raw = 24e6 + gen.offset_at(t);
            // A zero receive rate keeps it out of the election.
            watcher.assess(&report(t, 0.0, 0.0, 0.05), raw);
            let out = watcher.pace_bps(raw, Mode::Competitive, t);
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

    #[test]
    fn multiflow_watchers_look_where_a_slow_pulser_pulses() {
        // App. F's 2 Hz pulse on a multi-flow run: f_pc and f_pd both follow
        // `elasticity.pulse_freq_hz`, on the pulser and on the watchers.
        let mu = 96e6;
        let mut cfg = NimbusConfig::default_for_link(mu).with_multiflow(MultiflowConfig::enabled());
        cfg.elasticity.pulse_freq_hz = 2.0;
        let mut watcher = ElasticityProbe::new(&cfg);
        let recv = watcher.recv.as_mut().unwrap();
        // A receive rate carrying a competitive-mode pulser's 2 Hz pulses.
        assert_eq!(
            presence_after(recv, 0, &pulsed(2.0, 600)),
            Some(Mode::Competitive)
        );

        // Elect a pulser (alone on the link: R = µ, ẑ = 0, so it stays in
        // delay mode) and record what it paces over one FFT window.
        let mut pulser = NimbusController::new(cfg.with_seed(7));
        let mut t = 0.0;
        while pulser.role() == Role::Watcher {
            assert!(t < 60.0, "never elected");
            t += 0.01;
            pulser.on_packet_acked(&ack(t, 50.0));
            pulser.on_report(&report(t, mu, mu, 0.05));
        }
        t += 0.01;
        pulser.on_report(&report(t, mu, mu, 0.05));
        assert_eq!(pulser.mode(), Mode::Delay);
        let paced: Vec<f64> = (0..500)
            .map(|i| {
                let at = Time::from_secs_f64(t + i as f64 * 0.01);
                pulser.pacing_rate_bps(at).unwrap()
            })
            .collect();
        // A whole window of it replaces the competitive-mode pulses.
        assert_eq!(presence_after(recv, 600, &paced), Some(Mode::Delay));
    }
}
