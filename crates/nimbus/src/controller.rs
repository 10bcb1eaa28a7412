//! The Nimbus mode-switching congestion controller (§4 of the paper).
//!
//! Nimbus layers four pieces on top of the generic sender machinery:
//!
//! * an inner **TCP-competitive** controller (Cubic or NewReno), used when
//!   elastic cross traffic is present;
//! * an inner **delay-controlling** controller ([`BasicDelay`], Vegas or the
//!   Copa default mode), used when it is not;
//! * the **cross-traffic estimator** and **elasticity detector** that decide
//!   which of the two should be driving;
//! * the **pulse modulation** applied to whatever rate the active inner
//!   controller wants, so the detector has something to measure.
//!
//! Mode switching details from §4.1 that matter for fidelity:
//!
//! * The elasticity verdict is re-evaluated on every report from the spectrum
//!   of the last 5 seconds of ẑ samples (kept incrementally by the detector,
//!   one sample in per report), and the mode follows the verdict.
//! * When switching into TCP-competitive mode, the competitive controller is
//!   (re)initialized to the rate the flow was sending **5 seconds ago** —
//!   the elastic competitor has spent the detection delay stealing bandwidth
//!   from the delay-mode rate, so resuming from the current rate would
//!   concede it.
//! * In competitive mode the pulse frequency is `f_pc` (5 Hz); in delay mode
//!   it is `f_pd` = `f_pc` + `PULSE_FREQ_DELAY_OFFSET_HZ` (6 Hz), so watcher
//!   flows can follow the pulser's mode (§6).

use crate::basic_delay::BasicDelay;
use crate::cc::{AckEvent, CcKind, CongestionControl, CongestionEvent, LossEvent, PathInfo};
use crate::ccp::Report;
use crate::detector::{DetectorVerdict, ElasticityConfig, ElasticityDetector};
use crate::estimator::{CrossTrafficEstimator, MuSpec, ZFilterConfig};
use crate::multiflow::{Multiflow, MultiflowConfig, PulserPresence, Role};
use nimbus_core_types::Time;
use nimbus_dsp::Biquad;
use nimbus_dsp::PulseGenerator;
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::collections::VecDeque;

/// How far above `f_pc` (`elasticity.pulse_freq_hz`) a multi-flow pulser
/// pulses while in delay mode, Hz (§6: `f_pc` = 5 Hz, `f_pd` = 6 Hz).  The
/// controller pulses at the sum and hands the same pair to its
/// `Multiflow`, so pulser and watchers cannot disagree on where to look.
const PULSE_FREQ_DELAY_OFFSET_HZ: f64 = 1.0;

/// Quality factor of the `zfilter=notch` stage: the −3 dB bandwidth is
/// `freq_hz / 0.7`, and a 0.1 Hz notch passes the 5 Hz pulse band within 5%.
const NOTCH_Q: f64 = 0.7;

/// Gain of `zfilter=adaptive` on the µ̂ uncertainty `u`: the detector's η
/// threshold and minimum-peak guard scale by `1 + 8·u` (before damping).
const ADAPTIVE_GAIN: f64 = 8.0;

/// Which algorithm fills the TCP-competitive role.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TcpScheme {
    /// TCP Cubic (the paper's default).
    Cubic,
    /// TCP NewReno.
    NewReno,
    /// DCTCP: scalable ECN reaction for L4S-style marking queues.
    Dctcp,
}

/// Which algorithm fills the delay-controlling role.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DelayScheme {
    /// The paper's BasicDelay rule (Eq. 4).
    BasicDelay,
    /// TCP Vegas.
    Vegas,
    /// Copa's default mode.
    CopaDefault,
}

/// Nimbus's operating mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Mode {
    /// Delay-controlling mode (no elastic cross traffic detected).
    Delay,
    /// TCP-competitive mode (elastic cross traffic detected).
    Competitive,
}

/// Whether the controller may switch into TCP-competitive mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SwitchSpec {
    /// Follow the elasticity detector (the paper's Nimbus).
    #[default]
    Auto,
    /// Measure, don't switch: the detector keeps issuing verdicts, but the
    /// flow stays in delay mode forever ("Nimbus delay").
    Never,
}

/// What a Nimbus flow runs: elasticity detection layered over an inner
/// competitive scheme and an inner delay scheme.  The `nimbus(…)` scheme
/// grammar reads and writes exactly these fields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NimbusSpec {
    /// The inner TCP-competitive scheme (used when cross traffic is elastic).
    pub competitive: TcpScheme,
    /// The inner delay-controlling scheme (used when it is not).
    pub delay: DelayScheme,
    /// Where the bottleneck-rate estimate µ comes from (see
    /// [`crate::estimator`]).
    pub mu: MuSpec,
    /// ẑ conditioning between the estimator and the detector (none, a notch
    /// at the link-variation frequency, or µ-uncertainty-scaled thresholds).
    pub zfilter: ZFilterConfig,
    /// Whether mode switching is enabled.
    pub switch: SwitchSpec,
}

impl Default for NimbusSpec {
    /// The paper's default wrapper: Cubic + BasicDelay, configured µ, raw ẑ,
    /// detector-driven switching.
    fn default() -> Self {
        NimbusSpec {
            competitive: TcpScheme::Cubic,
            delay: DelayScheme::BasicDelay,
            mu: MuSpec::Configured,
            zfilter: ZFilterConfig::None,
            switch: SwitchSpec::Auto,
        }
    }
}

/// Nimbus configuration.
#[derive(Debug, Clone)]
pub struct NimbusConfig {
    /// What the flow runs.
    pub spec: NimbusSpec,
    /// The nominal bottleneck rate µ, bits/s: BasicDelay's µ, and the
    /// estimator's too when `spec.mu` is configured.  A learned µ starts
    /// from nothing: it reaches neither the inner schemes' [`PathInfo`] nor
    /// the initial pulse amplitude.
    pub mu_bps: f64,
    /// Maximum segment size of the flow, bytes.
    pub mss: u32,
    /// Pulse amplitude as a fraction of µ (0.25 by default).
    pub pulse_amplitude_fraction: f64,
    /// Elasticity-detector settings (pulse frequency, FFT duration).
    pub elasticity: ElasticityConfig,
    /// Multi-flow (pulser/watcher) coordination.
    pub multiflow: MultiflowConfig,
    /// Seed for the controller's randomized decisions.
    pub seed: u64,
}

impl NimbusConfig {
    /// The paper's default configuration for a known link rate: Cubic +
    /// BasicDelay, 0.25·µ pulses at 5/6 Hz, 5-second FFT, η threshold 2.
    pub fn default_for_link(mu_bps: f64) -> Self {
        NimbusConfig {
            spec: NimbusSpec::default(),
            mu_bps,
            mss: 1500,
            pulse_amplitude_fraction: 0.25,
            elasticity: ElasticityConfig::default(),
            multiflow: MultiflowConfig::default(),
            seed: 1,
        }
    }

    /// Enable pulser/watcher coordination (for multiple Nimbus flows).
    pub fn with_multiflow(mut self, multiflow: MultiflowConfig) -> Self {
        self.multiflow = multiflow;
        self
    }

    /// Change the pulse amplitude fraction.
    pub fn with_pulse_amplitude(mut self, fraction: f64) -> Self {
        self.pulse_amplitude_fraction = fraction;
        self
    }

    /// Change the random seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The delay-mode pulse frequency `f_pd` of a multi-flow pulser, Hz.
    fn f_pd_hz(&self) -> f64 {
        self.elasticity.pulse_freq_hz + PULSE_FREQ_DELAY_OFFSET_HZ
    }
}

/// A `(time, mode)` entry in the mode log.
pub type ModeLogEntry = (f64, Mode);

/// Observer hook for the controller's internal telemetry (the s2n-quic
/// "publisher" shape): a host installs one with
/// [`NimbusController::set_publisher`] to stream mode transitions, µ̂/ẑ
/// estimates and detector verdicts without polling the logs.  Every method
/// has an empty default, so implementors subscribe only to what they need;
/// with no publisher installed the controller's behaviour is bit-for-bit
/// what it was before the hook existed.
pub trait Publisher: Send {
    /// The controller switched operating mode at `now_s`.
    fn on_mode_change(&mut self, _now_s: f64, _mode: Mode) {}

    /// A new estimator sample: the current µ̂ and cross-traffic estimate ẑ
    /// (both bits/s).
    fn on_estimate(&mut self, _now_s: f64, _mu_bps: f64, _z_bps: f64) {}

    /// The elasticity detector issued a verdict.
    fn on_verdict(&mut self, _now_s: f64, _verdict: &DetectorVerdict) {}
}

/// The concrete delay-mode controller (an enum rather than a trait object so
/// Nimbus can hand the cross-traffic estimate to BasicDelay, which needs it).
enum DelayCtl {
    Basic(BasicDelay),
    Other(Box<dyn CongestionControl>),
}

impl DelayCtl {
    fn as_cc(&self) -> &dyn CongestionControl {
        match self {
            DelayCtl::Basic(b) => b,
            DelayCtl::Other(o) => o.as_ref(),
        }
    }
    fn as_cc_mut(&mut self) -> &mut dyn CongestionControl {
        match self {
            DelayCtl::Basic(b) => b,
            DelayCtl::Other(o) => o.as_mut(),
        }
    }
}

/// The last answers to the transport's two poll-path queries.  Both are pure
/// functions of state that only the `&mut self` callbacks change (and, for
/// the pace, of `now`), while a sender asks them about three times per
/// callback: the callbacks clear the memo, the queries fill it lazily.
#[derive(Default)]
struct PollMemo {
    cwnd_packets: Cell<Option<f64>>,
    /// `(now, pacing_rate_bps(now))`: a pace is reused only at the same `now`.
    pace: Cell<Option<(Time, f64)>>,
}

impl PollMemo {
    fn clear(&mut self) {
        *self.cwnd_packets.get_mut() = None;
        *self.pace.get_mut() = None;
    }
}

/// The Nimbus controller.  Implements [`CongestionControl`], so it plugs into
/// any host sender machinery (in the simulator: `nimbus_transport::Sender`).
pub struct NimbusController {
    cfg: NimbusConfig,
    mode: Mode,
    competitive: Box<dyn CongestionControl>,
    delay: DelayCtl,
    estimator: CrossTrafficEstimator,
    detector: ElasticityDetector,
    multiflow: Multiflow,
    pulse: PulseGenerator,
    /// Smoothed RTT from ACKs (seconds), for rate/window conversions.
    srtt_s: f64,
    /// Rate history for the 5-seconds-ago reset: `(time_s, rate_bps)`.
    rate_history: VecDeque<(f64, f64)>,
    /// Current time as of the last report (seconds).
    now_s: f64,
    /// Log of mode switches.
    mode_log: Vec<ModeLogEntry>,
    /// Time of the most recent *elastic* verdict, for the switch-back
    /// hysteresis (§4.1): competitive → delay only after the detector has
    /// seen nothing elastic for a full FFT window.
    last_elastic_s: f64,
    /// EWMA-smoothed rate used while this flow is a watcher.
    watcher_rate_bps: Option<f64>,
    /// Sliding window of `(t_s, marked, acked)` packet counts from recent
    /// measurement reports, trimmed to the FFT duration.  Stays empty until
    /// the first CE mark arrives, keeping non-ECN runs bit-identical.
    mark_window: VecDeque<(f64, u64, u64)>,
    /// Marked and ACKed packets summed over `mark_window`.
    window_marked: u64,
    window_acked: u64,
    /// Consecutive informative reports where the mark fraction and ẑ agreed.
    mark_streak: u64,
    /// Telemetry observer, if the host installed one.
    publisher: Option<Box<dyn Publisher>>,
    /// `cwnd_packets` and `pacing_rate_bps` since the last callback.
    poll_memo: PollMemo,
}

impl NimbusController {
    /// Create a Nimbus controller.
    ///
    /// # Panics
    /// Panics if µ is configured (`spec.mu` is [`MuSpec::Configured`]) and
    /// `mu_bps` is not positive, or if a probing learned µ fails
    /// [`crate::ProbingConfig::check`].
    pub fn new(cfg: NimbusConfig) -> Self {
        let spec = cfg.spec;
        let configured_mu_bps = (!spec.mu.is_learned()).then_some(cfg.mu_bps);
        let path = match configured_mu_bps {
            Some(mu) => PathInfo::new(cfg.mss).with_nominal_mu(mu),
            None => PathInfo::new(cfg.mss),
        };
        let competitive: Box<dyn CongestionControl> = match spec.competitive {
            TcpScheme::Cubic => CcKind::Cubic.build(&path),
            TcpScheme::NewReno => CcKind::NewReno.build(&path),
            TcpScheme::Dctcp => CcKind::Dctcp.build(&path),
        };
        let delay: DelayCtl = match spec.delay {
            DelayScheme::BasicDelay => DelayCtl::Basic(BasicDelay::new(cfg.mu_bps)),
            DelayScheme::Vegas => DelayCtl::Other(CcKind::Vegas.build(&path)),
            DelayScheme::CopaDefault => DelayCtl::Other(CcKind::Copa.build(&path)),
        };
        let history_s = cfg.elasticity.fft_duration_s;
        let mut estimator = match spec.mu {
            MuSpec::Configured => CrossTrafficEstimator::with_known_mu(cfg.mu_bps, history_s),
            MuSpec::Learned(learned) => CrossTrafficEstimator::learning(learned, history_s),
        };
        if let ZFilterConfig::Notch { freq_hz } = spec.zfilter {
            estimator.set_z_prefilter(Some(Biquad::notch(
                freq_hz,
                NOTCH_Q,
                cfg.elasticity.sample_rate_hz(),
            )));
        }
        let detector = ElasticityDetector::new(cfg.elasticity.clone());
        let multiflow = Multiflow::new(
            cfg.multiflow.clone(),
            &cfg.elasticity,
            cfg.f_pd_hz(),
            cfg.seed,
        );
        let amplitude = cfg.pulse_amplitude_fraction * configured_mu_bps.unwrap_or(0.0);
        let pulse = PulseGenerator::asymmetric(cfg.elasticity.pulse_freq_hz, amplitude);
        let mut controller = NimbusController {
            cfg,
            mode: Mode::Delay,
            competitive,
            delay,
            estimator,
            detector,
            multiflow,
            pulse,
            srtt_s: 0.0,
            rate_history: VecDeque::new(),
            now_s: 0.0,
            mode_log: Vec::new(),
            last_elastic_s: f64::NEG_INFINITY,
            watcher_rate_bps: None,
            mark_window: VecDeque::new(),
            window_marked: 0,
            window_acked: 0,
            mark_streak: 0,
            publisher: None,
            poll_memo: PollMemo::default(),
        };
        controller.mode_log.push((0.0, Mode::Delay));
        controller
    }

    /// Install a telemetry observer (see [`Publisher`]); replaces any
    /// previous one.  The publisher only *observes* — installing one cannot
    /// change the controller's decisions.
    pub fn set_publisher(&mut self, publisher: Box<dyn Publisher>) {
        self.publisher = Some(publisher);
    }

    /// The current operating mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The current pulser/watcher role.
    pub fn role(&self) -> Role {
        self.multiflow.role()
    }

    /// Every mode switch as `(time_s, new_mode)`.
    pub fn mode_log(&self) -> &[ModeLogEntry] {
        &self.mode_log
    }

    /// The elasticity detector (verdict history, η time series).
    pub fn detector(&self) -> &ElasticityDetector {
        &self.detector
    }

    /// The cross-traffic estimator (ẑ history).
    pub fn estimator(&self) -> &CrossTrafficEstimator {
        &self.estimator
    }

    /// Fraction of time spent in delay mode between `t0_s` and `t1_s`
    /// (computed from the mode log).
    pub fn delay_mode_fraction(&self, t0_s: f64, t1_s: f64) -> f64 {
        if t1_s <= t0_s {
            return 0.0;
        }
        let mut total_delay = 0.0;
        let mut current_mode = Mode::Delay;
        let mut current_start = t0_s;
        for &(t, mode) in &self.mode_log {
            if t <= t0_s {
                current_mode = mode;
                continue;
            }
            if t >= t1_s {
                break;
            }
            if current_mode == Mode::Delay {
                total_delay += t - current_start;
            }
            current_mode = mode;
            current_start = t;
        }
        if current_mode == Mode::Delay {
            total_delay += t1_s - current_start;
        }
        total_delay / (t1_s - t0_s)
    }

    /// The bottleneck-rate estimate in use.
    pub fn mu_bps(&self) -> f64 {
        self.estimator.mu_bps()
    }

    fn active(&self) -> &dyn CongestionControl {
        match self.mode {
            Mode::Delay => self.delay.as_cc(),
            Mode::Competitive => self.competitive.as_ref(),
        }
    }

    /// The unmodulated rate the active inner controller wants right now.
    fn base_rate_bps(&self, now: Time) -> f64 {
        match self.active().pacing_rate_bps(now) {
            Some(rate) => rate,
            None => {
                // Window-based inner controller (Cubic/NewReno): convert the
                // window to an equivalent rate over the smoothed RTT.
                let rtt = if self.srtt_s > 0.0 { self.srtt_s } else { 0.1 };
                self.active().cwnd_packets() * self.cfg.mss as f64 * 8.0 / rtt
            }
        }
    }

    /// Rate the flow was using `lookback_s` seconds ago (for the reset on
    /// switching to competitive mode).
    fn rate_at_lookback(&self, lookback_s: f64) -> Option<f64> {
        let target = self.now_s - lookback_s;
        self.rate_history
            .iter()
            .find(|(t, _)| *t >= target)
            .map(|&(_, r)| r)
    }

    /// Current pulse frequency.  A lone Nimbus flow always pulses at `f_p`;
    /// with multi-flow coordination enabled the pulser uses `f_pc` in
    /// competitive mode and `f_pd` in delay mode so watchers can read its
    /// mode out of their receive-rate spectrum (§6).
    fn current_pulse_freq(&self) -> f64 {
        if !self.cfg.multiflow.enabled {
            return self.cfg.elasticity.pulse_freq_hz;
        }
        match self.mode {
            Mode::Competitive => self.cfg.elasticity.pulse_freq_hz,
            Mode::Delay => self.cfg.f_pd_hz(),
        }
    }

    /// The pacing multiplier a probing µ estimator wants right now.  Probe
    /// epochs only run in delay mode: there the flow is self-limited and a
    /// max filter can never see past its own pace, while in competitive
    /// mode the inner TCP already probes the link by design.
    fn probe_gain(&self, now_s: f64) -> f64 {
        match self.mode {
            Mode::Delay => self.estimator.pace_gain(now_s),
            Mode::Competitive => 1.0,
        }
    }

    /// The window of the active controller, with enough head-room that the
    /// window never clips the pulse's positive excursion — pacing (which
    /// carries the pulse) must stay the binding constraint.  Without this a
    /// starved delay-mode flow has a window of a few packets, the pulse never
    /// reaches the wire, and the detector goes blind exactly when it is
    /// needed most.
    fn compute_cwnd_packets(&self) -> f64 {
        let inner = match self.mode {
            Mode::Competitive => self.competitive.cwnd_packets(),
            Mode::Delay => self.delay.as_cc().cwnd_packets(),
        };
        let rtt = if self.srtt_s > 0.0 { self.srtt_s } else { 0.1 };
        // A probe-up epoch must fit through the window as well as the pulse:
        // the estimator's pace gain scales the headroom exactly as it scales
        // the paced rate (gain is 1.0 outside probing estimators).
        let gain = self.probe_gain(self.now_s);
        let peak_rate =
            (self.base_rate_bps(Time::from_secs_f64(self.now_s)) + self.pulse.amplitude) * gain;
        let pulse_headroom = 2.0 * peak_rate * rtt / (8.0 * self.cfg.mss as f64);
        let cwnd = inner.max(pulse_headroom);
        // A probing estimator's delivery cap bounds the *window* as well as
        // the pace: retransmissions are never paced (only cwnd-gated), so
        // after a timeout an inner controller whose rate has rebounded off
        // the nominal µ would flood the whole go-back-N queue into a faded
        // link and wedge it again.  Two delivery-BDPs of window keep
        // recovery ACK-clocked at the rate the link actually carries (the
        // same 2× that BBR's cwnd gain uses, covering the probe epochs too).
        match (self.mode, self.estimator.pace_cap_bps()) {
            (Mode::Delay, Some(cap_bps)) => {
                let cap_window = 2.0 * cap_bps * rtt / (8.0 * self.cfg.mss as f64);
                cwnd.min(cap_window.max(4.0))
            }
            _ => cwnd,
        }
    }

    /// The pulsed (or, for a watcher, smoothed) pace at `now`.
    fn compute_pacing_rate_bps(&self, now: Time) -> f64 {
        let base = self.base_rate_bps(now);
        let shaped = if self.multiflow.role() == Role::Watcher {
            // Watchers smooth their rate (EWMA, updated on the report path)
            // instead of pulsing.
            self.watcher_rate_bps.unwrap_or(base)
        } else {
            self.pulse.modulate(base, now.as_secs_f64())
        };
        // A probing estimator's delivery-informed cap bounds the cruise rate
        // in delay mode: a rate-based inner controller chasing a nominal or
        // crest-riding µ paces straight into a rate fade, melts the queue
        // down and wedges the transport in RTO backoff (the ROADMAP cellular
        // deadlock's other half).  Probe epochs then multiply *after* both
        // the cap and the pacing floor, so probing remains the one way to
        // pace above recent delivery — and the floor (the exact fixed point
        // µ̂ deadlocks at) can never mask the escape mechanism.
        let shaped = match (self.mode, self.estimator.pace_cap_bps()) {
            (Mode::Delay, Some(cap)) => shaped.min(cap),
            _ => shaped,
        };
        let gain = self.probe_gain(now.as_secs_f64());
        shaped.max(self.cfg.mss as f64 * 8.0 / 0.1) * gain
    }

    /// The one place the mode changes.  Every path into competitive mode —
    /// the detector's verdict, mark-rate cross-validation, a watcher
    /// following a competitive pulser — comes through here, so this is
    /// where `switch=never` declines it.
    fn switch_mode(&mut self, new_mode: Mode) {
        let held = new_mode == Mode::Competitive && self.cfg.spec.switch == SwitchSpec::Never;
        if new_mode == self.mode || held {
            return;
        }
        if new_mode == Mode::Competitive {
            // §4.1: reset to the rate from one detection period (5 s) ago.
            let lookback = self.cfg.elasticity.fft_duration_s;
            let rate = self
                .rate_at_lookback(lookback)
                .unwrap_or_else(|| self.base_rate_bps(Time::from_secs_f64(self.now_s)));
            let rtt = if self.srtt_s > 0.0 { self.srtt_s } else { 0.05 };
            self.competitive.reinitialize(rate, rtt, self.cfg.mss);
        } else {
            // Entering delay mode: start the delay controller from the rate
            // the flow is currently achieving so it does not spike the queue.
            let rate = self.base_rate_bps(Time::from_secs_f64(self.now_s));
            let rtt = if self.srtt_s > 0.0 { self.srtt_s } else { 0.05 };
            self.delay.as_cc_mut().reinitialize(rate, rtt, self.cfg.mss);
        }
        self.mode = new_mode;
        self.mode_log.push((self.now_s, new_mode));
        if let Some(p) = &mut self.publisher {
            p.on_mode_change(self.now_s, new_mode);
        }
    }
}

impl CongestionControl for NimbusController {
    fn on_packet_acked(&mut self, ack: &AckEvent) {
        self.poll_memo.clear();
        let rtt = ack.rtt.as_secs_f64();
        self.srtt_s = if self.srtt_s == 0.0 {
            rtt
        } else {
            0.875 * self.srtt_s + 0.125 * rtt
        };
        // Both inner controllers observe every ACK so that whichever is
        // activated next starts from sane state.
        self.competitive.on_packet_acked(ack);
        self.delay.as_cc_mut().on_packet_acked(ack);
    }

    fn on_packets_lost(&mut self, loss: &LossEvent) {
        self.poll_memo.clear();
        self.competitive.on_packets_lost(loss);
        self.delay.as_cc_mut().on_packets_lost(loss);
    }

    fn on_congestion_event(&mut self, event: &CongestionEvent) {
        self.poll_memo.clear();
        self.competitive.on_congestion_event(event);
        self.delay.as_cc_mut().on_congestion_event(event);
    }

    fn on_report(&mut self, report: &Report) {
        self.poll_memo.clear();
        self.now_s = report.now_s;
        // 1. Feed the measurement pipeline.  Probe epochs only pace in delay
        // mode (`probe_gain`), so the estimator's ẑ sample-and-hold must
        // follow the same gate — in competitive mode there is no probe burst
        // to blank out, and holding anyway would starve the detector of the
        // very samples that tell it the competition went away.
        self.estimator.set_probing_paced(self.mode == Mode::Delay);
        if let Some(z_bps) = self.estimator.on_report(report) {
            if let Some(p) = &mut self.publisher {
                p.on_estimate(report.now_s, self.estimator.mu_bps(), z_bps);
            }
            if let DelayCtl::Basic(bd) = &mut self.delay {
                bd.set_cross_traffic_estimate(z_bps);
            }
            // The detector's window takes the sample the estimator *stored*
            // (held through probe epochs, notch-filtered), watcher or not;
            // the receive-rate window moves with it.
            let stored = self.estimator.latest_conditioned_z();
            self.detector
                .push(report.now_s, stored.expect("a sample was just stored"));
            self.multiflow.push_recv(report.now_s, report.recv_rate_bps);
        }
        // 2. Let both inner controllers see the report.
        self.competitive.on_report(report);
        self.delay.as_cc_mut().on_report(report);

        // 2b. ECN mark-rate cross-validation.  A queue that keeps marking
        // while we sit in delay mode is a queue somebody else keeps full —
        // and the ẑ estimate says who.  When both signals agree (persistent
        // mark fraction AND ẑ a non-trivial share of µ) the controller can
        // call the cross traffic elastic in a few hundred milliseconds
        // instead of waiting out a full FFT window.  The fraction is counted
        // over a sliding window of ACKed packets (the way DCTCP computes α)
        // rather than EWMA-smoothed per report: a starved flow's reports are
        // mostly empty, and folding those in as "zero marks" would erase a
        // perfectly persistent mark signal exactly when it matters most.
        // The whole block is provably inert without ECN: `marked_packets` is
        // 0 on every report, the window stays empty, and no state changes.
        if report.marked_packets > 0 || !self.mark_window.is_empty() {
            let acked_pkts = report.acked_bytes / self.cfg.mss.max(1) as u64;
            if report.marked_packets > 0 || acked_pkts > 0 {
                self.mark_window
                    .push_back((report.now_s, report.marked_packets, acked_pkts));
                self.window_marked += report.marked_packets;
                self.window_acked += acked_pkts;
            }
            let horizon = report.now_s - self.cfg.elasticity.fft_duration_s;
            while let Some(&(t, m, a)) = self.mark_window.front() {
                if t < horizon {
                    self.mark_window.pop_front();
                    self.window_marked -= m;
                    self.window_acked -= a;
                } else {
                    break;
                }
            }
            let (marked, acked) = (self.window_marked, self.window_acked);
            let span_s = match (self.mark_window.front(), self.mark_window.back()) {
                (Some(&(t0, _, _)), Some(&(t1, _, _))) => t1 - t0,
                _ => 0.0,
            };
            let frac = if acked == 0 {
                0.0
            } else {
                marked as f64 / acked.max(marked) as f64
            };
            let mu_now = self.estimator.mu_bps();
            let z_mean = self
                .estimator
                .mean_conditioned_z(self.cfg.elasticity.fft_duration_s)
                .unwrap_or(0.0);
            let z_agrees = mu_now > 0.0 && z_mean > 0.05 * mu_now;
            // Don't trust ẑ before the first FFT window has filled: the
            // slow-start transient inflates both ẑ and the mark rate, and a
            // solo flow on a shallow marking queue would misread its own
            // startup as an elastic competitor.
            let warmed = report.now_s >= self.cfg.elasticity.fft_duration_s;
            // A couple of marked packets per window is already abnormal for
            // a delay-mode flow that targets a sub-threshold queue, so the
            // fraction bar is low (2%); the false-positive guards are the
            // ẑ agreement, the warm-up, the minimum evidence (≥ 8 ACKed
            // packets spanning ≥ 250 ms), and the persistence streak — a
            // transient ẑ crossing on a solo flow must not flip the mode,
            // so both signals have to hold across 25 informative reports
            // (~250 ms at the CCP cadence, a few seconds when starved).
            if warmed
                && self.mode == Mode::Delay
                && acked >= 8
                && span_s >= 0.25
                && frac > 0.02
                && z_agrees
            {
                self.mark_streak += 1;
                if self.mark_streak >= 25 {
                    self.last_elastic_s = report.now_s;
                    self.switch_mode(Mode::Competitive);
                }
            } else {
                self.mark_streak = 0;
            }
        }

        // 3. Record the rate history (for the 5-seconds-ago reset).
        let now_t = Time::from_secs_f64(report.now_s);
        let rate_now = self.base_rate_bps(now_t);
        self.rate_history.push_back((report.now_s, rate_now));
        let horizon = report.now_s - self.cfg.elasticity.fft_duration_s;
        while let Some(&(t, _)) = self.rate_history.front() {
            if t < horizon {
                self.rate_history.pop_front();
            } else {
                break;
            }
        }

        // 4. Multi-flow coordination (§6).  A watcher smooths its own rate
        // so the pulser does not mistake it for elastic cross traffic,
        // follows the mode of any pulser it sees, and never pulses.
        let mu = self.estimator.mu_bps();
        if self.multiflow.role() == Role::Watcher {
            self.watcher_rate_bps = Some(self.multiflow.shape_rate(rate_now));
            match self.multiflow.detect_pulser() {
                PulserPresence::Competitive => self.switch_mode(Mode::Competitive),
                PulserPresence::Delay => self.switch_mode(Mode::Delay),
                PulserPresence::None => {
                    let recv_rate = report.recv_rate_bps;
                    self.multiflow
                        .maybe_become_pulser(report.now_s, recv_rate, mu);
                }
            }
            self.pulse.enabled = false;
            return;
        }
        self.watcher_rate_bps = None;
        self.pulse.enabled = true;

        // 5. Pulser path: evaluate elasticity and pick the mode.  The
        // minimum-peak guard tracks the current µ estimate (which may be
        // learned at runtime): the f_p oscillation in ẑ must reach ~2% of µ
        // peak-to-peak before the cross traffic can be called elastic.
        // The adaptive ẑ-conditioning stage raises the detection bars (η
        // threshold and minimum peak) with the µ̂ uncertainty: when µ̂ is off
        // by a fraction u, the flow's own pulse leaks into ẑ with amplitude
        // ∝ u·0.25·µ̂ and η values in exactly the genuine-elasticity range.
        // The leak can only masquerade as cross traffic when there is not
        // much *actual* cross traffic — a real competitor fills ẑ itself —
        // so the scaling is damped to nothing as mean ẑ approaches 25% of
        // µ̂.  Without the damping a competitor that squeezes the flow also
        // widens the recv-rate spread, the raised bar suppresses the
        // genuine verdict, and the starvation becomes self-reinforcing.
        let bar_scale = match self.cfg.spec.zfilter {
            ZFilterConfig::Adaptive if mu > 0.0 => self
                .estimator
                .mean_conditioned_z(self.cfg.elasticity.fft_duration_s)
                .map_or(1.0, |mean_z| {
                    let damp = (1.0 - mean_z / (0.25 * mu)).clamp(0.0, 1.0);
                    1.0 + ADAPTIVE_GAIN * self.estimator.mu_uncertainty() * damp
                }),
            _ => 1.0,
        };
        if mu > 0.0 {
            self.detector.set_min_peak_bps(0.01 * mu * bar_scale);
        }
        self.detector.set_eta_scale(bar_scale);
        if let Some(verdict) = self.detector.evaluate_window(report.now_s) {
            if let Some(p) = &mut self.publisher {
                p.on_verdict(report.now_s, &verdict);
            }
            // Multi-pulser conflict check: compare the pulse-frequency content
            // of ẑ against our own receive rate, at the same bins of the
            // same window.
            let fp = self.detector.config().pulse_freq_hz;
            if let Some(recv_peak) = self.multiflow.recv_peak(fp) {
                if self
                    .multiflow
                    .maybe_step_down(verdict.peak_at_fp, recv_peak)
                {
                    self.pulse.enabled = false;
                    return;
                }
            }
            // Asymmetric hysteresis (§4.1): elastic cross traffic flips the
            // controller to competitive mode immediately (every tick in delay
            // mode concedes throughput), but it only returns to delay mode
            // after a full FFT window without a single elastic verdict — a
            // competitor briefly backing off (e.g. Cubic right after a loss)
            // must not bounce Nimbus back into the mode it gets starved in.
            if verdict.elastic {
                self.last_elastic_s = report.now_s;
                self.switch_mode(Mode::Competitive);
            } else if report.now_s - self.last_elastic_s >= self.cfg.elasticity.fft_duration_s {
                self.switch_mode(Mode::Delay);
            }
        }

        // 6. Keep the pulse generator aligned with the current mode and µ.
        self.pulse.freq_hz = self.current_pulse_freq();
        self.pulse.amplitude = self.cfg.pulse_amplitude_fraction * mu;
        // The detector always listens at the competitive-mode frequency?  No:
        // it listens at whatever frequency we are currently pulsing at.
        self.detector.set_pulse_freq(self.current_pulse_freq());
    }

    fn cwnd_packets(&self) -> f64 {
        if let Some(cwnd) = self.poll_memo.cwnd_packets.get() {
            return cwnd;
        }
        let cwnd = self.compute_cwnd_packets();
        self.poll_memo.cwnd_packets.set(Some(cwnd));
        cwnd
    }

    fn pacing_rate_bps(&self, now: Time) -> Option<f64> {
        match self.poll_memo.pace.get() {
            Some((at, rate)) if at == now => Some(rate),
            _ => {
                let rate = self.compute_pacing_rate_bps(now);
                self.poll_memo.pace.set(Some((now, rate)));
                Some(rate)
            }
        }
    }

    fn reinitialize(&mut self, rate_bps: f64, rtt_s: f64, mss: u32) {
        self.poll_memo.clear();
        self.competitive.reinitialize(rate_bps, rtt_s, mss);
        self.delay.as_cc_mut().reinitialize(rate_bps, rtt_s, mss);
    }

    fn name(&self) -> &'static str {
        "nimbus"
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(now_s: f64, s_bps: f64, r_bps: f64, rtt_s: f64) -> Report {
        Report {
            now_s,
            send_rate_bps: s_bps,
            recv_rate_bps: r_bps,
            acked_bytes: 12_000,
            lost_packets: 0,
            rtt_s,
            min_rtt_s: 0.05,
            window_acks: 40,
            marked_packets: 0,
            marked_bytes: 0,
        }
    }

    fn ack(now_s: f64, rtt_ms: f64) -> AckEvent {
        AckEvent {
            now: Time::from_secs_f64(now_s),
            newly_acked_packets: 1,
            newly_acked_bytes: 1500,
            rtt: Time::from_millis_f64(rtt_ms),
            min_rtt: Time::from_millis_f64(50.0),
            in_flight_packets: 50,
            mss: 1500,
        }
    }

    #[test]
    fn mark_rate_cross_validation_flips_competitive_before_one_window() {
        let mut ctl = NimbusController::new(NimbusConfig::default_for_link(96e6));
        // S = 40, R = 60 on a 96 Mbit/s link: Eq. 1 says z = 24 Mbit/s of
        // cross traffic, well above the 5% agreement bar; every report also
        // carries CE marks on most of its ACKed packets.  The validator only
        // trusts ẑ once the first FFT window has filled (t ≥ 5 s), so start
        // the marked reports there: the flip must then come in a few hundred
        // milliseconds, not after another full window.
        let mut t = 5.0;
        while t < 6.0 {
            t += 0.01;
            ctl.on_packet_acked(&ack(t, 50.0));
            let mut r = report(t, 40e6, 60e6, 0.05);
            r.marked_packets = 5;
            r.marked_bytes = 7_500;
            ctl.on_report(&r);
            if ctl.mode() == Mode::Competitive {
                break;
            }
        }
        assert_eq!(ctl.mode(), Mode::Competitive);
        // The FFT window is 5 s; the cross-validated flip must beat a fresh
        // window's worth of post-arrival data by a wide margin.
        assert!(t < 6.0, "flipped at {t}s, faster than the FFT window");
    }

    #[test]
    fn marks_without_cross_traffic_do_not_flip_the_mode() {
        let mut ctl = NimbusController::new(NimbusConfig::default_for_link(96e6));
        // S == R == µ: no cross traffic, so ẑ stays near zero and the marks
        // (our own pulse brushing a shallow threshold) must not flip us.
        let mut t = 5.0;
        while t < 6.0 {
            t += 0.01;
            ctl.on_packet_acked(&ack(t, 50.0));
            let mut r = report(t, 96e6, 96e6, 0.05);
            r.marked_packets = 5;
            r.marked_bytes = 7_500;
            ctl.on_report(&r);
        }
        assert_eq!(ctl.mode(), Mode::Delay);
    }

    #[test]
    fn multiflow_watchers_look_where_a_slow_pulser_pulses() {
        // App. F's 2 Hz pulse on a multi-flow run: f_pc and f_pd both follow
        // `elasticity.pulse_freq_hz`, on the pulser and on the watchers.
        let mu = 96e6;
        let mut cfg = NimbusConfig::default_for_link(mu).with_multiflow(MultiflowConfig::enabled());
        cfg.elasticity.pulse_freq_hz = 2.0;
        let mut watcher = NimbusController::new(cfg.clone());
        assert_eq!(watcher.role(), Role::Watcher);
        let mut watch = |from: usize, recv: &[f64]| {
            for (i, &x) in recv.iter().enumerate() {
                watcher.multiflow.push_recv((from + i) as f64 * 0.01, x);
            }
            watcher.multiflow.detect_pulser()
        };

        // A receive rate carrying a competitive-mode pulser's 2 Hz pulses.
        let gen = PulseGenerator::asymmetric(2.0, 6e6);
        let recv: Vec<f64> = (0..600)
            .map(|i| 20e6 + gen.offset_at(i as f64 * 0.01))
            .collect();
        assert_eq!(watch(0, &recv), PulserPresence::Competitive);

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
        assert_eq!(watch(600, &paced), PulserPresence::Delay);
    }

    #[test]
    fn every_callback_clears_the_poll_memo() {
        type Callback = (&'static str, fn(&mut NimbusController));
        let callbacks: [Callback; 5] = [
            ("on_packet_acked", |c| c.on_packet_acked(&ack(0.02, 50.0))),
            ("on_packets_lost", |c| {
                c.on_packets_lost(&LossEvent {
                    now: Time::from_millis(20),
                    lost_packets: 3,
                    in_flight_packets: 40,
                })
            }),
            ("on_congestion_event", |c| {
                c.on_congestion_event(&CongestionEvent::Rto {
                    now: Time::from_millis(20),
                })
            }),
            ("on_report", |c| {
                c.on_report(&report(0.02, 40e6, 40e6, 0.05))
            }),
            ("reinitialize", |c| c.reinitialize(48e6, 0.05, 1500)),
        ];
        let mut ctl = NimbusController::new(NimbusConfig::default_for_link(96e6));
        let now = Time::from_millis(20);
        for (name, callback) in callbacks {
            let cwnd = ctl.cwnd_packets();
            let pace = ctl.pacing_rate_bps(now);
            assert_eq!(ctl.poll_memo.cwnd_packets.get(), Some(cwnd));
            assert_eq!(ctl.poll_memo.pace.get(), pace.map(|rate| (now, rate)));
            callback(&mut ctl);
            assert_eq!(ctl.poll_memo.cwnd_packets.get(), None, "{name}");
            assert_eq!(ctl.poll_memo.pace.get(), None, "{name}");
        }
    }

    #[test]
    fn starts_in_delay_mode_as_pulser() {
        let ctl = NimbusController::new(NimbusConfig::default_for_link(96e6));
        assert_eq!(ctl.mode(), Mode::Delay);
        assert_eq!(ctl.role(), Role::Pulser);
        assert_eq!(ctl.mode_log().len(), 1);
        assert!((ctl.mu_bps() - 96e6).abs() < 1.0);
    }

    #[test]
    fn pacing_rate_is_pulsed_around_the_base_rate() {
        let mut ctl = NimbusController::new(NimbusConfig::default_for_link(96e6));
        ctl.on_packet_acked(&ack(0.0, 50.0));
        // Collect the pacing rate over one pulse period and check it swings.
        let mut rates = Vec::new();
        for i in 0..200 {
            let t = i as f64 * 0.001;
            rates.push(ctl.pacing_rate_bps(Time::from_secs_f64(t)).unwrap());
        }
        let max = rates.iter().cloned().fold(f64::MIN, f64::max);
        let min = rates.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max - min > 5e6, "pulse swing {} too small", max - min);
        // Mean stays near the base rate (pulses cancel over a period).
        let mean = rates.iter().sum::<f64>() / rates.len() as f64;
        let base = rates[0];
        assert!(mean < base * 3.0 && mean > base / 3.0);
    }

    /// Drive a controller running `spec` open-loop with reports synthesized
    /// from a given cross-traffic behaviour.
    fn drive_with_cross_traffic(spec: NimbusSpec, elastic: bool, secs: f64) -> NimbusController {
        let mu = 96e6;
        let mut ctl = NimbusController::new(NimbusConfig {
            spec,
            ..NimbusConfig::default_for_link(mu)
        });
        ctl.on_packet_acked(&ack(0.0, 60.0));
        let pulse_probe = PulseGenerator::asymmetric(5.0, 0.25 * mu);
        let mut t = 0.0;
        while t < secs {
            t += 0.01;
            ctl.on_packet_acked(&ack(t, 60.0));
            // Our own send rate follows the pulsed pacing rate.
            let s = ctl.pacing_rate_bps(Time::from_secs_f64(t)).unwrap().min(mu);
            // Cross traffic: 48 Mbit/s that either reacts inversely to the
            // pulses one RTT later (elastic) or ignores them (inelastic).
            let z = if elastic {
                48e6 - 0.4 * pulse_probe.offset_at(t - 0.05)
            } else {
                48e6
            };
            // The receiver sees R = µ·S/(S+z) when the link is saturated.
            let r = mu * s / (s + z);
            ctl.on_report(&report(t, s, r, 0.06));
        }
        ctl
    }

    #[test]
    fn elastic_cross_traffic_switches_to_competitive_mode() {
        let ctl = drive_with_cross_traffic(NimbusSpec::default(), true, 12.0);
        assert_eq!(ctl.mode(), Mode::Competitive);
        assert!(
            ctl.mode_log().len() >= 2,
            "should have switched at least once"
        );
        // The switch must not have happened before a full FFT window existed.
        let first_switch = ctl.mode_log()[1].0;
        assert!(first_switch >= 4.95, "switched too early at {first_switch}");
        assert!(ctl.detector().last_verdict().unwrap().eta >= 2.0);
    }

    #[test]
    fn inelastic_cross_traffic_stays_in_delay_mode() {
        let ctl = drive_with_cross_traffic(NimbusSpec::default(), false, 12.0);
        assert_eq!(ctl.mode(), Mode::Delay);
        assert!(ctl.delay_mode_fraction(0.0, 12.0) > 0.95);
    }

    #[test]
    fn switch_never_measures_but_never_switches() {
        let never = NimbusSpec {
            switch: SwitchSpec::Never,
            ..NimbusSpec::default()
        };
        // The detector still calls the cross traffic elastic...
        let mut ctl = drive_with_cross_traffic(never, true, 12.0);
        assert!(ctl.detector().verdicts().iter().any(|v| v.elastic));
        assert_eq!(ctl.mode_log(), [(0.0, Mode::Delay)]);
        // ...and mark-rate cross-validation and a watcher following a
        // competitive pulser end at the same gate.
        ctl.switch_mode(Mode::Competitive);
        assert_eq!(ctl.mode(), Mode::Delay);
    }

    #[test]
    fn mode_switch_resets_competitive_rate_to_five_seconds_ago() {
        // Build a controller, keep the delay-mode rate high early and low
        // late; on the switch the competitive window must reflect the early
        // (5-seconds-ago) rate rather than the depressed current one.
        let mu = 96e6;
        let mut ctl = NimbusController::new(NimbusConfig::default_for_link(mu));
        ctl.on_packet_acked(&ack(0.0, 50.0));
        let pulse_probe = PulseGenerator::asymmetric(5.0, 0.25 * mu);
        let mut t = 0.0;
        while t < 11.0 {
            t += 0.01;
            ctl.on_packet_acked(&ack(t, 55.0));
            // Delay-mode base rate: pretend the flow sent 60 Mbit/s early,
            // 20 Mbit/s late (as if an elastic competitor was squeezing it).
            let s = if t < 6.0 { 60e6 } else { 20e6 };
            let z = 30e6 - 0.4 * pulse_probe.offset_at(t - 0.05);
            let r = mu * s / (s + z);
            ctl.on_report(&report(t, s, r, 0.06));
        }
        assert_eq!(ctl.mode(), Mode::Competitive);
        // The competitive controller was reinitialized from the rate history;
        // its window should correspond to something well above the late
        // 20 Mbit/s rate (20 Mbit/s over 55 ms RTT ≈ 92 packets).
        let cwnd = ctl.cwnd_packets();
        assert!(
            cwnd > 120.0,
            "cwnd {cwnd} suggests the reset used the depressed rate"
        );
    }

    #[test]
    fn delay_mode_fraction_accounting() {
        let mut ctl = NimbusController::new(NimbusConfig::default_for_link(48e6));
        // Fabricate a mode log: delay 0-10, competitive 10-20, delay 20-30.
        ctl.mode_log.push((10.0, Mode::Competitive));
        ctl.mode_log.push((20.0, Mode::Delay));
        assert!((ctl.delay_mode_fraction(0.0, 30.0) - 2.0 / 3.0).abs() < 1e-9);
        assert!((ctl.delay_mode_fraction(10.0, 20.0) - 0.0).abs() < 1e-9);
        assert!((ctl.delay_mode_fraction(20.0, 30.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn publisher_sees_mode_changes_and_estimates() {
        use std::sync::{Arc, Mutex};

        #[derive(Default)]
        struct Log {
            modes: Vec<(f64, Mode)>,
            estimates: usize,
            verdicts: usize,
        }
        struct Recorder(Arc<Mutex<Log>>);
        impl Publisher for Recorder {
            fn on_mode_change(&mut self, now_s: f64, mode: Mode) {
                self.0.lock().unwrap().modes.push((now_s, mode));
            }
            fn on_estimate(&mut self, _now_s: f64, mu_bps: f64, z_bps: f64) {
                assert!(mu_bps.is_finite() && z_bps.is_finite());
                self.0.lock().unwrap().estimates += 1;
            }
            fn on_verdict(&mut self, _now_s: f64, verdict: &DetectorVerdict) {
                assert!(
                    verdict.eta.is_finite() || verdict.eta.is_nan() || verdict.eta.is_infinite()
                );
                self.0.lock().unwrap().verdicts += 1;
            }
        }

        let log = Arc::new(Mutex::new(Log::default()));
        let mu = 96e6;
        let mut ctl = NimbusController::new(NimbusConfig::default_for_link(mu));
        ctl.set_publisher(Box::new(Recorder(Arc::clone(&log))));
        ctl.on_packet_acked(&ack(0.0, 60.0));
        let pulse_probe = PulseGenerator::asymmetric(5.0, 0.25 * mu);
        let mut t = 0.0;
        while t < 12.0 {
            t += 0.01;
            ctl.on_packet_acked(&ack(t, 60.0));
            let s = ctl.pacing_rate_bps(Time::from_secs_f64(t)).unwrap().min(mu);
            let z = 48e6 - 0.4 * pulse_probe.offset_at(t - 0.05);
            let r = mu * s / (s + z);
            ctl.on_report(&report(t, s, r, 0.06));
        }
        let log = log.lock().unwrap();
        // The publisher saw the same switches the mode log recorded (minus
        // the constructor's initial delay-mode entry).
        assert_eq!(ctl.mode_log().len(), log.modes.len() + 1);
        assert!(log.modes.iter().any(|&(_, m)| m == Mode::Competitive));
        assert!(log.estimates > 100, "estimates {}", log.estimates);
        assert!(log.verdicts > 0);
    }
}
