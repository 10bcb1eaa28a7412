//! The Nimbus mode-switching congestion controller (§4 of the paper): an
//! [`ElasticityProbe`] over two inner controllers, a **TCP-competitive** one
//! (Cubic, NewReno or DCTCP) for elastic cross traffic and a
//! **delay-controlling** one ([`BasicDelay`], Vegas or Copa's default mode)
//! for the rest.  The probe pulses whatever rate the active one wants; this
//! controller is the mode machine that turns the probe's evidence into a
//! mode, behind the `switch=never` gate.  The §4.1 details that matter for
//! fidelity:
//!
//! * The elasticity verdict is re-evaluated on every report from the spectrum
//!   of the last 5 seconds of ẑ samples (kept incrementally by the detector,
//!   one sample in per report), and the mode follows the verdict: into
//!   competitive mode at once, back only after a full FFT window without
//!   any elastic evidence.
//! * When switching into TCP-competitive mode, the competitive controller is
//!   (re)initialized to the rate the flow was sending **5 seconds ago** —
//!   the elastic competitor has spent the detection delay stealing bandwidth
//!   from the delay-mode rate, so resuming from the current rate would
//!   concede it.

use crate::basic_delay::BasicDelay;
use crate::cc::{AckEvent, CcKind, CongestionControl, CongestionEvent, LossEvent, PathInfo};
use crate::ccp::Report;
use crate::detector::{DetectorVerdict, ElasticityConfig, ElasticityDetector};
use crate::estimator::{CrossTrafficEstimator, MuSpec, ZFilterConfig};
use crate::probe::{ElasticityProbe, Evidence, MultiflowConfig, Role};
use nimbus_core_types::Time;
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;

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
    /// estimator's too when `spec.mu` is configured (see
    /// [`Self::nominal_mu_bps`]).
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

    /// The µ the initial pulse amplitude starts from: `mu_bps` when µ is
    /// configured, none when it is learned (a learned µ starts from nothing).
    pub fn nominal_mu_bps(&self) -> Option<f64> {
        (!self.spec.mu.is_learned()).then_some(self.mu_bps)
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
}

/// A `(time, mode)` entry in the mode log.
pub type ModeLogEntry = (f64, Mode);

/// Observer hook for the controller's internal telemetry (the s2n-quic
/// "publisher" shape): a host installs one with
/// [`NimbusController::set_publisher`] to stream mode transitions, µ̂/ẑ
/// estimates and detector verdicts.  The controller keeps no history of
/// verdicts or µ̂ samples itself — only a tally — so a host that wants the
/// series records them here.  Every method has an empty default, so
/// implementors subscribe only to what they need.  A publisher is `Any`,
/// so the host can read its own type back through
/// [`NimbusController::publisher`].
pub trait Publisher: Send + Any {
    /// The controller switched operating mode at `now_s`.
    fn on_mode_change(&mut self, _now_s: f64, _mode: Mode) {}

    /// A learned µ took this report's receive rate: µ̂ after it, bits/s
    /// (see [`CrossTrafficEstimator::mu_sample`]).  Never fires when µ is
    /// configured.
    fn on_mu_sample(&mut self, _now_s: f64, _mu_bps: f64) {}

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
    probe: ElasticityProbe,
    /// Smoothed RTT from ACKs (seconds), for rate/window conversions.
    srtt_s: f64,
    /// Rate history for the 5-seconds-ago reset: `(time_s, rate_bps)`.
    rate_history: VecDeque<(f64, f64)>,
    /// Current time as of the last report (seconds).
    now_s: f64,
    /// Log of mode switches: the one record that grows after warm-up, by
    /// one entry per switch.
    mode_log: Vec<ModeLogEntry>,
    /// Time of the most recent *elastic* evidence, for `heed`'s
    /// switch-back hysteresis (§4.1).
    last_elastic_s: f64,
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
        let path = PathInfo::new(cfg.mss);
        let competitive: Box<dyn CongestionControl> = match spec.competitive {
            TcpScheme::Cubic => CcKind::Cubic.build(&path),
            TcpScheme::NewReno => CcKind::NewReno.build(&path),
            TcpScheme::Dctcp => CcKind::Dctcp.build(&path),
        };
        let delay: DelayCtl = match spec.delay {
            DelayScheme::BasicDelay => DelayCtl::Basic(BasicDelay::new(cfg.mu_bps, cfg.mss)),
            DelayScheme::Vegas => DelayCtl::Other(CcKind::Vegas.build(&path)),
            DelayScheme::CopaDefault => DelayCtl::Other(CcKind::Copa.build(&path)),
        };
        let mut controller = NimbusController {
            probe: ElasticityProbe::new(&cfg),
            cfg,
            mode: Mode::Delay,
            competitive,
            delay,
            srtt_s: 0.0,
            rate_history: VecDeque::new(),
            now_s: 0.0,
            mode_log: Vec::new(),
            last_elastic_s: f64::NEG_INFINITY,
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

    /// The installed telemetry observer, if any; `as &dyn Any` downcasts it
    /// back to the host's type.
    pub fn publisher(&self) -> Option<&dyn Publisher> {
        self.publisher.as_deref()
    }

    /// The current operating mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The current pulser/watcher role.
    pub fn role(&self) -> Role {
        self.probe.role()
    }

    /// Every mode switch as `(time_s, new_mode)`.
    pub fn mode_log(&self) -> &[ModeLogEntry] {
        &self.mode_log
    }

    /// The elasticity detector (its window and verdict tally).
    pub fn detector(&self) -> &ElasticityDetector {
        self.probe.detector()
    }

    /// The cross-traffic estimator (µ̂ and the last window of ẑ).
    pub fn estimator(&self) -> &CrossTrafficEstimator {
        self.probe.estimator()
    }

    /// Fraction of time spent in delay mode between `t0_s` and `t1_s`
    /// (computed from the mode log).
    pub fn delay_mode_fraction(&self, t0_s: f64, t1_s: f64) -> f64 {
        if t1_s <= t0_s {
            return 0.0;
        }
        let mut total_delay = 0.0;
        // The mode in force from `start` on (the log is in time order).
        let (mut mode, mut start) = (Mode::Delay, t0_s);
        for &(t, next) in self.mode_log.iter().take_while(|&&(t, _)| t < t1_s) {
            if t > t0_s && mode == Mode::Delay {
                total_delay += t - start;
            }
            (mode, start) = (next, t.max(t0_s));
        }
        if mode == Mode::Delay {
            total_delay += t1_s - start;
        }
        total_delay / (t1_s - t0_s)
    }

    /// The bottleneck-rate estimate in use.
    pub fn mu_bps(&self) -> f64 {
        self.probe.estimator().mu_bps()
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

    /// Act on what the probe saw.  Elastic evidence flips the controller to
    /// competitive mode immediately (every tick in delay mode concedes
    /// throughput), but it only returns to delay mode after a full FFT
    /// window without any (§4.1) — a competitor briefly backing off (e.g.
    /// Cubic right after a loss) must not bounce Nimbus back into the mode
    /// it gets starved in.  A watcher follows the pulser it sees.
    fn heed(&mut self, evidence: Evidence) {
        match evidence {
            Evidence::Elastic => {
                self.last_elastic_s = self.now_s;
                self.switch_mode(Mode::Competitive);
            }
            Evidence::Inelastic => {
                if self.now_s - self.last_elastic_s >= self.cfg.elasticity.fft_duration_s {
                    self.switch_mode(Mode::Delay);
                }
            }
            Evidence::Pulser(mode) => self.switch_mode(mode),
        }
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
        let rtt = if self.srtt_s > 0.0 { self.srtt_s } else { 0.05 };
        if new_mode == Mode::Competitive {
            // §4.1: reset to the rate from one detection period (5 s) ago.
            let target = self.now_s - self.cfg.elasticity.fft_duration_s;
            let rate = match self.rate_history.iter().find(|&&(t, _)| t >= target) {
                Some(&(_, rate)) => rate,
                None => self.base_rate_bps(Time::from_secs_f64(self.now_s)),
            };
            self.competitive.reinitialize(rate, rtt, self.cfg.mss);
        } else {
            // Entering delay mode: start the delay controller from the rate
            // the flow is currently achieving so it does not spike the queue.
            let rate = self.base_rate_bps(Time::from_secs_f64(self.now_s));
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
        // 1. Feed the probe; BasicDelay takes ẑ before its own report.
        let (z_bps, marks) = self.probe.measure(report, self.mode);
        if let Some(p) = &mut self.publisher {
            let estimator = self.probe.estimator();
            if let Some(mu_bps) = estimator.mu_sample() {
                p.on_mu_sample(report.now_s, mu_bps);
            }
            if let Some(z_bps) = z_bps {
                p.on_estimate(report.now_s, estimator.mu_bps(), z_bps);
            }
        }
        if let Some(z_bps) = z_bps {
            if let DelayCtl::Basic(bd) = &mut self.delay {
                bd.set_cross_traffic_estimate(z_bps);
            }
        }
        // 2. Let both inner controllers see the report.
        self.competitive.on_report(report);
        self.delay.as_cc_mut().on_report(report);
        // 3. ECN marks that ẑ agrees with: a switch resets the competitive
        // controller from state the inner controllers just updated.
        if let Some(evidence) = marks {
            self.heed(evidence);
        }

        // 4. Record the rate history (for the 5-seconds-ago reset).
        let now_t = Time::from_secs_f64(report.now_s);
        let rate_now = self.base_rate_bps(now_t);
        self.rate_history.push_back((report.now_s, rate_now));
        let horizon = report.now_s - self.cfg.elasticity.fft_duration_s;
        while self
            .rate_history
            .pop_front_if(|&mut (t, _)| t < horizon)
            .is_some()
        {}

        // 5. The role step and the verdict, then the mode they call for.
        let (verdict, evidence) = self.probe.assess(report, rate_now);
        if let (Some(verdict), Some(p)) = (&verdict, &mut self.publisher) {
            p.on_verdict(report.now_s, verdict);
        }
        if let Some(evidence) = evidence {
            self.heed(evidence);
        }

        // 6. Keep the pulse and the detector aligned with the mode.
        self.probe.retune(self.mode);
    }

    fn cwnd_packets(&self) -> f64 {
        if let Some(cwnd) = self.poll_memo.cwnd_packets.get() {
            return cwnd;
        }
        // The active controller's window, with the probe's head-room.
        let rtt = if self.srtt_s > 0.0 { self.srtt_s } else { 0.1 };
        let base = self.base_rate_bps(Time::from_secs_f64(self.now_s));
        let inner = self.active().cwnd_packets();
        let cwnd = self
            .probe
            .window_packets(inner, base, self.mode, self.now_s, rtt);
        self.poll_memo.cwnd_packets.set(Some(cwnd));
        cwnd
    }

    fn pacing_rate_bps(&self, now: Time) -> Option<f64> {
        match self.poll_memo.pace.get() {
            Some((at, rate)) if at == now => Some(rate),
            _ => {
                let base = self.base_rate_bps(now);
                let rate = self.probe.pace_bps(base, self.mode, now.as_secs_f64());
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
pub(crate) mod tests {
    use super::*;
    use nimbus_dsp::PulseGenerator;

    pub(crate) fn report(now_s: f64, s_bps: f64, r_bps: f64, rtt_s: f64) -> Report {
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

    pub(crate) fn ack(now_s: f64, rtt_ms: f64) -> AckEvent {
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

    /// A controller running `spec` on a 96 Mbit/s link.
    fn nimbus(spec: NimbusSpec) -> NimbusController {
        NimbusController::new(NimbusConfig {
            spec,
            ..NimbusConfig::default_for_link(96e6)
        })
    }

    /// Drive a controller on a 96 Mbit/s link open-loop with reports
    /// synthesized from a given cross-traffic behaviour.
    fn drive_with_cross_traffic(
        mut ctl: NimbusController,
        elastic: bool,
        secs: f64,
    ) -> NimbusController {
        let mu = 96e6;
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
        let ctl = drive_with_cross_traffic(nimbus(NimbusSpec::default()), true, 12.0);
        assert_eq!(ctl.mode(), Mode::Competitive);
        assert!(
            ctl.mode_log().len() >= 2,
            "should have switched at least once"
        );
        // The switch must not have happened before a full FFT window existed.
        let first_switch = ctl.mode_log()[1].0;
        assert!(first_switch >= 4.95, "switched too early at {first_switch}");
        assert!(ctl.detector().verdicts().last().unwrap().eta >= 2.0);
    }

    #[test]
    fn inelastic_cross_traffic_stays_in_delay_mode() {
        let ctl = drive_with_cross_traffic(nimbus(NimbusSpec::default()), false, 12.0);
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
        let mut ctl = drive_with_cross_traffic(nimbus(never), true, 12.0);
        assert!(ctl.detector().verdicts().elastic() > 0);
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
    fn publisher_sees_estimate_verdict_and_mode_change_in_order() {
        use std::sync::{Arc, Mutex};

        /// Each event's time and rank (an estimate, a verdict, a mode change),
        /// and the new mode of a mode change.
        type Log = Vec<(f64, u8, Option<Mode>)>;
        struct Recorder(Arc<Mutex<Log>>);
        impl Publisher for Recorder {
            fn on_mode_change(&mut self, now_s: f64, mode: Mode) {
                self.0.lock().unwrap().push((now_s, 2, Some(mode)));
            }
            fn on_estimate(&mut self, now_s: f64, mu_bps: f64, z_bps: f64) {
                assert!(mu_bps.is_finite() && z_bps.is_finite());
                self.0.lock().unwrap().push((now_s, 0, None));
            }
            fn on_verdict(&mut self, now_s: f64, verdict: &DetectorVerdict) {
                assert_eq!(verdict.t_s, now_s);
                self.0.lock().unwrap().push((now_s, 1, None));
            }
        }

        let log = Arc::new(Mutex::new(Vec::new()));
        let mut ctl = nimbus(NimbusSpec::default());
        ctl.set_publisher(Box::new(Recorder(Arc::clone(&log))));
        let ctl = drive_with_cross_traffic(ctl, true, 12.0);
        let events = log.lock().unwrap();
        let count = |rank| events.iter().filter(|&&(_, r, _)| r == rank).count();
        // The publisher saw the switches the mode log recorded (minus the
        // constructor's initial delay-mode entry), every verdict, and many
        // estimates...
        let switches: Vec<_> = events
            .iter()
            .filter_map(|&(t, _, m)| Some((t, m?)))
            .collect();
        assert_eq!(ctl.mode_log()[1..], switches);
        assert_eq!(ctl.mode(), Mode::Competitive);
        assert_eq!(ctl.detector().verdicts().len(), count(1));
        assert!(count(0) > 100, "estimates {}", count(0));
        // ...and, within a report, the estimate before the verdict before the
        // mode change it caused.
        assert!(events
            .windows(2)
            .all(|pair| pair[0].0 < pair[1].0 || pair[0].1 <= pair[1].1));
    }

    #[test]
    fn a_learned_mu_is_published_on_every_report_with_a_receive_rate() {
        use std::sync::{Arc, Mutex};

        /// µ̂ samples and ẑ estimates, by report time.
        #[derive(Default)]
        struct Seen {
            mu: Vec<f64>,
            estimates: Vec<f64>,
        }
        struct Recorder(Arc<Mutex<Seen>>);
        impl Publisher for Recorder {
            fn on_mu_sample(&mut self, now_s: f64, _mu_bps: f64) {
                self.0.lock().unwrap().mu.push(now_s);
            }
            fn on_estimate(&mut self, now_s: f64, _mu_bps: f64, _z_bps: f64) {
                self.0.lock().unwrap().estimates.push(now_s);
            }
        }

        let seen = Arc::new(Mutex::new(Seen::default()));
        let mut ctl = nimbus(NimbusSpec {
            mu: MuSpec::Learned(crate::estimator::LearnedMuConfig::MaxFilter),
            ..NimbusSpec::default()
        });
        ctl.set_publisher(Box::new(Recorder(Arc::clone(&seen))));
        // A receive rate without a send rate feeds µ̂ but yields no ẑ; no
        // receive rate feeds neither.
        ctl.on_report(&report(0.01, 40e6, 48e6, 0.05));
        ctl.on_report(&report(0.02, 0.0, 48e6, 0.05));
        ctl.on_report(&report(0.03, 40e6, 0.0, 0.05));
        let seen = seen.lock().unwrap();
        assert_eq!(seen.mu, [0.01, 0.02]);
        assert_eq!(seen.estimates, [0.01]);
    }
}
