//! BBR (Cardwell et al. — the paper's reference \[5\]), modelled after v1.
//!
//! BBR estimates the bottleneck bandwidth `b` (max delivery rate over a
//! 10-RTT window) and the minimum RTT `d` (min over 10 s), paces at
//! `gain · b` and caps in-flight data at `2·b·d`.  ProbeBW cycles the pacing
//! gain through `[1.25, 0.75, 1, 1, 1, 1, 1, 1]`.
//!
//! In the paper BBR matters in two ways: as a baseline (Figs. 8, 9, 18, 19)
//! and as cross traffic whose elasticity classification depends on the buffer
//! size (Table 1, Appendix C): with deep buffers its in-flight cap makes it
//! ACK-clocked (elastic), with shallow buffers it is rate-limited (inelastic).

use super::{AckEvent, CongestionControl, CongestionEvent, LossEvent};
use crate::ccp::Report;
use nimbus_core_types::Time;
use nimbus_dsp::{WindowedMax, WindowedMin};

/// BBR's operating state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Startup,
    Drain,
    ProbeBw,
    ProbeRtt,
}

/// The pacing-gain cycle used in ProbeBW.
const GAIN_CYCLE: [f64; 8] = [1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
/// Startup gain (2/ln 2).
const STARTUP_GAIN: f64 = 2.885;

/// The BBR congestion controller.
#[derive(Debug)]
pub struct Bbr {
    state: State,
    mss: u32,
    /// Max delivery rate filter (bits/s) over ~10 RTTs.
    btl_bw: WindowedMax,
    /// Min RTT filter over 10 seconds.
    min_rtt: WindowedMin,
    /// Current pacing gain.
    pacing_gain: f64,
    cycle_index: usize,
    cycle_start: Time,
    /// Count of ProbeRTT entries, for diagnostics.
    probe_rtt_entries: u32,
    probe_rtt_done: Option<Time>,
    last_probe_rtt: Time,
    /// Full-pipe detection: bandwidth growth tracking in startup.
    full_bw: f64,
    full_bw_count: u32,
    /// Fallback window before any estimates exist.
    initial_cwnd: f64,
}

impl Bbr {
    /// A BBR controller for flows with the given MSS.
    pub fn new(mss: u32) -> Self {
        Bbr {
            state: State::Startup,
            mss,
            btl_bw: WindowedMax::new(3.0),
            min_rtt: WindowedMin::new(10.0),
            pacing_gain: STARTUP_GAIN,
            cycle_index: 0,
            cycle_start: Time::ZERO,
            probe_rtt_entries: 0,
            probe_rtt_done: None,
            last_probe_rtt: Time::ZERO,
            full_bw: 0.0,
            full_bw_count: 0,
            initial_cwnd: 10.0,
        }
    }

    fn btl_bw_bps(&self) -> f64 {
        self.btl_bw.max().unwrap_or(0.0)
    }

    fn min_rtt_s(&self) -> f64 {
        self.min_rtt.min().unwrap_or(0.1)
    }

    /// Bandwidth-delay product in packets.
    fn bdp_packets(&self) -> f64 {
        let bw = self.btl_bw_bps();
        if bw <= 0.0 {
            return self.initial_cwnd;
        }
        bw * self.min_rtt_s() / 8.0 / self.mss as f64
    }

    fn check_full_pipe(&mut self) {
        let bw = self.btl_bw_bps();
        if bw > self.full_bw * 1.25 {
            self.full_bw = bw;
            self.full_bw_count = 0;
        } else {
            self.full_bw_count += 1;
        }
    }

    fn advance_cycle(&mut self, now: Time) {
        let phase_len = Time::from_secs_f64(self.min_rtt_s().max(0.01));
        if now.saturating_sub(self.cycle_start) >= phase_len {
            self.cycle_start = now;
            self.cycle_index = (self.cycle_index + 1) % GAIN_CYCLE.len();
            self.pacing_gain = GAIN_CYCLE[self.cycle_index];
        }
    }
}

impl CongestionControl for Bbr {
    fn on_packet_acked(&mut self, ack: &AckEvent) {
        let now = ack.now;
        self.min_rtt
            .update(now.as_secs_f64(), ack.rtt.as_secs_f64());

        match self.state {
            State::Startup => {
                self.check_full_pipe();
                if self.full_bw_count >= 3 {
                    self.state = State::Drain;
                    self.pacing_gain = 1.0 / STARTUP_GAIN;
                }
            }
            State::Drain => {
                if (ack.in_flight_packets as f64) <= self.bdp_packets() {
                    self.state = State::ProbeBw;
                    self.cycle_start = now;
                    self.cycle_index = 2; // start in a neutral phase
                    self.pacing_gain = GAIN_CYCLE[self.cycle_index];
                }
            }
            State::ProbeBw => {
                self.advance_cycle(now);
                // Enter ProbeRTT if the min-RTT sample is stale (10 s).
                if now.saturating_sub(self.last_probe_rtt) > Time::from_secs_f64(10.0)
                    && self.min_rtt.min().is_none()
                {
                    self.state = State::ProbeRtt;
                    self.probe_rtt_entries += 1;
                    self.probe_rtt_done = Some(now + Time::from_millis(200));
                }
            }
            State::ProbeRtt => {
                if let Some(done) = self.probe_rtt_done {
                    if now >= done {
                        self.state = State::ProbeBw;
                        self.last_probe_rtt = now;
                        self.cycle_start = now;
                        self.pacing_gain = 1.0;
                    }
                }
            }
        }
    }

    fn on_packets_lost(&mut self, _loss: &LossEvent) {
        // BBR v1 largely ignores individual losses (no multiplicative decrease).
    }

    fn on_congestion_event(&mut self, event: &CongestionEvent) {
        match event {
            CongestionEvent::Rto { .. } => {
                // Conservative: restart the bandwidth estimate.
                self.full_bw = 0.0;
                self.full_bw_count = 0;
                self.state = State::Startup;
                self.pacing_gain = STARTUP_GAIN;
            }
            // BBR v1 famously ignores ECN; it paces to the model.
            CongestionEvent::EcnCe { .. } => {}
        }
    }

    fn on_report(&mut self, report: &Report) {
        // Delivery-rate sample for the bottleneck bandwidth filter.
        if report.recv_rate_bps > 0.0 {
            self.btl_bw.update(report.now_s, report.recv_rate_bps);
        }
    }

    fn cwnd_packets(&self) -> f64 {
        match self.state {
            State::ProbeRtt => 4.0,
            // The in-flight cap of 2·BDP ("cap on its in-flight data based on d").
            _ => (2.0 * self.bdp_packets()).max(self.initial_cwnd),
        }
    }

    fn pacing_rate_bps(&self, _now: Time) -> Option<f64> {
        let bw = self.btl_bw_bps();
        if bw <= 0.0 {
            // No estimate yet: pace fast enough to grow (startup behaviour is
            // then governed by the cwnd).
            None
        } else {
            Some(self.pacing_gain * bw)
        }
    }

    fn name(&self) -> &'static str {
        "bbr"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ack(now_ms: u64, rtt_ms: u64, in_flight: u64) -> AckEvent {
        AckEvent {
            now: Time::from_millis(now_ms),
            newly_acked_packets: 1,
            newly_acked_bytes: 1500,
            rtt: Time::from_millis(rtt_ms),
            min_rtt: Time::from_millis(rtt_ms),
            in_flight_packets: in_flight,
            mss: 1500,
        }
    }

    fn report(now_s: f64, recv_bps: f64) -> Report {
        Report {
            now_s,
            send_rate_bps: recv_bps,
            recv_rate_bps: recv_bps,
            acked_bytes: 0,
            lost_packets: 0,
            rtt_s: 0.05,
            min_rtt_s: 0.05,
            window_acks: 20,
            marked_packets: 0,
            marked_bytes: 0,
        }
    }

    #[test]
    fn starts_in_startup_with_high_gain() {
        let bbr = Bbr::new(1500);
        assert_eq!(bbr.state, State::Startup);
        assert!(bbr.pacing_gain > 2.0);
        assert!(bbr.pacing_rate_bps(Time::ZERO).is_none());
    }

    #[test]
    fn exits_startup_when_bandwidth_plateaus() {
        let mut bbr = Bbr::new(1500);
        // Bandwidth stops growing at 48 Mbit/s.
        for i in 0..20 {
            bbr.on_report(&report(i as f64 * 0.05, 48e6));
            bbr.on_packet_acked(&ack(i * 50, 50, 100));
        }
        assert_ne!(bbr.state, State::Startup);
    }

    #[test]
    fn reaches_probe_bw_and_cycles_gain() {
        let mut bbr = Bbr::new(1500);
        for i in 0..10 {
            bbr.on_report(&report(i as f64 * 0.05, 48e6));
            bbr.on_packet_acked(&ack(i * 50, 50, 300));
        }
        // Drain: in-flight drops to BDP (= 48e6*0.05/8/1500 = 200 pkts).
        for i in 10..20 {
            bbr.on_packet_acked(&ack(i * 50, 50, 150));
        }
        assert_eq!(bbr.state, State::ProbeBw);
        // Collect distinct pacing gains over several cycles.
        let mut gains = std::collections::BTreeSet::new();
        for i in 20..120 {
            bbr.on_packet_acked(&ack(i * 50, 50, 150));
            gains.insert((bbr.pacing_gain * 100.0) as i64);
        }
        assert!(gains.contains(&125), "should probe up, gains: {gains:?}");
        assert!(gains.contains(&75), "should drain, gains: {gains:?}");
        assert!(gains.contains(&100));
    }

    #[test]
    fn pacing_rate_tracks_bandwidth_estimate() {
        let mut bbr = Bbr::new(1500);
        bbr.on_report(&report(0.0, 96e6));
        bbr.on_packet_acked(&ack(50, 50, 10));
        let rate = bbr.pacing_rate_bps(Time::from_millis(50)).unwrap();
        assert!(rate > 96e6, "startup gain should exceed the estimate");
    }

    #[test]
    fn cwnd_caps_at_twice_bdp() {
        let mut bbr = Bbr::new(1500);
        bbr.on_report(&report(0.0, 96e6));
        bbr.on_packet_acked(&ack(50, 50, 10));
        // BDP = 96e6 * 0.05 / 8 / 1500 = 400 packets.
        assert!(
            (bbr.cwnd_packets() - 800.0).abs() < 10.0,
            "cwnd {}",
            bbr.cwnd_packets()
        );
    }

    #[test]
    fn loss_does_not_reduce_rate() {
        let mut bbr = Bbr::new(1500);
        bbr.on_report(&report(0.0, 50e6));
        bbr.on_packet_acked(&ack(50, 50, 10));
        let before = bbr.pacing_rate_bps(Time::from_millis(60));
        bbr.on_packets_lost(&LossEvent {
            now: Time::from_millis(60),
            lost_packets: 1,
            in_flight_packets: 100,
        });
        let after = bbr.pacing_rate_bps(Time::from_millis(60));
        assert_eq!(before, after);
    }

    #[test]
    fn timeout_restarts_startup() {
        let mut bbr = Bbr::new(1500);
        for i in 0..20 {
            bbr.on_report(&report(i as f64 * 0.05, 48e6));
            bbr.on_packet_acked(&ack(i * 50, 50, 100));
        }
        bbr.on_congestion_event(&CongestionEvent::Rto {
            now: Time::from_secs_f64(2.0),
        });
        assert_eq!(bbr.state, State::Startup);
    }
}
