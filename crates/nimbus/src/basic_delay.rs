//! BasicDelay: the paper's simple delay-controlling algorithm (Eq. 4, §4.1).
//!
//! On every measurement update the rate is set to
//!
//! ```text
//! rate ← S + α·(µ − S − ẑ) + (β·µ/x)·(x_min + d_t − x)
//! ```
//!
//! where `S` is the send rate over the last window, `ẑ` the cross-traffic
//! estimate, `x` the current RTT, `x_min` the minimum RTT and `d_t` a target
//! queueing delay.  The first correction chases the spare capacity
//! (`µ − S − ẑ`); the second holds the queueing delay near `d_t`, which keeps
//! the bottleneck busy — a non-empty queue is exactly what the cross-traffic
//! estimator needs (Eq. 1 is only valid while the link is busy).
//!
//! The gains and the delay target are the constants of the paper's
//! evaluation (§8.1); only µ differs from link to link.

use crate::cc::{AckEvent, CongestionControl, CongestionEvent, LossEvent};
use crate::ccp::Report;
use nimbus_core_types::Time;

/// Gain on the spare-capacity term of Eq. 4, `α` (§8.1: 0.8).
const ALPHA: f64 = 0.8;
/// Gain on the delay-error term of Eq. 4, `β` (§8.1: 0.5).
const BETA: f64 = 0.5;
/// Target queueing delay `d_t`, seconds (§8.1: 12.5 ms).
const TARGET_QUEUE_DELAY_S: f64 = 0.0125;
/// The rate never falls below `µ` over this, so the flow can always keep
/// probing (Eq. 1 needs a busy link to say anything about ẑ).
const MIN_RATE_DIVISOR: f64 = 50.0;

/// The BasicDelay controller.
///
/// It needs the cross-traffic estimate ẑ, which the Nimbus controller feeds
/// it via [`BasicDelay::set_cross_traffic_estimate`]; run standalone (without
/// Nimbus) it assumes ẑ = 0 and behaves like a pure delay-target controller.
#[derive(Debug, Clone)]
pub struct BasicDelay {
    /// Bottleneck link rate `µ`, bits/s.
    mu_bps: f64,
    /// The host's segment size, bytes, which turns the rate into a window.
    mss: u32,
    rate_bps: f64,
    z_bps: f64,
    min_rtt_s: f64,
    last_rtt_s: f64,
    last_send_rate_bps: f64,
}

impl BasicDelay {
    /// Create a BasicDelay controller for a link of rate `mu_bps` on a host
    /// sending `mss`-byte segments.
    pub fn new(mu_bps: f64, mss: u32) -> Self {
        let initial = (mu_bps / 10.0).max(mu_bps / MIN_RATE_DIVISOR);
        BasicDelay {
            mu_bps,
            mss,
            rate_bps: initial,
            z_bps: 0.0,
            min_rtt_s: f64::INFINITY,
            last_rtt_s: 0.0,
            last_send_rate_bps: initial,
        }
    }

    /// Floor on the rate, bits/s.
    fn min_rate_bps(&self) -> f64 {
        self.mu_bps / MIN_RATE_DIVISOR
    }

    /// Provide the latest cross-traffic estimate ẑ (bits/s).
    pub fn set_cross_traffic_estimate(&mut self, z_bps: f64) {
        self.z_bps = z_bps.max(0.0);
    }

    /// The current target rate (bits/s).
    pub fn current_rate_bps(&self) -> f64 {
        self.rate_bps
    }

    /// Directly set the rate, floored at the minimum (`reinitialize`).
    fn set_rate(&mut self, rate_bps: f64) {
        self.rate_bps = rate_bps.max(self.min_rate_bps());
    }

    /// Apply Eq. 4 given the latest measurements.
    fn update_rate(&mut self, send_rate_bps: f64, rtt_s: f64) {
        if rtt_s <= 0.0 || !self.min_rtt_s.is_finite() {
            return;
        }
        let s = if send_rate_bps > 0.0 {
            send_rate_bps
        } else {
            self.rate_bps
        };
        let spare = self.mu_bps - s - self.z_bps;
        let delay_err = self.min_rtt_s + TARGET_QUEUE_DELAY_S - rtt_s;
        let rate = s + ALPHA * spare + BETA * self.mu_bps / rtt_s * delay_err;
        self.rate_bps = rate.clamp(self.min_rate_bps(), self.mu_bps * 1.05);
    }
}

impl CongestionControl for BasicDelay {
    fn on_packet_acked(&mut self, ack: &AckEvent) {
        let rtt = ack.rtt.as_secs_f64();
        self.last_rtt_s = rtt;
        self.min_rtt_s = self.min_rtt_s.min(rtt);
    }

    fn on_packets_lost(&mut self, _loss: &LossEvent) {
        // Delay is the primary signal; on loss just ease off multiplicatively.
        self.rate_bps = (self.rate_bps * 0.9).max(self.min_rate_bps());
    }

    fn on_congestion_event(&mut self, event: &CongestionEvent) {
        match event {
            CongestionEvent::Rto { .. } => {
                self.rate_bps = self.min_rate_bps();
            }
            // Pure delay controller: the RTT term is its congestion signal.
            CongestionEvent::EcnCe { .. } => {}
        }
    }

    fn on_report(&mut self, report: &Report) {
        if report.rtt_s > 0.0 {
            self.last_rtt_s = report.rtt_s;
            self.min_rtt_s = self.min_rtt_s.min(report.rtt_s);
        }
        if report.send_rate_bps > 0.0 {
            self.last_send_rate_bps = report.send_rate_bps;
        }
        let rtt = if report.rtt_s > 0.0 {
            report.rtt_s
        } else {
            self.last_rtt_s
        };
        if rtt > 0.0 {
            self.update_rate(self.last_send_rate_bps, rtt);
        }
    }

    fn cwnd_packets(&self) -> f64 {
        // A generous cap of 2·rate·RTT keeps the window from limiting the
        // paced rate while still bounding the worst case.
        let rtt = if self.last_rtt_s > 0.0 {
            self.last_rtt_s
        } else {
            0.1
        };
        (2.0 * self.rate_bps * rtt / 8.0 / self.mss as f64).max(4.0)
    }

    fn pacing_rate_bps(&self, _now: Time) -> Option<f64> {
        Some(self.rate_bps)
    }

    fn reinitialize(&mut self, rate_bps: f64, _rtt_s: f64, _mss: u32) {
        self.set_rate(rate_bps);
    }

    fn name(&self) -> &'static str {
        "basic-delay"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(now_s: f64, s_bps: f64, rtt_s: f64) -> Report {
        Report {
            now_s,
            send_rate_bps: s_bps,
            recv_rate_bps: s_bps,
            acked_bytes: 0,
            lost_packets: 0,
            rtt_s,
            min_rtt_s: 0.05,
            window_acks: 30,
            marked_packets: 0,
            marked_bytes: 0,
        }
    }

    fn ack(rtt_ms: f64) -> AckEvent {
        AckEvent {
            now: Time::from_millis_f64(100.0),
            newly_acked_packets: 1,
            newly_acked_bytes: 1500,
            rtt: Time::from_millis_f64(rtt_ms),
            min_rtt: Time::from_millis_f64(50.0),
            in_flight_packets: 10,
            mss: 1500,
        }
    }

    #[test]
    fn rate_climbs_towards_spare_capacity() {
        let mut cc = BasicDelay::new(96e6, 1500);
        cc.on_packet_acked(&ack(50.0));
        // No cross traffic, RTT at the minimum: the rate should converge to ~µ.
        let mut s = cc.current_rate_bps();
        for i in 0..200 {
            cc.on_report(&report(i as f64 * 0.01, s, 0.0505));
            s = cc.current_rate_bps();
        }
        assert!(s > 90e6, "rate {s}");
    }

    #[test]
    fn rate_leaves_room_for_cross_traffic() {
        let mut cc = BasicDelay::new(96e6, 1500);
        cc.on_packet_acked(&ack(50.0));
        cc.set_cross_traffic_estimate(48e6);
        // Hold the RTT exactly at x_min + d_t so the delay term vanishes and
        // the spare-capacity term alone sets the equilibrium: rate → µ − z.
        let mut s = cc.current_rate_bps();
        for i in 0..300 {
            cc.on_report(&report(i as f64 * 0.01, s, 0.0625));
            s = cc.current_rate_bps();
        }
        assert!((s - 48e6).abs() < 8e6, "rate {s} should hover near µ − z");
    }

    #[test]
    fn high_delay_pushes_the_rate_down() {
        let mut cc = BasicDelay::new(96e6, 1500);
        cc.on_packet_acked(&ack(50.0));
        cc.set_rate(90e6);
        // RTT far above min + target: strong negative correction.
        cc.on_report(&report(0.0, 90e6, 0.120));
        assert!(cc.current_rate_bps() < 90e6);
    }

    #[test]
    fn queue_is_kept_slightly_full_not_empty() {
        // At exactly x = x_min + d_t the delay term vanishes; below the target
        // the correction is positive (keep the queue from emptying).
        let mut cc = BasicDelay::new(96e6, 1500);
        cc.on_packet_acked(&ack(50.0));
        cc.set_cross_traffic_estimate(96e6 - 40e6); // spare ≈ 0 when S = 40M
        cc.on_report(&report(0.0, 40e6, 0.050)); // queue empty: x == x_min
        assert!(
            cc.current_rate_bps() > 40e6,
            "should push the rate up to build the target queue"
        );
    }

    #[test]
    fn loss_and_timeout_back_off() {
        let mut cc = BasicDelay::new(48e6, 1500);
        cc.set_rate(40e6);
        cc.on_packets_lost(&LossEvent {
            now: Time::ZERO,
            lost_packets: 1,
            in_flight_packets: 10,
        });
        assert!(cc.current_rate_bps() < 40e6);
        cc.on_congestion_event(&CongestionEvent::Rto { now: Time::ZERO });
        assert!(cc.current_rate_bps() <= 48e6 / 50.0 + 1.0);
    }

    #[test]
    fn rate_is_always_within_physical_bounds() {
        let mut cc = BasicDelay::new(96e6, 1500);
        cc.on_packet_acked(&ack(50.0));
        cc.set_cross_traffic_estimate(200e6); // absurd estimate
        cc.on_report(&report(0.0, 96e6, 0.3));
        assert!(cc.current_rate_bps() >= cc.min_rate_bps());
        assert!(cc.current_rate_bps() <= 96e6 * 1.05);
        assert!(cc.pacing_rate_bps(Time::ZERO).unwrap() > 0.0);
        assert!(cc.cwnd_packets() >= 4.0);
    }

    #[test]
    fn window_counts_the_hosts_segments() {
        // Same rate and RTT: 9000-byte segments make a sixth of the window.
        let window = |mss| {
            let mut cc = BasicDelay::new(96e6, mss);
            cc.on_packet_acked(&ack(50.0));
            cc.cwnd_packets()
        };
        assert!((window(1500) - 80.0).abs() < 1e-9, "{}", window(1500));
        assert!((window(9000) - window(1500) / 6.0).abs() < 1e-9);
    }

    #[test]
    fn reinitialize_sets_the_rate() {
        let mut cc = BasicDelay::new(96e6, 1500);
        cc.reinitialize(30e6, 0.05, 1500);
        assert!((cc.current_rate_bps() - 30e6).abs() < 1.0);
    }
}
