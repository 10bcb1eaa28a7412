//! TCP Cubic congestion control (Ha, Rhee, Xu — the paper's reference \[12\]).
//!
//! Cubic is the paper's default TCP-competitive mode and its canonical
//! example of elastic, buffer-filling cross traffic.  The window grows as
//! `W(t) = C·(t − K)³ + W_max` after a loss, with the TCP-friendly region
//! ensuring it is never slower than Reno.

use super::{AckEvent, CongestionControl, CongestionEvent, LossEvent};
use nimbus_core_types::Time;

/// Cubic's scaling constant (RFC 8312).
const C: f64 = 0.4;
/// Multiplicative decrease factor.
const BETA: f64 = 0.7;

/// TCP Cubic.
#[derive(Debug, Clone)]
pub struct Cubic {
    cwnd: f64,
    ssthresh: f64,
    /// Window size just before the last reduction.
    w_max: f64,
    /// Time of the last congestion event.
    epoch_start: Option<Time>,
    /// Time offset at which the cubic curve crosses `w_max`.
    k: f64,
    /// Estimate of what Reno's window would be (TCP-friendly region).
    w_est: f64,
    initial_cwnd: f64,
    /// ACKed packets still to count before another classic-ECN reaction is
    /// allowed (RFC 3168: at most one multiplicative decrease per window).
    ce_acks_to_reopen: f64,
}

impl Cubic {
    /// A Cubic controller with an initial window of 10 segments.
    pub fn new() -> Self {
        Cubic {
            cwnd: 10.0,
            ssthresh: f64::INFINITY,
            w_max: 0.0,
            epoch_start: None,
            k: 0.0,
            w_est: 0.0,
            initial_cwnd: 10.0,
            ce_acks_to_reopen: 0.0,
        }
    }

    /// Whether the controller is currently in slow start.
    pub fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }

    fn enter_epoch(&mut self, now: Time) {
        self.epoch_start = Some(now);
        if self.cwnd < self.w_max {
            self.k = ((self.w_max - self.cwnd) / C).cbrt();
        } else {
            self.k = 0.0;
            self.w_max = self.cwnd;
        }
        self.w_est = self.cwnd;
    }

    fn cubic_window(&self, t_since_epoch: f64) -> f64 {
        C * (t_since_epoch - self.k).powi(3) + self.w_max
    }
}

impl Default for Cubic {
    fn default() -> Self {
        Self::new()
    }
}

impl CongestionControl for Cubic {
    fn on_packet_acked(&mut self, ack: &AckEvent) {
        let acked = ack.newly_acked_packets as f64;
        self.ce_acks_to_reopen = (self.ce_acks_to_reopen - acked).max(0.0);
        if self.in_slow_start() {
            self.cwnd += acked;
            if self.cwnd > self.ssthresh {
                self.cwnd = self.ssthresh;
            }
            return;
        }
        if self.epoch_start.is_none() {
            self.enter_epoch(ack.now);
        }
        let t = ack
            .now
            .saturating_sub(self.epoch_start.unwrap())
            .as_secs_f64();
        let rtt = ack.rtt.as_secs_f64().max(1e-4);
        // Target one RTT ahead on the cubic curve (RFC 8312 §4.1).
        let target = self.cubic_window(t + rtt);
        if target > self.cwnd {
            self.cwnd += (target - self.cwnd) / self.cwnd * acked;
        } else {
            // Slow growth when above the curve.
            self.cwnd += 0.01 * acked / self.cwnd;
        }
        // TCP-friendly region: emulate Reno with beta-adjusted AIMD.
        self.w_est += 3.0 * (1.0 - BETA) / (1.0 + BETA) * acked / self.cwnd;
        if self.w_est > self.cwnd {
            self.cwnd = self.w_est;
        }
    }

    fn on_packets_lost(&mut self, _loss: &LossEvent) {
        self.w_max = self.cwnd;
        self.ssthresh = (self.cwnd * BETA).max(2.0);
        self.cwnd = self.ssthresh;
        self.epoch_start = None;
    }

    fn on_congestion_event(&mut self, event: &CongestionEvent) {
        match event {
            CongestionEvent::Rto { .. } => {
                self.w_max = self.cwnd;
                self.ssthresh = (self.cwnd * BETA).max(2.0);
                self.cwnd = self.initial_cwnd.min(self.ssthresh).max(1.0);
                self.epoch_start = None;
            }
            CongestionEvent::EcnCe { .. } => {
                // Classic ECN: the fast-retransmit decrease (β, new epoch),
                // at most once per window of ACKs.
                if self.ce_acks_to_reopen <= 0.0 {
                    self.w_max = self.cwnd;
                    self.ssthresh = (self.cwnd * BETA).max(2.0);
                    self.cwnd = self.ssthresh;
                    self.epoch_start = None;
                    self.ce_acks_to_reopen = self.cwnd;
                }
            }
        }
    }

    fn cwnd_packets(&self) -> f64 {
        self.cwnd.max(1.0)
    }

    fn reinitialize(&mut self, rate_bps: f64, rtt_s: f64, mss: u32) {
        let cwnd = (rate_bps * rtt_s / 8.0 / mss as f64).max(2.0);
        self.cwnd = cwnd;
        self.ssthresh = cwnd;
        self.w_max = cwnd;
        self.epoch_start = None;
    }

    fn name(&self) -> &'static str {
        "cubic"
    }

    fn reads_reports(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ack_at(now_ms: u64, rtt_ms: u64) -> AckEvent {
        AckEvent {
            now: Time::from_millis(now_ms),
            newly_acked_packets: 1,
            newly_acked_bytes: 1500,
            rtt: Time::from_millis(rtt_ms),
            min_rtt: Time::from_millis(rtt_ms),
            in_flight_packets: 10,
            mss: 1500,
        }
    }

    #[test]
    fn slow_start_grows_quickly() {
        let mut cc = Cubic::new();
        let w0 = cc.cwnd_packets();
        for i in 0..10 {
            cc.on_packet_acked(&ack_at(i * 5, 50));
        }
        assert!(cc.cwnd_packets() >= w0 + 10.0 - 1e-9);
    }

    #[test]
    fn loss_reduces_window_by_beta() {
        let mut cc = Cubic::new();
        cc.cwnd = 100.0;
        cc.ssthresh = 50.0;
        cc.on_packets_lost(&LossEvent {
            now: Time::from_millis(100),
            lost_packets: 1,
            in_flight_packets: 100,
        });
        assert!((cc.cwnd_packets() - 70.0).abs() < 1e-9);
    }

    #[test]
    fn cubic_window_recovers_towards_wmax_and_beyond() {
        let mut cc = Cubic::new();
        cc.cwnd = 100.0;
        cc.ssthresh = 50.0;
        cc.on_packets_lost(&LossEvent {
            now: Time::from_millis(0),
            lost_packets: 1,
            in_flight_packets: 100,
        });
        let after_loss = cc.cwnd_packets();
        // Feed ACKs steadily for 20 simulated seconds.
        let mut now_ms = 0;
        for _ in 0..4000 {
            now_ms += 5;
            cc.on_packet_acked(&ack_at(now_ms, 50));
        }
        // Window should have recovered past w_max (concave then convex growth).
        assert!(cc.cwnd_packets() > after_loss);
        assert!(cc.cwnd_packets() > 100.0, "cwnd {}", cc.cwnd_packets());
    }

    #[test]
    fn growth_is_slow_near_wmax_fast_far_from_it() {
        // Concavity: the per-second growth right after the loss is larger
        // than the per-second growth around the plateau time K, where the
        // cubic curve flattens out at w_max.
        let mut cc = Cubic::new();
        cc.cwnd = 200.0;
        cc.ssthresh = 100.0;
        cc.on_packets_lost(&LossEvent {
            now: Time::ZERO,
            lost_packets: 1,
            in_flight_packets: 200,
        });
        // After the loss cwnd = 140, w_max = 200, so K = ((200-140)/0.4)^(1/3) ≈ 5.3 s.
        let mut now_ms: u64 = 0;
        let mut cwnd_at = std::collections::BTreeMap::new();
        for _ in 0..2000 {
            now_ms += 5;
            cc.on_packet_acked(&ack_at(now_ms, 50));
            cwnd_at.insert(now_ms, cc.cwnd_packets());
        }
        let growth = |from_ms: u64, to_ms: u64| cwnd_at[&to_ms] - cwnd_at[&from_ms];
        let early = growth(5, 1000);
        let plateau = growth(4800, 5800);
        assert!(
            early > plateau * 2.0,
            "early {early} should exceed plateau growth {plateau}"
        );
    }

    #[test]
    fn timeout_collapses_window() {
        let mut cc = Cubic::new();
        cc.cwnd = 80.0;
        cc.ssthresh = 40.0;
        cc.on_congestion_event(&CongestionEvent::Rto { now: Time::ZERO });
        assert!(cc.cwnd_packets() <= 10.0);
    }

    #[test]
    fn ce_cuts_by_beta_at_most_once_per_window() {
        let mut cc = Cubic::new();
        cc.cwnd = 100.0;
        cc.ssthresh = 50.0;
        let ce = CongestionEvent::EcnCe {
            now: Time::ZERO,
            marked_bytes: 1500,
        };
        for _ in 0..50 {
            cc.on_congestion_event(&ce);
        }
        assert!((cc.cwnd_packets() - 70.0).abs() < 1e-9, "one beta cut");
        for _ in 0..70 {
            cc.on_packet_acked(&ack_at(100, 50));
        }
        cc.on_congestion_event(&ce);
        assert!(cc.cwnd_packets() < 55.0, "gate reopens after a window");
    }

    #[test]
    fn window_never_below_one() {
        let mut cc = Cubic::new();
        for _ in 0..50 {
            cc.on_congestion_event(&CongestionEvent::Rto { now: Time::ZERO });
            cc.on_packets_lost(&LossEvent {
                now: Time::ZERO,
                lost_packets: 1,
                in_flight_packets: 1,
            });
        }
        assert!(cc.cwnd_packets() >= 1.0);
    }
}
