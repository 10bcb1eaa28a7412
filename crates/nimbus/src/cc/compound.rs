//! Compound TCP (Tan et al. — the paper's references [28, 29]).
//!
//! Compound maintains a loss-based window (Reno-style `cwnd`) and a
//! delay-based window (`dwnd`); the send window is their sum.  The delay
//! window grows aggressively (binomially) when the estimated queue is small
//! and shrinks when queueing exceeds a threshold γ, but the loss window keeps
//! Compound TCP-competitive.  The paper uses Compound as a baseline that
//! "ramps up its rate quickly when it detects low delays, but behaves like
//! TCP Reno otherwise" (Fig. 8) and therefore still bufferbloats.

use super::{AckEvent, CongestionControl, CongestionEvent, LossEvent};

/// Compound's delay threshold γ in packets.
const GAMMA: f64 = 30.0;
/// Binomial increase parameters (k = 0.75, α = 0.125 per the paper's draft).
const ALPHA: f64 = 0.125;
const K: f64 = 0.75;
/// Multiplicative decrease for the delay window on congestion.
const ETA: f64 = 0.5;

/// Compound TCP.
#[derive(Debug, Clone)]
pub struct Compound {
    /// Loss-based (Reno) window.
    cwnd: f64,
    /// Delay-based window.
    dwnd: f64,
    ssthresh: f64,
}

impl Compound {
    /// A Compound controller with an initial window of 10 segments.
    pub fn new() -> Self {
        Compound {
            cwnd: 10.0,
            dwnd: 0.0,
            ssthresh: f64::INFINITY,
        }
    }
}

impl Default for Compound {
    fn default() -> Self {
        Self::new()
    }
}

impl CongestionControl for Compound {
    fn on_packet_acked(&mut self, ack: &AckEvent) {
        let acked = ack.newly_acked_packets as f64;
        let total = self.cwnd + self.dwnd;
        // Reno component.
        if self.cwnd < self.ssthresh {
            self.cwnd += acked;
        } else {
            self.cwnd += acked / total.max(1.0);
        }
        // Delay component: estimate queued packets like Vegas.
        let rtt = ack.rtt.as_secs_f64();
        let base = ack.min_rtt.as_secs_f64();
        if rtt <= 0.0 || base <= 0.0 {
            return;
        }
        let expected = total / base;
        let actual = total / rtt;
        let diff = (expected - actual) * base;
        if diff < GAMMA {
            // Binomial increase: dwnd += α·win^k per RTT (scaled per ACK).
            self.dwnd += (ALPHA * total.powf(K) - 1.0).max(0.0) * acked / total.max(1.0);
        } else {
            // Back off the delay window when queueing builds.
            self.dwnd = (self.dwnd - ETA * diff).max(0.0);
        }
    }

    fn on_packets_lost(&mut self, _loss: &LossEvent) {
        let total = self.cwnd + self.dwnd;
        self.ssthresh = (total / 2.0).max(2.0);
        self.cwnd = (self.cwnd / 2.0).max(2.0);
        self.dwnd = (total * (1.0 - ETA) - self.cwnd).max(0.0);
    }

    fn on_congestion_event(&mut self, event: &CongestionEvent) {
        match event {
            CongestionEvent::Rto { .. } => {
                self.ssthresh = ((self.cwnd + self.dwnd) / 2.0).max(2.0);
                self.cwnd = 2.0;
                self.dwnd = 0.0;
            }
            // The delay window drains on its own when queues build; the loss
            // window reacts to losses, not marks.
            CongestionEvent::EcnCe { .. } => {}
        }
    }

    fn cwnd_packets(&self) -> f64 {
        (self.cwnd + self.dwnd).max(1.0)
    }

    fn name(&self) -> &'static str {
        "compound"
    }

    fn reads_reports(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimbus_core_types::Time;

    fn ack(now_ms: u64, rtt_ms: u64, min_rtt_ms: u64) -> AckEvent {
        AckEvent {
            now: Time::from_millis(now_ms),
            newly_acked_packets: 1,
            newly_acked_bytes: 1500,
            rtt: Time::from_millis(rtt_ms),
            min_rtt: Time::from_millis(min_rtt_ms),
            in_flight_packets: 10,
            mss: 1500,
        }
    }

    #[test]
    fn delay_window_grows_fast_when_delays_are_low() {
        let mut cc = Compound::new();
        cc.ssthresh = 10.0; // out of slow start
        let mut now = 0;
        for _ in 0..500 {
            now += 5;
            cc.on_packet_acked(&ack(now, 50, 50));
        }
        assert!(cc.dwnd > 5.0, "dwnd {}", cc.dwnd);
        // Total window grows noticeably faster than pure Reno would
        // (Reno adds ~1 per RTT = ~50 packets in 500 acks of window >= 10).
        assert!(cc.cwnd_packets() > 30.0);
    }

    #[test]
    fn delay_window_retreats_under_queueing() {
        let mut cc = Compound::new();
        cc.ssthresh = 10.0;
        cc.dwnd = 50.0;
        cc.cwnd = 50.0;
        let mut now = 0;
        // Heavy queueing: RTT at 3x the base.
        for _ in 0..200 {
            now += 5;
            cc.on_packet_acked(&ack(now, 150, 50));
        }
        assert!(cc.dwnd < 1.0, "dwnd {}", cc.dwnd);
        // But the loss window keeps it TCP-like (still grows slowly).
        assert!(cc.cwnd >= 50.0);
    }

    #[test]
    fn loss_halves_total_window() {
        let mut cc = Compound::new();
        cc.cwnd = 40.0;
        cc.dwnd = 40.0;
        cc.on_packets_lost(&LossEvent {
            now: Time::ZERO,
            lost_packets: 1,
            in_flight_packets: 80,
        });
        let total = cc.cwnd_packets();
        assert!((total - 40.0).abs() < 2.0, "total {total}");
    }

    #[test]
    fn timeout_collapses_both_windows() {
        let mut cc = Compound::new();
        cc.cwnd = 40.0;
        cc.dwnd = 40.0;
        cc.on_congestion_event(&CongestionEvent::Rto { now: Time::ZERO });
        assert!(cc.cwnd_packets() <= 2.0);
        assert_eq!(cc.dwnd, 0.0);
    }

    #[test]
    fn pure_ack_clocked_no_pacing() {
        let cc = Compound::new();
        assert!(cc.pacing_rate_bps(Time::ZERO).is_none());
    }
}
