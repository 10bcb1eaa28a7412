//! TCP NewReno congestion control.
//!
//! The classic AIMD loss-based controller: slow start to `ssthresh`,
//! congestion avoidance adding one segment per RTT, halving on fast
//! retransmit, collapsing to one segment on timeout.  NewReno is both one of
//! the paper's TCP-competitive-mode options and the elastic cross traffic of
//! several robustness experiments (Fig. 14 right, Fig. 24).

use super::{AckEvent, CongestionControl, CongestionEvent, LossEvent};

/// TCP NewReno.
#[derive(Debug, Clone)]
pub struct NewReno {
    pub(crate) cwnd: f64,
    pub(crate) ssthresh: f64,
    initial_cwnd: f64,
    /// ACKed packets still to count before another classic-ECN reaction is
    /// allowed (RFC 3168: at most one multiplicative decrease per window).
    ce_acks_to_reopen: f64,
}

impl NewReno {
    /// A NewReno controller with the Linux-default initial window of 10 segments.
    pub fn new() -> Self {
        NewReno {
            cwnd: 10.0,
            ssthresh: f64::INFINITY,
            initial_cwnd: 10.0,
            ce_acks_to_reopen: 0.0,
        }
    }

    /// Whether the controller is currently in slow start.
    pub fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }
}

impl Default for NewReno {
    fn default() -> Self {
        Self::new()
    }
}

impl CongestionControl for NewReno {
    fn on_packet_acked(&mut self, ack: &AckEvent) {
        let acked = ack.newly_acked_packets as f64;
        self.ce_acks_to_reopen = (self.ce_acks_to_reopen - acked).max(0.0);
        if self.in_slow_start() {
            self.cwnd += acked;
            if self.cwnd > self.ssthresh {
                self.cwnd = self.ssthresh;
            }
        } else {
            // Congestion avoidance: +1 segment per window's worth of ACKs.
            self.cwnd += acked / self.cwnd;
        }
    }

    fn on_packets_lost(&mut self, _loss: &LossEvent) {
        self.ssthresh = (self.cwnd / 2.0).max(2.0);
        self.cwnd = self.ssthresh;
    }

    fn on_congestion_event(&mut self, event: &CongestionEvent) {
        match event {
            CongestionEvent::Rto { .. } => {
                self.ssthresh = (self.cwnd / 2.0).max(2.0);
                self.cwnd = self.initial_cwnd.min(self.ssthresh).max(1.0);
            }
            CongestionEvent::EcnCe { .. } => {
                // Classic ECN (RFC 3168): halve like a fast retransmit, but
                // at most once per window of ACKs however many CE echoes the
                // window carried.
                if self.ce_acks_to_reopen <= 0.0 {
                    self.ssthresh = (self.cwnd / 2.0).max(2.0);
                    self.cwnd = self.ssthresh;
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
    }

    fn name(&self) -> &'static str {
        "newreno"
    }

    fn reads_reports(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimbus_core_types::Time;

    fn ack(n: u64, cwnd: f64) -> AckEvent {
        AckEvent {
            now: Time::from_millis(100),
            newly_acked_packets: n,
            newly_acked_bytes: n * 1500,
            rtt: Time::from_millis(50),
            min_rtt: Time::from_millis(50),
            in_flight_packets: cwnd as u64,
            mss: 1500,
        }
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut cc = NewReno::new();
        assert!(cc.in_slow_start());
        let start = cc.cwnd_packets();
        // One window's worth of ACKs (each acking 1 packet) doubles cwnd.
        for _ in 0..(start as u64) {
            cc.on_packet_acked(&ack(1, start));
        }
        assert!((cc.cwnd_packets() - start * 2.0).abs() < 1e-9);
    }

    #[test]
    fn congestion_avoidance_adds_one_per_rtt() {
        let mut cc = NewReno::new();
        cc.ssthresh = 10.0; // force CA at cwnd = 10
        let w = cc.cwnd_packets();
        for _ in 0..(w as u64) {
            cc.on_packet_acked(&ack(1, w));
        }
        assert!((cc.cwnd_packets() - (w + 1.0)).abs() < 0.1);
    }

    #[test]
    fn loss_halves_and_timeout_resets() {
        let mut cc = NewReno::new();
        cc.cwnd = 64.0;
        cc.ssthresh = 32.0;
        cc.on_packets_lost(&LossEvent {
            now: Time::ZERO,
            lost_packets: 1,
            in_flight_packets: 64,
        });
        assert!((cc.cwnd_packets() - 32.0).abs() < 1e-9);
        assert!((cc.ssthresh - 32.0).abs() < 1e-9);
        cc.on_congestion_event(&CongestionEvent::Rto { now: Time::ZERO });
        assert!(cc.cwnd_packets() <= 10.0);
    }

    #[test]
    fn cwnd_never_below_one() {
        let mut cc = NewReno::new();
        for _ in 0..20 {
            cc.on_packets_lost(&LossEvent {
                now: Time::ZERO,
                lost_packets: 1,
                in_flight_packets: 2,
            });
            cc.on_congestion_event(&CongestionEvent::Rto { now: Time::ZERO });
        }
        assert!(cc.cwnd_packets() >= 1.0);
    }

    #[test]
    fn ce_halves_at_most_once_per_window() {
        let mut cc = NewReno::new();
        cc.cwnd = 64.0;
        cc.ssthresh = 32.0;
        let ce = CongestionEvent::EcnCe {
            now: Time::ZERO,
            marked_bytes: 1500,
        };
        // A storm of CE echoes within one window halves exactly once.
        for _ in 0..50 {
            cc.on_congestion_event(&ce);
        }
        assert!((cc.cwnd_packets() - 32.0).abs() < 1e-9, "one halving");
        // After a full window of ACKs the gate reopens.
        for _ in 0..32 {
            cc.on_packet_acked(&ack(1, 32.0));
        }
        cc.on_congestion_event(&ce);
        assert!(cc.cwnd_packets() < 20.0, "second halving after a window");
    }

    #[test]
    fn no_pacing_rate_pure_ack_clocking() {
        let cc = NewReno::new();
        assert!(cc.pacing_rate_bps(Time::ZERO).is_none());
    }
}
