//! TCP Vegas (Brakmo & Peterson — the paper's reference \[3\]).
//!
//! Vegas estimates the number of its own packets sitting in the bottleneck
//! queue as `diff = cwnd · (1 − baseRTT/RTT)` and holds it between `α` and
//! `β` packets.  It is one of the paper's delay-control-mode options and the
//! canonical example of a scheme that is starved by loss-based cross traffic
//! (Figs. 8, 9, 11).

use super::{AckEvent, CongestionControl, CongestionEvent, LossEvent};
use nimbus_core_types::Time;

/// Lower bound on queued packets (Vegas's standard `α`).
const ALPHA: f64 = 2.0;
/// Upper bound on queued packets (Vegas's standard `β`).
const BETA: f64 = 4.0;

/// TCP Vegas.
#[derive(Debug, Clone)]
pub struct Vegas {
    cwnd: f64,
    ssthresh: f64,
    /// Per-RTT adjustment bookkeeping: the window is adjusted once per RTT.
    rtt_start: Option<Time>,
    rtt_min_in_round: f64,
    /// Vegas slow start grows the window only every other RTT, so that each
    /// growth round is followed by a measurement round with an un-lagged RTT.
    growth_round: bool,
}

impl Vegas {
    /// Vegas with the standard `α = 2`, `β = 4` thresholds.
    pub fn new() -> Self {
        Vegas {
            cwnd: 10.0,
            ssthresh: f64::INFINITY,
            rtt_start: None,
            rtt_min_in_round: f64::INFINITY,
            growth_round: true,
        }
    }

    /// Expected minus actual throughput difference, in packets queued.
    fn diff_packets(&self, rtt: f64, base_rtt: f64) -> f64 {
        if rtt <= 0.0 || base_rtt <= 0.0 {
            return 0.0;
        }
        self.cwnd * (1.0 - base_rtt / rtt)
    }
}

impl Default for Vegas {
    fn default() -> Self {
        Self::new()
    }
}

impl CongestionControl for Vegas {
    fn on_packet_acked(&mut self, ack: &AckEvent) {
        let rtt = ack.rtt.as_secs_f64();
        let base = ack.min_rtt.as_secs_f64();
        self.rtt_min_in_round = self.rtt_min_in_round.min(rtt);

        // Once per RTT, evaluate the diff rule.
        let round_elapsed = match self.rtt_start {
            None => true,
            Some(start) => ack.now.saturating_sub(start).as_secs_f64() >= base,
        };
        if !round_elapsed {
            // During slow start still grow per ACK, but only in growth rounds
            // (Vegas doubles every *other* RTT so the alternate rounds yield
            // congestion-free RTT measurements).
            if self.cwnd < self.ssthresh && self.growth_round {
                self.cwnd += ack.newly_acked_packets as f64;
            }
            return;
        }
        let measured_rtt = if self.rtt_min_in_round.is_finite() {
            self.rtt_min_in_round
        } else {
            rtt
        };
        self.rtt_start = Some(ack.now);
        self.rtt_min_in_round = f64::INFINITY;
        self.growth_round = !self.growth_round;

        let diff = self.diff_packets(measured_rtt, base);
        if self.cwnd < self.ssthresh {
            // Slow start with the Vegas brake.  The brake uses the *latest*
            // RTT (not the round minimum): during slow start the queue builds
            // within the round, and the round minimum would hide it.  On
            // exit, clamp the window to the delay-free target
            // (cwnd·baseRTT/RTT) as Linux's Vegas does, so the slow-start
            // overshoot does not leave a standing queue.
            let ss_diff = self.diff_packets(rtt, base);
            if ss_diff > 1.0 {
                if rtt > 0.0 && base > 0.0 {
                    let target = self.cwnd * base / rtt + 1.0;
                    self.cwnd = self.cwnd.min(target);
                }
                self.ssthresh = self.cwnd;
            } else {
                self.cwnd += 1.0;
            }
        } else if diff < ALPHA {
            self.cwnd += 1.0;
        } else if diff > BETA {
            self.cwnd -= 1.0;
        }
        self.cwnd = self.cwnd.max(2.0);
    }

    fn on_packets_lost(&mut self, _loss: &LossEvent) {
        self.ssthresh = (self.cwnd * 0.75).max(2.0);
        self.cwnd = self.ssthresh;
    }

    fn on_congestion_event(&mut self, event: &CongestionEvent) {
        match event {
            CongestionEvent::Rto { .. } => {
                self.ssthresh = (self.cwnd / 2.0).max(2.0);
                self.cwnd = 2.0;
            }
            // Vegas reads congestion from queueing delay; a CE mark implies
            // standing queue the diff term already sees, so no extra cut.
            CongestionEvent::EcnCe { .. } => {}
        }
    }

    fn cwnd_packets(&self) -> f64 {
        self.cwnd.max(1.0)
    }

    fn name(&self) -> &'static str {
        "vegas"
    }

    fn reads_reports(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn grows_when_queue_is_below_alpha() {
        let mut cc = Vegas::new();
        cc.ssthresh = 5.0; // out of slow start
        let w0 = cc.cwnd_packets();
        // RTT equal to base RTT => diff = 0 < alpha => +1 per RTT.
        let mut now = 0;
        for _ in 0..10 {
            now += 60;
            cc.on_packet_acked(&ack(now, 50, 50));
        }
        assert!(cc.cwnd_packets() > w0 + 5.0);
    }

    #[test]
    fn shrinks_when_queue_is_above_beta() {
        let mut cc = Vegas::new();
        cc.ssthresh = 5.0;
        cc.cwnd = 50.0;
        // RTT double the base: diff = 50 * (1 - 0.5) = 25 > beta => shrink.
        let mut now = 0;
        for _ in 0..10 {
            now += 110;
            cc.on_packet_acked(&ack(now, 100, 50));
        }
        assert!(cc.cwnd_packets() < 50.0);
    }

    #[test]
    fn holds_steady_between_alpha_and_beta() {
        let mut cc = Vegas::new();
        cc.ssthresh = 5.0;
        cc.cwnd = 30.0;
        // diff = 30 * (1 - 50/55.5) ≈ 3 packets, inside [2, 4].
        let mut now = 0;
        for _ in 0..20 {
            now += 60;
            cc.on_packet_acked(&ack(now, 56, 50));
        }
        assert!((cc.cwnd_packets() - 30.0).abs() <= 2.0);
    }

    #[test]
    fn slow_start_exits_on_queue_buildup() {
        let mut cc = Vegas::new();
        assert!(cc.ssthresh.is_infinite());
        let mut now = 0;
        // Growing queue: rtt 80 vs base 50 -> diff grows past 1 quickly.
        for _ in 0..10 {
            now += 90;
            cc.on_packet_acked(&ack(now, 80, 50));
        }
        assert!(cc.ssthresh.is_finite(), "Vegas should have left slow start");
    }

    #[test]
    fn loss_and_timeout_reduce_window() {
        let mut cc = Vegas::new();
        cc.cwnd = 40.0;
        cc.on_packets_lost(&LossEvent {
            now: Time::ZERO,
            lost_packets: 1,
            in_flight_packets: 40,
        });
        assert!((cc.cwnd_packets() - 30.0).abs() < 1e-9);
        cc.on_congestion_event(&CongestionEvent::Rto { now: Time::ZERO });
        assert!(cc.cwnd_packets() <= 2.0);
    }
}
