//! Inelastic "controllers": constant-bit-rate pacing and no control at all.
//!
//! Inelastic cross traffic in the paper comes in two shapes:
//!
//! * a **constant-bit-rate stream** (e.g. "a 96 Mbit/s constant bit-rate
//!   stream", Fig. 17) — [`ConstantRate`] paces at a fixed rate regardless of
//!   what the network does;
//! * **Poisson packet arrivals / application-limited flows** — the
//!   [`Unlimited`] controller simply sends whenever the application has data
//!   (a host-side source — the simulator's `PoissonSource` or
//!   `ScriptedSource` in `nimbus-transport` — provides the shaping).
//!
//! Neither reacts to ACK timing, loss or delay, which is precisely what makes
//! them inelastic.

use super::{AckEvent, CongestionControl, CongestionEvent, LossEvent};
use nimbus_core_types::Time;

/// Fixed-rate pacing with an effectively unlimited window.
#[derive(Debug, Clone)]
pub struct ConstantRate {
    rate_bps: f64,
}

impl ConstantRate {
    /// Pace at `rate_bps` forever.
    pub fn new(rate_bps: f64) -> Self {
        assert!(rate_bps > 0.0, "rate must be positive");
        ConstantRate { rate_bps }
    }
}

impl CongestionControl for ConstantRate {
    fn on_packet_acked(&mut self, _ack: &AckEvent) {}
    fn on_packets_lost(&mut self, _loss: &LossEvent) {}
    fn on_congestion_event(&mut self, _event: &CongestionEvent) {}

    fn cwnd_packets(&self) -> f64 {
        1e9
    }

    fn pacing_rate_bps(&self, _now: Time) -> Option<f64> {
        Some(self.rate_bps)
    }

    fn name(&self) -> &'static str {
        "cbr"
    }

    fn reads_reports(&self) -> bool {
        false
    }
}

/// No congestion control: transmit whenever the application has data.
///
/// Combined with a rate-shaped host source (`nimbus_transport::Source`
/// in the simulator) this models
/// application-limited traffic (short flows, video below its fair share,
/// Poisson aggregates).
#[derive(Debug, Clone, Default)]
pub struct Unlimited;

impl Unlimited {
    /// An unlimited sender.
    pub fn new() -> Self {
        Unlimited
    }
}

impl CongestionControl for Unlimited {
    fn on_packet_acked(&mut self, _ack: &AckEvent) {}
    fn on_packets_lost(&mut self, _loss: &LossEvent) {}
    fn on_congestion_event(&mut self, _event: &CongestionEvent) {}

    fn cwnd_packets(&self) -> f64 {
        1e9
    }

    fn name(&self) -> &'static str {
        "unlimited"
    }

    fn reads_reports(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ack() -> AckEvent {
        AckEvent {
            now: Time::from_millis(10),
            newly_acked_packets: 1,
            newly_acked_bytes: 1500,
            rtt: Time::from_millis(200),
            min_rtt: Time::from_millis(50),
            in_flight_packets: 1000,
            mss: 1500,
        }
    }

    #[test]
    fn constant_rate_ignores_every_signal() {
        let mut cc = ConstantRate::new(24e6);
        let before = cc.pacing_rate_bps(Time::ZERO);
        cc.on_packet_acked(&ack());
        cc.on_packets_lost(&LossEvent {
            now: Time::ZERO,
            lost_packets: 1,
            in_flight_packets: 100,
        });
        cc.on_congestion_event(&CongestionEvent::Rto { now: Time::ZERO });
        assert_eq!(cc.pacing_rate_bps(Time::from_secs_f64(10.0)), before);
        assert_eq!(before, Some(24e6));
        assert!(cc.cwnd_packets() > 1e6);
    }

    #[test]
    #[should_panic]
    fn zero_rate_rejected() {
        let _ = ConstantRate::new(0.0);
    }

    #[test]
    fn unlimited_has_no_pacing_and_huge_window() {
        let mut cc = Unlimited::new();
        cc.on_packet_acked(&ack());
        cc.on_packets_lost(&LossEvent {
            now: Time::ZERO,
            lost_packets: 1,
            in_flight_packets: 5,
        });
        assert!(cc.pacing_rate_bps(Time::ZERO).is_none());
        assert!(cc.cwnd_packets() > 1e6);
        assert_eq!(cc.name(), "unlimited");
    }
}
