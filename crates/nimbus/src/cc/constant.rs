//! The inelastic "controller": no control at all.
//!
//! Inelastic cross traffic in the paper — a constant-bit-rate stream ("a
//! 96 Mbit/s constant bit-rate stream", Fig. 17), Poisson packet arrivals,
//! application-limited flows — takes its shape from the host's source (the
//! simulator's `ScriptedSource` or `PoissonSource` in `nimbus-transport`),
//! not from its controller.  [`Unlimited`] simply sends whenever that source
//! has data and reacts to no ACK timing, loss or delay, which is precisely
//! what makes the flow inelastic.

use super::{AckEvent, CongestionControl, CongestionEvent, LossEvent};

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
    use nimbus_core_types::Time;

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
