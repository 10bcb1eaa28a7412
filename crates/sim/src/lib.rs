//! # nimbus-sim
//!
//! The simulator adapter: the only crate that knows about **both** the
//! host-independent algorithm crate (`nimbus-core`) and the packet-level
//! simulator stack (`nimbus-netsim` + `nimbus-transport`).
//!
//! `nimbus-core` deliberately has no dependency on the simulator — it speaks
//! only through the [`CongestionControl`](nimbus_core::CongestionControl)
//! host abstraction (ACK / loss / congestion-event / report callbacks).  This
//! crate supplies the glue in the other direction: [`nimbus_flow`] packages a
//! [`NimbusController`] into a complete
//! simulator flow endpoint (sender machinery + backlogged source), ready to
//! be added to a [`Network`](nimbus_netsim::Network).
//!
//! The end-to-end integration tests that drive the full controller through
//! the simulator live here too, keeping `nimbus-core`'s own test suite free
//! of simulator dependencies.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use nimbus_core::{NimbusConfig, NimbusController};
use nimbus_transport::{BackloggedSource, Sender, SenderConfig};

/// Convenience: build a complete Nimbus flow endpoint (sender machinery +
/// Nimbus controller + backlogged source) ready to be added to a
/// [`Network`](nimbus_netsim::Network).
pub fn nimbus_flow(cfg: NimbusConfig, label: &str) -> Sender {
    Sender::new(
        SenderConfig::labelled(label),
        Box::new(NimbusController::new(cfg)),
        Box::new(BackloggedSource),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimbus_core::{CcKind, PathInfo};
    use nimbus_netsim::{FlowConfig, Network, SimConfig, Time};
    use nimbus_transport::{PoissonSource, MSS};

    #[test]
    fn end_to_end_low_delay_against_inelastic_cross_traffic() {
        // Full simulator run: Nimbus vs 24 Mbit/s Poisson cross traffic on a
        // 48 Mbit/s link.  Expect near-fair throughput with low queueing delay
        // (this is the right half of Fig. 1c).
        let mu = 48e6;
        let mut net = Network::new(SimConfig::new(mu, 0.1, 40.0));
        let h = net.add_flow(
            FlowConfig::primary("nimbus", Time::from_millis(50)),
            Box::new(nimbus_flow(NimbusConfig::default_for_link(mu), "nimbus")),
        );
        net.add_flow(
            FlowConfig::cross("poisson", Time::from_millis(50), false),
            Box::new(Sender::new(
                SenderConfig::labelled("poisson"),
                CcKind::Unlimited.build(&PathInfo::new(MSS)),
                Box::new(PoissonSource::new(24e6, 3)),
            )),
        );
        net.run();
        let (rec, _) = net.finish();
        let slot = rec.monitored_slot(h.0).unwrap();
        let tput = rec.throughput_mbps[slot].mean_in_range(10.0, 40.0);
        let qd = rec.queue_delay_ms[slot].mean_in_range(10.0, 40.0);
        assert!(tput > 18.0, "nimbus throughput {tput}");
        assert!(qd < 40.0, "nimbus queueing delay {qd}");
    }

    #[test]
    fn end_to_end_competes_with_cubic_cross_traffic() {
        // Full simulator run: Nimbus vs one backlogged Cubic flow on a
        // 48 Mbit/s link (the left half of Fig. 1c).  Expect a roughly fair
        // share (well above what a pure delay controller would get).
        let mu = 48e6;
        let mut net = Network::new(SimConfig::new(mu, 0.1, 60.0));
        let h = net.add_flow(
            FlowConfig::primary("nimbus", Time::from_millis(50)),
            Box::new(nimbus_flow(NimbusConfig::default_for_link(mu), "nimbus")),
        );
        net.add_flow(
            FlowConfig::cross("cubic", Time::from_millis(50), true),
            Box::new(Sender::new(
                SenderConfig::labelled("cubic"),
                CcKind::Cubic.build(&PathInfo::new(MSS)),
                Box::new(BackloggedSource),
            )),
        );
        net.run();
        let (rec, _) = net.finish();
        let slot = rec.monitored_slot(h.0).unwrap();
        let tput = rec.throughput_mbps[slot].mean_in_range(20.0, 60.0);
        assert!(
            tput > 12.0,
            "nimbus should hold a reasonable share against cubic, got {tput} Mbit/s"
        );
    }
}
