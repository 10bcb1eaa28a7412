//! Quickstart: run Nimbus against inelastic cross traffic on an emulated
//! bottleneck and print the headline numbers.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use nimbus_repro::netsim::{FlowConfig, Network, SimConfig, Time};
use nimbus_repro::nimbus::NimbusConfig;
use nimbus_repro::sim::nimbus_flow;
use nimbus_repro::transport::{CcKind, PathInfo, PoissonSource, Sender, SenderConfig, MSS};

fn main() {
    // A 48 Mbit/s bottleneck with 50 ms propagation RTT and 100 ms of buffering.
    let mu = 48e6;
    let mut net = Network::new(SimConfig::new(mu, 0.1, 60.0));

    // The monitored flow: Nimbus (Cubic + BasicDelay), told the link rate.
    let nimbus = net.add_flow(
        FlowConfig::primary("nimbus", Time::from_millis(50)),
        Box::new(nimbus_flow(NimbusConfig::default_for_link(mu), "nimbus")),
    );

    // Cross traffic: 24 Mbit/s of Poisson (inelastic) packet arrivals.
    net.add_flow(
        FlowConfig::cross("poisson", Time::from_millis(50), false),
        Box::new(Sender::new(
            SenderConfig::labelled("poisson"),
            CcKind::Unlimited.build(&PathInfo::new(MSS)),
            Box::new(PoissonSource::new(24e6, 7)),
        )),
    );

    net.run();
    let (recorder, _endpoints) = net.finish();
    let slot = recorder.monitored_slot(nimbus.0).unwrap();
    let tput = recorder.throughput_mbps(slot).mean_in_range(10.0, 60.0);
    let delay = recorder.queue_delay_ms(slot).mean_in_range(10.0, 60.0);
    println!("Nimbus vs 24 Mbit/s inelastic cross traffic on a 48 Mbit/s link:");
    println!("  mean throughput : {tput:6.1} Mbit/s (fair share is 24 Mbit/s)");
    println!("  mean queue delay: {delay:6.1} ms (Cubic would sit near 100 ms)");
}
