//! Multiple Nimbus flows sharing one bottleneck: the pulser/watcher protocol
//! (§6 of the paper) keeps exactly one flow pulsing while all of them share
//! the link fairly and keep delays low.
//!
//! ```text
//! cargo run --release --example multiflow_fairness
//! ```

use nimbus_repro::experiments::runner::{run_and_collect, ScenarioSpec};
use nimbus_repro::experiments::SchemeSpec;
use nimbus_repro::netsim::{FlowConfig, Time};
use nimbus_repro::nimbus::MultiflowConfig;
use nimbus_repro::sim::nimbus_flow;

fn main() {
    let spec = ScenarioSpec {
        duration_s: 60.0,
        seed: 16,
        ..ScenarioSpec::default_96mbps(60.0)
    };
    let mut net = spec.build_network();
    let mut handles = Vec::new();
    for i in 0..3usize {
        let cfg = SchemeSpec::nimbus()
            .nimbus_config(spec.link_rate_bps, 40 + i as u64)
            .unwrap()
            .with_multiflow(MultiflowConfig::enabled());
        let h = net.add_flow(
            FlowConfig::primary(&format!("nimbus-{i}"), Time::from_millis(50))
                .starting_at(Time::from_secs_f64(i as f64 * 10.0)),
            Box::new(nimbus_flow(cfg, &format!("nimbus-{i}"))),
        );
        handles.push((h, SchemeSpec::nimbus()));
    }
    let out = run_and_collect(net, &handles, 35.0);
    println!("three Nimbus flows (staggered arrivals) on a 96 Mbit/s link:");
    for (i, m) in out.flows.iter().enumerate() {
        println!(
            "  flow {i}: {:.1} Mbit/s, mean RTT {:.1} ms, delay-mode fraction {:.2}",
            m.mean_throughput_mbps, m.mean_rtt_ms, m.delay_mode_fraction
        );
    }
}
