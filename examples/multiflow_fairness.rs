//! Multiple Nimbus flows sharing one bottleneck: the pulser/watcher protocol
//! (§6 of the paper) keeps exactly one flow pulsing while all of them share
//! the link fairly and keep delays low.
//!
//! ```text
//! cargo run --release --example multiflow_fairness
//! ```

use nimbus_repro::experiments::runner::{run_scenario, Monitored};
use nimbus_repro::experiments::{ScenarioSpec, SchemeSpec};

fn main() {
    let spec: ScenarioSpec = "96M seed=16 dur=60s".parse().unwrap();
    // Flows seeded 40, 41, 42, arriving 10 s apart.
    let flows = Monitored::multiflow(&spec, SchemeSpec::nimbus(), 3, 40, 10.0);
    let out = run_scenario(&spec, flows, 35.0);
    println!("three Nimbus flows (staggered arrivals) on a 96 Mbit/s link:");
    for (i, m) in out.flows.iter().enumerate() {
        println!(
            "  flow {i}: {:.1} Mbit/s, mean RTT {:.1} ms, delay-mode fraction {:.2}",
            m.mean_throughput_mbps, m.mean_rtt_ms, m.delay_mode_fraction
        );
    }
}
