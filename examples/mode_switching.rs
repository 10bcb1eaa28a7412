//! Reproduce the Fig. 1 scenario end to end: Nimbus switches to
//! TCP-competitive mode while a Cubic flow shares the link, then back to
//! delay mode when only inelastic traffic remains.
//!
//! ```text
//! cargo run --release --example mode_switching
//! ```

use nimbus_repro::experiments::figures::fig1_cross;
use nimbus_repro::experiments::runner::{run_scheme_vs_cross, ScenarioSpec};
use nimbus_repro::experiments::SchemeSpec;

fn main() {
    // Quarter-scale Fig. 1: 45 s total, elastic phase 7.5–22.5 s, inelastic
    // phase 22.5–37.5 s.
    let cross = fig1_cross(0.25, 11);
    let spec: ScenarioSpec = format!("48M vs {cross} seed=7 dur=45s").parse().unwrap();
    let out = run_scheme_vs_cross(&spec, SchemeSpec::nimbus(), 2.0);
    let m = &out.flows[0];
    println!("Nimbus on the Fig. 1 scenario (quarter scale):");
    println!("  mean throughput : {:.1} Mbit/s", m.mean_throughput_mbps);
    println!("  mean queue delay: {:.1} ms", m.mean_queue_delay_ms);
    println!(
        "  time in delay mode: {:.0}%",
        m.delay_mode_fraction * 100.0
    );
    println!("  mode switches:");
    for (t, mode) in &m.mode_log {
        println!("    {t:6.1} s -> {mode}");
    }
}
