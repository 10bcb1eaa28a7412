//! Integration: the baseline congestion controllers exhibit the qualitative
//! behaviours the paper's comparisons rely on.

use nimbus_repro::experiments::runner::{run_scheme_vs_cross, ScenarioSpec};
use nimbus_repro::experiments::SchemeSpec;

#[test]
fn cubic_bufferbloats_while_vegas_does_not() {
    let spec = ScenarioSpec {
        duration_s: 30.0,
        seed: 3,
        ..ScenarioSpec::fig1_48mbps(30.0)
    };
    let cubic = run_scheme_vs_cross(&spec, SchemeSpec::cubic(), Vec::new(), 8.0);
    let vegas = run_scheme_vs_cross(&spec, SchemeSpec::vegas(), Vec::new(), 8.0);
    assert!(cubic.flows[0].mean_queue_delay_ms > 40.0);
    assert!(vegas.flows[0].mean_queue_delay_ms < 15.0);
    assert!(cubic.flows[0].mean_throughput_mbps > 40.0);
    assert!(vegas.flows[0].mean_throughput_mbps > 40.0);
}

#[test]
fn nimbus_stays_in_delay_mode_against_heavy_cbr_cross_traffic() {
    // Appendix D.1: with 80 Mbit/s of CBR on a 96 Mbit/s link, a scheme that
    // relies on periodically draining the queue (Copa) can get stuck in its
    // competitive mode; Nimbus's elasticity detector keeps it in delay mode
    // and the queueing delay stays far below the 100 ms buffer.  (In this
    // reproduction Copa's detector happens to cope with this particular load,
    // so the assertion is on Nimbus's absolute behaviour rather than a strict
    // ordering between the two.)
    let spec: ScenarioSpec = "96M vs cbr@80M seed=4 dur=40s".parse().unwrap();
    let nimbus = run_scheme_vs_cross(&spec, SchemeSpec::nimbus(), Vec::new(), 10.0);
    let m = &nimbus.flows[0];
    assert!(
        m.mean_queue_delay_ms < 40.0,
        "nimbus queueing delay {} ms should stay well below the 100 ms buffer",
        m.mean_queue_delay_ms
    );
    assert!(
        m.delay_mode_fraction > 0.5,
        "nimbus should classify 83% CBR cross traffic as inelastic, delay-mode fraction {}",
        m.delay_mode_fraction
    );
    assert!(
        m.mean_throughput_mbps > 8.0,
        "throughput {}",
        m.mean_throughput_mbps
    );
}

#[test]
fn vegas_is_starved_by_cubic_cross_traffic() {
    let spec: ScenarioSpec = "96M vs cubic seed=5 dur=40s".parse().unwrap();
    let out = run_scheme_vs_cross(&spec, SchemeSpec::vegas(), Vec::new(), 15.0);
    assert!(
        out.flows[0].mean_throughput_mbps < 30.0,
        "vegas should be starved, got {}",
        out.flows[0].mean_throughput_mbps
    );
}
