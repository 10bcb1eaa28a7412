//! Integration: the full pipeline (simulator → sender → Nimbus controller →
//! detector) classifies elastic and inelastic cross traffic correctly and
//! the resulting mode switching delivers the paper's headline behaviour.

use nimbus_repro::experiments::figures::intro::offline_eta;
use nimbus_repro::experiments::runner::{run_scheme_vs_cross, ScenarioSpec};
use nimbus_repro::experiments::SchemeSpec;

#[test]
fn offline_detector_separates_reacting_from_non_reacting_cross_traffic() {
    let elastic = offline_eta(true);
    let inelastic = offline_eta(false);
    assert!(
        elastic >= 2.0,
        "reacting cross traffic must exceed the threshold, eta={elastic}"
    );
    assert!(
        inelastic < elastic,
        "non-reacting eta ({inelastic}) must be below reacting ({elastic})"
    );
}

#[test]
fn nimbus_keeps_low_delay_against_inelastic_cross_traffic() {
    let spec: ScenarioSpec = "48M vs poisson@24M@seed=5 seed=1 dur=30s".parse().unwrap();
    let out = run_scheme_vs_cross(&spec, SchemeSpec::nimbus(), Vec::new(), 8.0);
    let m = &out.flows[0];
    assert!(
        m.mean_throughput_mbps > 15.0,
        "throughput {}",
        m.mean_throughput_mbps
    );
    assert!(
        m.mean_queue_delay_ms < 40.0,
        "queue delay {}",
        m.mean_queue_delay_ms
    );
    assert!(
        m.delay_mode_fraction > 0.6,
        "delay-mode fraction {}",
        m.delay_mode_fraction
    );
}

#[test]
fn nimbus_competes_against_an_elastic_cubic_flow() {
    let spec: ScenarioSpec = "48M vs cubic seed=2 dur=45s".parse().unwrap();
    let out = run_scheme_vs_cross(&spec, SchemeSpec::nimbus(), Vec::new(), 15.0);
    let m = &out.flows[0];
    // Fair share is 24 Mbit/s; a pure delay scheme would collapse to a few Mbit/s.
    assert!(
        m.mean_throughput_mbps > 12.0,
        "throughput {}",
        m.mean_throughput_mbps
    );
    // It must have left delay mode to do so.
    assert!(
        m.delay_mode_fraction < 0.9,
        "delay-mode fraction {}",
        m.delay_mode_fraction
    );
    assert!(
        m.mode_log.iter().any(|(_, mode)| mode == "competitive"),
        "expected at least one switch to competitive mode: {:?}",
        m.mode_log
    );
}
