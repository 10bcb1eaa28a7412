//! Determinism regression: two simulator runs with the same `SimConfig` seed
//! must produce byte-identical recorder output; different seeds must not.

use nimbus_repro::netsim::{FlowConfig, Network, SimConfig, Time};
use nimbus_repro::nimbus::cc::constant::Unlimited;
use nimbus_repro::transport::{
    BackloggedSource, CcKind, PathInfo, PoissonSource, Sender, SenderConfig,
};

/// A stochastic scenario: random bottleneck loss plus Poisson cross traffic,
/// so any seed-wiring mistake shows up immediately.
fn run_snapshot(seed: u64) -> String {
    let mut cfg = SimConfig::new(48e6, 0.1, 12.0);
    cfg.seed = seed;
    cfg.link_mut().loss = 0.005;
    let mut net = Network::new(cfg);
    net.add_flow(
        FlowConfig::primary("cubic", Time::from_millis(50)),
        Box::new(Sender::new(
            SenderConfig::labelled("cubic"),
            CcKind::Cubic.build(&PathInfo::new(1500)),
            Box::new(BackloggedSource),
        )),
    );
    net.add_flow(
        FlowConfig::cross("poisson", Time::from_millis(50), false),
        Box::new(Sender::new(
            SenderConfig::labelled("poisson"),
            Box::new(Unlimited::new()),
            Box::new(PoissonSource::new(12e6, seed.wrapping_add(17))),
        )),
    );
    net.run();
    let (recorder, _) = net.finish();
    serde_json::to_string(&recorder.snapshot()).expect("recorder snapshot serializes")
}

#[test]
fn same_seed_produces_byte_identical_recorder_output() {
    let a = run_snapshot(42);
    let b = run_snapshot(42);
    assert!(!a.is_empty());
    assert_eq!(a, b, "same-seed runs diverged");
}

#[test]
fn different_seeds_produce_different_recorder_output() {
    let a = run_snapshot(42);
    let b = run_snapshot(43);
    assert_ne!(a, b, "different seeds produced identical runs");
}
