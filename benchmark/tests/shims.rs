//! The shims are transparent: a traced rep simulates exactly what an
//! untraced rep simulates, and the harness still finds the controller
//! through them.

use nimbus_benchmark::embed::Host;
use nimbus_benchmark::sim::SimWorkload;
use nimbus_benchmark::trace::{self, Span};
use nimbus_experiments::runner::{nimbus_of, RunOutput};
use std::time::Instant;

const SEED: u64 = 3;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// What must not move when the shims go in.
#[derive(Debug, PartialEq)]
struct Simulated {
    events: u64,
    delivered_bytes: u64,
    mode_log: Vec<(f64, String)>,
    recorder_fingerprint: u64,
}

fn simulated(out: &RunOutput, primary: usize) -> Simulated {
    let snapshot = serde_json::to_string(&out.recorder.snapshot()).expect("snapshot serializes");
    Simulated {
        events: out.events_processed,
        delivered_bytes: out.recorder.flows[primary].delivered_bytes,
        mode_log: out.flows[0].mode_log.clone(),
        recorder_fingerprint: fnv1a(snapshot.as_bytes()),
    }
}

fn traced_equals_untraced(workload: SimWorkload) {
    let sc = workload.scenario(SEED);

    let plain = sc.build(false);
    let primary = plain.primary;
    assert_eq!(
        nimbus_of(plain.net.endpoint(primary)).is_some(),
        sc.scheme.is_nimbus()
    );
    let untraced = simulated(&plain.run_and_collect(), primary.0);

    trace::start(sc.sim_s() as usize * 100 + 16);
    let wall = Instant::now();
    let traced = {
        let _rep = trace::enter(Span::Rep);
        let shimmed = sc.build(true);
        assert_eq!(
            nimbus_of(shimmed.net.endpoint(shimmed.primary)).is_some(),
            sc.scheme.is_nimbus(),
            "nimbus_of must resolve through TimedEndpoint and TimedCc"
        );
        let _run = trace::enter(Span::EngineRun);
        simulated(&shimmed.run_and_collect(), primary.0)
    };
    let wall_ns = wall.elapsed().as_nanos() as f64;
    let rep = trace::finish();

    assert_eq!(
        traced, untraced,
        "{workload:?}: the shims changed the simulation"
    );
    if sc.scheme.is_nimbus() {
        assert!(!traced.mode_log.is_empty());
    }

    // The shims saw the run: one report span per tick of the primary flow,
    // ACK spans, and a well-formed tree whose self times add up to the wall
    // time measured independently around it.
    assert_eq!(rep.overflowed, 0);
    assert_eq!(rep.report_ns.len(), sc.sim_s() as usize * 100);
    assert!(rep.span(Span::SenderOnAck).count > 10_000);
    assert!(rep.span(Span::CcOnAck).count > 10_000);
    assert!(rep.counters.packets_sent > 10_000);
    assert_eq!(rep.self_ns_sum(), rep.span(Span::Rep).total_ns);
    let covered = rep.self_ns_sum() as f64 / wall_ns;
    assert!(
        (0.98..=1.0).contains(&covered),
        "self times cover {covered:.4} of the traced wall"
    );
}

#[test]
fn bulk_cubic_is_unchanged_by_the_shims() {
    traced_equals_untraced(SimWorkload::BulkCubic);
}

#[test]
fn fig1_nimbus_is_unchanged_by_the_shims() {
    traced_equals_untraced(SimWorkload::Fig1Nimbus);
}

#[test]
fn fleet_churn_is_unchanged_by_the_shims() {
    traced_equals_untraced(SimWorkload::FleetChurn);
}

#[test]
fn core_embed_mode_logs_match_traced_and_untraced() {
    let mut plain = Host::build(SEED, false);
    plain.run();

    trace::start(Host::reports_per_rep());
    let mut shimmed = Host::build(SEED, true);
    {
        let _run = trace::enter(Span::HostRun);
        shimmed.run();
    }
    let rep = trace::finish();

    let (a, b) = (plain.anchors(), shimmed.anchors());
    assert_eq!(a.mode_logs, b.mode_logs);
    assert_eq!(a, b);
    assert!(a.check().is_empty(), "{:?}", a.check());
    assert_eq!(rep.report_ns.len(), Host::reports_per_rep());
    assert_eq!(rep.span(Span::CcOnAck).count, a.ack_callbacks);
}
