//! Fleet workload scenario family, gated end to end: population-scale churn
//! must be deterministic per seed, must retire its flows (bounded hot-path
//! state), and the multiflow population must converge to a fair allocation.

use nimbus_repro::experiments::figures::{fct_stats, ALL_SIZES, FLEET_SIZE_BUCKETS};
use nimbus_repro::experiments::runner::run_scheme_vs_cross;
use nimbus_repro::experiments::{FleetSpec, ScenarioSpec, SchemeSpec};
use nimbus_repro::netsim::Recorder;

/// A 1 Gbit/s churn scenario: Poisson arrivals at 50% offered load spawn
/// ~550 flows/s, so a few simulated seconds cover well over 1000 complete
/// flow lifetimes.
fn thousand_flow_spec(seed: u64) -> ScenarioSpec {
    let duration = 6.0;
    ScenarioSpec {
        link_rate_bps: 1e9,
        duration_s: duration,
        seed,
        fleet: Some(FleetSpec::poisson(0.5)),
        ..ScenarioSpec::default_96mbps(duration)
    }
}

fn snapshot_json(recorder: &Recorder) -> String {
    serde_json::to_string(&recorder.snapshot()).expect("snapshot serializes")
}

#[test]
fn thousand_flow_churn_over_1gbps_is_deterministic() {
    let run = || {
        let spec = thousand_flow_spec(71);
        run_scheme_vs_cross(&spec, SchemeSpec::nimbus(), 2.0)
    };
    let first = run();
    let second = run();

    // Scale: over 1000 complete flow lifetimes in 6 simulated seconds.
    assert!(
        first.recorder.fct_stream().len() >= 1000,
        "only {} fleet flows completed",
        first.recorder.fct_stream().len()
    );
    // Determinism: the full recorder output (every flow's stats, every
    // monitored series, every hop counter) is byte-identical across runs.
    assert_eq!(
        snapshot_json(&first.recorder),
        snapshot_json(&second.recorder),
        "1000-flow churn diverged between identical runs"
    );
    assert_eq!(first.events_processed, second.events_processed);

    // Detector stability: churn must not read as elastic.
    let m = &first.flows[0];
    assert!(
        m.delay_mode_fraction >= 0.9,
        "churn flipped the detector: delay-mode fraction {:.2}",
        m.delay_mode_fraction
    );
    // The long-lived flow takes a solid share of the residual capacity.
    assert!(
        m.mean_throughput_mbps >= 200.0,
        "monitored flow got only {:.1} Mbit/s of a 1 Gbit/s link at 50% load",
        m.mean_throughput_mbps
    );

    // A different seed genuinely reshuffles arrivals and sizes.
    let spec = thousand_flow_spec(72);
    let third = run_scheme_vs_cross(&spec, SchemeSpec::nimbus(), 2.0);
    assert_ne!(
        snapshot_json(&first.recorder),
        snapshot_json(&third.recorder),
        "reseeding changed nothing — the fleet seed is not wired through"
    );
}

#[test]
fn fleet_fcts_are_complete_and_size_bucketed() {
    let spec = thousand_flow_spec(73);
    let out = run_scheme_vs_cross(&spec, SchemeSpec::nimbus(), 2.0);

    // Every finite flow that ran and finished appears exactly once in the
    // completion record.
    let finished = out
        .recorder
        .flows
        .iter()
        .filter(|f| f.started && f.size_bytes.is_some() && f.finish.is_some())
        .count();
    assert_eq!(out.recorder.fct_stream().len(), finished);

    // The fleet buckets partition the completions.
    let record = out.recorder.fct_stream();
    let all = fct_stats(record, ALL_SIZES);
    let [mice, medium, elephant] =
        FLEET_SIZE_BUCKETS.map(|(_, lo, hi)| fct_stats(record, (lo, hi)));
    assert_eq!(all.count, mice.count + medium.count + elephant.count);
    assert!(all.count >= 1000);
    // The heavy-tailed mixture makes mice the large majority of *flows*.
    assert!(
        mice.count as f64 >= 0.7 * all.count as f64,
        "mice {} of {}",
        mice.count,
        all.count
    );
    // Percentiles are ordered within every non-empty bucket.
    for bucket in [all, mice, medium, elephant] {
        if bucket.count > 0 {
            assert!(bucket.p50_s <= bucket.p95_s && bucket.p95_s <= bucket.p99_s);
            assert!(bucket.p50_s > 0.0);
        }
    }
    // Mice finish fast on a 1 Gbit/s link: a 100 kB flow at even a tenth of
    // fair share is sub-second.
    assert!(
        mice.p95_s < 1.0,
        "mice p95 {:.3} s on a 1 Gbit/s link",
        mice.p95_s
    );
    // Sanity on the bucket boundary this test relies on.
    assert_eq!(FLEET_SIZE_BUCKETS[0], ("mice", 0, 100_000));
}

#[test]
fn multiflow_population_converges_to_fair_shares() {
    // The quick fleet_multiflow experiment: 16 concurrent Nimbus flows with
    // the multiflow protocol at 10 Mbit/s fair share each.  The allocation
    // must converge (Jain's index) and the link must stay utilized.
    let r = nimbus_repro::experiments::run_experiment("fleet_multiflow", true)
        .expect("fleet_multiflow is dispatchable");
    let jain = r.get("jain_fairness_index").expect("jain row present");
    assert!(
        jain >= 0.85,
        "16-flow Nimbus population did not converge: Jain index {jain:.3}"
    );
    let aggregate = r.get("aggregate_throughput_mbps").expect("aggregate row");
    let link = r.get("link_rate_mbps").expect("link row");
    assert!(
        aggregate >= 0.85 * link,
        "population left the link underutilized: {aggregate:.1} of {link:.1} Mbit/s"
    );
    let min_rate = r.get("min_flow_throughput_mbps").expect("min row");
    assert!(
        min_rate >= 3.0,
        "a flow was starved: min {min_rate:.2} Mbit/s of a 10 Mbit/s fair share"
    );
}
