//! Curated built-in rate traces end-to-end, and the deep-fade RTO
//! regression the cellular trace exposed.
//!
//! The wedge: a descending rate fade (0.5× → 0.3× → 0.15× at 500 ms steps)
//! shrinks the delay-sized bottleneck queue while it is full, dropping the
//! entire flight at once with no survivors to SACK.  `in_flight_packets()`
//! then counts the phantom flight forever, the post-timeout `in_flight <
//! cwnd` send gate never opens, and exponential RTO backoff walks to the
//! 60 s cap — the flow is dead for the rest of the run.  The fix deems the
//! whole unsacked flight lost on the *second* consecutive zero-progress
//! timeout (RFC 5681 empty-pipe semantics), which re-opens the gate while
//! leaving every single-timeout recovery byte-identical (the fingerprint
//! ledger in `tests/ledger/mod.rs` proves that).

use nimbus_repro::experiments::runner::BUILTIN_TRACES;
use nimbus_repro::experiments::testkit::{parallel_map, Cell};

/// `scheme` alone on a 48 Mbit/s link under `schedule`, steady window from a
/// quarter of the run.
fn cell(scheme: &str, schedule: &str, duration_s: f64) -> Cell {
    let steady_s = duration_s * 0.25;
    format!("{scheme}@48M {schedule} vs alone seed=1 dur={duration_s}s steady={steady_s}s")
        .parse()
        .expect("valid cell")
}

#[test]
fn deep_fade_staircase_does_not_wedge_the_window_path() {
    // The minimized repro: the cellular trace's first 6 seconds as a one-shot
    // staircase.  Before the fix Cubic sent nothing after t ≈ 2.5 s.
    let stairs = "steps(0.5s=1.2,1s=0.9,1.5s=0.5,2s=0.3,2.5s=0.15,3s=0.4,\
                  3.5s=0.8,4s=1.1,4.5s=1.5,5s=1.3,5.5s=0.7)";
    let outcome = cell("cubic", stairs, 20.0).run();
    let late: Vec<f64> = outcome
        .metrics
        .throughput_series
        .iter()
        .filter(|(t, _)| *t > 10.0)
        .map(|(_, v)| *v)
        .collect();
    assert!(!late.is_empty());
    let late_mean = late.iter().sum::<f64>() / late.len() as f64;
    // The link holds 0.7·48 ≈ 33.6 Mbit/s from t = 5.5 s on; a wedged flow
    // reads 0 here.
    assert!(
        late_mean > 20.0,
        "cubic never recovered from the deep fade: {late_mean} Mbit/s after t=10"
    );
}

#[test]
fn window_schemes_survive_every_builtin_trace() {
    let mut cells = Vec::new();
    for &(name, ..) in BUILTIN_TRACES {
        for scheme in ["cubic", "newreno", "bbr"] {
            cells.push(cell(scheme, &format!("trace-{name}"), 30.0));
        }
    }
    let outcomes = parallel_map(&cells, None, |c| c.run());
    for o in &outcomes {
        assert!(
            o.metrics.mean_throughput_mbps > 5.0,
            "{} starved on a built-in trace: {} Mbit/s",
            o.name,
            o.metrics.mean_throughput_mbps
        );
    }
    // Determinism across the trace-driven cells.
    let again = parallel_map(&cells, None, |c| c.run());
    for (a, b) in outcomes.iter().zip(again.iter()) {
        assert_eq!(a.fingerprint, b.fingerprint, "{} not deterministic", a.name);
    }
}
