//! Path-scenario tier: the multi-hop cells of the paper-invariant matrix,
//! run one after another on a single worker, reproduce the ledger pins the
//! parallel matrix run checks, and learned µ settles on the path minimum.

mod ledger;

use nimbus_repro::experiments::testkit::{paper_invariant_matrix, parallel_map, Cell, CellOutcome};
use std::sync::OnceLock;

/// The seven multi-hop matrix cells, simulated once on one worker thread and
/// shared by both tests.
fn multihop_outcomes() -> &'static [CellOutcome] {
    static OUTCOMES: OnceLock<Vec<CellOutcome>> = OnceLock::new();
    OUTCOMES.get_or_init(|| {
        let cells: Vec<Cell> = paper_invariant_matrix()
            .into_iter()
            .filter(|c| !c.scenario.hops.is_empty())
            .collect();
        assert_eq!(cells.len(), 7, "the matrix has seven multi-hop cells");
        parallel_map(&cells, Some(1), Cell::run)
    })
}

/// No simulation may depend on worker-thread scheduling.
#[test]
fn multihop_matrix_is_deterministic_across_thread_counts() {
    ledger::assert_pinned(multihop_outcomes());
    for o in multihop_outcomes() {
        assert!(o.violations.is_empty(), "{}: {:?}", o.name, o.violations);
    }
}

#[test]
fn learned_mu_tracks_the_path_minimum_not_the_noisy_first_hop() {
    // Hop 0 at 48 Mbit/s ± 10 %, hop 1 constant at 28.8 Mbit/s.  The learned
    // µ must settle on the 28.8 Mbit/s path minimum; capturing the first hop
    // instead would read ~48 Mbit/s.
    let outcome = multihop_outcomes()
        .iter()
        .find(|o| {
            o.name
                == "nimbus(mu=learned)@48M sin(0.1,10s) hop(0.6) vs alone seed=27 dur=40s steady=15s"
        })
        .expect("the matrix includes the multi-hop learned-µ cell");
    let steady: Vec<f64> = outcome
        .metrics
        .mu_series
        .iter()
        .filter(|(t, _)| *t >= 15.0)
        .map(|(_, mu)| *mu)
        .collect();
    assert!(!steady.is_empty(), "no steady-state µ estimates");
    let mean_mu = steady.iter().sum::<f64>() / steady.len() as f64;
    assert!(
        (mean_mu - 28.8e6).abs() / 28.8e6 < 0.1,
        "learned µ {mean_mu} should track the 28.8 Mbit/s path minimum"
    );
    let max_mu = steady.iter().copied().fold(f64::MIN, f64::max);
    assert!(
        max_mu < 40e6,
        "learned µ peaked at {max_mu}: captured the noisy 48 Mbit/s first hop"
    );
}
