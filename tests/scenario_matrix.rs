//! The paper-invariant matrix: every cell asserts at least one paper
//! invariant and reproduces its row of the fingerprint ledger
//! (`tests/ledger/mod.rs`), which also pins the cells other test files
//! simulate; on a mismatch the test prints the diff and the replacement
//! table (`FINGERPRINTS.md` says how to re-pin).  Beside it, the quick
//! sweep's cells are held to an exact event budget.

mod ledger;

use nimbus_repro::experiments::runner::run_scheme_vs_cross;
use nimbus_repro::experiments::sweep::sweep_matrix;
use nimbus_repro::experiments::testkit::{
    matrix_report, paper_invariant_matrix, parallel_map, run_matrix,
};

#[test]
fn paper_invariants_hold_across_the_matrix() {
    let outcomes = run_matrix(&paper_invariant_matrix());
    println!("{}", matrix_report(&outcomes));
    let failing: Vec<String> = outcomes
        .iter()
        .filter(|o| !o.violations.is_empty())
        .map(|o| format!("{}: {:?}", o.name, o.violations))
        .collect();
    assert!(
        failing.is_empty(),
        "{} of {} cells violated their invariants:\n{}",
        failing.len(),
        outcomes.len(),
        failing.join("\n")
    );
    ledger::assert_pinned(&outcomes);
}

/// Engine events allowed per 1500-byte packet delivered to any receiver.
/// The quick sweep's cells run at 3.0–6.1 (the two-hop Nimbus cells are the
/// maximum); the budget is that maximum plus a third.
const EVENTS_PER_DELIVERED_PACKET: u64 = 8;

/// An event storm — the stale `PollSend` chains that once multiplied without
/// bound, a timer re-arming itself every nanosecond — makes one cell do many
/// times the work per packet its neighbours do.  Events and delivered bytes
/// are both deterministic, so this is an exact check of every quick-sweep
/// cell, not a timing; it shares no threads with the wall-clock ratio in
/// `tests/perf_regression.rs`.
#[test]
fn quick_sweep_cells_stay_within_the_event_budget() {
    let rows = parallel_map(&sweep_matrix(true), None, |cell| {
        let out = run_scheme_vs_cross(&cell.scenario, cell.scheme, cell.steady_start_s);
        let packets: u64 = out
            .recorder
            .flows
            .iter()
            .map(|f| f.delivered_bytes / 1500)
            .sum();
        (cell.name(), out.events_processed, packets)
    });
    let mut table = String::new();
    let mut over = 0;
    for (name, events, packets) in &rows {
        let within = *events <= EVENTS_PER_DELIVERED_PACKET * packets;
        over += usize::from(!within);
        table.push_str(&format!(
            "{name:55} {events:>9} ev {packets:>8} pkts {:>6.2} ev/pkt{}\n",
            *events as f64 / (*packets).max(1) as f64,
            if within { "" } else { "  OVER" }
        ));
    }
    println!("{table}");
    assert!(
        over == 0,
        "{over} cell(s) exceed {EVENTS_PER_DELIVERED_PACKET} events per delivered packet:\n{table}"
    );
}
