//! The paper-invariant matrix: every cell asserts at least one paper
//! invariant and reproduces its row of the fingerprint ledger
//! (`tests/ledger/mod.rs`), which also pins the cells other test files
//! simulate; on a mismatch the test prints the diff and the replacement
//! table (`FINGERPRINTS.md` says how to re-pin).

mod ledger;

use nimbus_repro::experiments::sweep::{read_report, sweep_matrix};
use nimbus_repro::experiments::testkit::{matrix_report, paper_invariant_matrix, run_matrix};
use std::path::Path;

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

/// `BENCH_sweep.json` is keyed by cell name: the quick sweep matrix must keep
/// producing exactly the committed baseline's cells, in its order.
#[test]
fn quick_sweep_cells_are_the_committed_baseline_cells() {
    let baseline = read_report(Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/BENCH_sweep.json"
    )))
    .expect("committed sweep baseline reads");
    let baseline: Vec<&str> = baseline.cells.iter().map(|c| c.name.as_str()).collect();
    let matrix: Vec<String> = sweep_matrix(true).iter().map(|c| c.name()).collect();
    assert_eq!(matrix, baseline);
}
