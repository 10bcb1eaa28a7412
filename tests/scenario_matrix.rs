//! The paper-invariant matrix: every cell asserts at least one paper
//! invariant, stays within the event budget `Cell::run` checks, and
//! reproduces its row of the fingerprint ledger (`tests/ledger/mod.rs`),
//! which also pins the cells other test files simulate; on a mismatch the
//! test prints the diff and the replacement table (`FINGERPRINTS.md` says
//! how to re-pin).  Every ledger key is its cell's canonical string.

mod ledger;

use nimbus_repro::experiments::testkit::{paper_invariant_matrix, run_matrix, Cell};

#[test]
fn paper_invariants_hold_across_the_matrix() {
    let outcomes = run_matrix(&paper_invariant_matrix());
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

/// A stale or mistyped key fails here, by name, rather than as a `missing`
/// row beside an `extra` one.
#[test]
fn every_ledger_key_parses_and_prints_back_to_itself() {
    for &(key, _) in ledger::FINGERPRINTS {
        let cell: Cell = key
            .parse()
            .unwrap_or_else(|e| panic!("ledger key `{key}`: {e}"));
        assert_eq!(cell.to_string(), key);
    }
}
