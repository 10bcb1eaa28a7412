//! Behaviour preservation for the pluggable µ-estimation API: every
//! `mu=learned` wrapper flavour — including the two degraded regimes the API
//! exists to fix — reproduces its row of the fingerprint ledger
//! (`tests/ledger/mod.rs`), captured on the pre-API hardwired estimator.  The
//! default `maxfilt` strategy IS the old estimator.  (The non-default
//! strategies' recoveries are matrix invariants; the canonical `mu=…` /
//! `zfilter=…` strings are tested in `tests/scheme_spec.rs`.)

mod ledger;

use nimbus_repro::experiments::testkit::run_matrix;

/// The cells assert no invariant, so their one possible violation is the
/// event budget `Cell::run` checks.
#[test]
fn maxfilt_is_byte_identical_to_the_pre_api_estimator() {
    let outcomes = run_matrix(&ledger::cells(ledger::PRE_API));
    for o in &outcomes {
        assert!(o.violations.is_empty(), "{}: {:?}", o.name, o.violations);
    }
    ledger::assert_pinned(&outcomes);
}
