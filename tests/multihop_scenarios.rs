//! Path-scenario test tier: the single-bottleneck → path refactor must be
//! provably behaviour-preserving, and the new multi-hop cells must be
//! deterministic regardless of how the matrix is scheduled across threads.

use nimbus_repro::experiments::testkit::{multihop_cells, parallel_map, single_bottleneck_cells};
use nimbus_repro::experiments::{PathSpec, SchemeSpec};
use std::collections::HashMap;

/// Recorder fingerprints of the 18 pre-path matrix cells, captured on the
/// single-bottleneck engine immediately before the path refactor.  Every one
/// of these cells now runs as a 1-hop `PathSpec` — and must reproduce the
/// old engine's recorder output byte for byte.
///
/// The rows whose detector yields a verdict were re-pinned when η moved from
/// the per-report FFT to the sliding DFT (`eta_series` is hashed at full
/// precision and moved by ≤ 1e-12 relative); `FINGERPRINTS.md` has the
/// per-cell diff — recorder output, verdicts and mode logs all identical.
const PRE_REFACTOR_FINGERPRINTS: &[(&str, u64)] = &[
    ("cubic@48M-vs-alone-seed3", 0xc9b047b3b3ca9a57),
    ("cubic@48M-vs-alone-seed11", 0xc9b047b3b3ca9a57),
    ("vegas@48M-vs-alone-seed3", 0x83faf44e9ea9526c),
    ("vegas@48M-vs-alone-seed11", 0x83faf44e9ea9526c),
    ("vegas@96M-vs-cubic-seed5", 0xdbcef018cbc67b16),
    ("vegas@96M-vs-cubic-seed13", 0xdbcef018cbc67b16),
    ("nimbus@96M-vs-cbr83-seed4", 0x8dd12444f867e852),
    ("nimbus@96M-vs-cbr83-seed12", 0x8dd12444f867e852),
    ("nimbus@48M-vs-poisson50-seed1", 0x496fcfd0e58fb842),
    ("nimbus@48M-vs-poisson50-seed9", 0x757cffc216460e7f),
    ("nimbus@48M-vs-cubic-seed2", 0x9664db6d009d9a87),
    ("nimbus@48M-vs-cubic-seed10", 0x9664db6d009d9a87),
    ("nimbus@48M-vs-alone-seed6", 0xa046f599e5fb953c),
    ("nimbus@48M-vs-alone-seed14", 0xa046f599e5fb953c),
    (
        "nimbus-estmu@48M-sin25p20-vs-alone-seed7",
        0x015188cd43f51c51,
    ),
    ("nimbus@48M-sin10p10-vs-alone-seed8", 0x85f2d107a16689c7),
    ("cubic@96M-step50@15-vs-alone-seed9", 0xc49ea25d2c814422),
    ("nimbus@96M-step50@15-vs-alone-seed9", 0xfbb1320dd5da6f81),
];

#[test]
fn one_hop_paths_reproduce_pre_refactor_fingerprints() {
    let pinned: HashMap<&str, u64> = PRE_REFACTOR_FINGERPRINTS.iter().copied().collect();
    let cells = single_bottleneck_cells();
    assert!(
        cells.iter().all(|c| c.scenario.path == PathSpec::single()),
        "the slice is single-bottleneck by construction"
    );
    assert_eq!(
        cells.len(),
        pinned.len(),
        "the single-bottleneck slice of the matrix must still be the original 18 cells"
    );
    let outcomes = parallel_map(&cells, None, |c| c.run());
    for o in &outcomes {
        let expected = pinned
            .get(o.name.as_str())
            .unwrap_or_else(|| panic!("cell {} not in the pinned set", o.name));
        assert_eq!(
            o.fingerprint, *expected,
            "cell {} diverged from the pre-path single-bottleneck engine",
            o.name
        );
    }
}

#[test]
fn multihop_matrix_is_deterministic_across_thread_counts() {
    let cells = multihop_cells();
    assert!(cells.len() >= 4, "need at least 4 multi-hop cells");
    assert!(
        cells.iter().any(|c| c.scenario.path.label().contains("mv")),
        "the multi-hop slice must include a moving-bottleneck cell"
    );
    let serial = parallel_map(&cells, Some(1), |c| c.run());
    let parallel = parallel_map(&cells, Some(4), |c| c.run());
    for (a, b) in serial.iter().zip(parallel.iter()) {
        assert_eq!(a.name, b.name);
        assert_eq!(
            a.fingerprint, b.fingerprint,
            "cell {} depends on worker-thread scheduling",
            a.name
        );
    }
    // And the cells actually hold their paper invariants.
    for o in &serial {
        assert!(o.violations.is_empty(), "{}: {:?}", o.name, o.violations);
    }
}

#[test]
fn learned_mu_tracks_the_path_minimum_not_the_noisy_first_hop() {
    // The estmu multi-hop cell: hop 0 at 48 Mbit/s ± 10%, hop 1 constant at
    // 28.8 Mbit/s.  The learned µ must settle on the 28.8 Mbit/s path
    // minimum; capturing the first hop instead would read ~48 Mbit/s.
    let cell = multihop_cells()
        .into_iter()
        .find(|c| c.scheme == SchemeSpec::nimbus_estmu())
        .expect("the multi-hop slice includes an estimated-µ cell");
    let outcome = cell.run();
    assert!(
        outcome.violations.is_empty(),
        "{}: {:?}",
        outcome.name,
        outcome.violations
    );
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
