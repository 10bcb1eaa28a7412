//! Contract tests for the pluggable µ-estimation API.
//!
//! 1. **Behaviour preservation**: every `mu=learned` wrapper flavour —
//!    including the two ROADMAP degraded regimes the API exists to fix —
//!    reproduces the recorder fingerprints captured on the pre-API
//!    hardwired estimator, byte for byte.  The default `maxfilt` strategy
//!    IS the old estimator.
//! 2. **Recovered regimes**: the [`estimator_cells`] matrix slice (also run
//!    as part of the full paper-invariant matrix) demonstrates that a
//!    non-default estimator recovers the cellular deep fade (≥ 10 Mbit/s
//!    vs 0.12 pinned below) and the ±10% sinusoid (delay fraction ≥ 0.9 vs
//!    0.17 pinned below), without suppressing genuine elasticity.
//! 3. **Canonical strings**: the `mu=learned(...)` / `zfilter=...` forms
//!    print and parse as documented (the round-trip proptest and the
//!    rejection table for the whole grammar live in `tests/scheme_spec.rs`).

use nimbus_repro::experiments::testkit::{estimator_cells, parallel_map, Cell};
use nimbus_repro::experiments::SchemeSpec;
use nimbus_repro::nimbus::{LearnedMuConfig, ProbingConfig, ZFilterConfig};

/// Every learned-µ wrapper flavour as a whole-cell string, with the cell
/// name and recorder fingerprint captured on the pre-API hardwired max-filter
/// estimator immediately before the redesign.  The sinusoid and cellular
/// cells pin the *degraded* behaviour (delay fraction 0.17, throughput
/// 0.12 Mbit/s): the default strategy must keep reproducing even the failure
/// modes exactly — fixes ride on non-default strategies.
///
/// The rows whose detector yields a verdict were re-pinned when η moved from
/// the per-report FFT to the sliding DFT (`eta_series` is hashed at full
/// precision and moved by ≤ 1e-12 relative); `FINGERPRINTS.md` has the
/// per-cell diff — recorder output, verdicts and mode logs all identical.
const PRE_API_FINGERPRINTS: &[(&str, &str, u64)] = &[
    (
        "nimbus(mu=learned)@48M vs alone seed=41 dur=20s steady=6s",
        "nimbus-estmu@48M-vs-alone-seed41",
        0x8404ff5bab056907,
    ),
    (
        "nimbus(delay=copa,mu=learned)@48M vs alone seed=41 dur=20s steady=6s",
        "nimbus-copa-estmu@48M-vs-alone-seed41",
        0xed2685754fd494d1,
    ),
    (
        "nimbus(delay=vegas,mu=learned)@48M vs alone seed=41 dur=20s steady=6s",
        "nimbus-vegas-estmu@48M-vs-alone-seed41",
        0xcb375f8b1d867f84,
    ),
    (
        "nimbus(competitive=reno,mu=learned)@48M vs alone seed=41 dur=20s steady=6s",
        "nimbus-reno-estmu@48M-vs-alone-seed41",
        0x2f938fad8f54c9c9,
    ),
    (
        "nimbus(mu=learned,switch=never)@48M vs alone seed=41 dur=20s steady=6s",
        "nimbus-delay-estmu@48M-vs-alone-seed41",
        0xa2e8ad19a2982eab,
    ),
    (
        "nimbus(mu=learned)@96M vs cubic seed=42 dur=25s steady=8s",
        "nimbus-estmu@96M-vs-cubic-seed42",
        0xf567457982251b7b,
    ),
    // The two ROADMAP degraded regimes, pinned in their degraded state.
    (
        "nimbus(mu=learned)@48M sin(0.1,10s) vs alone seed=43 dur=30s steady=10s",
        "nimbus-estmu@48M-sin10p10-vs-alone-seed43",
        0x94fdd57bbea2d852,
    ),
    (
        "nimbus(mu=learned)@48M trace-cellular vs alone seed=44 dur=30s steady=10s",
        "nimbus-estmu@48M-trace-cellular-vs-alone-seed44",
        0x4ab456cd436dc519,
    ),
];

#[test]
fn maxfilt_is_byte_identical_to_the_pre_api_estimator() {
    let cells: Vec<Cell> = PRE_API_FINGERPRINTS
        .iter()
        .map(|(cell, _, _)| cell.parse().expect("pinned cell parses"))
        .collect();
    let outcomes = parallel_map(&cells, None, |c| c.run());
    for (o, &(_, name, fingerprint)) in outcomes.iter().zip(PRE_API_FINGERPRINTS) {
        assert_eq!(o.name, name);
        assert_eq!(
            o.fingerprint, fingerprint,
            "cell {name} diverged from the pre-API hardwired estimator"
        );
    }
}

#[test]
fn non_default_estimators_recover_the_degraded_regimes() {
    let cells = estimator_cells();
    assert!(cells.len() >= 3);
    let outcomes = parallel_map(&cells, None, |c| c.run());
    for o in &outcomes {
        assert!(o.violations.is_empty(), "{}: {:?}", o.name, o.violations);
    }
    // The headline numbers, stated directly: the cellular deep fade is
    // survived (0.12 Mbit/s on the pinned max filter) and the sinusoid
    // holds delay mode (0.17 on the pinned max filter).
    let cellular = outcomes
        .iter()
        .find(|o| o.name.contains("trace-cellular"))
        .expect("cellular cell present");
    assert!(
        cellular.metrics.mean_throughput_mbps >= 10.0,
        "probing estimator got {} Mbit/s through the deep fades",
        cellular.metrics.mean_throughput_mbps
    );
    let sinusoid = outcomes
        .iter()
        .find(|o| o.name.contains("sin10p10"))
        .expect("sinusoid cell present");
    assert!(
        sinusoid.metrics.delay_mode_fraction >= 0.9,
        "adaptive thresholds held delay mode only {:.2} of the time",
        sinusoid.metrics.delay_mode_fraction
    );
}

#[test]
fn canonical_estimator_spec_strings() {
    // Defaults render compactly; non-defaults render their parameters.
    assert_eq!(
        SchemeSpec::nimbus().with_learned_mu().to_string(),
        "nimbus(mu=learned)"
    );
    let probing = |cfg| SchemeSpec::nimbus().with_mu_strategy(LearnedMuConfig::Probing(cfg));
    let quiesced = ProbingConfig {
        quiesce_uncertainty_floor: 0.4,
        ..ProbingConfig::default()
    };
    assert_eq!(
        probing(ProbingConfig::default()).to_string(),
        "nimbus(mu=learned(probe=1))"
    );
    assert_eq!(
        probing(quiesced).to_string(),
        "nimbus(mu=learned(probe=1,quiesce=0.4))"
    );
    assert_eq!(
        "nimbus(mu=learned(probe=1,quiesce=0.4))"
            .parse::<SchemeSpec>()
            .unwrap(),
        probing(quiesced)
    );
    assert_eq!(
        SchemeSpec::nimbus()
            .with_learned_mu()
            .with_z_filter(ZFilterConfig::adaptive())
            .to_string(),
        "nimbus(mu=learned,zfilter=adaptive)"
    );
    assert_eq!(
        SchemeSpec::nimbus()
            .with_z_filter(ZFilterConfig::notch(0.1))
            .to_string(),
        "nimbus(zfilter=notch(freq=0.1))"
    );
    // Parameterised forms parse back to exactly the right configs.
    let spec: SchemeSpec = "nimbus(mu=learned(probe=2,gain=3,dur=0.5,window=8))"
        .parse()
        .unwrap();
    assert_eq!(
        spec,
        SchemeSpec::nimbus().with_mu_strategy(LearnedMuConfig::Probing(ProbingConfig {
            probe_interval_s: 2.0,
            probe_gain: 3.0,
            probe_duration_s: 0.5,
            window_s: 8.0,
            ..ProbingConfig::default()
        }))
    );
    let spec: SchemeSpec = "nimbus(mu=learned(window=5))".parse().unwrap();
    assert_eq!(
        spec,
        SchemeSpec::nimbus().with_mu_strategy(LearnedMuConfig::MaxFilter { window_s: 5.0 })
    );
    // Labels keep the historical `-estmu` stem and append strategy slugs.
    assert_eq!(
        probing(ProbingConfig::default()).label(),
        "nimbus-estmu-probe1"
    );
    assert_eq!(
        SchemeSpec::nimbus()
            .with_learned_mu()
            .with_z_filter(ZFilterConfig::adaptive())
            .label(),
        "nimbus-estmu-zadapt"
    );
}
