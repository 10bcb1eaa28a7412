//! Time-varying bottleneck experiments (beyond the paper's fixed-µ links).
//!
//! The paper's detector depends on a live estimate of the bottleneck rate µ
//! (§4.2) and claims robustness across network conditions; these experiments
//! probe exactly the regime the fixed-rate evaluation cannot reach:
//!
//! * `varying_mu` — how well the BBR-style max-filter µ estimator tracks a
//!   sinusoidally varying link;
//! * `varying_detector` — whether the elasticity detector stays quiet (delay
//!   mode) when the *link*, not the cross traffic, is what oscillates;
//! * `varying_step` — how quickly Cubic and Nimbus converge to a halved link
//!   rate;
//! * `varying_estimator` — the µ-estimation strategy axis on the ±10%
//!   sinusoid where the plain max filter loses delay mode: every
//!   learned-µ/ẑ-filter combination side by side.

use super::{after, elastic_fraction, scenario, window, window_mean};
use crate::output::ExperimentResult;
use crate::runner::run_scheme_vs_cross;
use crate::scheme::SchemeSpec;
use std::ops::Bound::Excluded;

/// First time (seconds) after `after_s` at which the throughput series stays
/// within `tolerance` of `target` for a full second — the convergence point
/// after a rate transition.  NaN when it never converges.
fn convergence_time_s(series: &[(f64, f64)], after_s: f64, target: f64, tolerance: f64) -> f64 {
    let close: Vec<(f64, bool)> = series
        .iter()
        .filter(|(t, _)| *t >= after_s)
        .map(|&(t, v)| (t, (v - target).abs() <= tolerance))
        .collect();
    let series_end = match close.last() {
        Some(&(t, _)) => t,
        None => return f64::NAN,
    };
    for (i, &(t, ok)) in close.iter().enumerate() {
        if !ok {
            continue;
        }
        // A full second of evidence must exist: a band touch in the last few
        // samples of the run is not convergence.
        if t + 1.0 > series_end {
            break;
        }
        let window_ok = close
            .iter()
            .skip(i)
            .take_while(|(t2, _)| *t2 <= t + 1.0)
            .all(|&(_, o)| o);
        if window_ok {
            return t - after_s;
        }
    }
    f64::NAN
}

/// µ-tracking accuracy: a lone Nimbus flow that *learns* µ from its max
/// receive rate, on a ±25% sinusoidal link.
pub fn varying_mu(quick: bool) -> ExperimentResult {
    let duration = if quick { 40.0 } else { 90.0 };
    let mut result = ExperimentResult::new(
        "varying_mu",
        "Nimbus µ-estimate tracking a ±25% sinusoidal bottleneck (learned µ)",
        quick,
    );
    for &(period_s, tag) in &[(10.0, "p10"), (20.0, "p20")] {
        let spec = scenario(&format!(
            "48M sin(0.25,{period_s}s) seed=31 dur={duration}s"
        ));
        let out = run_scheme_vs_cross(&spec, SchemeSpec::nimbus_estmu(), 15.0);
        let m = &out.flows[0];
        result.row(&format!("mu_tracking_error_{tag}"), m.mu_tracking_error);
        result.row(&format!("throughput_mbps_{tag}"), m.mean_throughput_mbps);
        result.add_series(
            &format!("mu_estimate_mbps_{tag}"),
            m.mu_series.iter().map(|&(t, mu)| (t, mu / 1e6)).collect(),
        );
        result.add_series(
            &format!("throughput_series_{tag}"),
            m.throughput_series.clone(),
        );
    }
    result
}

/// Detector stability: Nimbus alone on an oscillating link must not mistake
/// the link's own rate variation for elastic cross traffic.
///
/// The ±25% rows carry the PR 2 finding (plain Nimbus loses delay mode when
/// the link itself swings that hard); the `amp25_adaptive*` rows re-measure
/// that regime under the PR 5 µ-error-aware adaptive thresholds, with both
/// configured and learned µ.
pub fn varying_detector(quick: bool) -> ExperimentResult {
    let duration = if quick { 40.0 } else { 90.0 };
    let mut result = ExperimentResult::new(
        "varying_detector",
        "Detector stability alone on a ±25% oscillating bottleneck",
        quick,
    );
    for (spec_text, amplitude, tag) in [
        ("nimbus", 0.1, "amp10"),
        ("nimbus", 0.25, "amp25"),
        ("nimbus(zfilter=adaptive)", 0.25, "amp25_adaptive"),
        (
            "nimbus(mu=learned,zfilter=adaptive)",
            0.25,
            "amp25_adaptive_learned",
        ),
    ] {
        let spec = scenario(&format!("48M sin({amplitude},10s) seed=32 dur={duration}s"));
        let scheme: SchemeSpec = spec_text.parse().expect("detector spec parses");
        let out = run_scheme_vs_cross(&spec, scheme, 10.0);
        let m = &out.flows[0];
        result.row(&format!("delay_mode_fraction_{tag}"), m.delay_mode_fraction);
        result.row(&format!("throughput_mbps_{tag}"), m.mean_throughput_mbps);
        let etas = window(&m.eta_series, after(10.0));
        result.row(
            &format!("spurious_elastic_fraction_{tag}"),
            elastic_fraction(&etas),
        );
        result.add_series(&format!("eta_series_{tag}"), m.eta_series.clone());
    }
    result
}

/// The estimator-strategy axis on the ±10% sinusoid (the ROADMAP regime
/// where every learned-µ wrapper loses delay mode): the plain max filter,
/// the µ-error-aware adaptive thresholds, the link-frequency notch, and the
/// probing estimator, with configured µ as the reference.
pub fn varying_estimator(quick: bool) -> ExperimentResult {
    let duration = if quick { 40.0 } else { 90.0 };
    let mut result = ExperimentResult::new(
        "varying_estimator",
        "µ-estimation strategies and ẑ filters alone on a ±10% sinusoidal bottleneck",
        quick,
    );
    let spec = scenario(&format!("48M sin(0.1,10s) seed=43 dur={duration}s"));
    for (spec_text, tag) in [
        ("nimbus", "configured"),
        ("nimbus(mu=learned)", "maxfilt"),
        ("nimbus(mu=learned,zfilter=adaptive)", "adaptive"),
        ("nimbus(mu=learned,zfilter=notch(freq=0.1))", "notch"),
        ("nimbus(mu=learned(probe=1))", "probing"),
    ] {
        let scheme: SchemeSpec = spec_text.parse().expect("estimator spec parses");
        let out = run_scheme_vs_cross(&spec, scheme, 10.0);
        let m = &out.flows[0];
        result.row(&format!("delay_mode_fraction_{tag}"), m.delay_mode_fraction);
        result.row(&format!("throughput_mbps_{tag}"), m.mean_throughput_mbps);
        result.row(&format!("queue_delay_ms_{tag}"), m.mean_queue_delay_ms);
        result.row(&format!("mu_error_{tag}"), m.mu_tracking_error);
        result.add_series(&format!("eta_series_{tag}"), m.eta_series.clone());
    }
    result
}

/// Rate step: Cubic vs Nimbus as the link halves from 96 to 48 Mbit/s.
pub fn varying_step(quick: bool) -> ExperimentResult {
    let duration = if quick { 40.0 } else { 80.0 };
    let step_at = duration * 0.45;
    let mut result = ExperimentResult::new(
        "varying_step",
        "Cubic vs Nimbus under a 96 -> 48 Mbit/s rate step",
        quick,
    );
    let spec = scenario(&format!("96M step({step_at}s,0.5) seed=33 dur={duration}s"));
    for scheme in [SchemeSpec::cubic(), SchemeSpec::nimbus()] {
        let out = run_scheme_vs_cross(&spec, scheme, step_at + 5.0);
        let m = &out.flows[0];
        result.row(
            &format!("{}_pre_step_mbps", m.label),
            window_mean(&m.throughput_series, (Excluded(8.0), Excluded(step_at))),
        );
        result.row(
            &format!("{}_post_step_mbps", m.label),
            m.mean_throughput_mbps,
        );
        result.row(
            &format!("{}_convergence_s", m.label),
            convergence_time_s(&m.throughput_series, step_at, 48.0, 12.0),
        );
        result.add_series(
            &format!("{}_throughput", m.label),
            m.throughput_series.clone(),
        );
        result.add_series(&format!("{}_rtt", m.label), m.rtt_series.clone());
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn convergence_detection_finds_the_settle_point() {
        // Throughput holds 96 until t=10, dips, then settles at 48 from t=12.
        let mut series: Vec<(f64, f64)> = (0..100).map(|i| (i as f64 * 0.1, 96.0)).collect();
        series.extend((100..120).map(|i| (i as f64 * 0.1, 70.0)));
        series.extend((120..200).map(|i| (i as f64 * 0.1, 48.0)));
        let c = convergence_time_s(&series, 10.0, 48.0, 5.0);
        assert!((c - 2.0).abs() < 0.2, "convergence {c}");
        // Never converging yields NaN.
        let flat: Vec<(f64, f64)> = (0..100).map(|i| (i as f64 * 0.1, 96.0)).collect();
        assert!(convergence_time_s(&flat, 1.0, 48.0, 5.0).is_nan());
    }
}
