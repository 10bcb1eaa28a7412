//! One module per group of figures, plus what they share.
//!
//! A figure is three things:
//!
//! * **scenario strings** — each run's link, path, cross traffic, seed and
//!   duration in the grammar of
//!   [`grammar_reference`](crate::runner::grammar_reference), parsed by
//!   [`scenario`];
//! * **one run path** — [`run_scenario`](crate::runner::run_scenario), or
//!   its one-flow case
//!   [`run_scheme_vs_cross`](crate::runner::run_scheme_vs_cross), with
//!   only the cross traffic the grammar has no family for built by hand:
//!   Fig. 8's scripted Poisson phases, Fig. 11's video and the drained WAN
//!   fleets ([`drained_fleet`]);
//! * **projections** — the rows and series read back from the run through
//!   the shared ones below: time windows of a `(t, v)` series, detector
//!   verdicts against ground truth, Jain's index and the first mode flip.

pub mod eval;
pub mod fleet;
pub mod internet;
pub mod intro;
pub mod l4s;
pub mod multiflow;
pub mod multihop;
pub mod robust;
pub mod varying;

use crate::runner::{CrossRate, CrossSource, CrossSpec, ScenarioSpec, SingleFlowMetrics};
use crate::scheme::SchemeSpec;
use nimbus_core::ElasticityConfig;
use nimbus_netsim::{FlowConfig, FlowEndpoint, FlowSpawner, TimeSeries};
use nimbus_traffic::{FleetSpawner, FleetWorkloadConfig};
use std::ops::{Bound, RangeBounds};

/// Parse a figure's scenario string.
///
/// # Panics
/// Panics on a malformed string — figure scenarios are source code.
pub fn scenario(text: &str) -> ScenarioSpec {
    text.parse()
        .unwrap_or_else(|e| panic!("figure scenario `{text}`: {e}"))
}

/// A recorder series as `(t, v)` pairs.
pub fn pairs(series: &TimeSeries) -> Vec<(f64, f64)> {
    let values = series.v.iter().copied();
    series.t.iter().copied().zip(values).collect()
}

/// The values of a `(t, v)` series whose time lies in `range`.
pub fn window(series: &[(f64, f64)], range: impl RangeBounds<f64>) -> Vec<f64> {
    let inside = series.iter().filter(|(t, _)| range.contains(t));
    inside.map(|&(_, v)| v).collect()
}

/// The mean of [`window`]; 0.0 for an empty window (as `nimbus_dsp::mean`).
pub fn window_mean(series: &[(f64, f64)], range: impl RangeBounds<f64>) -> f64 {
    nimbus_dsp::mean(&window(series, range))
}

/// Every time strictly after `t_s`, as a [`window`] range.
pub fn after(t_s: f64) -> (Bound<f64>, Bound<f64>) {
    (Bound::Excluded(t_s), Bound::Unbounded)
}

/// Whether a detector verdict reads elastic: η at or above the detector's
/// own threshold.
pub fn is_elastic(eta: f64) -> bool {
    eta >= ElasticityConfig::default().eta_threshold
}

/// The fraction of `verdicts` equal to `truth`; 0.0 when there are none.
pub fn agreement(verdicts: impl IntoIterator<Item = bool>, truth: bool) -> f64 {
    let verdicts: Vec<bool> = verdicts.into_iter().collect();
    let agree = verdicts.iter().filter(|&&v| v == truth).count();
    agree as f64 / verdicts.len().max(1) as f64
}

/// Detector accuracy: the fraction of η verdicts that agree with whether
/// the cross traffic is elastic.
pub fn accuracy(etas: &[f64], truth_elastic: bool) -> f64 {
    agreement(etas.iter().map(|&eta| is_elastic(eta)), truth_elastic)
}

/// The fraction of η verdicts that read elastic.
pub fn elastic_fraction(etas: &[f64]) -> f64 {
    accuracy(etas, true)
}

/// Jain's fairness index: `(Σx)² / (n·Σx²)`, 1.0 = perfectly fair.
pub fn jain_index(rates: &[f64]) -> f64 {
    if rates.is_empty() {
        return f64::NAN;
    }
    let sum: f64 = rates.iter().sum();
    let sumsq: f64 = rates.iter().map(|r| r * r).sum();
    sum * sum / (rates.len() as f64 * sumsq)
}

/// Time of a Nimbus flow's first switch into competitive mode, or `-1.0` if
/// it held delay mode for the whole run.
pub fn first_flip_s(m: &SingleFlowMetrics) -> f64 {
    m.mode_log
        .iter()
        .find(|(_, mode)| mode == "competitive")
        .map(|&(t, _)| t)
        .unwrap_or(-1.0)
}

/// An inelastic Poisson cross flow at `rate_bps`: a `poisson@<rate>` entry
/// ([`CrossSpec`]) lowered under `label`.  Figures write such flows in their
/// scenario strings; this stays for the benchmark, which builds its cross
/// traffic by hand.
pub fn poisson_cross_flow(
    label: &str,
    rate_bps: f64,
    rtt_s: f64,
    seed: u64,
    start_s: f64,
    stop_s: Option<f64>,
) -> (FlowConfig, Box<dyn FlowEndpoint>) {
    let poisson = CrossSpec {
        rtt_s,
        start_s,
        stop_s,
        ..CrossSpec::new(CrossSource::Poisson(CrossRate::Bps(rate_bps)))
    };
    // An absolute rate scales no hop rate, and a Poisson source takes no µ.
    poisson.flow(label, 0.0, 0.0, seed)
}

/// The CAIDA-like WAN cross traffic of §8.1 as a static flow list: the
/// Poisson fleet of `cfg`, drained up front so it can ride along with other
/// imperative cross flows.
pub fn drained_fleet(cfg: FleetWorkloadConfig) -> Vec<(FlowConfig, Box<dyn FlowEndpoint>)> {
    let mut spawner = FleetSpawner::new(cfg);
    std::iter::from_fn(|| spawner.next_flow())
        .map(|(_, flow, endpoint)| (flow, endpoint))
        .collect()
}

/// The Fig. 1 cross traffic: one Cubic flow over `[30, 90)·scale` s, then
/// Poisson traffic at `inelastic_rate_bps` drawing from `seed` over
/// `[90, 150)·scale` s.
fn fig1_flows(scale: f64, inelastic_rate_bps: f64, seed: u64) -> [CrossSpec; 2] {
    let [elastic, inelastic, end] = [30.0, 90.0, 150.0].map(|t| t * scale);
    let window = |source, start_s, stop| CrossSpec {
        start_s,
        stop_s: Some(stop),
        ..CrossSpec::new(source)
    };
    let poisson = CrossSource::Poisson(CrossRate::Bps(inelastic_rate_bps));
    [
        window(CrossSource::Scheme(SchemeSpec::cubic()), elastic, inelastic),
        CrossSpec {
            seed: Some(seed),
            ..window(poisson, inelastic, end)
        },
    ]
}

/// The Fig. 1 cross traffic, with 24 Mbit/s of Poisson traffic, as a
/// scenario's `vs` list.
pub fn fig1_cross(scale: f64, seed: u64) -> String {
    let [cubic, poisson] = fig1_flows(scale, 24e6, seed);
    format!("{cubic}+{poisson}")
}

/// The Fig. 1 cross traffic lowered onto flows named `cubic-cross` and
/// `poisson-cross`.  Figures write [`fig1_cross`]; this stays for the
/// benchmark, which builds its cross traffic by hand.
pub fn fig1_cross_traffic(
    scale: f64,
    inelastic_rate_bps: f64,
    seed: u64,
) -> Vec<(FlowConfig, Box<dyn FlowEndpoint>)> {
    let [cubic, poisson] = fig1_flows(scale, inelastic_rate_bps, seed);
    // Neither flow scales a hop rate or takes a µ; the Poisson source keeps
    // its own seed, and a bare CCA draws nothing.
    vec![
        cubic.flow("cubic-cross", 0.0, 0.0, 0),
        poisson.flow("poisson-cross", 0.0, 0.0, seed),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_keep_each_sites_bounds() {
        let series = [(1.0, 10.0), (2.0, 20.0), (3.0, 30.0)];
        assert_eq!(window(&series, 1.0..=3.0), [10.0, 20.0, 30.0]);
        assert_eq!(window(&series, 2.0..), [20.0, 30.0]);
        assert_eq!(window(&series, after(2.0)), [30.0]);
        let open = (Bound::Excluded(1.0), Bound::Excluded(3.0));
        assert_eq!(window_mean(&series, open), 20.0);
        // An empty window reads 0.0, not NaN.
        assert_eq!(window_mean(&series, after(3.0)), 0.0);
    }

    #[test]
    fn eta_at_the_threshold_reads_elastic() {
        let threshold = ElasticityConfig::default().eta_threshold;
        assert!(is_elastic(threshold));
        assert!(!is_elastic(threshold - 1e-9));
        let etas = [threshold, 0.5, 3.0, 1.0];
        assert_eq!(elastic_fraction(&etas), 0.5);
        assert_eq!(accuracy(&etas, false), 0.5);
        assert_eq!(accuracy(&[], true), 0.0);
    }

    #[test]
    fn jain_index_is_one_for_equal_rates() {
        assert_eq!(jain_index(&[7.5; 4]), 1.0);
        assert!(jain_index(&[1.0, 0.0]) < 1.0);
        assert!(jain_index(&[]).is_nan());
    }
}
