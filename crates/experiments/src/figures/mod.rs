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
//!   only the cross traffic the grammar cannot express (time-windowed
//!   flows, other RTTs, fixed seeds) built by the helpers below;
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

use crate::runner::{ScenarioSpec, SingleFlowMetrics};
use crate::scheme::SchemeSpec;
use nimbus_core::ElasticityConfig;
use nimbus_netsim::{FlowConfig, FlowEndpoint, FlowSpawner, Time, TimeSeries};
use nimbus_traffic::{FleetSpawner, FleetWorkloadConfig};
use nimbus_transport::{
    BackloggedSource, CcKind, PathInfo, PoissonSource, ScriptedSource, Sender, SenderConfig, Source,
};
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

/// A backlogged elastic cross-flow using the given loss-based scheme.
/// `stop_s` terminates the flow at that time (the application goes away).
pub fn elastic_cross_flow(
    label: &str,
    kind: CcKind,
    rtt_s: f64,
    start_s: f64,
    stop_s: Option<f64>,
) -> (FlowConfig, Box<dyn FlowEndpoint>) {
    scheme_cross_flow(
        label,
        &SchemeSpec::Bare(kind),
        0.0,
        0,
        rtt_s,
        start_s,
        stop_s,
    )
}

/// A backlogged cross-flow running an arbitrary [`SchemeSpec`] — the
/// generalization of [`elastic_cross_flow`] that lets *any* scheme the
/// algebra can express (including Nimbus wrappers) act as cross traffic.
/// `mu_bps` is the nominal bottleneck rate handed to configured-µ wrappers
/// (ignored by bare CCAs) and `seed` drives any randomized behaviour.
/// The flow negotiates ECN when its scheme is ECN-native (`dctcp`,
/// `nimbus(competitive=dctcp)`).  This is the single lowering target of every
/// spec-described scheme cross flow (`ScenarioSpec::cross`).
pub fn scheme_cross_flow(
    label: &str,
    spec: &SchemeSpec,
    mu_bps: f64,
    seed: u64,
    rtt_s: f64,
    start_s: f64,
    stop_s: Option<f64>,
) -> (FlowConfig, Box<dyn FlowEndpoint>) {
    let mut sender_cfg = SenderConfig::labelled(label);
    if let Some(stop) = stop_s {
        sender_cfg = sender_cfg.stopping_at(Time::from_secs_f64(stop));
    }
    let cfg = FlowConfig::cross(label, Time::from_secs_f64(rtt_s), spec.is_elastic())
        .with_ecn(spec.uses_ecn())
        .starting_at(Time::from_secs_f64(start_s));
    let ep: Box<dyn FlowEndpoint> = Box::new(Sender::new(
        sender_cfg,
        spec.build_cc(mu_bps, seed, None),
        Box::new(BackloggedSource),
    ));
    (cfg, ep)
}

/// An inelastic Poisson cross-traffic aggregate at `rate_bps`.
pub fn poisson_cross_flow(
    label: &str,
    rate_bps: f64,
    rtt_s: f64,
    seed: u64,
    start_s: f64,
    stop_s: Option<f64>,
) -> (FlowConfig, Box<dyn FlowEndpoint>) {
    let mut source = PoissonSource::new(rate_bps, 1500, seed);
    let mut sender_cfg = SenderConfig::labelled(label);
    if let Some(stop) = stop_s {
        source = source.until(Time::from_secs_f64(stop));
        sender_cfg = sender_cfg.stopping_at(Time::from_secs_f64(stop));
    }
    let cfg = FlowConfig::cross(label, Time::from_secs_f64(rtt_s), false)
        .starting_at(Time::from_secs_f64(start_s));
    let ep: Box<dyn FlowEndpoint> = Box::new(Sender::new(
        sender_cfg,
        CcKind::Unlimited.build(&PathInfo::new(1500)),
        Box::new(source),
    ));
    (cfg, ep)
}

/// An inelastic constant-bit-rate cross flow at `rate_bps`.
pub fn cbr_cross_flow(
    label: &str,
    rate_bps: f64,
    rtt_s: f64,
    start_s: f64,
    stop_s: Option<f64>,
) -> (FlowConfig, Box<dyn FlowEndpoint>) {
    let source: Box<dyn Source> = match stop_s {
        Some(stop) => Box::new(ScriptedSource::constant(rate_bps).until(Time::from_secs_f64(stop))),
        None => Box::new(ScriptedSource::constant(rate_bps)),
    };
    let mut sender_cfg = SenderConfig::labelled(label);
    if let Some(stop) = stop_s {
        sender_cfg = sender_cfg.stopping_at(Time::from_secs_f64(stop));
    }
    let cfg = FlowConfig::cross(label, Time::from_secs_f64(rtt_s), false)
        .starting_at(Time::from_secs_f64(start_s));
    let ep: Box<dyn FlowEndpoint> = Box::new(Sender::new(
        sender_cfg,
        CcKind::Unlimited.build(&PathInfo::new(1500)),
        source,
    ));
    (cfg, ep)
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

/// The Fig. 1 cross-traffic pattern on a scenario of the given duration:
/// one Cubic flow during `[elastic_start, elastic_end)`, a Poisson aggregate
/// at `inelastic_rate` during `[inelastic_start, inelastic_end)`.
pub fn fig1_cross_traffic(
    scale: f64,
    inelastic_rate_bps: f64,
    seed: u64,
) -> Vec<(FlowConfig, Box<dyn FlowEndpoint>)> {
    vec![
        elastic_cross_flow(
            "cubic-cross",
            CcKind::Cubic,
            0.05,
            30.0 * scale,
            Some(90.0 * scale),
        ),
        poisson_cross_flow(
            "poisson-cross",
            inelastic_rate_bps,
            0.05,
            seed,
            90.0 * scale,
            Some(150.0 * scale),
        ),
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
