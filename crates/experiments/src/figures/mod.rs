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
//!   [`run_scheme_vs_cross`](crate::runner::run_scheme_vs_cross);
//! * **projections** — the rows and series read back from the run through
//!   the shared ones below: time windows of a `(t, v)` series, detector
//!   verdicts against ground truth, Jain's index, the first mode flip and
//!   completion times by flow size ([`fct_stats`]).

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
use nimbus_core::ETA_THRESHOLD;
use nimbus_netsim::{FlowConfig, FlowEndpoint};
use std::ops::{Bound, RangeBounds};

/// Parse a figure's scenario string.
///
/// # Panics
/// Panics on a malformed string — figure scenarios are source code.
pub fn scenario(text: &str) -> ScenarioSpec {
    text.parse()
        .unwrap_or_else(|e| panic!("figure scenario `{text}`: {e}"))
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

/// Whether a detector verdict reads elastic by η alone: η at or above the
/// detector's [`ETA_THRESHOLD`].
///
/// The controller's own verdict asks more: the peak at `f_p` must also
/// reach 1% of µ̂, and under `zfilter=adaptive` both bars scale with the µ̂
/// uncertainty.  So every row scored through here — [`accuracy`],
/// [`elastic_fraction`], Fig. 12's `detector_accuracy` and `elastic_recall`
/// — scores a bare-η detector, not the one that switches modes; how far the
/// two disagree is unmeasured.
pub fn is_elastic(eta: f64) -> bool {
    eta >= ETA_THRESHOLD
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

/// Every flow of at least one byte, as a [`fct_stats`] bucket.
pub const ALL_SIZES: (u64, u64) = (0, u64::MAX);

/// The fleet figures' flow-size buckets `(label, lo, hi)`: mice up to
/// 100 kB, elephants from 1 MB, and medium flows between them.
pub const FLEET_SIZE_BUCKETS: [(&str, u64, u64); 3] = [
    ("mice", 0, 100_000),
    ("medium", 100_000, 999_999),
    ("elephant", 999_999, u64::MAX),
];

/// Completion-time statistics of the flows in one size bucket, seconds.
/// An empty bucket reads `count == 0` and NaN statistics: no flows is not
/// instantaneous completion.
#[derive(Debug, Clone, Copy)]
pub struct FctStats {
    /// Completed flows in the bucket.
    pub count: usize,
    /// Mean completion time.
    pub mean_s: f64,
    /// Median completion time.
    pub p50_s: f64,
    /// 95th-percentile completion time.
    pub p95_s: f64,
    /// 99th-percentile completion time.
    pub p99_s: f64,
}

/// The completion times in `record` (a recorder's `fct_stream`) of flows
/// of `lo < size <= hi` bytes, summarised by `nimbus_dsp::mean` and
/// `nimbus_dsp::percentile`.
pub fn fct_stats(record: &[(u64, f64)], (lo, hi): (u64, u64)) -> FctStats {
    let inside = record.iter().filter(|&&(size, _)| lo < size && size <= hi);
    let mut fcts: Vec<f64> = inside.map(|&(_, fct)| fct).collect();
    if fcts.is_empty() {
        let nan = f64::NAN;
        return FctStats {
            count: 0,
            mean_s: nan,
            p50_s: nan,
            p95_s: nan,
            p99_s: nan,
        };
    }
    // The mean sums in completion order: it is taken before a percentile's
    // selection reorders the samples.
    let mean_s = nimbus_dsp::mean(&fcts);
    FctStats {
        count: fcts.len(),
        mean_s,
        p50_s: nimbus_dsp::percentile(&mut fcts, 50.0),
        p95_s: nimbus_dsp::percentile(&mut fcts, 95.0),
        p99_s: nimbus_dsp::percentile(&mut fcts, 99.0),
    }
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
    // An absolute rate scales no hop rate, and a Poisson source takes no µ
    // and runs no video.
    poisson.flow(label, 0.0, 0.0, seed, 0.0)
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
    // Neither flow scales a hop rate, takes a µ or runs a video; the Poisson
    // source keeps its own seed, and a bare CCA draws nothing.
    vec![
        cubic.flow("cubic-cross", 0.0, 0.0, 0, 0.0),
        poisson.flow("poisson-cross", 0.0, 0.0, seed, 0.0),
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
        assert!(is_elastic(ETA_THRESHOLD));
        assert!(!is_elastic(ETA_THRESHOLD - 1e-9));
        let etas = [ETA_THRESHOLD, 0.5, 3.0, 1.0];
        assert_eq!(elastic_fraction(&etas), 0.5);
        assert_eq!(accuracy(&etas, false), 0.5);
        assert_eq!(accuracy(&[], true), 0.0);
    }

    #[test]
    fn fct_buckets_partition_the_record_and_read_dsp_statistics() {
        // Sizes on and beside every fleet bound, in no order.
        let sizes = [
            1_000_000, 500, 100_000, 100_001, 999_999, 20_000_000, 50_000, 1_000_000,
        ];
        let record: Vec<(u64, f64)> = (sizes.iter().enumerate())
            .map(|(i, &size)| (size, 0.01 * (i as f64 + 1.0).powf(1.7)))
            .collect();
        let counts = FLEET_SIZE_BUCKETS.map(|(_, lo, hi)| fct_stats(&record, (lo, hi)).count);
        assert_eq!(counts, [3, 2, 3]);
        assert_eq!(fct_stats(&record, ALL_SIZES).count, record.len());
        // The upper bound is inclusive: 100 000 B is a mouse, 999 999 B is
        // medium and 1 000 000 B an elephant.
        for (size, bucket) in [(100_000, 0), (999_999, 1), (1_000_000, 2)] {
            let counts =
                FLEET_SIZE_BUCKETS.map(|(_, lo, hi)| fct_stats(&[(size, 1.0)], (lo, hi)).count);
            let mut only = [0; 3];
            only[bucket] = 1;
            assert_eq!(counts, only, "{size} B");
        }
        // Every statistic is nimbus-dsp's, bit for bit.
        let buckets = FLEET_SIZE_BUCKETS.map(|(_, lo, hi)| (lo, hi));
        for (lo, hi) in buckets.into_iter().chain([ALL_SIZES]) {
            let mut fcts: Vec<f64> = record
                .iter()
                .filter(|&&(size, _)| lo < size && size <= hi)
                .map(|&(_, fct)| fct)
                .collect();
            let stats = fct_stats(&record, (lo, hi));
            assert_eq!(stats.count, fcts.len());
            assert_eq!(stats.mean_s.to_bits(), nimbus_dsp::mean(&fcts).to_bits());
            for (got, p) in [
                (stats.p50_s, 50.0),
                (stats.p95_s, 95.0),
                (stats.p99_s, 99.0),
            ] {
                let want = nimbus_dsp::percentile(&mut fcts, p);
                assert_eq!(got.to_bits(), want.to_bits(), "p{p} of ({lo}, {hi}]");
            }
        }
        let empty = fct_stats(&record, (20_000_000, u64::MAX));
        assert_eq!(empty.count, 0);
        let statistics = [empty.mean_s, empty.p50_s, empty.p95_s, empty.p99_s];
        assert!(statistics.iter().all(|s| s.is_nan()));
    }

    #[test]
    fn jain_index_is_one_for_equal_rates() {
        assert_eq!(jain_index(&[7.5; 4]), 1.0);
        assert!(jain_index(&[1.0, 0.0]) < 1.0);
        assert!(jain_index(&[]).is_nan());
    }
}
