//! Summary statistics used across the experiment harness.
//!
//! Every figure in the paper is either a time series, a CDF, or a
//! scatter/summary of throughput and delay distributions.  The helpers here —
//! percentiles, empirical CDFs, running statistics, classification-accuracy
//! summaries — are shared by the experiment runners and the benches.

use serde::{Deserialize, Serialize};

/// Arithmetic mean. Returns 0.0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample standard deviation (n-1 denominator). Returns 0.0 for fewer than two samples.
pub fn stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64;
    var.sqrt()
}

/// Percentile via linear interpolation between closest ranks.
///
/// `p` is in `[0, 100]`. Returns 0.0 for an empty slice.  Samples are ordered
/// by [`f64::total_cmp`], so a NaN sorts above every number instead of
/// panicking.  Selects the two ranks it reads instead of sorting: the result
/// is the one [`percentile_of_sorted`] gives on the `total_cmp`-sorted copy.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.len() < 2 {
        return xs.first().copied().unwrap_or(0.0);
    }
    let (lo, hi, frac) = closest_ranks(xs.len(), p);
    let mut scratch = xs.to_vec();
    let (_, &mut at_lo, above) = scratch.select_nth_unstable_by(lo, f64::total_cmp);
    if lo == hi {
        return at_lo;
    }
    // `hi == lo + 1`: the next rank is the smallest sample above `lo`.
    let at_hi = above.iter().copied().min_by(f64::total_cmp);
    interpolate(at_lo, at_hi.expect("hi < len"), frac)
}

/// Percentile of an already sorted slice.
pub fn percentile_of_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.len() < 2 {
        return sorted.first().copied().unwrap_or(0.0);
    }
    let (lo, hi, frac) = closest_ranks(sorted.len(), p);
    if lo == hi {
        sorted[lo]
    } else {
        interpolate(sorted[lo], sorted[hi], frac)
    }
}

/// The two ranks percentile `p` of `len >= 2` samples falls between, and how
/// far from the lower one.
fn closest_ranks(len: usize, p: f64) -> (usize, usize, f64) {
    let rank = p.clamp(0.0, 100.0) / 100.0 * (len - 1) as f64;
    let lo = rank.floor() as usize;
    (lo, rank.ceil() as usize, rank - lo as f64)
}

fn interpolate(at_lo: f64, at_hi: f64, frac: f64) -> f64 {
    at_lo * (1.0 - frac) + at_hi * frac
}

/// Median (50th percentile).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// An empirical cumulative distribution function over a sample set.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Build a CDF from (unsorted) samples.
    pub fn from_samples(samples: &[f64]) -> Self {
        let mut sorted: Vec<f64> = samples.iter().copied().filter(|v| v.is_finite()).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        Cdf { sorted }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Value at quantile `q` in `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        percentile_of_sorted(&self.sorted, q * 100.0)
    }

    /// Median of the samples.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Mean of the samples.
    pub fn mean(&self) -> f64 {
        mean(&self.sorted)
    }

    /// Sample the CDF at `points` evenly spaced quantiles — exactly the series
    /// a plotted CDF figure needs. Returns `(value, cumulative_probability)` pairs.
    pub fn curve(&self, points: usize) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() || points == 0 {
            return Vec::new();
        }
        (0..=points)
            .map(|i| {
                let q = i as f64 / points as f64;
                (self.quantile(q), q)
            })
            .collect()
    }

    /// The minimum sample.
    pub fn min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    /// The maximum sample.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }
}

/// Online mean/variance/extrema accumulator (Welford's algorithm).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// A fresh accumulator.
    pub fn new() -> Self {
        RunningStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add an observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean of observations (0.0 if none).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance (0.0 for fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observation, if any.
    pub fn min(&self) -> Option<f64> {
        if self.n == 0 {
            None
        } else {
            Some(self.min)
        }
    }

    /// Maximum observation, if any.
    pub fn max(&self) -> Option<f64> {
        if self.n == 0 {
            None
        } else {
            Some(self.max)
        }
    }

    /// Merge another accumulator into this one.
    pub fn merge(&mut self, other: &RunningStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let total = self.n + other.n;
        let delta = other.mean - self.mean;
        let new_mean = self.mean + delta * other.n as f64 / total as f64;
        self.m2 =
            self.m2 + other.m2 + delta * delta * (self.n as f64) * (other.n as f64) / total as f64;
        self.mean = new_mean;
        self.n = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Binary-classification accuracy accumulator used by the robustness
/// experiments (§8.2): "fraction of time the detector is in the correct mode".
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ClassificationAccuracy {
    /// Decisions where ground truth was "elastic".
    pub elastic_total: u64,
    /// Correct decisions when ground truth was "elastic".
    pub elastic_correct: u64,
    /// Decisions where ground truth was "inelastic".
    pub inelastic_total: u64,
    /// Correct decisions when ground truth was "inelastic".
    pub inelastic_correct: u64,
}

impl ClassificationAccuracy {
    /// Record one decision: `truth_elastic` is the ground truth,
    /// `detected_elastic` the detector's output.
    pub fn record(&mut self, truth_elastic: bool, detected_elastic: bool) {
        if truth_elastic {
            self.elastic_total += 1;
            if detected_elastic {
                self.elastic_correct += 1;
            }
        } else {
            self.inelastic_total += 1;
            if !detected_elastic {
                self.inelastic_correct += 1;
            }
        }
    }

    /// Overall fraction of correct decisions.
    pub fn accuracy(&self) -> f64 {
        let total = self.elastic_total + self.inelastic_total;
        if total == 0 {
            return 0.0;
        }
        (self.elastic_correct + self.inelastic_correct) as f64 / total as f64
    }

    /// Accuracy restricted to elastic ground truth (recall of "elastic").
    pub fn elastic_accuracy(&self) -> f64 {
        if self.elastic_total == 0 {
            return 0.0;
        }
        self.elastic_correct as f64 / self.elastic_total as f64
    }

    /// Accuracy restricted to inelastic ground truth.
    pub fn inelastic_accuracy(&self) -> f64 {
        if self.inelastic_total == 0 {
            return 0.0;
        }
        self.inelastic_correct as f64 / self.inelastic_total as f64
    }

    /// Total number of decisions recorded.
    pub fn total(&self) -> u64 {
        self.elastic_total + self.inelastic_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn percentile_of_known_data() {
        let xs = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 50.0), 3.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
        assert_eq!(percentile(&xs, 25.0), 2.0);
        assert!((percentile(&xs, 90.0) - 4.6).abs() < 1e-12);
    }

    #[test]
    fn percentile_handles_edge_cases() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn percentile_orders_nan_last_instead_of_panicking() {
        // A NaN among the samples used to hit `partial_cmp(..).unwrap()`.
        let xs = [3.0, f64::NAN, 1.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(median(&xs[..3]), 3.0);
        assert_eq!(percentile(&xs, 50.0), 2.5);
        assert!(percentile(&xs, 100.0).is_nan());
    }

    #[test]
    fn mean_and_stddev() {
        let xs = vec![2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((stddev(&xs) - 2.138089935).abs() < 1e-6);
        assert_eq!(stddev(&[1.0]), 0.0);
    }

    #[test]
    fn cdf_quantiles_and_probabilities() {
        let cdf = Cdf::from_samples(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!(cdf.len(), 4);
        assert_eq!(cdf.quantile(0.0), 10.0);
        assert_eq!(cdf.quantile(1.0), 40.0);
        assert_eq!(cdf.min(), Some(10.0));
        assert_eq!(cdf.max(), Some(40.0));
        let curve = cdf.curve(4);
        assert_eq!(curve.len(), 5);
        assert_eq!(curve[0].1, 0.0);
        assert_eq!(curve[4].1, 1.0);
    }

    #[test]
    fn cdf_filters_non_finite() {
        let cdf = Cdf::from_samples(&[1.0, f64::NAN, 2.0, f64::INFINITY]);
        assert_eq!(cdf.len(), 2);
    }

    #[test]
    fn running_stats_matches_batch() {
        let xs = vec![1.0, -2.0, 3.5, 10.0, 0.0, 4.25];
        let mut rs = RunningStats::new();
        for &x in &xs {
            rs.push(x);
        }
        assert_eq!(rs.count(), xs.len() as u64);
        assert!((rs.mean() - mean(&xs)).abs() < 1e-12);
        assert!((rs.stddev() - stddev(&xs)).abs() < 1e-12);
        assert_eq!(rs.min(), Some(-2.0));
        assert_eq!(rs.max(), Some(10.0));
    }

    #[test]
    fn running_stats_merge_matches_combined() {
        let a = vec![1.0, 2.0, 3.0];
        let b = vec![10.0, 20.0];
        let mut ra = RunningStats::new();
        let mut rb = RunningStats::new();
        for &x in &a {
            ra.push(x);
        }
        for &x in &b {
            rb.push(x);
        }
        ra.merge(&rb);
        let mut all = a.clone();
        all.extend(&b);
        assert!((ra.mean() - mean(&all)).abs() < 1e-12);
        assert!((ra.stddev() - stddev(&all)).abs() < 1e-12);
    }

    #[test]
    fn classification_accuracy_bookkeeping() {
        let mut acc = ClassificationAccuracy::default();
        // 3 elastic decisions, 2 correct; 2 inelastic decisions, 2 correct.
        acc.record(true, true);
        acc.record(true, true);
        acc.record(true, false);
        acc.record(false, false);
        acc.record(false, false);
        assert_eq!(acc.total(), 5);
        assert!((acc.accuracy() - 0.8).abs() < 1e-12);
        assert!((acc.elastic_accuracy() - 2.0 / 3.0).abs() < 1e-12);
        assert!((acc.inelastic_accuracy() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_accuracy_is_zero() {
        let acc = ClassificationAccuracy::default();
        assert_eq!(acc.accuracy(), 0.0);
        assert_eq!(acc.elastic_accuracy(), 0.0);
        assert_eq!(acc.inelastic_accuracy(), 0.0);
    }

    proptest! {
        #[test]
        fn prop_percentile_monotone(xs in proptest::collection::vec(-1e6f64..1e6, 1..100),
                                     p1 in 0.0f64..100.0, p2 in 0.0f64..100.0) {
            let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
            prop_assert!(percentile(&xs, lo) <= percentile(&xs, hi) + 1e-9);
        }

        // `percentile` selects; the reference sorts the whole copy.  Same
        // bits for lengths 1, 2, odd and even, on samples drawn from a
        // handful of values so that ranks sit inside runs of duplicates.
        #[test]
        fn prop_percentile_matches_sort_based_reference(
            long in proptest::collection::vec(0u8..12, 3..200),
            short in proptest::collection::vec(0u8..3, 1..3),
            p_free in 0.0f64..100.0,
        ) {
            for xs in [long, short] {
                let xs: Vec<f64> = xs.iter().map(|&v| (v as f64 - 4.0) * 0.3).collect();
                let mut sorted = xs.clone();
                sorted.sort_by(f64::total_cmp);
                for p in [0.0, 37.5, 50.0, 99.0, 100.0, p_free] {
                    prop_assert_eq!(
                        percentile(&xs, p).to_bits(),
                        percentile_of_sorted(&sorted, p).to_bits(),
                        "p={} xs={:?}", p, xs
                    );
                }
            }
        }

        #[test]
        fn prop_running_stats_mean_within_bounds(xs in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
            let mut rs = RunningStats::new();
            for &x in &xs { rs.push(x); }
            prop_assert!(rs.mean() >= rs.min().unwrap() - 1e-9);
            prop_assert!(rs.mean() <= rs.max().unwrap() + 1e-9);
        }
    }
}
