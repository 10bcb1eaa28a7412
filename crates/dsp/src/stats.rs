//! Summary statistics used across the experiment harness.
//!
//! Every figure in the paper is either a time series, a CDF, or a
//! scatter/summary of throughput and delay distributions.  The helpers here —
//! means, percentiles and empirical CDFs — are shared by the experiment
//! runners and the benches.

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
/// panicking: the result is the one linear interpolation gives on the
/// `total_cmp`-sorted samples.
///
/// The two ranks it reads are selected in place, without sorting and
/// without allocating: `xs` is left in some order, the same multiset.  A
/// caller that must keep its order selects in a copy.
pub fn percentile(xs: &mut [f64], p: f64) -> f64 {
    if xs.len() < 2 {
        return xs.first().copied().unwrap_or(0.0);
    }
    let (lo, hi, frac) = closest_ranks(xs.len(), p);
    let (_, &mut at_lo, above) = xs.select_nth_unstable_by(lo, f64::total_cmp);
    if lo == hi {
        return at_lo;
    }
    // `hi == lo + 1`: the next rank is the smallest sample above `lo`.
    let at_hi = above.iter().copied().min_by(f64::total_cmp);
    interpolate(at_lo, at_hi.expect("`hi` is a rank"), frac)
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

/// Median (50th percentile), selected in place as [`percentile`].
pub fn median(xs: &mut [f64]) -> f64 {
    percentile(xs, 50.0)
}

/// An empirical cumulative distribution function over a sample set: its
/// finite samples, unsorted, with every quantile read through [`percentile`]
/// on a copy.
#[derive(Debug, Clone)]
pub struct Cdf {
    samples: Vec<f64>,
}

impl Cdf {
    /// Build a CDF from samples; NaN and ±∞ are dropped.
    pub fn from_samples(samples: &[f64]) -> Self {
        let samples = samples.iter().copied().filter(|v| v.is_finite()).collect();
        Cdf { samples }
    }

    /// Value at quantile `q` in `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        percentile(&mut self.samples.clone(), q * 100.0)
    }

    /// Median of the samples.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Sample the CDF at `points` evenly spaced quantiles — exactly the series
    /// a plotted CDF figure needs. Returns `(value, cumulative_probability)` pairs.
    pub fn curve(&self, points: usize) -> Vec<(f64, f64)> {
        if self.samples.is_empty() || points == 0 {
            return Vec::new();
        }
        let mut scratch = self.samples.clone();
        (0..=points)
            .map(|i| {
                let q = i as f64 / points as f64;
                (percentile(&mut scratch, q * 100.0), q)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference [`percentile`] is held to: linear interpolation on an
    /// already sorted slice.
    fn percentile_of_sorted(sorted: &[f64], p: f64) -> f64 {
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

    #[test]
    fn percentile_of_known_data() {
        let mut xs = [4.0, 1.0, 5.0, 3.0, 2.0];
        assert_eq!(percentile(&mut xs, 0.0), 1.0);
        assert_eq!(percentile(&mut xs, 50.0), 3.0);
        assert_eq!(percentile(&mut xs, 100.0), 5.0);
        assert_eq!(percentile(&mut xs, 25.0), 2.0);
        assert!((percentile(&mut xs, 90.0) - 4.6).abs() < 1e-12);
    }

    #[test]
    fn percentile_handles_edge_cases() {
        assert_eq!(percentile(&mut [], 50.0), 0.0);
        assert_eq!(percentile(&mut [7.0], 99.0), 7.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn percentile_orders_nan_last_instead_of_panicking() {
        // A NaN among the samples used to hit `partial_cmp(..).unwrap()`.
        let mut xs = [3.0, f64::NAN, 1.0, 2.0];
        assert_eq!(percentile(&mut xs, 0.0), 1.0);
        assert_eq!(percentile(&mut xs, 50.0), 2.5);
        assert!(percentile(&mut xs, 100.0).is_nan());
        assert_eq!(median(&mut [3.0, f64::NAN, 1.0]), 3.0);
    }

    #[test]
    fn percentile_interpolates_past_the_end_of_a_long_run() {
        // Rank 2 999 is the last zero: rank 3 000 lies outside the run.
        let mut xs: Vec<f64> = (0..6000)
            .map(|i| if i % 2 == 0 { 0.0 } else { 1.0 })
            .collect();
        assert_eq!(median(&mut xs), 0.5);
        assert_eq!(percentile(&mut xs, 25.0), 0.0);
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
        assert_eq!(cdf.quantile(0.0), 10.0);
        assert_eq!(cdf.quantile(1.0), 40.0);
        let curve = cdf.curve(4);
        assert_eq!(curve.len(), 5);
        assert_eq!(curve[0].1, 0.0);
        assert_eq!(curve[4].1, 1.0);
        // NaN and ±∞ are dropped: every quantile is `percentile` of the
        // finite samples.
        let finite = [3.5, -1.0, 0.0, 7.25, -0.0, 2.0];
        let mut with_non_finite = finite.to_vec();
        with_non_finite.extend([f64::NAN, f64::INFINITY, f64::NEG_INFINITY]);
        with_non_finite.rotate_left(4);
        let cdf = Cdf::from_samples(&with_non_finite);
        for q in [0.0, 0.1, 0.25, 0.5, 0.9, 1.0] {
            assert_eq!(
                cdf.quantile(q).to_bits(),
                percentile(&mut finite.clone(), q * 100.0).to_bits(),
                "q={q}"
            );
        }
    }

    proptest! {
        #[test]
        fn prop_percentile_monotone(xs in proptest::collection::vec(-1e6f64..1e6, 1..100),
                                     p1 in 0.0f64..100.0, p2 in 0.0f64..100.0) {
            let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
            let mut xs = xs;
            prop_assert!(percentile(&mut xs, lo) <= percentile(&mut xs, hi) + 1e-9);
        }

        // `percentile` selects; the reference sorts the whole copy.  Same
        // bits for lengths 1, 2, odd and even, on samples drawn from a
        // handful of values so that ranks sit inside runs of duplicates;
        // with ±0, ±∞ and NaN among them, with long runs of one value at
        // the rank, and with such a run among neighbours 1, 2^20 and 2^30
        // ulps above.  The selection leaves the same samples behind.
        #[test]
        fn prop_percentile_matches_sort_based_reference(
            families in (
                proptest::collection::vec(0u8..12, 3..200),
                proptest::collection::vec(0u8..3, 1..3),
                proptest::collection::vec(0u16..6000, 1..600),
                proptest::collection::vec(0u16..3, 1..3000),
            ),
            near in proptest::collection::vec(0usize..8, 2..2000),
            p_free in 0.0f64..100.0,
        ) {
            let (long, short, wide, dups) = families;
            let ulps_above = [0, 0, 0, 0, 0, 1, 1 << 20, 1 << 30];
            let special = |v: u16| match v {
                0 => -0.0,
                1 => 0.0,
                2 => f64::NAN,
                3 => f64::INFINITY,
                4 => f64::NEG_INFINITY,
                _ => (v as f64 - 3000.0) * 0.37,
            };
            let inputs = [
                long.iter().map(|&v| (v as f64 - 4.0) * 0.3).collect::<Vec<_>>(),
                short.iter().map(|&v| (v as f64 - 4.0) * 0.3).collect(),
                wide.into_iter().map(special).collect(),
                dups.into_iter().map(special).collect(),
                near.into_iter().map(|v| f64::from_bits(3.25f64.to_bits() + ulps_above[v])).collect(),
            ];
            let bits = |xs: &[f64]| -> Vec<u64> { xs.iter().map(|x| x.to_bits()).collect() };
            for mut xs in inputs {
                let mut sorted = xs.clone();
                sorted.sort_by(f64::total_cmp);
                for p in [0.0, 37.5, 50.0, 99.0, 100.0, p_free] {
                    let reference = percentile_of_sorted(&sorted, p).to_bits();
                    prop_assert_eq!(percentile(&mut xs, p).to_bits(), reference, "p={} xs={:?}", p, xs);
                }
                xs.sort_by(f64::total_cmp);
                prop_assert_eq!(bits(&xs), bits(&sorted));
            }
        }
    }
}
