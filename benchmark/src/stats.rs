//! The benchmark's estimators.
//!
//! The simulator and the mock host are deterministic, so every rep of a run
//! does bit-identical work and the spread between reps is host noise by
//! construction.  Noise on a shared host only ever *adds* time, so the
//! reported value of a timing is a **floor**: the minimum over the timed
//! reps, or — for a wall clock, where a rep is split into segments — the sum
//! of the per-segment minima ([`segment_floor`]).  Quartiles and the sample
//! count of the rep totals travel along for `compare`.

use serde::Value;

/// Floor, quartiles and count of one metric's per-rep samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Smallest sample — the reported value of a timing metric.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarise `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let [q1, median, q3] = quartiles(samples);
        Some(Summary {
            min: floor(samples),
            q1,
            median,
            q3,
            n: samples.len(),
        })
    }

    /// `{"min":…, "q1":…, "median":…, "q3":…, "n":…}`.
    pub fn to_value(&self) -> Value {
        Value::Map(vec![
            ("min".into(), Value::Float(self.min)),
            ("q1".into(), Value::Float(self.q1)),
            ("median".into(), Value::Float(self.median)),
            ("q3".into(), Value::Float(self.q3)),
            ("n".into(), Value::UInt(self.n as u64)),
        ])
    }
}

/// The smallest sample (NaN-free input expected; an empty slice gives +∞).
pub fn floor(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Sum over segments of the fastest time any rep took for that segment.
///
/// Each rep is split at the same fixed points of its event sequence (see
/// `laps`), so segment `k` is the same work in every rep and its minimum is
/// that work's cost on an undisturbed host.  With one segment per rep this
/// is the plain [`floor`].  Reps split differently — which a deterministic
/// program never produces — fall back to the floor of the rep totals.
pub fn segment_floor(reps: &[&[f64]]) -> f64 {
    let Some(first) = reps.first() else {
        return f64::INFINITY;
    };
    if reps.iter().any(|r| r.len() != first.len()) {
        let totals: Vec<f64> = reps.iter().map(|r| r.iter().sum()).collect();
        return floor(&totals);
    }
    (0..first.len())
        .map(|k| reps.iter().map(|r| r[k]).fold(f64::INFINITY, f64::min))
        .sum()
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method) does, so a
/// spread computed here equals the one the driver computes.  A single sample
/// is its own quartiles.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let mut data = samples.to_vec();
    data.sort_by(f64::total_cmp);
    let m = data.len();
    if m == 1 {
        return [data[0]; 3];
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    [cut(1), cut(2), cut(3)]
}

/// The `p`-th percentile (0–100) of `sorted` by linear interpolation.
pub fn percentile_of_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Element-wise minimum across reps of one deterministic sequence.
///
/// Every traced rep issues the same calls in the same order, so sample `i`
/// of each rep timed the same work.  Taking the minimum per index strips
/// host noise (which differs between reps) but keeps spikes the program
/// owns (window fill, mode switch, log reallocation), which recur at the
/// same index in every rep.  Reps of unequal length are truncated to the
/// shortest.
pub fn per_index_min(reps: &[&[u32]]) -> Vec<f64> {
    let len = reps.iter().map(|r| r.len()).min().unwrap_or(0);
    (0..len)
        .map(|i| reps.iter().map(|r| r[i]).min().expect("at least one rep") as f64)
        .collect()
}

/// `(p50, p99)` over indices of the per-index minimum across reps.
pub fn per_index_min_percentiles(reps: &[&[u32]]) -> (f64, f64) {
    let mut floor = per_index_min(reps);
    floor.sort_by(f64::total_cmp);
    (
        percentile_of_sorted(&floor, 50.0),
        percentile_of_sorted(&floor, 99.0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_ignores_noise_above_it() {
        assert_eq!(floor(&[2.9, 1.89, 2.18, 2.0]), 1.89);
        assert_eq!(floor(&[]), f64::INFINITY);
    }

    #[test]
    fn segment_floor_takes_each_segment_from_its_fastest_rep() {
        // A burst hits a different segment in each rep: no rep is clean
        // (totals 9, 8, 10) but every segment is clean somewhere.
        let reps: [&[f64]; 3] = [&[1.0, 2.0, 6.0], &[4.0, 2.0, 2.0], &[1.0, 7.0, 2.0]];
        assert_eq!(segment_floor(&reps), 5.0);
        // One segment per rep: the plain floor.
        assert_eq!(segment_floor(&[&[3.0], &[2.0]]), 2.0);
        // Unequal splits fall back to the floor of the totals.
        assert_eq!(segment_floor(&[&[1.0, 1.0], &[5.0]]), 2.0);
        assert_eq!(segment_floor(&[]), f64::INFINITY);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn summary_carries_floor_quartiles_and_count() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!((s.min, s.median, s.n), (1.0, 2.5, 4));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn per_index_min_strips_noise_but_keeps_program_owned_spikes() {
        // Index 2 is slow in every rep (the program's own spike); the 900s
        // are host noise hitting a different index each rep.
        let reps: [&[u32]; 3] = [
            &[10, 900, 500, 10, 10],
            &[10, 10, 510, 900, 10],
            &[900, 10, 505, 10, 10],
        ];
        assert_eq!(per_index_min(&reps), vec![10.0, 10.0, 500.0, 10.0, 10.0]);
        let (p50, p99) = per_index_min_percentiles(&reps);
        assert_eq!(p50, 10.0);
        assert!(p99 > 400.0, "the recurring spike survives: {p99}");
        // Unequal lengths truncate to the shortest rep.
        assert_eq!(per_index_min(&[&[5, 6, 7], &[4, 9]]), vec![4.0, 6.0]);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile_of_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_of_sorted(&v, 50.0), 2.5);
        assert_eq!(percentile_of_sorted(&v, 100.0), 4.0);
    }
}
