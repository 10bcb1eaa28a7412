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
/// panicking.  Selects the two ranks it reads in place, without sorting or
/// copying (see [`percentile_of_chunks`]): the result is the one
/// [`percentile_of_sorted`] gives on the `total_cmp`-sorted copy.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    percentile_of_chunks([xs], p)
}

/// [`percentile`] of the samples of every slice in `chunks` taken together:
/// bit for bit the result on their concatenation, which is never built.
///
/// Scratch memory is a constant of about 85 kB of stack, whatever the sample
/// count, and nothing is allocated.  Past 2 048 samples, they are read in
/// radix passes over 11-bit digits of the `total_cmp` order until at most
/// 2 048 are left around the rank, then once more to gather those; the
/// median of a run's per-packet queueing delays usually takes one radix
/// pass.  A rank inside a run of more than 2 048 equal samples costs one
/// radix pass and one cheaper pass that finds them all equal, or a few more
/// of each when near neighbours share the run's leading bits.
pub fn percentile_of_chunks<'a, C>(chunks: C, p: f64) -> f64
where
    C: IntoIterator<Item = &'a [f64]>,
    C::IntoIter: Clone,
{
    let chunks = chunks.into_iter();
    let len: usize = chunks.clone().map(<[f64]>::len).sum();
    if len < 2 {
        return chunks.flatten().next().copied().unwrap_or(0.0);
    }
    let (lo, hi, frac) = closest_ranks(len, p);
    let (at_lo, next) = select(chunks.clone(), len, lo);
    if lo == hi {
        return value(at_lo);
    }
    // `hi == lo + 1`: the next rank is the smallest sample above `lo`.
    let at_hi = next.unwrap_or_else(|| smallest_above(chunks, at_lo));
    interpolate(value(at_lo), value(at_hi), frac)
}

/// Key bits one radix pass of [`select`] decides.
const RADIX_BITS: u32 = 11;

/// Digit values; the two slots after them count the keys below and above
/// the selected prefix.
const SLOTS: usize = 1 << RADIX_BITS;

/// Samples [`select`] gathers onto its stack (16 kB) to rank them by
/// sorting, once no more share the selected key prefix.
const GATHER: usize = 2048;

/// Evenly spaced samples [`select`] reads to guess the first digit.
const PROBES: usize = 256;

/// `x`'s position in the [`f64::total_cmp`] order as an unsigned integer:
/// `key(a) < key(b)` exactly when `a.total_cmp(&b)` is `Less`.  A sample
/// with the sign bit clear gets it set; one with it set (a negative number,
/// -0.0 or a negative NaN) has every bit flipped, so larger magnitudes sort
/// lower.
fn key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

/// The sample whose [`key`] is `key`.
fn value(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 { key ^ 1 << 63 } else { !key })
}

/// The `fixed` high bits of a key set, the rest clear.
fn high_bits(fixed: u32) -> u64 {
    u64::MAX.checked_shr(fixed).map_or(u64::MAX, |low| !low)
}

/// The key at `rank` in `total_cmp` order among the `len` samples in
/// `chunks`, and the key at `rank + 1` when it is among the samples that
/// share the selected prefix.
///
/// Radix selection: each pass counts the keys below and above the selected
/// prefix and histograms the next [`RADIX_BITS`] bits of those that share
/// it, then extends the prefix by the digit holding `rank`, until at most
/// [`GATHER`] samples share it (or all 64 bits are fixed).  While more do,
/// a cheaper pass extends the prefix by every bit they all share.  A last
/// pass gathers those to sort them.  The first digit, which nearly every
/// sample of one magnitude shares, is guessed from [`PROBES`] evenly spaced
/// samples instead of counted; the first pass checks the guess, and a wrong
/// one costs that pass.
fn select<'a>(
    chunks: impl Iterator<Item = &'a [f64]> + Clone,
    len: usize,
    rank: usize,
) -> (u64, Option<u64>) {
    // The keys whose high `fixed` bits equal `prefix`: `below` keys lie
    // below them, and there are `count` of them (`len` until counted).
    let (mut prefix, mut fixed) = if len > GATHER {
        (guess_prefix(chunks.clone(), len, rank), RADIX_BITS)
    } else {
        (0, 0)
    };
    let (mut below, mut count) = (0, len);
    while count > GATHER && fixed < 64 {
        let shift = (64 - fixed).saturating_sub(RADIX_BITS);
        let high = high_bits(fixed);
        let slot = |x: f64| {
            let k = key(x);
            if k & high == prefix {
                ((k & !high) >> shift) as usize
            } else if k < prefix {
                SLOTS
            } else {
                SLOTS + 1
            }
        };
        // Four interleaved histograms: a run of samples in one slot (one
        // delay repeated, or one standing queue's) would otherwise wait on
        // one counter.
        let mut lanes = [[0usize; SLOTS + 2]; 4];
        for chunk in chunks.clone() {
            let mut quads = chunk.chunks_exact(4);
            for quad in &mut quads {
                for (lane, &x) in lanes.iter_mut().zip(quad) {
                    lane[slot(x)] += 1;
                }
            }
            for &x in quads.remainder() {
                lanes[0][slot(x)] += 1;
            }
        }
        let total = |at: usize| -> usize { lanes.iter().map(|lane| lane[at]).sum() };
        below = total(SLOTS);
        if rank < below || rank >= len - total(SLOTS + 1) {
            // The guessed first digit does not hold `rank`: count it.
            (prefix, fixed) = (0, 0);
            continue;
        }
        let mut digit = 0;
        loop {
            count = total(digit);
            if rank < below + count {
                break;
            }
            below += count;
            digit += 1;
        }
        prefix |= (digit as u64) << shift;
        fixed = 64 - shift;
        if count > GATHER && fixed < 64 {
            // Too many to gather: often one delay repeated (exact zeros, one
            // serialization time) with a few neighbours.  Fix every bit the
            // smallest and largest of them share, all 64 when they are equal.
            let (lo, hi) = key_range(chunks.clone(), prefix, high_bits(fixed));
            fixed = (lo ^ hi).leading_zeros();
            prefix = lo & high_bits(fixed);
        }
    }
    let rank = rank - below;
    if count > GATHER {
        // All 64 bits are fixed: each of the `count` keys is `prefix`.
        return (prefix, (rank + 1 < count).then_some(prefix));
    }
    let high = high_bits(fixed);
    let mut gathered = [0u64; GATHER];
    let mut got = 0;
    for chunk in chunks {
        for &x in chunk {
            let k = key(x);
            if k & high == prefix {
                gathered[got] = k;
                got += 1;
            }
        }
    }
    let bucket = &mut gathered[..got];
    bucket.sort_unstable();
    (bucket[rank], (rank + 1 < count).then(|| bucket[rank + 1]))
}

/// The smallest and largest key in `chunks` whose `high` bits are `prefix`.
fn key_range<'a>(chunks: impl Iterator<Item = &'a [f64]>, prefix: u64, high: u64) -> (u64, u64) {
    let (mut lo, mut hi) = (u64::MAX, 0);
    for k in chunks.flatten().map(|&x| key(x)) {
        if k & high == prefix {
            (lo, hi) = (lo.min(k), hi.max(k));
        }
    }
    (lo, hi)
}

/// The first digit of the key at `rank`'s place among [`PROBES`] evenly
/// spaced samples of the `len` in `chunks`.
fn guess_prefix<'a>(chunks: impl Iterator<Item = &'a [f64]>, len: usize, rank: usize) -> u64 {
    let mut probes = [0u64; PROBES];
    let (mut taken, mut start) = (0, 0);
    for chunk in chunks {
        // Probe `i` reads sample `i * len / PROBES`.
        while taken < PROBES && taken * len / PROBES < start + chunk.len() {
            probes[taken] = key(chunk[taken * len / PROBES - start]);
            taken += 1;
        }
        start += chunk.len();
    }
    probes.sort_unstable();
    probes[rank * PROBES / len] & high_bits(RADIX_BITS)
}

/// The smallest key in `chunks` above `below` (`u64::MAX` when none is).
fn smallest_above<'a>(chunks: impl Iterator<Item = &'a [f64]>, below: u64) -> u64 {
    chunks
        .flatten()
        .map(|&x| key(x))
        .filter(|&k| k > below)
        .fold(u64::MAX, u64::min)
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
#[derive(Debug, Clone)]
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
    fn percentile_interpolates_past_the_end_of_a_long_run() {
        // Rank 2 999 is the last zero: rank 3 000 lies outside the run.
        let xs: Vec<f64> = (0..6000)
            .map(|i| if i % 2 == 0 { 0.0 } else { 1.0 })
            .collect();
        assert_eq!(median(&xs), 0.5);
        assert_eq!(percentile(&xs, 25.0), 0.0);
    }

    /// Chunks that count how often they are read to the end.
    #[derive(Clone)]
    struct CountWalks<'a, I> {
        chunks: I,
        walks: &'a std::cell::Cell<usize>,
    }

    impl<'a, I: Iterator<Item = &'a [f64]>> Iterator for CountWalks<'a, I> {
        type Item = &'a [f64];

        fn next(&mut self) -> Option<&'a [f64]> {
            let next = self.chunks.next();
            if next.is_none() {
                self.walks.set(self.walks.get() + 1);
            }
            next
        }
    }

    #[test]
    fn percentile_reads_the_samples_a_bounded_number_of_times() {
        // Delays spread over 0–40 ms, and the same with 60 % exact zeros.
        let spread: Vec<f64> = (0..400_000u64)
            .map(|i| (i * 7919 % 400_000) as f64 / 9973.0)
            .collect();
        let zeros: Vec<f64> = spread
            .iter()
            .enumerate()
            .map(|(i, &x)| if i % 5 < 3 { 0.0 } else { x })
            .collect();
        for xs in [spread, zeros] {
            let mut sorted = xs.clone();
            sorted.sort_by(f64::total_cmp);
            let walks = std::cell::Cell::new(0);
            let chunks = CountWalks {
                chunks: xs.chunks(8192),
                walks: &walks,
            };
            assert_eq!(
                percentile_of_chunks(chunks, 50.0).to_bits(),
                percentile_of_sorted(&sorted, 50.0).to_bits()
            );
            // Counting them, guessing the first digit, one radix pass, then
            // gathering the spread delays or finding the zeros all equal.
            assert_eq!(walks.get(), 4);
        }
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

    proptest! {
        #[test]
        fn prop_percentile_monotone(xs in proptest::collection::vec(-1e6f64..1e6, 1..100),
                                     p1 in 0.0f64..100.0, p2 in 0.0f64..100.0) {
            let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
            prop_assert!(percentile(&xs, lo) <= percentile(&xs, hi) + 1e-9);
        }

        // `percentile` selects; the reference sorts the whole copy.  Same
        // bits for lengths 1, 2, odd and even, on samples drawn from a
        // handful of values so that ranks sit inside runs of duplicates;
        // past `GATHER` samples (radix passes), with ±0, ±∞ and NaN among
        // them, with more than `GATHER` copies of one value at the rank,
        // and with such a run among neighbours 1, 2^20 and 2^30 ulps above.
        // Each input is checked whole and split at random chunk boundaries,
        // empty chunks included.
        #[test]
        fn prop_percentile_matches_sort_based_reference(
            families in (
                proptest::collection::vec(0u8..12, 3..200),
                proptest::collection::vec(0u8..3, 1..3),
                proptest::collection::vec(0u16..6000, GATHER + 1..3 * GATHER),
                proptest::collection::vec(0u16..3, GATHER + 1..4 * GATHER),
            ),
            near in proptest::collection::vec(0usize..8, 2 * GATHER..5 * GATHER),
            cuts in proptest::collection::vec(0.0f64..1.2, 0..8),
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
            for xs in inputs {
                let mut sorted = xs.clone();
                sorted.sort_by(f64::total_cmp);
                // Cut positions as fractions of the length; past 1.0 they
                // clamp to the end, and repeats leave empty chunks.
                let mut at: Vec<usize> = cuts
                    .iter()
                    .map(|f| ((f * xs.len() as f64) as usize).min(xs.len()))
                    .collect();
                at.sort_unstable();
                let mut chunks = vec![&xs[..0]];
                let mut start = 0;
                for &end in &at {
                    chunks.push(&xs[start..end]);
                    start = end;
                }
                chunks.push(&xs[start..]);
                for p in [0.0, 37.5, 50.0, 99.0, 100.0, p_free] {
                    let reference = percentile_of_sorted(&sorted, p).to_bits();
                    prop_assert_eq!(percentile(&xs, p).to_bits(), reference, "p={} xs={:?}", p, xs);
                    prop_assert_eq!(
                        percentile_of_chunks(chunks.iter().copied(), p).to_bits(),
                        reference,
                        "p={} cuts={:?} xs={:?}", p, at, xs
                    );
                }
            }
        }
    }
}
