//! A sliding DFT over a contiguous range of bins.
//!
//! The elasticity detector reads the spectrum of a window that advances by
//! one sample per report, and only at a few dozen bins around the pulse
//! frequency; a multi-flow watcher reads its receive rate the same way.  When the window `x[0..N)` drops `x_old` and takes `x_new`, each
//! bin of its DFT follows from the previous one in O(1):
//!
//! ```text
//! X'_k = (X_k − x_old + x_new) · e^{j2πk/N}
//! ```
//!
//! so [`SlidingDft::push`] costs one complex multiply-add per held bin and
//! allocates nothing, where a fresh transform costs O(N log N) and several
//! buffers.
//!
//! **Mean removal is implicit.**  A constant contributes exactly zero to
//! every bin `k ≥ 1` of an N-point DFT, and the update only ever sees
//! `x_new − x_old`, so the window's DC level never enters an accumulator;
//! [`SlidingDft::power`] therefore agrees with the spectrum of the
//! mean-removed window ([`crate::Spectrum::of_signal`] with `remove_mean`),
//! and reports the DC bin itself as zero.
//!
//! **Drift is bounded by construction.**  The recurrence is only marginally
//! stable — the rounding residue a large past sample left behind outlives the
//! sample — so every `N` pushes (once per window) each accumulator is
//! recomputed from the stored samples instead of updated.  No error survives
//! longer than one window.

use crate::complex::Complex;
use std::f64::consts::TAU;

/// One held bin: the running `X_k` and its per-push rotation `e^{j2πk/N}`.
#[derive(Debug, Clone, Copy)]
struct Bin {
    acc: Complex,
    twiddle: Complex,
}

/// The DFT of the last `N` pushed samples, maintained incrementally at the
/// bins [`SlidingDft::cover`] asked for.  Until `N` samples have arrived the
/// missing older ones read as zero.
#[derive(Debug, Clone)]
pub struct SlidingDft {
    /// The last `N` samples; `ring[next]` is the oldest.
    ring: Vec<f64>,
    next: usize,
    /// Pushes since every accumulator was last recomputed from the ring.
    since_recompute: usize,
    /// Bin index of `bins[0]`.
    first_bin: usize,
    bins: Vec<Bin>,
}

impl SlidingDft {
    /// An all-zero window of `n` samples holding no bins yet.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "window length must be positive");
        SlidingDft {
            ring: vec![0.0; n],
            next: 0,
            since_recompute: 0,
            first_bin: 0,
            bins: Vec::new(),
        }
    }

    /// The window length `N`.
    pub fn window_len(&self) -> usize {
        self.ring.len()
    }

    /// Slide the window by one sample: O(held bins), no allocation — except
    /// on every `N`-th push, which recomputes the held bins from the window
    /// (O(held bins · N), still no allocation).
    pub fn push(&mut self, x: f64) {
        let delta = x - std::mem::replace(&mut self.ring[self.next], x);
        self.next += 1;
        if self.next == self.ring.len() {
            self.next = 0;
        }
        self.since_recompute += 1;
        if self.since_recompute == self.ring.len() {
            self.since_recompute = 0;
            recompute(&self.ring, self.next, &mut self.bins);
        } else {
            for bin in &mut self.bins {
                bin.acc = Complex::new(bin.acc.re + delta, bin.acc.im) * bin.twiddle;
            }
        }
    }

    /// Hold at least the bins `lo..=hi` from now on.  Bins not held yet (the
    /// held range stays contiguous, so that includes any gap to it) are
    /// computed from the current window once; bins already held are kept.
    ///
    /// # Panics
    /// Panics if `hi` is not a bin of an `N`-point transform.
    pub fn cover(&mut self, lo: usize, hi: usize) {
        let n = self.ring.len();
        assert!(hi < n, "bin {hi} of a {n}-point transform");
        let lo = lo.max(1);
        if lo > hi {
            return;
        }
        let (first, last) = match self.bins.len() {
            0 => (lo, hi),
            held => (lo.min(self.first_bin), hi.max(self.first_bin + held - 1)),
        };
        if first == self.first_bin && last + 1 - first == self.bins.len() {
            return;
        }
        let held = self.first_bin..self.first_bin + self.bins.len();
        let mut bins: Vec<Bin> = (first..=last)
            .map(|k| {
                if held.contains(&k) {
                    return self.bins[k - held.start];
                }
                Bin {
                    acc: Complex::ZERO,
                    twiddle: Complex::from_polar_unit(TAU * k as f64 / n as f64),
                }
            })
            .collect();
        let kept = held.start.saturating_sub(first);
        recompute(&self.ring, self.next, &mut bins[..kept]);
        recompute(&self.ring, self.next, &mut bins[kept + held.len()..]);
        self.first_bin = first;
        self.bins = bins;
    }

    /// `|X_k|²` of the mean-removed window (so `0.0` at `k = 0`).
    ///
    /// # Panics
    /// Panics if bin `k ≥ 1` is not held (see [`SlidingDft::cover`]).
    pub fn power(&self, k: usize) -> f64 {
        if k == 0 {
            return 0.0;
        }
        self.bins[k - self.first_bin].acc.norm_sqr()
    }
}

/// Set each of `bins` to the DFT of the mean-removed window by Horner's rule,
/// `X_k = x_0 + w(x_1 + w(x_2 + …))` with `w = e^{−j2πk/N}`, newest sample
/// first.  `ring[oldest]` is `x_0`.
fn recompute(ring: &[f64], oldest: usize, bins: &mut [Bin]) {
    for bin in bins.iter_mut() {
        bin.acc = Complex::ZERO;
    }
    // A constant window has no spectrum; this is every window's first state,
    // so holding bins from the start costs no arithmetic.
    if bins.is_empty() || ring.iter().all(|&x| x == ring[0]) {
        return;
    }
    let mean = ring.iter().sum::<f64>() / ring.len() as f64;
    let (newer, older) = ring.split_at(oldest);
    for &x in newer.iter().rev().chain(older.iter().rev()) {
        let x = x - mean;
        for bin in bins.iter_mut() {
            let rotated = bin.acc * bin.twiddle.conj();
            bin.acc = Complex::new(rotated.re + x, rotated.im);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::dft_naive;

    /// `|X_k|²` of the mean-removed `window` by the O(n²) oracle.
    fn oracle_power(window: &[f64], k: usize) -> f64 {
        let mean = window.iter().sum::<f64>() / window.len() as f64;
        let centred: Vec<Complex> = window
            .iter()
            .map(|&x| Complex::from_real(x - mean))
            .collect();
        dft_naive(&centred)[k].norm_sqr()
    }

    /// A deterministic wobble on a large DC level.
    fn sample(i: usize) -> f64 {
        48e6 + 3e6 * (i as f64 * 0.31).sin() + 1e6 * (i as f64 * 1.7).cos()
    }

    fn assert_matches_oracle(bank: &SlidingDft, window: &[f64], bins: impl Iterator<Item = usize>) {
        for k in bins {
            let (got, want) = (bank.power(k).sqrt(), oracle_power(window, k).sqrt());
            assert!(
                (got - want).abs() <= 1e-9 * 48e6,
                "bin {k}: {got} vs oracle {want}"
            );
        }
    }

    #[test]
    fn tracks_the_dft_of_the_last_n_samples() {
        let n = 50;
        let mut bank = SlidingDft::new(n);
        bank.cover(3, 9);
        let mut all = Vec::new();
        for i in 0..4 * n + 7 {
            all.push(sample(i));
            bank.push(sample(i));
            if all.len() >= n {
                assert_matches_oracle(&bank, &all[all.len() - n..], 3..=9);
            }
        }
    }

    #[test]
    fn a_partly_filled_window_reads_its_missing_samples_as_zero() {
        let n = 40;
        let mut bank = SlidingDft::new(n);
        bank.cover(2, 5);
        let mut window = vec![0.0; n];
        for i in 0..17 {
            window.remove(0);
            window.push(sample(i));
            bank.push(sample(i));
        }
        assert_matches_oracle(&bank, &window, 2..=5);
    }

    #[test]
    fn covering_more_bins_mid_stream_computes_them_from_the_window() {
        let n = 50;
        let mut bank = SlidingDft::new(n);
        bank.cover(10, 12);
        let mut all = Vec::new();
        for i in 0..n + 13 {
            all.push(sample(i));
            bank.push(sample(i));
        }
        // Below, above, and across a gap: the held range becomes 4..=20.
        bank.cover(4, 6);
        bank.cover(18, 20);
        for i in n + 13..2 * n + 31 {
            assert_matches_oracle(&bank, &all[all.len() - n..], 4..=20);
            all.push(sample(i));
            bank.push(sample(i));
        }
        // Re-covering held bins changes nothing.
        let before = bank.power(11);
        bank.cover(5, 19);
        assert_eq!(bank.power(11), before);
    }

    #[test]
    fn a_constant_window_has_no_spectrum() {
        let n = 64;
        let mut bank = SlidingDft::new(n);
        bank.cover(0, 8);
        for _ in 0..3 * n {
            bank.push(48e6);
        }
        for k in 0..=8 {
            assert!(bank.power(k).sqrt() < 1e-6, "bin {k}: {}", bank.power(k));
        }
    }

    #[test]
    fn residue_of_a_large_transient_does_not_outlive_the_window() {
        // ≈ µ for one window, then ≈ 0: the slow-start shape.
        let n = 100;
        let mut bank = SlidingDft::new(n);
        bank.cover(20, 30);
        let mut all = Vec::new();
        for i in 0..20 * n {
            let x = if i < n {
                48e6
            } else {
                1e3 * (i as f64 * 0.9).sin()
            };
            all.push(x);
            bank.push(x);
        }
        let window = &all[all.len() - n..];
        for k in 20..=30 {
            let (got, want) = (bank.power(k).sqrt(), oracle_power(window, k).sqrt());
            assert!(
                (got - want).abs() <= 1e-9 * 1e3 * n as f64,
                "bin {k}: {got} vs {want}"
            );
        }
    }
}
