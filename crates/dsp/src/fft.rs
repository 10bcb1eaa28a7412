//! Fast Fourier Transform implementations.
//!
//! The elasticity metric is read off the spectrum of the cross-traffic rate
//! estimate `z(t)` sampled every 10 ms over a 5-second window (§3.3 of the
//! paper), so a 500-point transform is the common case.  The detector does
//! not run one per report, and neither do multi-flow watchers on their
//! receive rate — each window moves one sample at a time and is read at a
//! few dozen bins, which [`crate::sliding`] maintains incrementally — but
//! the transforms here are what that is checked against and what offline
//! analysis of a whole series uses.  Three implementations:
//!
//! * `fft_radix2` — iterative in-place Cooley–Tukey for power-of-two sizes.
//! * `fft_bluestein` — Bluestein's chirp-z algorithm for arbitrary sizes
//!   (internally uses the radix-2 kernel on a padded convolution).
//! * [`dft_naive`] — the O(n²) textbook DFT, kept as the oracle for property
//!   tests.
//!
//! [`Fft`] is a plan object that picks one of the first two by length and
//! caches twiddle factors so repeated transforms of one length do not
//! recompute them.

use crate::complex::Complex;
use std::f64::consts::PI;

/// A reusable FFT plan.
///
/// Precomputes twiddle factors (and, for non-power-of-two sizes, the Bluestein
/// chirp sequence) so that repeated transforms of the same length — the
/// detector's batch reference over many windows — avoid repeated
/// trigonometry.
#[derive(Debug, Clone)]
pub struct Fft {
    n: usize,
    kind: PlanKind,
}

#[derive(Debug, Clone)]
enum PlanKind {
    /// Power-of-two input: direct radix-2.
    Radix2 { twiddles: Vec<Complex> },
    /// Arbitrary size n via Bluestein: convolution of length m (power of two ≥ 2n-1).
    Bluestein {
        m: usize,
        chirp: Vec<Complex>,
        /// FFT of the zero-padded, conjugated chirp filter (length m).
        filter_fft: Vec<Complex>,
        inner_twiddles: Vec<Complex>,
    },
}

impl Fft {
    /// Build a plan for transforms of length `n`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "FFT length must be positive");
        if n.is_power_of_two() {
            Fft {
                n,
                kind: PlanKind::Radix2 {
                    twiddles: forward_twiddles(n),
                },
            }
        } else {
            // Bluestein: x_k chirped, convolved with the conjugate chirp.
            let m = (2 * n - 1).next_power_of_two();
            let chirp: Vec<Complex> = (0..n)
                .map(|k| {
                    // w_k = exp(-i * pi * k^2 / n)
                    let angle = -PI * ((k as f64) * (k as f64)) / n as f64;
                    Complex::from_polar_unit(angle)
                })
                .collect();
            let mut filter = vec![Complex::ZERO; m];
            for k in 0..n {
                let v = chirp[k].conj();
                filter[k] = v;
                if k != 0 {
                    filter[m - k] = v;
                }
            }
            let inner_twiddles = forward_twiddles(m);
            fft_in_place(&mut filter, &inner_twiddles, false);
            Fft {
                n,
                kind: PlanKind::Bluestein {
                    m,
                    chirp,
                    filter_fft: filter,
                    inner_twiddles,
                },
            }
        }
    }

    /// The transform length this plan was built for.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns true when the plan length is zero (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Forward transform of a complex input slice of length `self.len()`.
    ///
    /// # Panics
    /// Panics if `input.len() != self.len()`.
    pub fn forward(&self, input: &[Complex]) -> Vec<Complex> {
        assert_eq!(input.len(), self.n, "input length must match the plan");
        match &self.kind {
            PlanKind::Radix2 { twiddles } => {
                let mut buf = input.to_vec();
                fft_in_place(&mut buf, twiddles, false);
                buf
            }
            PlanKind::Bluestein {
                m,
                chirp,
                filter_fft,
                inner_twiddles,
            } => {
                let n = self.n;
                let mut a = vec![Complex::ZERO; *m];
                for k in 0..n {
                    a[k] = input[k] * chirp[k];
                }
                fft_in_place(&mut a, inner_twiddles, false);
                for (ak, fk) in a.iter_mut().zip(filter_fft.iter()) {
                    *ak *= *fk;
                }
                ifft_in_place(&mut a, inner_twiddles);
                (0..n).map(|k| a[k] * chirp[k]).collect()
            }
        }
    }

    /// Forward transform of a real-valued input slice of length `self.len()`.
    pub fn forward_real(&self, input: &[f64]) -> Vec<Complex> {
        let buf: Vec<Complex> = input.iter().map(|&x| Complex::from_real(x)).collect();
        self.forward(&buf)
    }
}

/// Precompute the forward twiddle factors `exp(-2πi k / n)` for `k < n/2`.
fn forward_twiddles(n: usize) -> Vec<Complex> {
    (0..n / 2)
        .map(|k| Complex::from_polar_unit(-2.0 * PI * k as f64 / n as f64))
        .collect()
}

/// In-place iterative radix-2 Cooley–Tukey FFT.
///
/// `twiddles` must contain the `n/2` forward twiddle factors for length
/// `buf.len()`. When `inverse` is true, the conjugated twiddles are used (the
/// caller is responsible for the 1/n normalization).
fn fft_in_place(buf: &mut [Complex], twiddles: &[Complex], inverse: bool) {
    let n = buf.len();
    debug_assert!(n.is_power_of_two());
    if n <= 1 {
        return;
    }
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i as u32).reverse_bits() >> (32 - bits);
        let j = j as usize;
        if j > i {
            buf.swap(i, j);
        }
    }
    // Butterflies.
    let mut len = 2;
    while len <= n {
        let half = len / 2;
        let step = n / len;
        for start in (0..n).step_by(len) {
            for k in 0..half {
                let tw = twiddles[k * step];
                let tw = if inverse { tw.conj() } else { tw };
                let u = buf[start + k];
                let v = buf[start + k + half] * tw;
                buf[start + k] = u + v;
                buf[start + k + half] = u - v;
            }
        }
        len <<= 1;
    }
}

/// In-place inverse FFT including the 1/n normalization.
fn ifft_in_place(buf: &mut [Complex], twiddles: &[Complex]) {
    let n = buf.len();
    fft_in_place(buf, twiddles, true);
    let inv = 1.0 / n as f64;
    for z in buf.iter_mut() {
        *z = z.scale(inv);
    }
}

/// Direct O(n²) DFT, used as the oracle in tests.
pub fn dft_naive(input: &[Complex]) -> Vec<Complex> {
    let n = input.len();
    let mut out = vec![Complex::ZERO; n];
    for (k, out_k) in out.iter_mut().enumerate() {
        let mut acc = Complex::ZERO;
        for (t, &x) in input.iter().enumerate() {
            let angle = -2.0 * PI * (k as f64) * (t as f64) / n as f64;
            acc += x * Complex::from_polar_unit(angle);
        }
        *out_k = acc;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn fft(input: &[Complex]) -> Vec<Complex> {
        Fft::new(input.len()).forward(input)
    }

    fn assert_close(a: &[Complex], b: &[Complex], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert!(
                (x.re - y.re).abs() < tol && (x.im - y.im).abs() < tol,
                "mismatch: {x:?} vs {y:?}"
            );
        }
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let mut x = vec![Complex::ZERO; 16];
        x[0] = Complex::ONE;
        let y = fft(&x);
        for z in y {
            assert!((z.abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn constant_signal_concentrates_at_dc() {
        let x = vec![Complex::from_real(2.0); 32];
        let y = fft(&x);
        assert!((y[0].re - 64.0).abs() < 1e-9);
        for z in &y[1..] {
            assert!(z.abs() < 1e-9);
        }
    }

    #[test]
    fn pure_tone_peaks_in_the_right_bin() {
        // 5 Hz tone sampled at 100 Hz over 128 samples => bin 5*128/100 = 6.4;
        // use an exact-bin tone instead: bin 8 of 128.
        let n = 128;
        let x: Vec<Complex> = (0..n)
            .map(|t| Complex::from_real((2.0 * PI * 8.0 * t as f64 / n as f64).sin()))
            .collect();
        let y = fft(&x);
        let mags: Vec<f64> = y.iter().map(|z| z.abs()).collect();
        let peak_bin = mags[..n / 2]
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(peak_bin, 8);
    }

    #[test]
    fn radix2_matches_naive_dft() {
        let x: Vec<Complex> = (0..64)
            .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect();
        assert_close(&fft(&x), &dft_naive(&x), 1e-9);
    }

    #[test]
    fn bluestein_matches_naive_dft_on_odd_sizes() {
        for n in [3usize, 5, 7, 12, 100, 125, 500] {
            let x: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.71).sin(), (i as f64 * 1.3).cos() * 0.5))
                .collect();
            assert_close(&fft(&x), &dft_naive(&x), 1e-7 * n as f64);
        }
    }

    #[test]
    fn plan_reuse_is_consistent() {
        let plan = Fft::new(500);
        let x: Vec<Complex> = (0..500)
            .map(|i| Complex::from_real(i as f64 * 0.01))
            .collect();
        let a = plan.forward(&x);
        let b = plan.forward(&x);
        assert_close(&a, &b, 1e-12);
        assert_eq!(plan.len(), 500);
        assert!(!plan.is_empty());
    }

    #[test]
    #[should_panic]
    fn mismatched_length_panics() {
        let plan = Fft::new(8);
        let x = vec![Complex::ZERO; 9];
        let _ = plan.forward(&x);
    }

    #[test]
    fn real_transform_of_cosine_is_symmetric() {
        let n = 64;
        let x: Vec<f64> = (0..n)
            .map(|t| (2.0 * PI * 4.0 * t as f64 / n as f64).cos())
            .collect();
        let y = Fft::new(n).forward_real(&x);
        // Real signal => conjugate symmetry.
        for k in 1..n / 2 {
            let a = y[k];
            let b = y[n - k].conj();
            assert!((a.re - b.re).abs() < 1e-9 && (a.im - b.im).abs() < 1e-9);
        }
    }

    proptest! {
        #[test]
        fn prop_fft_matches_dft(values in proptest::collection::vec(-1e3f64..1e3, 2..64)) {
            let x: Vec<Complex> = values.iter().map(|&v| Complex::from_real(v)).collect();
            let a = fft(&x);
            let b = dft_naive(&x);
            for (p, q) in a.iter().zip(b.iter()) {
                prop_assert!((p.re - q.re).abs() < 1e-6 * (1.0 + q.abs()));
                prop_assert!((p.im - q.im).abs() < 1e-6 * (1.0 + q.abs()));
            }
        }

        #[test]
        fn prop_parseval_energy_conserved(values in proptest::collection::vec(-100f64..100.0, 4..128)) {
            let n = values.len() as f64;
            let time_energy: f64 = values.iter().map(|v| v * v).sum();
            let spec = Fft::new(values.len()).forward_real(&values);
            let freq_energy: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / n;
            prop_assert!((time_energy - freq_energy).abs() < 1e-6 * (1.0 + time_energy));
        }

        #[test]
        fn prop_linearity(a in proptest::collection::vec(-10f64..10.0, 16..17),
                          b in proptest::collection::vec(-10f64..10.0, 16..17),
                          alpha in -5f64..5.0) {
            let xa: Vec<Complex> = a.iter().map(|&v| Complex::from_real(v)).collect();
            let xb: Vec<Complex> = b.iter().map(|&v| Complex::from_real(v)).collect();
            let combined: Vec<Complex> = xa.iter().zip(xb.iter())
                .map(|(p, q)| *p * alpha + *q)
                .collect();
            let lhs = fft(&combined);
            let fa = fft(&xa);
            let fb = fft(&xb);
            for k in 0..lhs.len() {
                let rhs = fa[k] * alpha + fb[k];
                prop_assert!((lhs[k].re - rhs.re).abs() < 1e-6);
                prop_assert!((lhs[k].im - rhs.im).abs() < 1e-6);
            }
        }
    }
}
