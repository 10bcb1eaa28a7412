//! # nimbus-dsp
//!
//! Signal-processing substrate for the Nimbus reproduction.
//!
//! The elasticity detector of the paper ("Elasticity Detection: A Building
//! Block for Internet Congestion Control") works by modulating a sender's
//! pacing rate with an asymmetric sinusoidal pulse and then looking for a
//! peak, at the pulsing frequency, in the frequency-domain representation of
//! the estimated cross-traffic rate.  Everything the detector needs from the
//! signal-processing world lives in this crate:
//!
//! * [`biquad`] — second-order IIR sections (notch), the ẑ pre-filter stage
//!   of the pluggable µ-estimation API.
//! * [`complex`] — a minimal complex-number type (no external deps).
//! * [`mod@fft`] — radix-2 Cooley–Tukey FFT, Bluestein FFT for arbitrary lengths,
//!   and a direct DFT used as a test oracle.
//! * [`spectrum`] — magnitude spectra, frequency/bin conversion and the band
//!   peak searches needed by the elasticity metric η (Eq. 3 of the paper).
//! * [`sliding`] — a sliding DFT over a contiguous bin range: the spectrum
//!   of a window that advances one sample at a time, at O(bins) per sample
//!   and no allocation (what the detector runs per report; the FFT is its
//!   reference).
//! * [`pulse`] — the asymmetric sinusoidal pulse shape of Fig. 7.
//! * [`filter`] — EWMA filters (used by Nimbus *watcher* flows to strip the
//!   pulser's frequencies from their own transmissions) and simple moving
//!   statistics (windowed min/max) used by the congestion controllers.
//! * [`stats`] — means, percentiles and CDFs used throughout the experiment
//!   harness.
//!
//! The crate's code uses no other crate, and it is completely deterministic.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod biquad;
pub mod complex;
pub mod fft;
pub mod filter;
pub mod pulse;
pub mod sliding;
pub mod spectrum;
pub mod stats;

pub use biquad::Biquad;
pub use complex::Complex;
pub use fft::{dft_naive, Fft};
pub use filter::{Ewma, WindowedMax, WindowedMin};
pub use pulse::{AsymmetricPulse, PulseGenerator};
pub use sliding::SlidingDft;
pub use spectrum::{bin_for_frequency, Spectrum};
pub use stats::{mean, percentile, percentile_of_chunks, stddev, Cdf};
