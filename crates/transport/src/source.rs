//! Application (traffic source) models.
//!
//! A [`Source`] answers one question for the sender machinery: *how many
//! bytes has the application produced up to time `t`?*  Whether a flow is
//! elastic or inelastic begins here:
//!
//! * a [`BackloggedSource`] always has data — paired with a window-based
//!   congestion controller the flow is elastic (ACK-clocked);
//! * a [`FixedSizeSource`] produces a finite transfer (the CAIDA-style
//!   cross-flows of §8.1);
//! * a [`ScriptedSource`] produces bytes at a constant rate — the
//!   constant-bit-rate cross traffic of `cbr@<rate>` (paired with an
//!   unconstrained controller this is inelastic);
//! * a [`PoissonSource`] produces packets with exponential inter-arrivals —
//!   the "Poisson packet arrivals at the specified mean rate" inelastic
//!   traffic of §5 (Figs. 1 and 8).
//!
//! The DASH video client of Fig. 11 is a [`Source`] of its own, in
//! `nimbus-traffic`.
//!
//! A source says only when data exists.  When the flow stops is the
//! sender's to decide ([`SenderConfig::stop_at`](crate::SenderConfig::stop_at)):
//! from that time on the sender reports the flow finished without asking
//! its source anything.

use nimbus_netsim::{Time, MSS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An application data source.
pub trait Source: Send {
    /// The flow this source feeds started at `now`.  Time-accruing sources
    /// (constant rates, Poisson arrivals) discard anything they would have
    /// produced *before* the start: a cross flow configured to arrive at
    /// t = 90 s offers its rate from 90 s on, it does not dump 90 seconds of
    /// backlog into the network in one burst.  Sources whose data exists all
    /// at once (backlogged, fixed-size transfers) ignore this.
    fn on_flow_start(&mut self, now: Time) {
        let _ = now;
    }

    /// Cumulative number of bytes the application has made available for
    /// transmission up to (and including) time `now`.
    fn bytes_available(&mut self, now: Time) -> u64;

    /// If the source is currently idle but will produce more data later,
    /// returns the earliest time more data appears. `None` when the sender
    /// need not set a timer (either data is available now or the source is done).
    fn next_data_time(&self, now: Time) -> Option<Time>;

    /// True when the application will never produce more data than it already has.
    fn done_writing(&self) -> bool;

    /// A short label for diagnostics.
    fn label(&self) -> &'static str {
        "source"
    }
}

/// An infinite, always-ready source (a bulk transfer that never ends).
#[derive(Debug, Clone, Default)]
pub struct BackloggedSource;

impl Source for BackloggedSource {
    fn bytes_available(&mut self, _now: Time) -> u64 {
        u64::MAX / 2
    }
    fn next_data_time(&self, _now: Time) -> Option<Time> {
        None
    }
    fn done_writing(&self) -> bool {
        false
    }
    fn label(&self) -> &'static str {
        "backlogged"
    }
}

/// A finite transfer of `size_bytes`, all available immediately.
#[derive(Debug, Clone)]
pub struct FixedSizeSource {
    size_bytes: u64,
}

impl FixedSizeSource {
    /// A transfer of exactly `size_bytes`.
    pub fn new(size_bytes: u64) -> Self {
        FixedSizeSource { size_bytes }
    }
}

impl Source for FixedSizeSource {
    fn bytes_available(&mut self, _now: Time) -> u64 {
        self.size_bytes
    }
    fn next_data_time(&self, _now: Time) -> Option<Time> {
        None
    }
    fn done_writing(&self) -> bool {
        true
    }
    fn label(&self) -> &'static str {
        "fixed-size"
    }
}

/// A constant-rate source: the application writes at `rate_bps` from the
/// moment its flow starts — the constant-bit-rate cross traffic of a
/// `cbr@<rate>` entry (paired with an unconstrained controller this is
/// inelastic).
#[derive(Debug, Clone)]
pub struct ScriptedSource {
    rate_bps: f64,
    /// Bytes the rate had accrued when the flow started; production
    /// before the flow exists is discarded (see [`Source::on_flow_start`]).
    base_bytes: u64,
}

impl ScriptedSource {
    /// Constant rate forever.
    pub fn constant(rate_bps: f64) -> Self {
        ScriptedSource {
            rate_bps,
            base_bytes: 0,
        }
    }

    /// The bytes the rate accrues from 0 to `t`.
    fn cumulative_bytes(&self, t: Time) -> u64 {
        (self.rate_bps * t.as_secs_f64() / 8.0) as u64
    }
}

impl Source for ScriptedSource {
    fn on_flow_start(&mut self, now: Time) {
        self.base_bytes = self.cumulative_bytes(now);
    }
    fn bytes_available(&mut self, now: Time) -> u64 {
        self.cumulative_bytes(now).saturating_sub(self.base_bytes)
    }
    fn next_data_time(&self, now: Time) -> Option<Time> {
        // Data accrues continuously; wake the sender one packet-time-ish later.
        Some(now + Time::from_millis(1))
    }
    fn done_writing(&self) -> bool {
        false
    }
    fn label(&self) -> &'static str {
        "scripted"
    }
}

/// Poisson packet arrivals: each arrival makes one [`MSS`] of data available.
///
/// This is the paper's inelastic cross traffic for most robustness
/// experiments ("We generate inelastic cross-traffic using Poisson packet
/// arrivals at the specified mean rate", §5).
#[derive(Debug)]
pub struct PoissonSource {
    mean_rate_bps: f64,
    rng: StdRng,
    /// Arrival times generated so far (cumulative bytes counter + next arrival).
    generated_bytes: u64,
    next_arrival: Time,
}

impl PoissonSource {
    /// Poisson arrivals at `mean_rate_bps`.
    pub fn new(mean_rate_bps: f64, seed: u64) -> Self {
        assert!(mean_rate_bps > 0.0);
        PoissonSource {
            mean_rate_bps,
            rng: StdRng::seed_from_u64(seed ^ 0x5851f42d4c957f2d),
            generated_bytes: 0,
            next_arrival: Time::ZERO,
        }
    }

    fn advance_to(&mut self, now: Time) {
        let mean_gap_s = MSS as f64 * 8.0 / self.mean_rate_bps;
        while self.next_arrival <= now {
            self.generated_bytes += MSS as u64;
            // Exponential inter-arrival via inverse CDF.
            let u: f64 = self.rng.gen::<f64>().max(1e-12);
            let gap = -mean_gap_s * u.ln();
            self.next_arrival += Time::from_secs_f64(gap.max(1e-9));
        }
    }
}

impl Source for PoissonSource {
    fn on_flow_start(&mut self, now: Time) {
        // Fast-forward the arrival process and drop everything generated
        // before the flow existed.
        self.advance_to(now);
        self.generated_bytes = 0;
    }
    fn bytes_available(&mut self, now: Time) -> u64 {
        self.advance_to(now);
        self.generated_bytes
    }
    fn next_data_time(&self, now: Time) -> Option<Time> {
        Some(self.next_arrival.max(now + Time::from_micros(100)))
    }
    fn done_writing(&self) -> bool {
        false
    }
    fn label(&self) -> &'static str {
        "poisson"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backlogged_always_has_data() {
        let mut s = BackloggedSource;
        assert!(s.bytes_available(Time::ZERO) > 1 << 40);
        assert!(!s.done_writing());
        assert_eq!(s.next_data_time(Time::ZERO), None);
    }

    #[test]
    fn fixed_size_is_all_available_and_done() {
        let mut s = FixedSizeSource::new(150_000);
        assert_eq!(s.bytes_available(Time::ZERO), 150_000);
        assert!(s.done_writing());
    }

    #[test]
    fn scripted_constant_rate_integrates_linearly() {
        let mut s = ScriptedSource::constant(24e6); // 3 MB/s
        assert_eq!(s.bytes_available(Time::ZERO), 0);
        let b1 = s.bytes_available(Time::from_secs_f64(1.0));
        assert!((b1 as f64 - 3e6).abs() < 1e3);
        let b10 = s.bytes_available(Time::from_secs_f64(10.0));
        assert!((b10 as f64 - 30e6).abs() < 1e4);
    }

    #[test]
    fn poisson_long_run_rate_matches_mean() {
        let mut s = PoissonSource::new(24e6, 7);
        let bytes = s.bytes_available(Time::from_secs_f64(100.0));
        let rate = bytes as f64 * 8.0 / 100.0;
        assert!((rate - 24e6).abs() < 1.5e6, "rate {rate}");
    }

    #[test]
    fn poisson_is_deterministic_per_seed_and_bursty() {
        let gen = |seed| {
            let mut s = PoissonSource::new(10e6, seed);
            (0..100)
                .map(|i| s.bytes_available(Time::from_millis(i * 10)))
                .collect::<Vec<_>>()
        };
        assert_eq!(gen(3), gen(3));
        assert_ne!(gen(3), gen(4));
        // Burstiness: increments over fixed intervals should vary.
        let series = gen(3);
        let increments: Vec<u64> = series.windows(2).map(|w| w[1] - w[0]).collect();
        let distinct: std::collections::HashSet<_> = increments.iter().collect();
        assert!(distinct.len() > 5);
    }
}
