//! CCP-style measurement reports.
//!
//! The paper implements Nimbus on CCP \[23\], whose datapath reports aggregate
//! measurements to the user-space controller every 10 ms (§4.2): bytes acked,
//! losses, the RTT, and — crucially for Nimbus — the send rate `S` and receive
//! rate `R` measured over the most recent window of packets (Eq. 2).
//!
//! [`ReportAggregator`] reproduces that interface.  The sender machinery feeds
//! it one record per ACK; congestion controllers receive a [`Report`] on every
//! tick.  A controller that never reads one
//! ([`CongestionControl::reads_reports`](crate::cc::CongestionControl::reads_reports)
//! is `false`: NewReno, Cubic, Vegas, Copa, Compound, DCTCP and the
//! constant-rate senders) gets no aggregator, so its flow keeps no per-ACK
//! records.  `S` and `R` are computed over the ACKs received in the last
//! `measurement_window` (one RTT by default, per §3.4: "we measure rates over
//! an RTT because sub-RTT measurements are confounded by burstiness").

use nimbus_core_types::Time;
use std::collections::VecDeque;

/// One per-ACK record kept by the aggregator.
#[derive(Debug, Clone, Copy)]
struct AckRecord {
    /// When the data packet was sent.
    sent_at: Time,
    /// When its ACK arrived back at the sender.
    acked_at: Time,
    /// Bytes acknowledged by every record up to and including this one, so
    /// the bytes between two records are one subtraction.
    cum_bytes: u64,
}

/// Aggregate measurements delivered to a congestion controller on each tick.
#[derive(Debug, Clone, Copy, Default)]
pub struct Report {
    /// Report timestamp (seconds).
    pub now_s: f64,
    /// Send rate `S` over the measurement window, bits/s (Eq. 2).
    pub send_rate_bps: f64,
    /// Receive rate `R` over the measurement window, bits/s (Eq. 2).
    pub recv_rate_bps: f64,
    /// Bytes newly acknowledged since the previous report.
    pub acked_bytes: u64,
    /// Packets detected lost since the previous report.
    pub lost_packets: u64,
    /// Latest RTT sample (seconds), 0 if none yet.
    pub rtt_s: f64,
    /// Minimum RTT observed so far (seconds), 0 if none yet.
    pub min_rtt_s: f64,
    /// Number of ACKs in the measurement window.
    pub window_acks: usize,
    /// ACKs carrying a CE echo since the previous report (0 on non-ECN
    /// flows, so mark-aware consumers stay inert there).
    pub marked_packets: u64,
    /// Bytes of the CE-marked data segments behind those echoes.
    pub marked_bytes: u64,
}

/// Builds [`Report`]s from per-ACK records.
#[derive(Debug, Clone)]
pub struct ReportAggregator {
    /// Ordered by `acked_at` (see [`ReportAggregator::on_ack`]).
    records: VecDeque<AckRecord>,
    /// Bytes over all records ever pushed; the next record's `cum_bytes`.
    recorded_bytes: u64,
    /// Length of the S/R measurement window.
    measurement_window: Time,
    acked_since_report: u64,
    lost_since_report: u64,
    marked_packets_since_report: u64,
    marked_bytes_since_report: u64,
    latest_rtt: Time,
    min_rtt: Option<Time>,
}

impl ReportAggregator {
    /// Create an aggregator with the given S/R measurement window
    /// (typically one RTT; it can be updated as the RTT estimate moves).
    pub fn new(measurement_window: Time) -> Self {
        ReportAggregator {
            records: VecDeque::new(),
            recorded_bytes: 0,
            measurement_window,
            acked_since_report: 0,
            lost_since_report: 0,
            marked_packets_since_report: 0,
            marked_bytes_since_report: 0,
            latest_rtt: Time::ZERO,
            min_rtt: None,
        }
    }

    /// Update the measurement window (e.g. to track the current RTT).
    pub fn set_measurement_window(&mut self, w: Time) {
        // Clamp to something sane so a bogus RTT estimate cannot blow up memory.
        self.measurement_window = w.max(Time::from_millis(10)).min(Time::from_millis(2000));
    }

    /// The current measurement window.
    pub fn measurement_window(&self) -> Time {
        self.measurement_window
    }

    /// Record one acknowledgement.  `acked_at` is the host's clock at ACK
    /// arrival and must not decrease from one call to the next: eviction
    /// and the rate window both read the records as ordered by it.
    pub fn on_ack(&mut self, sent_at: Time, acked_at: Time, newly_acked_bytes: u64, rtt: Time) {
        self.acked_since_report += newly_acked_bytes;
        self.latest_rtt = rtt;
        self.min_rtt = Some(match self.min_rtt {
            None => rtt,
            Some(m) => m.min(rtt),
        });
        if newly_acked_bytes > 0 {
            self.recorded_bytes += newly_acked_bytes;
            self.records.push_back(AckRecord {
                sent_at,
                acked_at,
                cum_bytes: self.recorded_bytes,
            });
        }
        // Evict records older than ~4 windows so memory stays bounded even if
        // reports stop being drawn.
        let horizon = acked_at.saturating_sub(self.measurement_window.mul_pow2(2));
        while let Some(front) = self.records.front() {
            if front.acked_at < horizon {
                self.records.pop_front();
            } else {
                break;
            }
        }
    }

    /// Record detected losses (fast retransmit or timeout).
    pub fn on_loss(&mut self, packets: u64) {
        self.lost_since_report += packets;
    }

    /// Record one CE echo (an ACK whose triggering segment arrived marked).
    pub fn on_mark(&mut self, bytes: u64) {
        self.marked_packets_since_report += 1;
        self.marked_bytes_since_report += bytes;
    }

    /// Compute the send and receive rates (bits/s) over ACKs whose arrival
    /// falls within the measurement window ending at `now`, following Eq. 2:
    /// the same set of packets is used for both rates.
    pub fn rates(&self, now: Time) -> (f64, f64, usize) {
        let start = now.saturating_sub(self.measurement_window);
        // Records are ordered by `acked_at`, so the window is a suffix.
        let first_idx = self.records.partition_point(|r| r.acked_at < start);
        let n = self.records.len() - first_idx;
        if n < 2 {
            return (0.0, 0.0, n);
        }
        let first = &self.records[first_idx];
        let last = &self.records[self.records.len() - 1];
        // Bytes covered by packets after the first (rate over n-1 gaps).
        let bytes = last.cum_bytes - first.cum_bytes;
        let send_span = last.sent_at.saturating_sub(first.sent_at).as_secs_f64();
        let recv_span = last.acked_at.saturating_sub(first.acked_at).as_secs_f64();
        let s = if send_span > 1e-9 {
            bytes as f64 * 8.0 / send_span
        } else {
            0.0
        };
        let r = if recv_span > 1e-9 {
            bytes as f64 * 8.0 / recv_span
        } else {
            0.0
        };
        (s, r, n)
    }

    /// Produce the report for the tick at `now` and reset the per-report counters.
    pub fn report(&mut self, now: Time) -> Report {
        let (s, r, n) = self.rates(now);
        let rep = Report {
            now_s: now.as_secs_f64(),
            send_rate_bps: s,
            recv_rate_bps: r,
            acked_bytes: self.acked_since_report,
            lost_packets: self.lost_since_report,
            rtt_s: self.latest_rtt.as_secs_f64(),
            min_rtt_s: self.min_rtt.map(|m| m.as_secs_f64()).unwrap_or(0.0),
            window_acks: n,
            marked_packets: self.marked_packets_since_report,
            marked_bytes: self.marked_bytes_since_report,
        };
        self.acked_since_report = 0;
        self.lost_since_report = 0;
        self.marked_packets_since_report = 0;
        self.marked_bytes_since_report = 0;
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The S/R measurement as it was before the window became a suffix
    /// lookup: per-ACK byte counts, the window found by filtering every
    /// record, the bytes summed one by one.  Kept as the reference
    /// [`ReportAggregator::rates`] is held to, bit for bit.
    struct FilteringAggregator {
        records: VecDeque<(Time, Time, u64)>,
        measurement_window: Time,
    }

    impl FilteringAggregator {
        fn on_ack(&mut self, sent_at: Time, acked_at: Time, bytes: u64) {
            if bytes > 0 {
                self.records.push_back((sent_at, acked_at, bytes));
            }
            let horizon = acked_at.saturating_sub(self.measurement_window.mul_f64(4.0));
            while self.records.front().is_some_and(|r| r.1 < horizon) {
                self.records.pop_front();
            }
        }

        fn rates(&self, now: Time) -> (f64, f64, usize) {
            let start = now.saturating_sub(self.measurement_window);
            let window: Vec<_> = self.records.iter().filter(|r| r.1 >= start).collect();
            if window.len() < 2 {
                return (0.0, 0.0, window.len());
            }
            let (first, last) = (window[0], window[window.len() - 1]);
            let bytes: u64 = window.iter().skip(1).map(|r| r.2).sum();
            let rate = |span: Time| {
                let span = span.as_secs_f64();
                if span > 1e-9 {
                    bytes as f64 * 8.0 / span
                } else {
                    0.0
                }
            };
            (
                rate(last.0.saturating_sub(first.0)),
                rate(last.1.saturating_sub(first.1)),
                window.len(),
            )
        }
    }

    proptest! {
        // Random ACK trains — bursts at one instant, stalls longer than the
        // 4-window eviction horizon, zero-byte ACKs, the window moved
        // mid-train — with the rates read after every ACK, at the ACK and a
        // little later: same `(S, R, n)` bits as filter-and-collect.
        #[test]
        fn rates_match_the_filtering_reference_bit_for_bit(seed in 0u64..1_000_000) {
            let mut rng = TestRng::new(seed);
            let window = Time::from_millis(rng.range_u64(10, 200));
            let mut agg = ReportAggregator::new(window);
            let mut reference = FilteringAggregator {
                records: VecDeque::new(),
                measurement_window: window,
            };
            let mut now = Time::ZERO;
            for step in 0..600 {
                now += match rng.range_u64(0, 20) {
                    0..=3 => Time::ZERO,
                    4 => Time::from_millis(rng.range_u64(100, 3000)),
                    _ => Time::from_nanos(rng.range_u64(1, 3_000_000)),
                };
                if rng.range_u64(0, 40) == 0 {
                    agg.set_measurement_window(Time::from_millis(rng.range_u64(0, 2500)));
                    reference.measurement_window = agg.measurement_window();
                }
                let rtt = Time::from_nanos(rng.range_u64(0, 80_000_000));
                let bytes = match rng.range_u64(0, 8) {
                    0 => 0,
                    _ => rng.range_u64(1, 65_536),
                };
                let sent_at = now.saturating_sub(rtt);
                agg.on_ack(sent_at, now, bytes, rtt);
                reference.on_ack(sent_at, now, bytes);
                for at in [now, now + Time::from_millis(rng.range_u64(0, 50))] {
                    let (s, r, n) = agg.rates(at);
                    let (want_s, want_r, want_n) = reference.rates(at);
                    prop_assert_eq!(
                        (s.to_bits(), r.to_bits(), n),
                        (want_s.to_bits(), want_r.to_bits(), want_n),
                        "seed={} step={}", seed, step
                    );
                }
            }
        }
    }

    /// Feed ACKs for packets sent at a constant rate and acked at a constant
    /// (possibly different) rate, and check S and R.
    fn feed_constant(
        agg: &mut ReportAggregator,
        n: usize,
        send_gap_ms: f64,
        ack_gap_ms: f64,
        bytes: u64,
        ack_start_ms: f64,
    ) -> Time {
        let mut last_ack = Time::ZERO;
        for i in 0..n {
            let sent = Time::from_millis_f64(i as f64 * send_gap_ms);
            let acked = Time::from_millis_f64(ack_start_ms + i as f64 * ack_gap_ms);
            let rtt = acked.saturating_sub(sent);
            agg.on_ack(sent, acked, bytes, rtt);
            last_ack = acked;
        }
        last_ack
    }

    #[test]
    fn send_and_receive_rates_match_construction() {
        let mut agg = ReportAggregator::new(Time::from_millis(500));
        // 1500-byte packets sent every 1 ms (12 Mbit/s), acked every 2 ms (6 Mbit/s).
        let now = feed_constant(&mut agg, 100, 1.0, 2.0, 1500, 50.0);
        let (s, r, n) = agg.rates(now);
        assert!(n > 50);
        assert!((s - 12e6).abs() < 0.5e6, "S {s}");
        assert!((r - 6e6).abs() < 0.3e6, "R {r}");
    }

    #[test]
    fn rates_use_only_the_window() {
        let mut agg = ReportAggregator::new(Time::from_millis(100));
        // Early slow phase then a fast phase; the window should only see the
        // fast phase.
        feed_constant(&mut agg, 50, 10.0, 10.0, 1500, 20.0); // 1.2 Mbit/s for 0.5 s
                                                             // Fast phase starting at 600 ms: 12 Mbit/s.
        for i in 0..100u64 {
            let sent = Time::from_millis_f64(600.0 + i as f64);
            let acked = Time::from_millis_f64(620.0 + i as f64);
            agg.on_ack(sent, acked, 1500, Time::from_millis(20));
        }
        let now = Time::from_millis_f64(720.0);
        let (s, _r, _) = agg.rates(now);
        assert!((s - 12e6).abs() < 1e6, "S {s}");
    }

    #[test]
    fn report_resets_counters() {
        let mut agg = ReportAggregator::new(Time::from_millis(200));
        agg.on_ack(
            Time::ZERO,
            Time::from_millis(10),
            3000,
            Time::from_millis(10),
        );
        agg.on_loss(2);
        let rep = agg.report(Time::from_millis(10));
        assert_eq!(rep.acked_bytes, 3000);
        assert_eq!(rep.lost_packets, 2);
        assert!((rep.rtt_s - 0.01).abs() < 1e-9);
        let rep2 = agg.report(Time::from_millis(20));
        assert_eq!(rep2.acked_bytes, 0);
        assert_eq!(rep2.lost_packets, 0);
    }

    #[test]
    fn too_few_acks_give_zero_rates() {
        let mut agg = ReportAggregator::new(Time::from_millis(100));
        let (s, r, n) = agg.rates(Time::from_millis(50));
        assert_eq!((s, r, n), (0.0, 0.0, 0));
        agg.on_ack(
            Time::ZERO,
            Time::from_millis(10),
            1500,
            Time::from_millis(10),
        );
        let (s, r, n) = agg.rates(Time::from_millis(50));
        assert_eq!((s, r), (0.0, 0.0));
        assert_eq!(n, 1);
    }

    #[test]
    fn min_rtt_is_preserved_across_reports() {
        let mut agg = ReportAggregator::new(Time::from_millis(100));
        agg.on_ack(
            Time::ZERO,
            Time::from_millis(50),
            1500,
            Time::from_millis(50),
        );
        agg.on_ack(
            Time::ZERO,
            Time::from_millis(100),
            1500,
            Time::from_millis(100),
        );
        let rep = agg.report(Time::from_millis(100));
        assert!((rep.min_rtt_s - 0.05).abs() < 1e-9);
        assert!((rep.rtt_s - 0.1).abs() < 1e-9);
    }

    #[test]
    fn measurement_window_is_clamped() {
        let mut agg = ReportAggregator::new(Time::from_millis(100));
        agg.set_measurement_window(Time::from_secs_f64(100.0));
        assert_eq!(agg.measurement_window(), Time::from_millis(2000));
        agg.set_measurement_window(Time::ZERO);
        assert_eq!(agg.measurement_window(), Time::from_millis(10));
    }
}
