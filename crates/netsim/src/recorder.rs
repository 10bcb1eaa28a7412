//! Instrumentation: everything the paper's figures are plotted from.
//!
//! The recorder is owned by the engine and fed three kinds of observations:
//!
//! * per-packet events at the bottleneck (enqueue / dequeue / drop), which
//!   yield queue-occupancy and mean queueing-delay series plus the
//!   ground-truth "fraction of cross-traffic bytes that belong to elastic
//!   flows" used to score the detector (Fig. 12);
//! * per-ACK events at each monitored sender, which yield throughput and RTT
//!   series (Figs. 1, 8, 9, 13, 16–19);
//! * flow lifecycle events, which yield flow completion times (Fig. 21).
//!
//! A packet only adds to its sampling interval's sums and counters: the
//! stores grow per interval, per flow and per completed flow, never per
//! packet.  Every series is sampled on one clock, kept once: an interval
//! pushes its time onto the clock and one value onto each column, and a
//! reader borrows a column with its times as a [`TimeSeries`].

use crate::packet::FlowId;
use nimbus_core_types::Time;
use serde::Serialize;
use std::fmt;

/// One recorded series: the recorder's sample clock and one column of
/// values, borrowed from the [`Recorder`] that holds them.
#[derive(Debug, Clone, Copy)]
pub struct TimeSeries<'a> {
    /// Sample timestamps in seconds.
    pub t: &'a [f64],
    /// Sample values, one per timestamp.
    pub v: &'a [f64],
}

impl<'a> TimeSeries<'a> {
    /// `column` on the shared `clock`.  A column shorter than the clock
    /// belongs to a flow registered mid-run: its values are the clock's
    /// last `column.len()` samples.
    fn on(clock: &'a [f64], column: &'a [f64]) -> Self {
        TimeSeries {
            t: &clock[clock.len() - column.len()..],
            v: column,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.v.len()
    }

    /// True when there are no samples.
    pub fn is_empty(&self) -> bool {
        self.v.is_empty()
    }

    /// Mean of values in the (closed) time range `[t0, t1]` seconds.
    /// NaN samples (intervals with no observations) are skipped.
    ///
    /// Returns NaN when the range holds no finite samples: a window with no
    /// observations is *not* the same thing as a genuine zero throughput or
    /// RTT, and callers must be able to tell the two apart.
    pub fn mean_in_range(&self, t0: f64, t1: f64) -> f64 {
        mean_of_finite(
            self.t
                .iter()
                .zip(self.v)
                .filter(|(t, _)| **t >= t0 && **t <= t1)
                .map(|(_, v)| *v),
        )
    }

    /// Mean over all (finite) samples; NaN when there are none.
    pub fn mean(&self) -> f64 {
        mean_of_finite(self.v.iter().copied())
    }
}

/// `{"t":[…],"v":[…]}`.
impl Serialize for TimeSeries<'_> {
    fn serialize(&self, w: &mut serde::Writer<'_>) {
        w.map([("t", self.t), ("v", self.v)]);
    }
}

/// Per-flow or per-hop columns on one clock, written as an array of
/// [`TimeSeries`].
struct Columns<'a> {
    clock: &'a [f64],
    columns: &'a [Vec<f64>],
}

impl Serialize for Columns<'_> {
    fn serialize(&self, w: &mut serde::Writer<'_>) {
        w.seq(self.columns.iter().map(|c| TimeSeries::on(self.clock, c)));
    }
}

/// Mean of the finite values, summed in order; NaN when there are none.
fn mean_of_finite(values: impl Iterator<Item = f64>) -> f64 {
    let mut n = 0usize;
    let sum: f64 = values.filter(|v| v.is_finite()).inspect(|_| n += 1).sum();
    if n == 0 {
        f64::NAN
    } else {
        sum / n as f64
    }
}

/// Recorder configuration.
#[derive(Debug, Clone)]
pub struct RecorderConfig {
    /// Sampling interval for all time series.
    pub sample_interval: Time,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig {
            sample_interval: Time::from_millis(100),
        }
    }
}

/// Per-monitored-flow accumulators for the current sampling interval, laid
/// out as parallel arrays indexed by monitored slot.  The per-packet hooks
/// (`on_arrival`, `on_rtt_sample`, `on_dequeue`) each touch exactly one
/// array, and the per-interval flush walks each array linearly — no per-flow
/// struct is moved or cloned on the hot path.
#[derive(Debug, Default)]
struct IntervalBuf {
    received_bytes: Vec<u64>,
    rtt_sum_ms: Vec<f64>,
    rtt_count: Vec<u64>,
    qdelay_sum_ms: Vec<f64>,
    qdelay_count: Vec<u64>,
}

impl IntervalBuf {
    /// Add a zeroed slot for a newly registered monitored flow.
    fn push_slot(&mut self) {
        self.received_bytes.push(0);
        self.rtt_sum_ms.push(0.0);
        self.rtt_count.push(0);
        self.qdelay_sum_ms.push(0.0);
        self.qdelay_count.push(0);
    }

    /// Zero `slot`'s accumulators for the next interval.
    fn reset(&mut self, slot: usize) {
        self.received_bytes[slot] = 0;
        self.rtt_sum_ms[slot] = 0.0;
        self.rtt_count[slot] = 0;
        self.qdelay_sum_ms[slot] = 0.0;
        self.qdelay_count[slot] = 0;
    }
}

/// Summary of a finished (or still running) flow: 72 B plus its label's
/// text, one per flow ever registered, kept in [`Recorder::flows`] at the
/// flow's id.
///
/// The id is the record's index, so it is not stored; the snapshot's
/// `flows` entry writes it.  `finish` and `size_bytes` store a sentinel no
/// run reaches in place of `None` — [`Time::MAX`] for a flow that has not
/// finished and `u64::MAX` for an unbounded flow — and are read through
/// [`FlowStats::finish`] and [`FlowStats::size_bytes`].  `dropped_packets`,
/// `started` and `counts_as_elastic` share the record's last 8 bytes.
#[derive(Debug, Clone)]
pub struct FlowStats {
    /// Human-readable label copied from the flow configuration.
    pub label: String,
    /// Time the flow was configured to start.
    pub start: Time,
    /// Time the flow finished, or [`FlowStats::UNFINISHED`].
    finish: Time,
    /// Total bytes delivered in order to the receiver (goodput).
    pub delivered_bytes: u64,
    /// Total bytes that arrived at the receiver, regardless of order
    /// (the throughput the paper's figures plot).
    pub received_bytes: u64,
    /// Flow size in bytes, or [`FlowStats::UNSIZED`] for an unbounded flow.
    size_bytes: u64,
    /// Total data packets that were dropped (by a queue or the loss model).
    pub dropped_packets: u32,
    /// Whether the flow actually started during the run.  Flows whose
    /// configured `start` lies beyond the simulation duration never run and
    /// must not pollute FCT or ground-truth aggregates.
    pub started: bool,
    /// Whether the experiment counts this flow as elastic cross traffic
    /// (`None` for monitored flows, which are not cross traffic).
    pub counts_as_elastic: Option<bool>,
}

const _: () = assert!(std::mem::size_of::<FlowStats>() == 72);

impl FlowStats {
    /// The stored `finish` of a flow that has not finished.
    const UNFINISHED: Time = Time::MAX;
    /// The stored `size_bytes` of an unbounded flow.
    const UNSIZED: u64 = u64::MAX;

    /// A registered flow that has not started yet.
    fn new(label: String, counts_as_elastic: Option<bool>, start: Time, size: Option<u64>) -> Self {
        assert_ne!(
            size,
            Some(Self::UNSIZED),
            "a flow size must be below u64::MAX"
        );
        FlowStats {
            label,
            start,
            finish: Self::UNFINISHED,
            delivered_bytes: 0,
            received_bytes: 0,
            size_bytes: size.unwrap_or(Self::UNSIZED),
            dropped_packets: 0,
            started: false,
            counts_as_elastic,
        }
    }

    /// Time the flow finished, if it did.
    pub fn finish(&self) -> Option<Time> {
        (self.finish != Self::UNFINISHED).then_some(self.finish)
    }

    /// Flow size in bytes if the flow was finite.
    pub fn size_bytes(&self) -> Option<u64> {
        (self.size_bytes != Self::UNSIZED).then_some(self.size_bytes)
    }

    /// Flow completion time, if the flow finished.
    pub fn fct(&self) -> Option<Time> {
        self.finish().map(|f| f.saturating_sub(self.start))
    }

    /// Record that the flow finished at `now`.
    fn set_finish(&mut self, now: Time) {
        debug_assert_ne!(now, Self::UNFINISHED, "no run reaches Time::MAX");
        self.finish = now;
    }
}

/// The snapshot's `flows` entry: each record as one object, its index
/// written as its `id`.
struct Flows<'a>(&'a [FlowStats]);

impl Serialize for Flows<'_> {
    fn serialize(&self, w: &mut serde::Writer<'_>) {
        w.seq(self.0.iter().enumerate().map(|(id, f)| FlowRecord(id, f)));
    }
}

/// One [`FlowStats`] with its id, written in the snapshot's field order.
struct FlowRecord<'a>(FlowId, &'a FlowStats);

impl Serialize for FlowRecord<'_> {
    fn serialize(&self, w: &mut serde::Writer<'_>) {
        let FlowRecord(id, f) = *self;
        let entries: [(&str, &dyn Serialize); 10] = [
            ("id", &id),
            ("label", &f.label),
            ("counts_as_elastic", &f.counts_as_elastic),
            ("start", &f.start),
            ("started", &f.started),
            ("finish", &f.finish()),
            ("delivered_bytes", &f.delivered_bytes),
            ("received_bytes", &f.received_bytes),
            ("dropped_packets", &u64::from(f.dropped_packets)),
            ("size_bytes", &f.size_bytes()),
        ];
        w.map(entries);
    }
}

/// The instrumentation sink for a simulation run.
///
/// A *monitored* flow (one a [`crate::FlowConfig`] registers with
/// `counts_as_elastic: None`) gets the per-interval series below, indexed
/// by its [`Recorder::monitored_slot`]; every flow gets its [`FlowStats`];
/// and a finite flow that finishes appends its id to the completion record
/// that [`Recorder::fct_stream`] reads.
///
/// Every series is sampled on one clock, stored once: a series is a bare
/// column of values, and its accessor lends it out as a [`TimeSeries`]
/// over the shared sample times.
#[derive(Debug)]
pub struct Recorder {
    cfg: RecorderConfig,
    /// Sample times in seconds, one per closed interval: the clock every
    /// column below is sampled on.
    t: Vec<f64>,
    /// Per monitored flow: throughput in Mbit/s per interval.
    throughput_mbps: Vec<Vec<f64>>,
    /// Per monitored flow: mean RTT (ms) per interval.
    rtt_ms: Vec<Vec<f64>>,
    /// Per monitored flow: mean per-packet bottleneck queueing delay (ms)
    /// per interval.
    queue_delay_ms: Vec<Vec<f64>>,
    /// Total path queue occupancy (bytes) summed over every hop, per
    /// interval.  On a single-hop path this *is* the bottleneck occupancy.
    queue_bytes: Vec<f64>,
    /// Per-hop queue occupancy (bytes) per interval, indexed by path hop;
    /// empty on a single-hop path, whose one hop reads `queue_bytes`.
    hop_queue_bytes: Vec<Vec<f64>>,
    /// Packets dropped at each hop (queue, AQM or loss model).
    pub hop_dropped_packets: Vec<u64>,
    /// Cumulative CE marks applied by each hop's queue, as the engine read
    /// them at the last sample (ECN runs only; stays all-zero — and out of
    /// the snapshot — when nothing marks).
    pub hop_marked_packets: Vec<u64>,
    /// Cross-traffic arrival rate at the bottleneck (Mbit/s) per interval
    /// — the ground-truth `z(t)`.
    cross_rate_mbps: Vec<f64>,
    /// Fraction of cross-traffic bytes (per interval) belonging to flows
    /// tagged elastic — the ground truth of Fig. 12.
    elastic_fraction: Vec<f64>,
    /// Final per-flow summaries (indexed by FlowId).
    pub flows: Vec<FlowStats>,

    /// The monitored flows in registration order, so ascending by id: a
    /// flow's position here is its slot in the per-monitored-flow series.
    monitored: Vec<FlowId>,
    /// The ids of finite flows that ran, appended as they finish: the
    /// completion record [`Recorder::fct_stream`] reads.
    completions: Vec<u32>,
    intervals: IntervalBuf,
    cross_elastic_bytes: u64,
    cross_inelastic_bytes: u64,
    last_sample: Time,
}

impl Recorder {
    /// Create a recorder for a path of `num_hops` links; flows are
    /// registered afterwards by the engine.
    pub fn new(cfg: RecorderConfig, num_hops: usize) -> Self {
        assert!(num_hops > 0, "a path has at least one hop");
        let hop_columns = if num_hops > 1 { num_hops } else { 0 };
        Recorder {
            cfg,
            t: Vec::new(),
            throughput_mbps: Vec::new(),
            rtt_ms: Vec::new(),
            queue_delay_ms: Vec::new(),
            queue_bytes: Vec::new(),
            hop_queue_bytes: vec![Vec::new(); hop_columns],
            hop_dropped_packets: vec![0; num_hops],
            hop_marked_packets: vec![0; num_hops],
            cross_rate_mbps: Vec::new(),
            elastic_fraction: Vec::new(),
            flows: Vec::new(),
            monitored: Vec::new(),
            completions: Vec::new(),
            intervals: IntervalBuf::default(),
            cross_elastic_bytes: 0,
            cross_inelastic_bytes: 0,
            last_sample: Time::ZERO,
        }
    }

    /// The configured sampling interval.
    pub fn sample_interval(&self) -> Time {
        self.cfg.sample_interval
    }

    /// The time the last interval closed (zero before the first sample).
    pub fn last_sample(&self) -> Time {
        self.last_sample
    }

    /// Number of path hops this recorder tracks.
    pub fn num_hops(&self) -> usize {
        self.hop_dropped_packets.len()
    }

    /// Throughput (Mbit/s) per interval of the monitored flow in `slot`.
    pub fn throughput_mbps(&self, slot: usize) -> TimeSeries<'_> {
        TimeSeries::on(&self.t, &self.throughput_mbps[slot])
    }

    /// Mean RTT (ms) per interval of the monitored flow in `slot`; NaN for
    /// an interval without an RTT sample.
    pub fn rtt_ms(&self, slot: usize) -> TimeSeries<'_> {
        TimeSeries::on(&self.t, &self.rtt_ms[slot])
    }

    /// Mean per-packet bottleneck queueing delay (ms) per interval of the
    /// monitored flow in `slot`; NaN for an interval without a dequeue.
    pub fn queue_delay_ms(&self, slot: usize) -> TimeSeries<'_> {
        TimeSeries::on(&self.t, &self.queue_delay_ms[slot])
    }

    /// Total path queue occupancy (bytes) summed over every hop.
    pub fn queue_bytes(&self) -> TimeSeries<'_> {
        TimeSeries::on(&self.t, &self.queue_bytes)
    }

    /// Queue occupancy (bytes) of path hop `hop`; on a single-hop path
    /// hop 0's is [`Recorder::queue_bytes`].
    pub fn hop_queue_bytes(&self, hop: usize) -> TimeSeries<'_> {
        assert!(hop < self.num_hops(), "hop {hop} is not on the path");
        match self.hop_queue_bytes.get(hop) {
            Some(column) => TimeSeries::on(&self.t, column),
            None => self.queue_bytes(),
        }
    }

    /// Cross-traffic arrival rate at the bottleneck (Mbit/s) — the
    /// ground-truth `z(t)`.
    pub fn cross_rate_mbps(&self) -> TimeSeries<'_> {
        TimeSeries::on(&self.t, &self.cross_rate_mbps)
    }

    /// Fraction of cross-traffic bytes belonging to flows tagged elastic —
    /// the ground truth of Fig. 12.
    pub fn elastic_fraction(&self) -> TimeSeries<'_> {
        TimeSeries::on(&self.t, &self.elastic_fraction)
    }

    /// Register a flow. `monitored` flows get full time series; the engine
    /// monitors exactly the flows that are not cross traffic
    /// (`counts_as_elastic` is `None`).
    pub fn register_flow(
        &mut self,
        id: FlowId,
        label: String,
        counts_as_elastic: Option<bool>,
        monitored: bool,
        start: Time,
        size_bytes: Option<u64>,
    ) {
        debug_assert_eq!(id, self.flows.len(), "flows must be registered in order");
        self.flows
            .push(FlowStats::new(label, counts_as_elastic, start, size_bytes));
        if monitored {
            debug_assert!(self.monitored.last().is_none_or(|&m| m < id));
            self.monitored.push(id);
            self.throughput_mbps.push(Vec::new());
            self.rtt_ms.push(Vec::new());
            self.queue_delay_ms.push(Vec::new());
            self.intervals.push_slot();
        }
    }

    /// Monitored-series index for a flow, if it is monitored: a binary
    /// search of the monitored flows, which are registered in id order (a
    /// fleet can monitor dozens).
    pub fn monitored_slot(&self, id: FlowId) -> Option<usize> {
        self.monitored.binary_search(&id).ok()
    }

    /// A data packet of `bytes` from `flow` was accepted into the bottleneck queue.
    pub fn on_enqueue(&mut self, flow: FlowId, bytes: u32) {
        match self.flows[flow].counts_as_elastic {
            Some(true) => self.cross_elastic_bytes += bytes as u64,
            Some(false) => self.cross_inelastic_bytes += bytes as u64,
            None => {}
        }
    }

    /// A data packet from `flow` was dropped at `hop` (queue, AQM or loss
    /// model).
    pub fn on_drop(&mut self, flow: FlowId, hop: usize) {
        self.flows[flow].dropped_packets += 1;
        self.hop_dropped_packets[hop] += 1;
    }

    /// A packet from `flow` started transmission after waiting `delay` in the queue.
    pub fn on_dequeue(&mut self, flow: FlowId, delay: Time) {
        if let Some(slot) = self.monitored_slot(flow) {
            let ms = delay.as_millis_f64();
            self.intervals.qdelay_sum_ms[slot] += ms;
            self.intervals.qdelay_count[slot] += 1;
        }
    }

    /// A data packet of `bytes` arrived at the receiver of `flow`
    /// (irrespective of ordering). This is what throughput series count.
    pub fn on_arrival(&mut self, flow: FlowId, bytes: u64) {
        self.flows[flow].received_bytes += bytes;
        if let Some(slot) = self.monitored_slot(flow) {
            self.intervals.received_bytes[slot] += bytes;
        }
    }

    /// In-order delivery progressed at the receiver of `flow` (goodput / FCT
    /// bookkeeping).
    pub fn on_delivered(&mut self, flow: FlowId, newly_delivered: u64) {
        self.flows[flow].delivered_bytes += newly_delivered;
    }

    /// An RTT sample was observed for `flow`.
    pub fn on_rtt_sample(&mut self, flow: FlowId, rtt: Time) {
        if let Some(slot) = self.monitored_slot(flow) {
            self.intervals.rtt_sum_ms[slot] += rtt.as_millis_f64();
            self.intervals.rtt_count[slot] += 1;
        }
    }

    /// The flow actually started (its `FlowStart` event fired within the run).
    pub fn on_flow_start(&mut self, flow: FlowId) {
        self.flows[flow].started = true;
    }

    /// The flow finished (delivered all its data).
    pub fn on_finish(&mut self, flow: FlowId, now: Time) {
        let f = &mut self.flows[flow];
        f.set_finish(now);
        if f.started && f.size_bytes().is_some() {
            let id = u32::try_from(flow).expect("flow ids fit in u32");
            self.completions.push(id);
        }
    }

    /// Close the current sampling interval at time `now` with each hop's
    /// queue occupancy in path order.
    pub fn sample(&mut self, now: Time, hop_queue_bytes: &[u64]) {
        debug_assert_eq!(hop_queue_bytes.len(), self.num_hops());
        let dt = now.saturating_sub(self.last_sample).as_secs_f64();
        self.last_sample = now;
        self.t.push(now.as_secs_f64());
        let total: u64 = hop_queue_bytes.iter().sum();
        self.queue_bytes.push(total as f64);
        for (column, &bytes) in self.hop_queue_bytes.iter_mut().zip(hop_queue_bytes) {
            column.push(bytes as f64);
        }

        let cross_total = self.cross_elastic_bytes + self.cross_inelastic_bytes;
        self.cross_rate_mbps.push(if dt > 0.0 {
            cross_total as f64 * 8.0 / dt / 1e6
        } else {
            0.0
        });
        let frac = if cross_total > 0 {
            self.cross_elastic_bytes as f64 / cross_total as f64
        } else {
            0.0
        };
        self.elastic_fraction.push(frac);
        self.cross_elastic_bytes = 0;
        self.cross_inelastic_bytes = 0;

        for slot in 0..self.monitored.len() {
            let tput = if dt > 0.0 {
                self.intervals.received_bytes[slot] as f64 * 8.0 / dt / 1e6
            } else {
                0.0
            };
            self.throughput_mbps[slot].push(tput);
            let rtt = if self.intervals.rtt_count[slot] > 0 {
                self.intervals.rtt_sum_ms[slot] / self.intervals.rtt_count[slot] as f64
            } else {
                f64::NAN
            };
            self.rtt_ms[slot].push(rtt);
            let qd = if self.intervals.qdelay_count[slot] > 0 {
                self.intervals.qdelay_sum_ms[slot] / self.intervals.qdelay_count[slot] as f64
            } else {
                f64::NAN
            };
            self.queue_delay_ms[slot].push(qd);
            self.intervals.reset(slot);
        }
    }

    /// Every public time series and per-flow summary, borrowed for
    /// serialization.  This is the record the determinism tests compare
    /// byte-for-byte: two runs with the same `SimConfig` seed must produce
    /// identical snapshots.
    pub fn snapshot(&self) -> Snapshot<'_> {
        Snapshot(self)
    }

    /// The completion record: one `(size_bytes, fct_seconds)` pair for
    /// every finite flow that actually ran and finished, in completion
    /// order — usable mid-run without walking the whole flow table.  The
    /// recorder keeps a 4-byte flow id per completion, appended as the flow
    /// finishes, and reads each pair from that flow's [`FlowStats`].
    pub fn fct_stream(&self) -> impl ExactSizeIterator<Item = (u64, f64)> + Clone + '_ {
        self.completions.iter().map(|&id| {
            let f = &self.flows[id as usize];
            (f.size_bytes, f.finish.saturating_sub(f.start).as_secs_f64())
        })
    }
}

/// A [`Recorder`]'s state as one JSON object, written straight from the
/// recorder's own stores ([`Recorder::snapshot`]).
#[derive(Debug, Clone, Copy)]
pub struct Snapshot<'a>(&'a Recorder);

impl Serialize for Snapshot<'_> {
    fn serialize(&self, w: &mut serde::Writer<'_>) {
        let r = self.0;
        // Per-hop entries are written only for multi-hop paths (on one hop
        // they would duplicate `queue_bytes` and the per-flow drops), and mark
        // entries only once something marked: single-bottleneck and ECN-off
        // snapshots stay byte-identical to the engine's before paths and ECN.
        let hops = r.num_hops() > 1;
        let marks = r.hop_marked_packets.iter().any(|&m| m > 0);
        let clock = &r.t[..];
        let columns = |columns| Columns { clock, columns };
        let entries: [(&str, &dyn Serialize, bool); 10] = [
            ("throughput_mbps", &columns(&r.throughput_mbps), true),
            ("rtt_ms", &columns(&r.rtt_ms), true),
            ("queue_delay_ms", &columns(&r.queue_delay_ms), true),
            ("queue_bytes", &r.queue_bytes(), true),
            ("cross_rate_mbps", &r.cross_rate_mbps(), true),
            ("elastic_fraction", &r.elastic_fraction(), true),
            ("flows", &Flows(&r.flows), true),
            ("hop_queue_bytes", &columns(&r.hop_queue_bytes), hops),
            ("hop_dropped_packets", &r.hop_dropped_packets, hops),
            ("hop_marked_packets", &r.hop_marked_packets, marks),
        ];
        w.map(entries.iter().filter(|e| e.2).map(|e| (e.0, e.1)));
    }
}

/// A 64-bit FNV-1a hash of the bytes written to it: a [`Snapshot`]'s
/// fingerprint is `serde_json::to_writer` into one of these, so the text
/// is hashed as it is written and never held.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// The hash of everything written so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for &b in s.as_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fingerprints_are_order_sensitive() {
        let fnv1a = |s: &str| {
            let mut hash = Fnv1a::default();
            fmt::Write::write_str(&mut hash, s).unwrap();
            hash.finish()
        };
        assert_ne!(fnv1a("ab"), fnv1a("ba"));
        assert_ne!(fnv1a(""), fnv1a("\0"));
        // The published FNV-1a test vector.
        assert_eq!(fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn time_series_basic_ops() {
        let ts = TimeSeries {
            t: &[0.0, 1.0, 2.0],
            v: &[1.0, 3.0, 5.0],
        };
        assert!(!ts.is_empty());
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.mean(), 3.0);
        assert_eq!(ts.mean_in_range(0.5, 2.5), 4.0);
    }

    #[test]
    fn empty_ranges_yield_nan_not_zero() {
        // Regression: a window with no samples used to report 0.0, which is
        // indistinguishable from a genuine zero throughput/RTT.
        let empty = TimeSeries { t: &[], v: &[] };
        assert!(empty.is_empty());
        assert!(empty.mean().is_nan());
        assert!(empty.mean_in_range(0.0, 10.0).is_nan());
        let no_data = TimeSeries {
            t: &[0.0, 1.0],
            v: &[f64::NAN, f64::NAN],
        };
        assert!(no_data.mean().is_nan(), "all-NaN series must stay NaN");
        assert!(no_data.mean_in_range(0.0, 2.0).is_nan());
        let ts = TimeSeries {
            t: &[0.0, 1.0, 2.0],
            v: &[f64::NAN, f64::NAN, 0.0],
        };
        // A genuine zero sample is reported as zero, not NaN.
        assert_eq!(ts.mean(), 0.0);
        assert_eq!(ts.mean_in_range(1.5, 2.5), 0.0);
        // A window past the data is NaN again.
        assert!(ts.mean_in_range(10.0, 20.0).is_nan());
    }

    #[test]
    fn recorder_tracks_throughput_and_ground_truth() {
        let mut r = Recorder::new(RecorderConfig::default(), 1);
        r.register_flow(0, "nimbus".into(), None, true, Time::ZERO, None);
        r.register_flow(1, "cubic-cross".into(), Some(true), false, Time::ZERO, None);
        r.register_flow(2, "cbr-cross".into(), Some(false), false, Time::ZERO, None);

        // Interval 1: monitored flow delivers 1.25 MB in 0.1 s = 100 Mbit/s;
        // cross traffic 75% elastic by bytes.
        r.on_arrival(0, 1_250_000);
        r.on_enqueue(1, 1500);
        r.on_enqueue(1, 1500);
        r.on_enqueue(1, 1500);
        r.on_enqueue(2, 1500);
        r.on_rtt_sample(0, Time::from_millis(60));
        r.on_rtt_sample(0, Time::from_millis(80));
        r.on_dequeue(0, Time::from_millis(10));
        r.sample(Time::from_millis(100), &[42_000]);

        assert_eq!(r.throughput_mbps(0).len(), 1);
        assert!((r.throughput_mbps(0).v[0] - 100.0).abs() < 1e-9);
        assert!((r.rtt_ms(0).v[0] - 70.0).abs() < 1e-9);
        assert!((r.queue_delay_ms(0).v[0] - 10.0).abs() < 1e-9);
        assert!((r.elastic_fraction().v[0] - 0.75).abs() < 1e-9);
        assert_eq!(r.queue_bytes().v[0], 42_000.0);
        // Cross rate: 6000 bytes in 0.1 s = 0.48 Mbit/s.
        assert!((r.cross_rate_mbps().v[0] - 0.48).abs() < 1e-9);

        // Interval counters reset.
        r.sample(Time::from_millis(200), &[0]);
        assert_eq!(r.throughput_mbps(0).v[1], 0.0);
        assert_eq!(r.elastic_fraction().v[1], 0.0);
    }

    #[test]
    fn flow_stats_fct_and_throughput() {
        let mut r = Recorder::new(RecorderConfig::default(), 1);
        r.register_flow(
            0,
            "f".into(),
            Some(true),
            false,
            Time::from_millis(1000),
            Some(1_000_000),
        );
        r.on_flow_start(0);
        r.on_delivered(0, 1_000_000);
        r.on_arrival(0, 1_000_000);
        r.on_finish(0, Time::from_millis(3000));
        let f = &r.flows[0];
        assert_eq!(f.fct(), Some(Time::from_millis(2000)));
        let fcts: Vec<_> = r.fct_stream().collect();
        assert_eq!(fcts.len(), 1);
        assert_eq!(fcts[0].0, 1_000_000);
        assert!((fcts[0].1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn never_started_flows_are_excluded_from_summaries() {
        // Regression: flows whose configured start exceeded the run duration
        // used to be counted in FCT tables as if they ran.
        let mut r = Recorder::new(RecorderConfig::default(), 1);
        r.register_flow(0, "ran".into(), Some(true), false, Time::ZERO, Some(500));
        r.register_flow(
            1,
            "never".into(),
            Some(false),
            false,
            Time::from_secs_f64(100.0),
            Some(500),
        );
        r.on_flow_start(0);
        r.on_arrival(0, 500);
        r.on_delivered(0, 500);
        r.on_finish(0, Time::from_secs_f64(1.0));
        assert_eq!(r.fct_stream().len(), 1);
        assert!(!r.flows[1].started);
    }

    #[test]
    fn unmonitored_flows_have_no_series() {
        let mut r = Recorder::new(RecorderConfig::default(), 1);
        r.register_flow(0, "a".into(), Some(false), false, Time::ZERO, None);
        assert_eq!(r.monitored_slot(0), None);
        assert!(r.throughput_mbps.is_empty());
        // Feeding events must not panic.
        r.on_rtt_sample(0, Time::from_millis(10));
        r.on_dequeue(0, Time::from_millis(1));
        r.on_delivered(0, 100);
        r.on_arrival(0, 100);
        r.sample(Time::from_millis(100), &[0]);
        assert!(r.throughput_mbps.is_empty());
    }

    #[test]
    fn fct_stream_keeps_completion_order() {
        let mut r = Recorder::new(RecorderConfig::default(), 1);
        r.register_flow(0, "a".into(), Some(false), false, Time::ZERO, Some(1_000));
        r.register_flow(
            1,
            "b".into(),
            Some(false),
            false,
            Time::from_secs_f64(1.0),
            Some(2_000),
        );
        // An infinite flow never contributes an FCT even if "finished".
        r.register_flow(2, "inf".into(), None, true, Time::ZERO, None);
        r.on_flow_start(0);
        r.on_flow_start(1);
        r.on_flow_start(2);
        // Completion order b-then-a, opposite of id order.
        r.on_finish(1, Time::from_secs_f64(3.0));
        r.on_finish(0, Time::from_secs_f64(4.0));
        r.on_finish(2, Time::from_secs_f64(5.0));
        assert_eq!(
            r.fct_stream().collect::<Vec<_>>(),
            [(2_000, 2.0), (1_000, 4.0)]
        );
    }

    /// The snapshot's top-level keys, in order: the reviewed list of what a
    /// recorder stores.  A new store shows up as an edit here.
    #[test]
    fn snapshot_writes_exactly_the_reviewed_keys() {
        let keys = |r: &Recorder| -> Vec<String> {
            let text = serde_json::to_string(&r.snapshot()).unwrap();
            let value = serde_json::from_str(&text).unwrap();
            let map = value.as_map().unwrap();
            map.iter().map(|(key, _)| key.clone()).collect()
        };
        let one_hop = [
            "throughput_mbps",
            "rtt_ms",
            "queue_delay_ms",
            "queue_bytes",
            "cross_rate_mbps",
            "elastic_fraction",
            "flows",
        ];
        let mut r = Recorder::new(RecorderConfig::default(), 1);
        r.register_flow(0, "a".into(), None, true, Time::ZERO, None);
        r.on_dequeue(0, Time::from_millis(3));
        r.sample(Time::from_millis(100), &[1500]);
        assert_eq!(keys(&r), one_hop);

        let mut r = Recorder::new(RecorderConfig::default(), 2);
        r.register_flow(0, "a".into(), None, true, Time::ZERO, None);
        r.on_dequeue(0, Time::from_millis(3));
        r.sample(Time::from_millis(100), &[1500, 0]);
        // Two hops and no mark yet: the per-hop entries, no mark entry.
        assert_eq!(
            keys(&r)[one_hop.len()..],
            ["hop_queue_bytes", "hop_dropped_packets"]
        );
        r.hop_marked_packets[1] = 2;
        let two_hop_marking = [
            "hop_queue_bytes",
            "hop_dropped_packets",
            "hop_marked_packets",
        ];
        assert_eq!(keys(&r)[..one_hop.len()], one_hop);
        assert_eq!(keys(&r)[one_hop.len()..], two_hop_marking);
    }

    /// A two-hop recorder with a monitored flow, an elastic cross flow and
    /// a monitored flow registered after the first of two samples.
    fn two_hop_two_samples() -> Recorder {
        let mut r = Recorder::new(RecorderConfig::default(), 2);
        r.register_flow(0, "a".into(), None, true, Time::ZERO, None);
        r.register_flow(1, "x".into(), Some(true), false, Time::ZERO, Some(3000));
        r.on_flow_start(0);
        r.on_flow_start(1);
        r.on_arrival(0, 12_500);
        r.on_rtt_sample(0, Time::from_millis(50));
        r.on_dequeue(0, Time::from_millis(4));
        r.on_enqueue(1, 1500);
        r.on_drop(1, 1);
        r.sample(Time::from_millis(100), &[3000, 1500]);
        r.register_flow(2, "late".into(), None, true, Time::from_millis(150), None);
        r.on_arrival(0, 25_000);
        r.on_arrival(2, 1500);
        r.sample(Time::from_millis(200), &[0, 1500]);
        r
    }

    /// The snapshot's exact bytes: each series writes the shared clock as
    /// its own `t`, and the late flow's series starts at its first sample.
    #[test]
    fn a_two_hop_snapshot_writes_these_bytes() {
        let r = two_hop_two_samples();
        let expected = concat!(
            r#"{"throughput_mbps":[{"t":[0.1,0.2],"v":[1,2]},{"t":[0.2],"v":[0.12]}],"#,
            r#""rtt_ms":[{"t":[0.1,0.2],"v":[50,null]},{"t":[0.2],"v":[null]}],"#,
            r#""queue_delay_ms":[{"t":[0.1,0.2],"v":[4,null]},{"t":[0.2],"v":[null]}],"#,
            r#""queue_bytes":{"t":[0.1,0.2],"v":[4500,1500]},"#,
            r#""cross_rate_mbps":{"t":[0.1,0.2],"v":[0.12,0]},"#,
            r#""elastic_fraction":{"t":[0.1,0.2],"v":[1,0]},"#,
            r#""flows":[{"id":0,"label":"a","counts_as_elastic":null,"start":[0],"#,
            r#""started":true,"finish":null,"delivered_bytes":0,"received_bytes":37500,"#,
            r#""dropped_packets":0,"size_bytes":null},"#,
            r#"{"id":1,"label":"x","counts_as_elastic":true,"start":[0],"#,
            r#""started":true,"finish":null,"delivered_bytes":0,"received_bytes":0,"#,
            r#""dropped_packets":1,"size_bytes":3000},"#,
            r#"{"id":2,"label":"late","counts_as_elastic":null,"start":[150000000],"#,
            r#""started":false,"finish":null,"delivered_bytes":0,"received_bytes":1500,"#,
            r#""dropped_packets":0,"size_bytes":null}],"#,
            r#""hop_queue_bytes":[{"t":[0.1,0.2],"v":[3000,0]},{"t":[0.1,0.2],"v":[1500,1500]}],"#,
            r#""hop_dropped_packets":[0,1]}"#,
        );
        assert_eq!(serde_json::to_string(&r.snapshot()).unwrap(), expected);
    }

    #[test]
    fn every_view_of_a_run_shares_one_clock() {
        let r = two_hop_two_samples();
        let clock = r.queue_bytes().t;
        assert_eq!(clock, [0.1, 0.2]);
        let views = [
            r.throughput_mbps(0),
            r.rtt_ms(0),
            r.queue_delay_ms(0),
            r.hop_queue_bytes(0),
            r.hop_queue_bytes(1),
            r.cross_rate_mbps(),
            r.elastic_fraction(),
        ];
        for view in views {
            assert_eq!(view.t.as_ptr(), clock.as_ptr());
            assert_eq!(view.t.len(), clock.len());
            assert_eq!(view.v.len(), clock.len());
        }
    }

    #[test]
    fn a_flow_registered_after_k_samples_reads_the_last_n_minus_k_times() {
        let mut r = Recorder::new(RecorderConfig::default(), 1);
        r.register_flow(0, "early".into(), None, true, Time::ZERO, None);
        let (n, k) = (7u64, 3u64);
        for i in 1..=n {
            if i == k + 1 {
                r.register_flow(1, "late".into(), None, true, Time::ZERO, None);
            }
            r.on_arrival(r.flows.len() - 1, 1250 * i);
            r.sample(Time::from_millis(100 * i), &[0]);
        }
        let clock = r.throughput_mbps(0).t;
        assert_eq!(clock.len(), n as usize);
        for late in [r.throughput_mbps(1), r.rtt_ms(1), r.queue_delay_ms(1)] {
            assert_eq!(late.len(), (n - k) as usize);
            assert_eq!(late.t, &clock[k as usize..]);
        }
        let first = r.throughput_mbps(1).v[0];
        assert!((first - 1250.0 * (k + 1) as f64 * 8.0 / 0.1 / 1e6).abs() < 1e-9);
    }

    #[test]
    fn one_hop_reads_its_hop_queue_as_the_path_queue() {
        let mut r = Recorder::new(RecorderConfig::default(), 1);
        for (i, bytes) in [1500, 0, 4500].into_iter().enumerate() {
            r.sample(Time::from_millis(100 * (i as u64 + 1)), &[bytes]);
        }
        assert_eq!(r.num_hops(), 1);
        let (hop, path) = (r.hop_queue_bytes(0), r.queue_bytes());
        assert_eq!(hop.t, path.t);
        assert_eq!(hop.v, path.v);
        assert_eq!(hop.v, [1500.0, 0.0, 4500.0]);
    }

    #[test]
    fn drops_are_attributed_to_flows() {
        let mut r = Recorder::new(RecorderConfig::default(), 1);
        r.register_flow(0, "a".into(), None, true, Time::ZERO, None);
        r.on_drop(0, 0);
        r.on_drop(0, 0);
        assert_eq!(r.flows[0].dropped_packets, 2);
    }

    /// The reference record: every field its own value, `id` included,
    /// written by `#[derive(Serialize)]`.  [`FlowStats`] stores less and
    /// must write the same bytes.
    #[derive(Serialize)]
    struct DerivedFlowStats {
        id: FlowId,
        label: String,
        counts_as_elastic: Option<bool>,
        start: Time,
        started: bool,
        finish: Option<Time>,
        delivered_bytes: u64,
        received_bytes: u64,
        dropped_packets: u64,
        size_bytes: Option<u64>,
    }

    /// A draw below `top` that is 0 or 1 a quarter of the time and
    /// `top - 1` or `top - 2` another quarter.
    fn near_edges(rng: &mut TestRng, top: u64) -> u64 {
        match rng.range_u64(0, 4) {
            0 => rng.range_u64(0, 2),
            1 => top - rng.range_u64(1, 3),
            _ => rng.range_u64(0, top),
        }
    }

    /// `Some(value())` or `None`, evenly.
    fn maybe<T>(rng: &mut TestRng, value: impl FnOnce(&mut TestRng) -> T) -> Option<T> {
        (rng.range_u64(0, 2) == 1).then(|| value(rng))
    }

    /// A label of up to 2 000 characters, with quotes, backslashes,
    /// control characters and multi-byte ones among them.
    fn label(rng: &mut TestRng) -> String {
        const CHARS: [char; 8] = ['a', 'Z', '-', '"', '\\', '\n', '\u{1}', 'é'];
        let len = near_edges(rng, 2_000);
        let chars = (0..len).map(|_| CHARS[rng.range_u64(0, 8) as usize]);
        chars.collect()
    }

    /// A record and its reference twin, drawn from `rng`.
    fn records(rng: &mut TestRng, id: FlowId) -> (FlowStats, DerivedFlowStats) {
        let label = label(rng);
        let counts_as_elastic = maybe(rng, |rng| rng.range_u64(0, 2) == 1);
        let start = Time(near_edges(rng, u64::MAX) + rng.range_u64(0, 2));
        let size_bytes = maybe(rng, |rng| near_edges(rng, u64::MAX));
        let finish = maybe(rng, |rng| Time(near_edges(rng, u64::MAX)));
        let mut f = FlowStats::new(label.clone(), counts_as_elastic, start, size_bytes);
        f.started = rng.range_u64(0, 2) == 1;
        if let Some(t) = finish {
            f.set_finish(t);
        }
        f.delivered_bytes = near_edges(rng, u64::MAX) + rng.range_u64(0, 2);
        f.received_bytes = near_edges(rng, u64::MAX) + rng.range_u64(0, 2);
        f.dropped_packets = near_edges(rng, 1 << 32) as u32;
        let derived = DerivedFlowStats {
            id,
            label,
            counts_as_elastic,
            start,
            started: f.started,
            finish,
            delivered_bytes: f.delivered_bytes,
            received_bytes: f.received_bytes,
            dropped_packets: f.dropped_packets.into(),
            size_bytes,
        };
        (f, derived)
    }

    proptest! {
        #[test]
        fn flow_records_write_the_derived_bytes(seed in 0u64..u64::MAX, count in 0usize..24) {
            let mut rng = TestRng::new(seed);
            let (compact, derived): (Vec<_>, Vec<_>) =
                (0..count).map(|id| records(&mut rng, id)).unzip();
            for (f, d) in compact.iter().zip(&derived) {
                prop_assert_eq!(f.finish(), d.finish);
                prop_assert_eq!(f.size_bytes(), d.size_bytes);
            }
            let flows = Flows(&compact);
            prop_assert_eq!(
                serde_json::to_string(&flows).unwrap(),
                serde_json::to_string(&derived).unwrap()
            );
            prop_assert_eq!(
                serde_json::to_string_pretty(&flows).unwrap(),
                serde_json::to_string_pretty(&derived).unwrap()
            );
        }
    }

    #[test]
    fn the_largest_values_below_the_sentinels_are_kept() {
        let mut r = Recorder::new(RecorderConfig::default(), 1);
        r.register_flow(
            0,
            "f".into(),
            Some(true),
            false,
            Time::ZERO,
            Some(u64::MAX - 1),
        );
        r.on_flow_start(0);
        r.on_finish(0, Time(u64::MAX - 1));
        let f = &r.flows[0];
        assert_eq!(f.size_bytes(), Some(u64::MAX - 1));
        assert_eq!(f.finish(), Some(Time(u64::MAX - 1)));
        let fcts: Vec<_> = r.fct_stream().collect();
        assert_eq!(fcts, [(u64::MAX - 1, Time(u64::MAX - 1).as_secs_f64())]);
    }

    #[test]
    #[should_panic(expected = "a flow size must be below u64::MAX")]
    fn a_flow_of_the_sentinel_size_is_refused() {
        let mut r = Recorder::new(RecorderConfig::default(), 1);
        r.register_flow(0, "f".into(), Some(true), false, Time::ZERO, Some(u64::MAX));
    }
}
