//! Instrumentation: everything the paper's figures are plotted from.
//!
//! The recorder is owned by the engine and fed three kinds of observations:
//!
//! * per-packet events at the bottleneck (enqueue / dequeue / drop), which
//!   yield queue-occupancy and per-packet queueing-delay series plus the
//!   ground-truth "fraction of cross-traffic bytes that belong to elastic
//!   flows" used to score the detector (Fig. 12);
//! * per-ACK events at each monitored sender, which yield throughput and RTT
//!   series (Figs. 1, 8, 9, 13, 16–19);
//! * flow lifecycle events, which yield flow completion times (Fig. 21).

use crate::packet::FlowId;
use nimbus_core_types::Time;
use serde::Serialize;

/// A uniformly sampled time series.
#[derive(Debug, Clone, Default, Serialize)]
pub struct TimeSeries {
    /// Sample timestamps in seconds.
    pub t: Vec<f64>,
    /// Sample values.
    pub v: Vec<f64>,
}

impl TimeSeries {
    /// Append a sample.
    pub fn push(&mut self, t: f64, v: f64) {
        self.t.push(t);
        self.v.push(v);
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
                .zip(&self.v)
                .filter(|(t, _)| **t >= t0 && **t <= t1)
                .map(|(_, v)| *v),
        )
    }

    /// Mean over all (finite) samples; NaN when there are none.
    pub fn mean(&self) -> f64 {
        mean_of_finite(self.v.iter().copied())
    }

    /// The values as a slice (for CDFs and percentile computations).
    pub fn values(&self) -> &[f64] {
        &self.v
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

/// Samples per chunk of a [`ChunkedSamples`] store: 64 kB of `f64`.
pub const SAMPLE_CHUNK: usize = 8192;

/// An append-only store of samples in chunks of [`SAMPLE_CHUNK`].
///
/// Growing allocates one more chunk and moves no sample, so the unused space
/// is at most one chunk; a doubling `Vec` leaves up to half its buffer unused
/// and copies every sample on each growth.  It serializes as the one flat
/// list of its samples, exactly like a `Vec<f64>` holding them.
#[derive(Debug, Default)]
pub struct ChunkedSamples {
    /// The chunks filled so far, in order.
    full: Vec<Vec<f64>>,
    /// The chunk being filled: unallocated until the first sample, then
    /// allocated one chunk at a time.
    tail: Vec<f64>,
}

impl ChunkedSamples {
    /// Append a sample.
    pub fn push(&mut self, x: f64) {
        if self.tail.len() == self.tail.capacity() {
            self.start_chunk();
        }
        self.tail.push(x);
    }

    #[cold]
    fn start_chunk(&mut self) {
        let filled = std::mem::replace(&mut self.tail, Vec::with_capacity(SAMPLE_CHUNK));
        if !filled.is_empty() {
            self.full.push(filled);
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.chunks().map(<[f64]>::len).sum()
    }

    /// True when there are no samples.
    pub fn is_empty(&self) -> bool {
        self.tail.is_empty()
    }

    /// The samples in order, one slice per chunk — what a chunk-aware
    /// reduction such as `nimbus_dsp::percentile_of_chunks` reads in place.
    pub fn chunks(&self) -> impl Iterator<Item = &[f64]> + Clone {
        self.full
            .iter()
            .map(Vec::as_slice)
            .chain(std::iter::once(self.tail.as_slice()))
    }
}

impl Serialize for ChunkedSamples {
    fn to_value(&self) -> serde::Value {
        let mut seq = Vec::with_capacity(self.len());
        for chunk in self.chunks() {
            seq.extend(chunk.iter().map(Serialize::to_value));
        }
        serde::Value::Seq(seq)
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

/// Summary of a finished (or still running) flow.
#[derive(Debug, Clone, Serialize)]
pub struct FlowStats {
    /// Flow identifier.
    pub id: FlowId,
    /// Human-readable label copied from the flow configuration.
    pub label: String,
    /// Whether the experiment counts this flow as elastic cross traffic
    /// (`None` for monitored flows, which are not cross traffic).
    pub counts_as_elastic: Option<bool>,
    /// Time the flow was configured to start.
    pub start: Time,
    /// Whether the flow actually started during the run.  Flows whose
    /// configured `start` lies beyond the simulation duration never run and
    /// must not pollute FCT or ground-truth aggregates.
    pub started: bool,
    /// Time the flow finished, if it did.
    pub finish: Option<Time>,
    /// Total bytes delivered in order to the receiver (goodput).
    pub delivered_bytes: u64,
    /// Total bytes that arrived at the receiver, regardless of order
    /// (the throughput the paper's figures plot).
    pub received_bytes: u64,
    /// Total data packets that were dropped (by a queue or the loss model).
    pub dropped_packets: u64,
    /// Flow size in bytes if the flow was finite.
    pub size_bytes: Option<u64>,
}

impl FlowStats {
    /// Flow completion time, if the flow finished.
    pub fn fct(&self) -> Option<Time> {
        self.finish.map(|f| f.saturating_sub(self.start))
    }
}

/// Upper size bound (bytes, inclusive) for a "mouse" flow when bucketing
/// FCTs: roughly what fits in a few initial windows.
pub const MICE_MAX_BYTES: u64 = 100_000;

/// Lower size bound (bytes, inclusive) for an "elephant" flow when
/// bucketing FCTs.
pub const ELEPHANT_MIN_BYTES: u64 = 1_000_000;

/// Percentile statistics over the flow completion times of one size bucket.
/// Empty buckets report `count == 0` and NaN statistics — absence of flows is
/// not the same thing as instantaneous completion.
#[derive(Debug, Clone, Copy)]
pub struct FctBucket {
    /// Number of completed flows in the bucket.
    pub count: u64,
    /// Mean completion time, seconds.
    pub mean_s: f64,
    /// Median completion time, seconds.
    pub p50_s: f64,
    /// 95th-percentile completion time, seconds.
    pub p95_s: f64,
    /// 99th-percentile completion time, seconds.
    pub p99_s: f64,
}

impl FctBucket {
    fn from_fcts(mut fcts: Vec<f64>) -> Self {
        if fcts.is_empty() {
            return FctBucket {
                count: 0,
                mean_s: f64::NAN,
                p50_s: f64::NAN,
                p95_s: f64::NAN,
                p99_s: f64::NAN,
            };
        }
        fcts.sort_by(|a, b| a.partial_cmp(b).expect("FCTs are finite"));
        let n = fcts.len();
        // Nearest-rank percentile on the sorted sample.
        let rank = |p: f64| -> f64 {
            let idx = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1;
            fcts[idx]
        };
        FctBucket {
            count: n as u64,
            mean_s: fcts.iter().sum::<f64>() / n as f64,
            p50_s: rank(50.0),
            p95_s: rank(95.0),
            p99_s: rank(99.0),
        }
    }
}

/// Size-bucketed FCT percentile summary over a run's completed finite flows:
/// the population-level view a fleet workload is judged by (mice should not
/// starve behind elephants; tail percentiles expose queueing pathologies that
/// means hide).
#[derive(Debug, Clone, Copy)]
pub struct FctSummary {
    /// All completed finite flows.
    pub all: FctBucket,
    /// Flows of at most [`MICE_MAX_BYTES`].
    pub mice: FctBucket,
    /// Flows strictly between the mice and elephant bounds.
    pub medium: FctBucket,
    /// Flows of at least [`ELEPHANT_MIN_BYTES`].
    pub elephant: FctBucket,
}

impl FctSummary {
    /// Summarize `(size_bytes, fct_seconds)` pairs.
    pub fn from_fcts(fcts: &[(u64, f64)]) -> Self {
        let select = |pred: &dyn Fn(u64) -> bool| -> Vec<f64> {
            fcts.iter()
                .filter(|(sz, _)| pred(*sz))
                .map(|(_, f)| *f)
                .collect()
        };
        FctSummary {
            all: FctBucket::from_fcts(select(&|_| true)),
            mice: FctBucket::from_fcts(select(&|sz| sz <= MICE_MAX_BYTES)),
            medium: FctBucket::from_fcts(select(&|sz| {
                sz > MICE_MAX_BYTES && sz < ELEPHANT_MIN_BYTES
            })),
            elephant: FctBucket::from_fcts(select(&|sz| sz >= ELEPHANT_MIN_BYTES)),
        }
    }
}

/// The instrumentation sink for a simulation run.
///
/// A *monitored* flow (one a [`crate::FlowConfig`] registers with
/// `counts_as_elastic: None`) gets the per-interval series below, indexed
/// by its [`Recorder::monitored_slot`]; every flow gets its [`FlowStats`];
/// and a finite flow that finishes appends its completion to
/// [`Recorder::fct_stream`].
#[derive(Debug)]
pub struct Recorder {
    cfg: RecorderConfig,
    /// Per monitored flow: throughput in Mbit/s per interval.
    pub throughput_mbps: Vec<TimeSeries>,
    /// Per monitored flow: mean RTT (ms) per interval.
    pub rtt_ms: Vec<TimeSeries>,
    /// Per monitored flow: mean per-packet bottleneck queueing delay (ms) per interval.
    pub queue_delay_ms: Vec<TimeSeries>,
    /// Per monitored flow: raw per-packet queueing delay samples (ms).
    pub packet_delay_samples_ms: Vec<ChunkedSamples>,
    /// Total path queue occupancy (bytes) summed over every hop, sampled
    /// every interval.  For a single-hop path this *is* the bottleneck
    /// occupancy, exactly as in the single-link engine.
    pub queue_bytes: TimeSeries,
    /// Per-hop queue occupancy (bytes), sampled every interval; indexed by
    /// path hop.  `hop_queue_bytes[0]` duplicates `queue_bytes` on a
    /// single-hop path.
    pub hop_queue_bytes: Vec<TimeSeries>,
    /// Packets dropped at each hop (queue, AQM or loss model).
    pub hop_dropped_packets: Vec<u64>,
    /// Cumulative CE marks applied by each hop's queue (ECN runs only;
    /// stays all-zero — and out of the snapshot — when nothing marks).
    pub hop_marked_packets: Vec<u64>,
    /// CE marks applied by each hop's queue during each sampling interval —
    /// the mark-rate signal an ECN-reacting sender ultimately observes.
    pub hop_mark_series: Vec<TimeSeries>,
    /// Cross-traffic arrival rate at the bottleneck (Mbit/s) per interval
    /// — the ground-truth `z(t)`.
    pub cross_rate_mbps: TimeSeries,
    /// Fraction of cross-traffic bytes (per interval) belonging to flows
    /// tagged elastic — the ground truth of Fig. 12.
    pub elastic_fraction: TimeSeries,
    /// Final per-flow summaries (indexed by FlowId).
    pub flows: Vec<FlowStats>,

    /// Per flow: its slot in the per-monitored-flow series, if monitored.
    monitored_index: Vec<Option<usize>>,
    /// `(size_bytes, fct_seconds)` appended as finite flows finish.
    fct_stream: Vec<(u64, f64)>,
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
        Recorder {
            cfg,
            throughput_mbps: Vec::new(),
            rtt_ms: Vec::new(),
            queue_delay_ms: Vec::new(),
            packet_delay_samples_ms: Vec::new(),
            queue_bytes: TimeSeries::default(),
            hop_queue_bytes: vec![TimeSeries::default(); num_hops],
            hop_dropped_packets: vec![0; num_hops],
            hop_marked_packets: vec![0; num_hops],
            hop_mark_series: vec![TimeSeries::default(); num_hops],
            cross_rate_mbps: TimeSeries::default(),
            elastic_fraction: TimeSeries::default(),
            flows: Vec::new(),
            monitored_index: Vec::new(),
            fct_stream: Vec::new(),
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

    /// Number of path hops this recorder tracks.
    pub fn num_hops(&self) -> usize {
        self.hop_queue_bytes.len()
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
        self.flows.push(FlowStats {
            id,
            label,
            counts_as_elastic,
            start,
            started: false,
            finish: None,
            delivered_bytes: 0,
            received_bytes: 0,
            dropped_packets: 0,
            size_bytes,
        });
        if monitored {
            self.monitored_index.push(Some(self.throughput_mbps.len()));
            self.throughput_mbps.push(TimeSeries::default());
            self.rtt_ms.push(TimeSeries::default());
            self.queue_delay_ms.push(TimeSeries::default());
            self.packet_delay_samples_ms.push(ChunkedSamples::default());
            self.intervals.push_slot();
        } else {
            self.monitored_index.push(None);
        }
    }

    /// Monitored-series index for a flow, if it is monitored.
    pub fn monitored_slot(&self, id: FlowId) -> Option<usize> {
        self.monitored_index.get(id).copied().flatten()
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
            self.packet_delay_samples_ms[slot].push(ms);
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
        self.flows[flow].finish = Some(now);
        let f = &self.flows[flow];
        if f.started {
            if let (Some(sz), Some(fct)) = (f.size_bytes, f.fct()) {
                self.fct_stream.push((sz, fct.as_secs_f64()));
            }
        }
    }

    /// Close the current sampling interval at time `now` with each hop's
    /// queue occupancy in path order.
    pub fn sample(&mut self, now: Time, hop_queue_bytes: &[u64]) {
        debug_assert_eq!(hop_queue_bytes.len(), self.hop_queue_bytes.len());
        let t = now.as_secs_f64();
        let dt = now.saturating_sub(self.last_sample).as_secs_f64();
        self.last_sample = now;
        let total: u64 = hop_queue_bytes.iter().sum();
        self.queue_bytes.push(t, total as f64);
        for (series, &bytes) in self.hop_queue_bytes.iter_mut().zip(hop_queue_bytes) {
            series.push(t, bytes as f64);
        }

        let cross_total = self.cross_elastic_bytes + self.cross_inelastic_bytes;
        if dt > 0.0 {
            self.cross_rate_mbps
                .push(t, cross_total as f64 * 8.0 / dt / 1e6);
        } else {
            self.cross_rate_mbps.push(t, 0.0);
        }
        let frac = if cross_total > 0 {
            self.cross_elastic_bytes as f64 / cross_total as f64
        } else {
            0.0
        };
        self.elastic_fraction.push(t, frac);
        self.cross_elastic_bytes = 0;
        self.cross_inelastic_bytes = 0;

        for slot in 0..self.throughput_mbps.len() {
            let tput = if dt > 0.0 {
                self.intervals.received_bytes[slot] as f64 * 8.0 / dt / 1e6
            } else {
                0.0
            };
            self.throughput_mbps[slot].push(t, tput);
            let rtt = if self.intervals.rtt_count[slot] > 0 {
                self.intervals.rtt_sum_ms[slot] / self.intervals.rtt_count[slot] as f64
            } else {
                f64::NAN
            };
            self.rtt_ms[slot].push(t, rtt);
            let qd = if self.intervals.qdelay_count[slot] > 0 {
                self.intervals.qdelay_sum_ms[slot] / self.intervals.qdelay_count[slot] as f64
            } else {
                f64::NAN
            };
            self.queue_delay_ms[slot].push(t, qd);
            self.intervals.reset(slot);
        }
    }

    /// Record each hop's cumulative CE-mark counter (read off its queue) at
    /// the close of a sampling interval; the per-hop series stores the
    /// interval's delta.  Called by the engine alongside [`Recorder::sample`].
    pub fn sample_marks(&mut self, now: Time, cumulative: &[u64]) {
        debug_assert_eq!(cumulative.len(), self.hop_marked_packets.len());
        let t = now.as_secs_f64();
        for (hop, &cum) in cumulative.iter().enumerate() {
            let delta = cum.saturating_sub(self.hop_marked_packets[hop]);
            self.hop_mark_series[hop].push(t, delta as f64);
            self.hop_marked_packets[hop] = cum;
        }
    }

    /// Serialize every public time series and per-flow summary.  This is the
    /// record the determinism tests compare byte-for-byte: two runs with the
    /// same `SimConfig` seed must produce identical snapshots.
    ///
    /// Per-hop entries are appended only for multi-hop paths: on a one-hop
    /// path they would merely duplicate `queue_bytes` and the per-flow drop
    /// counts, and omitting them keeps single-bottleneck snapshots (and the
    /// fingerprints pinned against the pre-path engine) byte-identical.
    pub fn snapshot(&self) -> serde::Value {
        use serde::Serialize as _;
        let mut entries = vec![
            (
                "throughput_mbps".to_string(),
                self.throughput_mbps.to_value(),
            ),
            ("rtt_ms".to_string(), self.rtt_ms.to_value()),
            ("queue_delay_ms".to_string(), self.queue_delay_ms.to_value()),
            (
                "packet_delay_samples_ms".to_string(),
                self.packet_delay_samples_ms.to_value(),
            ),
            ("queue_bytes".to_string(), self.queue_bytes.to_value()),
            (
                "cross_rate_mbps".to_string(),
                self.cross_rate_mbps.to_value(),
            ),
            (
                "elastic_fraction".to_string(),
                self.elastic_fraction.to_value(),
            ),
            ("flows".to_string(), self.flows.to_value()),
        ];
        if self.num_hops() > 1 {
            entries.push((
                "hop_queue_bytes".to_string(),
                self.hop_queue_bytes.to_value(),
            ));
            entries.push((
                "hop_dropped_packets".to_string(),
                self.hop_dropped_packets.to_value(),
            ));
        }
        // Mark entries appear only when something actually marked: an
        // ECN-off run never does, so its snapshot — and every fingerprint
        // pinned before ECN existed — is byte-identical.
        if self.hop_marked_packets.iter().any(|&m| m > 0) {
            entries.push((
                "hop_marked_packets".to_string(),
                self.hop_marked_packets.to_value(),
            ));
            entries.push((
                "hop_mark_series".to_string(),
                self.hop_mark_series.to_value(),
            ));
        }
        serde::Value::Map(entries)
    }

    /// The completion record: one `(size_bytes, fct_seconds)` pair for
    /// every finite flow that actually ran and finished, in completion
    /// order, appended as flows finish — usable mid-run without walking the
    /// whole flow table.
    pub fn fct_stream(&self) -> &[(u64, f64)] {
        &self.fct_stream
    }

    /// Size-bucketed p50/p95/p99 summary of every completed finite flow,
    /// using the default mice/elephant boundaries.  Computed on demand; not
    /// part of [`Recorder::snapshot`], so pinned fingerprints are unaffected.
    pub fn fct_summary(&self) -> FctSummary {
        FctSummary::from_fcts(&self.fct_stream)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_series_basic_ops() {
        let mut ts = TimeSeries::default();
        assert!(ts.is_empty());
        ts.push(0.0, 1.0);
        ts.push(1.0, 3.0);
        ts.push(2.0, 5.0);
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.mean(), 3.0);
        assert_eq!(ts.mean_in_range(0.5, 2.5), 4.0);
        assert_eq!(ts.values(), &[1.0, 3.0, 5.0]);
    }

    #[test]
    fn empty_ranges_yield_nan_not_zero() {
        // Regression: a window with no samples used to report 0.0, which is
        // indistinguishable from a genuine zero throughput/RTT.
        let mut ts = TimeSeries::default();
        assert!(ts.mean().is_nan());
        assert!(ts.mean_in_range(0.0, 10.0).is_nan());
        ts.push(0.0, f64::NAN);
        ts.push(1.0, f64::NAN);
        assert!(ts.mean().is_nan(), "all-NaN series must stay NaN");
        assert!(ts.mean_in_range(0.0, 2.0).is_nan());
        ts.push(2.0, 0.0);
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

        assert_eq!(r.throughput_mbps[0].len(), 1);
        assert!((r.throughput_mbps[0].v[0] - 100.0).abs() < 1e-9);
        assert!((r.rtt_ms[0].v[0] - 70.0).abs() < 1e-9);
        assert!((r.queue_delay_ms[0].v[0] - 10.0).abs() < 1e-9);
        assert!((r.elastic_fraction.v[0] - 0.75).abs() < 1e-9);
        assert_eq!(r.queue_bytes.v[0], 42_000.0);
        // Cross rate: 6000 bytes in 0.1 s = 0.48 Mbit/s.
        assert!((r.cross_rate_mbps.v[0] - 0.48).abs() < 1e-9);

        // Interval counters reset.
        r.sample(Time::from_millis(200), &[0]);
        assert_eq!(r.throughput_mbps[0].v[1], 0.0);
        assert_eq!(r.elastic_fraction.v[1], 0.0);
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
        let fcts = r.fct_stream();
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
    fn fct_bucket_percentiles_use_nearest_rank() {
        let fcts: Vec<(u64, f64)> = (1..=100).map(|i| (1000, i as f64)).collect();
        let s = FctSummary::from_fcts(&fcts);
        assert_eq!(s.all.count, 100);
        assert_eq!(s.all.p50_s, 50.0);
        assert_eq!(s.all.p95_s, 95.0);
        assert_eq!(s.all.p99_s, 99.0);
        assert!((s.all.mean_s - 50.5).abs() < 1e-9);
        // All flows are 1000 B: mice bucket holds everything.
        assert_eq!(s.mice.count, 100);
        assert_eq!(s.medium.count, 0);
        assert!(s.medium.p50_s.is_nan());
        assert_eq!(s.elephant.count, 0);
    }

    #[test]
    fn fct_summary_buckets_split_by_size() {
        let fcts = vec![
            (50_000, 0.1),     // mouse
            (100_000, 0.2),    // mouse (inclusive bound)
            (500_000, 1.0),    // medium
            (1_000_000, 5.0),  // elephant (inclusive bound)
            (20_000_000, 9.0), // elephant
        ];
        let s = FctSummary::from_fcts(&fcts);
        assert_eq!(s.all.count, 5);
        assert_eq!(s.mice.count, 2);
        assert_eq!(s.medium.count, 1);
        assert_eq!(s.elephant.count, 2);
        assert!((s.mice.p50_s - 0.1).abs() < 1e-9);
        assert!((s.medium.p50_s - 1.0).abs() < 1e-9);
        assert!((s.elephant.p99_s - 9.0).abs() < 1e-9);
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
        assert_eq!(r.fct_stream(), &[(2_000, 2.0), (1_000, 4.0)]);
        let s = r.fct_summary();
        assert_eq!(s.all.count, 2);
        assert!((s.all.p50_s - 2.0).abs() < 1e-9);
    }

    #[test]
    fn mark_series_stores_interval_deltas_and_gates_the_snapshot() {
        let mut r = Recorder::new(RecorderConfig::default(), 2);
        // No marks: the snapshot must not mention marks at all.
        r.sample_marks(Time::from_millis(100), &[0, 0]);
        let plain = serde_json::to_string(&r.snapshot()).unwrap();
        assert!(!plain.contains("hop_marked_packets"));
        // Cumulative counters 5 and 2, then 9 and 2: deltas 5,2 then 4,0.
        r.sample_marks(Time::from_millis(200), &[5, 2]);
        r.sample_marks(Time::from_millis(300), &[9, 2]);
        assert_eq!(r.hop_marked_packets, vec![9, 2]);
        assert_eq!(r.hop_mark_series[0].v, vec![0.0, 5.0, 4.0]);
        assert_eq!(r.hop_mark_series[1].v, vec![0.0, 2.0, 0.0]);
        let marked = serde_json::to_string(&r.snapshot()).unwrap();
        assert!(marked.contains("hop_marked_packets"));
        assert!(marked.contains("hop_mark_series"));
    }

    #[test]
    fn chunked_delay_samples_snapshot_as_one_flat_list() {
        let mut r = Recorder::new(RecorderConfig::default(), 1);
        r.register_flow(0, "a".into(), None, true, Time::ZERO, None);
        let delays_ms: Vec<f64> = (0..3 * SAMPLE_CHUNK as u64 + 17)
            .map(|i| {
                let delay = Time::from_nanos(i * 104_729 % 50_000_000);
                r.on_dequeue(0, delay);
                delay.as_millis_f64()
            })
            .collect();
        assert_eq!(r.packet_delay_samples_ms[0].chunks().count(), 4);
        let serde::Value::Map(entries) = r.snapshot() else {
            panic!("a snapshot is a map");
        };
        let (_, samples) = entries
            .iter()
            .find(|(name, _)| name == "packet_delay_samples_ms")
            .expect("the snapshot holds the delay samples");
        assert_eq!(
            serde_json::to_string(samples).unwrap(),
            serde_json::to_string(&vec![delays_ms]).unwrap()
        );
    }

    #[test]
    fn drops_are_attributed_to_flows() {
        let mut r = Recorder::new(RecorderConfig::default(), 1);
        r.register_flow(0, "a".into(), None, true, Time::ZERO, None);
        r.on_drop(0, 0);
        r.on_drop(0, 0);
        assert_eq!(r.flows[0].dropped_packets, 2);
    }
}
