//! The sender machinery: a [`FlowEndpoint`] that drives a congestion
//! controller over an application [`Source`].
//!
//! This is the "datapath" half of the CCP split the paper's implementation
//! uses (§4.2): sequence tracking, windowing, pacing, duplicate-ACK and
//! timeout-based loss recovery, RTT estimation and the 10 ms measurement
//! report.  The congestion-control "program" on top only ever sees
//! [`AckEvent`]s, loss notifications and
//! [`Report`](nimbus_core::ccp::Report)s, and only ever answers with a window and
//! an optional pacing rate.

use crate::source::Source;
use nimbus_core::cc::{AckEvent, CongestionControl, CongestionEvent, LossEvent};
use nimbus_core::ccp::ReportAggregator;
use nimbus_core::rtt::RttEstimator;
use nimbus_netsim::{AckInfo, FlowEndpoint, SendAction, SeqWindow, Time, MSS};
use std::borrow::Cow;
use std::collections::VecDeque;

/// Allow pacing catch-up after idle periods up to this long (to avoid giant
/// bursts after an application-limited pause).  A detail of the datapath half
/// of the §4.2 CCP split; the paper does not set it.
const MAX_PACING_DEBT: Time = Time::from_millis(10);

/// Receiver advertised window, in packets: `next_seq` never runs more than
/// this far ahead of `cum_acked`.  Without it, a flow whose front hole keeps
/// being re-lost (persistently full queue) would keep sending new data
/// forever, growing the SACK scoreboard without bound.  4096 packets ≈ 6 MB
/// is far above any bandwidth-delay product simulated here (§8.1: 96 Mbit/s ×
/// 50 ms ≈ 400 packets).
const MAX_WINDOW_PACKETS: u64 = 4096;

/// The longest retransmission timeout the sender arms, however far it has
/// backed off.
const RTO_CAP: Time = Time::from_millis(60_000);

/// Sender configuration.
#[derive(Debug, Clone)]
pub struct SenderConfig {
    /// Label used in logs and results.  Borrowed when static, so a flow
    /// whose label is a constant (every fleet flow) allocates none.
    pub label: Cow<'static, str>,
    /// When the flow stops: from this time on [`Sender`] reports the flow
    /// finished before it asks its source anything, even if the application
    /// still has data queued (like killing the sending process).  A source
    /// says only when data exists; this is the one place a flow's end is set.
    pub stop_at: Option<Time>,
}

impl Default for SenderConfig {
    fn default() -> Self {
        SenderConfig {
            label: Cow::Borrowed("sender"),
            stop_at: None,
        }
    }
}

impl SenderConfig {
    /// A default configuration with the given label.
    pub fn labelled(label: &str) -> Self {
        SenderConfig {
            label: Cow::Owned(label.to_string()),
            ..Default::default()
        }
    }
}

/// The generic sender: reliability + pacing + windowing around a
/// [`CongestionControl`] implementation and a [`Source`].
pub struct Sender {
    cfg: SenderConfig,
    cc: Box<dyn CongestionControl>,
    source: Box<dyn Source>,

    /// Next new (never sent) sequence number.
    next_seq: u64,
    /// Highest cumulative ACK received (all seq < cum_acked delivered).
    cum_acked: u64,
    /// Duplicate-ACK counter.
    dup_acks: u32,
    /// Segments above `cum_acked` known (from the ACKs' triggering sequence
    /// numbers) to have reached the receiver — the SACK scoreboard, a
    /// window based at `cum_acked`.  Empty outside loss recovery; it grows
    /// on a flow's first loss and keeps its capacity after that.
    sacked: SeqWindow<()>,
    /// Segments scheduled for retransmission.
    rtx_queue: VecDeque<u64>,
    /// Segments already queued or re-sent for retransmission in the current
    /// recovery episode (avoid duplicates), in a window based at `cum_acked`.
    rtx_pending: SeqWindow<()>,
    /// Fast-recovery state: recovery ends when cum_acked passes this point.
    recovery_point: Option<u64>,
    /// Loss-inference resume point: every hole below this sequence has
    /// already been queued for retransmission (it sits in `rtx_pending` for
    /// the rest of the episode) or was SACKed, so [`Sender::infer_losses`]
    /// can resume its scoreboard walk here instead of rescanning from
    /// `cum_acked` on every ACK.  Reset whenever `rtx_pending` is cleared
    /// (a new recovery episode or a timeout).
    scan_frontier: u64,
    /// Scoreboard positions examined by loss inference (scan-cost statistic;
    /// see [`Sender::scoreboard_scan_steps`]).
    scan_steps: u64,
    /// RTO state.
    rtt: RttEstimator,
    rto_deadline: Time,
    rto_backoff: u32,
    /// Pacing state.
    next_send_time: Time,
    /// The controller's [`CongestionControl::always_paces`], asked once:
    /// when set, a shut pacing gate is answered without asking for the pace.
    always_paces: bool,
    /// Measurement aggregation for CCP-style reports; `None` when the
    /// controller does not read reports (see
    /// [`CongestionControl::reads_reports`]), which spares it the per-ACK
    /// records.
    reports: Option<ReportAggregator>,
    /// Statistics.
    packets_sent: u64,
    packets_retransmitted: u64,
    timeouts: u64,
    fast_retransmits: u64,
}

impl Sender {
    /// Create a sender from a configuration, a congestion controller and a source.
    pub fn new(cfg: SenderConfig, cc: Box<dyn CongestionControl>, source: Box<dyn Source>) -> Self {
        let reports = cc
            .reads_reports()
            .then(|| ReportAggregator::new(Time::from_millis(100)));
        let always_paces = cc.always_paces();
        Sender {
            cfg,
            cc,
            source,
            next_seq: 0,
            cum_acked: 0,
            dup_acks: 0,
            sacked: SeqWindow::new(),
            rtx_queue: VecDeque::new(),
            rtx_pending: SeqWindow::new(),
            recovery_point: None,
            scan_frontier: 0,
            scan_steps: 0,
            rtt: RttEstimator::default(),
            rto_deadline: Time::MAX,
            rto_backoff: 0,
            next_send_time: Time::ZERO,
            always_paces,
            reports,
            packets_sent: 0,
            packets_retransmitted: 0,
            timeouts: 0,
            fast_retransmits: 0,
        }
    }

    /// The congestion controller, for post-run inspection.
    pub fn congestion_control(&self) -> &dyn CongestionControl {
        self.cc.as_ref()
    }

    /// Segments currently believed to be in the network ("pipe", RFC 6675):
    /// sent, not cumulatively acknowledged, not selectively acknowledged and
    /// not deemed lost (queued for retransmission but not yet re-sent).
    pub fn in_flight_packets(&self) -> u64 {
        self.next_seq
            .saturating_sub(self.cum_acked)
            .saturating_sub(self.sacked.len() as u64)
            .saturating_sub(self.rtx_queue.len() as u64)
    }

    /// Total data packets transmitted (including retransmissions).
    pub fn packets_sent(&self) -> u64 {
        self.packets_sent
    }

    /// Total retransmissions.
    pub fn packets_retransmitted(&self) -> u64 {
        self.packets_retransmitted
    }

    /// Number of retransmission timeouts taken.
    pub fn timeouts(&self) -> u64 {
        self.timeouts
    }

    /// Number of fast retransmits triggered by triple duplicate ACKs.
    pub fn fast_retransmits(&self) -> u64 {
        self.fast_retransmits
    }

    /// Scoreboard positions (SACK entries and hole candidates) examined by
    /// SACK loss inference over the flow's lifetime.  This is the sender's
    /// dominant per-ACK cost under sustained loss; it must stay proportional
    /// to the number of ACKs plus the number of distinct holes, *not*
    /// ACKs × scoreboard size.  The `step50-vs-cbr50` sweep cell regressed to
    /// the latter (a 5× per-event slowdown) when every ACK of a permanently
    /// recovering flow re-walked a ~2000-entry scoreboard; the regression
    /// test in `tests/` pins this counter so the pathology cannot return.
    pub fn scoreboard_scan_steps(&self) -> u64 {
        self.scan_steps
    }

    /// Total segments the application has made available by `now`.
    fn available_segments(&mut self, now: Time) -> u64 {
        let bytes = self.source.bytes_available(now);
        let mss = MSS as u64;
        if self.source.done_writing() {
            bytes.div_ceil(mss)
        } else {
            bytes / mss
        }
    }

    /// The size in bytes of segment `seq`.
    fn segment_size(&mut self, seq: u64, now: Time) -> u32 {
        let mss = MSS as u64;
        let bytes = self.source.bytes_available(now);
        let start = seq * mss;
        if bytes <= start {
            MSS
        } else {
            ((bytes - start).min(mss)) as u32
        }
    }

    fn arm_rto(&mut self, now: Time) {
        self.rto_deadline = rto_deadline(now, self.rtt.rto(), self.rto_backoff);
    }

    /// Arm the RTO only if it is not already running.  Transmissions use this
    /// rather than `arm_rto`: re-arming on every packet would keep pushing the
    /// deadline forward while ACK-clocked transmissions continue, so the loss
    /// of a retransmission (whose hole stalls `cum_acked` but not the ACK
    /// stream) would never time out and recovery would wedge forever.
    fn arm_rto_if_idle(&mut self, now: Time) {
        if self.rto_deadline == Time::MAX {
            self.arm_rto(now);
        }
    }

    fn handle_timeout(&mut self, now: Time) {
        self.timeouts += 1;
        self.rto_backoff = (self.rto_backoff + 1).min(6);
        // A timeout restarts loss recovery from scratch: anything previously
        // queued or retransmitted may itself have been lost, so forget that
        // bookkeeping and go back to the first unacknowledged segment.
        self.rtx_queue.clear();
        self.rtx_pending.clear();
        self.scan_frontier = self.cum_acked;
        if self.next_seq > self.cum_acked {
            self.queue_retransmit(self.cum_acked);
        }
        if self.rto_backoff >= 2 {
            // Second consecutive timeout with zero progress: the first RTO's
            // retransmission never got through — the signature of a whole
            // flight dropped at once (e.g. a deep rate fade shrinking the
            // queue) with no surviving SACKs to drain `in_flight_packets()`.
            // The phantom flight then pins `in_flight` above the post-timeout
            // cwnd, the `in_flight < cwnd` send gate never opens, and backoff
            // walks to the 60 s cap while the flow sits dead.  Deem the
            // entire unsacked flight lost (RFC 5681: after an RTO the pipe is
            // empty) by queueing every hole — queued segments don't count as
            // in flight, so the gate opens and recovery proceeds ACK-clocked,
            // skipping anything SACKed in the meantime.
            for seq in self.cum_acked..self.next_seq {
                self.queue_retransmit(seq);
            }
        }
        self.dup_acks = 0;
        self.recovery_point = None;
        self.cc.on_congestion_event(&CongestionEvent::Rto { now });
        if let Some(reports) = &mut self.reports {
            reports.on_loss(1);
        }
        self.arm_rto(now);
    }

    fn queue_retransmit(&mut self, seq: u64) {
        if seq >= self.cum_acked && !self.sacked.contains(seq) && self.rtx_pending.insert(seq, ()) {
            self.rtx_queue.push_back(seq);
        }
    }

    /// SACK-style loss inference: while in recovery, any unsacked segment
    /// with at least `dupthresh` sacked segments above it is considered lost
    /// and queued for retransmission (once per recovery episode).
    ///
    /// The walk is incremental.  A hole qualifies exactly when it lies below
    /// the DUPTHRESH-th-highest sacked segment, and within one recovery
    /// episode that bound only moves up (the scoreboard grows at the top;
    /// cumulative-ACK progress removes entries only from the bottom).  Every
    /// hole queued here stays in `rtx_pending` for the rest of the episode,
    /// so once a region of the scoreboard has been scanned its verdict never
    /// changes and `scan_frontier` lets the next ACK resume where this one
    /// stopped.  Without the frontier this rescanned the whole scoreboard on
    /// every ACK — O(ACKs × window) — which is precisely what ground the
    /// `step50-vs-cbr50` sweep cells to 5× per-event cost: after the rate
    /// step, the CBR cross flow saturates the halved link, never exits
    /// recovery, and holds a ~2000-entry scoreboard for the rest of the run.
    fn infer_losses(&mut self) {
        if self.recovery_point.is_none() {
            return;
        }
        const DUPTHRESH: usize = 3;
        if self.sacked.len() < DUPTHRESH {
            return;
        }
        // Holes strictly below `bound` have >= DUPTHRESH sacked segments
        // above them — the standard SACK dup-threshold rule.
        let bound = self
            .sacked
            .nth_highest(DUPTHRESH - 1)
            .expect("len checked above");
        let mut expected = self.scan_frontier.max(self.cum_acked);
        if expected >= bound {
            return;
        }
        // A hole is at or above `cum_acked` and not SACKed, so queueing it
        // only marks it pending; the walk never looks back at a position it
        // has passed, so each hole is queued as the walk reaches it.
        const MAX_HOLES: usize = 2048;
        let mut queued = 0;
        'walk: for s in self.sacked.range(expected, bound) {
            self.scan_steps += 1;
            let mut seq = expected;
            while seq < s {
                if queued >= MAX_HOLES {
                    // Budget spent: remember where we stopped and resume on
                    // the next ACK (everything queued below is in
                    // `rtx_pending`, so the invariant holds up to `seq`).
                    expected = seq;
                    break 'walk;
                }
                self.scan_steps += 1;
                if self.rtx_pending.insert(seq, ()) {
                    self.rtx_queue.push_back(seq);
                    queued += 1;
                }
                seq += 1;
            }
            expected = s + 1;
        }
        self.scan_frontier = expected;
    }

    /// The flow has delivered everything it ever will.
    fn is_complete(&mut self, now: Time) -> bool {
        if !self.source.done_writing() {
            return false;
        }
        let total = self.available_segments(now);
        self.cum_acked >= total
    }
}

/// The deadline of an RTO armed at `now` after `backoff` consecutive
/// timeouts: `rto · 2^backoff`, capped at [`RTO_CAP`].  The doubling stays
/// on the integer clock ([`Time::mul_pow2`]).
fn rto_deadline(now: Time, rto: Time, backoff: u32) -> Time {
    now + rto.mul_pow2(backoff).min(RTO_CAP)
}

impl FlowEndpoint for Sender {
    fn on_start(&mut self, now: Time) {
        self.next_send_time = now;
        self.source.on_flow_start(now);
    }

    fn on_ack(&mut self, ack: &AckInfo) {
        let now = ack.now;
        // Feed the measurement machinery with every ACK.
        self.rtt.on_sample(ack.rtt_sample);
        if let Some(reports) = &mut self.reports {
            // Rates are measured over the packets that physically arrived
            // (the ACK trigger), not over in-order delivery progress: a
            // hole-filling retransmission makes `newly_delivered_bytes` jump
            // by the whole reordering buffer at one instant, which used to
            // spike the measured receive rate to several times the link rate
            // and poison the learned µ's max filter for a full window.
            reports.on_ack(
                ack.data_sent_at,
                now,
                ack.triggering_bytes as u64,
                ack.rtt_sample,
            );
            if ack.ce {
                reports.on_mark(ack.triggering_bytes as u64);
            }
            if let Some(min_rtt) = self.rtt.global_min_rtt() {
                // S/R are measured over one RTT of packets (§3.4).  The
                // *base* (minimum) RTT is used, not the smoothed RTT: under
                // bufferbloat the smoothed RTT approaches the 5 Hz pulse
                // period and a window that long averages the pulse — and the
                // cross traffic's reaction to it — out of the measured rates
                // entirely.
                reports.set_measurement_window(min_rtt);
            }
        }
        // The receiver echoes CE marks on the very next ACK; surface each
        // echo to the controller before the ACK's own bookkeeping so a
        // once-per-window reaction gate sees the pre-ACK window.
        if ack.ce {
            self.cc.on_congestion_event(&CongestionEvent::EcnCe {
                now,
                marked_bytes: ack.triggering_bytes as u64,
            });
        }

        // ACKs of one flow arrive in the order the receiver sent them, so
        // the cumulative ACK never moves back below the scoreboard's base.
        assert!(
            ack.cum_ack >= self.cum_acked,
            "cumulative ACK {} fell below {}",
            ack.cum_ack,
            self.cum_acked
        );
        // Update the SACK scoreboard with the segment that triggered this ACK.
        if ack.triggering_seq >= ack.cum_ack {
            self.sacked.insert(ack.triggering_seq, ());
        }

        if ack.cum_ack > self.cum_acked {
            // Progress.
            let newly_acked = ack.cum_ack - self.cum_acked;
            self.cum_acked = ack.cum_ack;
            self.dup_acks = 0;
            self.rto_backoff = 0;
            // Anything below the new cumulative ACK is no longer interesting.
            self.sacked.advance_to(self.cum_acked);
            self.rtx_pending.advance_to(self.cum_acked);
            if !self.rtx_queue.is_empty() {
                self.rtx_queue.retain(|&s| s >= self.cum_acked);
            }

            if let Some(rp) = self.recovery_point {
                if self.cum_acked >= rp {
                    // Recovery complete.
                    self.recovery_point = None;
                } else {
                    // Still recovering: keep filling holes.
                    self.infer_losses();
                    self.queue_retransmit(self.cum_acked);
                }
            }

            let event = AckEvent {
                now,
                newly_acked_packets: newly_acked,
                newly_acked_bytes: ack.newly_delivered_bytes.max(newly_acked * MSS as u64),
                rtt: ack.rtt_sample,
                min_rtt: self.rtt.global_min_rtt().unwrap_or(ack.rtt_sample),
                in_flight_packets: self.in_flight_packets(),
                mss: MSS,
            };
            self.cc.on_packet_acked(&event);
            if self.next_seq > self.cum_acked {
                self.arm_rto(now);
            } else {
                self.rto_deadline = Time::MAX;
            }
        } else {
            // Duplicate ACK.
            self.dup_acks += 1;
            if self.dup_acks >= 3 && self.recovery_point.is_none() && self.next_seq > self.cum_acked
            {
                self.fast_retransmits += 1;
                self.recovery_point = Some(self.next_seq);
                self.rtx_pending.clear();
                self.scan_frontier = self.cum_acked;
                self.queue_retransmit(self.cum_acked);
                self.infer_losses();
                self.cc.on_packets_lost(&LossEvent {
                    now,
                    lost_packets: 1,
                    in_flight_packets: self.in_flight_packets(),
                });
                if let Some(reports) = &mut self.reports {
                    reports.on_loss(1);
                }
            } else if self.recovery_point.is_some() {
                // Keep discovering holes as more SACK information arrives.
                self.infer_losses();
            }
        }
    }

    fn on_tick(&mut self, now: Time) {
        if let Some(reports) = &mut self.reports {
            let report = reports.report(now);
            self.cc.on_report(&report);
        }
    }

    /// Decide what the flow does at `now`.  Past `stop_at` the flow is
    /// finished; otherwise the questions go in this order (the numbers of
    /// the steps below), and the first that settles the poll answers it:
    ///
    /// 0. Has the RTO expired with data outstanding?  Then take the timeout
    ///    and go on.
    /// 1. Is nothing queued for retransmission and everything delivered?
    ///    Then the flow is finished.
    /// 2. Does a queued retransmission fit the window (`cwnd_packets`)?
    ///    Then send it.
    /// 3. Does new data fit the window, and has the application written it?
    ///    Then the pacing gate decides.  For a controller that
    ///    [always paces](CongestionControl::always_paces), a gate still shut
    ///    (`next_send_time` ahead of `now`) is answered without asking for
    ///    the pace.  Otherwise `pacing_rate_bps(now)` says: `None`, send now;
    ///    a positive rate, send if the gate is open, else wait for it; any
    ///    other rate, wait 10 ms.
    /// 4. Blocked: wait for the application or the RTO, or go idle.
    fn poll_send(&mut self, now: Time) -> SendAction {
        // Hard stop: the "application" went away.
        if let Some(stop) = self.cfg.stop_at {
            if now >= stop {
                return SendAction::Finished;
            }
        }
        // 0. Retransmission timeout?
        if self.next_seq > self.cum_acked && now >= self.rto_deadline {
            self.handle_timeout(now);
        }

        // 1. Completed?
        if self.rtx_queue.is_empty() && self.is_complete(now) {
            return SendAction::Finished;
        }

        let cwnd = self.cc.cwnd_packets();

        // 2. Pending retransmissions go out first, but respect the congestion
        // window: `in_flight_packets()` (the RFC 6675 "pipe") already excludes
        // segments deemed lost, so each departing ACK opens room for roughly
        // one retransmission — ACK-clocked recovery rather than a line-rate
        // burst of every inferred hole at once.
        while (self.in_flight_packets() as f64) < cwnd {
            let Some(&seq) = self.rtx_queue.front() else {
                break;
            };
            self.rtx_queue.pop_front();
            if seq < self.cum_acked || self.sacked.contains(seq) {
                self.rtx_pending.remove(seq);
                continue; // already received meanwhile
            }
            let bytes = self.segment_size(seq, now);
            self.packets_sent += 1;
            self.packets_retransmitted += 1;
            // The RTO conceptually times the oldest outstanding segment, so a
            // retransmission covering the front hole restarts it (the
            // cumulative ACK stalls for a full RTT while that copy is in
            // flight, and without the restart the stall races the RTO and
            // fires spurious timeouts under bufferbloat).  Retransmissions of
            // higher holes and new data must NOT restart it: under sustained
            // overload they flow continuously, and pushing the deadline on
            // every one would let a lost front-hole retransmission wedge
            // recovery forever with the SACK scoreboard growing per ACK.
            if seq == self.cum_acked {
                self.arm_rto(now);
            } else {
                self.arm_rto_if_idle(now);
            }
            return SendAction::Transmit {
                seq,
                bytes,
                retransmit: true,
            };
        }

        // 3. New data, gated by the window, the application and pacing.
        let available = self.available_segments(now);
        let window_ok = (self.in_flight_packets() as f64) < cwnd
            && self.rtx_queue.is_empty()
            && self.next_seq < self.cum_acked + MAX_WINDOW_PACKETS;
        let app_ok = self.next_seq < available;

        if window_ok && app_ok {
            // A controller that always paces at a positive rate would take
            // the paced arm below, so a shut gate needs no pace.
            if self.always_paces && self.next_send_time > now {
                return SendAction::WaitUntil(self.next_send_time.min(self.rto_deadline));
            }
            match self.cc.pacing_rate_bps(now) {
                None => {
                    // Pure window/ACK clocking: send immediately.
                    let seq = self.next_seq;
                    let bytes = self.segment_size(seq, now);
                    self.next_seq += 1;
                    self.packets_sent += 1;
                    self.arm_rto_if_idle(now);
                    return SendAction::Transmit {
                        seq,
                        bytes,
                        retransmit: false,
                    };
                }
                Some(rate) if rate > 0.0 => {
                    // Paced: honour the inter-packet gap.
                    if self.next_send_time <= now {
                        // Cap accumulated sending "debt" so an idle period
                        // does not turn into a line-rate burst.
                        if now.saturating_sub(self.next_send_time) > MAX_PACING_DEBT {
                            self.next_send_time = now.saturating_sub(MAX_PACING_DEBT);
                        }
                        let seq = self.next_seq;
                        let bytes = self.segment_size(seq, now);
                        self.next_seq += 1;
                        self.packets_sent += 1;
                        let gap = Time::from_secs_f64(bytes as f64 * 8.0 / rate);
                        self.next_send_time += gap;
                        self.arm_rto_if_idle(now);
                        return SendAction::Transmit {
                            seq,
                            bytes,
                            retransmit: false,
                        };
                    } else {
                        return SendAction::WaitUntil(self.next_send_time.min(self.rto_deadline));
                    }
                }
                Some(_) => {
                    // Zero/negative pacing rate: effectively paused; check back shortly.
                    return SendAction::WaitUntil(
                        (now + Time::from_millis(10)).min(self.rto_deadline),
                    );
                }
            }
        }

        // 4. Blocked. Work out why and when to wake up.
        if !app_ok && !self.source.done_writing() {
            // Application-limited: wake when the source promises more data.
            let wake = self
                .source
                .next_data_time(now)
                .unwrap_or(now + Time::from_millis(10));
            return SendAction::WaitUntil(wake.min(self.rto_deadline));
        }
        if self.next_seq > self.cum_acked {
            // Window-limited (or finished writing with data still in flight):
            // wake at the RTO in case everything outstanding is lost.
            if self.rto_deadline == Time::MAX {
                self.arm_rto(now);
            }
            return SendAction::WaitUntil(self.rto_deadline);
        }
        SendAction::Idle
    }

    fn label(&self) -> &str {
        &self.cfg.label
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{BackloggedSource, FixedSizeSource, PoissonSource, ScriptedSource};
    use nimbus_core::cc::constant::Unlimited;
    use nimbus_core::cc::{CcKind, PathInfo};
    use nimbus_netsim::{FlowConfig, Network, SimConfig};
    use proptest::prelude::*;

    fn sender(kind: CcKind, source: Box<dyn Source>) -> Box<Sender> {
        Box::new(Sender::new(
            SenderConfig::labelled(kind.name()),
            kind.build(&PathInfo::new(MSS)),
            source,
        ))
    }

    /// An [`Unlimited`] sender: the source alone shapes what it sends.
    fn unlimited(source: Box<dyn Source>) -> Box<Sender> {
        let cc = Box::new(Unlimited::new());
        Box::new(Sender::new(SenderConfig::labelled("inelastic"), cc, source))
    }

    /// Run a single backlogged flow of the given kind over a standard link and
    /// return (mean throughput Mbit/s, mean queueing delay ms, drop count).
    fn run_single(
        kind: CcKind,
        rate_bps: f64,
        rtt_ms: u64,
        buffer_s: f64,
        duration_s: f64,
    ) -> (f64, f64, u32) {
        let mut net = Network::new(SimConfig::new(rate_bps, buffer_s, duration_s));
        let h = net.add_flow(
            FlowConfig::primary(kind.name(), Time::from_millis(rtt_ms)),
            sender(kind, Box::new(BackloggedSource)),
        );
        net.run();
        let (rec, _) = net.finish();
        let slot = rec.monitored_slot(h.0).unwrap();
        let tput = rec
            .throughput_mbps(slot)
            .mean_in_range(duration_s * 0.25, duration_s);
        let qd = rec
            .queue_delay_ms(slot)
            .mean_in_range(duration_s * 0.25, duration_s);
        (tput, qd, rec.flows[h.0].dropped_packets)
    }

    #[test]
    fn cubic_fills_a_96mbps_link_and_its_buffer() {
        let (tput, qd, drops) = run_single(CcKind::Cubic, 96e6, 50, 0.1, 40.0);
        assert!(tput > 85.0, "cubic throughput {tput}");
        // Loss-based: the buffer stays mostly full => high queueing delay and drops.
        assert!(qd > 40.0, "cubic queueing delay {qd}");
        assert!(drops > 0, "cubic should overflow the buffer");
    }

    #[test]
    fn newreno_fills_the_link() {
        let (tput, _qd, drops) = run_single(CcKind::NewReno, 48e6, 50, 0.1, 40.0);
        assert!(tput > 42.0, "reno throughput {tput}");
        assert!(drops > 0);
    }

    #[test]
    fn vegas_keeps_the_queue_short() {
        let (tput, qd, _) = run_single(CcKind::Vegas, 48e6, 50, 0.1, 40.0);
        assert!(tput > 40.0, "vegas throughput {tput}");
        assert!(qd < 15.0, "vegas queueing delay {qd}");
    }

    #[test]
    fn copa_gets_high_throughput_with_low_delay_alone() {
        let (tput, qd, _) = run_single(CcKind::Copa, 48e6, 50, 0.1, 40.0);
        assert!(tput > 38.0, "copa throughput {tput}");
        assert!(qd < 30.0, "copa queueing delay {qd}");
    }

    #[test]
    fn bbr_fills_the_link_without_collapsing() {
        let (tput, _qd, _) = run_single(CcKind::Bbr, 48e6, 50, 0.1, 40.0);
        assert!(tput > 38.0, "bbr throughput {tput}");
    }

    #[test]
    fn vivace_achieves_reasonable_throughput() {
        let (tput, _qd, _) = run_single(CcKind::Vivace, 48e6, 50, 0.1, 60.0);
        assert!(tput > 20.0, "vivace throughput {tput}");
    }

    #[test]
    fn compound_fills_the_link() {
        let (tput, _qd, _) = run_single(CcKind::Compound, 48e6, 50, 0.1, 40.0);
        assert!(tput > 40.0, "compound throughput {tput}");
    }

    #[test]
    fn cubic_beats_vegas_when_sharing_a_bottleneck() {
        // The motivating problem of the paper: a delay-controlling scheme is
        // starved by a loss-based scheme at a shared bottleneck.
        let mut net = Network::new(SimConfig::new(96e6, 0.1, 60.0));
        let hv = net.add_flow(
            FlowConfig::primary("vegas", Time::from_millis(50)),
            sender(CcKind::Vegas, Box::new(BackloggedSource)),
        );
        let hc = net.add_flow(
            FlowConfig::primary("cubic", Time::from_millis(50)),
            sender(CcKind::Cubic, Box::new(BackloggedSource)),
        );
        net.run();
        let (rec, _) = net.finish();
        let tv = rec
            .throughput_mbps(rec.monitored_slot(hv.0).unwrap())
            .mean_in_range(20.0, 60.0);
        let tc = rec
            .throughput_mbps(rec.monitored_slot(hc.0).unwrap())
            .mean_in_range(20.0, 60.0);
        assert!(tc > tv * 2.0, "cubic ({tc}) should starve vegas ({tv})");
    }

    #[test]
    fn two_cubics_share_fairly() {
        let mut net = Network::new(SimConfig::new(96e6, 0.1, 60.0));
        let h1 = net.add_flow(
            FlowConfig::primary("cubic-1", Time::from_millis(50)),
            sender(CcKind::Cubic, Box::new(BackloggedSource)),
        );
        let h2 = net.add_flow(
            FlowConfig::primary("cubic-2", Time::from_millis(50)),
            sender(CcKind::Cubic, Box::new(BackloggedSource)),
        );
        net.run();
        let (rec, _) = net.finish();
        let t1 = rec
            .throughput_mbps(rec.monitored_slot(h1.0).unwrap())
            .mean_in_range(20.0, 60.0);
        let t2 = rec
            .throughput_mbps(rec.monitored_slot(h2.0).unwrap())
            .mean_in_range(20.0, 60.0);
        assert!((t1 + t2) > 85.0, "link under-utilized: {t1} + {t2}");
        let ratio = t1.max(t2) / t1.min(t2).max(1.0);
        assert!(ratio < 1.6, "unfair split {t1} vs {t2}");
    }

    #[test]
    fn finite_flow_completes_and_reports_fct() {
        let mut net = Network::new(SimConfig::new(48e6, 0.1, 30.0));
        let h = net.add_flow(
            FlowConfig::cross("short", Time::from_millis(40), true).with_size(1_500_000),
            sender(CcKind::Cubic, Box::new(FixedSizeSource::new(1_500_000))),
        );
        net.run();
        let (rec, _) = net.finish();
        let stats = &rec.flows[h.0];
        assert!(stats.finish().is_some(), "flow must complete");
        assert_eq!(stats.delivered_bytes, 1_500_000);
        let fct = stats.fct().unwrap().as_secs_f64();
        // 1.5 MB at 48 Mbit/s is 0.25 s minimum; slow start makes it longer.
        assert!(fct > 0.25 && fct < 5.0, "fct {fct}");
    }

    #[test]
    fn poisson_source_offers_its_mean_rate() {
        let mut net = Network::new(SimConfig::new(96e6, 0.1, 30.0));
        let h = net.add_flow(
            FlowConfig::primary("poisson", Time::from_millis(50)),
            unlimited(Box::new(PoissonSource::new(24e6, 11))),
        );
        net.run();
        let (rec, _) = net.finish();
        let slot = rec.monitored_slot(h.0).unwrap();
        let tput = rec.throughput_mbps(slot).mean_in_range(5.0, 30.0);
        assert!((tput - 24.0).abs() < 2.0, "poisson throughput {tput}");
    }

    #[test]
    fn constant_rate_source_holds_its_rate() {
        let mut net = Network::new(SimConfig::new(96e6, 0.1, 20.0));
        let h = net.add_flow(
            FlowConfig::primary("scripted", Time::from_millis(50)),
            unlimited(Box::new(ScriptedSource::constant(32e6))),
        );
        net.run();
        let (rec, _) = net.finish();
        let slot = rec.monitored_slot(h.0).unwrap();
        let tput = rec.throughput_mbps(slot).mean_in_range(2.0, 19.5);
        assert!((tput - 32.0).abs() < 3.0, "cbr throughput {tput}");
    }

    #[test]
    fn loss_recovery_retransmits_and_completes_under_random_loss() {
        let mut cfg = SimConfig::new(24e6, 0.1, 60.0);
        cfg.link_mut().loss = 0.01;
        let mut net = Network::new(cfg);
        let h = net.add_flow(
            FlowConfig::cross("lossy-transfer", Time::from_millis(40), true).with_size(6_000_000),
            sender(CcKind::NewReno, Box::new(FixedSizeSource::new(6_000_000))),
        );
        net.run();
        let (rec, endpoints) = net.finish();
        let stats = &rec.flows[h.0];
        assert!(
            stats.finish().is_some(),
            "transfer must complete despite loss"
        );
        assert_eq!(stats.delivered_bytes, 6_000_000);
        // The sender must actually have retransmitted something.
        let s = endpoints[h.0].label().to_string();
        assert_eq!(s, "newreno");
    }

    #[test]
    fn sender_statistics_are_consistent() {
        let mut cfg = SimConfig::new(24e6, 0.05, 30.0);
        cfg.link_mut().loss = 0.02;
        let mut net = Network::new(cfg);
        net.add_flow(
            FlowConfig::primary("cubic", Time::from_millis(40)),
            sender(CcKind::Cubic, Box::new(BackloggedSource)),
        );
        net.run();
        let (_rec, endpoints) = net.finish();
        // Downcast is not available through the trait object; instead rebuild
        // a sender and check invariants directly with a manual drive below.
        drop(endpoints);

        // Manual drive: ack pattern with a hole triggers exactly one fast
        // retransmit and no timeout.
        let mut s = Sender::new(
            SenderConfig::labelled("manual"),
            CcKind::NewReno.build(&PathInfo::new(MSS)),
            Box::new(BackloggedSource),
        );
        s.on_start(Time::ZERO);
        // Send 10 packets.
        let mut sent = Vec::new();
        for _ in 0..10 {
            match s.poll_send(Time::from_millis(1)) {
                SendAction::Transmit { seq, .. } => sent.push(seq),
                other => panic!("expected transmit, got {other:?}"),
            }
        }
        assert_eq!(sent, (0..10).collect::<Vec<_>>());
        assert_eq!(s.in_flight_packets(), 10);
        // Ack 1..=2 then three duplicates for a hole at seq 2.
        let mk_ack = |cum: u64, trig: u64, t_ms: u64| AckInfo {
            now: Time::from_millis(t_ms),
            cum_ack: cum,
            triggering_seq: trig,
            triggering_bytes: 1500,
            data_sent_at: Time::from_millis(1),
            rtt_sample: Time::from_millis(50),
            newly_delivered_bytes: 1500,
            ce: false,
        };
        s.on_ack(&mk_ack(1, 0, 51));
        s.on_ack(&mk_ack(2, 1, 52));
        s.on_ack(&mk_ack(2, 3, 53));
        s.on_ack(&mk_ack(2, 4, 54));
        s.on_ack(&mk_ack(2, 5, 55));
        assert_eq!(s.fast_retransmits(), 1);
        match s.poll_send(Time::from_millis(56)) {
            SendAction::Transmit {
                seq, retransmit, ..
            } => {
                assert_eq!(seq, 2);
                assert!(retransmit);
            }
            other => panic!("expected retransmission, got {other:?}"),
        }
        assert_eq!(s.packets_retransmitted(), 1);
        assert_eq!(s.timeouts(), 0);
    }

    #[test]
    fn ce_echo_reaches_the_controller_and_counts() {
        let mut s = Sender::new(
            SenderConfig::labelled("ce"),
            CcKind::NewReno.build(&PathInfo::new(MSS)),
            Box::new(BackloggedSource),
        );
        s.on_start(Time::ZERO);
        for _ in 0..10 {
            let _ = s.poll_send(Time::from_millis(1));
        }
        let mk_ack = |cum: u64, t_ms: u64, ce: bool| AckInfo {
            now: Time::from_millis(t_ms),
            cum_ack: cum,
            triggering_seq: cum.saturating_sub(1),
            triggering_bytes: 1500,
            data_sent_at: Time::from_millis(1),
            rtt_sample: Time::from_millis(50),
            newly_delivered_bytes: 1500,
            ce,
        };
        let before = s.congestion_control().cwnd_packets();
        s.on_ack(&mk_ack(1, 51, false));
        assert!(s.congestion_control().cwnd_packets() >= before);
        // A CE echo must reach the controller (NewReno halves).
        s.on_ack(&mk_ack(2, 52, true));
        assert!(
            s.congestion_control().cwnd_packets() < before,
            "CE should shrink the window"
        );
    }

    /// The RTO deadline as it was formed on the float path.
    fn float_rto_deadline(now: Time, rto: Time, backoff: u32) -> Time {
        now + rto
            .mul_f64(2f64.powi(backoff as i32))
            .min(Time::from_secs_f64(60.0))
    }

    proptest! {
        // Random RTT sample streams, mostly of realistic RTTs with some far
        // past 2^53 ns (an RTO there takes the float path, and near 2^64 it
        // saturates), at every backoff the sender reaches.
        #[test]
        fn the_rto_deadline_matches_the_float_expression_bit_for_bit(seed in 0u64..1_000_000) {
            let mut rng = TestRng::new(seed);
            let mut estimator = RttEstimator::default();
            let now = Time::from_nanos(rng.range_u64(0, 1 << 40));
            for _ in 0..100 {
                let sample = match rng.range_u64(0, 10) {
                    0 => rng.range_u64(1 << 53, 1 << 62),
                    1 => rng.next_u64(),
                    _ => rng.range_u64(1_000, 2_000_000_000),
                };
                estimator.on_sample(Time::from_nanos(sample));
                let rto = estimator.rto();
                for k in 0..=6 {
                    prop_assert_eq!(rto_deadline(now, rto, k), float_rto_deadline(now, rto, k));
                }
            }
        }
    }

    #[test]
    fn an_rto_past_2_pow_53_ns_takes_the_float_path_and_still_matches() {
        let mut estimator = RttEstimator::default();
        estimator.on_sample(Time::from_nanos(1 << 60));
        let rto = estimator.rto();
        assert!(rto.as_nanos() >= 1 << 53, "rto {rto}");
        for k in 0..=6 {
            let now = Time::from_millis(7);
            assert_eq!(rto_deadline(now, rto, k), float_rto_deadline(now, rto, k));
            assert_eq!(rto_deadline(now, rto, k), now + RTO_CAP);
        }
    }

    /// A controller whose pace the test sets, and which counts how often
    /// it is asked for it.
    struct ScriptedPace {
        pace: std::cell::Cell<Option<f64>>,
        asked: std::cell::Cell<u32>,
        claims: bool,
    }

    impl CongestionControl for ScriptedPace {
        fn on_packet_acked(&mut self, _ack: &AckEvent) {}
        fn on_packets_lost(&mut self, _loss: &LossEvent) {}
        fn on_congestion_event(&mut self, _event: &CongestionEvent) {}
        fn cwnd_packets(&self) -> f64 {
            100.0
        }
        fn pacing_rate_bps(&self, _now: Time) -> Option<f64> {
            self.asked.set(self.asked.get() + 1);
            self.pace.get()
        }
        fn always_paces(&self) -> bool {
            self.claims
        }
        fn name(&self) -> &'static str {
            "scripted"
        }
        fn as_any(&self) -> Option<&dyn std::any::Any> {
            Some(self)
        }
    }

    /// A backlogged sender over a [`ScriptedPace`] pacing at `pace` bit/s.
    fn scripted_sender(pace: f64, claims: bool) -> Sender {
        let cc = ScriptedPace {
            pace: std::cell::Cell::new(Some(pace)),
            asked: std::cell::Cell::new(0),
            claims,
        };
        let source = Box::new(BackloggedSource);
        Sender::new(SenderConfig::labelled("scripted"), Box::new(cc), source)
    }

    /// A sender over a [`ScriptedPace`] pacing one packet per ms, after its
    /// first (paced) send at time zero.
    fn paced_once(claims: bool) -> Sender {
        let mut s = scripted_sender(12e6, claims);
        s.on_start(Time::ZERO);
        assert!(matches!(
            s.poll_send(Time::ZERO),
            SendAction::Transmit { seq: 0, .. }
        ));
        s
    }

    fn scripted(s: &Sender) -> &ScriptedPace {
        let any = s.congestion_control().as_any().expect("scripted");
        any.downcast_ref().expect("a ScriptedPace")
    }

    #[test]
    fn a_shut_gate_asks_no_pace_of_a_controller_that_always_paces() {
        let mut s = paced_once(true);
        assert_eq!(scripted(&s).asked.get(), 1);
        let now = Time::from_micros(400);
        assert_eq!(
            s.poll_send(now),
            SendAction::WaitUntil(Time::from_millis(1))
        );
        assert_eq!(scripted(&s).asked.get(), 1, "the shut gate answered alone");
        assert!(matches!(
            s.poll_send(Time::from_millis(1)),
            SendAction::Transmit { seq: 1, .. }
        ));
        assert_eq!(scripted(&s).asked.get(), 2);
    }

    #[test]
    fn a_controller_that_may_stop_pacing_is_asked_behind_a_shut_gate() {
        // Like BBR falling back to window clocking: with the gate still shut
        // the pace turns to `None`, and the flow sends at once.
        let mut s = paced_once(false);
        scripted(&s).pace.set(None);
        let now = Time::from_micros(400);
        assert!(matches!(
            s.poll_send(now),
            SendAction::Transmit { seq: 1, .. }
        ));
        assert_eq!(scripted(&s).asked.get(), 2);
    }

    #[test]
    fn a_near_zero_pace_saturates_the_pacing_clock_at_time_max() {
        // A 12 000-bit packet at 1e-9 bit/s is a pacing gap past
        // `Time::MAX`; adding it to a pacing clock past zero must saturate,
        // not wrap into the past and unpace the flow.
        let mut s = scripted_sender(1e-9, false);
        let start = Time::from_millis(5);
        s.on_start(start);
        assert!(matches!(
            s.poll_send(start),
            SendAction::Transmit { seq: 0, .. }
        ));
        assert_eq!(s.next_send_time, Time::MAX);
        for _ in 0..3 {
            match s.poll_send(start) {
                SendAction::WaitUntil(t) => assert!(t > start, "woken at {t}"),
                other => panic!("expected a wait, got {other:?}"),
            }
        }
        assert_eq!(s.packets_sent(), 1);
    }

    #[test]
    fn timeout_fires_when_no_acks_return() {
        let mut s = Sender::new(
            SenderConfig::labelled("timeout"),
            CcKind::NewReno.build(&PathInfo::new(MSS)),
            Box::new(BackloggedSource),
        );
        s.on_start(Time::ZERO);
        for _ in 0..5 {
            let _ = s.poll_send(Time::from_millis(1));
        }
        assert_eq!(s.in_flight_packets(), 5);
        // No ACKs ever arrive; polling far in the future must trigger a timeout
        // and a retransmission of segment 0.
        match s.poll_send(Time::from_secs_f64(30.0)) {
            SendAction::Transmit {
                seq, retransmit, ..
            } => {
                assert_eq!(seq, 0);
                assert!(retransmit);
            }
            other => panic!("expected timeout retransmission, got {other:?}"),
        }
        assert_eq!(s.timeouts(), 1);
    }
}
