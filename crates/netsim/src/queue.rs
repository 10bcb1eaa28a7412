//! Bottleneck queues: one queue, four drop policies.
//!
//! The paper's robustness evaluation (§8.2, Appendix E) covers drop-tail
//! buffers from 0.25 to 4 BDP and the PIE AQM at two target delays.  RED and
//! CoDel complete the classic AQM set; no scenario selects them, and netsim's
//! tests and the benchmark's queue kernels exercise them.
//!
//! [`Queue`] is the one [`QueueDiscipline`]: it owns the FIFO, its byte
//! count, capacity and drain rate, the ECN profile and the drop and mark
//! counters.  A [`Policy`] supplies only its congestion decision — drop-tail's
//! classic mark at half the buffer ([`DropTail`]), PIE's RFC 8033 probability
//! law ([`Pie`]), RED's EWMA thresholds ([`Red`]), CoDel's dequeue-side
//! control law ([`CoDel`]) — and the queue does the rest once: it turns the
//! decision into a CE mark or a drop, step-marks, drops at the tail and
//! resizes.  The engine calls [`QueueDiscipline::enqueue`] when a packet
//! arrives at a hop and [`QueueDiscipline::dequeue_reporting`] when the link
//! is ready to transmit; packets a policy discards on the way out (CoDel)
//! are handed back so the engine can account for them.
//!
//! ECN ([`EcnMarking`]): with a marking profile installed, congestion
//! signals aimed at ECN-capable packets become CE marks instead of drops —
//! classic RFC 3168 semantics under [`EcnMarking::Classic`], shallow L4S-style
//! step marking under [`EcnMarking::Step`].  A policy's decision, including
//! its RNG draw, is the same with or without marking, so non-ECT traffic and
//! [`EcnMarking::None`] queues behave exactly as without ECN.

use crate::packet::{EcnCodepoint, Packet, MSS};
use nimbus_core_types::Time;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// How (and whether) a queue marks ECN-capable packets instead of dropping
/// them.
///
/// Marking only ever applies to ECN-capable packets; non-ECT traffic always
/// takes the drop path, and physical buffer overflow always drops regardless
/// of codepoint.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum EcnMarking {
    /// No marking: every congestion signal is a drop (the default).
    #[default]
    None,
    /// Classic ECN (RFC 3168): wherever the policy would drop by AQM
    /// decision, ECN-capable packets are CE-marked and delivered instead.  On
    /// a plain drop-tail queue — which has no AQM decision short of overflow
    /// — this marks ECT packets once the backlog reaches half the buffer.
    Classic,
    /// L4S-style step marking (RFC 9331): ECT packets are CE-marked as soon
    /// as the queue's sojourn time — projected at enqueue, measured at
    /// dequeue under CoDel — meets `threshold_s` (typically ~1 ms, far below
    /// any drop threshold).  AQM drop decisions on ECN-capable packets also
    /// convert to marks, as under [`EcnMarking::Classic`].
    Step {
        /// Sojourn-time marking threshold, seconds.
        threshold_s: f64,
    },
}

/// Byte capacity of a buffer specified as `buffer_secs` of line rate at
/// `rate_bps` ("100 ms of buffering"), floored at one [`MSS`] so a tiny rate or
/// buffer still admits a packet.  The single sizing rule shared by initial
/// queue construction and the engine's rate-transition re-sizing.
pub fn delay_capacity_bytes(rate_bps: f64, buffer_secs: f64) -> u64 {
    (rate_bps * buffer_secs / 8.0).max(MSS as f64) as u64
}

/// Outcome of an enqueue attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueResult {
    /// The packet was accepted into the queue.
    Accepted,
    /// The packet was dropped by the discipline.
    Dropped,
}

/// A bottleneck queue discipline: the interface the engine and the
/// benchmark's kernels drive.  [`Queue`] is its one implementation.
pub trait QueueDiscipline: std::fmt::Debug + Send {
    /// Offer a packet to the queue at time `now`.
    fn enqueue(&mut self, pkt: Packet, now: Time) -> EnqueueResult;

    /// Remove the next packet to transmit, if any.  Every packet the policy
    /// discards on the way (CoDel's control law) is passed to `dropped`
    /// first; it is counted in [`drops`](QueueDiscipline::drops) either way.
    fn dequeue_reporting(&mut self, now: Time, dropped: &mut dyn FnMut(Packet)) -> Option<Packet>;

    /// [`dequeue_reporting`](QueueDiscipline::dequeue_reporting) for a caller
    /// that keeps no account of dequeue-side drops.
    fn dequeue(&mut self, now: Time) -> Option<Packet> {
        self.dequeue_reporting(now, &mut |_| {})
    }

    /// Current queue occupancy in bytes.
    fn len_bytes(&self) -> u64;

    /// Total packets dropped by the discipline so far, at either end.
    fn drops(&self) -> u64;

    /// Total ECT packets CE-marked by the discipline so far.
    fn marks(&self) -> u64;

    /// Re-size the physical buffer (used when a delay-sized buffer follows a
    /// time-varying link rate).  Packets already queued beyond a shrunken
    /// capacity are kept; only new enqueues see the new limit.
    fn set_capacity_bytes(&mut self, bytes: u64);

    /// Inform the discipline of a new link drain rate (bits/s), which step
    /// marking and PIE's delay estimate read.
    fn set_drain_rate_bps(&mut self, rate_bps: f64);

    /// Install an ECN marking profile.
    fn set_ecn_marking(&mut self, marking: EcnMarking);
}

/// A policy's congestion decision about one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Signal {
    /// No congestion signal.
    Pass,
    /// A classic-ECN marking point that is not a drop point (drop-tail's
    /// half buffer): honoured only under [`EcnMarking::Classic`] and only on
    /// ECN-capable packets.
    Mark,
    /// An AQM drop decision: an ECN-capable packet is marked instead when the
    /// queue marks at all, anything else is dropped.
    Drop,
}

/// The FIFO a policy decides for: the packets, their byte count, the
/// physical buffer and the link drain rate (bits/s; 0 until the queue is told
/// one).
#[derive(Debug)]
pub struct Backlog {
    packets: VecDeque<Packet>,
    bytes: u64,
    capacity_bytes: u64,
    drain_rate_bps: f64,
}

/// A queue policy: its own congestion decision and nothing else.  The four
/// in this module are the only ones; [`Backlog`] is opaque outside it.
pub trait Policy: std::fmt::Debug + Send {
    /// Floor on the drain rate the queue records, bits/s.  With the default
    /// 0 a queue that has never been told a rate does not step-mark.
    const MIN_DRAIN_BPS: f64 = 0.0;

    /// Whether step marking reads the sojourn a packet did see, on dequeue,
    /// rather than the one it is projected to see, on enqueue.
    const STEP_ON_DEQUEUE: bool = false;

    /// The decision for `pkt`, arriving at `now` before it joins `q`.
    fn on_enqueue(&mut self, _q: &Backlog, _pkt: &Packet, _now: Time) -> Signal {
        Signal::Pass
    }

    /// The decision for `head`, about to leave `q` at `now` (still counted
    /// in `q`); called only when the queue is not empty.
    fn on_dequeue(&mut self, _q: &Backlog, _head: &Packet, _now: Time) -> Signal {
        Signal::Pass
    }
}

/// A byte-capacity FIFO in front of a link, with the congestion decision of
/// policy `P`.
#[derive(Debug)]
pub struct Queue<P> {
    backlog: Backlog,
    policy: P,
    ecn: EcnMarking,
    drops: u64,
    marks: u64,
}

/// Plain FIFO drop-tail queue.
pub type DropTailQueue = Queue<DropTail>;
/// PIE AQM, RFC 8033.
pub type PieQueue = Queue<Pie>;
/// Random Early Detection.
pub type RedQueue = Queue<Red>;
/// CoDel AQM, RFC 8289.
pub type CoDelQueue = Queue<CoDel>;

impl<P: Policy> Queue<P> {
    fn with_policy(capacity_bytes: u64, drain_rate_bps: f64, policy: P) -> Self {
        assert!(capacity_bytes > 0, "queue capacity must be positive");
        Queue {
            backlog: Backlog {
                packets: VecDeque::new(),
                bytes: 0,
                capacity_bytes,
                drain_rate_bps: drain_rate_bps.max(P::MIN_DRAIN_BPS),
            },
            policy,
            ecn: EcnMarking::None,
            drops: 0,
            marks: 0,
        }
    }

    /// Act on `signal` for `pkt`: `Some(marked)` if the packet stays, with
    /// `marked` when this flipped it Ect → Ce (an already-CE packet keeps its
    /// mark and is not counted again), `None` if it must be dropped.
    fn react(&self, signal: Signal, pkt: &mut Packet) -> Option<bool> {
        let markable = self.ecn != EcnMarking::None && pkt.ecn != EcnCodepoint::NotEct;
        match signal {
            Signal::Mark if self.ecn == EcnMarking::Classic && markable => Some(mark(pkt)),
            Signal::Pass | Signal::Mark => Some(false),
            Signal::Drop if markable => Some(mark(pkt)),
            Signal::Drop => None,
        }
    }

    /// CE-mark `pkt` if it is ECT and its sojourn meets the step threshold;
    /// true if it did.
    fn step_mark(&self, pkt: &mut Packet, sojourn_s: f64) -> bool {
        let hit = pkt.ecn == EcnCodepoint::Ect
            && matches!(self.ecn, EcnMarking::Step { threshold_s } if sojourn_s >= threshold_s);
        if hit {
            pkt.ecn = EcnCodepoint::Ce;
        }
        hit
    }
}

/// CE-mark `pkt`; true if this flipped it from Ect.
fn mark(pkt: &mut Packet) -> bool {
    let flipped = pkt.ecn == EcnCodepoint::Ect;
    pkt.ecn = EcnCodepoint::Ce;
    flipped
}

impl<P: Policy> QueueDiscipline for Queue<P> {
    fn enqueue(&mut self, mut pkt: Packet, now: Time) -> EnqueueResult {
        let signal = self.policy.on_enqueue(&self.backlog, &pkt, now);
        let Some(mut marked) = self.react(signal, &mut pkt) else {
            self.drops += 1;
            return EnqueueResult::Dropped;
        };
        let bytes = self.backlog.bytes + pkt.size_bytes as u64;
        let drain = self.backlog.drain_rate_bps;
        if !P::STEP_ON_DEQUEUE && drain > 0.0 {
            // The projected sojourn.  `8·bytes / rate` equals PIE's historical
            // `bytes / (rate / 8)` bit for bit: division by 8 is exact.
            marked |= self.step_mark(&mut pkt, (bytes * 8) as f64 / drain);
        }
        // A tail-dropped packet is a drop, never a mark (marked XOR dropped).
        if bytes > self.backlog.capacity_bytes {
            self.drops += 1;
            return EnqueueResult::Dropped;
        }
        self.marks += marked as u64;
        pkt.enqueued_at = now;
        self.backlog.bytes = bytes;
        self.backlog.packets.push_back(pkt);
        EnqueueResult::Accepted
    }

    fn dequeue_reporting(&mut self, now: Time, dropped: &mut dyn FnMut(Packet)) -> Option<Packet> {
        loop {
            let head = self.backlog.packets.front()?;
            let signal = self.policy.on_dequeue(&self.backlog, head, now);
            let mut pkt = self.backlog.packets.pop_front()?;
            self.backlog.bytes -= pkt.size_bytes as u64;
            if P::STEP_ON_DEQUEUE {
                let sojourn_s = pkt.queueing_delay(now).as_secs_f64();
                self.marks += self.step_mark(&mut pkt, sojourn_s) as u64;
            }
            match self.react(signal, &mut pkt) {
                Some(marked) => {
                    self.marks += marked as u64;
                    return Some(pkt);
                }
                None => {
                    self.drops += 1;
                    dropped(pkt);
                }
            }
        }
    }

    fn len_bytes(&self) -> u64 {
        self.backlog.bytes
    }

    fn drops(&self) -> u64 {
        self.drops
    }

    fn marks(&self) -> u64 {
        self.marks
    }

    fn set_capacity_bytes(&mut self, bytes: u64) {
        self.backlog.capacity_bytes = bytes.max(MSS as u64);
    }

    fn set_drain_rate_bps(&mut self, rate_bps: f64) {
        self.backlog.drain_rate_bps = rate_bps.max(P::MIN_DRAIN_BPS);
    }

    fn set_ecn_marking(&mut self, marking: EcnMarking) {
        self.ecn = marking;
    }
}

/// Drop-tail: no AQM decision; under classic ECN it marks once the backlog
/// (the arriving packet included) reaches half the buffer.
#[derive(Debug)]
pub struct DropTail;

impl Policy for DropTail {
    fn on_enqueue(&mut self, q: &Backlog, pkt: &Packet, _now: Time) -> Signal {
        if 2 * (q.bytes + pkt.size_bytes as u64) >= q.capacity_bytes {
            Signal::Mark
        } else {
            Signal::Pass
        }
    }
}

impl Queue<DropTail> {
    /// A drop-tail queue holding at most `capacity_bytes` bytes.
    pub fn new(capacity_bytes: u64) -> Self {
        Queue::with_policy(capacity_bytes, 0.0, DropTail)
    }
}

/// PIE's drop-probability update interval `T_UPDATE` (RFC 8033 §4.2).
const PIE_T_UPDATE: Time = Time::from_millis(15);
/// PIE's gain on the delay error, per second (RFC 8033 §4.2).
const PIE_ALPHA: f64 = 0.125;
/// PIE's gain on the delay trend, per second (RFC 8033 §4.2).
const PIE_BETA: f64 = 1.25;

/// PIE (Proportional Integral controller Enhanced), RFC 8033 (simplified):
/// the drop probability is updated every `T_UPDATE` from the deviation of
/// the estimated queueing delay from the target and from its trend.
#[derive(Debug)]
pub struct Pie {
    target_delay: Time,
    drop_prob: f64,
    /// Queue delay estimate at the last update.
    old_delay: Time,
    last_update: Time,
    rng: StdRng,
}

impl Pie {
    /// Estimated queueing delay, by Little's law: backlog over the drain rate.
    fn current_delay(q: &Backlog) -> Time {
        Time::from_secs_f64(q.bytes as f64 / (q.drain_rate_bps / 8.0))
    }

    fn update(&mut self, q: &Backlog, now: Time) {
        while now.saturating_sub(self.last_update) >= PIE_T_UPDATE {
            self.last_update += PIE_T_UPDATE;
            let cur = Self::current_delay(q);
            let p_delta = PIE_ALPHA * (cur.as_secs_f64() - self.target_delay.as_secs_f64())
                + PIE_BETA * (cur.as_secs_f64() - self.old_delay.as_secs_f64());
            // RFC 8033 §5.2 scales the adjustment when drop_prob is small to
            // avoid oscillation around zero.
            let scale = if self.drop_prob < 0.000001 {
                0.0009765625 // 1/2048
            } else if self.drop_prob < 0.00001 {
                0.001953125
            } else if self.drop_prob < 0.0001 {
                0.00390625
            } else if self.drop_prob < 0.001 {
                0.0078125
            } else if self.drop_prob < 0.01 {
                0.03125
            } else if self.drop_prob < 0.1 {
                0.125
            } else {
                1.0
            };
            self.drop_prob = (self.drop_prob + p_delta * scale).clamp(0.0, 1.0);
            // Decay the probability when the queue is idle.
            if cur == Time::ZERO && self.old_delay == Time::ZERO {
                self.drop_prob *= 0.98;
            }
            self.old_delay = cur;
        }
    }
}

impl Policy for Pie {
    /// PIE's departure-rate estimate is floored at 1 B/s.
    const MIN_DRAIN_BPS: f64 = 8.0;

    fn on_enqueue(&mut self, q: &Backlog, _pkt: &Packet, now: Time) -> Signal {
        self.update(q, now);
        // Don't drop when the queue is nearly empty (burst allowance).
        let protect = Self::current_delay(q)
            < Time::from_millis_f64(self.target_delay.as_millis_f64() / 2.0)
            && q.packets.len() < 3;
        if !protect && self.drop_prob > 0.0 && self.rng.gen::<f64>() < self.drop_prob {
            Signal::Drop
        } else {
            Signal::Pass
        }
    }

    fn on_dequeue(&mut self, q: &Backlog, _head: &Packet, now: Time) -> Signal {
        self.update(q, now);
        Signal::Pass
    }
}

impl Queue<Pie> {
    /// A PIE queue in front of a link of `rate_bps`, with a physical buffer
    /// of `capacity_bytes` and the given delay target.
    pub fn new(capacity_bytes: u64, rate_bps: f64, target_delay: Time, seed: u64) -> Self {
        Queue::with_policy(
            capacity_bytes,
            rate_bps,
            Pie {
                target_delay,
                drop_prob: 0.0,
                old_delay: Time::ZERO,
                last_update: Time::ZERO,
                rng: StdRng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15),
            },
        )
    }
}

/// RED's maximum early-drop probability `max_p` (Floyd & Jacobson 1993; RED
/// has no RFC of its own, RFC 2309 §3 recommends it).
const RED_MAX_P: f64 = 0.1;
/// RED's queue weight `w_q` of the average-queue EWMA (Floyd & Jacobson 1993).
const RED_WEIGHT: f64 = 0.002;

/// Random Early Detection: drops early with a probability that rises
/// linearly from 0 to `max_p` as an EWMA of the queue moves between 25 % and
/// 75 % of the buffer, and always above that.
#[derive(Debug)]
pub struct Red {
    avg_bytes: f64,
    rng: StdRng,
}

impl Policy for Red {
    fn on_enqueue(&mut self, q: &Backlog, _pkt: &Packet, _now: Time) -> Signal {
        self.avg_bytes = (1.0 - RED_WEIGHT) * self.avg_bytes + RED_WEIGHT * q.bytes as f64;
        let min_thresh = q.capacity_bytes as f64 * 0.25;
        let max_thresh = q.capacity_bytes as f64 * 0.75;
        let drop = if self.avg_bytes >= max_thresh {
            true
        } else if self.avg_bytes > min_thresh {
            let p = RED_MAX_P * (self.avg_bytes - min_thresh) / (max_thresh - min_thresh);
            self.rng.gen::<f64>() < p
        } else {
            false
        };
        if drop {
            Signal::Drop
        } else {
            Signal::Pass
        }
    }
}

impl Queue<Red> {
    /// A RED queue with thresholds at 25 % / 75 % of `capacity_bytes`.
    pub fn new(capacity_bytes: u64, seed: u64) -> Self {
        Queue::with_policy(
            capacity_bytes,
            0.0,
            Red {
                avg_bytes: 0.0,
                rng: StdRng::seed_from_u64(seed ^ 0x6a09e667f3bcc908),
            },
        )
    }
}

/// CoDel's acceptable standing sojourn `TARGET` (RFC 8289 §4.3).
const CODEL_TARGET: Time = Time::from_millis(5);
/// CoDel's sliding window `INTERVAL` (RFC 8289 §4.2).
const CODEL_INTERVAL: Time = Time::from_millis(100);

/// CoDel (Controlled Delay): drops at dequeue once the sojourn time has
/// stayed above `TARGET` for at least `INTERVAL`, then ever faster (the
/// control law) until it falls back below.
#[derive(Debug)]
pub struct CoDel {
    /// When a sojourn above target, first seen, will have lasted an interval.
    first_above_time: Option<Time>,
    /// The next drop while in the dropping state; `None` outside it.
    drop_next: Option<Time>,
    drop_count: u64,
}

impl CoDel {
    fn control_law(&self, t: Time) -> Time {
        let interval_s = CODEL_INTERVAL.as_secs_f64();
        t + Time::from_secs_f64(interval_s / ((self.drop_count.max(1)) as f64).sqrt())
    }
}

impl Policy for CoDel {
    const STEP_ON_DEQUEUE: bool = true;

    fn on_dequeue(&mut self, q: &Backlog, head: &Packet, now: Time) -> Signal {
        let left_behind = q.bytes - head.size_bytes as u64;
        let ok_to_drop = if head.queueing_delay(now) < CODEL_TARGET || left_behind < 2 * MSS as u64
        {
            self.first_above_time = None;
            false
        } else {
            match self.first_above_time {
                None => {
                    self.first_above_time = Some(now + CODEL_INTERVAL);
                    false
                }
                Some(fat) => now >= fat,
            }
        };
        match self.drop_next {
            Some(_) if !ok_to_drop => {
                self.drop_next = None;
                Signal::Pass
            }
            Some(next) if now >= next => {
                self.drop_count += 1;
                self.drop_next = Some(self.control_law(next));
                Signal::Drop
            }
            None if ok_to_drop => {
                self.drop_count = if self.drop_count > 2 {
                    self.drop_count - 2
                } else {
                    1
                };
                self.drop_next = Some(self.control_law(now));
                Signal::Drop
            }
            _ => Signal::Pass,
        }
    }
}

impl Queue<CoDel> {
    /// A CoDel queue with the RFC 8289 5 ms target and 100 ms interval.
    pub fn new(capacity_bytes: u64) -> Self {
        Queue::with_policy(
            capacity_bytes,
            0.0,
            CoDel {
                first_above_time: None,
                drop_next: None,
                drop_count: 0,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pkt(flow: usize, seq: u64, size: u32, t_ms: u64) -> Packet {
        Packet::new(flow, seq, size, Time::from_millis(t_ms), false)
    }

    fn ect(flow: usize, seq: u64, size: u32, t_ms: u64) -> Packet {
        let mut p = pkt(flow, seq, size, t_ms);
        p.ecn = EcnCodepoint::Ect;
        p
    }

    #[test]
    fn droptail_respects_capacity_and_fifo_order() {
        let mut q = DropTailQueue::new(4000);
        assert_eq!(
            q.enqueue(pkt(0, 0, 1500, 0), Time::ZERO),
            EnqueueResult::Accepted
        );
        assert_eq!(
            q.enqueue(pkt(0, 1, 1500, 0), Time::ZERO),
            EnqueueResult::Accepted
        );
        // Third 1500B packet exceeds 4000B capacity.
        assert_eq!(
            q.enqueue(pkt(0, 2, 1500, 0), Time::ZERO),
            EnqueueResult::Dropped
        );
        assert_eq!(q.drops(), 1);
        assert_eq!(q.len_bytes(), 3000);
        assert_eq!(q.dequeue(Time::ZERO).unwrap().seq, 0);
        assert_eq!(q.dequeue(Time::ZERO).unwrap().seq, 1);
        assert!(q.dequeue(Time::ZERO).is_none());
        assert_eq!(q.len_bytes(), 0);
    }

    #[test]
    fn droptail_delay_capacity_matches_bdp_style_spec() {
        // 96 Mbit/s with 100 ms of buffering = 1.2 MB; a vanishing buffer
        // still admits one MSS.
        assert_eq!(delay_capacity_bytes(96e6, 0.1), 1_200_000);
        assert_eq!(delay_capacity_bytes(1.0, 0.1), 1500);
    }

    #[test]
    fn pie_idle_queue_does_not_drop() {
        let mut q = PieQueue::new(1_000_000, 96e6, Time::from_millis(15), 2);
        let mut now = Time::ZERO;
        let mut drops = 0;
        for i in 0..1000 {
            if q.enqueue(pkt(0, i, 1500, 0), now) == EnqueueResult::Dropped {
                drops += 1;
            }
            // Drain immediately: queue never builds.
            let _ = q.dequeue(now);
            now += Time::from_millis(10);
        }
        assert_eq!(drops, 0);
    }

    #[test]
    fn red_drops_probabilistically_between_thresholds() {
        let mut q = RedQueue::new(150_000, 7);
        // Fill to ~50% so the average sits between min (25%) and max (75%).
        let mut drops = 0;
        let mut accepted = 0;
        for i in 0..5000u64 {
            match q.enqueue(pkt(0, i, 1500, 0), Time::ZERO) {
                EnqueueResult::Accepted => {
                    accepted += 1;
                    if q.len_bytes() > 75_000 {
                        let _ = q.dequeue(Time::ZERO);
                    }
                }
                EnqueueResult::Dropped => drops += 1,
            }
        }
        assert!(drops > 0, "RED should drop between thresholds");
        assert!(accepted > drops, "RED should not drop everything");
    }

    #[test]
    fn codel_drops_when_sojourn_stays_above_target() {
        let mut q = CoDelQueue::new(10_000_000);
        // Enqueue a burst at t=0, dequeue slowly so sojourn times are large.
        for i in 0..2000u64 {
            q.enqueue(pkt(0, i, 1500, 0), Time::ZERO);
        }
        let mut delivered = 0;
        let mut now = Time::from_millis(1);
        while let Some(_p) = q.dequeue(now) {
            delivered += 1;
            now += Time::from_millis(1);
            if delivered > 5000 {
                break;
            }
        }
        assert!(q.drops() > 0, "CoDel should drop under persistent delay");
        assert!(delivered > 0);
    }

    #[test]
    fn codel_does_not_drop_short_lived_queues() {
        let mut q = CoDelQueue::new(1_000_000);
        let mut now = Time::ZERO;
        for i in 0..100u64 {
            q.enqueue(pkt(0, i, 1500, now.as_nanos() / 1_000_000), now);
            // Dequeue within the target delay.
            let _ = q.dequeue(now + Time::from_millis(1));
            now += Time::from_millis(10);
        }
        assert_eq!(q.drops(), 0);
    }

    #[test]
    fn droptail_step_marking_flips_only_ect_packets() {
        // 12 Mbit/s drain: a 1500 B packet takes 1 ms to serialize, so with a
        // 1 ms step threshold the second queued packet projects over it.
        let mut q = DropTailQueue::new(1_000_000);
        q.set_drain_rate_bps(12e6);
        q.set_ecn_marking(EcnMarking::Step { threshold_s: 0.001 });
        assert_eq!(
            q.enqueue(ect(0, 0, 1500, 0), Time::ZERO),
            EnqueueResult::Accepted
        );
        assert_eq!(
            q.enqueue(ect(0, 1, 1500, 0), Time::ZERO),
            EnqueueResult::Accepted
        );
        assert_eq!(
            q.enqueue(pkt(0, 2, 1500, 0), Time::ZERO),
            EnqueueResult::Accepted
        );
        // First packet projected exactly at 1 ms sojourn → marked; the
        // non-ECT packet behind it stays untouched however deep the queue is.
        assert_eq!(q.marks(), 2);
        assert_eq!(q.dequeue(Time::ZERO).unwrap().ecn, EcnCodepoint::Ce);
        assert_eq!(q.dequeue(Time::ZERO).unwrap().ecn, EcnCodepoint::Ce);
        assert_eq!(q.dequeue(Time::ZERO).unwrap().ecn, EcnCodepoint::NotEct);
        assert_eq!(q.drops(), 0);
    }

    #[test]
    fn droptail_classic_marking_kicks_in_at_half_capacity() {
        let mut q = DropTailQueue::new(6000);
        q.set_ecn_marking(EcnMarking::Classic);
        assert_eq!(
            q.enqueue(ect(0, 0, 1500, 0), Time::ZERO),
            EnqueueResult::Accepted
        );
        assert_eq!(q.marks(), 0, "below half capacity: no mark");
        assert_eq!(
            q.enqueue(ect(0, 1, 1500, 0), Time::ZERO),
            EnqueueResult::Accepted
        );
        assert_eq!(q.marks(), 1, "at half capacity: marked");
    }

    #[test]
    fn pie_marks_instead_of_dropping_ect() {
        // The same sustained overload (2 in, 1 out per millisecond), run
        // plain and with classic ECN + all-ECT traffic.  Plain PIE sheds the
        // excess by dropping; with marking and a buffer big enough to hold
        // the run, the *same* probabilistic decisions become CE marks and no
        // packet is lost.  (The two runs are not packet-for-packet identical
        // — keeping marked packets changes the queue PIE measures — so the
        // invariant is drop-freedom, not a drop↔mark bijection.)
        let rate = 12e6;
        let run = |ecn: bool| {
            let mut q = PieQueue::new(100_000_000, rate, Time::from_millis(15), 1);
            if ecn {
                q.set_ecn_marking(EcnMarking::Classic);
            }
            let mut now = Time::ZERO;
            for i in 0..20_000u64 {
                for j in 0..2 {
                    let p = if ecn {
                        ect(0, i * 2 + j, 1500, 0)
                    } else {
                        pkt(0, i * 2 + j, 1500, 0)
                    };
                    let _ = q.enqueue(p, now);
                }
                let _ = q.dequeue(now);
                now += Time::from_millis(1);
            }
            (q.drops(), q.marks())
        };
        let (plain_drops, plain_marks) = run(false);
        let (ecn_drops, ecn_marks) = run(true);
        assert_eq!(plain_marks, 0);
        assert!(plain_drops > 100, "plain PIE drops under overload");
        assert_eq!(ecn_drops, 0, "classic ECN never drops ECT traffic");
        assert!(ecn_marks > 100, "the shed load reappears as marks");
    }

    #[test]
    fn codel_marks_and_delivers_under_persistent_delay() {
        let mut q = CoDelQueue::new(10_000_000);
        q.set_ecn_marking(EcnMarking::Classic);
        for i in 0..2000u64 {
            q.enqueue(ect(0, i, 1500, 0), Time::ZERO);
        }
        let mut delivered = 0u64;
        let mut marked = 0u64;
        let mut now = Time::from_millis(1);
        while let Some(p) = q.dequeue(now) {
            delivered += 1;
            if p.ecn == EcnCodepoint::Ce {
                marked += 1;
            }
            now += Time::from_millis(1);
        }
        assert_eq!(q.drops(), 0, "with ECN the control law marks, not drops");
        assert!(marked > 0, "persistent sojourn must mark");
        assert_eq!(q.marks(), marked);
        assert_eq!(delivered, 2000, "every packet was delivered");
    }

    #[test]
    fn codel_step_profile_marks_on_measured_sojourn() {
        let mut q = CoDelQueue::new(10_000_000);
        q.set_ecn_marking(EcnMarking::Step { threshold_s: 0.001 });
        q.enqueue(ect(0, 0, 1500, 0), Time::ZERO);
        q.enqueue(ect(0, 1, 1500, 0), Time::ZERO);
        // Dequeued within the threshold: unmarked.
        assert_eq!(
            q.dequeue(Time::from_micros(500)).unwrap().ecn,
            EcnCodepoint::Ect
        );
        // Dequeued past 1 ms of sojourn: step-marked.
        assert_eq!(
            q.dequeue(Time::from_millis(2)).unwrap().ecn,
            EcnCodepoint::Ce
        );
        assert_eq!(q.marks(), 1);
    }

    proptest! {
        #[test]
        fn prop_marked_xor_dropped(sizes in proptest::collection::vec(500u32..1500, 1..200),
                                   kind in 0u8..4) {
            // Every offered packet meets exactly one fate: dropped, delivered
            // marked, or delivered unmarked — never more than one, across all
            // four disciplines with marking enabled.
            let mut q: Box<dyn QueueDiscipline> = match kind {
                0 => Box::new(DropTailQueue::new(20_000)),
                1 => Box::new(PieQueue::new(20_000, 12e6, Time::from_millis(5), 11)),
                2 => Box::new(RedQueue::new(20_000, 13)),
                _ => Box::new(CoDelQueue::new(20_000)),
            };
            q.set_drain_rate_bps(12e6);
            q.set_ecn_marking(EcnMarking::Step { threshold_s: 0.002 });
            let mut offered = 0u64;
            let mut accepted_bytes = 0u64;
            let mut dropped_at_enqueue = 0u64;
            for (i, &s) in sizes.iter().enumerate() {
                offered += 1;
                match q.enqueue(ect(0, i as u64, s, (i / 4) as u64), Time::from_millis((i / 4) as u64)) {
                    EnqueueResult::Accepted => accepted_bytes += s as u64,
                    EnqueueResult::Dropped => dropped_at_enqueue += 1,
                }
            }
            let mut delivered = 0u64;
            let mut delivered_bytes = 0u64;
            let mut delivered_marked = 0u64;
            let (mut dropped_at_dequeue, mut dropped_bytes) = (0u64, 0u64);
            let now = Time::from_millis(400);
            while let Some(p) = q.dequeue_reporting(now, &mut |p| {
                dropped_at_dequeue += 1;
                dropped_bytes += p.size_bytes as u64;
            }) {
                delivered += 1;
                delivered_bytes += p.size_bytes as u64;
                prop_assert_ne!(p.ecn, EcnCodepoint::NotEct, "codepoint must survive the queue");
                if p.ecn == EcnCodepoint::Ce {
                    delivered_marked += 1;
                }
            }
            // Marked XOR dropped: the fates partition the offered packets —
            // every packet is either delivered (possibly CE-marked) or
            // dropped, never both, and marks only ever land on delivered
            // packets.
            prop_assert_eq!(delivered + q.drops(), offered, "delivered + dropped == offered");
            prop_assert_eq!(dropped_at_enqueue + dropped_at_dequeue, q.drops(),
                            "every drop is reported at the end it happened");
            prop_assert_eq!(delivered_marked, q.marks(),
                            "every mark the discipline counted was delivered exactly once");
            // Byte conservation: accepted bytes came out or were reported
            // dropped at dequeue (CoDel's control law).
            prop_assert_eq!(q.len_bytes(), 0, "queue fully drained");
            prop_assert_eq!(accepted_bytes, delivered_bytes + dropped_bytes);
        }

        #[test]
        fn prop_marking_is_deterministic_across_threads(sizes in proptest::collection::vec(500u32..1500, 1..150),
                                                        seed in 0u64..1000) {
            // The same marking workload must produce identical (drops, marks,
            // delivered-CE sequence) whether run serially or on worker
            // threads: all randomness is owned by the seeded queue RNG.
            let run = {
                let sizes = sizes.clone();
                move || {
                    let mut q = RedQueue::new(30_000, seed);
                    q.set_drain_rate_bps(12e6);
                    q.set_ecn_marking(EcnMarking::Classic);
                    let mut fates = Vec::new();
                    for (i, &s) in sizes.iter().enumerate() {
                        let r = q.enqueue(ect(0, i as u64, s, 0), Time::ZERO);
                        if r == EnqueueResult::Accepted && q.len_bytes() > 20_000 {
                            let _ = q.dequeue(Time::ZERO);
                        }
                        fates.push(r == EnqueueResult::Accepted);
                    }
                    let mut ce = Vec::new();
                    while let Some(p) = q.dequeue(Time::ZERO) {
                        ce.push(p.ecn == EcnCodepoint::Ce);
                    }
                    (q.drops(), q.marks(), fates, ce)
                }
            };
            let serial = run();
            let handles: Vec<_> = (0..2).map(|_| {
                let r = run.clone();
                std::thread::spawn(r)
            }).collect();
            for h in handles {
                let threaded = h.join().unwrap();
                prop_assert_eq!(&threaded, &serial, "thread run diverged from serial run");
            }
        }

        #[test]
        fn prop_droptail_is_a_byte_capacity_fifo(ops in proptest::collection::vec((0u8..2, 100u32..2000), 1..300)) {
            let mut q = DropTailQueue::new(20_000);
            let mut model: VecDeque<(u64, u32)> = VecDeque::new();
            let (mut seq, mut model_bytes) = (0u64, 0u64);
            for (op, size) in ops {
                if op == 0 {
                    let accepted = q.enqueue(pkt(0, seq, size, 0), Time::ZERO) == EnqueueResult::Accepted;
                    prop_assert_eq!(accepted, model_bytes + size as u64 <= 20_000);
                    if accepted {
                        model.push_back((seq, size));
                        model_bytes += size as u64;
                    }
                    seq += 1;
                } else {
                    let got = q.dequeue(Time::ZERO).map(|p| (p.seq, p.size_bytes));
                    let want = model.pop_front();
                    model_bytes -= want.map_or(0, |(_, s)| s as u64);
                    prop_assert_eq!(got, want);
                }
                prop_assert_eq!(q.len_bytes(), model_bytes);
            }
        }
    }
}
