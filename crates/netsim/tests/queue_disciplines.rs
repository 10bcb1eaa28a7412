//! Queue-discipline behaviour, end to end and packet by packet.
//!
//! End to end, a paced flow offering 2× the bottleneck rate exercises every
//! discipline: drop-tail must cap the queueing delay at the buffer size, the
//! AQMs (PIE, RED, CoDel) must hold it *well below* the physical buffer
//! while still shipping (roughly) line rate, and every discipline must
//! account for every packet, including the ones CoDel drops at dequeue.
//!
//! Packet by packet, the fate table pins one hash per discipline × marking
//! profile of what a seeded mixed ECT / non-ECT workload meets: accepted or
//! dropped, the codepoint each packet leaves with, dequeue-side drops, and
//! the drop and mark counters.  No scenario string reaches RED, CoDel or a
//! marking PIE, so this table is the only behaviour contract they have.

use nimbus_netsim::queue::{delay_capacity_bytes, EnqueueResult};
use nimbus_netsim::{
    AckInfo, CoDelQueue, DropTailQueue, EcnCodepoint, EcnMarking, FlowConfig, FlowEndpoint,
    Network, Packet, PieQueue, QueueDiscipline, QueueKind, RedQueue, SendAction, SimConfig, Time,
};
use std::collections::VecDeque;

/// Minimal paced constant-bit-rate endpoint (netsim cannot depend on
/// nimbus-transport, so the overload source lives here).
struct PacedCbr {
    rate_bps: f64,
    next_seq: u64,
    next_send: Time,
}

impl PacedCbr {
    fn new(rate_bps: f64) -> Self {
        PacedCbr {
            rate_bps,
            next_seq: 0,
            next_send: Time::ZERO,
        }
    }
}

impl FlowEndpoint for PacedCbr {
    fn on_ack(&mut self, _ack: &AckInfo) {}
    fn poll_send(&mut self, now: Time) -> SendAction {
        if now >= self.next_send {
            let seq = self.next_seq;
            self.next_seq += 1;
            let gap = Time::from_secs_f64(1500.0 * 8.0 / self.rate_bps);
            self.next_send = if self.next_send == Time::ZERO {
                now + gap
            } else {
                self.next_send + gap
            };
            SendAction::Transmit {
                seq,
                bytes: 1500,
                retransmit: false,
            }
        } else {
            SendAction::WaitUntil(self.next_send)
        }
    }
    fn label(&self) -> &str {
        "paced-cbr"
    }
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

/// Run 2× overload through the given queue kind; returns
/// (mean queueing delay ms, drops, throughput Mbit/s).  Every packet must be
/// accounted for: admitted bytes are received, dropped in transit or still
/// in the network, and every packet sent and neither received nor in the
/// network is a drop the recorder saw.
fn overload_through(queue: QueueKind) -> (f64, u64, f64) {
    let rate = 24e6;
    let mut cfg = SimConfig::new(rate, 0.1, 20.0);
    cfg.link_mut().queue = queue;
    let mut net = Network::new(cfg);
    let h = net.add_flow(
        FlowConfig::primary("overload", Time::from_millis(20)),
        Box::new(PacedCbr::new(2.0 * rate)),
    );
    net.run();
    let (received, in_network) = (net.total_received_bytes(), net.in_network_bytes());
    assert_eq!(
        net.total_enqueued_bytes(),
        received + net.dropped_in_transit_bytes() + in_network,
        "admitted bytes are received, dropped in transit or in the network"
    );
    let sent = net
        .endpoint(h)
        .as_any()
        .and_then(|a| a.downcast_ref::<PacedCbr>())
        .expect("the overload source")
        .next_seq;
    let (rec, _) = net.finish();
    let recorded: u64 = rec.hop_dropped_packets.iter().sum();
    assert_eq!(
        recorded,
        sent - (received + in_network) / 1500,
        "every lost packet is a recorded drop"
    );
    let slot = rec.monitored_slot(h.0).unwrap();
    let qd = rec.queue_delay_ms(slot).mean_in_range(5.0, 20.0);
    let tput = rec.throughput_mbps(slot).mean_in_range(5.0, 20.0);
    (qd, rec.flows[h.0].dropped_packets, tput)
}

#[test]
fn droptail_fills_to_the_buffer_cap() {
    let (qd, drops, tput) = overload_through(QueueKind::DropTail);
    assert!(qd > 60.0 && qd <= 105.0, "drop-tail queueing delay {qd} ms");
    assert!(
        drops > 100,
        "drop-tail must shed the overload, drops={drops}"
    );
    assert!((tput - 24.0).abs() < 1.5, "line rate expected, got {tput}");
}

#[test]
fn pie_holds_the_queue_near_its_target_under_overload() {
    let (qd, drops, tput) = overload_through(QueueKind::Pie {
        target_delay_s: 0.02,
    });
    assert!(
        qd < 60.0,
        "PIE queueing delay {qd} ms should sit near 20 ms"
    );
    assert!(drops > 100, "PIE must drop under sustained overload");
    assert!(tput > 20.0, "PIE throughput {tput}");
}

#[test]
fn red_keeps_the_average_queue_below_the_buffer() {
    let (qd, drops, tput) = overload_through(QueueKind::Red);
    assert!(
        qd < 90.0,
        "RED queueing delay {qd} ms should stay below drop-tail"
    );
    assert!(drops > 100, "RED must drop under sustained overload");
    assert!(tput > 20.0, "RED throughput {tput}");
}

#[test]
fn codel_bounds_sojourn_time_under_overload() {
    let (qd, drops, tput) = overload_through(QueueKind::CoDel);
    // CoDel's drop rate ramps only as sqrt(count), so an unresponsive 2×
    // overload is its weakest case — require it to beat drop-tail's ~95 ms,
    // not to reach its 5 ms target.
    assert!(
        qd < 90.0,
        "CoDel queueing delay {qd} ms should be controlled"
    );
    assert!(drops > 100, "CoDel must drop under sustained overload");
    assert!(tput > 20.0, "CoDel throughput {tput}");
}

#[test]
fn aqms_and_droptail_rank_as_expected() {
    let (dt, _, _) = overload_through(QueueKind::DropTail);
    let (pie, _, _) = overload_through(QueueKind::Pie {
        target_delay_s: 0.02,
    });
    let (codel, _, _) = overload_through(QueueKind::CoDel);
    assert!(
        pie < dt && codel < dt,
        "AQMs must beat drop-tail on delay: pie={pie} codel={codel} droptail={dt}"
    );
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Drive `q` through six seconds of 1 ms slots and hash every packet's fate.
/// Arrivals of 200–1500 B, half of them ECT, offer 2× the drain rate for
/// 2 s, 0.5× for 1 s, 2× again for 2 s after the rate halves (the buffer
/// shrinking with it, as the engine re-sizes it) and nothing for the last
/// second; the link drains by byte credit.
fn fate_hash(q: &mut dyn QueueDiscipline) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut xorshift = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut accepted: VecDeque<u64> = VecDeque::new();
    let (mut offer_credit, mut drain_credit) = (0.0f64, 0.0f64);
    let mut rate = 12e6;
    q.set_drain_rate_bps(rate);
    let mut seq = 0u64;
    for slot in 0..6000u64 {
        let now = Time::from_millis(slot);
        if slot == 3000 {
            rate = 6e6;
            q.set_drain_rate_bps(rate);
            q.set_capacity_bytes(delay_capacity_bytes(rate, 0.05));
        }
        let per_ms = rate / 8.0 / 1000.0;
        offer_credit += per_ms
            * match slot {
                0..=1999 | 3000..=4999 => 2.0,
                2000..=2999 => 0.5,
                _ => 0.0,
            };
        while offer_credit > 0.0 {
            let r = xorshift();
            let size = 200 + (r % 1301) as u32;
            let mut pkt = Packet::new(0, seq, size, now, false);
            if (r >> 40) & 1 == 1 {
                pkt.ecn = EcnCodepoint::Ect;
            }
            let ok = q.enqueue(pkt, now) == EnqueueResult::Accepted;
            h.word(seq << 1 | ok as u64);
            if ok {
                accepted.push_back(seq);
            }
            seq += 1;
            offer_credit -= size as f64;
        }
        drain_credit += per_ms;
        while drain_credit > 0.0 {
            let mut reported = 0u64;
            let next = q.dequeue_reporting(now, &mut |_| reported += 1);
            // Accepted packets the dequeue skipped over were dropped there.
            let skipped = match next {
                Some(p) => {
                    let mut skipped = 0;
                    while accepted.pop_front().expect("an accepted packet") != p.seq {
                        skipped += 1;
                    }
                    h.word(p.seq);
                    h.word(p.ecn as u64);
                    drain_credit -= p.size_bytes as f64;
                    skipped
                }
                None => {
                    h.word(u64::MAX);
                    drain_credit = 0.0;
                    std::mem::take(&mut accepted).len() as u64
                }
            };
            h.word(skipped);
            assert_eq!(reported, skipped, "slot {slot}: dequeue-side drops");
        }
    }
    h.word(q.drops());
    h.word(q.marks());
    h.0
}

/// `(discipline/marking, fate hash)`.  A change to a policy's decision, its
/// RNG draws or the queue's mark/drop rule moves a row: re-pin only with the
/// reason written down.
const FATES: &[(&str, u64)] = &[
    ("droptail/none", 0xc8dc170d3f93efa4),
    ("droptail/classic", 0xde2dde176498f194),
    ("droptail/step1ms", 0xf27f364487aeb82e),
    ("pie/none", 0x1d6041c59d8586c3),
    ("pie/classic", 0x41506640bb21023c),
    ("pie/step1ms", 0xe0def06413841952),
    ("red/none", 0x6407a2bf7065add1),
    ("red/classic", 0xac28a369a6a9420f),
    ("red/step1ms", 0xaba3818903f9d163),
    ("codel/none", 0xa1725fbb5307beca),
    ("codel/classic", 0xa666d496b7e00da1),
    ("codel/step1ms", 0x1f721f5efa83cb27),
];

#[test]
fn every_discipline_and_marking_meets_its_pinned_fates() {
    let cap = delay_capacity_bytes(12e6, 0.05);
    let mut got = Vec::new();
    for discipline in ["droptail", "pie", "red", "codel"] {
        for (marking, ecn) in [
            ("none", EcnMarking::None),
            ("classic", EcnMarking::Classic),
            ("step1ms", EcnMarking::Step),
        ] {
            let mut q: Box<dyn QueueDiscipline> = match discipline {
                "droptail" => Box::new(DropTailQueue::new(cap)),
                "pie" => Box::new(PieQueue::new(cap, 12e6, Time::from_millis(15), 7)),
                "red" => Box::new(RedQueue::new(cap, 7)),
                _ => Box::new(CoDelQueue::new(cap)),
            };
            q.set_ecn_marking(ecn);
            got.push((format!("{discipline}/{marking}"), fate_hash(q.as_mut())));
        }
    }
    let want: Vec<_> = FATES.iter().map(|&(n, h)| (n.to_string(), h)).collect();
    assert_eq!(got, want);
}
