//! Multi-bottleneck path property and regression tests.
//!
//! The path engine must conserve work per hop (delivered bytes can never
//! exceed the minimum over hops of `∫µᵢ(t)dt`), preserve FIFO order along the
//! path (each hop is a FIFO queue and propagation is constant, so a flow's
//! packets can never reorder), conserve admitted bytes exactly
//! (`admitted = received + dropped-in-transit + still-in-network`), and stay
//! bit-for-bit deterministic however many hops the path has.  A hop whose
//! schedule ends in a (near-)zero-rate outage must not wedge the run or
//! corrupt the recorder's closing sample.

use nimbus_netsim::{
    AckInfo, FlowConfig, FlowEndpoint, LinkConfig, Network, RateSchedule, SendAction, SimConfig,
    Time,
};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

/// A constant-bit-rate paced sender that records the `triggering_seq` of
/// every ACK it sees: on a FIFO path with constant propagation those must be
/// strictly increasing (drops skip numbers but never reorder them).
struct PacedCbr {
    rate_bps: f64,
    mss: u32,
    next_seq: u64,
    next_send: Time,
    acked_seqs: Arc<Mutex<Vec<u64>>>,
}

impl PacedCbr {
    fn new(rate_bps: f64) -> Self {
        PacedCbr {
            rate_bps,
            mss: 1500,
            next_seq: 0,
            next_send: Time::ZERO,
            acked_seqs: Arc::new(Mutex::new(Vec::new())),
        }
    }

    fn ack_log(&self) -> Arc<Mutex<Vec<u64>>> {
        Arc::clone(&self.acked_seqs)
    }
}

impl FlowEndpoint for PacedCbr {
    fn on_ack(&mut self, ack: &AckInfo) {
        self.acked_seqs.lock().unwrap().push(ack.triggering_seq);
    }
    fn poll_send(&mut self, now: Time) -> SendAction {
        if now >= self.next_send {
            let seq = self.next_seq;
            self.next_seq += 1;
            let gap = Time::from_secs_f64(self.mss as f64 * 8.0 / self.rate_bps);
            self.next_send = if self.next_send == Time::ZERO {
                now + gap
            } else {
                self.next_send + gap
            };
            SendAction::Transmit {
                seq,
                bytes: self.mss,
                retransmit: false,
            }
        } else {
            SendAction::WaitUntil(self.next_send)
        }
    }
    fn label(&self) -> &str {
        "paced-cbr"
    }
}

/// Build an n-hop path config from per-hop (schedule, buffer) pairs.
fn path_config(hops: Vec<RateSchedule>, duration_s: f64) -> SimConfig {
    let mut it = hops.into_iter();
    let first = it.next().expect("at least one hop");
    let mut cfg = SimConfig::new(first.initial_rate_bps(), 0.1, duration_s);
    cfg.path[0].schedule = first;
    for schedule in it {
        let link = LinkConfig::drop_tail(schedule.initial_rate_bps(), 0.1)
            .with_schedule(schedule)
            .with_prop_delay(Time::from_millis(5));
        cfg = cfg.with_hop(link);
    }
    cfg
}

#[test]
fn secondary_bottleneck_caps_throughput_at_the_path_minimum() {
    // 48 Mbit/s first hop, 12 Mbit/s second hop, 30 Mbit/s offered: delivery
    // is capped by the second hop, and the standing queue builds there.
    let cfg = path_config(
        vec![RateSchedule::constant(48e6), RateSchedule::constant(12e6)],
        10.0,
    );
    let mut net = Network::new(cfg);
    let h = net.add_flow(
        FlowConfig::primary("cbr", Time::from_millis(20)),
        Box::new(PacedCbr::new(30e6)),
    );
    net.run();
    let (rec, _) = net.finish();
    let slot = rec.monitored_slot(h.0).unwrap();
    let tput = rec.throughput_mbps(slot).mean_in_range(4.0, 10.0);
    assert!((tput - 12.0).abs() < 1.5, "throughput {tput}");
    // The queue lives at hop 1, not hop 0.
    let q0 = rec.hop_queue_bytes(0).mean_in_range(4.0, 10.0);
    let q1 = rec.hop_queue_bytes(1).mean_in_range(4.0, 10.0);
    assert!(
        q1 > 10.0 * q0.max(1.0),
        "hop0 queue {q0} B, hop1 queue {q1} B"
    );
    // Drops happen at the tight hop.
    assert_eq!(rec.hop_dropped_packets[0], 0);
    assert!(rec.hop_dropped_packets[1] > 0);
}

#[test]
fn per_hop_propagation_adds_to_the_base_rtt() {
    // Two hops with 5 ms inter-hop propagation and a 20 ms flow RTT: base
    // RTT = 20 ms + 5 ms + 2 serializations (~0.25 ms each at 48 Mbit/s).
    let cfg = path_config(
        vec![RateSchedule::constant(48e6), RateSchedule::constant(48e6)],
        10.0,
    );
    let mut net = Network::new(cfg);
    let h = net.add_flow(
        FlowConfig::primary("cbr", Time::from_millis(20)),
        Box::new(PacedCbr::new(5e6)),
    );
    net.run();
    let (rec, _) = net.finish();
    let slot = rec.monitored_slot(h.0).unwrap();
    let rtt = rec.rtt_ms(slot).mean_in_range(2.0, 10.0);
    assert!(
        (rtt - 25.5).abs() < 1.0,
        "rtt {rtt} ms, expected ~25.5 (20 prop + 5 inter-hop + serialization)"
    );
}

#[test]
fn interior_hop_outage_still_stamps_the_closing_sample_at_duration() {
    // Regression (PR 2 closing clamp, path edition): the first hop's schedule
    // ends in a 1 bit/s outage, so its final `LinkDone` is scheduled
    // thousands of seconds past `duration` and never fires.  The run must
    // still end exactly at `duration`, with every recorder series' closing
    // sample stamped there and admission conservation intact (the wedged
    // bytes are accounted as still-in-network).
    let outage = RateSchedule::step(48e6, Time::from_secs_f64(3.0), 0.0);
    let cfg = path_config(vec![outage, RateSchedule::constant(48e6)], 6.0);
    let mut net = Network::new(cfg);
    let h = net.add_flow(
        FlowConfig::primary("cbr", Time::from_millis(20)),
        Box::new(PacedCbr::new(20e6)),
    );
    net.run();
    assert_eq!(net.now(), Time::from_secs_f64(6.0));
    assert_eq!(
        net.total_enqueued_bytes(),
        net.total_received_bytes() + net.dropped_in_transit_bytes() + net.in_network_bytes(),
        "conservation across the outage"
    );
    let (rec, _) = net.finish();
    let slot = rec.monitored_slot(h.0).unwrap();
    for (name, series) in [
        ("queue_bytes", rec.queue_bytes()),
        ("hop0", rec.hop_queue_bytes(0)),
        ("hop1", rec.hop_queue_bytes(1)),
        ("throughput", rec.throughput_mbps(slot)),
    ] {
        let last_t = *series.t.last().unwrap();
        assert!(
            (last_t - 6.0).abs() < 1e-9,
            "{name} closing sample stamped at {last_t}, expected 6.0"
        );
    }
    // Data flowed before the outage, none after it wedged hop 0.
    assert!(rec.throughput_mbps(slot).mean_in_range(1.0, 2.9) > 15.0);
    assert!(rec.throughput_mbps(slot).mean_in_range(4.0, 6.0) < 1.0);
}

#[test]
fn mid_path_cross_traffic_enters_and_is_dropped_at_its_entry_hop() {
    // Main flow traverses hops 0..=1; cross traffic enters at hop 1 offering
    // well over that hop's rate, so hop 1 drops heavily.  The cross flow's
    // drops must be charged to hop 1 and the main flow still gets a share.
    // (The cross rate is deliberately *not* an integer multiple of the drain
    // rate: commensurate CBR periods phase-lock against the drain clock and
    // can deterministically capture every freed buffer slot.)
    let cfg = path_config(
        vec![RateSchedule::constant(48e6), RateSchedule::constant(24e6)],
        10.0,
    );
    let mut net = Network::new(cfg);
    let main = net.add_flow(
        FlowConfig::primary("main", Time::from_millis(20)),
        Box::new(PacedCbr::new(20e6)),
    );
    let cross = net.add_flow(
        FlowConfig::cross("mid", Time::from_millis(10), false).entering_at(1),
        Box::new(PacedCbr::new(64e6)),
    );
    net.run();
    let (rec, _) = net.finish();
    assert_eq!(rec.hop_dropped_packets[0], 0, "hop 0 is uncongested");
    assert!(rec.flows[cross.0].dropped_packets > 0);
    assert!(rec.hop_dropped_packets[1] >= rec.flows[cross.0].dropped_packets);
    let tput = rec
        .throughput_mbps(rec.monitored_slot(main.0).unwrap())
        .mean_in_range(4.0, 10.0);
    assert!(tput > 2.0, "main flow starved: {tput}");
    // Cross traffic never touched hop 0, so its queue stayed empty.
    assert!(rec.hop_queue_bytes(0).mean_in_range(0.0, 10.0) < 2000.0);
}

#[test]
fn flow_exiting_mid_path_skips_downstream_hops() {
    // A flow exiting at hop 0 of a 2-hop path is unaffected by a congested
    // (tiny) hop 1 and never occupies it.
    let cfg = path_config(
        vec![RateSchedule::constant(48e6), RateSchedule::constant(1e6)],
        10.0,
    );
    let mut net = Network::new(cfg);
    let short = net.add_flow(
        FlowConfig::primary("short-path", Time::from_millis(20)).exiting_at(0),
        Box::new(PacedCbr::new(20e6)),
    );
    net.run();
    let (rec, _) = net.finish();
    let tput = rec
        .throughput_mbps(rec.monitored_slot(short.0).unwrap())
        .mean_in_range(2.0, 10.0);
    assert!((tput - 20.0).abs() < 1.5, "throughput {tput}");
    assert!(rec.hop_queue_bytes(1).mean_in_range(0.0, 10.0) < 1.0);
}

proptest! {
    // Work conservation on random 2–4-hop chains of random step schedules:
    // delivered bytes never exceed the minimum over hops of `∫µᵢ(t)dt`, the
    // admission ledger balances exactly, and the flow's ACK stream is
    // strictly FIFO.
    #[test]
    fn path_conservation_and_fifo_on_random_chains(
        hop_specs in collection::vec(
            (1.0f64..60.0, collection::vec((0.5f64..9.5, 0.5f64..60.0), 0..4)),
            2..5,
        ),
        offered_mbps in 5.0f64..100.0,
        seed in 0u64..1_000,
    ) {
        let duration_s = 10.0;
        let schedules: Vec<RateSchedule> = hop_specs
            .iter()
            .map(|(initial_mbps, steps)| {
                let mut sorted: Vec<(Time, f64)> = steps
                    .iter()
                    .map(|&(t_s, mbps)| (Time::from_secs_f64(t_s), mbps * 1e6))
                    .collect();
                sorted.sort_by_key(|&(t, _)| t);
                RateSchedule::steps(initial_mbps * 1e6, sorted)
            })
            .collect();
        let mut cfg = path_config(schedules.clone(), duration_s);
        cfg.seed = seed;
        let mut net = Network::new(cfg);
        let sender = PacedCbr::new(offered_mbps * 1e6);
        let ack_log = sender.ack_log();
        net.add_flow(
            FlowConfig::primary("cbr", Time::from_millis(20)),
            Box::new(sender),
        );
        net.run();

        // Work conservation against the tightest hop.
        let delivered_bits = net.total_delivered_bytes() as f64 * 8.0;
        let min_budget_bits = schedules
            .iter()
            .map(|s| s.integral_bits(Time::ZERO, Time::from_secs_f64(duration_s)))
            .fold(f64::INFINITY, f64::min);
        // One MSS of slack per hop: packets whose serialization straddles a
        // boundary when the budget is evaluated.
        let slack = 1500.0 * 8.0 * schedules.len() as f64;
        prop_assert!(
            delivered_bits <= min_budget_bits + slack,
            "delivered {delivered_bits} bits > min-hop integral {min_budget_bits} bits"
        );

        // Exact admission conservation at the stopping point.
        prop_assert_eq!(
            net.total_enqueued_bytes(),
            net.total_received_bytes()
                + net.dropped_in_transit_bytes()
                + net.in_network_bytes(),
            "admitted != received + dropped-in-transit + in-network"
        );

        // FIFO along the whole path: ACK triggering sequence numbers are
        // strictly increasing (drops skip, never reorder).
        let acks = ack_log.lock().unwrap();
        for w in acks.windows(2) {
            prop_assert!(w[0] < w[1], "reordered ACKs: {} then {}", w[0], w[1]);
        }
    }

    // Multi-hop runs are bit-for-bit deterministic: identical configs (with
    // loss enabled on two hops) produce identical recorder snapshots.
    #[test]
    fn multihop_runs_are_deterministic(seed in 0u64..200) {
        let run = |seed: u64| {
            let mut cfg = path_config(
                vec![
                    RateSchedule::sinusoid(24e6, 0.25, Time::from_secs_f64(4.0)),
                    RateSchedule::constant(18e6),
                    RateSchedule::step(30e6, Time::from_secs_f64(4.0), 12e6),
                ],
                8.0,
            );
            cfg.seed = seed;
            cfg.path[0].loss = 0.01;
            cfg.path[2].loss = 0.005;
            let mut net = Network::new(cfg);
            net.add_flow(
                FlowConfig::primary("a", Time::from_millis(30)),
                Box::new(PacedCbr::new(20e6)),
            );
            net.add_flow(
                FlowConfig::cross("b", Time::from_millis(40), false).entering_at(1),
                Box::new(PacedCbr::new(6e6)),
            );
            net.run();
            let events = net.events_processed();
            let (rec, _) = net.finish();
            (events, serde_json::to_string(&rec.snapshot()).unwrap())
        };
        let a = run(seed);
        let b = run(seed);
        prop_assert_eq!(a.0, b.0, "event counts diverged");
        prop_assert_eq!(a.1, b.1, "recorder snapshots diverged");
    }
}
