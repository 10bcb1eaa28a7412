//! Time-varying bottleneck regression and property tests.
//!
//! The variable-rate link model must conserve work (delivered bytes can never
//! exceed `∫µ(t)dt`), handle rate transitions landing mid-serialization by
//! byte progress (not by restarting or finishing the packet at the old rate),
//! survive near-zero-rate outage intervals without wedging the event loop,
//! and stay bit-for-bit deterministic.

use nimbus_netsim::{
    AckInfo, FlowConfig, FlowEndpoint, Network, RateSchedule, SendAction, SimConfig, Time,
};
use proptest::prelude::*;

/// A constant-bit-rate paced sender (one MSS every `mss·8/rate` seconds).
struct PacedCbr {
    rate_bps: f64,
    mss: u32,
    next_seq: u64,
    next_send: Time,
}

impl PacedCbr {
    fn new(rate_bps: f64) -> Self {
        PacedCbr {
            rate_bps,
            mss: 1500,
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

/// Sends exactly one 1500-byte packet at t=0, finishes once it is ACKed.
/// Its flow completion time pins down the packet's link-done time exactly.
struct OnePacket {
    sent: bool,
    acked: bool,
}

impl FlowEndpoint for OnePacket {
    fn on_ack(&mut self, ack: &AckInfo) {
        if ack.cum_ack >= 1 {
            self.acked = true;
        }
    }
    fn poll_send(&mut self, _now: Time) -> SendAction {
        if !self.sent {
            self.sent = true;
            SendAction::Transmit {
                seq: 0,
                bytes: 1500,
                retransmit: false,
            }
        } else if self.acked {
            SendAction::Finished
        } else {
            SendAction::Idle
        }
    }
    fn label(&self) -> &str {
        "one-packet"
    }
}

fn varying_config(schedule: RateSchedule, duration_s: f64) -> SimConfig {
    let mut cfg = SimConfig::new(schedule.initial_rate_bps(), 0.1, duration_s);
    cfg.link_mut().schedule = schedule;
    cfg
}

#[test]
fn rate_drop_mid_serialization_finishes_by_byte_progress() {
    // 1500 B at 12 Mbit/s serializes in 1 ms.  Halving the rate 0.5 ms into
    // serialization leaves 6000 bits, which take 1 ms at 6 Mbit/s: the packet
    // must complete at exactly 1.5 ms, not 1 ms (old rate kept) or 2 ms
    // (restarted at the new rate).  The flow finishes one propagation RTT
    // (20 ms) after link-done, when the ACK returns.
    let schedule = RateSchedule::step(12e6, Time::from_micros(500), 6e6);
    let mut net = Network::new(varying_config(schedule, 1.0));
    let h = net.add_flow(
        FlowConfig::cross("one", Time::from_millis(20), false).with_size(1500),
        Box::new(OnePacket {
            sent: false,
            acked: false,
        }),
    );
    net.run();
    let (rec, _) = net.finish();
    let fct_ms = rec.flows[h.0].fct().expect("flow finished").as_millis_f64();
    assert!(
        (fct_ms - 21.5).abs() < 0.05,
        "fct {fct_ms} ms; expected 1.5 ms serialization + 20 ms RTT"
    );
}

#[test]
fn rate_rise_mid_serialization_finishes_by_byte_progress() {
    // Symmetric case: 6 Mbit/s doubling to 12 Mbit/s at 1 ms: 6000 bits done,
    // 6000 bits at 12 Mbit/s = 0.5 ms more, done at 1.5 ms.
    let schedule = RateSchedule::step(6e6, Time::from_millis(1), 12e6);
    let mut net = Network::new(varying_config(schedule, 1.0));
    let h = net.add_flow(
        FlowConfig::cross("one", Time::from_millis(20), false).with_size(1500),
        Box::new(OnePacket {
            sent: false,
            acked: false,
        }),
    );
    net.run();
    let (rec, _) = net.finish();
    let fct_ms = rec.flows[h.0].fct().expect("flow finished").as_millis_f64();
    assert!((fct_ms - 21.5).abs() < 0.05, "fct {fct_ms} ms");
}

#[test]
fn throughput_follows_a_rate_step() {
    // 40 Mbit/s offered. Link: 48 Mbit/s for 5 s (unsaturated → ~40 through),
    // then 12 Mbit/s (saturated → ~12 through).
    let schedule = RateSchedule::step(48e6, Time::from_secs_f64(5.0), 12e6);
    let mut net = Network::new(varying_config(schedule, 10.0));
    let h = net.add_flow(
        FlowConfig::primary("cbr", Time::from_millis(20)),
        Box::new(PacedCbr::new(40e6)),
    );
    net.run();
    let (rec, _) = net.finish();
    let slot = rec.monitored_slot(h.0).unwrap();
    let before = rec.throughput_mbps(slot).mean_in_range(1.0, 4.9);
    let after = rec.throughput_mbps(slot).mean_in_range(6.5, 10.0);
    assert!((before - 40.0).abs() < 2.0, "pre-step throughput {before}");
    assert!((after - 12.0).abs() < 1.5, "post-step throughput {after}");
}

#[test]
fn near_zero_rate_interval_does_not_wedge_the_event_loop() {
    // A two-second outage (1 bit/s) in the middle of the run: the simulation
    // must complete, with a bounded number of events, and still deliver data
    // on both sides of the outage.
    let schedule = RateSchedule::steps(
        48e6,
        vec![
            (Time::from_secs_f64(3.0), 1.0),
            (Time::from_secs_f64(5.0), 48e6),
        ],
    );
    let mut net = Network::new(varying_config(schedule.clone(), 8.0));
    let h = net.add_flow(
        FlowConfig::primary("cbr", Time::from_millis(20)),
        Box::new(PacedCbr::new(20e6)),
    );
    net.run();
    assert_eq!(net.now(), Time::from_secs_f64(8.0));
    let events = net.events_processed();
    assert!(events < 1_000_000, "event storm: {events} events");
    let (rec, _) = net.finish();
    let slot = rec.monitored_slot(h.0).unwrap();
    // Deliveries resume after the outage.
    let after = rec.throughput_mbps(slot).mean_in_range(6.0, 8.0);
    assert!(after > 10.0, "throughput after outage {after}");
    // During the outage nothing (meaningfully) gets through.
    let during = rec.throughput_mbps(slot).mean_in_range(3.6, 4.9);
    assert!(during < 1.0, "throughput during outage {during}");
}

#[test]
fn varying_link_runs_are_deterministic() {
    let run = || {
        let schedule = RateSchedule::sinusoid(24e6, 0.25, Time::from_secs_f64(4.0));
        let mut cfg = varying_config(schedule, 10.0);
        cfg.link_mut().loss = 0.01;
        cfg.seed = 7;
        let mut net = Network::new(cfg);
        net.add_flow(
            FlowConfig::primary("a", Time::from_millis(30)),
            Box::new(PacedCbr::new(30e6)),
        );
        net.add_flow(
            FlowConfig::cross("b", Time::from_millis(60), false),
            Box::new(PacedCbr::new(5e6)),
        );
        net.run();
        let events = net.events_processed();
        let (rec, _) = net.finish();
        let snapshot = serde_json::to_string(&rec.snapshot()).unwrap();
        (events, snapshot)
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1, "recorder snapshots diverged across reruns");
}

#[test]
fn engine_clock_reaches_duration_even_when_events_end_early() {
    // Regression: `Network::run` used to leave `now` at the last popped event,
    // stamping the closing recorder sample early and truncating
    // `now()`-based steady-state windows.
    let mut net = Network::new(SimConfig::new(48e6, 0.1, 10.0));
    // A finite flow that finishes in well under a second.
    net.add_flow(
        FlowConfig::cross("short", Time::from_millis(10), false).with_size(1500),
        Box::new(OnePacket {
            sent: false,
            acked: false,
        }),
    );
    net.run();
    assert_eq!(net.now(), Time::from_secs_f64(10.0));
    let (rec, _) = net.finish();
    let last_t = *rec.queue_bytes().t.last().unwrap();
    assert!(
        (last_t - 10.0).abs() < 1e-9,
        "closing sample stamped at {last_t}, expected 10.0"
    );
}

#[test]
fn flows_starting_after_duration_never_run_and_are_flagged() {
    let mut net = Network::new(SimConfig::new(48e6, 0.1, 5.0));
    let ran = net.add_flow(
        FlowConfig::cross("ran", Time::from_millis(10), false).with_size(1500),
        Box::new(OnePacket {
            sent: false,
            acked: false,
        }),
    );
    let never = net.add_flow(
        FlowConfig::cross("never", Time::from_millis(10), false)
            .with_size(1500)
            .starting_at(Time::from_secs_f64(60.0)),
        Box::new(OnePacket {
            sent: false,
            acked: false,
        }),
    );
    net.run();
    let (rec, _) = net.finish();
    assert!(rec.flows[ran.0].started);
    assert!(!rec.flows[never.0].started);
    assert_eq!(rec.fct_stream().len(), 1, "only the flow that ran counts");
}

// Work conservation: however the schedule moves, the link can never deliver
// more than `∫µ(t)dt` bits (plus the packet in flight at the cut-off).
proptest! {
    #[test]
    fn delivered_bytes_never_exceed_schedule_integral(
        initial_mbps in 1.0f64..80.0,
        steps in collection::vec((0.5f64..9.5, 0.1f64..80.0), 1..5),
        offered_mbps in 10.0f64..120.0,
        seed in 0u64..1_000,
    ) {
        let duration_s = 10.0;
        let mut sorted: Vec<(Time, f64)> = steps
            .iter()
            .map(|&(t_s, mbps)| (Time::from_secs_f64(t_s), mbps * 1e6))
            .collect();
        sorted.sort_by_key(|&(t, _)| t);
        let schedule = RateSchedule::steps(initial_mbps * 1e6, sorted);
        let mut cfg = varying_config(schedule.clone(), duration_s);
        cfg.seed = seed;
        let mut net = Network::new(cfg);
        net.add_flow(
            FlowConfig::primary("cbr", Time::from_millis(20)),
            Box::new(PacedCbr::new(offered_mbps * 1e6)),
        );
        net.run();
        let delivered_bits = net.total_delivered_bytes() as f64 * 8.0;
        let budget_bits = schedule.integral_bits(Time::ZERO, Time::from_secs_f64(duration_s));
        // One MSS of slack: the packet whose serialization straddles the end.
        prop_assert!(
            delivered_bits <= budget_bits + 1500.0 * 8.0,
            "delivered {delivered_bits} bits > integral {budget_bits} bits"
        );
    }
}
