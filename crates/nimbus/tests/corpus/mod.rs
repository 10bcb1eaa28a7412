//! The adversarial host-callback corpus: seeded sequences of reordered and
//! compressed ACKs, degenerate reports, loss/RTO/CE storms, optionally
//! wrapped in coherent elastic and inelastic phases.  `callback_fuzz.rs`
//! holds a controller's outputs sane under it and pins them by hash;
//! `streaming_equivalence.rs` holds the streaming detector to its batch
//! reference on the ẑ it induces.

use nimbus_core::cc::{AckEvent, CongestionControl, CongestionEvent, LossEvent};
use nimbus_core::ccp::Report;
use nimbus_core::{
    LearnedMuConfig, MuSpec, NimbusConfig, NimbusSpec, ProbingConfig, ZFilterConfig,
};
use nimbus_core_types::Time;
use rand::rngs::StdRng;
use rand::Rng;

/// Chaotic events per sequence (the coherent phases come on top).
pub const EVENTS_PER_SEQUENCE: usize = 120;
/// The link rate every sequence is scaled to, bits/s.
pub const MU: f64 = 48e6;

/// Every µ strategy the corpus is driven through (a configured µ is
/// [`MU`]).
pub fn mu_configs() -> Vec<(&'static str, MuSpec)> {
    vec![
        ("configured", MuSpec::Configured),
        ("learned", MuSpec::learned()),
        (
            "probing",
            MuSpec::Learned(LearnedMuConfig::Probing(ProbingConfig::default())),
        ),
        (
            "quiesced",
            MuSpec::Learned(LearnedMuConfig::Probing(ProbingConfig {
                quiesce_uncertainty_floor: 0.4,
                ..ProbingConfig::default()
            })),
        ),
    ]
}

/// A controller running `spec` on a [`MU`] link, seeded with `seed`.
pub fn config(spec: NimbusSpec, seed: u64) -> NimbusConfig {
    NimbusConfig {
        spec,
        ..NimbusConfig::default_for_link(MU)
    }
    .with_seed(seed)
}

/// Every ẑ filter the corpus is driven through.
pub fn z_filters() -> Vec<(&'static str, ZFilterConfig)> {
    vec![
        ("raw", ZFilterConfig::None),
        ("notch", ZFilterConfig::Notch { freq_hz: 0.1 }),
        ("adaptive", ZFilterConfig::Adaptive),
    ]
}

/// One adversarial callback, with the wall-clock it claims to occur at.
#[derive(Debug)]
pub enum Event {
    Ack(AckEvent),
    Loss(LossEvent),
    Rto(Time),
    /// A receiver-echoed CE mark (`CongestionEvent::EcnCe`).
    EcnCe(Time, u64),
    Report(Report),
}

/// Hand `event` to `cc`, first advancing `now` to the latest instant any
/// callback has claimed (the clock a host reads the pacing rate at).
pub fn deliver(cc: &mut dyn CongestionControl, event: &Event, now: &mut Time) {
    match event {
        Event::Ack(ack) => {
            *now = (*now).max(ack.now);
            cc.on_packet_acked(ack);
        }
        Event::Loss(loss) => {
            *now = (*now).max(loss.now);
            cc.on_packets_lost(loss);
        }
        &Event::Rto(at) => {
            *now = (*now).max(at);
            cc.on_congestion_event(&CongestionEvent::Rto { now: at });
        }
        &Event::EcnCe(at, marked_bytes) => {
            *now = (*now).max(at);
            cc.on_congestion_event(&CongestionEvent::EcnCe {
                now: at,
                marked_bytes,
            });
        }
        Event::Report(report) => {
            *now = (*now).max(Time::from_secs_f64(report.now_s));
            cc.on_report(report);
        }
    }
}

/// Push `ticks` coherent 10 ms CCP reports in which ẑ = µ·S/R − S traces a
/// sinusoid of amplitude `z_amp_frac·µ` at `freq_hz` — the frequency the
/// detector listens at.  With amplitude well above the 1%-of-µ minimum peak
/// this reads as elastic cross traffic; with zero amplitude, inelastic.
fn push_coherent_reports(
    events: &mut Vec<Event>,
    now_s: &mut f64,
    ticks: usize,
    freq_hz: f64,
    z_amp_frac: f64,
) {
    for _ in 0..ticks {
        *now_s += 0.01;
        let send = MU * 0.5;
        let z = MU * 0.25 + MU * z_amp_frac * (2.0 * std::f64::consts::PI * freq_hz * *now_s).sin();
        let recv = MU * send / (send + z);
        events.push(Event::Report(Report {
            now_s: *now_s,
            send_rate_bps: send,
            recv_rate_bps: recv,
            acked_bytes: 12_000,
            lost_packets: 0,
            rtt_s: 0.05,
            min_rtt_s: 0.05,
            window_acks: 40,
            marked_packets: 0,
            marked_bytes: 0,
        }));
    }
}

/// Generate one randomized sequence.  Report time advances (sometimes by
/// zero — compressed ticks); ACK timestamps jitter around it, including
/// *backwards* (reordering).  Magnitudes span zero, sane, and absurd.
///
/// Half the sequences open with a coherent elastic warmup (ẑ oscillating at
/// the pulse frequency) so the chaos attacks a controller that has actually
/// switched to competitive mode, and half of *those* close with a quiet
/// inelastic tail long enough to force the Competitive→Delay edge through
/// the §4.1 hysteresis — without these phases the mode log stays empty and
/// the hysteresis assertion is vacuous.
pub fn generate_sequence(rng: &mut StdRng, pulse_freq_hz: f64) -> Vec<Event> {
    let mut events = Vec::with_capacity(EVENTS_PER_SEQUENCE);
    let mut now_s: f64 = 0.0;
    let warmup = rng.gen_bool(0.5);
    if warmup {
        // One full FFT window (500 samples) plus slack to cross the verdict.
        let ticks = rng.gen_range(520usize..650);
        push_coherent_reports(&mut events, &mut now_s, ticks, pulse_freq_hz, 0.2);
    }
    for _ in 0..EVENTS_PER_SEQUENCE {
        // Mostly 10 ms CCP ticks, sometimes compressed to nothing,
        // sometimes a multi-second stall.
        now_s += match rng.gen_range(0u32..10) {
            0 => 0.0,
            1..=7 => 0.01,
            8 => rng.gen::<f64>() * 0.1,
            _ => rng.gen::<f64>() * 3.0,
        };
        let kind = rng.gen_range(0u32..12);
        match kind {
            // ACKs (the most frequent callback in any host).
            0..=3 => {
                // Reordered: the claimed arrival may lag the report clock.
                let ack_now = (now_s - rng.gen::<f64>() * 0.2).max(0.0);
                // Zero-RTT-adjacent: clock steps make hosts measure 0.
                let rtt_s = match rng.gen_range(0u32..5) {
                    0 => 0.0,
                    1 => 1e-9,
                    _ => 0.01 + rng.gen::<f64>() * 0.2,
                };
                let newly_acked_packets = rng.gen_range(0u64..4);
                events.push(Event::Ack(AckEvent {
                    now: Time::from_secs_f64(ack_now),
                    newly_acked_packets,
                    // Zero-byte ACKs: pure-SACK or window-update segments.
                    newly_acked_bytes: newly_acked_packets * rng.gen_range(0u64..1501),
                    rtt: Time::from_secs_f64(rtt_s),
                    min_rtt: Time::from_secs_f64(rtt_s.min(0.05)),
                    in_flight_packets: rng.gen_range(0u64..10_000),
                    mss: 1500,
                }));
                // CE on a zero-byte ACK: a pure window update whose echo
                // still carries the mark bit.
                if newly_acked_packets == 0 && rng.gen_bool(0.5) {
                    events.push(Event::EcnCe(Time::from_secs_f64(now_s), 0));
                }
            }
            4 => {
                events.push(Event::Loss(LossEvent {
                    now: Time::from_secs_f64(now_s),
                    // Loss storms: a whole flight gone in one callback.
                    lost_packets: rng.gen_range(0u64..2_000),
                    in_flight_packets: rng.gen_range(0u64..10_000),
                }));
            }
            5 => {
                events.push(Event::Rto(Time::from_secs_f64(now_s)));
                // CE interleaved with the timeout: marks that were in
                // flight when the RTO fired arrive right after it.
                if rng.gen_bool(0.5) {
                    events.push(Event::EcnCe(Time::from_secs_f64(now_s), 1500));
                }
            }
            6 => {
                // CE storm: a whole flight's worth of marked ACK echoes
                // compressed into one burst, with degenerate byte counts.
                for _ in 0..rng.gen_range(1usize..200) {
                    let marked_bytes = match rng.gen_range(0u32..4) {
                        0 => 0,
                        1 => rng.gen_range(0u64..10),
                        _ => 1500,
                    };
                    events.push(Event::EcnCe(Time::from_secs_f64(now_s), marked_bytes));
                }
            }
            // Reports: the estimator/detector path.
            _ => {
                let scale = match rng.gen_range(0u32..6) {
                    0 => 0.0,                    // dead interval
                    1 => 1e-6,                   // near-zero rates
                    2 => 1e4,                    // 1000× the link rate
                    _ => rng.gen::<f64>() * 2.0, // sane-ish
                };
                let send = MU * scale * rng.gen::<f64>();
                let recv = MU * scale * rng.gen::<f64>();
                let rtt_s = match rng.gen_range(0u32..5) {
                    0 => 0.0,
                    _ => 0.01 + rng.gen::<f64>() * 0.3,
                };
                events.push(Event::Report(Report {
                    now_s,
                    send_rate_bps: send,
                    recv_rate_bps: recv,
                    acked_bytes: rng.gen_range(0u64..100_000),
                    lost_packets: if rng.gen_bool(0.2) {
                        rng.gen_range(0u64..100)
                    } else {
                        0
                    },
                    rtt_s,
                    min_rtt_s: rtt_s.min(0.05),
                    window_acks: rng.gen_range(0usize..200),
                    // Sometimes-marked reports drive the mark-rate
                    // cross-validation path under the same chaos.
                    marked_packets: if rng.gen_bool(0.3) {
                        rng.gen_range(0u64..50)
                    } else {
                        0
                    },
                    marked_bytes: rng.gen_range(0u64..75_000),
                }));
            }
        }
    }
    if warmup && rng.gen_bool(0.5) {
        // Quiet tail: > one FFT window of inelastic reports, so a controller
        // still in competitive mode must take the hysteresis-gated exit.
        let ticks = rng.gen_range(520usize..600);
        push_coherent_reports(&mut events, &mut now_s, ticks, pulse_freq_hz, 0.0);
    }
    events
}
