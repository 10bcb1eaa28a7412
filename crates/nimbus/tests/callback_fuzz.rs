//! Adversarial host-callback fuzzing for the Nimbus controller.
//!
//! `nimbus-core` is now embeddable: any host — not just the in-repo
//! simulator — may drive [`NimbusController`] through the
//! [`CongestionControl`] callbacks.  A real host delivers ACKs out of order,
//! compresses them into bursts, reports zero-byte cumulative-ACK advances,
//! measures nonsense RTTs during clock steps, and sends loss/timeout events
//! at the worst possible moments.  The simulator never does any of that, so
//! this harness generates the abuse synthetically:
//!
//! * every µ strategy × ẑ-filter combination (3 × 3 = 9 combos), plus the
//!   bare DCTCP controller (the CCA most exposed to CE abuse);
//! * ≥ 256 randomized callback sequences per combo, mixing reordered and
//!   timestamp-compressed ACKs, zero-byte ACKs, zero/near-zero RTTs,
//!   zero-rate and extreme-rate reports, loss storms and RTO events, CE-echo
//!   storms, CE on zero-byte ACKs, and CE back-to-back with RTOs;
//! * after **every** callback the controller must report a finite, positive
//!   cwnd and a finite, positive pacing rate (when one is given);
//! * after every sequence the mode log must respect the §4.1 asymmetric
//!   hysteresis: a Competitive→Delay switch may happen no earlier than
//!   `fft_duration_s` after the preceding Delay→Competitive switch (the
//!   detector holds competitive mode for at least one full FFT window after
//!   the last elastic verdict).
//!
//! Everything is seeded — a failure reproduces by rerunning the test.

mod corpus;

use corpus::{generate_sequence, mu_configs, z_filters, Event, MU};
use nimbus_core::cc::{CongestionControl, CongestionEvent};
use nimbus_core::{Mode, MuEstimatorConfig, NimbusConfig, NimbusController, ZFilterConfig};
use nimbus_core_types::Time;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEQUENCES_PER_COMBO: usize = 256;

/// The invariant checked after every single callback.
fn assert_sane(ctl: &dyn CongestionControl, now: Time, combo: &str, seq: usize, step: usize) {
    let cwnd = ctl.cwnd_packets();
    assert!(
        cwnd.is_finite() && cwnd > 0.0,
        "[{combo} seq {seq} step {step}] cwnd {cwnd} is not finite-positive"
    );
    if let Some(rate) = ctl.pacing_rate_bps(now) {
        assert!(
            rate.is_finite() && rate > 0.0,
            "[{combo} seq {seq} step {step}] pacing rate {rate} is not finite-positive"
        );
    }
}

/// §4.1 asymmetric hysteresis over the mode log: Competitive→Delay no
/// earlier than `fft_duration_s` after the preceding Delay→Competitive.
fn assert_hysteresis(ctl: &NimbusController, fft_duration_s: f64, combo: &str, seq: usize) {
    let log = ctl.mode_log();
    for pair in log.windows(2) {
        let ((t_enter, mode_enter), (t_exit, mode_exit)) = (pair[0], pair[1]);
        if mode_enter == Mode::Competitive && mode_exit == Mode::Delay {
            assert!(
                t_exit - t_enter >= fft_duration_s - 1e-9,
                "[{combo} seq {seq}] mode flap: entered competitive at {t_enter:.3}s, \
                 back to delay at {t_exit:.3}s — under the {fft_duration_s}s hysteresis window"
            );
        }
    }
}

/// Fuzz every sequence of one (µ strategy, ẑ filter) combo; returns how many
/// sequences actually exercised a mode switch, so the caller can assert the
/// hysteresis check is not vacuous.
fn fuzz_combo(mu_label: &str, mu: &MuEstimatorConfig, z_label: &str, zf: &ZFilterConfig) -> usize {
    let combo = format!("mu={mu_label},zfilter={z_label}");
    let mut switched = 0;
    for seq in 0..SEQUENCES_PER_COMBO {
        // A distinct, reproducible stream per (combo, sequence).
        let seed = (mu_label.len() as u64) << 32 ^ (z_label.len() as u64) << 16 ^ seq as u64;
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut cfg = NimbusConfig::default_for_link(MU);
        cfg.mu = *mu;
        cfg.z_filter = *zf;
        cfg.seed = seq as u64 + 1;
        let fft_duration_s = cfg.elasticity.fft_duration_s;
        let pulse_freq_hz = cfg.elasticity.pulse_freq_hz;
        let mut ctl = NimbusController::new(cfg);
        let mut last_now = Time::ZERO;
        for (step, event) in generate_sequence(&mut rng, pulse_freq_hz)
            .into_iter()
            .enumerate()
        {
            match event {
                Event::Ack(ack) => {
                    last_now = last_now.max(ack.now);
                    ctl.on_packet_acked(&ack);
                }
                Event::Loss(loss) => {
                    last_now = last_now.max(loss.now);
                    ctl.on_packets_lost(&loss);
                }
                Event::Rto(now) => {
                    last_now = last_now.max(now);
                    ctl.on_congestion_event(&CongestionEvent::Rto { now });
                }
                Event::EcnCe(now, marked_bytes) => {
                    last_now = last_now.max(now);
                    ctl.on_congestion_event(&CongestionEvent::EcnCe { now, marked_bytes });
                }
                Event::Report(report) => {
                    last_now = last_now.max(Time::from_secs_f64(report.now_s));
                    ctl.on_report(&report);
                }
            }
            assert_sane(&ctl, last_now, &combo, seq, step);
        }
        assert_hysteresis(&ctl, fft_duration_s, &combo, seq);
        if ctl.mode_log().len() > 1 {
            switched += 1;
        }
    }
    switched
}

// One test per µ strategy so the nine combos run on three threads and a
// failure names its strategy in the test name, not just the panic message.

#[test]
fn fuzz_callbacks_configured_mu() {
    let (label, mu) = &mu_configs()[0];
    let mut switched = 0;
    for (z_label, zf) in &z_filters() {
        switched += fuzz_combo(label, mu, z_label, zf);
    }
    // The warmup phase must actually drive mode switches somewhere in this
    // strategy's combos, or the hysteresis assertion above checked nothing.
    assert!(switched > 0, "mu={label}: no sequence ever switched mode");
}

#[test]
fn fuzz_callbacks_learned_mu() {
    let (label, mu) = &mu_configs()[1];
    let mut switched = 0;
    for (z_label, zf) in &z_filters() {
        switched += fuzz_combo(label, mu, z_label, zf);
    }
    // The warmup phase must actually drive mode switches somewhere in this
    // strategy's combos, or the hysteresis assertion above checked nothing.
    assert!(switched > 0, "mu={label}: no sequence ever switched mode");
}

#[test]
fn fuzz_callbacks_probing_mu() {
    let (label, mu) = &mu_configs()[2];
    let mut switched = 0;
    for (z_label, zf) in &z_filters() {
        switched += fuzz_combo(label, mu, z_label, zf);
    }
    // The warmup phase must actually drive mode switches somewhere in this
    // strategy's combos, or the hysteresis assertion above checked nothing.
    assert!(switched > 0, "mu={label}: no sequence ever switched mode");
}

#[test]
fn fuzz_callbacks_dctcp() {
    use nimbus_core::cc::dctcp::Dctcp;
    for seq in 0..SEQUENCES_PER_COMBO {
        let mut rng = StdRng::seed_from_u64((seq as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut cc = Dctcp::new();
        let mut last_now = Time::ZERO;
        for (step, event) in generate_sequence(&mut rng, 5.0).into_iter().enumerate() {
            match event {
                Event::Ack(ack) => {
                    last_now = last_now.max(ack.now);
                    cc.on_packet_acked(&ack);
                }
                Event::Loss(loss) => {
                    last_now = last_now.max(loss.now);
                    cc.on_packets_lost(&loss);
                }
                Event::Rto(now) => {
                    last_now = last_now.max(now);
                    cc.on_congestion_event(&CongestionEvent::Rto { now });
                }
                Event::EcnCe(now, marked_bytes) => {
                    last_now = last_now.max(now);
                    cc.on_congestion_event(&CongestionEvent::EcnCe { now, marked_bytes });
                }
                Event::Report(report) => {
                    last_now = last_now.max(Time::from_secs_f64(report.now_s));
                    cc.on_report(&report);
                }
            }
            assert_sane(&cc, last_now, "dctcp", seq, step);
            let alpha = cc.alpha();
            assert!(
                (0.0..=1.0).contains(&alpha),
                "[dctcp seq {seq} step {step}] alpha {alpha} left [0, 1]"
            );
        }
    }
}
