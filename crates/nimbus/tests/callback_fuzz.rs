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
//! * every µ strategy × ẑ-filter combination (4 × 3 = 12 combos), every
//!   non-default competitive × delay scheme pair (2 × 2 = 4 combos), every
//!   µ strategy with pulser/watcher coordination on (4 combos: elections,
//!   step-downs and watchers following a pulser all happen), plus the bare
//!   DCTCP controller (the CCA most exposed to CE abuse);
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
//!   the last elastic verdict);
//! * per combo, one FNV-1a hash of `(pacing rate, cwnd, mode, µ̂)` after
//!   every callback must equal its pinned value.  Loss storms drive the
//!   loss floor and the pace-cap reset, and a chaotic µ̂ spread toggles
//!   probe quiescing on and off: a 1% shift of the quiesce threshold, which
//!   no simulated fingerprint notices, fails here;
//! * every controller that answers `reads_reports() == false` — and so is
//!   never handed a report by the sender — must produce bit-identical
//!   `(cwnd, pacing rate)` whether or not the corpus's reports reach it.
//!
//! Everything is seeded — a failure reproduces by rerunning the test.

mod corpus;

use corpus::{config, deliver, generate_sequence, mu_configs, z_filters, Event, MU};
use nimbus_core::cc::{CcKind, CongestionControl, PathInfo};
use nimbus_core::{
    BasicDelay, DelayScheme, Mode, MultiflowConfig, NimbusConfig, NimbusController, NimbusSpec,
    Role, TcpScheme,
};
use nimbus_core_types::Time;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEQUENCES_PER_COMBO: usize = 256;

/// `(µ strategy, ẑ filter, hash)`: the FNV-1a hash of the controller's
/// `(pacing rate, cwnd, mode, µ̂)` bits after every callback of every
/// sequence of the combo, captured on the trait-object estimator that the
/// one concrete estimator type replaced.
#[rustfmt::skip]
const PINNED: &[(&str, &str, u64)] = &[
    ("configured", "raw", 0x3bee6422448841b6),
    ("configured", "notch", 0x852d8cd9c8594c22),
    ("configured", "adaptive", 0x89c3d2f65ba250fd),
    ("learned", "raw", 0xc277127d29dcb8f9),
    ("learned", "notch", 0x9d36bf389a23628b),
    ("learned", "adaptive", 0xfa25935fee60d1a1),
    ("probing", "raw", 0xbb9cc4c26c3f510e),
    ("probing", "notch", 0x75ff5342917c3b00),
    ("probing", "adaptive", 0xa3ef7166fc1adf84),
    ("quiesced", "raw", 0x1da0bf7f0cdab079),
    ("quiesced", "notch", 0x075e29876f8d401b),
    ("quiesced", "adaptive", 0xec19121a104535a4),
];

/// `(competitive scheme, delay scheme, hash)` over the same corpus with a
/// configured µ and raw ẑ, captured while the scheme pair was still set
/// through `NimbusConfig`'s own fields, before `NimbusSpec` became the
/// configuration.
#[rustfmt::skip]
const PINNED_SCHEMES: &[(&str, &str, u64)] = &[
    ("reno", "copa", 0xdd71e8d755cf5e7f),
    ("reno", "vegas", 0xbefa925548fc3aa9),
    ("dctcp", "copa", 0x39cf484255d15715),
    ("dctcp", "vegas", 0x0f20a6673ff4dfa0),
];

/// `(µ strategy, "multiflow", hash)` over the same corpus with raw ẑ and
/// pulser/watcher coordination enabled, captured while the roles still
/// lived in their own `Multiflow` type beside the controller.
#[rustfmt::skip]
const PINNED_MULTIFLOW: &[(&str, &str, u64)] = &[
    ("configured", "multiflow", 0xbe9c3c2d6ce815b2),
    ("learned", "multiflow", 0xeedec9338b085c19),
    ("probing", "multiflow", 0x9687ea57a8c68a6a),
    ("quiesced", "multiflow", 0xa9c13fc3fdaf02ea),
];

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 = (self.0 ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

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

/// What fuzzing one combo saw: how many sequences switched mode (or the
/// hysteresis assertion checked nothing), the pulser/watcher events a
/// coordinated combo went through, and the combo's output hash.
#[derive(Default)]
struct Tally {
    switched: usize,
    /// Watcher → pulser transitions.
    elections: usize,
    /// Pulser → watcher transitions.
    step_downs: usize,
    /// Sequences in which a watcher followed a pulser into competitive mode:
    /// it switched there with no CE mark reported in the FFT window before,
    /// so mark-rate cross-validation cannot have done it.
    followed: usize,
    hash: u64,
}

/// Fuzz every sequence of one combo (labelled by its two varied axes).
fn fuzz_combo(labels: (&str, &str), spec: NimbusSpec, multiflow: &MultiflowConfig) -> Tally {
    let combo = format!("{}/{}", labels.0, labels.1);
    let mut tally = Tally::default();
    let mut hash = Fnv(0xcbf2_9ce4_8422_2325);
    for seq in 0..SEQUENCES_PER_COMBO {
        // A distinct, reproducible stream per (combo, sequence).
        let seed = (labels.0.len() as u64) << 32 ^ (labels.1.len() as u64) << 16 ^ seq as u64;
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let cfg = config(spec, seq as u64 + 1).with_multiflow(multiflow.clone());
        let fft_duration_s = cfg.elasticity.fft_duration_s;
        let pulse_freq_hz = cfg.elasticity.pulse_freq_hz;
        let mut ctl = NimbusController::new(cfg);
        let mut now = Time::ZERO;
        let (mut followed, mut last_mark_s) = (false, f64::NEG_INFINITY);
        for (step, event) in generate_sequence(&mut rng, pulse_freq_hz)
            .iter()
            .enumerate()
        {
            let (role, mode) = (ctl.role(), ctl.mode());
            // Only a report switches the mode; did its mark window hold a mark?
            let mut unmarked = false;
            if let Event::Report(report) = event {
                if report.marked_packets > 0 {
                    last_mark_s = report.now_s;
                }
                unmarked = report.now_s - last_mark_s > fft_duration_s;
            }
            deliver(&mut ctl, event, &mut now);
            assert_sane(&ctl, now, &combo, seq, step);
            hash.word(ctl.pacing_rate_bps(now).map_or(u64::MAX, f64::to_bits));
            hash.word(ctl.cwnd_packets().to_bits());
            hash.word(ctl.mode() as u64);
            hash.word(ctl.mu_bps().to_bits());
            match (role, ctl.role()) {
                (Role::Watcher, Role::Pulser) => tally.elections += 1,
                (Role::Pulser, Role::Watcher) => tally.step_downs += 1,
                (Role::Watcher, Role::Watcher) => {
                    followed |= unmarked && mode == Mode::Delay && ctl.mode() == Mode::Competitive;
                }
                (Role::Pulser, Role::Pulser) => {}
            }
        }
        assert_hysteresis(&ctl, fft_duration_s, &combo, seq);
        tally.switched += (ctl.mode_log().len() > 1) as usize;
        tally.followed += followed as usize;
    }
    tally.hash = hash.0;
    tally
}

/// Fuzz every `(labels, spec)` combo: some sequence must switch mode (or
/// the hysteresis assertion checked nothing), and each combo's hash must be
/// its row of `pinned`.  Returns each combo's tally.
fn fuzz_pinned(
    combos: Vec<((&str, &str), NimbusSpec)>,
    multiflow: &MultiflowConfig,
    pinned: &[(&str, &str, u64)],
) -> Vec<Tally> {
    let mut moved = Vec::new();
    let mut tallies = Vec::new();
    for ((a, b), spec) in combos {
        let tally = fuzz_combo((a, b), spec, multiflow);
        if !pinned.contains(&(a, b, tally.hash)) {
            moved.push(format!("    (\"{a}\", \"{b}\", {:#018x}),", tally.hash));
        }
        tallies.push(tally);
    }
    assert!(
        tallies.iter().any(|t| t.switched > 0),
        "no sequence ever switched mode"
    );
    assert!(
        moved.is_empty(),
        "controller outputs moved over the corpus; the rows now read\n{}",
        moved.join("\n")
    );
    tallies
}

/// Fuzz one µ strategy under every ẑ filter.
fn fuzz_strategy(index: usize) {
    let (label, mu) = mu_configs()[index];
    let combos = z_filters()
        .into_iter()
        .map(|(z_label, zfilter)| {
            let spec = NimbusSpec {
                mu,
                zfilter,
                ..NimbusSpec::default()
            };
            ((label, z_label), spec)
        })
        .collect();
    fuzz_pinned(combos, &MultiflowConfig::default(), PINNED);
}

// One test per µ strategy so the combos run on separate threads and a
// failure names its strategy in the test name, not just the panic message.

#[test]
fn fuzz_callbacks_configured_mu() {
    fuzz_strategy(0);
}

#[test]
fn fuzz_callbacks_learned_mu() {
    fuzz_strategy(1);
}

#[test]
fn fuzz_callbacks_probing_mu() {
    fuzz_strategy(2);
}

#[test]
fn fuzz_callbacks_quiesced_probing_mu() {
    fuzz_strategy(3);
}

#[test]
fn fuzz_callbacks_inner_schemes() {
    let mut combos = Vec::new();
    for (c_label, competitive) in [("reno", TcpScheme::NewReno), ("dctcp", TcpScheme::Dctcp)] {
        for (d_label, delay) in [
            ("copa", DelayScheme::CopaDefault),
            ("vegas", DelayScheme::Vegas),
        ] {
            let spec = NimbusSpec {
                competitive,
                delay,
                ..NimbusSpec::default()
            };
            combos.push(((c_label, d_label), spec));
        }
    }
    fuzz_pinned(combos, &MultiflowConfig::default(), PINNED_SCHEMES);
}

/// Every µ strategy with pulser/watcher coordination: the corpus's coherent
/// phases make watchers see a pulser's pulses in their receive rate, its
/// chaos elects pulsers and makes them step down, and each of the three
/// must happen or the rows pin a protocol that never ran.
#[test]
fn fuzz_callbacks_multiflow() {
    let combos = mu_configs()
        .into_iter()
        .map(|(label, mu)| {
            let spec = NimbusSpec {
                mu,
                ..NimbusSpec::default()
            };
            ((label, "multiflow"), spec)
        })
        .collect();
    let tallies = fuzz_pinned(combos, &MultiflowConfig::enabled(), PINNED_MULTIFLOW);
    for ((label, _), tally) in mu_configs().iter().zip(&tallies) {
        let Tally {
            elections,
            step_downs,
            followed,
            ..
        } = *tally;
        assert!(
            elections > 0 && step_downs > 0 && followed > 0,
            "{label}: {elections} elections, {step_downs} step-downs, \
             {followed} sequences with a watcher following a competitive pulser"
        );
    }
}

#[test]
fn fuzz_callbacks_dctcp() {
    use nimbus_core::cc::dctcp::Dctcp;
    for seq in 0..SEQUENCES_PER_COMBO {
        let mut rng = StdRng::seed_from_u64((seq as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut cc = Dctcp::new();
        let mut now = Time::ZERO;
        for (step, event) in generate_sequence(&mut rng, 5.0).iter().enumerate() {
            deliver(&mut cc, event, &mut now);
            assert_sane(&cc, now, "dctcp", seq, step);
            let alpha = cc.alpha();
            assert!(
                (0.0..=1.0).contains(&alpha),
                "[dctcp seq {seq} step {step}] alpha {alpha} left [0, 1]"
            );
        }
    }
}

/// `NimbusController` memoizes its window and pace between callbacks.  A
/// controller polled many times per step — at the same `now` over and over,
/// at later instants, and back at `now` again, the way a paced sender polls
/// — must give bit for bit what a twin polled once per step gives.
#[test]
fn repeated_polls_match_one_poll_per_step() {
    const SEQUENCES: usize = 64;
    let offsets = [
        Time::ZERO,
        Time::from_nanos(1),
        Time::from_micros(120),
        Time::from_millis(7),
    ];
    let bits = |cwnd: f64, pace: Option<f64>| (cwnd.to_bits(), pace.map(f64::to_bits));
    for (mu_label, mu) in &mu_configs() {
        for (z_label, zf) in &z_filters() {
            for seq in 0..SEQUENCES {
                let seed = (seq as u64) << 8 ^ (mu_label.len() as u64) << 4 ^ z_label.len() as u64;
                let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let spec = NimbusSpec {
                    mu: *mu,
                    zfilter: *zf,
                    ..NimbusSpec::default()
                };
                let cfg = config(spec, seq as u64 + 1);
                let pulse_freq_hz = cfg.elasticity.pulse_freq_hz;
                let mut polled = NimbusController::new(cfg.clone());
                let mut once = NimbusController::new(cfg);
                let (mut now, mut twin_now) = (Time::ZERO, Time::ZERO);
                for (step, event) in generate_sequence(&mut rng, pulse_freq_hz)
                    .iter()
                    .enumerate()
                {
                    deliver(&mut polled, event, &mut now);
                    deliver(&mut once, event, &mut twin_now);
                    let probe = now + offsets[step % offsets.len()];
                    let want = bits(once.cwnd_packets(), once.pacing_rate_bps(probe));
                    for i in [0, 0, 0, 1, 2, 2, 3, 0, 0, 3] {
                        let at = now + offsets[i];
                        let got = bits(polled.cwnd_packets(), polled.pacing_rate_bps(at));
                        if at == probe {
                            assert_eq!(
                                got, want,
                                "[mu={mu_label},zfilter={z_label} seq {seq} step {step}] \
                                 polled at {at} after {event:?}"
                            );
                        } else {
                            assert_eq!(got.0, want.0, "cwnd at step {step}");
                        }
                    }
                }
            }
        }
    }
}

/// Every scheme [`CcKind::build`] offers.
const KINDS: [CcKind; 10] = [
    CcKind::NewReno,
    CcKind::Cubic,
    CcKind::Vegas,
    CcKind::Copa,
    CcKind::Bbr,
    CcKind::Vivace,
    CcKind::Compound,
    CcKind::Dctcp,
    CcKind::ConstantRate(24e6),
    CcKind::Unlimited,
];

/// A controller that says it does not read reports must not depend on
/// them: the sender builds no reports for it, so driving one copy with the
/// corpus and a twin with the same corpus minus its reports must give the
/// same `(cwnd, pacing rate)` bits after every callback.
#[test]
fn controllers_that_skip_reports_ignore_them() {
    let path = PathInfo::new(1500);
    let mut checked = 0;
    for kind in KINDS {
        let mut with_reports = kind.build(&path);
        let mut without = kind.build(&path);
        if with_reports.reads_reports() {
            continue;
        }
        checked += 1;
        for seq in 0..SEQUENCES_PER_COMBO {
            let mut rng = StdRng::seed_from_u64((seq as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let (mut now, mut twin_now) = (Time::ZERO, Time::ZERO);
            for (step, event) in generate_sequence(&mut rng, 5.0).iter().enumerate() {
                deliver(with_reports.as_mut(), event, &mut now);
                if !matches!(event, Event::Report(_)) {
                    deliver(without.as_mut(), event, &mut twin_now);
                }
                let outputs = |cc: &dyn CongestionControl| {
                    let pacing = cc.pacing_rate_bps(now).map_or(u64::MAX, f64::to_bits);
                    (cc.cwnd_packets().to_bits(), pacing)
                };
                assert_eq!(
                    outputs(with_reports.as_ref()),
                    outputs(without.as_ref()),
                    "[{kind:?} seq {seq} step {step}] reads_reports() is false, \
                     but a report moved (cwnd, pacing)"
                );
            }
        }
    }
    assert_eq!(checked, 8, "the eight report-blind schemes");
    // The controllers whose `on_report` does the work must keep receiving
    // reports.
    for kind in [CcKind::Bbr, CcKind::Vivace] {
        assert!(kind.build(&path).reads_reports(), "{kind:?}");
    }
    assert!(BasicDelay::new(MU, 1500).reads_reports());
    assert!(NimbusController::new(NimbusConfig::default_for_link(MU)).reads_reports());
}
