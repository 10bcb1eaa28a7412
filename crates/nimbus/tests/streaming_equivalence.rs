//! The streaming detector is held to its batch reference.
//!
//! `NimbusController` feeds [`ElasticityDetector::push`] one ẑ sample per
//! report and reads [`ElasticityDetector::evaluate_window`]; no FFT runs.
//! What that path must equal is the path it replaced: collect the stored
//! samples within `fft_duration_s` of the newest, and if there are at least a
//! window's worth, run the batch [`ElasticityDetector::evaluate`] (mean
//! removal + planned FFT) on the last window of them.  At every step where
//! either side yields a verdict this file asserts
//!
//! 1. the same availability (`None` / `Some`),
//! 2. the same `elastic` bit under the same η scale and minimum-peak guard,
//! 3. `|Δpeak|, |Δband| ≤ 1e-9 · scale`, and `|Δη| ≤ 1e-6 · η` whenever the
//!    peak clears the guard and the band carries signal,
//!
//! where `scale` is the largest `|x|` among the last two windows of samples:
//! the streaming accumulators are recomputed from the window at least once
//! per window, so rounding residue can be as old as the previous window's
//! samples and no older.  Below the guard η is a ratio of two rounding
//! residues on *both* paths and differs freely — the guard exists for that.
//! Likewise a noise-free tone leaves only residue in the comparison band
//! (η ≈ 10¹² either way), so the η bound widens to what the magnitude bound
//! implies, `2 · 1e-9 · scale / band`, once that exceeds 1e-6.
//!
//! The vendored proptest does not shrink: every failure message carries the
//! case's label (its generated inputs or seed) and the failing step.

mod corpus;

use corpus::{config, deliver, generate_sequence, mu_configs, z_filters, Event, MU};
use nimbus_core::{ElasticityConfig, ElasticityDetector, NimbusController, NimbusSpec};
use nimbus_core_types::Time;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::f64::consts::TAU;

/// The minimum-peak guard a controller on a 48 Mbit/s link sets: 1 % of µ.
const GUARD_BPS: f64 = 0.01 * MU;
const DT_S: f64 = 0.01;

/// `(η, peak, band, elastic)` of one side at one step.
type Metric = (f64, f64, f64, bool);

/// The batch reference, the way the controller used to run it: a history of
/// `(t_s, x)` samples as the estimator keeps it, filtered to the FFT duration
/// and handed to the batch `eta` whole.
struct Reference {
    detector: ElasticityDetector,
    history: VecDeque<(f64, f64)>,
}

impl Reference {
    fn new(cfg: &ElasticityConfig) -> Self {
        Reference {
            detector: ElasticityDetector::new(cfg.clone()),
            history: VecDeque::new(),
        }
    }

    fn push(&mut self, t_s: f64, x: f64) {
        self.history.push_back((t_s, x));
        // Two windows of history, like the controller's estimator; the
        // second one also feeds `scale`.
        let keep_s = 2.0 * self.detector.config().fft_duration_s;
        while self.history.front().is_some_and(|&(t, _)| t_s - t > keep_s) {
            self.history.pop_front();
        }
    }

    /// The samples within the FFT duration of the newest, oldest first.
    fn series(&self) -> Vec<f64> {
        let Some(&(latest, _)) = self.history.back() else {
            return Vec::new();
        };
        let window_s = self.detector.config().fft_duration_s;
        self.history
            .iter()
            .filter(|(t, _)| latest - t <= window_s)
            .map(|&(_, x)| x)
            .collect()
    }

    /// Largest `|x|` among the last two windows' worth of samples.
    fn scale(&self) -> f64 {
        let two_windows = 2 * self.detector.config().window_samples();
        self.history
            .iter()
            .rev()
            .take(two_windows)
            .fold(0.0_f64, |m, &(_, x)| m.max(x.abs()))
    }
}

/// Assert the three-part contract for one step.
fn assert_equivalent(
    streaming: Option<Metric>,
    reference: Option<Metric>,
    scale: f64,
    guard: f64,
    at: &dyn Fn() -> String,
) {
    let (s, r) = match (streaming, reference) {
        (None, None) => return,
        (Some(s), Some(r)) => (s, r),
        (s, r) => panic!(
            "{}: availability differs: streaming {s:?}, reference {r:?}",
            at()
        ),
    };
    assert_eq!(
        s.3,
        r.3,
        "{}: elastic bit differs: streaming {s:?}, reference {r:?}",
        at()
    );
    let tol = 1e-9 * scale;
    assert!(
        (s.1 - r.1).abs() <= tol && (s.2 - r.2).abs() <= tol,
        "{}: magnitudes differ by more than {tol:e}: streaming {s:?}, reference {r:?}",
        at()
    );
    if r.1 >= guard && s.1 >= guard {
        let rel = (2.0 * tol / r.2.min(s.2)).max(1e-6);
        assert!(
            s.0 == r.0 || (s.0 - r.0).abs() <= rel * r.0,
            "{}: η differs by more than {rel:e}: streaming {s:?}, reference {r:?}",
            at()
        );
    }
}

/// A streaming detector and its reference, fed the same samples and set the
/// same way.
struct Pair {
    streaming: ElasticityDetector,
    reference: Reference,
    step: usize,
    verdicts: usize,
}

impl Pair {
    fn new(cfg: &ElasticityConfig) -> Self {
        let mut pair = Pair {
            streaming: ElasticityDetector::new(cfg.clone()),
            reference: Reference::new(cfg),
            step: 0,
            verdicts: 0,
        };
        pair.streaming.set_min_peak_bps(GUARD_BPS);
        pair.reference.detector.set_min_peak_bps(GUARD_BPS);
        pair
    }

    fn set_pulse_freq(&mut self, f_p: f64) {
        self.streaming.set_pulse_freq(f_p);
        self.reference.detector.set_pulse_freq(f_p);
    }

    /// Feed one sample to both sides without comparing them.
    fn push(&mut self, t_s: f64, x: f64) {
        self.step += 1;
        self.streaming.push(t_s, x);
        self.reference.push(t_s, x);
    }

    /// Compare the two sides' verdicts on the samples fed so far; returns
    /// whether one existed.
    fn check(&mut self, t_s: f64, label: &dyn Fn() -> String) -> bool {
        let streaming = self.streaming.evaluate_window(t_s);
        let series = self.reference.series();
        let reference = self.reference.detector.evaluate(t_s, &series);
        let metric = |v: nimbus_core::DetectorVerdict| (v.eta, v.peak_at_fp, v.band_max, v.elastic);
        let step = self.step;
        assert_equivalent(
            streaming.map(metric),
            reference.map(metric),
            self.reference.scale(),
            GUARD_BPS,
            &|| format!("{} step {step}", label()),
        );
        self.verdicts += streaming.is_some() as usize;
        streaming.is_some()
    }

    fn step(&mut self, t_s: f64, x: f64, label: &dyn Fn() -> String) -> bool {
        self.push(t_s, x);
        self.check(t_s, label)
    }
}

fn config_with_pulse(f_p: f64) -> ElasticityConfig {
    ElasticityConfig {
        pulse_freq_hz: f_p,
        ..ElasticityConfig::default()
    }
}

/// The `detector_properties.rs` families, streamed: ẑ = 48 Mbit/s +
/// `amplitude`·sin(2π·`freq_hz`·t + φ) + uniform noise, clamped at zero.
fn family_sample(
    rng: &mut StdRng,
    t: f64,
    freq_hz: f64,
    amplitude: f64,
    phase: f64,
    noise: f64,
) -> f64 {
    let osc = amplitude * (TAU * freq_hz * t + phase).sin();
    (48e6 + osc + noise * (rng.gen::<f64>() - 0.5) * 2.0).max(0.0)
}

proptest! {
    // Sinusoid at f_p, sinusoid inside the comparison band, white noise —
    // for any pulse frequency, three windows long, compared at every step.
    #[test]
    fn signal_families_stream_like_they_batch(
        f_p in 1.5f64..10.0,
        family in 0u32..3,
        offset_factor in 1.3f64..1.9,
        phase in 0.0f64..TAU,
        seed in 0u64..1_000_000,
    ) {
        let cfg = config_with_pulse(f_p);
        let (freq_hz, amplitude, noise) = match family {
            0 => (f_p, 8e6, 2e6),
            1 => (f_p * offset_factor, 8e6, 2e6),
            _ => (f_p, 0.0, 6e6),
        };
        let label = || format!(
            "f_p={f_p} family={family} offset={offset_factor} phase={phase} seed={seed}"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pair = Pair::new(&cfg);
        for i in 0..3 * cfg.window_samples() {
            let t = i as f64 * DT_S;
            pair.step(t, family_sample(&mut rng, t, freq_hz, amplitude, phase, noise), &label);
        }
        prop_assert!(pair.verdicts > 2 * cfg.window_samples(), "{}: {} verdicts", label(), pair.verdicts);
    }

    // Reports that carry no rates leave gaps: the window must go `None` and
    // come back exactly when the reference's does — on compressed
    // (zero-advance) ticks, on long stalls, and above all on the stall of one
    // missed report, after which the window spans the FFT duration give or
    // take the rounding of its end times.  Hosts stamp reports `k · 10 ms`,
    // where that span is *exactly* the duration most of the time, so even
    // seeds keep to that grid; odd seeds stall by arbitrary amounts.
    #[test]
    fn report_gaps_open_and_close_the_window_together(
        seed in 0u64..1_000_000,
        gap_every in 400u64..3000,
    ) {
        let cfg = ElasticityConfig::default();
        let n = cfg.window_samples();
        let on_grid = seed % 2 == 0;
        let label = || format!("seed={seed} gap_every={gap_every}");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pair = Pair::new(&cfg);
        let (mut tick, mut off_grid_s) = (0u64, 0.0_f64);
        let (mut opened, mut closed, mut was_open) = (0, 0, false);
        for i in 0..10 * n {
            // A clean window and a bit, one long stall, then stalls at random.
            match rng.gen_range(0..gap_every) {
                _ if i <= n + 100 => tick += 1,
                _ if i == n + 101 => tick += rng.gen_range(50..800),
                0 => tick += rng.gen_range(50..800),
                1..=4 => tick += 2,
                5..=12 => {}
                13 if !on_grid => off_grid_s += rng.gen::<f64>() * 0.02,
                _ => tick += 1,
            }
            let t = tick as f64 * DT_S + off_grid_s;
            let x = family_sample(&mut rng, t, 5.0, 6e6, 0.0, 2e6);
            let open = pair.step(t, x, &label);
            opened += (open && !was_open) as usize;
            closed += (!open && was_open) as usize;
            was_open = open;
        }
        prop_assert!(opened >= 1 && closed >= 1, "{}: opened {opened}, closed {closed}", label());
    }

    // f_p moves 5 ↔ 6 Hz on every mode change and is 2 Hz under App. F: the
    // streaming side must pick up bins it never held from the window as it
    // stands, mid-window.
    #[test]
    fn pulse_frequency_switches_mid_window(
        seed in 0u64..1_000_000,
        switch_every in 30usize..700,
    ) {
        let cfg = ElasticityConfig::default();
        let label = || format!("seed={seed} switch_every={switch_every}");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pair = Pair::new(&cfg);
        let mut f_p = cfg.pulse_freq_hz;
        for i in 0..6 * cfg.window_samples() {
            if i > 0 && i % switch_every == 0 {
                f_p = [5.0, 6.0, 2.0][rng.gen_range(0..3)];
                pair.set_pulse_freq(f_p);
            }
            let t = i as f64 * DT_S;
            // The cross traffic answers whichever frequency is being pulsed.
            pair.step(t, family_sample(&mut rng, t, f_p, 6e6, 0.0, 2e6), &label);
        }
    }
}

/// ≈ µ for a second, ≈ 0 for seconds: the slow-start transient, over and
/// over.  Residue of the large samples is what a sliding DFT accumulates, so
/// this is the drift worst case; a million pushes of it must stay inside the
/// same tolerance as the first window.
#[test]
fn slow_start_transients_do_not_drift_over_a_million_pushes() {
    let cfg = ElasticityConfig::default();
    let label = || "transients seed=7".to_string();
    let mut rng = StdRng::seed_from_u64(7);
    let mut pair = Pair::new(&cfg);
    let mut burst_left = 100usize;
    const PUSHES: usize = 1_000_000;
    for i in 0..PUSHES {
        let t = i as f64 * DT_S;
        let x = if burst_left > 0 {
            burst_left -= 1;
            MU * (1.0 - 1e-3 * rng.gen::<f64>())
        } else {
            if rng.gen_range(0..700) == 0 {
                burst_left = rng.gen_range(50..150);
            }
            2e4 * rng.gen::<f64>()
        };
        pair.push(t, x);
        // Every step through the first windows and the last, and in between
        // on a stride coprime to the window so every phase of the recompute
        // cycle is sampled.
        if i < 1_500 || i % 997 == 0 || i >= PUSHES - 1_500 {
            pair.check(t, &label);
        }
    }
    assert!(pair.verdicts > 3_000, "{} verdicts", pair.verdicts);
}

/// A window carrying nothing: all zeros (no cross traffic at all), then a
/// constant (perfectly inelastic), then zeros again.  Both paths must see no
/// spectrum and never call it elastic, and must not trip over 0/0.
#[test]
fn silent_and_constant_windows() {
    let cfg = ElasticityConfig::default();
    let label = || "silent/constant".to_string();
    let mut pair = Pair::new(&cfg);
    let n = cfg.window_samples();
    for i in 0..6 * n {
        let x = if (2 * n..4 * n).contains(&i) {
            24e6
        } else {
            0.0
        };
        pair.step(i as f64 * DT_S, x, &label);
    }
    let verdicts = pair.streaming.verdicts();
    assert!(!verdicts.is_empty());
    assert_eq!(verdicts.elastic(), 0);
    // Once the step edge has left the window there is exactly nothing in it.
    let last = verdicts.last().expect("window is full");
    assert_eq!((last.peak_at_fp, last.band_max), (0.0, 0.0));
}

/// The `callback_fuzz.rs` corpus through a real controller, every µ strategy
/// × ẑ filter: what the controller's detector says after each report must be
/// what the batch reference says of the samples the estimator stored — held
/// through probe epochs, notch-filtered, with the gaps that dead and
/// degenerate reports leave.
#[test]
fn fuzz_corpus_through_a_controller() {
    const SEQUENCES_PER_COMBO: u64 = 40;
    let mut verdicts = 0;
    for (mu_label, mu) in mu_configs() {
        for (z_label, zf) in z_filters() {
            for seq in 0..SEQUENCES_PER_COMBO {
                let seed = (mu_label.len() as u64) << 32 ^ (z_label.len() as u64) << 16 ^ seq;
                let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let spec = NimbusSpec {
                    mu,
                    zfilter: zf,
                    ..NimbusSpec::default()
                };
                let cfg = config(spec, seq + 1);
                let mut reference = Reference::new(&cfg.elasticity);
                let mut ctl = NimbusController::new(cfg);
                let events = generate_sequence(&mut rng, reference.detector.config().pulse_freq_hz);
                let mut now = Time::ZERO;
                for (step, event) in events.iter().enumerate() {
                    deliver(&mut ctl, event, &mut now);
                    let Event::Report(report) = event else {
                        continue;
                    };
                    // A sample was stored iff Eq. 1 had an answer for this
                    // report under the µ̂ the report itself updated.
                    let estimator = ctl.estimator();
                    if estimator
                        .estimate(report.send_rate_bps, report.recv_rate_bps)
                        .is_some()
                    {
                        let stored = estimator.latest_conditioned_z().expect("just stored");
                        reference.push(report.now_s, stored);
                    }
                    let elastic = |(eta, peak, band): (f64, f64, f64)| {
                        (eta, peak, band, eta >= 2.0 && peak >= GUARD_BPS)
                    };
                    let streaming = ctl.detector().eta_of_window().map(elastic);
                    verdicts += streaming.is_some() as usize;
                    assert_equivalent(
                        streaming,
                        reference.detector.eta(&reference.series()).map(elastic),
                        reference.scale(),
                        GUARD_BPS,
                        &|| {
                            format!("mu={mu_label} zfilter={z_label} seq {seq} (seed {seed}) step {step}")
                        },
                    );
                }
            }
        }
    }
    assert!(
        verdicts > 10_000,
        "the corpus only produced {verdicts} verdicts"
    );
}
