//! Property tests for the elasticity detector: across random pulse
//! frequencies, a ẑ series that oscillates *at* the pulse frequency (cross
//! traffic reacting to the pulses) must be classified elastic, and white
//! noise (non-reacting cross traffic) must not.

use nimbus_core::{ElasticityConfig, ElasticityDetector};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn config_with_pulse(f_p: f64) -> ElasticityConfig {
    ElasticityConfig {
        pulse_freq_hz: f_p,
        ..ElasticityConfig::default()
    }
}

/// ẑ = base + A·sin(2π f t + φ) + noise, sampled at the detector's rate for
/// one full window.
fn sinusoid_plus_noise(
    cfg: &ElasticityConfig,
    freq_hz: f64,
    amplitude: f64,
    phase: f64,
    noise_amp: f64,
    seed: u64,
) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let dt = 1.0 / cfg.sample_rate_hz();
    (0..cfg.window_samples())
        .map(|i| {
            let t = i as f64 * dt;
            let osc = amplitude * (2.0 * std::f64::consts::PI * freq_hz * t + phase).sin();
            let noise = noise_amp * (rng.gen::<f64>() - 0.5) * 2.0;
            (48e6 + osc + noise).max(0.0)
        })
        .collect()
}

proptest! {
    #[test]
    fn pure_sinusoid_at_fp_is_elastic_for_any_pulse_frequency(
        f_p in 1.5f64..10.0,
        phase in 0.0f64..std::f64::consts::TAU,
        seed in 0u64..1_000_000,
    ) {
        let cfg = config_with_pulse(f_p);
        let mut det = ElasticityDetector::new(cfg.clone());
        // 8 Mbit/s oscillation against 2 Mbit/s of noise.
        let z = sinusoid_plus_noise(&cfg, f_p, 8e6, phase, 2e6, seed);
        let v = det.evaluate(5.0, &z).expect("full window");
        prop_assert!(v.elastic, "f_p={f_p} phase={phase} seed={seed}: eta={}", v.eta);
    }

    #[test]
    fn white_noise_is_inelastic_for_any_pulse_frequency(
        f_p in 1.5f64..10.0,
        seed in 0u64..1_000_000,
    ) {
        let cfg = config_with_pulse(f_p);
        let mut det = ElasticityDetector::new(cfg.clone());
        // Noise only: no component at f_p beyond chance.
        let z = sinusoid_plus_noise(&cfg, f_p, 0.0, 0.0, 6e6, seed);
        let v = det.evaluate(5.0, &z).expect("full window");
        prop_assert!(!v.elastic, "f_p={f_p} seed={seed}: eta={}", v.eta);
    }

    #[test]
    fn oscillation_away_from_fp_is_not_mistaken_for_elasticity(
        f_p in 2.0f64..5.0,
        offset_factor in 1.3f64..1.9,
        seed in 0u64..1_000_000,
    ) {
        // A strong oscillation inside the comparison band (f_p, 2 f_p) —
        // e.g. another flow's unrelated periodicity — must push η *down*,
        // not trigger detection.
        let cfg = config_with_pulse(f_p);
        let mut det = ElasticityDetector::new(cfg.clone());
        let z = sinusoid_plus_noise(&cfg, f_p * offset_factor, 8e6, 0.0, 2e6, seed);
        let v = det.evaluate(5.0, &z).expect("full window");
        prop_assert!(!v.elastic, "f_p={f_p} offset={offset_factor} seed={seed}: eta={}", v.eta);
    }
}
