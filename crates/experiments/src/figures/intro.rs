//! Figures 1, 3–7: the motivating example and the detector's building blocks.

use super::{after, fig1_cross, pairs, scenario, window, window_mean};
use crate::output::ExperimentResult;
use crate::runner::run_scheme_vs_cross;
use crate::scheme::SchemeSpec;
use nimbus_core::{CrossTrafficEstimator, ElasticityConfig, ElasticityDetector};
use nimbus_dsp::{AsymmetricPulse, PulseGenerator, Spectrum};

/// Fig. 1: Cubic vs a delay-controlling scheme vs Nimbus on a 48 Mbit/s link
/// with 60 s of elastic then 60 s of inelastic cross traffic.
pub fn fig01(quick: bool) -> ExperimentResult {
    let scale = if quick { 0.25 } else { 1.0 };
    let mut result = ExperimentResult::new(
        "fig01",
        "Cubic vs delay-control vs Nimbus under elastic then inelastic cross traffic (48 Mbit/s)",
        quick,
    );
    let duration = 180.0 * scale;
    for (key, scheme) in [
        ("cubic", SchemeSpec::cubic()),
        ("delay_control", SchemeSpec::nimbus_delay_only()),
        ("nimbus", SchemeSpec::nimbus()),
    ] {
        let cross = fig1_cross(scale, 11);
        let spec = scenario(&format!("48M vs {cross} seed=7 dur={duration}s"));
        let out = run_scheme_vs_cross(&spec, scheme, Vec::new(), 2.0);
        let m = &out.flows[0];
        // The elastic phase is 30–90 (scaled), the inelastic phase 90–150.
        for (phase, lo, hi) in [("elastic", 35.0, 88.0), ("inelastic", 95.0, 148.0)] {
            let w = lo * scale..=hi * scale;
            result.row(
                &format!("{key}_{phase}_throughput_mbps"),
                window_mean(&m.throughput_series, w.clone()),
            );
            result.row(
                &format!("{key}_{phase}_queue_delay_ms"),
                window_mean(&m.queue_delay_series, w),
            );
        }
        result.add_series(
            &format!("{key}_throughput_mbps"),
            m.throughput_series.clone(),
        );
        result.add_series(
            &format!("{key}_queue_delay_ms"),
            m.queue_delay_series.clone(),
        );
        if scheme == SchemeSpec::nimbus() {
            result.row("nimbus_delay_mode_fraction", m.delay_mode_fraction);
        }
    }
    result
}

/// Fig. 3: the self-inflicted queueing delay of a Cubic flow looks the same
/// whether the cross traffic is elastic or inelastic, so instantaneous delay
/// measurements cannot reveal elasticity.
pub fn fig03(quick: bool) -> ExperimentResult {
    let scale = if quick { 0.25 } else { 1.0 };
    let mut result = ExperimentResult::new(
        "fig03",
        "Self-inflicted delay does not reveal elasticity (Cubic flow, Fig. 1a setup)",
        quick,
    );
    let duration = 180.0 * scale;
    let cross = fig1_cross(scale, 13);
    let spec = scenario(&format!("48M vs {cross} seed=3 dur={duration}s"));
    let out = run_scheme_vs_cross(&spec, SchemeSpec::cubic(), Vec::new(), 2.0);
    let m = &out.flows[0];
    // Self-inflicted delay ≈ total queueing delay × our share of throughput.
    let total_qd: Vec<(f64, f64)> = pairs(&out.recorder.queue_bytes)
        .into_iter()
        .map(|(t, bytes)| (t, bytes * 8.0 / 48e6 * 1000.0))
        .collect();
    let (elastic, inelastic) = (35.0 * scale..=88.0 * scale, 95.0 * scale..=148.0 * scale);
    let qd_elastic = window_mean(&total_qd, elastic.clone());
    let qd_inelastic = window_mean(&total_qd, inelastic.clone());
    let self_elastic = window_mean(&m.throughput_series, elastic) / 48.0 * qd_elastic;
    let self_inelastic = window_mean(&m.throughput_series, inelastic) / 48.0 * qd_inelastic;
    result.row("total_delay_elastic_ms", qd_elastic);
    result.row("total_delay_inelastic_ms", qd_inelastic);
    result.row("self_inflicted_elastic_ms", self_elastic);
    result.row("self_inflicted_inelastic_ms", self_inelastic);
    // The paper's point: the two self-inflicted values are nearly identical.
    result.row(
        "self_inflicted_ratio",
        if self_inelastic > 0.0 {
            self_elastic / self_inelastic
        } else {
            0.0
        },
    );
    result.add_series("total_queue_delay_ms", total_qd);
    result.add_series("own_throughput_mbps", m.throughput_series.clone());
    result
}

/// Run a Nimbus pulser against a single kind of cross traffic and return the
/// cross traffic's rate series (ground truth from the recorder) plus the
/// detector's last η — shared by Figs. 4 and 5.
fn z_series_against(elastic: bool, duration_s: f64, seed: u64) -> (Vec<(f64, f64)>, f64) {
    let cross = if elastic {
        "cubic".to_string()
    } else {
        format!("poisson@48M@seed={}", seed + 1)
    };
    let spec = scenario(&format!("96M vs {cross} seed={seed} dur={duration_s}s"));
    let out = run_scheme_vs_cross(&spec, SchemeSpec::nimbus(), Vec::new(), 2.0);
    let eta = out.flows[0].eta_series.last().map_or(f64::NAN, |&(_, e)| e);
    (pairs(&out.recorder.cross_rate_mbps), eta)
}

/// Fig. 4: the cross traffic's reaction to pulses — elastic traffic reacts,
/// inelastic traffic does not.
pub fn fig04(quick: bool) -> ExperimentResult {
    let duration = if quick { 20.0 } else { 40.0 };
    let mut result = ExperimentResult::new(
        "fig04",
        "Cross-traffic reaction to rate pulses (elastic reacts, inelastic does not)",
        quick,
    );
    let (z_elastic, eta_e) = z_series_against(true, duration, 21);
    let (z_inelastic, eta_i) = z_series_against(false, duration, 22);
    // Quantify the reaction as the standard deviation of z over the last
    // stretch of the run (the pulse-induced oscillation).
    let tail_std = |z: &[(f64, f64)]| nimbus_dsp::stddev(&window(z, after(duration * 0.5)));
    result.row("elastic_z_stddev_mbps", tail_std(&z_elastic));
    result.row("inelastic_z_stddev_mbps", tail_std(&z_inelastic));
    result.row("elastic_eta", eta_e);
    result.row("inelastic_eta", eta_i);
    result.add_series("z_elastic_mbps", z_elastic);
    result.add_series("z_inelastic_mbps", z_inelastic);
    result
}

/// Fig. 5: FFT of the cross-traffic rate — only elastic traffic shows a peak
/// at the pulse frequency.
pub fn fig05(quick: bool) -> ExperimentResult {
    let duration = if quick { 20.0 } else { 40.0 };
    let mut result = ExperimentResult::new(
        "fig05",
        "Cross-traffic FFT: elastic traffic peaks at f_p, inelastic does not",
        quick,
    );
    for (key, elastic, seed) in [("elastic", true, 31), ("inelastic", false, 32)] {
        let (z, eta) = z_series_against(elastic, duration, seed);
        let tail = window(&z, after(duration - 5.0));
        if tail.len() > 16 {
            // Recorder samples every 100 ms → 10 Hz sample rate.
            let spectrum = Spectrum::of_signal(&tail, 10.0, true);
            let series: Vec<(f64, f64)> = (0..spectrum.magnitudes.len())
                .map(|b| (spectrum.frequency_of_bin(b), spectrum.magnitudes[b]))
                .collect();
            result.add_series(&format!("fft_{key}"), series);
            result.row(&format!("{key}_peak_at_5hz"), spectrum.peak_near(5.0, 0.3));
        }
        result.row(&format!("{key}_eta"), eta);
    }
    result
}

/// Fig. 6: CDF of the elasticity metric η as the elastic fraction of the
/// cross traffic varies from 0% to 100%.
pub fn fig06(quick: bool) -> ExperimentResult {
    let duration = if quick { 25.0 } else { 60.0 };
    let mut result = ExperimentResult::new(
        "fig06",
        "CDF of elasticity metric vs elastic fraction of cross traffic",
        quick,
    );
    let fractions = [0.0, 0.25, 0.5, 0.75, 1.0];
    for &frac in &fractions {
        let seed = 41 + (frac * 4.0) as u64;
        let mut cross = Vec::new();
        if frac > 0.0 {
            // The elastic share: a backlogged Cubic flow (it will take what it
            // can; with the inelastic share fixed this approximates the mix).
            cross.push("cubic".to_string());
        }
        if frac < 1.0 {
            // The inelastic share of cross traffic totalling half the link.
            let load = 0.5 * (1.0 - frac);
            cross.push(format!("poisson@{load}@seed={}", seed + 1));
        }
        let cross = cross.join("+");
        let spec = scenario(&format!("96M vs {cross} seed={seed} dur={duration}s"));
        let out = run_scheme_vs_cross(&spec, SchemeSpec::nimbus(), Vec::new(), 2.0);
        let etas = window(&out.flows[0].eta_series, after(6.0));
        let label = format!("{:.0}%", frac * 100.0);
        let cdf = nimbus_dsp::Cdf::from_samples(&etas);
        result.add_series(&format!("eta_cdf_{label}"), cdf.curve(50));
        result.row(&format!("median_eta_{label}"), cdf.median());
    }
    result
}

/// Fig. 7: the asymmetric sinusoidal pulse waveform (analytic).
pub fn fig07() -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "fig07",
        "Asymmetric sinusoidal pulse: +µ/4 half-sine for T/4, −µ/12 half-sine for 3T/4",
        false,
    );
    let mu = 96e6;
    let gen = PulseGenerator::asymmetric(5.0, mu / 4.0);
    let series: Vec<(f64, f64)> = (0..400)
        .map(|i| {
            let t = i as f64 * 0.001;
            (t, gen.offset_at(t) / 1e6)
        })
        .collect();
    result.add_series("pulse_offset_mbps", series);
    result.row("peak_mbps", mu / 4.0 / 1e6);
    result.row("trough_mbps", -(mu / 12.0) / 1e6);
    result.row(
        "mean_offset_mbps",
        AsymmetricPulse.mean_offset(5.0, mu / 4.0) / 1e6,
    );
    result.row("burst_fraction_of_mu_T", gen.burst_bits() / (mu * 0.2));
    result
}

/// Sanity helper used by integration tests: η computed offline on a synthetic
/// reacting/non-reacting ẑ series (keeps the detector usable without a full
/// simulation).
pub fn offline_eta(reacting: bool) -> f64 {
    let cfg = ElasticityConfig::default();
    let det = ElasticityDetector::new(cfg.clone());
    let est = CrossTrafficEstimator::with_known_mu(96e6, 10.0);
    let gen = PulseGenerator::asymmetric(cfg.pulse_freq_hz, 24e6);
    let dt = 1.0 / cfg.sample_rate_hz();
    let n = (6.0 / dt) as usize;
    let series: Vec<f64> = (0..n)
        .map(|i| {
            let t = i as f64 * dt;
            let reaction = if reacting {
                -0.3 * gen.offset_at(t - 0.05)
            } else {
                0.0
            };
            let s = 40e6 + gen.offset_at(t);
            let z = 48e6 + reaction;
            let r = 96e6 * s / (s + z);
            est.estimate(s, r).unwrap_or(0.0)
        })
        .collect();
    det.eta(&series).map(|(eta, _, _)| eta).unwrap_or(0.0)
}
