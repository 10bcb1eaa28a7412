//! Figures 14, 15, 22–26, Table 1 and the buffer/RTT/AQM robustness sweep (§8.2, Appendices C–F).

use super::{accuracy, after, agreement, elastic_fraction, scenario, window};
use crate::output::ExperimentResult;
use crate::runner::{run_scenario, run_scheme_vs_cross, Monitored, SingleFlowMetrics};
use crate::scheme::SchemeSpec;
use nimbus_transport::CcKind;

/// Classification accuracy of a Nimbus run given the ground truth ("the cross
/// traffic is elastic during the whole steady state" or not): the fraction
/// of detector verdicts from `warmup_s` on that agree.
fn nimbus_accuracy(m: &SingleFlowMetrics, truth_elastic: bool, warmup_s: f64) -> f64 {
    accuracy(&window(&m.eta_series, warmup_s..), truth_elastic)
}

/// Copa's "accuracy": the fraction of queueing-delay samples over
/// `[warmup_s, duration_s]` whose mode reads right, a queue above 25 ms
/// meaning competitive.
fn copa_accuracy(
    m: &SingleFlowMetrics,
    truth_elastic: bool,
    warmup_s: f64,
    duration_s: f64,
) -> f64 {
    let queue = window(&m.queue_delay_series, warmup_s..=duration_s);
    agreement(queue.into_iter().map(|qd| qd > 25.0), truth_elastic)
}

/// Fig. 14: classification accuracy, Nimbus vs Copa.
/// Left: inelastic cross traffic occupying 30–90% of the link.
/// Right: one elastic NewReno competitor with RTT 1–4× the flow's RTT.
pub fn fig14(quick: bool) -> ExperimentResult {
    let duration = if quick { 30.0 } else { 90.0 };
    let mut result = ExperimentResult::new(
        "fig14",
        "Classification accuracy vs Copa: inelastic share sweep and cross-RTT sweep",
        quick,
    );
    let shares: Vec<f64> = if quick {
        vec![0.3, 0.6, 0.9]
    } else {
        vec![0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    };
    let mut nimbus_left = Vec::new();
    let mut copa_left = Vec::new();
    for &share in &shares {
        // Nimbus, then Copa, against CBR at `share` of the link.
        let spec = scenario(&format!("96M vs cbr@{share} seed=14 dur={duration}s"));
        let out = run_scheme_vs_cross(&spec, SchemeSpec::nimbus(), Vec::new(), 6.0);
        let acc = nimbus_accuracy(&out.flows[0], false, 6.0);
        result.row(&format!("nimbus_accuracy_share{:.0}", share * 100.0), acc);
        nimbus_left.push((share, acc));

        let out = run_scheme_vs_cross(&spec, SchemeSpec::copa(), Vec::new(), 6.0);
        let acc = copa_accuracy(&out.flows[0], false, 6.0, duration);
        result.row(&format!("copa_accuracy_share{:.0}", share * 100.0), acc);
        copa_left.push((share, acc));
    }
    result.add_series("nimbus_accuracy_vs_share", nimbus_left);
    result.add_series("copa_accuracy_vs_share", copa_left);

    let ratios: Vec<f64> = if quick {
        vec![1.0, 2.0, 4.0]
    } else {
        vec![1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]
    };
    let mut nimbus_right = Vec::new();
    let mut copa_right = Vec::new();
    for &ratio in &ratios {
        let reno = format!("newreno@rtt={}s", 0.05 * ratio);
        let spec = scenario(&format!("96M vs {reno} seed=15 dur={duration}s"));
        let out = run_scheme_vs_cross(&spec, SchemeSpec::nimbus(), Vec::new(), 8.0);
        let acc = nimbus_accuracy(&out.flows[0], true, 8.0);
        result.row(&format!("nimbus_accuracy_rttx{ratio}"), acc);
        nimbus_right.push((ratio, acc));

        let out = run_scheme_vs_cross(&spec, SchemeSpec::copa(), Vec::new(), 8.0);
        let acc = copa_accuracy(&out.flows[0], true, 8.0, duration);
        result.row(&format!("copa_accuracy_rttx{ratio}"), acc);
        copa_right.push((ratio, acc));
    }
    result.add_series("nimbus_accuracy_vs_rtt_ratio", nimbus_right);
    result.add_series("copa_accuracy_vs_rtt_ratio", copa_right);
    result
}

/// Fig. 15: detection accuracy vs the cross traffic's RTT (0.2×–4× the flow's)
/// for purely elastic, purely inelastic and mixed cross traffic.
pub fn fig15(quick: bool) -> ExperimentResult {
    let duration = if quick { 30.0 } else { 120.0 };
    let mut result = ExperimentResult::new(
        "fig15",
        "Detection accuracy vs cross-traffic RTT (elastic / mix / inelastic)",
        quick,
    );
    let ratios: Vec<f64> = if quick {
        vec![0.2, 1.0, 4.0]
    } else {
        vec![0.2, 0.4, 0.6, 0.8, 1.0, 1.5, 2.0, 4.0]
    };
    for &ratio in &ratios {
        let rtt = 0.05 * ratio;
        let seed = 150 + (ratio * 10.0) as u64;
        let reno = format!("newreno@rtt={rtt}s");
        let poisson = |rate| format!("poisson@{rate}@rtt={rtt}s,seed={seed}");
        for (kind, truth_elastic) in [("elastic", true), ("mix", true), ("inelastic", false)] {
            let cross = match kind {
                "elastic" => reno.clone(),
                "inelastic" => poisson("48M"),
                _ => format!("{reno}+{}", poisson("24M")),
            };
            let spec = scenario(&format!("96M vs {cross} seed={seed} dur={duration}s"));
            let out = run_scheme_vs_cross(&spec, SchemeSpec::nimbus(), Vec::new(), 8.0);
            let acc = nimbus_accuracy(&out.flows[0], truth_elastic, 8.0);
            result.row(&format!("{kind}_accuracy_rttx{ratio}"), acc);
        }
    }
    result
}

/// Fig. 22 (Appendix C): Nimbus and Cubic each competing against one BBR flow
/// across buffer sizes from 0.5 to 4 BDP.
pub fn fig22(quick: bool) -> ExperimentResult {
    let duration = if quick { 30.0 } else { 120.0 };
    let mut result = ExperimentResult::new(
        "fig22",
        "Throughput against one BBR flow as the buffer varies (Nimbus vs Cubic)",
        quick,
    );
    let bdp_s = 0.05; // one BDP of buffering = 50 ms at the link rate
    let buffers: Vec<f64> = if quick {
        vec![0.5, 2.0]
    } else {
        vec![0.5, 1.0, 2.0, 4.0]
    };
    for &bdp in &buffers {
        let buffer_s = bdp * bdp_s;
        let spec = scenario(&format!(
            "96M vs bbr buffer={buffer_s}s seed=22 dur={duration}s"
        ));
        for scheme in [SchemeSpec::nimbus(), SchemeSpec::cubic()] {
            let out = run_scheme_vs_cross(&spec, scheme, Vec::new(), 6.0);
            result.row(
                &format!("{}_throughput_mbps_buffer{bdp}bdp", scheme.label()),
                out.flows[0].mean_throughput_mbps,
            );
        }
    }
    result
}

/// Fig. 23 (Appendix D.1): Copa vs Nimbus dynamics against CBR cross traffic
/// at 25% and 83% of the link.
pub fn fig23(quick: bool) -> ExperimentResult {
    let duration = if quick { 30.0 } else { 60.0 };
    let mut result = ExperimentResult::new(
        "fig23",
        "Copa vs Nimbus against CBR cross traffic at 24 and 80 Mbit/s",
        quick,
    );
    for &(rate, tag) in &[(24e6, "24M"), (80e6, "80M")] {
        let fraction = rate / 96e6;
        let spec = scenario(&format!("96M vs cbr@{fraction} seed=23 dur={duration}s"));
        for scheme in [SchemeSpec::copa(), SchemeSpec::nimbus()] {
            let out = run_scheme_vs_cross(&spec, scheme, Vec::new(), 6.0);
            let m = &out.flows[0];
            result.row(
                &format!("{}_{tag}_throughput_mbps", m.label),
                m.mean_throughput_mbps,
            );
            result.row(
                &format!("{}_{tag}_queue_delay_ms", m.label),
                m.mean_queue_delay_ms,
            );
            result.add_series(
                &format!("{}_{tag}_queue_delay_series", m.label),
                m.queue_delay_series.clone(),
            );
        }
    }
    result
}

/// Fig. 24 (Appendix D.2): Copa vs Nimbus against a NewReno flow with the
/// same or 4× the RTT.
pub fn fig24(quick: bool) -> ExperimentResult {
    let duration = if quick { 30.0 } else { 60.0 };
    let mut result = ExperimentResult::new(
        "fig24",
        "Copa vs Nimbus against elastic NewReno cross traffic at 1x and 4x RTT",
        quick,
    );
    for &(ratio, tag) in &[(1.0, "1x"), (4.0, "4x")] {
        let reno = format!("newreno@rtt={}s", 0.05 * ratio);
        let spec = scenario(&format!("96M vs {reno} seed=24 dur={duration}s"));
        for scheme in [SchemeSpec::copa(), SchemeSpec::nimbus()] {
            let out = run_scheme_vs_cross(&spec, scheme, Vec::new(), 6.0);
            let m = &out.flows[0];
            result.row(
                &format!("{}_{tag}_throughput_mbps", m.label),
                m.mean_throughput_mbps,
            );
            result.add_series(
                &format!("{}_{tag}_throughput_series", m.label),
                m.throughput_series.clone(),
            );
        }
    }
    result
}

/// Fig. 25 (Appendix E): accuracy heat map over pulse size × Nimbus's link
/// share × link rate.
pub fn fig25(quick: bool) -> ExperimentResult {
    let duration = if quick { 30.0 } else { 90.0 };
    let mut result = ExperimentResult::new(
        "fig25",
        "Accuracy vs pulse size, link share and link rate (mixed cross traffic)",
        quick,
    );
    let pulse_sizes: Vec<f64> = if quick {
        vec![0.125, 0.25]
    } else {
        vec![0.0625, 0.125, 0.25, 0.5]
    };
    let shares: Vec<f64> = if quick {
        vec![0.25, 0.5]
    } else {
        vec![0.125, 0.25, 0.5, 0.75]
    };
    let rates: Vec<f64> = if quick { vec![96e6] } else { vec![96e6, 192e6] };
    for &rate in &rates {
        for &pulse in &pulse_sizes {
            for &share in &shares {
                // Mixed cross traffic occupying (1 − share) of the link:
                // half elastic (one Reno flow) and half Poisson.
                let load = (1.0 - share) * 0.5;
                let spec = scenario(&format!(
                    "{rate} vs newreno+poisson@{load}@seed=251 seed=25 dur={duration}s"
                ));
                let nimbus = Monitored::tweaked(&spec, SchemeSpec::nimbus(), |cfg| {
                    cfg.with_pulse_amplitude(pulse)
                });
                let out = run_scenario(&spec, vec![nimbus], Vec::new(), 8.0);
                let acc = nimbus_accuracy(&out.flows[0], true, 8.0);
                result.row(
                    &format!(
                        "accuracy_rate{}M_pulse{}_share{}",
                        (rate / 1e6) as u32,
                        pulse,
                        share
                    ),
                    acc,
                );
            }
        }
    }
    result
}

/// Fig. 26 (Appendix F): detecting the rate-based PCC-Vivace by lowering the
/// pulse frequency from 5 Hz to 2 Hz.
pub fn fig26(quick: bool) -> ExperimentResult {
    let duration = if quick { 40.0 } else { 90.0 };
    let mut result = ExperimentResult::new(
        "fig26",
        "Detecting PCC-Vivace: elasticity CDF at 5 Hz vs 2 Hz pulses",
        quick,
    );
    let spec = scenario(&format!("96M vs vivace seed=26 dur={duration}s"));
    for &(freq, tag) in &[(5.0, "5hz"), (2.0, "2hz")] {
        let nimbus = Monitored::tweaked(&spec, SchemeSpec::nimbus(), |mut cfg| {
            cfg.elasticity.pulse_freq_hz = freq;
            cfg
        });
        let out = run_scenario(&spec, vec![nimbus], Vec::new(), 8.0);
        let etas = window(&out.flows[0].eta_series, after(8.0));
        let cdf = nimbus_dsp::Cdf::from_samples(&etas);
        result.row(&format!("median_eta_{tag}"), cdf.median());
        result.row(
            &format!("fraction_classified_elastic_{tag}"),
            elastic_fraction(&etas),
        );
        result.add_series(&format!("eta_cdf_{tag}"), cdf.curve(50));
    }
    result
}

/// Table 1: the detector's classification of each cross-traffic type.
pub fn table1(quick: bool) -> ExperimentResult {
    let duration = if quick { 30.0 } else { 60.0 };
    let mut result = ExperimentResult::new(
        "table1",
        "Classification of cross-traffic types by the elasticity detector",
        quick,
    );
    // Each row's cross traffic and the CCA behind it: a CBR stream paces at
    // a constant rate, and the app-limited Poisson source sends unlimited.
    for (name, vs, kind) in [
        ("cubic", "cubic", CcKind::Cubic),
        ("reno", "newreno", CcKind::NewReno),
        ("copa", "copa", CcKind::Copa),
        ("vegas", "vegas", CcKind::Vegas),
        ("bbr", "bbr", CcKind::Bbr),
        ("pcc_vivace", "vivace", CcKind::Vivace),
        ("const_stream", "cbr@0.5", CcKind::ConstantRate(48e6)),
        ("app_limited", "poisson@30M@seed=101", CcKind::Unlimited),
    ] {
        let spec = scenario(&format!("96M vs {vs} seed=100 dur={duration}s"));
        let out = run_scheme_vs_cross(&spec, SchemeSpec::nimbus(), Vec::new(), 8.0);
        let elastic_frac = elastic_fraction(&window(&out.flows[0].eta_series, after(8.0)));
        result.row(&format!("{name}_classified_elastic_fraction"), elastic_frac);
        result.row(
            &format!("{name}_expected_elastic"),
            if kind.expected_elastic() { 1.0 } else { 0.0 },
        );
    }
    result
}

/// §8.2 robustness sweep: buffer sizes, propagation RTTs and the PIE AQM.
pub fn robustness_sweep(quick: bool) -> ExperimentResult {
    let duration = if quick { 30.0 } else { 90.0 };
    let mut result = ExperimentResult::new(
        "robustness",
        "Detection accuracy across buffer sizes, RTTs and AQM (elastic / mixed / inelastic)",
        quick,
    );
    let buffers_bdp: Vec<f64> = if quick {
        vec![0.5, 2.0]
    } else {
        vec![0.25, 0.5, 1.0, 2.0, 4.0]
    };
    let rtts_ms: Vec<f64> = if quick {
        vec![50.0]
    } else {
        vec![25.0, 50.0, 75.0]
    };
    for &rtt_ms in &rtts_ms {
        for &buf in &buffers_bdp {
            let (buffer_s, rtt_s) = (buf * rtt_ms / 1000.0, rtt_ms / 1000.0);
            for (kind, truth_elastic) in [("elastic", true), ("inelastic", false)] {
                let cross = if truth_elastic {
                    format!("newreno@rtt={rtt_s}s")
                } else {
                    format!("poisson@48M@rtt={rtt_s}s,seed=83")
                };
                let spec = scenario(&format!(
                    "96M vs {cross} buffer={buffer_s}s rtt={rtt_s}s seed=82 dur={duration}s"
                ));
                let out = run_scheme_vs_cross(&spec, SchemeSpec::nimbus(), Vec::new(), 8.0);
                let acc = nimbus_accuracy(&out.flows[0], truth_elastic, 8.0);
                result.row(&format!("accuracy_{kind}_rtt{rtt_ms}ms_buf{buf}bdp"), acc);
            }
        }
    }
    // PIE AQM cases.
    for &(target, tag) in &[(0.0125, "pie12.5ms"), (0.05, "pie50ms")] {
        let spec = scenario(&format!(
            "96M vs newreno pie={target}s seed=84 dur={duration}s"
        ));
        let out = run_scheme_vs_cross(&spec, SchemeSpec::nimbus(), Vec::new(), 8.0);
        result.row(
            &format!("accuracy_elastic_{tag}"),
            nimbus_accuracy(&out.flows[0], true, 8.0),
        );
        result.row(
            &format!("throughput_mbps_{tag}"),
            out.flows[0].mean_throughput_mbps,
        );
    }
    result
}

/// The µ-estimation strategy axis on the cellular deep-fade trace (the
/// ROADMAP regime where the hardwired max filter deadlocks at the pacing
/// floor): plain learned µ, the probing estimator, and the BBR / Cubic
/// references.  The number that matters is throughput through the fades —
/// the max filter reads 0.12 Mbit/s while the probe epochs recover double
/// digits.
pub fn cellular_estimators(quick: bool) -> ExperimentResult {
    let duration = if quick { 40.0 } else { 90.0 };
    let mut result = ExperimentResult::new(
        "cellular_estimators",
        "µ-estimation strategies on the cellular deep-fade trace",
        quick,
    );
    let spec = scenario(&format!("48M trace-cellular seed=44 dur={duration}s"));
    for (spec_text, tag) in [
        ("nimbus(mu=learned)", "maxfilt"),
        ("nimbus(mu=learned(probe=1))", "probing"),
        ("nimbus(mu=learned(probe=1,gain=3))", "probing_g3"),
        ("bbr", "bbr"),
        ("cubic", "cubic"),
    ] {
        let scheme: SchemeSpec = spec_text.parse().expect("estimator spec parses");
        let out = run_scheme_vs_cross(&spec, scheme, Vec::new(), 10.0);
        let m = &out.flows[0];
        result.row(&format!("throughput_mbps_{tag}"), m.mean_throughput_mbps);
        result.row(&format!("queue_delay_ms_{tag}"), m.mean_queue_delay_ms);
        if !m.mu_series.is_empty() {
            result.row(&format!("mu_error_{tag}"), m.mu_tracking_error);
            result.add_series(
                &format!("mu_estimate_mbps_{tag}"),
                m.mu_series.iter().map(|&(t, mu)| (t, mu / 1e6)).collect(),
            );
        }
        result.add_series(
            &format!("throughput_series_{tag}"),
            m.throughput_series.clone(),
        );
    }
    result
}
