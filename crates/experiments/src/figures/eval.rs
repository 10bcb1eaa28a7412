//! Figures 8–13 and 21: the main emulation evaluation (§5, §8.1).

use super::{after, is_elastic, pairs, scenario, window_mean};
use crate::output::ExperimentResult;
use crate::runner::{run_scenario, run_scheme_vs_cross, Monitored};
use crate::scheme::SchemeSpec;
use nimbus_dsp::Cdf;
use nimbus_netsim::{FlowConfig, FlowEndpoint, Time};
use nimbus_traffic::{FleetWorkloadConfig, PhaseSchedule, VideoQuality, VideoSource};
use nimbus_transport::{CcKind, PathInfo, Sender, SenderConfig};

/// Fig. 8: the nine-phase scripted scenario on a 96 Mbit/s link, comparing
/// the mode-switching protocols against every baseline.
pub fn fig08(quick: bool) -> ExperimentResult {
    let scale = if quick { 0.2 } else { 1.0 };
    let mut result = ExperimentResult::new(
        "fig08",
        "Scripted elastic/inelastic phases (96 Mbit/s): throughput, delay and fair share per scheme",
        quick,
    );
    let schedule = PhaseSchedule::fig8();
    let duration = schedule.end_s * scale;
    let schemes: Vec<SchemeSpec> = if quick {
        vec![
            SchemeSpec::nimbus(),
            SchemeSpec::cubic(),
            SchemeSpec::copa(),
        ]
    } else {
        let mut s = SchemeSpec::headline_set();
        s.push(SchemeSpec::nimbus_copa());
        s.push(SchemeSpec::compound());
        s
    };
    // Long-running Cubic flows per the schedule (scaled in time).
    let cubic: Vec<String> = schedule
        .cubic_flow_intervals()
        .into_iter()
        .map(|(start, end)| format!("cubic@start={}s,stop={}s", start * scale, end * scale))
        .collect();
    let cubic = cubic.join("+");
    for scheme in schemes {
        let spec = scenario(&format!("96M vs {cubic} seed=8 dur={duration}s"));
        // Poisson aggregate following the scripted schedule (scaled in time).
        let scripted: Vec<(Time, f64)> = schedule
            .poisson_schedule()
            .into_iter()
            .map(|(t, r)| (Time::from_secs_f64(t.as_secs_f64() * scale), r))
            .collect();
        let phases: (FlowConfig, Box<dyn FlowEndpoint>) = (
            FlowConfig::cross("poisson-phases", Time::from_millis(50), false),
            Box::new(Sender::new(
                SenderConfig::labelled("poisson-phases"),
                CcKind::Unlimited.build(&PathInfo::new(1500)),
                Box::new(nimbus_transport::ScriptedSource::scheduled(scripted)),
            )),
        );
        let out = run_scheme_vs_cross(&spec, scheme, vec![phases], 2.0);
        let m = &out.flows[0];
        result.row(
            &format!("{}_mean_throughput_mbps", m.label),
            m.mean_throughput_mbps,
        );
        result.row(
            &format!("{}_mean_queue_delay_ms", m.label),
            m.mean_queue_delay_ms,
        );
        // Fair-share tracking error: mean |throughput − fair share| over time.
        let err: Vec<f64> = m
            .throughput_series
            .iter()
            .map(|(t, v)| (v - schedule.fair_share_mbps(t / scale, 96e6, 1)).abs())
            .collect();
        result.row(
            &format!("{}_fair_share_error_mbps", m.label),
            nimbus_dsp::mean(&err),
        );
        result.add_series(
            &format!("{}_throughput_mbps", m.label),
            m.throughput_series.clone(),
        );
        result.add_series(
            &format!("{}_queue_delay_ms", m.label),
            m.queue_delay_series.clone(),
        );
        if scheme.is_nimbus() {
            result.row(
                &format!("{}_delay_mode_fraction", m.label),
                m.delay_mode_fraction,
            );
        }
    }
    // The reference fair-share line.
    let fair: Vec<(f64, f64)> = (0..(duration as usize))
        .map(|t| {
            (
                t as f64,
                schedule.fair_share_mbps(t as f64 / scale, 96e6, 1),
            )
        })
        .collect();
    result.add_series("fair_share_mbps", fair);
    result
}

/// Build the CAIDA-like WAN cross traffic for a given load and duration.
fn wan_cross(
    link_rate_bps: f64,
    load: f64,
    duration_s: f64,
    seed: u64,
) -> Vec<(FlowConfig, Box<dyn FlowEndpoint>)> {
    super::drained_fleet(FleetWorkloadConfig {
        seed,
        ..FleetWorkloadConfig::default_for_link(link_rate_bps, load, duration_s)
    })
}

/// Fig. 9: throughput and RTT CDFs against WAN (CAIDA-like) cross traffic at 50% load.
pub fn fig09(quick: bool) -> ExperimentResult {
    let duration = if quick { 40.0 } else { 120.0 };
    let mut result = ExperimentResult::new(
        "fig09",
        "WAN cross traffic at 50% load: throughput and RTT distributions per scheme",
        quick,
    );
    let schemes = if quick {
        vec![
            SchemeSpec::nimbus(),
            SchemeSpec::cubic(),
            SchemeSpec::vegas(),
        ]
    } else {
        SchemeSpec::headline_set()
    };
    for scheme in schemes {
        let spec = scenario(&format!("96M seed=9 dur={duration}s"));
        let cross = wan_cross(spec.link_rate_bps, 0.5, duration, 90);
        let out = run_scheme_vs_cross(&spec, scheme, cross, 5.0);
        let m = &out.flows[0];
        let rtt_cdf = Cdf::from_samples(&m.rtt_samples_ms);
        let tput_cdf = Cdf::from_samples(&m.throughput_samples_mbps);
        result.row(&format!("{}_median_rtt_ms", m.label), rtt_cdf.median());
        result.row(
            &format!("{}_mean_throughput_mbps", m.label),
            m.mean_throughput_mbps,
        );
        result.add_series(&format!("{}_rtt_cdf", m.label), rtt_cdf.curve(50));
        result.add_series(&format!("{}_throughput_cdf", m.label), tput_cdf.curve(50));
    }
    result
}

/// Fig. 10: Copa's throughput drops against elastic cross flows; Nimbus's does not.
pub fn fig10(quick: bool) -> ExperimentResult {
    let duration = if quick { 40.0 } else { 90.0 };
    let mut result = ExperimentResult::new(
        "fig10",
        "Copa vs Nimbus throughput in the presence of large elastic cross flows",
        quick,
    );
    for scheme in [SchemeSpec::nimbus(), SchemeSpec::copa()] {
        // One long-lived elastic flow arrives mid-experiment.
        let elephant = format!("cubic@start={}s", duration * 0.3);
        let spec = scenario(&format!("96M vs {elephant} seed=10 dur={duration}s"));
        let cross = wan_cross(spec.link_rate_bps, 0.3, duration, 100);
        let out = run_scheme_vs_cross(&spec, scheme, cross, 5.0);
        let m = &out.flows[0];
        // Throughput during the elephant period.
        result.row(
            &format!("{}_throughput_vs_elephant_mbps", m.label),
            window_mean(&m.throughput_series, after(duration * 0.4)),
        );
        result.add_series(
            &format!("{}_throughput_mbps", m.label),
            m.throughput_series.clone(),
        );
    }
    result
}

/// Fig. 11: DASH video cross traffic (4K elastic-ish, 1080p inelastic).
pub fn fig11(quick: bool) -> ExperimentResult {
    let duration = if quick { 40.0 } else { 120.0 };
    let mut result = ExperimentResult::new(
        "fig11",
        "Video cross traffic: throughput vs mean delay per scheme (4K and 1080p)",
        quick,
    );
    let schemes = if quick {
        vec![
            SchemeSpec::nimbus(),
            SchemeSpec::cubic(),
            SchemeSpec::vegas(),
        ]
    } else {
        SchemeSpec::headline_set()
    };
    for quality in [VideoQuality::Uhd4k, VideoQuality::Fhd1080p] {
        for scheme in &schemes {
            let spec = scenario(&format!("48M seed=11 dur={duration}s"));
            let video: (FlowConfig, Box<dyn FlowEndpoint>) = (
                FlowConfig::cross(
                    format!("video-{}", quality.label()),
                    Time::from_millis(50),
                    quality == VideoQuality::Uhd4k,
                ),
                Box::new(Sender::new(
                    SenderConfig::labelled("video"),
                    CcKind::Cubic.build(&PathInfo::new(1500)),
                    Box::new(VideoSource::new(quality, duration)),
                )),
            );
            let out = run_scheme_vs_cross(&spec, *scheme, vec![video], 5.0);
            let m = &out.flows[0];
            let key = format!("{}_{}", quality.label(), m.label);
            result.row(&format!("{key}_throughput_mbps"), m.mean_throughput_mbps);
            result.row(&format!("{key}_mean_rtt_ms"), m.mean_rtt_ms);
        }
    }
    result
}

/// Fig. 12: the elasticity metric tracks the true elastic fraction of the WAN
/// workload; report the resulting classification accuracy.
pub fn fig12(quick: bool) -> ExperimentResult {
    let duration = if quick { 60.0 } else { 200.0 };
    let mut result = ExperimentResult::new(
        "fig12",
        "Elasticity metric vs ground-truth elastic fraction (WAN workload); detector accuracy",
        quick,
    );
    let spec = scenario(&format!("96M seed=12 dur={duration}s"));
    let cross = wan_cross(spec.link_rate_bps, 0.5, duration, 120);
    let out = run_scheme_vs_cross(&spec, SchemeSpec::nimbus(), cross, 5.0);
    let m = &out.flows[0];
    // Ground truth per interval from the recorder; detector verdicts from the
    // controller.  A period is "elastic" if more than 30% of cross bytes came
    // from flows large enough to be ACK-clocked.
    let truth = pairs(&out.recorder.elastic_fraction);
    let mut acc = nimbus_dsp::stats::ClassificationAccuracy::default();
    for (t, eta) in &m.eta_series {
        if *t < 6.0 {
            continue;
        }
        // Ground truth averaged over the preceding detector window.
        let truth_elastic = window_mean(&truth, *t - 5.0..=*t) > 0.3;
        acc.record(truth_elastic, is_elastic(*eta));
    }
    result.row("detector_accuracy", acc.accuracy());
    result.row("elastic_recall", acc.elastic_accuracy());
    result.row("inelastic_recall", acc.inelastic_accuracy());
    result.row("decisions", acc.total() as f64);
    result.add_series("elastic_fraction_truth", truth);
    result.add_series("eta", m.eta_series.clone());
    result
}

/// Fig. 13: throughput/RTT CDFs at 50% and 90% offered load, for two pulse sizes.
pub fn fig13(quick: bool) -> ExperimentResult {
    let duration = if quick { 40.0 } else { 120.0 };
    let mut result = ExperimentResult::new(
        "fig13",
        "Effect of offered load (50%/90%) and pulse size (0.125µ/0.25µ)",
        quick,
    );
    for &load in &[0.5, 0.9] {
        let spec = scenario(&format!("96M seed=13 dur={duration}s"));
        for &pulse in &[0.125, 0.25] {
            let cross = wan_cross(spec.link_rate_bps, load, duration, 130);
            let nimbus = Monitored::tweaked(&spec, SchemeSpec::nimbus(), |cfg| {
                cfg.with_pulse_amplitude(pulse)
            });
            let out = run_scenario(&spec, vec![nimbus], cross, 5.0);
            let m = &out.flows[0];
            let key = format!("load{}_pulse{}", (load * 100.0) as u32, pulse);
            result.row(&format!("{key}_throughput_mbps"), m.mean_throughput_mbps);
            result.row(&format!("{key}_mean_rtt_ms"), m.mean_rtt_ms);
            result.row(&format!("{key}_delay_mode_fraction"), m.delay_mode_fraction);
        }
        // Cubic and Vegas references per load.
        for scheme in [SchemeSpec::cubic(), SchemeSpec::vegas()] {
            let cross = wan_cross(spec.link_rate_bps, load, duration, 130);
            let out = run_scheme_vs_cross(&spec, scheme, cross, 5.0);
            let m = &out.flows[0];
            result.row(
                &format!("load{}_{}_throughput_mbps", (load * 100.0) as u32, m.label),
                m.mean_throughput_mbps,
            );
            result.row(
                &format!("load{}_{}_mean_rtt_ms", (load * 100.0) as u32, m.label),
                m.mean_rtt_ms,
            );
        }
    }
    result
}

/// Fig. 21 (Appendix B): p95 flow completion times of the WAN cross-flows by
/// size bucket, under each scheme.
pub fn fig21(quick: bool) -> ExperimentResult {
    let duration = if quick { 40.0 } else { 120.0 };
    let mut result = ExperimentResult::new(
        "fig21",
        "p95 FCT of cross-flows by flow size, per scheme (WAN workload)",
        quick,
    );
    let schemes = if quick {
        vec![SchemeSpec::nimbus(), SchemeSpec::cubic()]
    } else {
        SchemeSpec::headline_set()
    };
    let buckets: [(u64, u64, &str); 4] = [
        (0, 15_000, "15KB"),
        (15_000, 150_000, "150KB"),
        (150_000, 1_500_000, "1.5MB"),
        (1_500_000, u64::MAX, ">1.5MB"),
    ];
    for scheme in schemes {
        let spec = scenario(&format!("96M seed=21 dur={duration}s"));
        let cross = wan_cross(spec.link_rate_bps, 0.5, duration, 210);
        let out = run_scheme_vs_cross(&spec, scheme, cross, 5.0);
        let fcts = out.recorder.completed_fcts();
        for (lo, hi, label) in buckets {
            let bucket: Vec<f64> = fcts
                .iter()
                .filter(|(sz, _)| *sz > lo && *sz <= hi)
                .map(|(_, fct)| *fct)
                .collect();
            if !bucket.is_empty() {
                result.row(
                    &format!("{}_p95_fct_{label}_s", scheme.label()),
                    nimbus_dsp::percentile(&bucket, 95.0),
                );
            }
        }
        result.row(
            &format!("{}_completed_cross_flows", scheme.label()),
            fcts.len() as f64,
        );
    }
    result
}
