//! Figures 8–13 and 21: the main emulation evaluation (§5, §8.1).

use super::{after, agreement, fct_stats, is_elastic, scenario, window, window_mean};
use crate::output::ExperimentResult;
use crate::runner::{run_scenario, run_scheme_vs_cross, series_of, Monitored};
use crate::scheme::SchemeSpec;
use nimbus_dsp::Cdf;
use nimbus_transport::format_rate_bps;

/// Fig. 8's nine phases, 20 s each, as annotated at the top of the figure:
/// `(inelastic bits/s, long-running Cubic flows)`, i.e. `16M/1T, 32M/2T,
/// 0M/4T, 0M/3T, 0M/1T, 16M/0T, 32M/0T, 48M/0T, 16M/0T`.
const FIG8_PHASES: [(f64, usize); 9] = [
    (16e6, 1),
    (32e6, 2),
    (0.0, 4),
    (0.0, 3),
    (0.0, 1),
    (16e6, 0),
    (32e6, 0),
    (48e6, 0),
    (16e6, 0),
];

/// The length of each Fig. 8 phase, seconds.
const FIG8_PHASE_S: f64 = 20.0;

/// The fair share (Mbit/s) of the one monitored flow at `t_s` on Fig. 8's
/// 96 Mbit/s link — the figure's solid black line: the capacity the
/// inelastic traffic leaves, split equally with the Cubic cross flows.
fn fig8_fair_share_mbps(t_s: f64) -> f64 {
    let started = (1..FIG8_PHASES.len()).take_while(|&i| i as f64 * FIG8_PHASE_S <= t_s);
    let (inelastic_bps, cubic) = FIG8_PHASES[started.count()];
    (96e6 - inelastic_bps) / (cubic + 1) as f64 / 1e6
}

/// Fig. 8's Cubic flows as `(start_s, stop_s)`, slot-major: flow slot `k`
/// runs through each maximal stretch of phases with more than `k` Cubic
/// flows, so contiguous phases share one flow.
fn fig8_cubic_intervals() -> Vec<(f64, f64)> {
    let slots = FIG8_PHASES.iter().map(|p| p.1).max().unwrap_or(0);
    // A closing phase with no flows ends every slot still running at 180 s.
    let phases = FIG8_PHASES.iter().chain([&(0.0, 0)]).enumerate();
    let mut intervals = Vec::new();
    for slot in 0..slots {
        let mut since = None;
        for (i, &(_, cubic)) in phases.clone() {
            let t_s = i as f64 * FIG8_PHASE_S;
            match (cubic > slot, since) {
                (true, None) => since = Some(t_s),
                (false, Some(start_s)) => {
                    intervals.push((start_s, t_s));
                    since = None;
                }
                _ => {}
            }
        }
    }
    intervals
}

/// Fig. 8: the nine-phase scripted scenario on a 96 Mbit/s link, comparing
/// the mode-switching protocols against every baseline.  Each phase's
/// inelastic cross traffic is Poisson at the phase's rate (no flow at all
/// in a 0 bit/s phase).
pub fn fig08(quick: bool) -> ExperimentResult {
    let scale = if quick { 0.2 } else { 1.0 };
    let mut result = ExperimentResult::new(
        "fig08",
        "Scripted elastic/inelastic phases (96 Mbit/s): throughput, delay and fair share per scheme",
        quick,
    );
    let duration = FIG8_PHASES.len() as f64 * FIG8_PHASE_S * scale;
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
    // Long-running Cubic flows per the schedule, then each phase's Poisson
    // traffic (scaled in time).
    let cubic = fig8_cubic_intervals()
        .into_iter()
        .map(|(start, end)| format!("cubic@start={}s,stop={}s", start * scale, end * scale));
    let phase_s = |i: usize| i as f64 * FIG8_PHASE_S * scale;
    let poisson = (FIG8_PHASES.iter().enumerate())
        .filter(|(_, &(bps, _))| bps > 0.0)
        .map(|(i, &(bps, _))| {
            let rate = format_rate_bps(bps);
            format!(
                "poisson@{rate}@start={}s,stop={}s",
                phase_s(i),
                phase_s(i + 1)
            )
        });
    let cross = cubic.chain(poisson).collect::<Vec<_>>().join("+");
    let spec = scenario(&format!("96M vs {cross} seed=8 dur={duration}s"));
    for scheme in schemes {
        let out = run_scheme_vs_cross(&spec, scheme, 2.0);
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
            .map(|(t, v)| (v - fig8_fair_share_mbps(t / scale)).abs())
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
        .map(|t| (t as f64, fig8_fair_share_mbps(t as f64 / scale)))
        .collect();
    result.add_series("fair_share_mbps", fair);
    result
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
    let spec = scenario(&format!("96M vs fleet(load=0.5) seed=9 dur={duration}s"));
    for scheme in schemes {
        let out = run_scheme_vs_cross(&spec, scheme, 5.0);
        let m = &out.flows[0];
        let rtt_cdf = Cdf::from_samples(&window(&m.rtt_series, ..));
        let tput_cdf = Cdf::from_samples(&window(&m.throughput_series, ..));
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
    // One long-lived elastic flow arrives mid-experiment.
    let elephant = format!("cubic@start={}s", duration * 0.3);
    let cross = format!("{elephant}+fleet(load=0.3)");
    let spec = scenario(&format!("96M vs {cross} seed=10 dur={duration}s"));
    for scheme in [SchemeSpec::nimbus(), SchemeSpec::copa()] {
        let out = run_scheme_vs_cross(&spec, scheme, 5.0);
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
    for quality in ["4k", "1080p"] {
        let spec = scenario(&format!("48M vs video({quality}) seed=11 dur={duration}s"));
        for scheme in &schemes {
            let out = run_scheme_vs_cross(&spec, *scheme, 5.0);
            let m = &out.flows[0];
            let key = format!("{quality}_{}", m.label);
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
    let spec = scenario(&format!("96M vs fleet(load=0.5) seed=12 dur={duration}s"));
    let out = run_scheme_vs_cross(&spec, SchemeSpec::nimbus(), 5.0);
    let m = &out.flows[0];
    // Ground truth per interval from the recorder; detector verdicts from the
    // controller.  A period is "elastic" if more than 30% of cross bytes came
    // from flows large enough to be ACK-clocked.
    let truth = series_of(out.recorder.elastic_fraction());
    // (truth, verdict) per decision, averaging the ground truth over the
    // preceding detector window.
    let decisions: Vec<(bool, bool)> = m
        .eta_series
        .iter()
        .filter(|(t, _)| *t >= 6.0)
        .map(|(t, eta)| (window_mean(&truth, *t - 5.0..=*t) > 0.3, is_elastic(*eta)))
        .collect();
    let recall = |truth_elastic: bool| {
        let verdicts = decisions.iter().filter(|(t, _)| *t == truth_elastic);
        agreement(verdicts.map(|&(_, v)| v), truth_elastic)
    };
    result.row(
        "detector_accuracy",
        agreement(decisions.iter().map(|(t, v)| t == v), true),
    );
    result.row("elastic_recall", recall(true));
    result.row("inelastic_recall", recall(false));
    result.row("decisions", decisions.len() as f64);
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
        let cross = format!("fleet(load={load})");
        let spec = scenario(&format!("96M vs {cross} seed=13 dur={duration}s"));
        for &pulse in &[0.125, 0.25] {
            let nimbus = Monitored::tweaked(&spec, SchemeSpec::nimbus(), |cfg| {
                cfg.with_pulse_amplitude(pulse)
            });
            let out = run_scenario(&spec, vec![nimbus], 5.0);
            let m = &out.flows[0];
            let key = format!("load{}_pulse{}", (load * 100.0) as u32, pulse);
            result.row(&format!("{key}_throughput_mbps"), m.mean_throughput_mbps);
            result.row(&format!("{key}_mean_rtt_ms"), m.mean_rtt_ms);
            result.row(&format!("{key}_delay_mode_fraction"), m.delay_mode_fraction);
        }
        // Cubic and Vegas references per load.
        for scheme in [SchemeSpec::cubic(), SchemeSpec::vegas()] {
            let out = run_scheme_vs_cross(&spec, scheme, 5.0);
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

/// Fig. 21's flow-size buckets `(label, lo, hi)` in bytes.
const FIG21_SIZE_BUCKETS: [(&str, u64, u64); 4] = [
    ("15KB", 0, 15_000),
    ("150KB", 15_000, 150_000),
    ("1.5MB", 150_000, 1_500_000),
    (">1.5MB", 1_500_000, u64::MAX),
];

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
    let spec = scenario(&format!("96M vs fleet(load=0.5) seed=21 dur={duration}s"));
    for scheme in schemes {
        let out = run_scheme_vs_cross(&spec, scheme, 5.0);
        let fcts = out.recorder.fct_stream();
        for (label, lo, hi) in FIG21_SIZE_BUCKETS {
            let stats = fct_stats(fcts.clone(), (lo, hi));
            if stats.count > 0 {
                result.row(
                    &format!("{}_p95_fct_{label}_s", scheme.label()),
                    stats.p95_s,
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_fair_share_line_matches_the_paper() {
        // 16M/1T: (96 − 16)/2; 0M/4T: 96/5; 48M/0T: 96 − 48.
        for (t_s, share) in [(10.0, 40.0), (50.0, 19.2), (150.0, 48.0)] {
            assert!((fig8_fair_share_mbps(t_s) - share).abs() < 1e-9, "{t_s} s");
        }
    }

    #[test]
    fn fig8_cubic_flows_span_contiguous_phases() {
        // Four slots, in slot order: slot 0 runs through phases 0–4 as one
        // flow, slot 3 only in phase 2.
        assert_eq!(
            fig8_cubic_intervals(),
            [(0.0, 100.0), (20.0, 80.0), (40.0, 80.0), (40.0, 60.0)]
        );
    }
}
