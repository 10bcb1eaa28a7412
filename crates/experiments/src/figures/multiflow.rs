//! Figures 16 and 17: multiple Nimbus flows sharing a bottleneck (§8.3).

use super::{jain_index, scenario, window_mean};
use crate::output::ExperimentResult;
use crate::runner::{run_scenario, Monitored};
use crate::scheme::SchemeSpec;

/// Fig. 16: four Nimbus flows arriving 120 s apart share the link fairly,
/// elect a single pulser and stay in delay mode.
pub fn fig16(quick: bool) -> ExperimentResult {
    let scale = if quick { 0.1 } else { 1.0 };
    let stagger = 120.0 * scale;
    let flow_duration = 480.0 * scale;
    let duration = 840.0 * scale;
    let mut result = ExperimentResult::new(
        "fig16",
        "Four staggered Nimbus flows: fair sharing, single pulser, low delay",
        quick,
    );
    let spec = scenario(&format!("96M seed=16 dur={duration}s"));
    let flows = Monitored::multiflow(&spec, SchemeSpec::nimbus_vegas(), 4, 160, stagger);
    let out = run_scenario(&spec, flows, Vec::new(), stagger * 2.0);
    // Fairness during the window where all four flows are active.
    let all_active = 3.0 * stagger + 10.0 * scale..=flow_duration - 5.0 * scale;
    let mut rates = Vec::new();
    for (i, m) in out.flows.iter().enumerate() {
        let mean = window_mean(&m.throughput_series, all_active.clone());
        result.row(&format!("flow{i}_throughput_all_active_mbps"), mean);
        result.row(
            &format!("flow{i}_delay_mode_fraction"),
            m.delay_mode_fraction,
        );
        result.add_series(
            &format!("flow{i}_throughput_mbps"),
            m.throughput_series.clone(),
        );
        if mean > 0.0 {
            rates.push(mean);
        }
    }
    // Jain's fairness index over the concurrently active window.
    if !rates.is_empty() {
        result.row("jain_fairness_index", jain_index(&rates));
    }
    // Mean RTT across flows (low delay claim).
    let rtts: Vec<f64> = out
        .flows
        .iter()
        .map(|m| m.mean_rtt_ms)
        .filter(|v| v.is_finite())
        .collect();
    result.row("mean_rtt_ms", nimbus_dsp::mean(&rtts));
    result
}

/// Fig. 17: three Nimbus flows with elastic (3 Cubic flows) then inelastic
/// (96 Mbit/s CBR) cross traffic on a 192 Mbit/s link.
pub fn fig17(quick: bool) -> ExperimentResult {
    let scale = if quick { 0.25 } else { 1.0 };
    let duration = 180.0 * scale;
    let mut result = ExperimentResult::new(
        "fig17",
        "Three Nimbus flows with elastic then inelastic cross traffic (192 Mbit/s)",
        quick,
    );
    // Elastic phase: 3 Cubic flows from 30–90 s (scaled); inelastic phase:
    // 96 Mbit/s CBR from 90–150 s (scaled).
    let [elastic, inelastic, end] = [30.0, 90.0, 150.0].map(|t| t * scale);
    let cubic = format!("cubic@start={elastic}s,stop={inelastic}s");
    let spec = scenario(&format!(
        "192M vs {cubic}+{cubic}+{cubic}+cbr@96M@start={inelastic}s,stop={end}s \
         seed=17 dur={duration}s"
    ));
    let flows = Monitored::multiflow(&spec, SchemeSpec::nimbus(), 3, 170, 0.0);
    let out = run_scenario(&spec, flows, Vec::new(), 5.0 * scale);
    let mut total_series: Vec<(f64, f64)> = Vec::new();
    for m in &out.flows {
        for (i, (t, v)) in m.throughput_series.iter().enumerate() {
            if let Some(slot) = total_series.get_mut(i) {
                slot.1 += v;
            } else {
                total_series.push((*t, *v));
            }
        }
    }
    // Aggregate throughput per phase vs fair share (alone: 192, vs 3 cubic:
    // 192*3/6 = 96, vs 96M CBR: 96).
    result.row(
        "aggregate_alone_mbps",
        window_mean(&total_series, 8.0 * scale..=28.0 * scale),
    );
    result.row(
        "aggregate_vs_cubic_mbps",
        window_mean(&total_series, 40.0 * scale..=88.0 * scale),
    );
    result.row(
        "aggregate_vs_cbr_mbps",
        window_mean(&total_series, 100.0 * scale..=148.0 * scale),
    );
    // Queueing delay during the inelastic phase should be low.
    let qd = &out.flows[0].queue_delay_series;
    result.row(
        "queue_delay_vs_cbr_ms",
        window_mean(qd, 100.0 * scale..=148.0 * scale),
    );
    result.add_series("aggregate_throughput_mbps", total_series);
    result
}
