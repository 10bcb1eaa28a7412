//! Figures 16 and 17: multiple Nimbus flows sharing a bottleneck (§8.3).

use super::{cbr_cross_flow, elastic_cross_flow};
use crate::output::ExperimentResult;
use crate::runner::ScenarioSpec;
use crate::scheme::SchemeSpec;
use nimbus_core::MultiflowConfig;
use nimbus_netsim::{FlowConfig, Time};
use nimbus_transport::CcKind;

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
    let spec = ScenarioSpec {
        duration_s: duration,
        seed: 16,
        ..ScenarioSpec::default_96mbps(duration)
    };
    let mut net = spec.build_network();
    let mut handles = Vec::new();
    for i in 0..4usize {
        let start = i as f64 * stagger;
        let cfg = SchemeSpec::nimbus_vegas()
            .nimbus_config(spec.link_rate_bps, 160 + i as u64)
            .unwrap()
            .with_multiflow(MultiflowConfig::enabled());
        let endpoint = Box::new(nimbus_sim::nimbus_flow(cfg, &format!("nimbus-{i}")));
        let h = net.add_flow(
            FlowConfig::primary(&format!("nimbus-{i}"), Time::from_millis(50))
                .starting_at(Time::from_secs_f64(start)),
            endpoint,
        );
        handles.push((h, SchemeSpec::nimbus_vegas()));
    }
    let out = crate::runner::run_and_collect(net, &handles, stagger * 2.0);
    // Fairness during the window where all four flows are active.
    let all_active = (3.0 * stagger + 10.0 * scale, flow_duration - 5.0 * scale);
    let mut rates = Vec::new();
    for (i, m) in out.flows.iter().enumerate() {
        let vals: Vec<f64> = m
            .throughput_series
            .iter()
            .filter(|(t, _)| *t >= all_active.0 && *t <= all_active.1)
            .map(|(_, v)| *v)
            .collect();
        let mean = nimbus_dsp::mean(&vals);
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
        let sum: f64 = rates.iter().sum();
        let sumsq: f64 = rates.iter().map(|r| r * r).sum();
        result.row(
            "jain_fairness_index",
            sum * sum / (rates.len() as f64 * sumsq),
        );
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
    let spec = ScenarioSpec {
        link_rate_bps: 192e6,
        duration_s: duration,
        seed: 17,
        ..ScenarioSpec::default_96mbps(duration)
    };
    let mut net = spec.build_network();
    let mut handles = Vec::new();
    for i in 0..3usize {
        let cfg = SchemeSpec::nimbus()
            .nimbus_config(spec.link_rate_bps, 170 + i as u64)
            .unwrap()
            .with_multiflow(MultiflowConfig::enabled());
        let endpoint = Box::new(nimbus_sim::nimbus_flow(cfg, &format!("nimbus-{i}")));
        let h = net.add_flow(
            FlowConfig::primary(&format!("nimbus-{i}"), Time::from_millis(50)),
            endpoint,
        );
        handles.push((h, SchemeSpec::nimbus()));
    }
    // Elastic phase: 3 Cubic flows from 30–90 s (scaled).
    for i in 0..3 {
        let (fc, ep) = elastic_cross_flow(
            &format!("cubic-{i}"),
            CcKind::Cubic,
            0.05,
            30.0 * scale,
            Some(90.0 * scale),
        );
        net.add_flow(fc, ep);
    }
    // Inelastic phase: 96 Mbit/s CBR from 90–150 s (scaled).
    let (fc, ep) = cbr_cross_flow("cbr", 96e6, 0.05, 90.0 * scale, Some(150.0 * scale));
    net.add_flow(fc, ep);

    let out = crate::runner::run_and_collect(net, &handles, 5.0 * scale);
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
    let window_mean = |series: &[(f64, f64)], w: (f64, f64)| {
        let vals: Vec<f64> = series
            .iter()
            .filter(|(t, _)| *t >= w.0 && *t <= w.1)
            .map(|(_, v)| *v)
            .collect();
        nimbus_dsp::mean(&vals)
    };
    // Aggregate throughput per phase vs fair share (alone: 192, vs 3 cubic:
    // 192*3/6 = 96, vs 96M CBR: 96).
    result.row(
        "aggregate_alone_mbps",
        window_mean(&total_series, (8.0 * scale, 28.0 * scale)),
    );
    result.row(
        "aggregate_vs_cubic_mbps",
        window_mean(&total_series, (40.0 * scale, 88.0 * scale)),
    );
    result.row(
        "aggregate_vs_cbr_mbps",
        window_mean(&total_series, (100.0 * scale, 148.0 * scale)),
    );
    // Queueing delay during the inelastic phase should be low.
    let qd: Vec<f64> = out.flows[0]
        .queue_delay_series
        .iter()
        .filter(|(t, _)| *t >= 100.0 * scale && *t <= 148.0 * scale)
        .map(|(_, v)| *v)
        .collect();
    result.row("queue_delay_vs_cbr_ms", nimbus_dsp::mean(&qd));
    result.add_series("aggregate_throughput_mbps", total_series);
    result
}
