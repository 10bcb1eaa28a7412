//! Fleet-churn experiments: open-loop flow populations at scale (§8.1
//! extended to population dynamics).
//!
//! Three questions the scenario matrix pins as invariants are quantified
//! here as full experiments:
//!
//! * [`fleet_churn`] — does constant arrival/departure churn read as
//!   elastic to a long-lived Nimbus flow?  (Measured: no — delay mode
//!   holds even at 1000+-flow scale over a 1 Gbit/s bottleneck.)
//! * [`fleet_fct`] — what do the churning flows themselves experience?
//!   Flow-completion-time distributions (p50/p95/p99 by mice/medium/
//!   elephant) for the same population sharing with Nimbus vs with Cubic.
//! * [`fleet_multiflow`] — do ~100 concurrent Nimbus flows with the
//!   multiflow protocol enabled converge to a fair pulse-frequency
//!   allocation?

use super::{fct_stats, jain_index, scenario, ALL_SIZES, FLEET_SIZE_BUCKETS};
use crate::output::ExperimentResult;
use crate::runner::{run_scenario, run_scheme_vs_cross, Monitored};
use crate::scheme::SchemeSpec;

/// Append the FCT rows of the flows in `record` of `lo < size <= hi` bytes
/// under a `prefix`.
fn fct_rows(
    result: &mut ExperimentResult,
    prefix: &str,
    record: impl IntoIterator<Item = (u64, f64)>,
    sizes: (u64, u64),
) {
    let stats = fct_stats(record, sizes);
    result.row(&format!("{prefix}_count"), stats.count as f64);
    result.row(&format!("{prefix}_mean_s"), stats.mean_s);
    result.row(&format!("{prefix}_p50_s"), stats.p50_s);
    result.row(&format!("{prefix}_p95_s"), stats.p95_s);
    result.row(&format!("{prefix}_p99_s"), stats.p99_s);
}

/// Population-scale churn against a long-lived Nimbus flow: a 1 Gbit/s
/// bottleneck with a Poisson fleet at 50% offered load spawns flows at
/// ~550/s, so even the quick run churns through well over a thousand
/// arrivals and retirements.  The detector-stability claim: churn is not a
/// backlogged competitor — Nimbus must hold delay mode throughout.
pub fn fleet_churn(quick: bool) -> ExperimentResult {
    let duration = if quick { 8.0 } else { 30.0 };
    let mut result = ExperimentResult::new(
        "fleet_churn",
        "1000+-flow churn over 1 Gbit/s: Nimbus detector stability under arrival/departure dynamics",
        quick,
    );
    let spec = scenario(&format!("1G vs fleet(load=0.5) seed=61 dur={duration}s"));
    let out = run_scheme_vs_cross(&spec, SchemeSpec::nimbus(), duration * 0.25);
    let m = &out.flows[0];
    result.row("monitored_throughput_mbps", m.mean_throughput_mbps);
    result.row("monitored_queue_delay_ms", m.mean_queue_delay_ms);
    result.row("delay_mode_fraction", m.delay_mode_fraction);
    result.row(
        "entered_competitive",
        m.mode_log
            .iter()
            .filter(|(_, mode)| mode == "competitive")
            .count() as f64,
    );
    result.row(
        "fleet_flows_completed",
        out.recorder.fct_stream().len() as f64,
    );
    result.row("events_processed", out.events_processed as f64);
    fct_rows(&mut result, "fct_all", out.recorder.fct_stream(), ALL_SIZES);
    result.add_series("monitored_throughput_series", m.throughput_series.clone());
    result.add_series("monitored_queue_delay_series", m.queue_delay_series.clone());
    result
}

/// FCT distributions for a churning population sharing the bottleneck with
/// a long-lived Nimbus flow vs a long-lived Cubic flow.  The identical
/// fleet (same arrival instants, sizes and controller seeds) runs against
/// both, so every FCT difference is attributable to the long-lived flow's
/// congestion control.
pub fn fleet_fct(quick: bool) -> ExperimentResult {
    let duration = if quick { 20.0 } else { 60.0 };
    let mut result = ExperimentResult::new(
        "fleet_fct",
        "Fleet FCT distributions (mice/medium/elephant percentiles): sharing with Nimbus vs with Cubic",
        quick,
    );
    let spec = scenario(&format!("48M vs fleet(load=0.5) seed=62 dur={duration}s"));
    for scheme in [SchemeSpec::nimbus(), SchemeSpec::cubic()] {
        let out = run_scheme_vs_cross(&spec, scheme, duration * 0.2);
        let label = scheme.label();
        let m = &out.flows[0];
        result.row(
            &format!("{label}_monitored_throughput_mbps"),
            m.mean_throughput_mbps,
        );
        result.row(
            &format!("{label}_monitored_queue_delay_ms"),
            m.mean_queue_delay_ms,
        );
        let record = out.recorder.fct_stream();
        fct_rows(
            &mut result,
            &format!("{label}_fct_all"),
            record.clone(),
            ALL_SIZES,
        );
        for (bucket, lo, hi) in FLEET_SIZE_BUCKETS {
            fct_rows(
                &mut result,
                &format!("{label}_fct_{bucket}"),
                record.clone(),
                (lo, hi),
            );
        }
    }
    result
}

/// Fairness among `n` concurrent Nimbus multiflow flows sharing one
/// bottleneck at 10 Mbit/s of fair share each, with a churning fleet or
/// alone.  Returns the per-flow steady-state rates.
fn run_multiflow_population(
    n: usize,
    link_rate_bps: f64,
    duration: f64,
    steady_start_s: f64,
    seed_base: u64,
) -> (Vec<f64>, Vec<f64>, f64) {
    let spec = scenario(&format!("{link_rate_bps} seed={seed_base} dur={duration}s"));
    let flows = Monitored::multiflow(&spec, SchemeSpec::nimbus_vegas(), n, seed_base, 0.0);
    let out = run_scenario(&spec, flows, steady_start_s);
    let rates: Vec<f64> = out
        .flows
        .iter()
        .map(|m| m.mean_throughput_mbps)
        .filter(|v| v.is_finite())
        .collect();
    let delay_fracs: Vec<f64> = out.flows.iter().map(|m| m.delay_mode_fraction).collect();
    let qds: Vec<f64> = out
        .flows
        .iter()
        .map(|m| m.mean_queue_delay_ms)
        .filter(|v| v.is_finite())
        .collect();
    (rates, delay_fracs, nimbus_dsp::mean(&qds))
}

/// Pulse-frequency allocation convergence at population scale: ~100
/// concurrent Nimbus flows (16 in quick mode) with the multiflow protocol
/// enabled share one bottleneck at 10 Mbit/s fair share each.  The paper's
/// §5 claim at 4 flows — fair sharing, coordinated pulsing — must survive
/// two orders of magnitude more participants.
///
/// Every flow watches its receive rate in a sliding DFT and the elected
/// pulser checks it for a second pulser, so no report runs an FFT.
///
/// Measured: the *allocation* converges at every scale (Jain 0.95 at 16
/// flows and 0.93 at 96, aggregate ≥ 98% of µ), but the mode story flips
/// with population size.  At 16 flows each competitor is a macroscopic
/// slice of the link, the watcher/pulser coordination saturates, and the
/// population settles in competitive mode (delay-mode fraction 0.02) behind
/// a 50 ms standing queue; at 96 flows statistical multiplexing smooths the
/// other flows into an inelastic-looking aggregate and every flow holds
/// delay mode at 5.5 ms of queueing delay.  Scale *restores* the low-delay
/// operating point.
pub fn fleet_multiflow(quick: bool) -> ExperimentResult {
    let n = if quick { 16 } else { 96 };
    let duration = if quick { 25.0 } else { 60.0 };
    let link_rate = n as f64 * 10e6;
    let mut result = ExperimentResult::new(
        "fleet_multiflow",
        "Pulse-frequency allocation convergence with ~100 concurrent Nimbus multiflow flows",
        quick,
    );
    let (rates, delay_fracs, mean_qd) =
        run_multiflow_population(n, link_rate, duration, duration * 0.4, 260);
    result.row("flows", n as f64);
    result.row("link_rate_mbps", link_rate / 1e6);
    result.row("jain_fairness_index", jain_index(&rates));
    result.row("aggregate_throughput_mbps", rates.iter().sum::<f64>());
    result.row(
        "min_flow_throughput_mbps",
        rates.iter().copied().fold(f64::INFINITY, f64::min),
    );
    result.row(
        "max_flow_throughput_mbps",
        rates.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    );
    result.row("mean_delay_mode_fraction", nimbus_dsp::mean(&delay_fracs));
    result.row("mean_queue_delay_ms", mean_qd);
    result
}
