//! Multi-bottleneck path experiments (beyond the paper's single-link
//! dumbbell).
//!
//! The paper's central claim is that elasticity can be detected *through* the
//! network from endpoint-visible signals; these experiments probe the regime
//! a single-link simulator cannot reach — the multi-queue effects catalogued
//! for delay-based congestion control by Hayes et al. (ETT 2011):
//!
//! * `multihop_secondary` — a fixed secondary bottleneck downstream of the
//!   nominal link: throughput must cap at the path minimum, and Nimbus must
//!   keep the *path* (sum over hops) queueing delay low where Cubic
//!   bufferbloats the tight hop;
//! * `multihop_moving` — anti-phase rate steps on hops 0 and 1 move the
//!   bottleneck mid-run while the path minimum stays constant: does the
//!   detector stay quiet as the standing queue migrates between hops?
//! * `multihop_midpath` — inelastic cross traffic entering at the interior
//!   bottleneck hop (not at the sender-side edge): the detector only sees the
//!   cross traffic's effect on its own ACK stream and must still classify it
//!   as inelastic.

use super::{after, scenario, window_mean};
use crate::output::ExperimentResult;
use crate::runner::run_scheme_vs_cross;
use crate::scheme::SchemeSpec;
use std::ops::Bound::Excluded;

/// Fixed secondary bottleneck: hop 0 at 48 Mbit/s feeding a 28.8 Mbit/s
/// (60%) second hop.  Cubic vs Nimbus, alone on the path.
pub fn multihop_secondary(quick: bool) -> ExperimentResult {
    let duration = if quick { 40.0 } else { 90.0 };
    let mut result = ExperimentResult::new(
        "multihop_secondary",
        "Cubic vs Nimbus through a fixed 60% secondary bottleneck (2-hop path)",
        quick,
    );
    let spec = scenario(&format!("48M hop(0.6) seed=41 dur={duration}s"));
    for scheme in [SchemeSpec::cubic(), SchemeSpec::nimbus()] {
        let out = run_scheme_vs_cross(&spec, scheme, 10.0);
        let m = &out.flows[0];
        result.row(
            &format!("{}_throughput_mbps", m.label),
            m.mean_throughput_mbps,
        );
        result.row(
            &format!("{}_path_queue_delay_ms", m.label),
            m.mean_queue_delay_ms,
        );
        result.row(
            &format!("{}_delay_mode_fraction", m.label),
            m.delay_mode_fraction,
        );
        // Where did the standing queue live?  Per-hop mean occupancy (kB).
        for hop in 0..out.recorder.num_hops() {
            let series = out.recorder.hop_queue_bytes(hop);
            result.row(
                &format!("{}_hop{hop}_queue_kbytes", m.label),
                series.mean_in_range(10.0, duration) / 1e3,
            );
        }
        result.add_series(
            &format!("{}_throughput", m.label),
            m.throughput_series.clone(),
        );
    }
    result
}

/// Moving bottleneck: hop 0 steps 48 → 24 Mbit/s at mid-run while hop 1
/// steps 24 → 48 Mbit/s.  The path minimum is 24 Mbit/s throughout; only the
/// *location* of the bottleneck (and its standing queue) changes.
pub fn multihop_moving(quick: bool) -> ExperimentResult {
    let duration = if quick { 40.0 } else { 80.0 };
    let swap_at = duration * 0.45;
    let mut result = ExperimentResult::new(
        "multihop_moving",
        "Moving bottleneck via anti-phase steps on hops 0 and 1 (constant path minimum)",
        quick,
    );
    // Hop 1 starts at half rate and doubles as hop 0 halves.
    let spec = scenario(&format!(
        "48M step({swap_at}s,0.5) hop(0.5,sched=step({swap_at}s,2)) seed=42 dur={duration}s"
    ));
    for scheme in [SchemeSpec::cubic(), SchemeSpec::nimbus()] {
        let out = run_scheme_vs_cross(&spec, scheme, 8.0);
        let m = &out.flows[0];
        let tput = &m.throughput_series;
        result.row(
            &format!("{}_pre_swap_mbps", m.label),
            window_mean(tput, (Excluded(8.0), Excluded(swap_at))),
        );
        result.row(
            &format!("{}_post_swap_mbps", m.label),
            window_mean(tput, after(swap_at + 5.0)),
        );
        result.row(
            &format!("{}_delay_mode_fraction", m.label),
            m.delay_mode_fraction,
        );
        // The migrating standing queue, per hop, before and after the swap.
        for hop in 0..out.recorder.num_hops() {
            let series = out.recorder.hop_queue_bytes(hop);
            result.row(
                &format!("{}_hop{hop}_pre_swap_kbytes", m.label),
                series.mean_in_range(8.0, swap_at) / 1e3,
            );
            result.row(
                &format!("{}_hop{hop}_post_swap_kbytes", m.label),
                series.mean_in_range(swap_at + 5.0, duration) / 1e3,
            );
        }
        result.add_series(
            &format!("{}_throughput", m.label),
            m.throughput_series.clone(),
        );
    }
    result
}

/// Mid-path cross traffic: a 2-hop path whose second hop is the bottleneck,
/// with CBR cross traffic entering *at* that interior hop.  Nimbus must
/// classify it as inelastic (stay in delay mode) even though the cross
/// traffic never shares the first hop with the monitored flow.
pub fn multihop_midpath(quick: bool) -> ExperimentResult {
    let duration = if quick { 40.0 } else { 90.0 };
    let mut result = ExperimentResult::new(
        "multihop_midpath",
        "Nimbus vs CBR cross traffic entering at the interior bottleneck hop",
        quick,
    );
    for &(fraction, tag) in &[(0.3, "cbr30"), (0.5, "cbr50")] {
        // The fraction is of hop 1's rate, the path's bottleneck.
        let spec = scenario(&format!(
            "48M hop(0.6) vs cbr@{fraction}@hop1-1@rtt=0.03s seed=43 dur={duration}s"
        ));
        let out = run_scheme_vs_cross(&spec, SchemeSpec::nimbus(), 10.0);
        let m = &out.flows[0];
        result.row(&format!("throughput_mbps_{tag}"), m.mean_throughput_mbps);
        result.row(&format!("delay_mode_fraction_{tag}"), m.delay_mode_fraction);
        result.row(&format!("path_queue_delay_ms_{tag}"), m.mean_queue_delay_ms);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_multihop_secondary_caps_at_path_minimum() {
        let r = multihop_secondary(true);
        // Both schemes must be capped by the 28.8 Mbit/s second hop.
        for scheme in ["cubic", "nimbus"] {
            let tput = r.get(&format!("{scheme}_throughput_mbps")).unwrap();
            assert!(
                tput > 20.0 && tput < 30.0,
                "{scheme} throughput {tput} not capped by the secondary bottleneck"
            );
        }
        // Cubic's standing queue lives at the tight hop 1, not hop 0.
        let h0 = r.get("cubic_hop0_queue_kbytes").unwrap();
        let h1 = r.get("cubic_hop1_queue_kbytes").unwrap();
        assert!(h1 > h0 * 5.0, "cubic queue at hop0 {h0} kB vs hop1 {h1} kB");
    }
}
