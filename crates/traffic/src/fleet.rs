//! Fleet workload: open-loop flow churn at population scale.
//!
//! "We generate Cubic cross-flows with flow sizes drawn from this data, with
//! flow arrival times generated by a Poisson process to offer a fixed average
//! load" (§8.1) — with the flow-size distribution of [`crate::flow_sizes`]
//! standing in for the proprietary trace.  Because the sizes are
//! heavy-tailed, the workload alternates naturally between inelastic periods
//! (only mice in flight) and elastic periods (an elephant is active), which
//! is what exercises Nimbus's mode switching.
//!
//! This module implements the simulator's
//! [`nimbus_netsim::FlowSpawner`] interface: flows are created
//! lazily at their arrival instants and *retired* (endpoint freed) when they
//! complete, so a run can churn through thousands of flows while only the
//! concurrently active population costs memory and per-tick work.
//!
//! Two arrival processes are provided.  Poisson arrivals are the open-loop
//! model the paper uses for its CAIDA-derived workload (§8.1); Pareto
//! ("bursty") interarrivals offer the same mean rate but heavy-tailed gaps,
//! so arrivals clump — a stress test for detectors that assume smooth
//! population churn.  Both are deterministic per seed.

use crate::flow_sizes::FlowSizeDistribution;
use nimbus_netsim::{FlowConfig, FlowEndpoint, FlowSpawner, Time};
use nimbus_transport::{CcKind, FixedSizeSource, PathInfo, Sender, SenderConfig, MSS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;

/// How interarrival gaps between fleet flows are drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalProcess {
    /// Exponential interarrivals — memoryless churn at a constant mean rate.
    Poisson,
    /// Pareto interarrivals of shape 1.5: same mean rate as Poisson, but
    /// heavy-tailed gaps make arrivals clump into bursts separated by long
    /// silences.
    Bursty,
}

/// The Pareto shape of [`ArrivalProcess::Bursty`]: infinite-variance
/// interarrivals (any shape ≤ 2) while keeping the mean finite (> 1).
const BURSTY_ALPHA: f64 = 1.5;

/// Size (bytes) above which a fleet flow is tagged elastic for the ground
/// truth: 10 packets, the initial window (§8.1).
const ELASTIC_THRESHOLD_BYTES: u64 = 15_000;

/// The propagation RTT fleet flows jitter around, seconds; every fleet,
/// the Internet-path figures' included, runs at it.
const BASE_RTT_S: f64 = 0.05;

impl ArrivalProcess {
    /// Draw one interarrival gap in seconds for mean arrival rate `lambda`
    /// (flows per second).
    fn sample_gap(&self, lambda: f64, rng: &mut StdRng) -> f64 {
        let u: f64 = rng.gen::<f64>().max(1e-12);
        match *self {
            ArrivalProcess::Poisson => -u.ln() / lambda,
            ArrivalProcess::Bursty => {
                // Pareto(xm, alpha) has mean xm * alpha / (alpha - 1); choose
                // xm so the mean gap is exactly 1/lambda.
                let xm = (BURSTY_ALPHA - 1.0) / (BURSTY_ALPHA * lambda);
                xm / u.powf(1.0 / BURSTY_ALPHA)
            }
        }
    }
}

/// Configuration of a fleet workload: an open-loop arrival process paired
/// with a heavy-tailed size distribution, targeting a fixed offered load.
/// Arrivals start at t = 0; every flow runs Cubic over a propagation RTT
/// jittered by up to ±50% around 50 ms.
#[derive(Debug, Clone)]
pub struct FleetWorkloadConfig {
    /// Target offered load in bits per second.
    pub offered_load_bps: f64,
    /// Interarrival process.
    pub arrivals: ArrivalProcess,
    /// Flow-size distribution.
    pub sizes: FlowSizeDistribution,
    /// No arrivals at or after this time, seconds.
    pub stop_s: f64,
    /// RNG seed; the whole workload is deterministic given this.
    pub seed: u64,
}

impl FleetWorkloadConfig {
    /// A fleet offering `load_fraction` of `link_rate_bps`, arriving over
    /// `[0, stop_s)`: Poisson arrivals and default sizes.
    pub fn default_for_link(link_rate_bps: f64, load_fraction: f64, stop_s: f64) -> Self {
        FleetWorkloadConfig {
            offered_load_bps: link_rate_bps * load_fraction,
            arrivals: ArrivalProcess::Poisson,
            sizes: FlowSizeDistribution::default(),
            stop_s,
            seed: 1,
        }
    }

    /// Mean arrival rate implied by the offered load and the size
    /// distribution's analytic mean, flows per second.
    pub fn lambda(&self) -> f64 {
        self.offered_load_bps / (self.sizes.mean_bytes() * 8.0)
    }
}

/// A [`FlowSpawner`] emitting the configured fleet: each call advances the
/// arrival clock by one sampled gap and materializes one finite, retiring,
/// unmonitored cross-flow.
///
/// A flow costs four allocations: its recorder label `fleet-<i>` (moved,
/// never copied, into the recorder) and three boxes (sender, controller,
/// source).  The sender itself carries the static label `fleet`.  The boxes
/// are freed when the flow retires, and the engine slot that held them is
/// reused once its last packet and ACK are gone; what the run keeps per flow
/// is the recorder's 72-byte `FlowStats` (with the label), its 4-byte
/// completion record entry and a 4-byte slot map entry.
pub struct FleetSpawner {
    cfg: FleetWorkloadConfig,
    rng: StdRng,
    /// Current arrival-clock position, seconds.
    t_s: f64,
    emitted: u64,
}

impl FleetSpawner {
    /// Build the spawner; all randomness derives from `cfg.seed`.
    pub fn new(cfg: FleetWorkloadConfig) -> Self {
        let rng = StdRng::seed_from_u64(cfg.seed ^ 0x9e37_79b9_7f4a_7c15);
        FleetSpawner {
            cfg,
            rng,
            t_s: 0.0,
            emitted: 0,
        }
    }

    /// Flows emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }
}

impl FlowSpawner for FleetSpawner {
    fn next_flow(&mut self) -> Option<(Time, FlowConfig, Box<dyn FlowEndpoint>)> {
        let lambda = self.cfg.lambda();
        self.t_s += self.cfg.arrivals.sample_gap(lambda, &mut self.rng);
        if self.t_s >= self.cfg.stop_s {
            return None;
        }
        let size = self.cfg.sizes.sample(&mut self.rng);
        let rtt_s = BASE_RTT_S * self.rng.gen_range(0.5..1.5);
        let i = self.emitted;
        self.emitted += 1;
        let at = Time::from_secs_f64(self.t_s);
        let flow_cfg = FlowConfig::cross(
            format!("fleet-{i}"),
            Time::from_secs_f64(rtt_s),
            size > ELASTIC_THRESHOLD_BYTES,
        )
        .starting_at(at)
        .with_size(size)
        .retiring();
        let endpoint: Box<dyn FlowEndpoint> = Box::new(Sender::new(
            SenderConfig {
                label: Cow::Borrowed("fleet"),
                ..SenderConfig::default()
            },
            CcKind::Cubic.build(&PathInfo::new(MSS)),
            Box::new(FixedSizeSource::new(size)),
        ));
        Some((at, flow_cfg, endpoint))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_arrivals(cfg: FleetWorkloadConfig) -> Vec<(f64, u64)> {
        let mut sp = FleetSpawner::new(cfg);
        let mut out = Vec::new();
        while let Some((at, fc, _ep)) = sp.next_flow() {
            out.push((at.as_secs_f64(), fc.size_bytes.unwrap()));
        }
        out
    }

    #[test]
    fn fleet_generation_is_deterministic_per_seed() {
        let cfg = FleetWorkloadConfig::default_for_link(96e6, 0.5, 30.0);
        let a = drain_arrivals(cfg.clone());
        let b = drain_arrivals(cfg.clone());
        assert!(!a.is_empty());
        assert_eq!(a, b);
        let mut other = cfg;
        other.seed = 2;
        assert_ne!(a, drain_arrivals(other), "a different seed must differ");
    }

    #[test]
    fn arrivals_are_ordered_and_bounded() {
        for arrivals in [ArrivalProcess::Poisson, ArrivalProcess::Bursty] {
            let mut cfg = FleetWorkloadConfig::default_for_link(96e6, 0.6, 60.0);
            cfg.arrivals = arrivals;
            let flows = drain_arrivals(cfg);
            assert!(flows.windows(2).all(|w| w[0].0 <= w[1].0));
            assert!(flows.iter().all(|f| f.0 < 60.0));
        }
    }

    #[test]
    fn offered_load_is_near_target_for_both_processes() {
        for arrivals in [ArrivalProcess::Poisson, ArrivalProcess::Bursty] {
            let mut cfg = FleetWorkloadConfig::default_for_link(96e6, 0.5, 600.0);
            cfg.arrivals = arrivals;
            let flows = drain_arrivals(cfg);
            let total_bits: f64 = flows.iter().map(|f| f.1 as f64 * 8.0).sum();
            let load = total_bits / 600.0;
            // The heavy-tailed size distribution makes this noisy; a factor-2
            // band still catches a wrong lambda (off by mean-size factors).
            assert!(
                load > 24e6 && load < 96e6,
                "{arrivals:?}: offered load {load:.3e} far from 48e6"
            );
        }
    }

    #[test]
    fn bursty_gaps_are_heavier_tailed_than_poisson() {
        let gaps = |arrivals: ArrivalProcess| -> Vec<f64> {
            let mut cfg = FleetWorkloadConfig::default_for_link(96e6, 0.5, 300.0);
            cfg.arrivals = arrivals;
            let flows = drain_arrivals(cfg);
            flows.windows(2).map(|w| w[1].0 - w[0].0).collect()
        };
        let cv = |g: &[f64]| -> f64 {
            let mean = g.iter().sum::<f64>() / g.len() as f64;
            let var = g.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / g.len() as f64;
            var.sqrt() / mean
        };
        let poisson_cv = cv(&gaps(ArrivalProcess::Poisson));
        let bursty_cv = cv(&gaps(ArrivalProcess::Bursty));
        // Exponential gaps have CV ≈ 1; Pareto(1.5) gaps have unbounded
        // variance, so their sample CV must come out clearly higher.
        assert!(
            poisson_cv > 0.7 && poisson_cv < 1.4,
            "poisson CV {poisson_cv}"
        );
        assert!(
            bursty_cv > poisson_cv * 1.5,
            "bursty CV {bursty_cv} vs poisson {poisson_cv}"
        );
    }

    #[test]
    fn spawned_flows_are_finite_retiring_and_unmonitored() {
        let mut sp = FleetSpawner::new(FleetWorkloadConfig::default_for_link(48e6, 0.4, 10.0));
        let mut rtts = std::collections::BTreeSet::new();
        let mut n = 0;
        while let Some((at, fc, ep)) = sp.next_flow() {
            assert_eq!(fc.start, at);
            assert!(fc.retire_on_finish);
            assert!(fc.size_bytes.is_some());
            assert_eq!(fc.counts_as_elastic, Some(fc.size_bytes.unwrap() > 15_000));
            assert!(fc.prop_rtt.as_secs_f64() >= 0.025 && fc.prop_rtt.as_secs_f64() <= 0.075);
            rtts.insert(fc.prop_rtt);
            assert!(fc.label.starts_with("fleet-"));
            assert_eq!(ep.label(), "fleet");
            n += 1;
        }
        assert_eq!(sp.emitted(), n);
        assert!(n > 10, "expected a population, got {n}");
        assert!(rtts.len() > 10, "RTTs are jittered per flow");
    }

    #[test]
    fn poisson_workloads_of_the_wan_figures_are_pinned() {
        // `(count, total bytes, first arrival ns, last arrival ns)` of the
        // Poisson workload per (rate, load, duration, seed), recorded from
        // the static `WanWorkload` generator this spawner replaced (flow
        // for flow identical): the arrival and size draws behind every
        // `fleet(…)` entry cannot drift silently.
        let workloads = [
            (96e6, 0.5, 40.0, 90),
            (96e6, 0.3, 90.0, 100),
            (48e6, 0.9, 60.0, 130),
        ];
        let pinned = [
            (2450, 320607719, 15196068, 39978260666),
            (3378, 269761907, 200416, 89939939531),
            (3183, 316603731, 12328988, 59988856537),
        ];
        for ((rate, load, dur, seed), pinned) in workloads.into_iter().zip(pinned) {
            let flows = drain_arrivals(FleetWorkloadConfig {
                seed,
                ..FleetWorkloadConfig::default_for_link(rate, load, dur)
            });
            let ns = |t_s: f64| Time::from_secs_f64(t_s).as_nanos();
            let row = (
                flows.len(),
                flows.iter().map(|f| f.1).sum::<u64>(),
                ns(flows[0].0),
                ns(flows[flows.len() - 1].0),
            );
            assert_eq!(row, pinned, "seed {seed}");
        }
    }

    #[test]
    fn churn_runs_end_to_end_and_retires_every_finished_flow() {
        use nimbus_netsim::{Network, SimConfig};
        let mut cfg = FleetWorkloadConfig::default_for_link(96e6, 0.3, 8.0);
        cfg.seed = 5;
        let mut net = Network::new(SimConfig::new(96e6, 0.1, 10.0));
        net.add_spawner(Box::new(FleetSpawner::new(cfg)));
        net.run();
        assert!(net.flow_count() > 20, "flows spawned: {}", net.flow_count());
        assert!(net.retired_flow_count() > 0);
        let finished = net
            .recorder()
            .flows
            .iter()
            .filter(|f| f.finish().is_some())
            .count();
        assert_eq!(
            net.retired_flow_count(),
            finished,
            "every finished fleet flow must be retired"
        );
        // The recorder's streaming FCTs cover exactly the finished flows.
        assert_eq!(net.recorder().fct_stream().len(), finished);
    }
}
