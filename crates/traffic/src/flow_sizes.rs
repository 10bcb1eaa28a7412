//! Heavy-tailed flow-size distribution standing in for the CAIDA 2016 trace.
//!
//! The paper draws cross-flow sizes "from an empirical distribution of flow
//! sizes derived from a wide-area packet trace from CAIDA" (§8.1) and relies
//! on exactly two properties of that distribution:
//!
//! 1. it is heavy-tailed — most flows are mice, most *bytes* belong to
//!    elephants, so the workload alternates between inelastic periods (only
//!    short flows in flight) and elastic periods (an elephant is active);
//! 2. its mean, together with the Poisson arrival rate, sets the offered load.
//!
//! We reproduce those properties with a mixture: a log-normal body (web-like
//! transfers, median ~10 kB) and a Pareto tail (α < 2, so the tail is heavy)
//! switched with a configurable probability.  The defaults give a mean flow
//! size of ~100 kB with ~10% of flows carrying ~80% of the bytes, in line
//! with published characterizations of backbone traces.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A sampler for heavy-tailed flow sizes (in bytes).
#[derive(Debug, Clone)]
pub struct FlowSizeDistribution {
    /// Median of the log-normal body, bytes.
    pub body_median_bytes: f64,
    /// σ of the underlying normal for the body.
    pub body_sigma: f64,
    /// Probability that a flow is drawn from the Pareto tail.
    pub tail_probability: f64,
    /// Pareto scale (minimum) for tail flows, bytes.
    pub tail_min_bytes: f64,
    /// Pareto shape α (1 < α < 2 gives a heavy tail with finite mean).
    pub tail_alpha: f64,
    /// Hard cap on a single flow (keeps single simulations bounded), bytes.
    pub max_bytes: f64,
}

impl Default for FlowSizeDistribution {
    fn default() -> Self {
        FlowSizeDistribution {
            body_median_bytes: 10_000.0,
            body_sigma: 1.3,
            tail_probability: 0.07,
            tail_min_bytes: 300_000.0,
            tail_alpha: 1.3,
            max_bytes: 150e6,
        }
    }
}

impl FlowSizeDistribution {
    /// Analytic mean of the distribution in bytes (used to convert an offered
    /// load into a Poisson flow-arrival rate).
    pub fn mean_bytes(&self) -> f64 {
        // Log-normal mean = exp(µ + σ²/2) with µ = ln(median).
        let body_mean =
            (self.body_median_bytes.ln() + self.body_sigma * self.body_sigma / 2.0).exp();
        // Truncated Pareto mean; for α > 1 and a cap L >> x_m this is close to
        // α·x_m/(α−1) but we account for the cap explicitly.
        let a = self.tail_alpha;
        let xm = self.tail_min_bytes;
        let l = self.max_bytes;
        let tail_mean = if (a - 1.0).abs() < 1e-9 {
            xm * (l / xm).ln() / (1.0 - xm / l)
        } else {
            (a * xm / (a - 1.0)) * (1.0 - (xm / l).powf(a - 1.0)) / (1.0 - (xm / l).powf(a))
        };
        (1.0 - self.tail_probability) * body_mean + self.tail_probability * tail_mean
    }

    /// Draw one flow size in bytes.
    pub fn sample(&self, rng: &mut StdRng) -> u64 {
        let bytes = if rng.gen::<f64>() < self.tail_probability {
            // Pareto via inverse CDF, truncated at max_bytes.
            let u: f64 = rng.gen::<f64>().max(1e-12);
            self.tail_min_bytes / u.powf(1.0 / self.tail_alpha)
        } else {
            // Log-normal via Box-Muller.
            let u1: f64 = rng.gen::<f64>().max(1e-12);
            let u2: f64 = rng.gen();
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            self.body_median_bytes * (self.body_sigma * z).exp()
        };
        bytes.clamp(500.0, self.max_bytes) as u64
    }

    /// Draw `n` flow sizes.
    pub fn sample_many(&self, n: usize, seed: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x2545f4914f6cdd1d);
        (0..n).map(|_| self.sample(&mut rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_mean_matches_analytic_mean() {
        let dist = FlowSizeDistribution::default();
        let sizes = dist.sample_many(200_000, 1);
        let empirical = sizes.iter().map(|&s| s as f64).sum::<f64>() / sizes.len() as f64;
        let analytic = dist.mean_bytes();
        let ratio = empirical / analytic;
        assert!(
            (0.8..1.25).contains(&ratio),
            "empirical {empirical} vs analytic {analytic}"
        );
    }

    #[test]
    fn distribution_is_heavy_tailed() {
        let dist = FlowSizeDistribution::default();
        let mut sizes = dist.sample_many(100_000, 2);
        sizes.sort_unstable();
        let total: u128 = sizes.iter().map(|&s| s as u128).sum();
        // Bytes carried by the largest 10% of flows.
        let top10: u128 = sizes[sizes.len() * 9 / 10..]
            .iter()
            .map(|&s| s as u128)
            .sum();
        let share = top10 as f64 / total as f64;
        assert!(share > 0.6, "top-10% byte share {share} not heavy-tailed");
        // Median should remain mouse-sized.
        let median = sizes[sizes.len() / 2];
        assert!(median < 50_000, "median {median}");
    }

    #[test]
    fn tail_concentration_twenty_percent_of_flows_carry_sixty_percent_of_bytes() {
        // The fleet workload's defining property: a small minority of flows
        // (the elephants) must account for the bulk of the bytes, or churn
        // would never produce elastic periods.  Pin it across several seeds
        // so one lucky sample can't mask a regression.
        let dist = FlowSizeDistribution::default();
        for seed in [7, 11, 13] {
            let mut sizes = dist.sample_many(100_000, seed);
            sizes.sort_unstable();
            let total: u128 = sizes.iter().map(|&s| s as u128).sum();
            let top20: u128 = sizes[sizes.len() * 8 / 10..]
                .iter()
                .map(|&s| s as u128)
                .sum();
            let share = top20 as f64 / total as f64;
            assert!(
                share >= 0.6,
                "seed {seed}: top-20% of flows carry only {share:.3} of bytes"
            );
        }
    }

    #[test]
    fn most_flows_are_larger_than_the_initial_window() {
        // Fig. 12 labels flows larger than 10 packets (15 kB) as elastic;
        // with the default mix a sizeable fraction of flows qualify.
        let dist = FlowSizeDistribution::default();
        let sizes = dist.sample_many(50_000, 3);
        let frac = sizes.iter().filter(|&&s| s > 15_000).count() as f64 / sizes.len() as f64;
        assert!(frac > 0.2 && frac < 0.9, "fraction {frac}");
    }

    #[test]
    fn samples_are_bounded_and_deterministic() {
        let dist = FlowSizeDistribution::default();
        let a = dist.sample_many(1000, 42);
        let b = dist.sample_many(1000, 42);
        assert_eq!(a, b);
        assert!(a.iter().all(|&s| s >= 500 && s as f64 <= dist.max_bytes));
    }

    #[test]
    fn mean_is_in_a_realistic_wan_range() {
        let dist = FlowSizeDistribution::default();
        let mean = dist.mean_bytes();
        assert!(
            (30_000.0..400_000.0).contains(&mean),
            "mean flow size {mean} bytes out of expected WAN range"
        );
    }
}
