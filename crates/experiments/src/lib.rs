//! # nimbus-experiments
//!
//! The experiment harness: one function per table/figure of the paper,
//! returning (and printing) the same rows or series the paper reports.  A
//! figure writes its scenarios as strings of the scenario grammar
//! ([`runner::grammar_reference`]), runs each through the one lowering onto
//! the `nimbus-netsim` simulator ([`runner::run_scenario`]), and reads its
//! rows back through shared projections ([`figures`]).  The same scenario
//! strings drive the paper-invariant matrix ([`testkit`]) and the benchmark
//! sweep ([`sweep`]).
//!
//! Every experiment supports a `quick` flag that scales the run down (shorter
//! duration, fewer repetitions) so the whole suite stays tractable on a
//! laptop; the full-size variants use the paper's durations.
//!
//! Run experiments with the `nimbus-experiments` binary:
//!
//! ```text
//! cargo run -p nimbus-experiments --release -- fig01
//! cargo run -p nimbus-experiments --release -- all --quick
//! ```
//!
//! Results are printed as human-readable rows and written as JSON under
//! `target/experiments/`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod figures;
pub mod grammar;
pub mod output;
pub mod runner;
pub mod scheme;
pub mod sweep;
pub mod testkit;

pub use grammar::ParseError;
pub use output::ExperimentResult;
pub use runner::{
    CrossRate, CrossSource, CrossSpec, EcnSpec, FleetSpec, HopSpec, LinkScheduleSpec, ScenarioSpec,
    SingleFlowMetrics,
};
pub use scheme::SchemeSpec;
pub use sweep::{run_sweep, SweepConfig, SweepReport};
pub use testkit::{
    cells, paper_invariant_matrix, parallel_map, run_matrix, Cell, CellOutcome, Invariants,
};

/// A function regenerating one experiment (`quick` shortens the run).
pub type ExperimentFn = fn(bool) -> ExperimentResult;

/// Every experiment the harness can regenerate, in paper order: its name
/// and the function producing it.
pub const ALL_EXPERIMENTS: &[(&str, ExperimentFn)] = &[
    ("fig01", figures::intro::fig01),
    ("fig03", figures::intro::fig03),
    ("fig04", figures::intro::fig04),
    ("fig05", figures::intro::fig05),
    ("fig06", figures::intro::fig06),
    ("fig07", |_| figures::intro::fig07()),
    ("fig08", figures::eval::fig08),
    ("fig09", figures::eval::fig09),
    ("fig10", figures::eval::fig10),
    ("fig11", figures::eval::fig11),
    ("fig12", figures::eval::fig12),
    ("fig13", figures::eval::fig13),
    ("fig14", figures::robust::fig14),
    ("fig15", figures::robust::fig15),
    ("fig16", figures::multiflow::fig16),
    ("fig17", figures::multiflow::fig17),
    ("fig18", figures::internet::fig18),
    ("fig19", figures::internet::fig19),
    ("fig20", figures::internet::fig20),
    ("fig21", figures::eval::fig21),
    ("fig22", figures::robust::fig22),
    ("fig23", figures::robust::fig23),
    ("fig24", figures::robust::fig24),
    ("fig25", figures::robust::fig25),
    ("fig26", figures::robust::fig26),
    ("table1", figures::robust::table1),
    ("robustness", figures::robust::robustness_sweep),
    ("cellular_estimators", figures::robust::cellular_estimators),
    ("varying_mu", figures::varying::varying_mu),
    ("varying_detector", figures::varying::varying_detector),
    ("varying_step", figures::varying::varying_step),
    ("varying_estimator", figures::varying::varying_estimator),
    ("multihop_secondary", figures::multihop::multihop_secondary),
    ("multihop_moving", figures::multihop::multihop_moving),
    ("multihop_midpath", figures::multihop::multihop_midpath),
    ("fleet_churn", figures::fleet::fleet_churn),
    ("fleet_fct", figures::fleet::fleet_fct),
    ("fleet_multiflow", figures::fleet::fleet_multiflow),
    ("l4s_pulse", figures::l4s::l4s_pulse),
    ("l4s_mark_validation", figures::l4s::l4s_mark_validation),
    ("l4s_coexistence", figures::l4s::l4s_coexistence),
];

/// The names in [`ALL_EXPERIMENTS`], in order.
pub fn experiment_names() -> Vec<&'static str> {
    ALL_EXPERIMENTS.iter().map(|&(name, _)| name).collect()
}

/// Run one experiment by name.  Returns the structured result.
pub fn run_experiment(name: &str, quick: bool) -> Option<ExperimentResult> {
    let &(_, run) = ALL_EXPERIMENTS.iter().find(|&&(n, _)| n == name)?;
    Some(run(quick))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_experiments_are_rejected_and_names_are_unique() {
        assert!(run_experiment("nonexistent", true).is_none());
        let mut names = experiment_names();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ALL_EXPERIMENTS.len());
    }

    #[test]
    fn quick_fig07_runs() {
        // fig07 is purely analytic (the pulse waveform) and cheap.
        let r = run_experiment("fig07", true).unwrap();
        assert_eq!(r.name, "fig07");
        assert!(!r.series.is_empty());
    }
}
