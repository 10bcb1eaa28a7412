//! # nimbus-experiments
//!
//! The experiment harness: one function per table/figure of the paper, each
//! building the corresponding scenario on the `nimbus-netsim` simulator,
//! running it, and returning (and printing) the same rows or series the paper
//! reports.
//!
//! Every experiment supports a `quick` flag that scales the run down (shorter
//! duration, fewer repetitions) so the whole suite — and the Criterion benches
//! wrapping it — stays tractable on a laptop; the full-size variants use the
//! paper's durations.
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
    CrossSpec, EcnSpec, FleetSpec, HopSpec, LinkScheduleSpec, PathSpec, ScenarioSpec,
    SingleFlowMetrics,
};
pub use scheme::{MuSpec, NimbusSpec, SchemeSpec, SwitchSpec};
pub use sweep::{run_sweep, sweep_matrix, sweep_matrix_with, SweepConfig, SweepReport};
pub use testkit::{
    cells, ecn_cells, estimator_cells, fleet_cells, multihop_cells, paper_invariant_matrix,
    parallel_map, run_matrix, single_bottleneck_cells, spec_combination_cells, Cell, CellOutcome,
    Invariants,
};

/// Names of every experiment the harness can regenerate, in paper order.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "fig01",
    "fig03",
    "fig04",
    "fig05",
    "fig06",
    "fig07",
    "fig08",
    "fig09",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "fig19",
    "fig20",
    "fig21",
    "fig22",
    "fig23",
    "fig24",
    "fig25",
    "fig26",
    "table1",
    "robustness",
    "cellular_estimators",
    "varying_mu",
    "varying_detector",
    "varying_step",
    "varying_estimator",
    "multihop_secondary",
    "multihop_moving",
    "multihop_midpath",
    "fleet_churn",
    "fleet_fct",
    "fleet_multiflow",
    "l4s_pulse",
    "l4s_mark_validation",
    "l4s_coexistence",
];

/// Run one experiment by name.  Returns the structured result.
pub fn run_experiment(name: &str, quick: bool) -> Option<ExperimentResult> {
    let result = match name {
        "fig01" => figures::intro::fig01(quick),
        "fig03" => figures::intro::fig03(quick),
        "fig04" => figures::intro::fig04(quick),
        "fig05" => figures::intro::fig05(quick),
        "fig06" => figures::intro::fig06(quick),
        "fig07" => figures::intro::fig07(),
        "fig08" => figures::eval::fig08(quick),
        "fig09" => figures::eval::fig09(quick),
        "fig10" => figures::eval::fig10(quick),
        "fig11" => figures::eval::fig11(quick),
        "fig12" => figures::eval::fig12(quick),
        "fig13" => figures::eval::fig13(quick),
        "fig14" => figures::robust::fig14(quick),
        "fig15" => figures::robust::fig15(quick),
        "fig16" => figures::multiflow::fig16(quick),
        "fig17" => figures::multiflow::fig17(quick),
        "fig18" => figures::internet::fig18(quick),
        "fig19" => figures::internet::fig19(quick),
        "fig20" => figures::internet::fig20(quick),
        "fig21" => figures::eval::fig21(quick),
        "fig22" => figures::robust::fig22(quick),
        "fig23" => figures::robust::fig23(quick),
        "fig24" => figures::robust::fig24(quick),
        "fig25" => figures::robust::fig25(quick),
        "fig26" => figures::robust::fig26(quick),
        "table1" => figures::robust::table1(quick),
        "robustness" => figures::robust::robustness_sweep(quick),
        "cellular_estimators" => figures::robust::cellular_estimators(quick),
        "varying_mu" => figures::varying::varying_mu(quick),
        "varying_detector" => figures::varying::varying_detector(quick),
        "varying_step" => figures::varying::varying_step(quick),
        "varying_estimator" => figures::varying::varying_estimator(quick),
        "multihop_secondary" => figures::multihop::multihop_secondary(quick),
        "multihop_moving" => figures::multihop::multihop_moving(quick),
        "multihop_midpath" => figures::multihop::multihop_midpath(quick),
        "fleet_churn" => figures::fleet::fleet_churn(quick),
        "fleet_fct" => figures::fleet::fleet_fct(quick),
        "fleet_multiflow" => figures::fleet::fleet_multiflow(quick),
        "l4s_pulse" => figures::l4s::l4s_pulse(quick),
        "l4s_mark_validation" => figures::l4s::l4s_mark_validation(quick),
        "l4s_coexistence" => figures::l4s::l4s_coexistence(quick),
        _ => return None,
    };
    Some(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_experiment_is_dispatchable() {
        // Only check dispatch (not execution) for the expensive ones: an
        // unknown name must return None, known names are all in the list.
        assert!(run_experiment("nonexistent", true).is_none());
        assert_eq!(ALL_EXPERIMENTS.len(), 41);
    }

    #[test]
    fn quick_fig07_runs() {
        // fig07 is purely analytic (the pulse waveform) and cheap.
        let r = run_experiment("fig07", true).unwrap();
        assert_eq!(r.name, "fig07");
        assert!(!r.series.is_empty());
    }
}
