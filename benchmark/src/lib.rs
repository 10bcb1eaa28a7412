//! The repo benchmark: four long-run workloads, four end-to-end metrics and
//! a per-layer ledger traced from outside the program.
//!
//! * [`run`] — the untraced run: identical reps for a time box, end-to-end
//!   metrics (`wall_ms_per_sim_s`, `peak_heap_mb`, `allocs_per_sim_s`,
//!   `setup_s`) and the correctness checks.
//! * [`ledger`] — the traced run: the same reps behind the [`shim`]s, spans
//!   collected by [`trace`], isolated [`kernels`], the per-layer metrics.
//! * [`sim`] / [`embed`] — the workloads: three simulator scenarios built
//!   the way `runner::run_scheme_vs_cross` builds them, and a mock host
//!   driving `nimbus-core` with no simulator.
//! * [`compare`] — two sets of runs against the bounds in `BENCHMARK.json`.
//! * [`alloc`], [`laps`], [`stats`], [`report`] — the counting allocator,
//!   the lap marks that split a rep into segments, the estimators, and the
//!   record a run leaves.
//!
//! See `README.md` next to this package for definitions and the first
//! measured ledger.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod alloc;
pub mod compare;
pub mod embed;
pub mod kernels;
pub mod laps;
pub mod ledger;
pub mod report;
pub mod run;
pub mod shim;
pub mod sim;
pub mod stats;
pub mod trace;

/// Every binary and test of this package counts its heap traffic.
#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;
