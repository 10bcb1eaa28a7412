//! The `sweep` subcommand: run the paper-invariant matrix
//! ([`paper_invariant_matrix`]) in parallel and record per-cell wall-clock
//! and events-per-second throughput.
//!
//! This promotes the testkit's work queue ([`parallel_map`]) into a
//! user-facing command.  It gates nothing: the repository's performance
//! contract is `BENCHMARK.json` (run by `benchmark/run.sh`).  The sweep is
//! the tool for harness thread scaling (`--threads 1/2/4` over the same
//! matrix) and for finding a cell to profile; [`Cell::run`] holds every
//! cell to an exact event budget.  Each report row is named by its cell's
//! canonical string and carries the fingerprint its ledger row pins.
//!
//! Whole-cell strings in the testkit's grammar
//! (`sweep 'dctcp@48M ecn=l4s vs alone seed=1 dur=3s steady=1s'`) replace
//! the matrix, benchmarking exactly those cells.

use crate::testkit::{paper_invariant_matrix, parallel_map, worker_count, Cell};
use serde::Serialize;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Options for a sweep run.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Worker-thread cap (`None` = one per available core).
    pub threads: Option<usize>,
    /// Where to write the JSON report (`target/sweep/sweep.json` by default).
    pub out: PathBuf,
    /// The cells to run instead of the matrix (the CLI's `CELL` operands);
    /// empty runs [`paper_invariant_matrix`].
    pub cells: Vec<Cell>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            threads: None,
            out: PathBuf::from("target").join("sweep").join("sweep.json"),
            cells: Vec::new(),
        }
    }
}

/// Per-cell benchmark record.
#[derive(Debug, Clone, Serialize)]
pub struct SweepCellResult {
    /// The cell's canonical string (`<scheme>@<scenario> steady=<dur>`).
    pub name: String,
    /// Simulated seconds covered by the cell.
    pub sim_s: f64,
    /// Wall-clock seconds the cell took, its fingerprint's hash included.
    pub wall_s: f64,
    /// Engine events processed.
    pub events: u64,
    /// Events per wall-clock second — the headline perf number.
    pub events_per_sec: f64,
    /// Simulated seconds per wall-clock second.
    pub sim_speedup: f64,
    /// Steady-state throughput of the monitored flow, Mbit/s (sanity anchor
    /// so a "faster" sweep that simulates garbage is caught).
    pub mean_throughput_mbps: f64,
    /// `CellOutcome::fingerprint`, the hash a ledger row pins, as `0x` and 16
    /// hex digits (a JSON number would lose the bits above 2^53).
    pub fingerprint: String,
}

/// The whole sweep report (serialized to [`SweepConfig::out`]).
#[derive(Debug, Clone, Serialize)]
pub struct SweepReport {
    /// Report format marker.
    pub schema: String,
    /// Worker threads spawned ([`worker_count`]).
    pub threads: usize,
    /// Number of cells in the matrix.
    pub cell_count: usize,
    /// Total wall-clock seconds for the whole sweep.
    pub total_wall_s: f64,
    /// Sum of all per-cell events.
    pub total_events: u64,
    /// Aggregate events per wall-clock second across the parallel sweep.
    pub aggregate_events_per_sec: f64,
    /// Per-cell records, in matrix order.
    pub cells: Vec<SweepCellResult>,
}

/// Run the sweep's cells ([`SweepConfig::cells`], or else the matrix) in
/// parallel, timing each cell, and write the report.
pub fn run_sweep(cfg: &SweepConfig) -> std::io::Result<SweepReport> {
    let matrix;
    let cells = if cfg.cells.is_empty() {
        matrix = paper_invariant_matrix();
        &matrix
    } else {
        &cfg.cells
    };
    let threads = worker_count(cfg.threads, cells.len());
    let started = Instant::now();
    let results = parallel_map(cells, Some(threads), |cell| {
        let cell_start = Instant::now();
        let outcome = cell.run();
        let wall_s = cell_start.elapsed().as_secs_f64();
        SweepCellResult {
            name: outcome.name,
            sim_s: outcome.sim_s,
            wall_s,
            events: outcome.events,
            events_per_sec: outcome.events as f64 / wall_s.max(1e-9),
            sim_speedup: outcome.sim_s / wall_s.max(1e-9),
            mean_throughput_mbps: outcome.metrics.mean_throughput_mbps,
            fingerprint: format!("{:#018x}", outcome.fingerprint),
        }
    });
    let total_wall_s = started.elapsed().as_secs_f64();
    let total_events: u64 = results.iter().map(|r| r.events).sum();
    let report = SweepReport {
        schema: "nimbus-sweep-v1".to_string(),
        threads,
        cell_count: results.len(),
        total_wall_s,
        total_events,
        aggregate_events_per_sec: total_events as f64 / total_wall_s.max(1e-9),
        cells: results,
    };
    write_report(&report, &cfg.out)?;
    Ok(report)
}

/// Serialize a report to `path` as pretty-printed JSON.
pub fn write_report(report: &SweepReport, path: &Path) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, serde_json::to_string_pretty(report).unwrap())
}

/// Render the report as an aligned text table for the terminal.
pub fn report_table(report: &SweepReport) -> String {
    let mut out = format!(
        "== sweep ({} cells, {} threads, {:.1} s wall, {:.0} events/s aggregate) ==\n",
        report.cell_count, report.threads, report.total_wall_s, report.aggregate_events_per_sec
    );
    for c in &report.cells {
        out.push_str(&format!(
            "{:6.1} sim-s  {:7.3} wall-s  {:9} ev  {:10.0} ev/s  {:7.2} Mbit/s  {}\n",
            c.sim_s, c.wall_s, c.events, c.events_per_sec, c.mean_throughput_mbps, c.name
        ));
    }
    out
}
