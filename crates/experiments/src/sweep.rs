//! The `sweep` subcommand: run the paper-invariant matrix
//! ([`paper_invariant_matrix`]) in parallel and record per-cell wall-clock
//! and events-per-second throughput.
//!
//! This promotes the testkit's work queue ([`parallel_map`]) into a
//! user-facing command.  It gates no timing: the repository's performance
//! contract is `BENCHMARK.json` (run by `benchmark/run.sh`).  The sweep is
//! the tool for harness thread scaling (`--threads 1/2/4` over the same
//! matrix) and for finding a cell to profile; [`Cell::run`] holds every
//! cell to its invariants and an exact event budget, and a row carries the
//! violations it found ([`SweepReport::violated`]).  Each report row is
//! named by its cell's canonical string and carries the fingerprint its
//! ledger row pins.
//!
//! Whole-cell strings in the testkit's grammar
//! (`sweep 'dctcp@48M ecn=l4s vs alone seed=1 dur=3s steady=1s'`) replace
//! the matrix, benchmarking exactly those cells.

use crate::testkit::{paper_invariant_matrix, parallel_map, worker_count, Cell, CellOutcome};
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
    /// `CellOutcome::violations`: the cell's broken invariants and event
    /// budget (empty = pass).
    pub violations: Vec<String>,
    /// Share of the steady window the monitored flow spent in delay mode
    /// (1 for a scheme without modes).
    pub delay_mode_fraction: f64,
    /// Detector verdicts the monitored flow issued (0 for a scheme without
    /// a detector).
    pub verdicts: usize,
}

impl SweepCellResult {
    /// The row for `outcome`, whose cell took `wall_s` seconds.
    pub fn new(outcome: CellOutcome, wall_s: f64) -> Self {
        SweepCellResult {
            name: outcome.name,
            sim_s: outcome.sim_s,
            wall_s,
            events: outcome.events,
            events_per_sec: outcome.events as f64 / wall_s.max(1e-9),
            sim_speedup: outcome.sim_s / wall_s.max(1e-9),
            mean_throughput_mbps: outcome.metrics.mean_throughput_mbps,
            fingerprint: format!("{:#018x}", outcome.fingerprint),
            violations: outcome.violations,
            delay_mode_fraction: outcome.metrics.delay_mode_fraction,
            verdicts: outcome.metrics.eta_series.len(),
        }
    }
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

impl SweepReport {
    /// Whether any cell violated its invariants or event budget: the
    /// `sweep` command then exits 1.
    pub fn violated(&self) -> bool {
        self.cells.iter().any(|c| !c.violations.is_empty())
    }
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
        SweepCellResult::new(outcome, cell_start.elapsed().as_secs_f64())
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

/// Render the report as an aligned text table for the terminal, one row per
/// cell with its time in delay mode, its verdict count and its count of
/// violations.
pub fn report_table(report: &SweepReport) -> String {
    let mut out = format!(
        "== sweep ({} cells, {} threads, {:.1} s wall, {:.0} events/s aggregate) ==\n",
        report.cell_count, report.threads, report.total_wall_s, report.aggregate_events_per_sec
    );
    for c in &report.cells {
        out.push_str(&format!(
            "{:6.1} sim-s  {:7.3} wall-s  {:9} ev  {:10.0} ev/s  {:7.2} Mbit/s  {:4.2} delay  {:5} verdicts  {:2} viol  {}\n",
            c.sim_s,
            c.wall_s,
            c.events,
            c.events_per_sec,
            c.mean_throughput_mbps,
            c.delay_mode_fraction,
            c.verdicts,
            c.violations.len(),
            c.name
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::SingleFlowMetrics;

    /// A Cubic cell's outcome: no modes, no detector.
    fn outcome(name: &str, violations: Vec<String>) -> CellOutcome {
        CellOutcome {
            name: name.to_string(),
            metrics: SingleFlowMetrics {
                label: "cubic".to_string(),
                mean_throughput_mbps: 40.0,
                mean_rtt_ms: 60.0,
                mean_queue_delay_ms: 10.0,
                throughput_series: Vec::new(),
                queue_delay_series: Vec::new(),
                rtt_series: Vec::new(),
                delay_mode_fraction: 1.0,
                mode_log: Vec::new(),
                eta_series: Vec::new(),
                mu_series: Vec::new(),
                mu_tracking_error: f64::NAN,
            },
            violations,
            fingerprint: 0xabc,
            events: 1_000,
            sim_s: 2.0,
        }
    }

    #[test]
    fn a_row_says_what_the_detector_did() {
        let mut nimbus = outcome("nimbus", Vec::new());
        nimbus.metrics.label = "nimbus".to_string();
        nimbus.metrics.delay_mode_fraction = 0.25;
        nimbus.metrics.eta_series = vec![(5.0, 0.9), (5.01, 0.4), (5.02, 0.3)];
        let row = SweepCellResult::new(nimbus, 0.5);
        assert_eq!((row.delay_mode_fraction, row.verdicts), (0.25, 3));
        let cubic = SweepCellResult::new(outcome("cubic", Vec::new()), 0.5);
        assert_eq!((cubic.delay_mode_fraction, cubic.verdicts), (1.0, 0));

        let report = SweepReport {
            schema: "nimbus-sweep-v1".to_string(),
            threads: 1,
            cell_count: 2,
            total_wall_s: 1.0,
            total_events: 2_000,
            aggregate_events_per_sec: 2_000.0,
            cells: vec![row, cubic],
        };
        let table = report_table(&report);
        assert!(
            table.contains("0.25 delay      3 verdicts   0 viol  nimbus\n"),
            "{table}"
        );
        assert!(
            table.contains("1.00 delay      0 verdicts   0 viol  cubic\n"),
            "{table}"
        );
        let json = serde_json::to_string(&report).unwrap();
        assert!(
            json.contains(r#""delay_mode_fraction":0.25,"verdicts":3}"#),
            "{json}"
        );
        assert!(
            json.contains(r#""delay_mode_fraction":1,"verdicts":0}"#),
            "{json}"
        );
    }

    #[test]
    fn a_violating_cell_is_counted_in_its_row_and_fails_the_sweep() {
        let pass = SweepCellResult::new(outcome("good", Vec::new()), 0.5);
        let broken = vec!["throughput 40.00 < 50".to_string()];
        let fail = SweepCellResult::new(outcome("bad", broken), 0.5);
        let report = |cells: Vec<SweepCellResult>| SweepReport {
            schema: "nimbus-sweep-v1".to_string(),
            threads: 1,
            cell_count: cells.len(),
            total_wall_s: 1.0,
            total_events: 2_000,
            aggregate_events_per_sec: 2_000.0,
            cells,
        };
        assert!(!report(vec![pass.clone()]).violated());
        let report = report(vec![pass, fail]);
        assert!(report.violated());
        let table = report_table(&report);
        assert!(table.contains(" 0 viol  good\n"), "{table}");
        assert!(table.contains(" 1 viol  bad\n"), "{table}");
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains(r#""violations":[]"#), "{json}");
        assert!(
            json.contains(r#""violations":["throughput 40.00 < 50"]"#),
            "{json}"
        );
    }
}
