//! The `sweep` subcommand: run a (scheme × cross-traffic × bottleneck ×
//! schedule × seed) matrix in parallel and record per-cell wall-clock and
//! events-per-second throughput.
//!
//! This promotes the testkit's work queue ([`parallel_map`]) into a
//! user-facing command.  It gates nothing: the repository's performance
//! contract is `BENCHMARK.json` (run by `benchmark/run.sh`).  The sweep is
//! the tool for harness thread scaling (`--threads 1/2/4` over the same
//! matrix) and for finding a cell to profile; `tests/scenario_matrix.rs`
//! holds every quick cell to an exact event budget.
//!
//! Whole-cell strings in the testkit's grammar
//! (`sweep 'dctcp@48M ecn=l4s vs alone seed=1 dur=3s steady=1s'`) replace
//! the matrix, benchmarking exactly those cells.

use crate::testkit::{parallel_map, worker_count, Cell};
use serde::Serialize;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Options for a sweep run.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Scale the matrix down (shorter cells, fewer dimensions).
    pub quick: bool,
    /// Worker-thread cap (`None` = one per available core).
    pub threads: Option<usize>,
    /// Where to write the JSON report (`target/sweep/sweep.json` by default).
    pub out: PathBuf,
    /// The cells to run instead of the matrix (the CLI's `CELL` operands);
    /// empty runs [`sweep_matrix`].
    pub cells: Vec<Cell>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            quick: false,
            threads: None,
            out: PathBuf::from("target").join("sweep").join("sweep.json"),
            cells: Vec::new(),
        }
    }
}

/// Per-cell benchmark record.
#[derive(Debug, Clone, Serialize)]
pub struct SweepCellResult {
    /// Cell name (`scheme@rate[-schedule]-vs-cross-seedN`).
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
    /// Whether the quick matrix was run.
    pub quick: bool,
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

/// The benchmark matrix: schemes × cross traffic × link rates × schedules ×
/// seeds.  The quick variant covers every schedule family but trims the
/// slower dimensions so CI can afford it per-PR.
///
/// Every cell is a whole-cell string (`<scheme>@<link> vs <cross> …`, the
/// testkit's grammar) built from the axes below; the sweep benchmarks, it
/// does not assert, so the cells carry no invariants.
pub fn sweep_matrix(quick: bool) -> Vec<Cell> {
    let schemes: &[&str] = if quick {
        &["nimbus", "cubic"]
    } else {
        &["nimbus", "cubic", "vegas", "bbr"]
    };
    let crosses: &[&str] = if quick {
        &["alone", "cbr@0.5"]
    } else {
        &["alone", "cbr@0.5", "poisson@0.5", "cubic"]
    };
    let rates: &[&str] = if quick { &["48M"] } else { &["48M", "96M"] };
    let seeds: &[u64] = if quick { &[1] } else { &[1, 2] };
    let (duration_s, step_at_s) = if quick { (15.0, 7.0) } else { (40.0, 15.0) };
    let schedules = [
        String::new(),
        "sin(0.25,10s)".to_string(),
        format!("step({step_at_s}s,0.5)"),
    ];
    let cell = |scheme: &str, link: &str, cross: &str, seed: u64| -> Cell {
        let steady_s = duration_s * 0.25;
        let text =
            format!("{scheme}@{link} vs {cross} seed={seed} dur={duration_s}s steady={steady_s}s");
        text.parse()
            .unwrap_or_else(|e| panic!("sweep cell `{text}`: {e}"))
    };

    let mut cells = Vec::new();
    for scheme in schemes {
        for cross in crosses {
            for rate in rates {
                for schedule in &schedules {
                    for &seed in seeds {
                        cells.push(cell(scheme, &format!("{rate} {schedule}"), cross, seed));
                    }
                }
            }
        }
    }

    // Multi-hop path cells: per-cell events/sec under path topologies, in
    // the same report as the single-link cells.  Two path shapes — a fixed
    // secondary bottleneck and a moving bottleneck (anti-phase steps on hops
    // 0 and 1) — across the scheme dimension.
    let swap_s = duration_s * 0.45;
    let paths = [
        "48M hop(0.6)".to_string(),
        format!("48M step({swap_s}s,0.5) hop(0.5,sched=step({swap_s}s,2))"),
    ];
    let path_crosses: &[&str] = if quick {
        &["alone"]
    } else {
        &["alone", "cbr@0.3"]
    };
    for scheme in schemes {
        for path in &paths {
            for cross in path_crosses {
                cells.push(cell(scheme, path, cross, 1));
            }
        }
    }

    let extras = [
        // New-combination cells: schemes and competition shapes only the
        // compositional `SchemeSpec` grammar can assemble, plus a curated
        // built-in trace.  Keeping them in the quick matrix means the event
        // budget covers the spec-built path, not just the paper's own
        // combinations.
        ("nimbus(competitive=reno)", "48M", "cubic"),
        ("nimbus(delay=copa,mu=learned)", "48M sin(0.1,10s)", "alone"),
        ("nimbus", "48M", "copa+cubic"),
        ("cubic", "48M trace-cellular", "alone"),
        // The estimator axis of the µ-estimation API: the probing strategy
        // on the deep-fade trace it recovers, and the adaptive ẑ thresholds
        // on the sinusoid regime they recover — both in the quick matrix so
        // the strategy hot paths are covered.
        ("nimbus(mu=learned(probe=1))", "48M trace-cellular", "alone"),
        (
            "nimbus(mu=learned,zfilter=adaptive)",
            "48M sin(0.1,10s)",
            "alone",
        ),
        // ECN cells in the quick matrix: the marking hot path (per-enqueue
        // threshold checks + CE echo + the per-hop mark counters) and the
        // DCTCP reaction are exercised under the three marking profiles, so
        // a regression in the mark path shows up here rather than only in
        // the gated matrix.
        ("dctcp", "48M ecn=l4s", "alone"),
        ("cubic", "48M ecn=classic", "alone"),
        ("nimbus", "48M ecn=classic", "cubic"),
        // Population-scale churn in the quick matrix: a 1 Gbit/s bottleneck
        // with an open-loop Poisson fleet at 50% load spawns and retires
        // ~550 flows/s, so this one cell churns through thousands of flow
        // lifetimes — the spawner/retirement hot path regresses here long
        // before it would show in the static-flow cells.
        ("nimbus", "1G", "fleet(load=0.5)"),
    ];
    for (scheme, link, cross) in extras {
        cells.push(cell(scheme, link, cross, 1));
    }
    cells
}

/// Run the sweep's cells ([`SweepConfig::cells`], or else the matrix) in
/// parallel, timing each cell, and write the report.
pub fn run_sweep(cfg: &SweepConfig) -> std::io::Result<SweepReport> {
    let matrix;
    let cells = if cfg.cells.is_empty() {
        matrix = sweep_matrix(cfg.quick);
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
        quick: cfg.quick,
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
            "{:52} {:6.1} sim-s  {:7.3} wall-s  {:9} ev  {:10.0} ev/s  {:7.2} Mbit/s\n",
            c.name, c.sim_s, c.wall_s, c.events, c.events_per_sec, c.mean_throughput_mbps
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::LinkScheduleSpec;

    #[test]
    fn quick_matrix_covers_every_schedule_family_and_is_unique() {
        let cells = sweep_matrix(true);
        assert!(cells.len() >= 10, "quick matrix too small: {}", cells.len());
        let mut names: Vec<String> = cells.iter().map(|c| c.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), cells.len(), "cell names must be unique");
        let has =
            |pred: fn(&LinkScheduleSpec) -> bool| cells.iter().any(|c| pred(&c.scenario.schedule));
        assert!(has(|s| matches!(s, LinkScheduleSpec::Sinusoid { .. })));
        assert!(has(|s| matches!(s, LinkScheduleSpec::Step { .. })));
        assert!(has(|s| *s == LinkScheduleSpec::Constant));
        // The full matrix is a strict superset in every dimension.
        let full = sweep_matrix(false);
        assert!(full.len() > cells.len() * 4);
    }
}
