//! The `sweep` subcommand: run a (scheme × cross-traffic × bottleneck ×
//! schedule × seed) matrix in parallel and record per-cell wall-clock and
//! events-per-second throughput as a benchmark baseline.
//!
//! This promotes the testkit's work-queue parallelism
//! ([`parallel_map`]) into a user-facing
//! command: every future PR can run `nimbus-experiments sweep --quick` and
//! diff the resulting `BENCH_sweep.json` against the committed baseline to
//! see whether the hot paths got faster or slower.
//!
//! The scheme axis takes [`SchemeSpec`] strings: repeated `--scheme` flags
//! (`sweep --scheme 'nimbus(competitive=reno,mu=learned)' --scheme cubic`)
//! replace the default axis, benchmarking exactly those schemes across the
//! cross-traffic/rate/schedule dimensions.

use crate::runner::EcnSpec;
use crate::scheme::SchemeSpec;
use crate::testkit::{parallel_map, Cell};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Options for a sweep run.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Scale the matrix down (shorter cells, fewer dimensions).
    pub quick: bool,
    /// Worker-thread cap (`None` = one per available core).
    pub threads: Option<usize>,
    /// Where to write the JSON report.
    pub out: PathBuf,
    /// Override the matrix's scheme axis (`--scheme` on the CLI, repeatable,
    /// each value a [`SchemeSpec`] string).  `None` runs the default axis.
    pub schemes: Option<Vec<SchemeSpec>>,
    /// Run every cell with this marking profile on the primary bottleneck
    /// (`--ecn` on the CLI).  `None` keeps each cell's own setting.
    pub ecn: Option<EcnSpec>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            quick: false,
            threads: None,
            out: PathBuf::from("BENCH_sweep.json"),
            schemes: None,
            ecn: None,
        }
    }
}

/// Per-cell benchmark record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepCellResult {
    /// Cell name (`scheme@rate[-schedule]-vs-cross-seedN`).
    pub name: String,
    /// Simulated seconds covered by the cell.
    pub sim_s: f64,
    /// Wall-clock seconds the cell took.
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
}

/// The whole sweep report (serialized to `BENCH_sweep.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepReport {
    /// Report format marker.
    pub schema: String,
    /// Whether the quick matrix was run.
    pub quick: bool,
    /// Worker threads used.
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
pub fn sweep_matrix(quick: bool) -> Vec<Cell> {
    sweep_matrix_with(quick, None)
}

/// [`sweep_matrix`] with an optional override of the scheme axis: pass the
/// specs from repeated `--scheme` flags to benchmark exactly those schemes
/// across the cross/rate/schedule dimensions and the multi-hop path shapes.
/// The fixed new-combination slice (spec-built wrapper compositions, the
/// built-in trace) is only appended for the default axis — it exists to
/// keep the CI perf gate covering those paths, not to dilute an explicit
/// axis.
///
/// Every cell is a whole-cell string (`<scheme>@<link> vs <cross> …`, the
/// testkit's grammar) built from the axes below; the sweep benchmarks, it
/// does not assert, so the cells carry no invariants.
pub fn sweep_matrix_with(quick: bool, scheme_axis: Option<&[SchemeSpec]>) -> Vec<Cell> {
    let schemes: Vec<String> = match scheme_axis {
        Some(axis) => axis.iter().map(SchemeSpec::to_string).collect(),
        None if quick => vec!["nimbus".into(), "cubic".into()],
        None => vec![
            "nimbus".into(),
            "cubic".into(),
            "vegas".into(),
            "bbr".into(),
        ],
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
    for scheme in &schemes {
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

    // Multi-hop path cells: per-cell events/sec under path topologies is
    // tracked from the same baseline as the single-link cells.  Two path
    // shapes — a fixed secondary bottleneck and a moving bottleneck (anti-
    // phase steps on hops 0 and 1) — across the scheme dimension.
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
    for scheme in &schemes {
        for path in &paths {
            for cross in path_crosses {
                cells.push(cell(scheme, path, cross, 1));
            }
        }
    }

    if scheme_axis.is_none() {
        let extras = [
            // New-combination cells (default axis only): schemes and
            // competition shapes only the compositional `SchemeSpec` grammar
            // can assemble, plus a curated built-in trace.  Keeping them in
            // the quick matrix means the CI perf gate covers the spec-built
            // path, not just the paper's own combinations.
            ("nimbus(competitive=reno)", "48M", "cubic"),
            ("nimbus(delay=copa,mu=learned)", "48M sin(0.1,10s)", "alone"),
            ("nimbus", "48M", "copa+cubic"),
            ("cubic", "48M trace-cellular", "alone"),
            // The estimator axis of the µ-estimation API: the probing
            // strategy on the deep-fade trace it recovers, and the adaptive
            // ẑ thresholds on the sinusoid regime they recover — both in
            // the per-PR perf gate so the strategy hot paths are tracked.
            ("nimbus(mu=learned(probe=1))", "48M trace-cellular", "alone"),
            (
                "nimbus(mu=learned,zfilter=adaptive)",
                "48M sin(0.1,10s)",
                "alone",
            ),
            // ECN cells in the per-PR perf gate: the marking hot path (per-
            // enqueue threshold checks + CE echo + the mark recorder series)
            // and the DCTCP reaction are exercised under the three marking
            // profiles, so a regression in the mark path shows up here rather
            // than only in the gated matrix.
            ("dctcp", "48M ecn=l4s", "alone"),
            ("cubic", "48M ecn=classic", "alone"),
            ("nimbus", "48M ecn=classic", "cubic"),
            // Population-scale churn in the per-PR perf gate: a 1 Gbit/s
            // bottleneck with an open-loop Poisson fleet at 50% load spawns and
            // retires ~550 flows/s, so this one cell churns through thousands of
            // flow lifetimes — the spawner/retirement hot path regresses here
            // long before it would show in the static-flow cells.
            ("nimbus", "1G", "fleet(load=0.5)"),
        ];
        for (scheme, link, cross) in extras {
            cells.push(cell(scheme, link, cross, 1));
        }
    }
    cells
}

/// Run the sweep matrix in parallel, timing each cell, and write the report.
pub fn run_sweep(cfg: &SweepConfig) -> std::io::Result<SweepReport> {
    let mut cells = sweep_matrix_with(cfg.quick, cfg.schemes.as_deref());
    if let Some(ecn) = cfg.ecn {
        for cell in &mut cells {
            cell.scenario.ecn = ecn;
        }
    }
    let threads = cfg
        .threads
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        })
        .max(1);
    let started = Instant::now();
    let results = parallel_map(&cells, Some(threads), |cell| {
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

/// Per-cell wall time in flamegraph folded-stack format, one line per cell:
/// `sweep;<cell name> <wall µs>`.  Feed the file straight to `flamegraph.pl`
/// (or any folded-stack viewer) to get a width-proportional picture of where
/// the sweep's wall clock went, without rerunning anything.
pub fn folded_timings(report: &SweepReport) -> String {
    let mut out = String::new();
    for cell in &report.cells {
        out.push_str(&format!(
            "sweep;{} {}\n",
            cell.name,
            (cell.wall_s * 1e6).round() as u64
        ));
    }
    out
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

/// Compare a fresh sweep against a committed baseline: any cell present in
/// both whose events-per-second fell by more than `threshold` (a fraction,
/// e.g. 0.3 = 30%) *relative to the median movement across all shared cells*
/// is reported as a regression.
///
/// Normalizing by the median current/baseline ratio makes the gate
/// machine-portable: the committed baseline is measured on whatever machine
/// last re-baselined, while CI runs on shared runners with different (and
/// noisy) absolute speeds — a uniform speed shift moves every cell's ratio
/// together and is absorbed by the median, whereas a genuine per-scenario
/// pathology (the historic failure modes were event storms in *one* cell)
/// lags the rest of the matrix and is flagged.  The trade-off: a perfectly
/// uniform global slowdown re-baselines silently; the report's
/// `aggregate_events_per_sec` remains the eyeball check for that.
///
/// Cells only present on one side (matrix changes) are ignored — they
/// establish a new baseline instead.
pub fn perf_regressions(
    baseline: &SweepReport,
    current: &SweepReport,
    threshold: f64,
) -> Vec<String> {
    let base: std::collections::HashMap<&str, &SweepCellResult> = baseline
        .cells
        .iter()
        .map(|c| (c.name.as_str(), c))
        .collect();
    let shared: Vec<(&SweepCellResult, f64)> = current
        .cells
        .iter()
        .filter_map(|cell| {
            let b = base.get(cell.name.as_str())?;
            (b.events_per_sec > 0.0).then(|| (cell, cell.events_per_sec / b.events_per_sec))
        })
        .collect();
    if shared.is_empty() {
        return Vec::new();
    }
    let mut sorted: Vec<f64> = shared.iter().map(|&(_, r)| r).collect();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("ratios are finite"));
    let median = sorted[sorted.len() / 2];
    let mut regressions = Vec::new();
    for (cell, ratio) in shared {
        if ratio < median * (1.0 - threshold) {
            regressions.push(format!(
                "{}: {:.0} ev/s, {:.0}% of baseline (matrix median {:.0}%)",
                cell.name,
                cell.events_per_sec,
                ratio * 100.0,
                median * 100.0
            ));
        }
    }
    regressions
}

/// Render the per-cell current/baseline events-per-second comparison as an
/// aligned table sorted worst-first (lowest ratio at the top), with the
/// matrix median as the reference line.  `sweep-check` prints this
/// unconditionally, pass or fail: the next anomalous cell should be visible
/// in CI logs directly, not buried in two JSON files.  Cells present on only
/// one side (matrix changes) are listed after the shared cells.
pub fn ratio_table(baseline: &SweepReport, current: &SweepReport) -> String {
    let base: std::collections::HashMap<&str, &SweepCellResult> = baseline
        .cells
        .iter()
        .map(|c| (c.name.as_str(), c))
        .collect();
    let mut shared: Vec<(&SweepCellResult, &SweepCellResult, f64)> = current
        .cells
        .iter()
        .filter_map(|cell| {
            let b = base.get(cell.name.as_str())?;
            (b.events_per_sec > 0.0).then(|| (cell, *b, cell.events_per_sec / b.events_per_sec))
        })
        .collect();
    shared.sort_by(|a, b| a.2.partial_cmp(&b.2).expect("ratios are finite"));
    let mut out = String::new();
    if shared.is_empty() {
        out.push_str("no cells shared between baseline and current report\n");
    } else {
        let mut ratios: Vec<f64> = shared.iter().map(|&(_, _, r)| r).collect();
        ratios.sort_by(|a, b| a.partial_cmp(b).expect("ratios are finite"));
        let median = ratios[ratios.len() / 2];
        out.push_str(&format!(
            "== per-cell current/baseline events-per-second, worst first (median {:.0}%) ==\n",
            median * 100.0
        ));
        out.push_str(&format!(
            "{:55} {:>12} {:>12} {:>8}\n",
            "cell", "current", "baseline", "ratio"
        ));
        for (cur, b, ratio) in &shared {
            out.push_str(&format!(
                "{:55} {:>12.0} {:>12.0} {:>7.0}%\n",
                cur.name,
                cur.events_per_sec,
                b.events_per_sec,
                ratio * 100.0
            ));
        }
    }
    let current_names: std::collections::HashSet<&str> =
        current.cells.iter().map(|c| c.name.as_str()).collect();
    for cell in &current.cells {
        if !base.contains_key(cell.name.as_str()) {
            out.push_str(&format!(
                "{:55} {:>12.0} {:>12} {:>8}\n",
                cell.name, cell.events_per_sec, "-", "new"
            ));
        }
    }
    for cell in &baseline.cells {
        if !current_names.contains(cell.name.as_str()) {
            out.push_str(&format!(
                "{:55} {:>12} {:>12.0} {:>8}\n",
                cell.name, "-", cell.events_per_sec, "gone"
            ));
        }
    }
    out
}

/// Read a sweep report back from disk.
pub fn read_report(path: &Path) -> std::io::Result<SweepReport> {
    let text = std::fs::read_to_string(path)?;
    serde_json::from_str(&text)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{e:?}")))
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
        // (Which cells the quick matrix holds is pinned name by name against
        // BENCH_sweep.json in tests/scenario_matrix.rs.)
        // The full matrix is a strict superset in every dimension.
        let full = sweep_matrix(false);
        assert!(full.len() > cells.len() * 4);
    }

    #[test]
    fn scheme_axis_override_benchmarks_exactly_those_schemes() {
        let axis = vec![SchemeSpec::vegas()];
        let cells = sweep_matrix_with(true, Some(&axis));
        assert!(!cells.is_empty());
        assert!(cells.iter().all(|c| c.scheme == SchemeSpec::vegas()));
        // The default-axis extras are not appended for an explicit axis.
        assert!(cells.iter().all(|c| !c.name().contains("copa+cubic")));
    }

    #[test]
    fn perf_regressions_flag_only_genuine_slowdowns() {
        let cell = |name: &str, eps: f64| SweepCellResult {
            name: name.to_string(),
            sim_s: 15.0,
            wall_s: 1.0,
            events: 1000,
            events_per_sec: eps,
            sim_speedup: 15.0,
            mean_throughput_mbps: 40.0,
        };
        let report = |cells: Vec<SweepCellResult>| SweepReport {
            schema: "nimbus-sweep-v1".to_string(),
            quick: true,
            threads: 1,
            cell_count: cells.len(),
            total_wall_s: 1.0,
            total_events: 1000,
            aggregate_events_per_sec: 1000.0,
            cells,
        };
        let baseline = report(vec![
            cell("a", 1000.0),
            cell("b", 1000.0),
            cell("c", 1000.0),
            cell("d", 1000.0),
            cell("gone", 500.0),
        ]);
        // A uniformly 2x-slower machine: every ratio moves together, the
        // median absorbs it, no false positives.
        let slower_machine = report(vec![
            cell("a", 500.0),
            cell("b", 500.0),
            cell("c", 500.0),
            cell("d", 500.0),
        ]);
        assert!(perf_regressions(&baseline, &slower_machine, 0.3).is_empty());

        // One pathological cell lagging an otherwise-faster run is flagged;
        // cells absent from the baseline are ignored.
        let one_bad_cell = report(vec![
            cell("a", 1200.0),
            cell("b", 1150.0),
            cell("c", 1250.0),
            cell("d", 400.0),  // ~33% of the ~1.2 median: regression
            cell("new", 10.0), // not in baseline: ignored
        ]);
        let regs = perf_regressions(&baseline, &one_bad_cell, 0.3);
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert!(regs[0].starts_with("d:"), "{}", regs[0]);
        // A loose-enough threshold clears it.
        assert!(perf_regressions(&baseline, &one_bad_cell, 0.7).is_empty());
    }

    #[test]
    fn ratio_table_sorts_worst_first_and_marks_matrix_changes() {
        let cell = |name: &str, eps: f64| SweepCellResult {
            name: name.to_string(),
            sim_s: 15.0,
            wall_s: 1.0,
            events: 1000,
            events_per_sec: eps,
            sim_speedup: 15.0,
            mean_throughput_mbps: 40.0,
        };
        let report = |cells: Vec<SweepCellResult>| SweepReport {
            schema: "nimbus-sweep-v1".to_string(),
            quick: true,
            threads: 1,
            cell_count: cells.len(),
            total_wall_s: 1.0,
            total_events: 1000,
            aggregate_events_per_sec: 1000.0,
            cells,
        };
        let baseline = report(vec![
            cell("fast", 1000.0),
            cell("slow", 1000.0),
            cell("gone", 800.0),
        ]);
        let current = report(vec![
            cell("fast", 2000.0),
            cell("slow", 250.0),
            cell("new", 500.0),
        ]);
        let table = ratio_table(&baseline, &current);
        // Worst ratio (25%) sorts above the best (200%).
        let slow_pos = table.find("slow").expect("slow cell listed");
        let fast_pos = table.find("fast").expect("fast cell listed");
        assert!(slow_pos < fast_pos, "worst cell must come first:\n{table}");
        assert!(table.contains("25%"), "{table}");
        assert!(table.contains("200%"), "{table}");
        // Cells on only one side are marked, not silently dropped.
        assert!(table.contains("new"), "{table}");
        assert!(table.contains("gone"), "{table}");
    }

    #[test]
    fn folded_timings_is_one_stack_line_per_cell_in_microseconds() {
        let report = SweepReport {
            schema: "nimbus-sweep-v1".to_string(),
            quick: true,
            threads: 1,
            cell_count: 2,
            total_wall_s: 1.75,
            total_events: 3000,
            aggregate_events_per_sec: 1714.0,
            cells: vec![
                SweepCellResult {
                    name: "cubic@48M-vs-alone-seed1".to_string(),
                    sim_s: 15.0,
                    wall_s: 0.5,
                    events: 1000,
                    events_per_sec: 2000.0,
                    sim_speedup: 30.0,
                    mean_throughput_mbps: 45.0,
                },
                SweepCellResult {
                    name: "nimbus@48M-step50@7-vs-cbr50-seed1".to_string(),
                    sim_s: 15.0,
                    wall_s: 1.25,
                    events: 2000,
                    events_per_sec: 1600.0,
                    sim_speedup: 12.0,
                    mean_throughput_mbps: 40.0,
                },
            ],
        };
        let folded = folded_timings(&report);
        assert_eq!(
            folded,
            "sweep;cubic@48M-vs-alone-seed1 500000\n\
             sweep;nimbus@48M-step50@7-vs-cbr50-seed1 1250000\n"
        );
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = SweepReport {
            schema: "nimbus-sweep-v1".to_string(),
            quick: true,
            threads: 4,
            cell_count: 1,
            total_wall_s: 1.5,
            total_events: 1000,
            aggregate_events_per_sec: 666.7,
            cells: vec![SweepCellResult {
                name: "cubic@48M-vs-alone-seed1".to_string(),
                sim_s: 15.0,
                wall_s: 0.5,
                events: 1000,
                events_per_sec: 2000.0,
                sim_speedup: 30.0,
                mean_throughput_mbps: 45.0,
            }],
        };
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: SweepReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.cells.len(), 1);
        assert_eq!(back.cells[0].events, 1000);
        assert!(report_table(&back).contains("cubic@48M"));
    }
}
