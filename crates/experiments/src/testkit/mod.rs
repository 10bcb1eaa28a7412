//! Scenario-matrix test harness: declarative (scheme × cross-traffic ×
//! bottleneck × seed) cells with per-cell paper invariants.
//!
//! The paper's core claims are *qualitative behavioural invariants* — Cubic
//! bufferbloats while Vegas does not, Nimbus stays in delay mode under heavy
//! CBR cross traffic, Vegas is starved by an elastic competitor.  This module
//! pins those claims down the way TCP Prague's fall-back validation does:
//! enumerate a matrix of scenarios, run every cell (in parallel across
//! threads — each cell is an independent deterministic simulation), and
//! assert the invariants cell by cell.
//!
//! A [`Cell`] is a scheme on a [`ScenarioSpec`] plus its steady-state window
//! and [`Invariants`]; the first three have one canonical string (the
//! grammar is [`grammar_reference`](crate::runner::grammar_reference)), so
//! the matrix below is a table of `(scenario strings, Invariants)` rows:
//!
//! ```no_run
//! use nimbus_experiments::testkit::{cells, run_matrix, Invariants};
//!
//! let outcomes = run_matrix(&cells(&[(
//!     &["nimbus@48M vs cubic seed=2 dur=45s steady=15s"],
//!     Invariants {
//!         min_throughput_mbps: Some(12.0),
//!         must_enter_competitive: true,
//!         ..Invariants::default()
//!     },
//! )]));
//! for o in &outcomes {
//!     assert!(o.violations.is_empty(), "{}: {:?}", o.name, o.violations);
//! }
//! ```
//!
//! A cell has one name, its canonical string: [`CellOutcome::name`], the
//! sweep's report rows and the ledger's keys are all `cell.to_string()`,
//! which parses back to the same cell.  Every [`CellOutcome`] also carries a
//! fingerprint of the cell's full [`Recorder`](nimbus_netsim::Recorder)
//! snapshot, so the same matrix doubles as a whole-system regression:
//! `tests/scenario_matrix.rs` pins the fingerprint of every
//! [`paper_invariant_matrix`] cell against the one table in
//! `tests/ledger/mod.rs`.  [`Cell::run`] also holds every cell to an exact
//! event budget, so an event storm is one more violation.

use crate::grammar::{fmt_duration, instant, tokens, ParseError};
use crate::runner::{run_scheme_vs_cross, ScenarioSpec, SingleFlowMetrics};
use crate::scheme::SchemeSpec;
use nimbus_netsim::Fnv1a;
use std::fmt;
use std::str::FromStr;

mod matrix;

pub use matrix::paper_invariant_matrix;

/// Bounds asserted against a cell's [`SingleFlowMetrics`].  `None` bounds are
/// not checked; every cell in a matrix should set at least one.
#[derive(Debug, Clone, Copy, Default)]
pub struct Invariants {
    /// Steady-state mean throughput must be at least this (Mbit/s).
    pub min_throughput_mbps: Option<f64>,
    /// Steady-state mean throughput must stay below this (Mbit/s) — for
    /// starvation claims.
    pub max_throughput_mbps: Option<f64>,
    /// Steady-state mean queueing delay must stay below this (ms).
    pub max_queue_delay_ms: Option<f64>,
    /// Steady-state mean queueing delay must be at least this (ms) — for
    /// bufferbloat claims.
    pub min_queue_delay_ms: Option<f64>,
    /// Nimbus: fraction of time in delay mode must be at least this.
    pub min_delay_mode_fraction: Option<f64>,
    /// Nimbus: fraction of time in delay mode must stay below this.
    pub max_delay_mode_fraction: Option<f64>,
    /// Nimbus with learned µ: mean relative µ-tracking error against the true
    /// schedule must stay below this.
    pub max_mu_error: Option<f64>,
    /// Nimbus: the mode log must contain at least one switch to competitive.
    pub must_enter_competitive: bool,
}

/// Engine events a cell may spend per 1500-byte packet delivered to any
/// receiver.  The paper matrix's cells run at 3.0–6.1 (the two-hop Nimbus
/// cells are the maximum); the budget is that maximum plus a third.  An
/// event storm — the stale `PollSend` chains that once multiplied without
/// bound, a timer re-arming itself every nanosecond — makes one cell do many
/// times the work per packet its neighbours do.  Events and delivered bytes
/// are both deterministic, so [`Cell::run`] checks this exactly, without a
/// clock.
const EVENTS_PER_DELIVERED_PACKET: u64 = 8;

/// One (scheme × scenario) cell of a matrix.  Everything about the link,
/// path, cross traffic, seed and duration is the [`ScenarioSpec`]'s.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Scheme on the monitored flow.
    pub scheme: SchemeSpec,
    /// The scenario the monitored flow runs in.
    pub scenario: ScenarioSpec,
    /// Start of the steady-state window used for the scalar metrics.
    pub steady_start_s: f64,
    /// The invariants this cell asserts.
    pub invariants: Invariants,
}

impl Cell {
    /// Run this cell to completion and evaluate its invariants and the
    /// event budget: at most 8 engine events per 1500-byte packet delivered
    /// to any receiver.
    pub fn run(&self) -> CellOutcome {
        let out = run_scheme_vs_cross(&self.scenario, self.scheme, self.steady_start_s);
        let events = out.events_processed;
        let sim_s = out.duration_s;
        let metrics = out.flows.into_iter().next().expect("one monitored flow");
        let mut violations = self.invariants.check(self.scheme, &metrics);
        let packets: u64 = out
            .recorder
            .flows
            .iter()
            .map(|f| f.delivered_bytes / 1500)
            .sum();
        if events > EVENTS_PER_DELIVERED_PACKET * packets {
            violations.push(format!(
                "{events} engine events for {packets} delivered packets exceed \
                 {EVENTS_PER_DELIVERED_PACKET} per packet (event storm)"
            ));
        }
        let fingerprint = fingerprint_of(&out.recorder, &metrics);
        CellOutcome {
            name: self.to_string(),
            metrics,
            violations,
            fingerprint,
            events,
            sim_s,
        }
    }
}

impl fmt::Display for Cell {
    /// The whole-cell canonical string (invariants are not part of it):
    /// `nimbus(mu=learned)@48M sin(0.1,10s) vs cubic seed=2 dur=45s steady=15s`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}@{} steady={}",
            self.scheme,
            self.scenario,
            fmt_duration(&self.steady_start_s)
        )
    }
}

impl FromStr for Cell {
    type Err = ParseError;

    /// Parse `<scheme>@<scenario> steady=<dur>` into a cell asserting nothing.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (scheme, rest) = s.split_once('@').ok_or_else(|| {
            ParseError(format!("`{s}` is not a cell: expected <scheme>@<scenario>"))
        })?;
        let (steady, scenario): (Vec<&str>, Vec<&str>) = tokens(rest)?
            .into_iter()
            .partition(|token| token.starts_with("steady="));
        let [steady] = steady.as_slice() else {
            return Err(ParseError(
                "a cell needs its steady-state window once: steady=<dur>".to_string(),
            ));
        };
        let scheme = scheme.parse()?;
        let scenario: ScenarioSpec = scenario.join(" ").parse()?;
        let steady_start_s = instant("steady", &steady["steady=".len()..])?;
        // The steady-state window runs from `steady` to the end of the run,
        // so it must start before `dur` ends the run or it measures nothing.
        if steady_start_s >= scenario.duration_s {
            return Err(ParseError(format!(
                "steady={} must be before the end of the run, dur={}",
                fmt_duration(&steady_start_s),
                fmt_duration(&scenario.duration_s)
            )));
        }
        Ok(Cell {
            scheme,
            scenario,
            steady_start_s,
            invariants: Invariants::default(),
        })
    }
}

impl Invariants {
    /// Evaluate the bounds against a cell's metrics; returns one message per
    /// violated bound (empty = cell passes).  A NaN metric (an empty
    /// measurement window — see `TimeSeries::mean_in_range`) holds no bound,
    /// so it counts as a violation rather than silently passing.
    pub fn check(&self, scheme: SchemeSpec, m: &SingleFlowMetrics) -> Vec<String> {
        let (tput, qd) = (m.mean_throughput_mbps, m.mean_queue_delay_ms);
        let mode = m.delay_mode_fraction;
        // (bound, metric, is a floor, what, what the paper expects instead)
        let bounds = [
            (
                self.min_throughput_mbps,
                tput,
                true,
                "throughput Mbit/s",
                "",
            ),
            (
                self.max_throughput_mbps,
                tput,
                false,
                "throughput Mbit/s",
                " (starvation expected)",
            ),
            (self.max_queue_delay_ms, qd, false, "queue delay ms", ""),
            (
                self.min_queue_delay_ms,
                qd,
                true,
                "queue delay ms",
                " (bufferbloat expected)",
            ),
            (
                self.min_delay_mode_fraction,
                mode,
                true,
                "delay-mode fraction",
                "",
            ),
            (
                self.max_delay_mode_fraction,
                mode,
                false,
                "delay-mode fraction",
                "",
            ),
            (
                self.max_mu_error,
                m.mu_tracking_error,
                false,
                "µ-tracking error",
                "",
            ),
        ];
        let mut violations = Vec::new();
        for (bound, metric, is_floor, what, expected) in bounds {
            let Some(bound) = bound else { continue };
            let (holds, side) = if is_floor {
                (metric >= bound, "below floor")
            } else {
                (metric <= bound, "above ceiling")
            };
            if !holds {
                violations.push(format!("{what} {metric:.3} {side} {bound}{expected}"));
            }
        }
        if self.must_enter_competitive {
            assert!(
                scheme.is_nimbus(),
                "must_enter_competitive only makes sense for Nimbus schemes"
            );
            if !m.mode_log.iter().any(|(_, mode)| mode == "competitive") {
                violations.push("never entered competitive mode".to_string());
            }
        }
        violations
    }
}

/// The result of one cell run.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// The canonical string (`Display`) of the cell that produced this
    /// outcome; it parses back to the cell and keys its ledger row.
    pub name: String,
    /// The monitored flow's metrics.
    pub metrics: SingleFlowMetrics,
    /// Invariant violations (empty = pass).
    pub violations: Vec<String>,
    /// FNV-1a hash over the serialized recorder snapshot and metrics; two
    /// runs of the same cell must agree byte for byte.
    pub fingerprint: u64,
    /// Engine events processed by this cell's simulation.
    pub events: u64,
    /// Simulated seconds covered.
    pub sim_s: f64,
}

/// FNV-1a over the recorder snapshot's JSON, then the metrics', hashed as
/// the text is written: no tree and no `String` is built.
fn fingerprint_of(recorder: &nimbus_netsim::Recorder, metrics: &SingleFlowMetrics) -> u64 {
    let mut hash = Fnv1a::default();
    serde_json::to_writer(&mut hash, &recorder.snapshot()).expect("hashing never fails");
    serde_json::to_writer(&mut hash, metrics).expect("hashing never fails");
    hash.finish()
}

/// The number of worker threads [`parallel_map`] spawns for `items` items:
/// `max_threads` (one per available core when `None`), at least one, and
/// never more than there are items.
pub fn worker_count(max_threads: Option<usize>, items: usize) -> usize {
    max_threads
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        })
        .max(1)
        .min(items.max(1))
}

/// Map `f` over `items` in parallel across [`worker_count`] worker threads
/// (each item is expected to be an independent deterministic computation).
/// Items are handed to workers through a shared index, so a slow item never
/// idles the other workers; results come back in input order regardless of
/// completion order.
///
/// This is the work queue behind both [`run_matrix`] and the experiments
/// binary's `sweep` subcommand.
pub fn parallel_map<T, R, F>(items: &[T], max_threads: Option<usize>, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..items.len()).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..worker_count(max_threads, items.len()) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                *slots[i].lock().expect("result slot poisoned") = Some(f(item));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("all items ran")
        })
        .collect()
}

/// Run every cell of a matrix, in parallel across threads (each cell is an
/// independent deterministic simulation).
pub fn run_matrix(cells: &[Cell]) -> Vec<CellOutcome> {
    parallel_map(cells, None, Cell::run)
}

/// One row of a matrix table: the cells (whole-cell canonical strings,
/// typically one scenario across seeds) that share a rationale and a set of
/// invariants.
pub type Row<'a> = (&'a [&'a str], Invariants);

/// Expand table rows into cells, in row order.
///
/// # Panics
/// Panics on a row that does not parse — matrix tables are source code.
pub fn cells(rows: &[Row<'_>]) -> Vec<Cell> {
    let cell = |text: &&str, invariants| Cell {
        invariants,
        ..text
            .parse()
            .unwrap_or_else(|e| panic!("matrix row `{text}`: {e}"))
    };
    rows.iter()
        .flat_map(|&(texts, invariants)| texts.iter().map(move |text| cell(text, invariants)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_is_well_formed() {
        let cells = paper_invariant_matrix();
        assert!(cells.len() >= 12, "matrix must cover at least 12 cells");
        let mut keys: Vec<String> = cells.iter().map(Cell::to_string).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), cells.len(), "two cells print the same string");
        // Every cell asserts at least one invariant.
        for c in &cells {
            let inv = &c.invariants;
            let any = inv.min_throughput_mbps.is_some()
                || inv.max_throughput_mbps.is_some()
                || inv.max_queue_delay_ms.is_some()
                || inv.min_queue_delay_ms.is_some()
                || inv.min_delay_mode_fraction.is_some()
                || inv.max_delay_mode_fraction.is_some()
                || inv.max_mu_error.is_some()
                || inv.must_enter_competitive;
            assert!(any, "cell {c} asserts nothing");
        }
    }

    /// A cell's key is its whole string: cells that differ only in one
    /// scenario option, or in the steady-state window, are reported under
    /// different keys and so can never share a ledger row.
    #[test]
    fn cells_that_differ_in_one_option_get_different_keys() {
        let base = "nimbus@48M vs alone seed=1 dur=2s steady=1s";
        let cells: Vec<Cell> = [
            base,
            "nimbus@48M vs alone buffer=50ms seed=1 dur=2s steady=1s",
            "nimbus@48M vs alone rtt=20ms seed=1 dur=2s steady=1s",
            "nimbus@48M vs alone pie=15ms seed=1 dur=2s steady=1s",
            "nimbus@48M vs alone loss=0.001 seed=1 dur=2s steady=1s",
            "nimbus@48M vs alone seed=1 dur=3s steady=1s",
            "nimbus@48M vs alone seed=1 dur=2s steady=0.5s",
        ]
        .iter()
        .map(|text| text.parse().unwrap())
        .collect();
        let outcomes = run_matrix(&cells);
        let keys: Vec<&str> = outcomes.iter().map(|o| o.name.as_str()).collect();
        let mut distinct = keys.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), cells.len(), "{keys:?}");
        assert_eq!(keys[0], base);
    }

    #[test]
    fn invariant_checks_fire() {
        let m = SingleFlowMetrics {
            label: "x".to_string(),
            mean_throughput_mbps: 10.0,
            mean_rtt_ms: 60.0,
            mean_queue_delay_ms: 50.0,
            throughput_series: Vec::new(),
            queue_delay_series: Vec::new(),
            rtt_series: Vec::new(),
            delay_mode_fraction: 0.4,
            mode_log: Vec::new(),
            eta_series: Vec::new(),
            mu_series: Vec::new(),
            mu_tracking_error: f64::NAN,
        };
        let inv = Invariants {
            min_throughput_mbps: Some(20.0),
            max_queue_delay_ms: Some(40.0),
            min_delay_mode_fraction: Some(0.5),
            must_enter_competitive: true,
            ..Invariants::default()
        };
        let violations = inv.check(SchemeSpec::nimbus(), &m);
        assert_eq!(violations.len(), 4, "{violations:?}");
        let ok = Invariants {
            max_throughput_mbps: Some(20.0),
            min_queue_delay_ms: Some(40.0),
            ..Invariants::default()
        };
        assert!(ok.check(SchemeSpec::cubic(), &m).is_empty());
    }

    #[test]
    fn worker_count_is_capped_by_the_items() {
        assert_eq!(worker_count(Some(64), 26), 26);
        assert_eq!(worker_count(Some(4), 26), 4);
        assert_eq!(worker_count(Some(0), 26), 1);
        assert_eq!(worker_count(Some(4), 0), 1);
        assert_eq!(worker_count(None, 1), 1);
        assert!(worker_count(None, usize::MAX) >= 1);
    }
}
