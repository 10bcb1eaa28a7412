//! `compare A B`: two sets of runs against the bounds in `BENCHMARK.json`.
//!
//! A set is a `--out` file: one JSON record per line, one line per run.  For
//! every workload × end-to-end metric the report gives both values, the
//! ratio with its base, the quartiles, and a verdict:
//!
//! * `ok` — B is no worse than A by more than the metric's bound;
//! * `worse` — it is;
//! * `unresolved` — it is not, but the noise on either side is wider than
//!   the bound, so "no worse" is not established either — unless every
//!   sample of B reads better than every sample of A, which is `ok`.
//!
//! With one run per side a timing's value is that run's floor, and its noise
//! is how far the first quartile of the reps sits above the floor: a floor
//! is resolved when a quarter of the reps land within the bound of it.  With
//! several runs per side the value is the median of the runs' values and the
//! noise their interquartile range over that median — the driver's spread.
//! Heap counts carry no per-rep samples: they are exact and never
//! `unresolved`.
//!
//! Where both sets hold a run of the same workload on the **same seed**, the
//! two runs simulated the same inputs, and more can be said than the bounds
//! of `BENCHMARK.json` allow (those are as wide as the spread *between* seeds
//! makes them):
//!
//! * a heap count that is worse by more than [`SAME_SEED_COUNT_BOUND`] on any
//!   same-seed pair is `worse`, whatever the metric's bound;
//! * the simulated anchors are held against each other, and a
//!   `delay_mode_fraction` that fell by more than [`DELAY_FRACTION_FALL`] is
//!   `worse`: the detector reads the same cross traffic differently.
//!
//! `--same-code` demands identical counts and identical anchors.

use crate::stats::quartiles;
use serde::Value;

/// Share by which an exact count may be worse between two runs on the same
/// seed (the issue's 5 % for the two heap counts).
pub const SAME_SEED_COUNT_BOUND: f64 = 0.05;

/// Fall of the `delay_mode_fraction` anchor between two runs on the same seed
/// that counts as a change of the detector's behaviour.  One false 5 s
/// excursion into competitive mode moves it by 0.03–0.04 on `fig1_nimbus`.
pub const DELAY_FRACTION_FALL: f64 = 0.1;

/// One end-to-end metric's regression bound from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Whether smaller values are better.
    pub lower_is_better: bool,
    /// Share of A's value by which B may be worse.
    pub bound: f64,
}

fn field<'a>(v: &'a Value, name: &str) -> Result<&'a Value, String> {
    v.field(name).map_err(|e| e.to_string())
}

fn str_of(v: &Value) -> Result<&str, String> {
    match v {
        Value::Str(s) => Ok(s),
        other => Err(format!("expected a string, got {other:?}")),
    }
}

/// Read the `end_to_end` bounds out of `BENCHMARK.json`'s text.
pub fn bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let root: Value = serde_json::from_str(benchmark_json).map_err(|e| e.to_string())?;
    field(&root, "end_to_end")?
        .as_seq()
        .map_err(|e| e.to_string())?
        .iter()
        .map(|m| {
            Ok(Bound {
                name: str_of(field(m, "name")?)?.to_string(),
                lower_is_better: str_of(field(m, "better")?)? == "lower",
                bound: field(m, "bound")?.as_f64().map_err(|e| e.to_string())?,
            })
        })
        .collect()
}

/// One metric of one run, as stored in an `--out` record.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Reading {
    value: f64,
    /// `(min, q1, q3)` of the per-rep samples; `None` for an exact count.
    reps: Option<(f64, f64, f64)>,
}

/// One side of a comparison: every run of one workload in one set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    /// The side's value: the run's, or the median over runs.
    pub value: f64,
    /// First quartile shown next to it.
    pub q1: f64,
    /// Third quartile shown next to it.
    pub q3: f64,
    /// Noise as a share of the value (see the module docs); 0 for a count.
    pub noise: f64,
    /// Best sample on this side.
    pub low: f64,
    /// Worst sample on this side that is not an outlier: the reps' third
    /// quartile for one run, the worst run for several.
    pub high: f64,
    /// Whether the metric is an exact count.
    pub exact: bool,
}

impl Side {
    fn of(readings: &[Reading]) -> Side {
        if let [one] = readings {
            return match one.reps {
                Some((min, q1, q3)) => Side {
                    value: one.value,
                    q1,
                    q3,
                    noise: (q1 - min) / min,
                    low: min,
                    high: q3,
                    exact: false,
                },
                None => Side::exact(one.value),
            };
        }
        let values: Vec<f64> = readings.iter().map(|r| r.value).collect();
        let [q1, median, q3] = quartiles(&values);
        Side {
            value: median,
            q1,
            q3,
            noise: (q3 - q1) / median,
            low: values.iter().copied().fold(f64::INFINITY, f64::min),
            high: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            exact: readings.iter().all(|r| r.reps.is_none()),
        }
    }

    /// A side holding one exact count.
    pub fn exact(value: f64) -> Side {
        Side {
            value,
            q1: value,
            q3: value,
            noise: 0.0,
            low: value,
            high: value,
            exact: true,
        }
    }

    /// A side holding one timing: its floor and the quartiles of its reps.
    pub fn timing(min: f64, q1: f64, q3: f64) -> Side {
        Side::of(&[Reading {
            value: min,
            reps: Some((min, q1, q3)),
        }])
    }
}

/// The outcome of holding B against A under a bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is no worse than A by more than the bound, and the noise allows
    /// saying so.
    Ok,
    /// B is worse than A by more than the bound.
    Worse,
    /// B is within the bound but the noise is wider than the bound.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Share of `a` by which `b` is worse.
fn worse_by(a: f64, b: f64, lower_is_better: bool) -> f64 {
    if lower_is_better {
        b / a - 1.0
    } else {
        1.0 - b / a
    }
}

/// Hold `b` against `a` (the base) under `bound`.
pub fn verdict(a: &Side, b: &Side, bound: &Bound) -> Verdict {
    let worse_by = worse_by(a.value, b.value, bound.lower_is_better);
    let b_all_better = if bound.lower_is_better {
        b.high < a.low
    } else {
        b.low > a.high
    };
    if worse_by > bound.bound {
        Verdict::Worse
    } else if a.noise.max(b.noise) > bound.bound && !b_all_better {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// One untraced run of a set.
struct Run {
    workload: String,
    seed: u64,
    anchors: Value,
    metrics: Vec<(String, Reading)>,
}

impl Run {
    fn reading(&self, metric: &str) -> Option<Reading> {
        self.metrics
            .iter()
            .find(|(name, _)| name == metric)
            .map(|&(_, r)| r)
    }

    fn delay_mode_fraction(&self) -> Option<f64> {
        self.anchors
            .field("delay_mode_fraction")
            .ok()?
            .as_f64()
            .ok()
    }
}

/// The untraced runs of a set, in file order.
fn parse_set(jsonl: &str) -> Result<Vec<Run>, String> {
    let mut set = Vec::new();
    for (i, line) in jsonl
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let run: Value = serde_json::from_str(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if field(&run, "trace")? == &Value::Bool(true) {
            continue;
        }
        let mut metrics = Vec::new();
        for (name, m) in field(&run, "metrics")?
            .as_map()
            .map_err(|e| e.to_string())?
        {
            let num = |key: &str| field(m, key)?.as_f64().map_err(|e| e.to_string());
            let reading = Reading {
                value: num("value")?,
                reps: match field(m, "n")? {
                    Value::Null => None,
                    _ => Some((num("min")?, num("q1")?, num("q3")?)),
                },
            };
            metrics.push((name.clone(), reading));
        }
        set.push(Run {
            workload: str_of(field(&run, "workload")?)?.to_string(),
            seed: field(&run, "seed")?.as_u64().map_err(|e| e.to_string())?,
            anchors: field(&run, "anchors")?.clone(),
            metrics,
        });
    }
    Ok(set)
}

fn runs_of<'a>(set: &'a [Run], workload: &str) -> Vec<&'a Run> {
    set.iter().filter(|r| r.workload == workload).collect()
}

/// The comparison of two sets.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// One line per workload × end-to-end metric, the same-seed findings, and
    /// a summary line.
    pub text: String,
    /// Pairings judged `worse`, same-seed findings included.
    pub worse: usize,
    /// Pairings judged `unresolved`.
    pub unresolved: usize,
    /// Exact counts that differ between two runs on the same seed.
    pub counts_differing: usize,
    /// Same-seed pairs of runs whose simulated anchors differ.
    pub anchors_differing: usize,
    /// Pairings present in only one set.
    pub missing: usize,
}

/// Compare set `b` against set `a` (the base) under `bounds`.
pub fn compare(a_jsonl: &str, b_jsonl: &str, bounds: &[Bound]) -> Result<Comparison, String> {
    let a = parse_set(a_jsonl)?;
    let b = parse_set(b_jsonl)?;
    let mut out = Comparison {
        text: format!(
            "{:<12} {:<18} {:>13} {:>27} {:>13} {:>27} {:>9} {:>6}  verdict\n",
            "workload", "metric", "A", "A [q1, q3]", "B", "B [q1, q3]", "B/A", "bound"
        ),
        worse: 0,
        unresolved: 0,
        counts_differing: 0,
        anchors_differing: 0,
        missing: 0,
    };
    let mut workloads: Vec<&str> = Vec::new();
    for run in a.iter().chain(&b) {
        if !workloads.contains(&run.workload.as_str()) {
            workloads.push(&run.workload);
        }
    }
    for workload in workloads {
        let (runs_a, runs_b) = (runs_of(&a, workload), runs_of(&b, workload));
        // The first run of each seed on either side: same inputs simulated.
        let same_seed: Vec<(&Run, &Run)> = runs_a
            .iter()
            .enumerate()
            .filter(|(i, x)| !runs_a[..*i].iter().any(|r| r.seed == x.seed))
            .filter_map(|(_, x)| Some((*x, *runs_b.iter().find(|y| y.seed == x.seed)?)))
            .collect();
        for bound in bounds {
            let metric = &bound.name;
            let readings = |runs: &[&Run]| -> Vec<Reading> {
                runs.iter().filter_map(|r| r.reading(metric)).collect()
            };
            let (a_readings, b_readings) = (readings(&runs_a), readings(&runs_b));
            if a_readings.is_empty() || b_readings.is_empty() {
                if a_readings.len() + b_readings.len() > 0 {
                    out.missing += 1;
                    let side = if a_readings.is_empty() { "A" } else { "B" };
                    out.text.push_str(&format!(
                        "{workload:<12} {metric:<18} missing from {side}\n"
                    ));
                }
                continue;
            }
            let (sa, sb) = (Side::of(&a_readings), Side::of(&b_readings));
            let mut v = verdict(&sa, &sb, bound);
            let mut note = String::new();
            if sa.exact && sb.exact && !same_seed.is_empty() {
                let worst = same_seed
                    .iter()
                    .filter_map(|(x, y)| Some((x.reading(metric)?.value, y.reading(metric)?.value)))
                    .map(|(x, y)| worse_by(x, y, bound.lower_is_better))
                    .fold(0.0, f64::max);
                let differ = same_seed
                    .iter()
                    .any(|(x, y)| x.reading(metric) != y.reading(metric));
                if differ {
                    out.counts_differing += 1;
                    note = format!(
                        " (counts differ; same seed: {:+.1} % at worst, {:.0} % allowed)",
                        worst * 100.0,
                        SAME_SEED_COUNT_BOUND * 100.0
                    );
                    if worst > SAME_SEED_COUNT_BOUND {
                        v = Verdict::Worse;
                    }
                } else {
                    note.push_str(" (identical)");
                }
            }
            match v {
                Verdict::Worse => out.worse += 1,
                Verdict::Unresolved => out.unresolved += 1,
                Verdict::Ok => {}
            }
            out.text.push_str(&format!(
                "{workload:<12} {metric:<18} {:>13.6} {:>27} {:>13.6} {:>27} {:>9.4} {:>6.2}  {}{note}\n",
                sa.value,
                format!("[{:.6}, {:.6}]", sa.q1, sa.q3),
                sb.value,
                format!("[{:.6}, {:.6}]", sb.q1, sb.q3),
                sb.value / sa.value,
                bound.bound,
                v.word(),
            ));
        }
        if same_seed.is_empty() {
            continue;
        }
        let moved = same_seed
            .iter()
            .filter(|(x, y)| x.anchors != y.anchors)
            .count();
        out.anchors_differing += moved;
        out.text.push_str(&format!(
            "{workload:<12} {:<18} {} same-seed pairs, {moved} differ\n",
            "anchors",
            same_seed.len()
        ));
        for (x, y) in &same_seed {
            let (Some(fa), Some(fb)) = (x.delay_mode_fraction(), y.delay_mode_fraction()) else {
                continue;
            };
            if fa - fb > DELAY_FRACTION_FALL {
                out.worse += 1;
                out.text.push_str(&format!(
                    "{workload:<12} {:<18} seed {}: {fa:.3} -> {fb:.3}  worse\n",
                    "delay_mode_fraction", x.seed
                ));
            }
        }
    }
    out.text.push_str(&format!(
        "ratios are B/A, base A; {} worse, {} unresolved, {} exact counts and {} anchor sets differ on the same seed, {} missing on one side\n",
        out.worse, out.unresolved, out.counts_differing, out.anchors_differing, out.missing
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound {
            name: "wall_ms_per_sim_s".into(),
            lower_is_better: true,
            bound,
        }
    }

    #[test]
    fn verdicts_on_synthetic_timings() {
        let b10 = lower(0.10);
        // Tight floors (q1 within 3 % of the floor) resolve a 10 % bound.
        let a = Side::timing(2.00, 2.05, 2.40);
        assert_eq!(
            verdict(&a, &Side::timing(2.10, 2.15, 2.50), &b10),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&a, &Side::timing(1.50, 1.55, 1.80), &b10),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&a, &Side::timing(2.30, 2.35, 2.60), &b10),
            Verdict::Worse
        );
        // A floor a quarter of the reps cannot get within 30 % of is noise,
        // not a measurement: within the bound, but not established.
        let noisy = Side::timing(2.00, 2.60, 3.10);
        assert_eq!(verdict(&a, &noisy, &b10), Verdict::Unresolved);
        assert_eq!(verdict(&noisy, &a, &b10), Verdict::Unresolved);
        // ... unless every sample of B beats every sample of A.
        assert_eq!(
            verdict(&noisy, &Side::timing(1.00, 1.30, 1.60), &b10),
            Verdict::Ok
        );
        // Noise never excuses a regression beyond the bound.
        assert_eq!(
            verdict(&a, &Side::timing(2.50, 3.40, 3.90), &b10),
            Verdict::Worse
        );
    }

    #[test]
    fn exact_counts_are_never_unresolved() {
        let b5 = lower(0.05);
        let a = Side::exact(1645.0);
        assert_eq!(verdict(&a, &Side::exact(1645.0), &b5), Verdict::Ok);
        assert_eq!(verdict(&a, &Side::exact(1700.0), &b5), Verdict::Ok);
        assert_eq!(verdict(&a, &Side::exact(1800.0), &b5), Verdict::Worse);
        assert_eq!(verdict(&a, &Side::exact(12.0), &b5), Verdict::Ok);
    }

    #[test]
    fn higher_is_better_flips_the_direction() {
        let bound = Bound {
            name: "throughput".into(),
            lower_is_better: false,
            bound: 0.10,
        };
        let a = Side::exact(100.0);
        assert_eq!(verdict(&a, &Side::exact(95.0), &bound), Verdict::Ok);
        assert_eq!(verdict(&a, &Side::exact(85.0), &bound), Verdict::Worse);
    }

    #[test]
    fn several_runs_per_side_use_the_median_and_the_iqr() {
        let runs = |values: &[f64]| -> Vec<Reading> {
            values
                .iter()
                .map(|&value| Reading {
                    value,
                    reps: Some((value, value, value)),
                })
                .collect()
        };
        let side = Side::of(&runs(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]));
        assert_eq!((side.value, side.q1, side.q3), (5.5, 2.75, 8.25));
        assert_eq!((side.low, side.high), (1.0, 10.0));
        assert!((side.noise - 1.0).abs() < 1e-12);
        let tight = Side::of(&runs(&[2.00, 2.01, 2.02, 2.03]));
        let slower = Side::of(&runs(&[2.30, 2.31, 2.32, 2.33]));
        assert_eq!(verdict(&tight, &slower, &lower(0.10)), Verdict::Worse);
        assert_eq!(verdict(&slower, &tight, &lower(0.10)), Verdict::Ok);
    }

    const BENCH: &str = r#"{"end_to_end": [
        {"name": "wall_ms_per_sim_s", "unit": "ms/s", "better": "lower", "bound": 0.1},
        {"name": "allocs_per_sim_s", "unit": "1/s", "better": "lower", "bound": 0.05}]}"#;

    fn record(
        workload: &str,
        seed: u64,
        trace: bool,
        wall: (f64, f64, f64),
        allocs: f64,
        delay_mode_fraction: f64,
    ) -> String {
        format!(
            r#"{{"workload":"{workload}","seed":{seed},"trace":{trace},"anchors":{{"events":7,"delay_mode_fraction":{delay_mode_fraction}}},"metrics":{{"wall_ms_per_sim_s":{{"value":{0},"unit":"ms/s","min":{0},"q1":{1},"median":{1},"q3":{2},"n":12}},"allocs_per_sim_s":{{"value":{allocs},"unit":"1/s"}},"unbounded":{{"value":1,"unit":"x"}}}}}}"#,
            wall.0, wall.1, wall.2
        )
    }

    fn tally(c: &Comparison) -> (usize, usize, usize, usize, usize) {
        (
            c.worse,
            c.unresolved,
            c.counts_differing,
            c.anchors_differing,
            c.missing,
        )
    }

    #[test]
    fn compares_two_sets_line_by_line() {
        let bounds = bounds(BENCH).unwrap();
        assert_eq!(bounds.len(), 2);
        assert_eq!(bounds[1].bound, 0.05);
        let a = [
            record("bulk_cubic", 1, false, (2.0, 2.05, 2.4), 1645.0, 1.0),
            record("bulk_cubic", 1, true, (9.0, 9.0, 9.0), 9.0, 1.0),
            record("core_embed", 1, false, (44.0, 44.5, 47.0), 19478.0, 1.0),
        ]
        .join("\n");
        let same = compare(&a, &a, &bounds).unwrap();
        assert_eq!(tally(&same), (0, 0, 0, 0, 0), "{}", same.text);
        assert_eq!(same.text.matches("(identical)").count(), 2);
        // Traced records and metrics without a bound are skipped; each
        // workload adds one line for its same-seed anchors.
        assert_eq!(same.text.lines().count(), 1 + 4 + 2 + 1);

        let b = [
            record("bulk_cubic", 1, false, (2.5, 2.55, 2.9), 1646.0, 1.0),
            record("fleet_churn", 1, false, (60.0, 61.0, 66.0), 24000.0, 1.0),
        ]
        .join("\n");
        let diff = compare(&a, &b, &bounds).unwrap();
        // Wall is 25 % worse; the count moved by less than 5 % on the same
        // seed.  Two bounded metrics each: core_embed missing from B,
        // fleet_churn from A.
        assert_eq!(tally(&diff), (1, 0, 1, 0, 2 + 2), "{}", diff.text);
        assert!(compare("not json", &a, &bounds).is_err());
    }

    #[test]
    fn runs_on_the_same_seed_are_held_to_more_than_the_bounds() {
        let wide = bounds(&BENCH.replace("0.05", "0.25")).unwrap();
        let wall = (2.0, 2.05, 2.4);
        let a = [
            record("fleet_churn", 1, false, wall, 24000.0, 1.0),
            record("fleet_churn", 2, false, wall, 26000.0, 1.0),
        ]
        .join("\n");
        // Seed 2 allocates 8 % more: inside the metric's 25 %, which is as
        // wide as the spread between seeds, but the inputs were the same.
        let b = [
            record("fleet_churn", 1, false, wall, 24000.0, 1.0),
            record("fleet_churn", 2, false, wall, 28080.0, 1.0),
        ]
        .join("\n");
        let cmp = compare(&a, &b, &wide).unwrap();
        assert_eq!(tally(&cmp), (1, 0, 1, 0, 0), "{}", cmp.text);
        assert!(cmp.text.contains("+8.0 % at worst"), "{}", cmp.text);
        // The same 8 % between different seeds is what the bound is for.
        let other_seeds = [
            record("fleet_churn", 3, false, wall, 24000.0, 1.0),
            record("fleet_churn", 4, false, wall, 28080.0, 1.0),
        ]
        .join("\n");
        let cmp = compare(&a, &other_seeds, &wide).unwrap();
        assert_eq!(tally(&cmp), (0, 0, 0, 0, 0), "{}", cmp.text);

        // A detector that now sits in competitive mode through the same
        // cross traffic: the anchors differ, and the fall is `worse`.
        let stuck = [
            record("fleet_churn", 1, false, wall, 24000.0, 0.97),
            record("fleet_churn", 2, false, wall, 26000.0, 0.62),
        ]
        .join("\n");
        let cmp = compare(&a, &stuck, &wide).unwrap();
        assert_eq!(tally(&cmp), (1, 0, 0, 2, 0), "{}", cmp.text);
        assert!(cmp.text.contains("seed 2: 1.000 -> 0.620  worse"));
        // Base and change swapped, the fraction rose: not worse.
        assert_eq!(compare(&stuck, &a, &wide).unwrap().worse, 0);
    }
}
