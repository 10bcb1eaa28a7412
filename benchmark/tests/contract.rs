//! `BENCHMARK.json` and the binary agree on every name and unit, and a run
//! keeps its accounting promises.

use nimbus_benchmark::compare;
use nimbus_benchmark::report::{Workload, END_TO_END, PER_LAYER};
use nimbus_benchmark::{ledger, run};
use serde::Value;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names_and_units(section: &Value) -> Vec<(String, String)> {
    let text = |v: &Value| match v {
        Value::Str(s) => s.clone(),
        other => panic!("expected a string, got {other:?}"),
    };
    section
        .as_seq()
        .unwrap()
        .iter()
        .map(|m| {
            (
                text(m.field("name").unwrap()),
                text(m.field("unit").unwrap()),
            )
        })
        .collect()
}

fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn benchmark_json_names_the_metrics_and_workloads_the_binary_prints() {
    let b = benchmark_json();
    assert_eq!(
        names_and_units(b.field("end_to_end").unwrap()),
        owned(&END_TO_END)
    );
    assert_eq!(
        names_and_units(b.field("per_layer").unwrap()),
        owned(&PER_LAYER)
    );
    let workloads: Vec<String> = b
        .field("workloads")
        .unwrap()
        .as_seq()
        .unwrap()
        .iter()
        .map(|w| match w.field("name").unwrap() {
            Value::Str(s) => s.clone(),
            other => panic!("{other:?}"),
        })
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
    for name in ours {
        assert_eq!(Workload::parse(name).map(Workload::name), Some(name));
    }
    assert_eq!(Workload::parse("nope"), None);
}

/// The keys of a result line's `metrics` map, in order.
fn result_metrics(line: &str) -> (Vec<String>, Value) {
    let v: Value = serde_json::from_str(line).expect("the result line is JSON");
    let keys: Vec<&str> = v
        .as_map()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let names = v
        .field("metrics")
        .unwrap()
        .as_map()
        .unwrap()
        .iter()
        .map(|(k, _)| k.clone())
        .collect();
    (names, v)
}

#[test]
fn an_untraced_run_reports_every_end_to_end_metric_and_compares_ok_against_itself() {
    let report = run::untraced(Workload::BulkCubic, 2, 0.5);
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    // The warm-up probe plus at least ten timed reps, none failed.
    assert!(report.attempted >= 11);
    assert_eq!(report.failed(), 0);
    let (names, line) = result_metrics(&report.result_line());
    assert_eq!(names, END_TO_END.map(|(n, _)| n.to_string()));
    assert_eq!(line.field("correct").unwrap(), &Value::Bool(true));
    for m in &report.metrics {
        assert!(
            m.value.is_finite() && m.value > 0.0,
            "{} = {}",
            m.name,
            m.value
        );
    }

    // The wall clock is the sum of per-segment floors: never above the
    // fastest whole rep, which like every timing's floor travels along.
    let wall = &report.metrics[0];
    let reps = wall.summary.unwrap();
    assert!(wall.value <= reps.min && wall.value > 0.5 * reps.min);
    assert!(reps.min <= reps.q1 && reps.n as u64 == report.attempted - 1);
    assert!(report.text.contains("72 segments"), "{}", report.text);
    let setup = &report.metrics[3];
    assert_eq!(setup.value, setup.summary.unwrap().min);

    // The `--out` record carries seed, rep counts, anchors and quartiles,
    // and a set compared against itself is clean under the real bounds.
    let record = serde_json::to_string(&report.to_value()).unwrap();
    let v: Value = serde_json::from_str(&record).unwrap();
    assert_eq!(v.field("seed").unwrap().as_u64().unwrap(), 2);
    assert!(
        v.field("anchors")
            .unwrap()
            .field("events")
            .unwrap()
            .as_u64()
            .unwrap()
            > 1_000_000
    );
    assert!(
        v.field("metrics")
            .unwrap()
            .field("wall_ms_per_sim_s")
            .unwrap()
            .field("q3")
            .unwrap()
            .as_f64()
            .unwrap()
            > 0.0
    );
    let bounds = compare::bounds(&serde_json::to_string(&benchmark_json()).unwrap()).unwrap();
    let cmp = compare::compare(&record, &record, &bounds).unwrap();
    assert_eq!(
        (
            cmp.worse,
            cmp.counts_differing,
            cmp.anchors_differing,
            cmp.missing
        ),
        (0, 0, 0, 0),
        "{}",
        cmp.text
    );
}

#[test]
fn a_traced_run_reports_every_per_layer_metric() {
    let report = ledger::traced(Workload::BulkCubic, 2, 0.5);
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    let (names, _) = result_metrics(&report.result_line());
    assert_eq!(names, PER_LAYER.map(|(n, _)| n.to_string()));
    let value = |name: &str| {
        report
            .metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap()
            .value
    };
    // The workload separates the layers as designed: the engine and the
    // sender own the run, the detector never runs.
    let wall = value("netsim.engine.self_ms_per_sim_s")
        + value("transport.sender.self_ms_per_sim_s")
        + value("core.cc.on_ack.ms_per_sim_s")
        + value("core.cc.on_report.ms_per_sim_s");
    assert!(value("core.cc.on_report.ms_per_sim_s") <= 0.05 * wall);
    assert!(
        value("netsim.engine.self_ms_per_sim_s") + value("transport.sender.self_ms_per_sim_s")
            >= 0.8 * wall
    );
    assert!(value("netsim.engine.events_per_sim_s") > 20_000.0);
    assert!(value("dsp.fft.forward_real_500_us") > 1.0);
    assert!(value("trace.overhead_frac") > 0.0);
    assert!(report.text.contains("engine.run"));
}

#[test]
fn a_rep_that_violates_a_check_is_counted_not_dropped() {
    // Seconds so short that only the minimum of reps runs; the record must
    // still carry one entry per failure with its rep and reason.
    let mut report = run::untraced(Workload::BulkCubic, 2, 0.1);
    let attempted = report.attempted;
    report.failures.push((2, "synthetic violation".into()));
    report
        .failures
        .push((2, "a second one on the same rep".into()));
    assert_eq!(report.attempted, attempted);
    assert_eq!(report.failed(), 1);
    let (_, line) = result_metrics(&report.result_line());
    assert_eq!(line.field("correct").unwrap(), &Value::Bool(false));
    assert_eq!(line.field("failed").unwrap().as_u64().unwrap(), 1);
    let v = report.to_value();
    assert_eq!(v.field("failures").unwrap().as_seq().unwrap().len(), 2);
    assert!(report.human().contains("FAILED rep 2: synthetic violation"));
}
