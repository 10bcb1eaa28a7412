//! The traced run: one workload, one seed, the per-layer ledger.
//!
//! A few reps run behind the shims (`shim`), their spans land in the
//! in-memory recorder (`trace`), and untraced reps of the same shapes run
//! beside them in the same process, so the collect cost, the build cost and
//! the tracing overhead are differences of floors on identically built
//! inputs.  Every wall clock here is the segment floor the end-to-end
//! `wall_ms_per_sim_s` is (`run::wall_floor_s`), so the ledger and the metric
//! it explains read on one scale.  End-to-end metrics never come from here.

use crate::embed::{self, Host};
use crate::report::{Metric, RunReport, Workload, PER_LAYER};
use crate::run::{
    admit, embed_rep, run_only_rep, samples, sim_rep, wall_floor_s, Rep, Tally, MIN_REPS,
};
use crate::sim::{conservation_violation, Scenario, SimWorkload};
use crate::stats::{floor, per_index_min_percentiles};
use crate::trace::{self, RepTrace, Span};
use crate::{alloc, kernels, laps};
use nimbus_experiments::runner::nimbus_of;
use serde::Value;
use std::time::{Duration, Instant};

/// Traced reps per traced run.
const TRACED_REPS: usize = 5;

/// What the benchmark reads off a traced simulator rep besides its spans.
struct TracedSimRep {
    trace: RepTrace,
    /// The `engine.run` span, split at the lap marks.
    run_segments_s: Vec<f64>,
    events: u64,
    dropped_packets: u64,
    retired_flows: u64,
    violations: Vec<String>,
}

fn traced_sim_rep(sc: &Scenario) -> TracedSimRep {
    trace::start((sc.sim_s() * 100.0) as usize + 16);
    let mut violations = Vec::new();
    let (events, dropped_packets, retired_flows, run_segments_s);
    {
        let _rep = trace::enter(Span::Rep);
        let built = {
            let _build = trace::enter(Span::RunnerBuild);
            sc.build(true)
        };
        let mut net = built.net;
        ((), run_segments_s) = laps::timed(|| {
            let _run = trace::enter(Span::EngineRun);
            net.run();
        });
        violations.extend(conservation_violation(&net));
        events = net.events_processed();
        retired_flows = net.retired_flow_count() as u64;
        if sc.scheme.is_nimbus() && nimbus_of(net.endpoint(built.primary)).is_none() {
            violations.push("nimbus_of no longer resolves through the shims".into());
        }
        let (recorder, endpoints) = net.finish();
        dropped_packets = recorder.hop_dropped_packets.iter().sum();
        // Dropping the endpoints banks every surviving sender's statistics.
        drop(endpoints);
    }
    let trace = trace::finish();
    if trace.overflowed > 0 {
        violations.push(format!("{} spans nested too deep", trace.overflowed));
    }
    TracedSimRep {
        trace,
        run_segments_s,
        events,
        dropped_packets,
        retired_flows,
        violations,
    }
}

/// The rep with the smallest root span: the least disturbed one, and a
/// self-consistent ledger (its self times sum to its own wall time).
fn best(reps: &[RepTrace]) -> &RepTrace {
    reps.iter()
        .min_by_key(|r| r.span(Span::Rep).total_ns)
        .expect("at least one traced rep")
}

const SENDER_SPANS: [Span; 4] = [
    Span::SenderOnAck,
    Span::SenderPollSend,
    Span::SenderOnTick,
    Span::SenderOther,
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

type Values = Vec<(&'static str, f64)>;

/// The per-layer metrics read off the spans of the traced reps (`sim_s`
/// simulated seconds each): totals from the best rep, report percentiles
/// from the per-index minimum across all of them.
fn span_metrics(reps: &[RepTrace], sim_s: f64) -> Values {
    let best = best(reps);
    let ms_per_sim_s = |ns: u64| ns as f64 / 1e6 / sim_s;
    let per_sim_s = |n: u64| n as f64 / sim_s;
    let engine = best.span(Span::EngineRun);
    let sender = |f: fn(&trace::SpanAgg) -> u64| -> u64 {
        SENDER_SPANS.iter().map(|&s| f(best.span(s))).sum()
    };
    let (sender_self_ns, sender_calls) = (sender(|a| a.self_ns), sender(|a| a.count));
    let on_ack = best.span(Span::CcOnAck);
    let on_report = best.span(Span::CcOnReport);
    let report_samples: Vec<&[u32]> = reps.iter().map(|r| r.report_ns.as_slice()).collect();
    let (p50_ns, p99_ns) = per_index_min_percentiles(&report_samples);
    let c = best.counters;
    vec![
        (
            "netsim.engine.self_ms_per_sim_s",
            ms_per_sim_s(engine.self_ns),
        ),
        (
            "netsim.engine.allocs_per_sim_s",
            per_sim_s(engine.self_allocs),
        ),
        (
            "transport.sender.self_ms_per_sim_s",
            ms_per_sim_s(sender_self_ns),
        ),
        ("transport.sender.calls_per_sim_s", per_sim_s(sender_calls)),
        (
            "transport.sender.ns_per_call",
            ratio(sender_self_ns as f64, sender_calls as f64),
        ),
        (
            "transport.sender.allocs_per_sim_s",
            per_sim_s(sender(|a| a.self_allocs)),
        ),
        (
            "transport.sender.retransmit_frac",
            ratio(c.packets_retransmitted as f64, c.packets_sent as f64),
        ),
        (
            "transport.sender.scan_steps_per_ack",
            ratio(
                c.scoreboard_scan_steps as f64,
                best.span(Span::SenderOnAck).count as f64,
            ),
        ),
        ("core.cc.on_ack.ms_per_sim_s", ms_per_sim_s(on_ack.total_ns)),
        (
            "core.cc.on_ack.ns_mean",
            ratio(on_ack.total_ns as f64, on_ack.count as f64),
        ),
        ("core.cc.on_ack.calls_per_sim_s", per_sim_s(on_ack.count)),
        (
            "core.cc.on_report.ms_per_sim_s",
            ms_per_sim_s(on_report.total_ns),
        ),
        ("core.cc.on_report.us_p50", p50_ns / 1e3),
        ("core.cc.on_report.us_p99", p99_ns / 1e3),
        (
            "core.cc.on_report.calls_per_sim_s",
            per_sim_s(on_report.count),
        ),
        (
            "core.cc.on_report.allocs_per_call",
            ratio(on_report.allocs as f64, on_report.count as f64),
        ),
        (
            "core.cc.on_report.alloc_bytes_per_call",
            ratio(on_report.alloc_bytes as f64, on_report.count as f64),
        ),
        (
            "traffic.fleet.flows_spawned_per_sim_s",
            per_sim_s(c.flows_spawned),
        ),
    ]
}

/// What one empty span costs its parent, ns: two clock reads plus the
/// recorder's bookkeeping.  A parent's self time carries roughly half of
/// this per child span (the half outside the child's own interval); the
/// ledger states it so a reader can discount it.
fn span_cost_ns() -> f64 {
    const SPANS: u32 = 100_000;
    trace::start(0);
    let t = Instant::now();
    {
        let _rep = trace::enter(Span::Rep);
        for _ in 0..SPANS {
            let _child = trace::enter(Span::SenderOther);
        }
    }
    let cost = t.elapsed().as_nanos() as f64 / SPANS as f64;
    trace::finish();
    cost
}

/// The span table of one rep, as JSON and as text.
fn ledger(rep: &RepTrace, sim_s: f64) -> (Value, String) {
    let wall_ns = rep.span(Span::Rep).total_ns;
    let mut rows = Vec::new();
    let mut text = format!(
        "ledger of the best traced rep, per simulated second:\n  {:<18} {:>10} {:>12} {:>12} {:>7} {:>10}\n",
        "span", "count", "total ms", "self ms", "self %", "allocs"
    );
    for span in Span::ALL {
        let a = rep.span(span);
        if a.count == 0 {
            continue;
        }
        let share = a.self_ns as f64 / wall_ns as f64;
        text.push_str(&format!(
            "  {:<18} {:>10} {:>12.4} {:>12.4} {:>6.1}% {:>10}\n",
            span.name(),
            a.count,
            a.total_ns as f64 / 1e6 / sim_s,
            a.self_ns as f64 / 1e6 / sim_s,
            share * 100.0,
            a.self_allocs
        ));
        let hist = a
            .hist
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(b, &n)| Value::Seq(vec![Value::UInt(1 << b), Value::UInt(n as u64)]))
            .collect();
        rows.push((
            span.name().to_string(),
            Value::Map(vec![
                ("count".into(), Value::UInt(a.count)),
                ("total_ns".into(), Value::UInt(a.total_ns)),
                ("self_ns".into(), Value::UInt(a.self_ns)),
                ("self_share".into(), Value::Float(share)),
                ("allocs".into(), Value::UInt(a.allocs)),
                ("self_allocs".into(), Value::UInt(a.self_allocs)),
                ("alloc_bytes".into(), Value::UInt(a.alloc_bytes)),
                ("hist_ns_floor_count".into(), Value::Seq(hist)),
            ]),
        ));
    }
    let span_cost = span_cost_ns();
    text.push_str(&format!(
        "  self times sum to {:.4} of the rep's wall ({:.4} ms per sim-s); an empty span costs its parent {span_cost:.0} ns\n",
        rep.self_ns_sum() as f64 / wall_ns as f64,
        wall_ns as f64 / 1e6 / sim_s
    ));
    rows.push(("empty_span_cost_ns".to_string(), Value::Float(span_cost)));
    (Value::Map(rows), text)
}

/// The layers the Nimbus-vs-Cubic gap is split over.
fn layer_self_ms(rep: &RepTrace, sim_s: f64) -> [(&'static str, f64); 5] {
    let ms = |spans: &[Span]| {
        spans.iter().map(|&s| rep.span(s).self_ns).sum::<u64>() as f64 / 1e6 / sim_s
    };
    [
        ("netsim.engine", ms(&[Span::EngineRun])),
        ("transport.sender", ms(&SENDER_SPANS)),
        ("core.cc.on_ack", ms(&[Span::CcOnAck])),
        ("core.cc.on_report", ms(&[Span::CcOnReport])),
        (
            "core.cc.on_loss+on_event",
            ms(&[Span::CcOnLoss, Span::CcOnEvent]),
        ),
    ]
}

/// Cubic on the Fig. 1 scenario: the baseline the "Nimbus tax" is quoted
/// against.  Returns its best traced rep and its untraced `Network::run`
/// floor in ms per sim-s.
fn cubic_twin(seed: u64) -> (RepTrace, f64) {
    let sc = SimWorkload::Fig1Cubic.scenario(seed);
    run_only_rep(&sc);
    let traced: Vec<RepTrace> = (0..3).map(|_| traced_sim_rep(&sc).trace).collect();
    let untraced: Vec<Vec<f64>> = (0..3).map(|_| run_only_rep(&sc).segments_s).collect();
    (
        best(&traced).clone(),
        wall_floor_s(&untraced) * 1e3 / sc.sim_s(),
    )
}

/// Split `nimbus`'s gap to `cubic` on the same scenario over the layers:
/// which layer owns what share of the "Nimbus tax".
fn gap_to_cubic(
    nimbus: &RepTrace,
    nimbus_untraced_ms: f64,
    (cubic, cubic_untraced_ms): &(RepTrace, f64),
    sim_s: f64,
) -> (Value, String) {
    let ours = layer_self_ms(nimbus, sim_s);
    let theirs = layer_self_ms(cubic, sim_s);
    let gap: f64 = ours.iter().zip(&theirs).map(|(a, b)| a.1 - b.1).sum();
    let mut rows = Vec::new();
    let mut text = format!(
        "gap to cubic on the same scenario:\n  engine.run untraced: nimbus {nimbus_untraced_ms:.4} vs cubic \
         {cubic_untraced_ms:.4} ms per sim-s (x{:.2}, base cubic)\n  {:<26} {:>12} {:>12} {:>10} {:>9}\n",
        nimbus_untraced_ms / cubic_untraced_ms,
        "layer (traced self ms/s)",
        "nimbus",
        "cubic",
        "gap",
        "of gap"
    );
    for ((name, a), (_, b)) in ours.iter().zip(&theirs) {
        text.push_str(&format!(
            "  {name:<26} {a:>12.4} {b:>12.4} {:>10.4} {:>8.1}%\n",
            a - b,
            (a - b) / gap * 100.0
        ));
        rows.push((
            name.to_string(),
            Value::Map(vec![
                ("nimbus_self_ms_per_sim_s".into(), Value::Float(*a)),
                ("cubic_self_ms_per_sim_s".into(), Value::Float(*b)),
                ("share_of_gap".into(), Value::Float((a - b) / gap)),
            ]),
        ));
    }
    rows.push((
        "untraced_engine_run_ms_per_sim_s".into(),
        Value::Map(vec![
            ("nimbus".into(), Value::Float(nimbus_untraced_ms)),
            ("cubic".into(), Value::Float(*cubic_untraced_ms)),
        ]),
    ));
    (Value::Map(rows), text)
}

/// What a traced run measured, before the kernels and the ratios that need
/// both halves are added.
struct Traced {
    sim_s: f64,
    values: Values,
    tally: Tally,
    anchors: Value,
    reps: Vec<RepTrace>,
    /// Whether the monitored controller is Nimbus, i.e. its reports run η.
    nimbus: bool,
    /// Segment floor of the traced reps' run span, ms per sim-s.
    traced_wall_ms: f64,
    /// Segment floor of the same region untraced, ms per sim-s.
    untraced_wall_ms: f64,
}

fn traced_sim(sc: &Scenario, deadline: Instant) -> Traced {
    let sim_s = sc.sim_s();
    let mut tally = Tally::default();
    let probe = run_only_rep(sc);
    tally.rep(probe.violations);

    let mut reps: Vec<TracedSimRep> = (0..TRACED_REPS).map(|_| traced_sim_rep(sc)).collect();
    let first_counters = reps[0].trace.counters;
    for rep in &mut reps {
        let mut violations = std::mem::take(&mut rep.violations);
        if rep.events != probe.events {
            violations.push(format!(
                "traced rep dispatched {} events, untraced {}",
                rep.events, probe.events
            ));
        }
        if rep.trace.counters != first_counters {
            violations.push("shim counters differ from the first traced rep".into());
        }
        tally.rep(violations);
    }
    let (events, dropped_packets, retired_flows) = (
        reps[0].events,
        reps[0].dropped_packets,
        reps[0].retired_flows,
    );
    let traced_wall_ms = wall_floor_s(reps.iter().map(|r| &r.run_segments_s)) * 1e3 / sim_s;
    let traces: Vec<RepTrace> = reps.into_iter().map(|r| r.trace).collect();
    let mut values = span_metrics(&traces, sim_s);
    let best = best(&traces);
    values.extend([
        ("netsim.engine.events_per_sim_s", events as f64 / sim_s),
        (
            "netsim.engine.ns_per_event",
            ratio(best.span(Span::EngineRun).self_ns as f64, events as f64),
        ),
        (
            "netsim.queue.dropped_pkts_per_sim_s",
            dropped_packets as f64 / sim_s,
        ),
        (
            "traffic.fleet.flows_retired_frac",
            ratio(retired_flows as f64, best.counters.flows_spawned as f64),
        ),
        ("core.controller.live_kb_per_flow", 0.0),
        (
            "traffic.fleet.build_spawner_ms",
            sc.spec.fleet.as_ref().map_or(0.0, |fleet| {
                let build = || {
                    let t = Instant::now();
                    std::hint::black_box(fleet.build_spawner(
                        sc.spec.link_rate_bps,
                        sc.spec.duration_s,
                        sc.spec.seed,
                    ));
                    t.elapsed().as_secs_f64() * 1e3
                };
                floor(&(0..200).map(|_| build()).collect::<Vec<_>>())
            }),
        ),
    ]);

    // Untraced reps of both shapes, alternating: `Network::run` alone and
    // `run_and_collect` on identically built networks.  Their floors give
    // the collect cost, the build cost and the tracing overhead.
    let mut run_only: Vec<Vec<f64>> = Vec::new();
    let mut collected: Vec<Rep> = Vec::new();
    while collected.len() < MIN_REPS || Instant::now() < deadline {
        let alone = run_only_rep(sc);
        run_only.push(alone.segments_s);
        tally.rep(alone.violations);
        admit(sim_rep(sc), Some(probe.events), &mut collected, &mut tally);
    }
    let untraced_wall_ms = wall_floor_s(&run_only) * 1e3 / sim_s;
    let collected_ms = wall_floor_s(collected.iter().map(|r| &r.segments_s)) * 1e3 / sim_s;
    values.extend([
        (
            "experiments.runner.collect_ms",
            (collected_ms - untraced_wall_ms).max(0.0) * sim_s,
        ),
        (
            "experiments.runner.build_ms",
            floor(&samples(&collected, |r| r.setup_s * 1e3)),
        ),
    ]);
    Traced {
        sim_s,
        values,
        tally,
        anchors: collected[0].anchors.clone(),
        nimbus: sc.scheme.is_nimbus(),
        traced_wall_ms,
        untraced_wall_ms,
        reps: traces,
    }
}

fn traced_embed(seed: u64, deadline: Instant) -> Traced {
    let sim_s = embed::SIM_S;
    let mut tally = Tally::default();
    tally.rep(embed_rep(seed).violations);

    let mut traces = Vec::new();
    let mut traced_segments = Vec::new();
    let mut live_kb_per_flow = 0.0;
    let mut first_anchors = None;
    for _ in 0..TRACED_REPS {
        trace::start(Host::reports_per_rep());
        let live_before = alloc::snapshot().live_bytes;
        let host = {
            let _rep = trace::enter(Span::Rep);
            let mut host = {
                let _build = trace::enter(Span::RunnerBuild);
                Host::build(seed, true)
            };
            let ((), run_segments_s) = laps::timed(|| {
                let _run = trace::enter(Span::HostRun);
                host.run();
            });
            traced_segments.push(run_segments_s);
            host
        };
        let trace = trace::finish();
        // What 16 connections hold once the run is over, the never-trimmed
        // logs included.  (The trace's sample buffer predates `live_before`.)
        live_kb_per_flow =
            (alloc::snapshot().live_bytes - live_before) as f64 / 1e3 / embed::FLOWS as f64;
        let anchors = host.anchors();
        let mut violations = anchors.check();
        if first_anchors.get_or_insert_with(|| anchors.clone()) != &anchors {
            violations.push("anchors differ from the first traced rep".into());
        }
        if trace.overflowed > 0 {
            violations.push(format!("{} spans nested too deep", trace.overflowed));
        }
        tally.rep(violations);
        traces.push(trace);
    }
    let traced_anchors = first_anchors.expect("traced reps ran").to_value();
    let mut values = span_metrics(&traces, sim_s);
    values.push(("core.controller.live_kb_per_flow", live_kb_per_flow));
    // No simulator, no fleet, no collect step on this workload.
    values.extend(
        [
            "netsim.engine.events_per_sim_s",
            "netsim.engine.ns_per_event",
            "netsim.queue.dropped_pkts_per_sim_s",
            "traffic.fleet.flows_retired_frac",
            "traffic.fleet.build_spawner_ms",
            "experiments.runner.collect_ms",
        ]
        .map(|name| (name, 0.0)),
    );

    let mut untraced: Vec<Rep> = Vec::new();
    while untraced.len() < MIN_REPS || Instant::now() < deadline {
        let mut rep = embed_rep(seed);
        if rep.anchors != traced_anchors {
            rep.violations
                .push("untraced anchors differ from the traced reps'".into());
        }
        tally.rep(std::mem::take(&mut rep.violations));
        untraced.push(rep);
    }
    values.push((
        "experiments.runner.build_ms",
        floor(&samples(&untraced, |r| r.setup_s * 1e3)),
    ));
    Traced {
        sim_s,
        values,
        tally,
        anchors: traced_anchors,
        nimbus: true,
        traced_wall_ms: wall_floor_s(&traced_segments) * 1e3 / sim_s,
        untraced_wall_ms: wall_floor_s(untraced.iter().map(|r| &r.segments_s)) * 1e3 / sim_s,
        reps: traces,
    }
}

/// The traced run: the per-layer ledger.
pub fn traced(workload: Workload, seed: u64, seconds: f64) -> RunReport {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    // The kernels and the Cubic twin first: their cost comes out of the
    // time box, not on top of it.
    let kernel_values = kernels::run(seed);
    let cubic = (workload == Workload::Fig1Nimbus).then(|| cubic_twin(seed));
    let t = match workload.sim() {
        Some(w) => traced_sim(&w.scenario(seed), deadline),
        None => traced_embed(seed, deadline),
    };
    let mut values = t.values;
    values.extend(kernel_values);
    values.push((
        "trace.overhead_frac",
        t.traced_wall_ms / t.untraced_wall_ms - 1.0,
    ));
    let lookup = |values: &Values, name: &str| {
        values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("per-layer metric {name} was not measured"))
    };
    // η's share of one report, base = this run's in-situ report p50.  Only a
    // Nimbus report runs η; under any other scheme the ratio means nothing
    // and reads 0.
    let share = if t.nimbus {
        ratio(
            lookup(&values, "core.detector.eta_us"),
            lookup(&values, "core.cc.on_report.us_p50"),
        )
    } else {
        0.0
    };
    values.push(("core.detector.share_of_report", share));

    let best = best(&t.reps);
    let (spans, mut text) = ledger(best, t.sim_s);
    let mut detail = vec![("spans".to_string(), spans)];
    if let Some(cubic) = &cubic {
        let (gap, gap_text) = gap_to_cubic(best, t.untraced_wall_ms, cubic, t.sim_s);
        detail.push(("gap_to_cubic".to_string(), gap));
        text.push_str(&gap_text);
    }
    RunReport {
        workload,
        seed,
        traced: true,
        seconds,
        attempted: t.tally.attempted,
        failures: t.tally.failures,
        anchors: t.anchors,
        metrics: PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                unit,
                value: lookup(&values, name),
                summary: None,
            })
            .collect(),
        detail,
        text,
    }
}
