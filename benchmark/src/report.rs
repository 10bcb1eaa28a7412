//! What a run reports: the workload and metric names of `BENCHMARK.json`,
//! and the record one run leaves behind.

use crate::sim::SimWorkload;
use crate::stats::Summary;
use serde::Value;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cubic + Poisson cross traffic: the engine and the ACK-clocked sender.
    BulkCubic,
    /// Nimbus on the paper's Fig. 1 scenario: every layer.
    Fig1Nimbus,
    /// Nimbus + open-loop fleet on 1 Gbit/s: spawn/retire churn.
    FleetChurn,
    /// 16 controllers behind a mock host: `nimbus-core` alone.
    CoreEmbed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::BulkCubic,
        Workload::Fig1Nimbus,
        Workload::FleetChurn,
        Workload::CoreEmbed,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BulkCubic => "bulk_cubic",
            Workload::Fig1Nimbus => "fig1_nimbus",
            Workload::FleetChurn => "fleet_churn",
            Workload::CoreEmbed => "core_embed",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub(crate) fn sim(self) -> Option<SimWorkload> {
        match self {
            Workload::BulkCubic => Some(SimWorkload::BulkCubic),
            Workload::Fig1Nimbus => Some(SimWorkload::Fig1Nimbus),
            Workload::FleetChurn => Some(SimWorkload::FleetChurn),
            Workload::CoreEmbed => None,
        }
    }
}

/// The end-to-end metrics: `(name, unit)`, all lower-is-better.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_ms_per_sim_s", "ms/s"),
    ("peak_heap_mb", "MB"),
    ("allocs_per_sim_s", "1/s"),
    ("setup_s", "s"),
];

/// The per-layer metrics every traced run prints: `(name, unit)`.  A layer
/// the workload does not cross reads 0.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("netsim.engine.self_ms_per_sim_s", "ms/s"),
    ("netsim.engine.events_per_sim_s", "1/s"),
    ("netsim.engine.ns_per_event", "ns"),
    ("netsim.engine.allocs_per_sim_s", "1/s"),
    ("netsim.queue.dropped_pkts_per_sim_s", "1/s"),
    ("transport.sender.self_ms_per_sim_s", "ms/s"),
    ("transport.sender.calls_per_sim_s", "1/s"),
    ("transport.sender.ns_per_call", "ns"),
    ("transport.sender.allocs_per_sim_s", "1/s"),
    ("transport.sender.retransmit_frac", "ratio"),
    ("transport.sender.scan_steps_per_ack", "ratio"),
    ("core.cc.on_ack.ms_per_sim_s", "ms/s"),
    ("core.cc.on_ack.ns_mean", "ns"),
    ("core.cc.on_ack.calls_per_sim_s", "1/s"),
    ("core.cc.on_report.ms_per_sim_s", "ms/s"),
    ("core.cc.on_report.us_p50", "us"),
    ("core.cc.on_report.us_p99", "us"),
    ("core.cc.on_report.calls_per_sim_s", "1/s"),
    ("core.cc.on_report.allocs_per_call", "count"),
    ("core.cc.on_report.alloc_bytes_per_call", "bytes"),
    ("core.controller.live_kb_per_flow", "kB"),
    ("experiments.runner.build_ms", "ms"),
    ("experiments.runner.collect_ms", "ms"),
    ("traffic.fleet.build_spawner_ms", "ms"),
    ("traffic.fleet.flows_spawned_per_sim_s", "1/s"),
    ("traffic.fleet.flows_retired_frac", "ratio"),
    ("dsp.fft.forward_real_500_us", "us"),
    ("dsp.spectrum.of_signal_500_us", "us"),
    ("core.detector.eta_us", "us"),
    ("core.detector.evaluate_us", "us"),
    ("core.estimator.on_report_ns", "ns"),
    ("core.estimator.z_series_us", "us"),
    ("core.ccp.on_ack_ns", "ns"),
    ("core.ccp.report_ns", "ns"),
    ("core.detector.share_of_report", "ratio"),
    ("netsim.eventq.push_pop_ns", "ns"),
    ("netsim.eventq.reschedule_ns", "ns"),
    ("netsim.queue.droptail.enq_deq_ns", "ns"),
    ("netsim.queue.pie.enq_deq_ns", "ns"),
    ("netsim.queue.red.enq_deq_ns", "ns"),
    ("netsim.queue.codel.enq_deq_ns", "ns"),
    ("netsim.recorder.sample_ns", "ns"),
    ("netsim.recorder.snapshot_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The reported value (the floor, for a timing).
    pub value: f64,
    /// Per-rep floor/quartiles/count, where the metric has per-rep samples.
    pub summary: Option<Summary>,
}

/// Everything one run measured.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The workload run.
    pub workload: Workload,
    /// The seed its inputs were generated from.
    pub seed: u64,
    /// Whether this was the traced run.
    pub traced: bool,
    /// The time box asked for, seconds.
    pub seconds: f64,
    /// Reps attempted, the warm-up included.
    pub attempted: u64,
    /// `(rep, reason)` for every correctness check a rep violated.
    pub failures: Vec<(u64, String)>,
    /// The simulated results of the first timed rep.
    pub anchors: Value,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Traced-run detail for the `--out` record (span table, gap to Cubic).
    pub detail: Vec<(String, Value)>,
    /// The same detail as tables for a human.
    pub text: String,
}

impl RunReport {
    /// Reps that failed at least one check.
    pub fn failed(&self) -> u64 {
        let mut reps: Vec<u64> = self.failures.iter().map(|(rep, _)| *rep).collect();
        reps.sort_unstable();
        reps.dedup();
        reps.len() as u64
    }

    /// The one-line result the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Value::Map(vec![
                        ("value".into(), Value::Float(m.value)),
                        ("unit".into(), Value::Str(m.unit.into())),
                    ]),
                )
            })
            .collect();
        let line = Value::Map(vec![
            ("correct".into(), Value::Bool(self.failures.is_empty())),
            ("attempted".into(), Value::UInt(self.attempted)),
            ("failed".into(), Value::UInt(self.failed())),
            ("metrics".into(), Value::Map(metrics)),
        ]);
        serde_json::to_string(&line).expect("a value tree serializes")
    }

    /// The full record of the run, one JSON object (one line of `--out`).
    pub fn to_value(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let mut entry = vec![
                    ("value".to_string(), Value::Float(m.value)),
                    ("unit".to_string(), Value::Str(m.unit.into())),
                ];
                if let Some(Value::Map(summary)) = m.summary.map(|s| s.to_value()) {
                    entry.extend(summary);
                }
                (m.name.to_string(), Value::Map(entry))
            })
            .collect();
        let failures = self
            .failures
            .iter()
            .map(|(rep, reason)| {
                Value::Map(vec![
                    ("rep".into(), Value::UInt(*rep)),
                    ("reason".into(), Value::Str(reason.clone())),
                ])
            })
            .collect();
        let mut entries = vec![
            (
                "workload".to_string(),
                Value::Str(self.workload.name().into()),
            ),
            ("seed".to_string(), Value::UInt(self.seed)),
            ("trace".to_string(), Value::Bool(self.traced)),
            ("seconds".to_string(), Value::Float(self.seconds)),
            ("correct".to_string(), Value::Bool(self.failures.is_empty())),
            ("attempted".to_string(), Value::UInt(self.attempted)),
            ("failed".to_string(), Value::UInt(self.failed())),
            ("failures".to_string(), Value::Seq(failures)),
            ("anchors".to_string(), self.anchors.clone()),
            ("metrics".to_string(), Value::Map(metrics)),
        ];
        entries.extend(self.detail.iter().cloned());
        Value::Map(entries)
    }

    /// Every metric by name with its unit, for a human, printed above the
    /// result line.
    pub fn human(&self) -> String {
        let mut s = format!(
            "{} seed {} ({}): {} reps attempted, {} failed\n",
            self.workload.name(),
            self.seed,
            if self.traced { "traced" } else { "untraced" },
            self.attempted,
            self.failed()
        );
        for (rep, reason) in &self.failures {
            s.push_str(&format!("  FAILED rep {rep}: {reason}\n"));
        }
        s.push_str(&format!("  anchors {}\n", json(&self.anchors)));
        for m in &self.metrics {
            s.push_str(&format!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit));
            if let Some(q) = m.summary {
                s.push_str(&format!(
                    "   (q1 {:.6} median {:.6} q3 {:.6} n {})",
                    q.q1, q.median, q.q3, q.n
                ));
            }
            s.push('\n');
        }
        s.push_str(&self.text);
        s
    }
}

fn json(v: &Value) -> String {
    serde_json::to_string(v).expect("a value tree serializes")
}
