//! Running a scenario: the one lowering from scenario to network, and the
//! metrics read back from a run.

use super::ScenarioSpec;
use crate::scheme::SchemeSpec;
use nimbus_core::{
    DetectorVerdict, Mode, MultiflowConfig, NimbusConfig, NimbusController, Publisher,
};
use nimbus_netsim::{
    FlowConfig, FlowEndpoint, FlowHandle, Network, RateSchedule, Recorder, Time, TimeSeries,
};
use nimbus_transport::{BackloggedSource, CongestionControl, Sender, SenderConfig};
use serde::Serialize;
use std::any::Any;
use std::cell::RefCell;

/// Summary metrics for one monitored flow after a run.
#[derive(Debug, Clone, Serialize)]
pub struct SingleFlowMetrics {
    /// Scheme label.
    pub label: String,
    /// Mean throughput over the steady-state window, Mbit/s.
    pub mean_throughput_mbps: f64,
    /// Mean RTT over the steady-state window, ms.
    pub mean_rtt_ms: f64,
    /// Mean per-packet bottleneck queueing delay, ms.
    pub mean_queue_delay_ms: f64,
    /// Throughput time series (s, Mbit/s).
    pub throughput_series: Vec<(f64, f64)>,
    /// Queueing-delay time series (s, ms).
    pub queue_delay_series: Vec<(f64, f64)>,
    /// RTT time series (s, ms).
    pub rtt_series: Vec<(f64, f64)>,
    /// Fraction of time a Nimbus flow spent in delay mode (1.0 for non-Nimbus).
    pub delay_mode_fraction: f64,
    /// Nimbus mode log (empty for non-Nimbus schemes).
    pub mode_log: Vec<(f64, String)>,
    /// Elasticity metric time series (empty for non-Nimbus schemes).
    pub eta_series: Vec<(f64, f64)>,
    /// Learned-µ series `(t_s, µ̂_bps)` for Nimbus flows estimating the link
    /// rate at runtime (empty otherwise).
    pub mu_series: Vec<(f64, f64)>,
    /// Mean relative error `|µ̂(t) − µ(t)|/µ(t)` over the steady-state window
    /// against the scenario's true rate schedule.  NaN when µ was configured
    /// (nothing learned) or no estimates fell in the window.
    pub mu_tracking_error: f64,
}

/// Everything a figure needs after a run.
pub struct RunOutput {
    /// The recorder moved out of the network.
    pub recorder: Recorder,
    /// Metrics for each monitored flow, in the order they were added.
    pub flows: Vec<SingleFlowMetrics>,
    /// Total engine events processed (for sweep benchmarking).
    pub events_processed: u64,
    /// Simulated duration actually covered, seconds.
    pub duration_s: f64,
}

/// A recorder series as `(t, v)` pairs, skipping non-finite values (an
/// interval with no observation is NaN).
pub fn series_of(ts: TimeSeries<'_>) -> Vec<(f64, f64)> {
    let mut pairs = Vec::with_capacity(ts.len());
    pairs.extend(
        ts.t.iter()
            .zip(ts.v)
            .filter(|(_, v)| v.is_finite())
            .map(|(t, v)| (*t, *v)),
    );
    pairs
}

/// Pull the Nimbus controller out of a boxed endpoint, if that is what it is.
pub fn nimbus_of(endpoint: &dyn FlowEndpoint) -> Option<&NimbusController> {
    let sender = endpoint.as_any()?.downcast_ref::<Sender>()?;
    sender
        .congestion_control()
        .as_any()?
        .downcast_ref::<NimbusController>()
}

/// The η and learned-µ̂ series of one Nimbus flow, recorded as it runs.
/// nimbus-core keeps a tally of its verdicts and no µ̂ history, so every
/// Nimbus controller the harness builds carries one of these as its
/// [`Publisher`] ([`NimbusTrace::install`]), and [`run_and_collect`] takes
/// the series out of it.  The endpoints a finished network hands back are
/// reachable only by shared reference, so the series sit in `RefCell`s.
#[derive(Debug, Default)]
pub struct NimbusTrace {
    /// `(t_s, η)` per detector verdict, η capped at 1e3 (a silent
    /// comparison band makes it infinite).
    eta: RefCell<Vec<(f64, f64)>>,
    /// `(t_s, µ̂_bps)` per learned-µ sample.
    mu: RefCell<Vec<(f64, f64)>>,
}

impl Publisher for NimbusTrace {
    fn on_mu_sample(&mut self, now_s: f64, mu_bps: f64) {
        self.mu.get_mut().push((now_s, mu_bps));
    }

    fn on_verdict(&mut self, _now_s: f64, verdict: &DetectorVerdict) {
        self.eta.get_mut().push((verdict.t_s, verdict.eta.min(1e3)));
    }
}

impl NimbusTrace {
    /// A controller running `cfg` with a fresh trace installed.
    pub fn install(cfg: NimbusConfig) -> NimbusController {
        let mut nimbus = NimbusController::new(cfg);
        nimbus.set_publisher(Box::<NimbusTrace>::default());
        nimbus
    }

    /// The trace of a controller built by [`Self::install`].
    pub fn of(nimbus: &NimbusController) -> Option<&NimbusTrace> {
        let publisher: &dyn Any = nimbus.publisher()?;
        publisher.downcast_ref()
    }
}

/// Run a prepared network and extract per-monitored-flow metrics.
///
/// `steady_start_s` excludes the start-up transient from the scalar summaries
/// (series always cover the whole run).
pub fn run_and_collect(
    mut net: Network,
    handles: &[(FlowHandle, SchemeSpec)],
    steady_start_s: f64,
) -> RunOutput {
    net.run();
    let duration_s = net.now().as_secs_f64();
    let events_processed = net.events_processed();
    // The true µ(t) a flow can sustain is the minimum over every hop's
    // schedule — on a single-hop path this is just the bottleneck schedule.
    let schedules: Vec<RateSchedule> = net.hop_schedules().into_iter().cloned().collect();
    let (recorder, endpoints) = net.finish();
    let mut flows = Vec::new();
    for (handle, scheme) in handles {
        let slot = recorder
            .monitored_slot(handle.0)
            .expect("monitored flow expected");
        let tput = recorder.throughput_mbps(slot);
        let rtt = recorder.rtt_ms(slot);
        let qd = recorder.queue_delay_ms(slot);
        let mut metrics = SingleFlowMetrics {
            label: scheme.label(),
            mean_throughput_mbps: tput.mean_in_range(steady_start_s, duration_s),
            mean_rtt_ms: rtt.mean_in_range(steady_start_s, duration_s),
            mean_queue_delay_ms: qd.mean_in_range(steady_start_s, duration_s),
            throughput_series: series_of(tput),
            queue_delay_series: series_of(qd),
            rtt_series: series_of(rtt),
            delay_mode_fraction: 1.0,
            mode_log: Vec::new(),
            eta_series: Vec::new(),
            mu_series: Vec::new(),
            mu_tracking_error: f64::NAN,
        };

        if let Some(nimbus) = nimbus_of(&endpoints[handle.0]) {
            metrics.delay_mode_fraction = nimbus.delay_mode_fraction(steady_start_s, duration_s);
            metrics.mode_log = nimbus
                .mode_log()
                .iter()
                .map(|&(t, mode)| {
                    let name = match mode {
                        Mode::Delay => "delay",
                        Mode::Competitive => "competitive",
                    };
                    (t, name.to_string())
                })
                .collect();
            let trace = NimbusTrace::of(nimbus)
                .expect("a monitored Nimbus flow is built with a NimbusTrace installed");
            metrics.eta_series = trace.eta.take();
            metrics.mu_series = trace.mu.take();
            let errors: Vec<f64> = metrics
                .mu_series
                .iter()
                .filter(|(t, _)| *t >= steady_start_s && *t <= duration_s)
                .map(|&(t, mu_hat)| {
                    let at = Time::from_secs_f64(t);
                    let mu_true = schedules
                        .iter()
                        .map(|s| s.rate_at(at))
                        .fold(f64::INFINITY, f64::min);
                    (mu_hat - mu_true).abs() / mu_true
                })
                .collect();
            if !errors.is_empty() {
                metrics.mu_tracking_error = errors.iter().sum::<f64>() / errors.len() as f64;
            }
        }
        flows.push(metrics);
    }
    RunOutput {
        recorder,
        flows,
        events_processed,
        duration_s,
    }
}

/// One monitored flow of a run: a backlogged sender on the scenario's
/// propagation RTT whose metrics [`run_and_collect`] reports under `scheme`.
pub struct Monitored {
    scheme: SchemeSpec,
    flow: FlowConfig,
    endpoint: Box<dyn FlowEndpoint>,
}

impl Monitored {
    fn new(
        spec: &ScenarioSpec,
        scheme: SchemeSpec,
        label: &str,
        start_s: f64,
        endpoint: Box<dyn FlowEndpoint>,
    ) -> Self {
        let flow = FlowConfig::primary(label, Time::from_secs_f64(spec.prop_rtt_s))
            .with_ecn(scheme.uses_ecn())
            .starting_at(Time::from_secs_f64(start_s));
        Monitored {
            scheme,
            flow,
            endpoint,
        }
    }

    /// A backlogged [`Sender`] labelled `label` around `cc`.
    fn backlogged(
        spec: &ScenarioSpec,
        scheme: SchemeSpec,
        label: &str,
        start_s: f64,
        cc: Box<dyn CongestionControl>,
    ) -> Self {
        let sender = Sender::new(
            SenderConfig::labelled(label),
            cc,
            Box::new(BackloggedSource),
        );
        Self::new(spec, scheme, label, start_s, Box::new(sender))
    }

    /// The scenario's monitored flow: `scheme` labelled with itself, handed
    /// the path's nominal µ and the scenario seed.
    pub fn scheme(spec: &ScenarioSpec, scheme: SchemeSpec) -> Self {
        let cc = scheme.build_cc(spec.nominal_mu_bps(), spec.seed, None);
        Self::backlogged(spec, scheme, &scheme.label(), 0.0, cc)
    }

    /// [`Monitored::scheme`] for a Nimbus `scheme` whose configuration
    /// `tweak` adjusts first (a pulse size or frequency the grammar does not
    /// carry).
    ///
    /// # Panics
    /// Panics on a bare (non-Nimbus) scheme.
    pub fn tweaked(
        spec: &ScenarioSpec,
        scheme: SchemeSpec,
        tweak: impl FnOnce(NimbusConfig) -> NimbusConfig,
    ) -> Self {
        let label = scheme.label();
        let cfg = scheme
            .nimbus_config(spec.nominal_mu_bps(), spec.seed)
            .expect("only Nimbus schemes take a Nimbus configuration");
        let cc = Box::new(NimbusTrace::install(tweak(cfg)));
        Self::backlogged(spec, scheme, &label, 0.0, cc)
    }

    /// A population of `n` Nimbus flows `nimbus-<i>` running the multiflow
    /// protocol (§6): flow `i` is seeded `seed + i` and starts at
    /// `i·stagger_s`.
    ///
    /// # Panics
    /// Panics on a bare (non-Nimbus) scheme.
    pub fn multiflow(
        spec: &ScenarioSpec,
        scheme: SchemeSpec,
        n: usize,
        seed: u64,
        stagger_s: f64,
    ) -> Vec<Self> {
        assert!(scheme.is_nimbus(), "multiflow needs a Nimbus scheme");
        let flow = |i: usize| {
            let multiflow = Some(MultiflowConfig::enabled());
            let cc = scheme.build_cc(spec.nominal_mu_bps(), seed + i as u64, multiflow);
            let label = format!("nimbus-{i}");
            Self::backlogged(spec, scheme, &label, i as f64 * stagger_s, cc)
        };
        (0..n).map(flow).collect()
    }
}

/// The one lowering every run takes: the scenario's network, then the
/// `monitored` flows, the scenario's [`ScenarioSpec::cross`] flows and its
/// fleet spawner, in that order.
pub fn run_scenario(
    spec: &ScenarioSpec,
    monitored: Vec<Monitored>,
    steady_start_s: f64,
) -> RunOutput {
    let mut net = spec.build_network();
    // Scenario-wide ECN makes every flow ECT: a non-ECT competitor on a
    // classic-ECN queue would fill the buffer to the drop point while ECT
    // flows back off at the (lower) marking threshold, starving them — a
    // queue-configuration artifact, not a scheme property.  (ECT on a
    // non-marking queue is harmless: no marks ever arrive.)
    let ecn = |cfg: FlowConfig| {
        let forced = cfg.ecn || spec.ecn.is_enabled();
        cfg.with_ecn(forced)
    };
    let handles: Vec<(FlowHandle, SchemeSpec)> = monitored
        .into_iter()
        .map(|m| (net.add_flow(ecn(m.flow), m.endpoint), m.scheme))
        .collect();
    for (cfg, ep) in spec.cross_flows() {
        net.add_flow(ecn(cfg), ep);
    }
    if let Some(fleet) = &spec.fleet {
        net.add_spawner(Box::new(fleet.build_spawner(
            spec.link_rate_bps,
            spec.duration_s,
            spec.seed,
        )));
    }
    run_and_collect(net, &handles, steady_start_s)
}

/// Run `scheme` alone as the monitored flow: the one-flow case of
/// [`run_scenario`].
pub fn run_scheme_vs_cross(
    spec: &ScenarioSpec,
    scheme: SchemeSpec,
    steady_start_s: f64,
) -> RunOutput {
    run_scenario(spec, vec![Monitored::scheme(spec, scheme)], steady_start_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_spec_builds_an_endpoint_with_its_label() {
        let spec = ScenarioSpec::default_96mbps(10.0);
        let specs = [
            SchemeSpec::nimbus(),
            SchemeSpec::nimbus_copa(),
            SchemeSpec::nimbus_vegas(),
            SchemeSpec::nimbus_delay_only(),
            SchemeSpec::nimbus_estmu(),
            SchemeSpec::cubic(),
            SchemeSpec::newreno(),
            SchemeSpec::vegas(),
            SchemeSpec::copa(),
            SchemeSpec::bbr(),
            SchemeSpec::vivace(),
            SchemeSpec::compound(),
            "nimbus(competitive=reno)".parse().unwrap(),
            "nimbus(delay=copa,mu=learned)".parse().unwrap(),
            SchemeSpec::constant(12e6),
        ];
        for s in specs {
            let monitored = Monitored::scheme(&spec, s);
            assert_eq!(monitored.endpoint.label(), s.label());
        }
    }

    /// Both ways the harness builds a Nimbus flow — `SchemeSpec::build_cc`
    /// and `Monitored::tweaked` — install the trace the metrics are read
    /// from: the collected η series has one point per detector verdict (the
    /// count read off a second, identical run's controller), and a learned
    /// µ leaves a µ̂ series.
    #[test]
    fn every_nimbus_construction_path_is_traced() {
        let spec = ScenarioSpec::default_96mbps(8.0);
        let scheme: SchemeSpec = "nimbus(mu=learned)".parse().unwrap();
        let paths: [(&str, &dyn Fn() -> Monitored); 2] = [
            ("build_cc", &|| Monitored::scheme(&spec, scheme)),
            ("tweaked", &|| {
                Monitored::tweaked(&spec, scheme, |cfg| cfg.with_pulse_amplitude(0.125))
            }),
        ];
        for (path, monitored) in paths {
            let out = run_scenario(&spec, vec![monitored()], 2.0);
            let metrics = &out.flows[0];

            let m = monitored();
            let mut net = spec.build_network();
            let handle = net.add_flow(m.flow, m.endpoint);
            net.run();
            let nimbus = nimbus_of(net.endpoint(handle)).expect("a Nimbus flow");
            let verdicts = nimbus.detector().verdicts().len();

            assert!(verdicts > 0, "{path}: no verdicts in {} s", spec.duration_s);
            assert_eq!(metrics.eta_series.len(), verdicts, "{path}");
            assert!(!metrics.mu_series.is_empty(), "{path}: no µ̂ series");
        }
    }
}
