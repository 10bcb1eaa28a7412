//! The one scenario description ([`ScenarioSpec`] and its sub-specs, each
//! with its canonical string form), network construction, and post-run metric
//! extraction shared by every figure.
//!
//! # Scenario grammar
//!
//! Every spec type here prints ([`std::fmt::Display`]) and parses
//! ([`std::str::FromStr`]) one canonical string through the shared
//! [`grammar`](crate::grammar) tokenizer; [`grammar_reference`] renders the
//! whole grammar from the option tables.

mod cross;
mod path;
mod run;
mod scenario;

pub use cross::{CrossRate, CrossSource, CrossSpec};
pub use path::{BuiltinTrace, EcnSpec, HopSpec, LinkScheduleSpec, LoadedTrace};
pub use run::{
    nimbus_of, run_and_collect, run_scenario, run_scheme_vs_cross, Monitored, NimbusTrace,
    RunOutput, SingleFlowMetrics,
};
pub use scenario::{grammar_reference, FleetSpec, ScenarioSpec};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::SchemeSpec;
    use nimbus_netsim::{FlowConfig, FlowEndpoint, Time};
    use nimbus_transport::{CcKind, FixedSizeSource, PathInfo, Sender, SenderConfig};

    #[test]
    fn paper_default_link() {
        let spec = ScenarioSpec::default_96mbps(180.0);
        assert_eq!(spec.link_rate_bps, 96e6);
        assert_eq!(spec.schedule, LinkScheduleSpec::Constant);
    }

    #[test]
    fn loss_zero_is_the_lossless_default() {
        let lossless: ScenarioSpec = "48M vs alone loss=0 dur=1s".parse().unwrap();
        assert_eq!(lossless, "48M vs alone dur=1s".parse().unwrap());
        assert_eq!(lossless.to_string(), "48M vs alone seed=1 dur=1s");
    }

    #[test]
    fn schedule_specs_materialize_against_the_base_rate() {
        let step = LinkScheduleSpec::Step {
            at_s: 10.0,
            factor: 0.5,
        };
        let s = step.to_schedule(96e6);
        assert_eq!(s.rate_at(Time::from_secs_f64(5.0)), 96e6);
        assert_eq!(s.rate_at(Time::from_secs_f64(15.0)), 48e6);
        assert_eq!(step.label(), "step50@10");

        let sin = LinkScheduleSpec::Sinusoid {
            amplitude_frac: 0.25,
            period_s: 8.0,
        };
        let s = sin.to_schedule(48e6);
        assert_eq!(s.max_rate_bps(), 60e6);
        assert_eq!(s.min_rate_bps(), 36e6);
        assert_eq!(sin.label(), "sin25p8");

        let trace = LinkScheduleSpec::Trace {
            interval_s: 0.5,
            factors: vec![1.0, 0.25],
        };
        let s = trace.to_schedule(40e6);
        assert_eq!(s.rate_at(Time::from_millis(250)), 40e6);
        assert_eq!(s.rate_at(Time::from_millis(750)), 10e6);
        // Repeats.
        assert_eq!(s.rate_at(Time::from_millis(1250)), 40e6);
        assert_eq!(trace.label(), "trace2");
        assert_eq!(LinkScheduleSpec::Constant.label(), "const");
    }

    #[test]
    fn run_scheme_vs_cross_produces_metrics() {
        let spec = ScenarioSpec {
            duration_s: 15.0,
            ..ScenarioSpec::fig1_48mbps(15.0)
        };
        let cross: Vec<(FlowConfig, Box<dyn FlowEndpoint>)> = vec![(
            FlowConfig::cross("short", Time::from_millis(50), true).with_size(2_000_000),
            Box::new(Sender::new(
                SenderConfig::labelled("short"),
                CcKind::Cubic.build(&PathInfo::new(1500)),
                Box::new(FixedSizeSource::new(2_000_000)),
            )),
        )];
        let out = run_scheme_vs_cross(&spec, SchemeSpec::cubic(), cross, 3.0);
        assert_eq!(out.flows.len(), 1);
        let m = &out.flows[0];
        assert_eq!(m.label, "cubic");
        assert!(m.mean_throughput_mbps > 20.0, "{}", m.mean_throughput_mbps);
        assert!(!m.throughput_series.is_empty());
        assert!(m.mean_rtt_ms > 40.0);
        // Non-Nimbus flows report a full delay-mode fraction and empty logs.
        assert_eq!(m.delay_mode_fraction, 1.0);
        assert!(m.mode_log.is_empty());
    }

    #[test]
    fn trace_file_schedules_load_and_label() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../traces/sample-cellular.mahimahi"
        );
        let spec = LinkScheduleSpec::TraceFile(LoadedTrace::load(path).unwrap());
        let s = spec.to_schedule(48e6);
        // Absolute rates from the file: the 48 Mbit/s base does not scale them.
        assert!(s.max_rate_bps() < 20e6, "max {}", s.max_rate_bps());
        assert!(!s.is_constant());
        assert_eq!(spec.label(), "mm-sample-cellular");
    }

    #[test]
    fn a_missing_trace_file_is_rejected_with_its_path() {
        let err = LoadedTrace::load("/nonexistent/x.trace").unwrap_err();
        assert!(err.0.contains("cannot load mahimahi trace"), "{err}");
        assert!(err.0.contains("/nonexistent/x.trace"), "{err}");
    }

    #[test]
    fn named_trace_schedules_materialize_and_label() {
        let spec = LinkScheduleSpec::NamedTrace(BuiltinTrace::named("cellular").unwrap());
        let s = spec.to_schedule(48e6);
        assert_eq!(spec.label(), "trace-cellular");
        // The factors scale the base rate, and the trace repeats.
        let (interval_s, factors) =
            nimbus_netsim::RateSchedule::builtin_trace_factors("cellular").unwrap();
        let mid = |t_s: f64| s.rate_at(Time::from_secs_f64(t_s + interval_s / 2.0));
        assert_eq!(mid(0.0), factors[0] * 48e6);
        assert_eq!(mid(interval_s * factors.len() as f64), mid(0.0));
    }

    #[test]
    fn an_unknown_trace_name_is_rejected_with_the_catalogue() {
        let err = BuiltinTrace::named("bogus").unwrap_err();
        let catalogue = "`bogus` (available: cellular, wifi, step-outage)";
        assert!(err.0.contains(catalogue), "{err}");
    }

    #[test]
    fn cross_qualifiers_reach_the_label_and_the_flow() {
        let label = |s: &str| s.parse::<CrossSpec>().unwrap().label();
        assert_eq!(label("poisson@24M@hop1-1"), "poisson-24M-hop1");
        let windowed = "nimbus@rtt=200ms,start=5s,stop=9s,seed=3";
        assert_eq!(label(windowed), "nimbus-rtt200ms-at5s-to9s-seed3");
        let text = format!("48M hop(0.5) vs cbr@0.5@hop1-1+{windowed} dur=10s");
        let flows = text.parse::<ScenarioSpec>().unwrap().cross_flows();
        let (cbr, nimbus) = (&flows[0].0, &flows[1].0);
        assert_eq!(cbr.label, "cbr-cross0");
        assert_eq!((cbr.entry_hop, cbr.exit_hop), (1, Some(1)));
        assert_eq!(nimbus.prop_rtt, Time::from_millis(200));
        assert_eq!(nimbus.start, Time::from_millis(5000));
        // A fraction scales the base rate of the hop the flow enters at.
        let spec: ScenarioSpec = "48M hop(0.5) vs cbr@0.1@stop=1s+cbr@0.2@hop1-1 dur=2s"
            .parse()
            .unwrap();
        let out = run_scheme_vs_cross(&spec, SchemeSpec::constant(1e6), Vec::new(), 1.0);
        let mbit = |i: usize| out.recorder.flows[i].delivered_bytes as f64 * 8e-6;
        assert!((mbit(1) - 4.8).abs() < 0.3, "48M·0.1 for 1 s: {}", mbit(1));
        assert!((mbit(2) - 9.6).abs() < 0.6, "24M·0.2 for 2 s: {}", mbit(2));
    }

    #[test]
    fn spec_described_cross_flows_compete() {
        // A declarative heterogeneous scenario: monitored Cubic vs a paced
        // CBR scheme carried entirely by `ScenarioSpec::cross`.
        let spec: ScenarioSpec = "48M vs constant(24M) dur=15s".parse().unwrap();
        let out = run_scheme_vs_cross(&spec, SchemeSpec::cubic(), Vec::new(), 5.0);
        let m = &out.flows[0];
        // The CBR flow holds its half, so Cubic lands near the other half.
        assert!(
            m.mean_throughput_mbps > 14.0 && m.mean_throughput_mbps < 30.0,
            "cubic got {} Mbit/s against a 24 Mbit/s CBR competitor",
            m.mean_throughput_mbps
        );
    }

    #[test]
    fn fleet_spec_labels_and_scaled_sizes() {
        let fleet = |s: &str| s.parse::<FleetSpec>().unwrap();
        assert_eq!(FleetSpec::poisson(0.5).label(), "fleet-poisson-l50");
        assert_eq!(
            fleet("fleet(arrivals=bursty,load=0.3,mean=50k)").label(),
            "fleet-bursty-l30-m50k"
        );
        let sizes = fleet("fleet(load=0.5,mean=50k)").size_distribution();
        assert!(
            (sizes.mean_bytes() - 50_000.0).abs() < 1.0,
            "rescaled mean {}",
            sizes.mean_bytes()
        );
    }

    #[test]
    fn scenario_with_fleet_churns_and_retires() {
        let spec = ScenarioSpec {
            duration_s: 15.0,
            fleet: Some(FleetSpec::poisson(0.3)),
            ..ScenarioSpec::fig1_48mbps(15.0)
        };
        let out = run_scheme_vs_cross(&spec, SchemeSpec::cubic(), Vec::new(), 5.0);
        // The fleet actually ran: many finite flows completed...
        let fcts = out.recorder.fct_stream();
        assert!(fcts.len() > 30, "only {} fleet completions", fcts.len());
        // ...and the monitored flow still got a usable share.
        let m = &out.flows[0];
        assert!(
            m.mean_throughput_mbps > 10.0,
            "cubic got {} Mbit/s under 30% churn",
            m.mean_throughput_mbps
        );
        let summary = out.recorder.fct_summary();
        assert_eq!(summary.all.count as usize, fcts.len());
        assert!(summary.mice.count > 0, "churn must include mice");
        assert!(summary.all.p50_s > 0.0);
    }

    #[test]
    fn l4s_scenario_marks_instead_of_dropping_for_dctcp() {
        let spec = ScenarioSpec {
            duration_s: 12.0,
            ecn: EcnSpec::L4s,
            ..ScenarioSpec::fig1_48mbps(12.0)
        };
        let out = run_scheme_vs_cross(&spec, SchemeSpec::dctcp(), Vec::new(), 3.0);
        let marks: u64 = out.recorder.hop_marked_packets.iter().sum();
        let drops: u64 = out.recorder.hop_dropped_packets.iter().sum();
        assert!(marks > 100, "a 1 ms step marker should mark often: {marks}");
        assert_eq!(
            drops, 0,
            "DCTCP on an L4S queue should see marks, not drops"
        );
        let m = &out.flows[0];
        assert!(
            m.mean_throughput_mbps > 35.0,
            "dctcp should fill the 48 Mbit/s link, got {}",
            m.mean_throughput_mbps
        );
    }

    #[test]
    fn ecn_off_scenario_is_mark_free_for_every_flow() {
        let spec = ScenarioSpec {
            duration_s: 10.0,
            ..ScenarioSpec::fig1_48mbps(10.0)
        };
        let out = run_scheme_vs_cross(&spec, SchemeSpec::cubic(), Vec::new(), 3.0);
        assert!(out.recorder.hop_marked_packets.iter().all(|&m| m == 0));
    }

    #[test]
    fn nimbus_metrics_include_mode_log() {
        let spec = ScenarioSpec {
            duration_s: 12.0,
            ..ScenarioSpec::fig1_48mbps(12.0)
        };
        let out = run_scheme_vs_cross(&spec, SchemeSpec::nimbus(), Vec::new(), 3.0);
        let m = &out.flows[0];
        assert_eq!(m.label, "nimbus");
        assert!(!m.mode_log.is_empty());
        assert!(
            m.delay_mode_fraction > 0.5,
            "alone on the link Nimbus should stay in delay mode"
        );
    }

    #[test]
    fn switch_never_holds_delay_mode_on_every_path() {
        // A DCTCP competitor on a classic-ECN queue: mark-rate
        // cross-validation wants competitive mode within seconds of warm-up,
        // and `switch=never` must decline it as it declines the detector.
        let scheme: SchemeSpec = "nimbus(competitive=dctcp,switch=never)".parse().unwrap();
        let spec: ScenarioSpec = "48M ecn=classic vs dctcp seed=2 dur=10s".parse().unwrap();
        let out = run_scheme_vs_cross(&spec, scheme, Vec::new(), 3.0);
        let log = &out.flows[0].mode_log;
        assert!(
            log.iter().all(|(_, mode)| mode == "delay"),
            "switch=never left delay mode: {log:?}"
        );
    }
}
