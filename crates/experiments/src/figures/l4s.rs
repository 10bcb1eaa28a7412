//! ECN / L4S experiments: the marking AQM profiles, the DCTCP reaction,
//! and elasticity detection when congestion arrives as CE marks instead of
//! drops or delay.
//!
//! Three questions the ECN section of the scenario matrix
//! ([`crate::testkit::paper_invariant_matrix`]) pins as invariants are
//! quantified here as full experiments:
//!
//! * [`l4s_pulse`] — does the Nimbus pulse survive a shallow-marking
//!   queue?  (Measured: yes — delay mode ignores CE, so the ±25% µ pulse
//!   and the FFT detector behind it are unchanged under every marking
//!   profile; what changes is only the congestion signal the *competitor*
//!   sees.)
//! * [`l4s_mark_validation`] — can ẑ cross-validate against the mark rate
//!   faster than one FFT window?  (Measured: yes — a DCTCP competitor on a
//!   classic-ECN queue starves the probe flow below the FFT's sample rate,
//!   but the windowed mark fraction plus the starved flow's own ẑ ≈ µ
//!   reading flip the controller within seconds of warm-up, where the pure
//!   FFT path never fires at all.)
//! * [`l4s_coexistence`] — does `nimbus(competitive=dctcp)` coexist with
//!   DCTCP on a classic-ECN queue?  (Measured: yes, at roughly half the
//!   link; the default loss-dialect competitive mode on a mark-per-window
//!   L4S queue does not.)

use super::{first_flip_s, scenario};
use crate::output::ExperimentResult;
use crate::runner::{run_scheme_vs_cross, EcnSpec};
use crate::scheme::SchemeSpec;
use nimbus_core::{NimbusSpec, TcpScheme};

/// Pulse survival across marking profiles: the same solo Nimbus flow on a
/// drop-tail, a classic-marking, and an L4S step queue.  Delay mode treats
/// CE as telemetry, not congestion, so the operating point (throughput,
/// ~12 ms queue from the delay target, delay-mode fraction 1.0) must be
/// identical across all three — the pulse keeps probing and the detector
/// keeps returning verdicts even when every packet comes back marked.
pub fn l4s_pulse(quick: bool) -> ExperimentResult {
    let duration = if quick { 12.0 } else { 30.0 };
    let mut result = ExperimentResult::new(
        "l4s_pulse",
        "Solo Nimbus pulse survival on drop-tail vs classic-ECN vs L4S step queues",
        quick,
    );
    for (ecn, tag) in [
        (EcnSpec::Off, "off"),
        (EcnSpec::Classic, "ecn"),
        (EcnSpec::L4s, "l4s"),
    ] {
        let spec = scenario(&format!("48M ecn={ecn} seed=62 dur={duration}s"));
        let out = run_scheme_vs_cross(&spec, SchemeSpec::nimbus(), duration * 0.25);
        let m = &out.flows[0];
        result.row(&format!("{tag}_throughput_mbps"), m.mean_throughput_mbps);
        result.row(&format!("{tag}_queue_delay_ms"), m.mean_queue_delay_ms);
        result.row(&format!("{tag}_delay_mode_fraction"), m.delay_mode_fraction);
        result.row(
            &format!("{tag}_detector_verdicts"),
            m.eta_series.len() as f64,
        );
        result.row(
            &format!("{tag}_marked_packets"),
            out.recorder.hop_marked_packets.iter().sum::<u64>() as f64,
        );
        result.row(
            &format!("{tag}_dropped_packets"),
            out.recorder.hop_dropped_packets.iter().sum::<u64>() as f64,
        );
        if ecn == EcnSpec::L4s {
            result.add_series("l4s_throughput_series", m.throughput_series.clone());
            result.add_series("l4s_queue_delay_series", m.queue_delay_series.clone());
        }
    }
    result
}

/// Mark-rate cross-validation speed: `nimbus(competitive=dctcp)` against a
/// DCTCP competitor that parks a classic-ECN queue at the marking
/// threshold.  The probe flow starves below the FFT detector's sample
/// rate (the 500-sample window never fills, so the pure-FFT path returns
/// no verdicts at all), and the run contrasts the same scenario with ECN
/// off: with marks, the windowed mark fraction cross-validates ẑ and the
/// flip lands within a couple of seconds of the warm-up gate — faster
/// than a full FFT window of post-arrival data, which is the claim.
pub fn l4s_mark_validation(quick: bool) -> ExperimentResult {
    let duration = if quick { 25.0 } else { 45.0 };
    let mut result = ExperimentResult::new(
        "l4s_mark_validation",
        "Mark-rate cross-validated mode flip vs FFT starvation on a classic-ECN queue",
        quick,
    );
    let fft_window_s = nimbus_core::NimbusConfig::default_for_link(48e6)
        .elasticity
        .fft_duration_s;
    result.row("fft_window_s", fft_window_s);
    for (tag, ecn) in [("off", EcnSpec::Off), ("ecn", EcnSpec::Classic)] {
        let spec = scenario(&format!("48M ecn={ecn} vs dctcp seed=2 dur={duration}s"));
        let out = run_scheme_vs_cross(&spec, nimbus_dctcp(), duration / 3.0);
        let m = &out.flows[0];
        result.row(&format!("{tag}_first_flip_s"), first_flip_s(m));
        result.row(&format!("{tag}_throughput_mbps"), m.mean_throughput_mbps);
        result.row(&format!("{tag}_queue_delay_ms"), m.mean_queue_delay_ms);
        result.row(&format!("{tag}_delay_mode_fraction"), m.delay_mode_fraction);
        result.row(
            &format!("{tag}_detector_verdicts"),
            m.eta_series.len() as f64,
        );
        result.add_series(
            &format!("{tag}_throughput_series"),
            m.throughput_series.clone(),
        );
    }
    result
}

/// `nimbus(competitive=dctcp)`: the wrapper speaking DCTCP's ECN dialect.
fn nimbus_dctcp() -> SchemeSpec {
    SchemeSpec::Nimbus(NimbusSpec {
        competitive: TcpScheme::Dctcp,
        ..NimbusSpec::default()
    })
}

/// The coexistence matrix behind the Prague question: who shares fairly
/// with whom on a marking queue.  Three pairings, one row group each:
/// `nimbus(competitive=dctcp)` vs DCTCP on classic ECN (the tentpole —
/// fair share), plain DCTCP vs an ECT Cubic on classic ECN (the scheme
/// handles loss-dialect competitors), and default Nimbus vs DCTCP on an
/// L4S step queue (delay mode's ~12 ms target sits far above the 1 ms
/// threshold, so the competitor sees CE on every packet and concedes the
/// link — the documented compliance gap, kept visible here).
pub fn l4s_coexistence(quick: bool) -> ExperimentResult {
    let duration = if quick { 20.0 } else { 45.0 };
    let mut result = ExperimentResult::new(
        "l4s_coexistence",
        "ECN coexistence matrix: nimbus(competitive=dctcp), DCTCP and ECT Cubic on marking queues",
        quick,
    );
    let pairs: [(&str, SchemeSpec, SchemeSpec, EcnSpec); 3] = [
        (
            "nimbus_dctcp_vs_dctcp_classic",
            nimbus_dctcp(),
            SchemeSpec::dctcp(),
            EcnSpec::Classic,
        ),
        (
            "dctcp_vs_cubic_classic",
            SchemeSpec::dctcp(),
            SchemeSpec::cubic(),
            EcnSpec::Classic,
        ),
        (
            "nimbus_vs_dctcp_l4s",
            SchemeSpec::nimbus(),
            SchemeSpec::dctcp(),
            EcnSpec::L4s,
        ),
    ];
    for (tag, scheme, competitor, ecn) in pairs {
        let spec = scenario(&format!(
            "48M ecn={ecn} vs {competitor} seed=2 dur={duration}s"
        ));
        let out = run_scheme_vs_cross(&spec, scheme, duration / 3.0);
        let m = &out.flows[0];
        result.row(&format!("{tag}_throughput_mbps"), m.mean_throughput_mbps);
        result.row(&format!("{tag}_queue_delay_ms"), m.mean_queue_delay_ms);
        result.row(&format!("{tag}_delay_mode_fraction"), m.delay_mode_fraction);
        result.row(&format!("{tag}_first_flip_s"), first_flip_s(m));
        result.row(
            &format!("{tag}_marked_packets"),
            out.recorder.hop_marked_packets.iter().sum::<u64>() as f64,
        );
    }
    result
}
