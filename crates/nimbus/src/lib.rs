//! # nimbus-core
//!
//! The paper's contribution: **elasticity detection** and the **Nimbus**
//! mode-switching congestion controller.
//!
//! The pipeline, end to end (§3–§6 of the paper):
//!
//! 1. The sender modulates its pacing rate with an **asymmetric sinusoidal
//!    pulse** at a known frequency `f_p` (Fig. 7, [`nimbus_dsp::pulse`]).
//! 2. From the CCP-style measurement reports (send rate `S`, receive rate
//!    `R`) and the known bottleneck rate `µ`, the [`estimator`] computes the
//!    cross-traffic rate `ẑ = µ·S/R − S` (Eq. 1).
//! 3. The [`detector`] keeps the last five seconds of `ẑ` samples and their
//!    spectrum at the bins Eq. 3 reads (a sliding DFT: one sample in per
//!    report, no FFT, no allocation), and computes the elasticity metric
//!    `η = |FFT_ẑ(f_p)| / max_{f∈(f_p,2f_p)} |FFT_ẑ(f)|` (Eq. 3).  `η ≥ 2`
//!    means some of the cross traffic is reacting to the pulses — it contains
//!    elastic (ACK-clocked) flows.
//! 4. An [`ElasticityProbe`] ([`probe`]) is steps 1–3 as one building block,
//!    with ECN mark-rate cross-validation and, for several Nimbus flows on one
//!    bottleneck, the pulser/watcher protocol of §6; it reports [`Evidence`].
//! 5. The [`controller`] turns that evidence into a mode: a **TCP-competitive**
//!    inner controller (Cubic, NewReno or DCTCP) or a **delay-controlling**
//!    one ([`basic_delay::BasicDelay`], Vegas or Copa's default mode), reset to
//!    the rate of five seconds ago on entering competitive mode (§4.1).
//!
//! Everything is deterministic and **simulator-free**: this crate depends
//! only on the DSP library and the tiny `nimbus-core-types` crate (`Time`,
//! rate strings), never on `nimbus-netsim`.  A host — the simulator's sender
//! machinery in `nimbus-transport`, a real stack, or a fuzz harness — drives
//! any of the controllers here through the [`cc::CongestionControl`]
//! callbacks (`on_packet_acked` / `on_packets_lost` / `on_congestion_event`
//! / `on_report`) and reads back a window and a pacing rate.  Alongside the
//! Nimbus pipeline this crate therefore also hosts:
//!
//! * [`cc`] — the host-abstraction trait, [`cc::PathInfo`] (the MSS a
//!   scheme starts from), and every baseline congestion-control algorithm
//!   the paper evaluates, built through [`cc::CcKind`];
//! * [`ccp`] — the CCP-style measurement-report aggregator (§4.2) that
//!   produces the [`ccp::Report`]s the `on_report` callback consumes;
//! * [`rtt`] — SRTT/RTTVAR/RTO estimation (RFC 6298) and min-RTT tracking.
//!
//! See `examples/embed_core.rs` at the workspace root for a complete mock
//! host driving this crate with no simulator anywhere.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod basic_delay;
pub mod cc;
pub mod ccp;
pub mod controller;
pub mod detector;
pub mod estimator;
pub mod probe;
pub mod rtt;

pub use basic_delay::BasicDelay;
pub use cc::{
    format_rate_bps, parse_rate_bps, AckEvent, CcKind, CongestionControl, CongestionEvent,
    LossEvent, PathInfo,
};
pub use ccp::{Report, ReportAggregator};
pub use controller::{
    DelayScheme, Mode, NimbusConfig, NimbusController, NimbusSpec, Publisher, SwitchSpec, TcpScheme,
};
pub use detector::{DetectorVerdict, ElasticityConfig, ElasticityDetector, ETA_THRESHOLD};
pub use estimator::{CrossTrafficEstimator, LearnedMuConfig, MuSpec, ProbingConfig, ZFilterConfig};
pub use probe::{ElasticityProbe, Evidence, MultiflowConfig, Role};
pub use rtt::RttEstimator;
