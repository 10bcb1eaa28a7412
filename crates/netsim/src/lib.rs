//! # nimbus-netsim
//!
//! A packet-level, deterministic, discrete-event network simulator built for
//! the Nimbus reproduction.  It plays the role Mahimahi plays in the paper:
//! an emulated dumbbell with a single bottleneck link (Fig. 2 of the paper),
//! shared by one or more instrumented flows and arbitrary cross traffic.
//!
//! ```text
//!  senders ──▶ [ queue | bottleneck link @ µ ] ──▶ receivers
//!     ▲                                               │
//!     └────────────── ACKs (uncongested) ◀────────────┘
//! ```
//!
//! Key properties:
//!
//! * **Packet level.** ACK clocking — the mechanism the elasticity detector
//!   relies on — emerges naturally: window-limited senders transmit only when
//!   ACKs return, and the bottleneck queue shapes the inter-packet (and hence
//!   inter-ACK) spacing.
//! * **Deterministic.** All randomness comes from seeded RNGs owned by the
//!   hops (random loss, the AQMs) and the workload generators; two runs with
//!   the same seed produce identical event sequences.
//! * **Instrumented.** The [`recorder::Recorder`] produces the throughput,
//!   queueing-delay, flow-completion-time and ground-truth-elasticity time
//!   series that the paper's figures are drawn from.  Every series is
//!   sampled on one clock that the recorder stores once; its accessors lend
//!   each series out as a [`TimeSeries`] view.
//!
//! The simulator knows nothing about congestion control: senders are
//! abstracted behind the [`endpoint::FlowEndpoint`] trait, which only the
//! `nimbus-transport` crate's `Sender` implements: it wraps any
//! `nimbus-core` controller, Nimbus itself and every algorithm the paper
//! evaluates (Cubic, NewReno, Vegas, Copa, BBR, PCC-Vivace, Compound, …).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod endpoint;
pub mod engine;
pub mod eventq;
pub mod packet;
pub mod queue;
pub mod recorder;
pub mod schedule;
pub mod seq_window;

pub use endpoint::{AckInfo, FlowEndpoint, SendAction};
pub use engine::{
    Endpoints, FlowConfig, FlowHandle, FlowSpawner, LinkConfig, Network, QueueKind, SimConfig,
};
pub use eventq::{CalendarQueue, Lane, LanePool};
pub use nimbus_core_types::Time;
pub use packet::{EcnCodepoint, FlowId, Packet, MSS};
pub use queue::{CoDelQueue, DropTailQueue, EcnMarking, PieQueue, QueueDiscipline, RedQueue};
/// `TimeSeries<'_>` is a borrowed view (the recorder's shared sample times
/// and one column of values), not an owned series.
pub use recorder::{FlowStats, Fnv1a, Recorder, RecorderConfig, TimeSeries};
pub use schedule::RateSchedule;
pub use seq_window::SeqWindow;
