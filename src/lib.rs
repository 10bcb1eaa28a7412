//! # nimbus-repro
//!
//! A from-scratch Rust reproduction of *"Elasticity Detection: A Building
//! Block for Internet Congestion Control"* (Goyal et al.): the Nimbus
//! elasticity detector and mode-switching congestion controller, every
//! baseline it is evaluated against, and the packet-level network simulator
//! the evaluation runs on.
//!
//! This facade crate re-exports the workspace members under short names:
//!
//! * [`core_types`] — host-independent primitives ([`core_types::Time`],
//!   rate parsing/formatting) shared by every layer; their one dependency
//!   is the vendored `serde`, for `Time`'s JSON.
//! * [`dsp`] — FFT, pulse shapes, filters, statistics.
//! * [`netsim`] — the discrete-event dumbbell simulator (Mahimahi stand-in).
//! * [`transport`] — sender machinery and application sources (the
//!   simulator-free congestion controllers it drives live in [`nimbus`]).
//! * [`traffic`] — WAN and video cross-traffic generators.
//! * [`nimbus`] — the paper's contribution, simulator-free: estimator,
//!   detector, BasicDelay, the Nimbus controller, the multi-flow
//!   pulser/watcher protocol and every baseline congestion controller.
//! * [`sim`] — the adapter wiring `nimbus` into the simulator
//!   ([`sim::nimbus_flow`]).
//! * [`experiments`] — the harness regenerating every table and figure.
//!
//! See `README.md` for a quickstart, the workspace layout, the scenario
//! grammar and the experiment catalogue.

pub use nimbus_core as nimbus;
pub use nimbus_core_types as core_types;
pub use nimbus_dsp as dsp;
pub use nimbus_experiments as experiments;
pub use nimbus_netsim as netsim;
pub use nimbus_sim as sim;
pub use nimbus_traffic as traffic;
pub use nimbus_transport as transport;

// README's Rust snippets run as doctests of this crate, so one that uses a
// removed or renamed API fails `cargo test`.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
