//! # nimbus-traffic
//!
//! Cross-traffic workload generators for the Nimbus reproduction.
//!
//! The paper's evaluation draws much of its cross traffic from two families,
//! both built here on top of `nimbus-transport` senders:
//!
//! * [`flow_sizes`] + [`fleet`] — a CAIDA-like wide-area workload: Cubic
//!   cross-flows whose sizes come from a heavy-tailed distribution and whose
//!   arrivals form a Poisson process targeting a configurable offered load
//!   (§8.1 "Throughput and delay with WAN cross-traffic").  The real trace is
//!   proprietary; [`flow_sizes`] documents the synthetic mixture standing in
//!   for it.  Flows are spawned open-loop at Poisson or bursty (Pareto)
//!   arrival instants via the engine's `FlowSpawner` hook and retired on
//!   completion, so 1000+-flow churn runs only pay for the concurrently
//!   active population.
//! * [`video`] — DASH-style adaptive video sources: a 4K ladder that exceeds
//!   its fair share (network-limited, elastic) and a 1080p ladder that stays
//!   below it (application-limited, inelastic), reproducing Fig. 11.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod fleet;
pub mod flow_sizes;
pub mod video;

pub use fleet::{ArrivalProcess, FleetSpawner, FleetWorkloadConfig};
pub use flow_sizes::FlowSizeDistribution;
pub use video::{VideoQuality, VideoSource};
