//! # nimbus-transport
//!
//! The transport substrate of the Nimbus reproduction: the host-side glue
//! between the raw packet simulator ([`nimbus_netsim`]) and the
//! simulator-free congestion-control algorithms in `nimbus-core`.
//!
//! * [`sender`] — the sender machinery implementing
//!   [`nimbus_netsim::FlowEndpoint`]: sequence tracking, windowing, pacing,
//!   duplicate-ACK and timeout loss recovery, RTT estimation.  It is generic
//!   over a [`CongestionControl`] implementation, mirroring how the
//!   paper's system layers congestion-control "programs" on top of a CCP
//!   datapath.
//! * [`source`] — application models: backlogged, fixed-size, constant-rate
//!   and Poisson sources deciding *when data exists to send* (elastic vs.
//!   application-limited behaviour starts here).
//!
//! The congestion-control algorithms themselves, the CCP-style measurement
//! reports (§4.2) and the RFC 6298 RTT estimator live in the
//! host-independent `nimbus-core` crate; the handful of their names every
//! sender user needs are re-exported at this crate's root.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod sender;
pub mod source;

pub use nimbus_core::cc::{format_rate_bps, parse_rate_bps, CcKind, CongestionControl, PathInfo};
pub use nimbus_core::ccp::{Report, ReportAggregator};
pub use nimbus_core::rtt::RttEstimator;
pub use nimbus_netsim::MSS;
pub use sender::{Sender, SenderConfig};
pub use source::{BackloggedSource, FixedSizeSource, PoissonSource, ScriptedSource, Source};
