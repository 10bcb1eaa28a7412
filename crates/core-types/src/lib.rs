//! # nimbus-core-types
//!
//! Host-independent primitive types shared by the Nimbus congestion-control
//! core (`nimbus-core`) and whatever hosts it — the packet-level simulator
//! (`nimbus-netsim`), a real datapath, or a test harness.  Keeping these in
//! a crate with no simulator dependency is what lets `nimbus-core` build
//! standalone.
//!
//! * [`Time`] — integer-nanosecond time points and durations.
//! * [`transmission_time`] — serialization delay of a packet on a link.
//! * [`REPORT_INTERVAL`] — the 10 ms CCP report cadence every layer shares.
//! * [`parse_rate_bps`] / [`format_rate_bps`] — human-friendly bit-rate
//!   strings (`48M`, `1200k`) used by scheme specs and CLI flags.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod rate;
pub mod time;

pub use rate::{format_rate_bps, parse_rate_bps};
pub use time::{transmission_time, Time, REPORT_INTERVAL};
