//! # nimbus-sim
//!
//! The simulator adapter: the only crate that knows about **both** the
//! host-independent algorithm crate (`nimbus-core`) and the packet-level
//! simulator stack (`nimbus-netsim` + `nimbus-transport`).
//!
//! `nimbus-core` deliberately has no dependency on the simulator — it speaks
//! only through the [`CongestionControl`](nimbus_core::CongestionControl)
//! host abstraction (ACK / loss / congestion-event / report callbacks).  This
//! crate supplies the glue in the other direction: [`nimbus_flow`] packages a
//! [`NimbusController`] into a complete
//! simulator flow endpoint (sender machinery + backlogged source), ready to
//! be added to a [`Network`](nimbus_netsim::Network).
//!
//! The end-to-end tests that drive the full controller through the
//! simulator are the root package's `tests/end_to_end_detection.rs`, and
//! the `quickstart` example runs a [`nimbus_flow`] under its pinned output.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use nimbus_core::{NimbusConfig, NimbusController};
use nimbus_transport::{BackloggedSource, Sender, SenderConfig};

/// Convenience: build a complete Nimbus flow endpoint (sender machinery +
/// Nimbus controller + backlogged source) ready to be added to a
/// [`Network`](nimbus_netsim::Network).
pub fn nimbus_flow(cfg: NimbusConfig, label: &str) -> Sender {
    Sender::new(
        SenderConfig::labelled(label),
        Box::new(NimbusController::new(cfg)),
        Box::new(BackloggedSource),
    )
}
