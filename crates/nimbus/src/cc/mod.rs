//! Congestion-control algorithms.
//!
//! Every scheme the paper evaluates or uses as a building block is
//! implemented here against one small host-abstraction trait,
//! [`CongestionControl`], which any host — the simulator's
//! `nimbus_transport::Sender`, a real datapath, or a test harness — drives
//! through ack/loss/congestion/report callbacks:
//!
//! | Module       | Scheme          | Role in the paper                                   |
//! |--------------|-----------------|------------------------------------------------------|
//! | [`reno`]     | NewReno         | TCP-competitive mode option; elastic cross traffic    |
//! | [`cubic`]    | Cubic           | default TCP-competitive mode; elastic cross traffic   |
//! | [`vegas`]    | Vegas           | delay-control mode option; baseline                   |
//! | [`copa`]     | Copa            | delay-control mode option; mode-switching baseline    |
//! | [`bbr`]      | BBR             | baseline                                              |
//! | [`vivace`]   | PCC-Vivace      | baseline; rate-based (non-ACK-clocked) elastic flow   |
//! | [`compound`] | Compound TCP    | baseline                                              |
//! | [`dctcp`]    | DCTCP           | ECN-reacting CCA for the L4S/Prague scenario family   |
//! | [`constant`] | CBR / unlimited | inelastic cross traffic                                |
//! | [`BasicDelay`](crate::BasicDelay) | BasicDelay | the paper's Eq. 4 delay controller (used by Nimbus) |
//!
//! `BasicDelay` needs the cross-traffic estimate, so it lives one level up
//! in this crate's root alongside the estimator; everything else is here.
//! All of it is simulator-free: hosts construct schemes through
//! [`CcKind::build`] with a [`PathInfo`] describing the path.

pub mod bbr;
pub mod compound;
pub mod constant;
pub mod copa;
pub mod cubic;
pub mod dctcp;
pub mod reno;
pub mod vegas;
pub mod vivace;

use crate::ccp::Report;
use nimbus_core_types::Time;

/// Everything a congestion controller learns from one (new, non-duplicate) ACK.
#[derive(Debug, Clone, Copy)]
pub struct AckEvent {
    /// Time the ACK arrived.
    pub now: Time,
    /// Segments newly acknowledged by this ACK.
    pub newly_acked_packets: u64,
    /// Bytes newly acknowledged by this ACK.
    pub newly_acked_bytes: u64,
    /// RTT sample carried by this ACK.
    pub rtt: Time,
    /// Smallest RTT observed so far on this connection.
    pub min_rtt: Time,
    /// Segments in flight after processing this ACK.
    pub in_flight_packets: u64,
    /// The flow's maximum segment size in bytes.
    pub mss: u32,
}

/// Everything a congestion controller learns from one loss detection
/// (duplicate-ACK fast retransmit).
#[derive(Debug, Clone, Copy)]
pub struct LossEvent {
    /// Time the loss was detected.
    pub now: Time,
    /// Segments newly declared lost by this detection.
    pub lost_packets: u64,
    /// Segments in flight when the loss was detected.
    pub in_flight_packets: u64,
}

/// A non-ACK congestion signal from the host: a retransmission timeout, or
/// an ECN congestion-experienced mark echoed back by the receiver.
///
/// The enum stays `#[non_exhaustive]` so further signals (e.g. packet
/// timestamping) can slot in without touching the trait; controllers must
/// therefore match specific variants, never treat "any congestion event" as
/// a timeout.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub enum CongestionEvent {
    /// A retransmission timeout fired: all in-flight data is presumed lost.
    Rto {
        /// Time the timeout fired.
        now: Time,
    },
    /// The receiver echoed a CE (congestion experienced) mark: an AQM on the
    /// path marked a packet instead of dropping it.  Delivered once per
    /// CE-carrying ACK.  Loss-based schemes treat this as a classic-ECN
    /// congestion signal (at most one multiplicative decrease per window);
    /// DCTCP feeds it into its mark-fraction EWMA; delay- and rate-based
    /// schemes may ignore it.
    EcnCe {
        /// Time the CE echo reached the sender.
        now: Time,
        /// Bytes of the data segment that carried the mark.
        marked_bytes: u64,
    },
}

/// Path parameters a host hands to [`CcKind::build`] when instantiating a
/// controller (the s2n-quic `PathInfo` shape), independent of any simulator.
#[derive(Debug, Clone, Copy)]
pub struct PathInfo {
    /// The flow's maximum segment size in bytes (BBR and Vivace size their
    /// initial rate from it).
    pub mss: u32,
}

impl PathInfo {
    /// Path info with the given MSS.
    pub fn new(mss: u32) -> Self {
        PathInfo { mss }
    }
}

/// A congestion-control algorithm, driven by its host through callbacks.
///
/// The host — the simulator's sender machinery, a real transport stack, or a
/// fuzz harness — owns the clock, the packets and the pacing wheel; the
/// controller only turns events ([`AckEvent`], [`LossEvent`],
/// [`CongestionEvent`], [`Report`]) into a congestion window and an optional
/// pacing rate.  Window-only schemes (Reno, Cubic, Vegas, …) return `None`
/// from [`CongestionControl::pacing_rate_bps`] and are therefore purely
/// ACK-clocked — which is what makes them *elastic* in the paper's sense.
/// Rate-based schemes (BBR, Vivace, CBR, Nimbus) return a pacing rate; their
/// window then acts only as a safety cap.
pub trait CongestionControl: Send {
    /// Process a new (non-duplicate) ACK.
    fn on_packet_acked(&mut self, ack: &AckEvent);

    /// Losses were detected by duplicate ACKs (fast retransmit).
    fn on_packets_lost(&mut self, loss: &LossEvent);

    /// A non-ACK congestion signal: a retransmission timeout or a CE mark.
    fn on_congestion_event(&mut self, event: &CongestionEvent);

    /// A periodic (10 ms) CCP-style measurement report.
    fn on_report(&mut self, _report: &Report) {}

    /// Whether this controller reads [`Report`]s at all.  A host may skip
    /// building reports — and the per-ACK records behind them — for a
    /// controller that answers `false`, and then never calls
    /// [`CongestionControl::on_report`].
    ///
    /// The contract: the answer is constant for the controller's lifetime
    /// (hosts ask once, at construction), and it must be `true` whenever
    /// `on_report` does anything.  The default is `true`, so a controller
    /// or wrapper that does not override it — a timing shim around a Nimbus,
    /// say — keeps receiving its reports; only controllers whose
    /// `on_report` is the no-op default answer `false`.
    fn reads_reports(&self) -> bool {
        true
    }

    /// Current congestion window in packets.
    fn cwnd_packets(&self) -> f64;

    /// Current pacing rate in bits/s, or `None` for pure window/ACK clocking.
    fn pacing_rate_bps(&self, _now: Time) -> Option<f64> {
        None
    }

    /// Reinitialize the controller to operate at roughly `rate_bps` given an
    /// RTT of `rtt_s` seconds.  Nimbus uses this when switching into its
    /// TCP-competitive mode: "Nimbus sets the rate (and equivalent window) to
    /// the rate that was used 5 seconds ago" (§4.1).  The default is a no-op.
    fn reinitialize(&mut self, _rate_bps: f64, _rtt_s: f64, _mss: u32) {}

    /// Short name for labels and result tables.
    fn name(&self) -> &'static str;

    /// Downcast support: controllers that want to expose internal logs to the
    /// experiment harness (Nimbus does) return `Some(self)` here.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

/// The congestion-control schemes available to experiment configurations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CcKind {
    /// TCP NewReno.
    NewReno,
    /// TCP Cubic.
    Cubic,
    /// TCP Vegas.
    Vegas,
    /// Copa (with its own default/competitive mode switching).
    Copa,
    /// BBR (model of v1).
    Bbr,
    /// PCC-Vivace.
    Vivace,
    /// Compound TCP.
    Compound,
    /// DCTCP: ECN mark-fraction EWMA with proportional cwnd cuts.
    Dctcp,
    /// Constant-bit-rate (paced, unlimited window) at the given rate.
    ConstantRate(f64),
    /// No congestion control at all: send whenever the application has data.
    Unlimited,
}

impl CcKind {
    /// Instantiate the scheme for the path described by `path` (BBR and
    /// Vivace need the MSS for initialization).
    pub fn build(self, path: &PathInfo) -> Box<dyn CongestionControl> {
        match self {
            CcKind::NewReno => Box::new(reno::NewReno::new()),
            CcKind::Cubic => Box::new(cubic::Cubic::new()),
            CcKind::Vegas => Box::new(vegas::Vegas::new()),
            CcKind::Copa => Box::new(copa::Copa::new()),
            CcKind::Bbr => Box::new(bbr::Bbr::new(path.mss)),
            CcKind::Vivace => Box::new(vivace::Vivace::new(path.mss)),
            CcKind::Compound => Box::new(compound::Compound::new()),
            CcKind::Dctcp => Box::new(dctcp::Dctcp::new()),
            CcKind::ConstantRate(bps) => Box::new(constant::ConstantRate::new(bps)),
            CcKind::Unlimited => Box::new(constant::Unlimited::new()),
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            CcKind::NewReno => "newreno",
            CcKind::Cubic => "cubic",
            CcKind::Vegas => "vegas",
            CcKind::Copa => "copa",
            CcKind::Bbr => "bbr",
            CcKind::Vivace => "pcc-vivace",
            CcKind::Compound => "compound",
            CcKind::Dctcp => "dctcp",
            CcKind::ConstantRate(_) => "cbr",
            CcKind::Unlimited => "unlimited",
        }
    }
}

// The rate-string parser/printer lives in the dependency-free types crate
// with `Time`; re-exported here so hosts reach it beside the schemes.
pub use nimbus_core_types::{format_rate_bps, parse_rate_bps};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_builds_every_kind() {
        for kind in [
            CcKind::NewReno,
            CcKind::Cubic,
            CcKind::Vegas,
            CcKind::Copa,
            CcKind::Bbr,
            CcKind::Vivace,
            CcKind::Compound,
            CcKind::Dctcp,
            CcKind::ConstantRate(10e6),
            CcKind::Unlimited,
        ] {
            let cc = kind.build(&PathInfo::new(1500));
            assert!(!cc.name().is_empty());
            assert!(
                cc.cwnd_packets() > 0.0,
                "{} must start with a window",
                cc.name()
            );
        }
    }
}
