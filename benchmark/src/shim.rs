//! Transparent timing shims around the program's trait objects.
//!
//! The traced run wraps the `Box<dyn CongestionControl>` handed to
//! `Sender::new` in a [`TimedCc`], every `Box<dyn FlowEndpoint>` handed to
//! `Network::add_flow` in a [`TimedEndpoint`], and the fleet spawner in a
//! [`TimedSpawner`] that wraps each flow it yields.  Each shim forwards every
//! call unchanged and opens a [`trace`] span around it, so the program runs
//! the same events in the same order (the shim-transparency test pins this).
//!
//! Both `as_any`s forward to the wrapped object, so `runner::nimbus_of` —
//! endpoint → `Sender` → controller → `NimbusController` — still resolves
//! through both shims.
//!
//! `cwnd_packets` / `pacing_rate_bps` are forwarded without a span: the
//! sender calls them on every poll and they cost less than two clock reads.
//! Their time therefore stays in the calling sender span's self time.  The
//! same holds for the controllers the program builds itself out of reach
//! (cross flows from `figures::*_cross_flow`, fleet flows' CCAs).

use crate::trace::{self, Span};
use nimbus_core::cc::{AckEvent, CongestionControl, CongestionEvent, LossEvent};
use nimbus_core::Report;
use nimbus_core_types::Time;
use nimbus_netsim::{AckInfo, FlowConfig, FlowEndpoint, FlowSpawner, SendAction};
use nimbus_transport::Sender;
use std::any::Any;

/// Times the four event callbacks of a congestion controller.
pub struct TimedCc {
    inner: Box<dyn CongestionControl>,
}

impl TimedCc {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn CongestionControl>) -> Self {
        TimedCc { inner }
    }
}

impl CongestionControl for TimedCc {
    fn on_packet_acked(&mut self, ack: &AckEvent) {
        let _span = trace::enter(Span::CcOnAck);
        self.inner.on_packet_acked(ack);
    }

    fn on_packets_lost(&mut self, loss: &LossEvent) {
        let _span = trace::enter(Span::CcOnLoss);
        self.inner.on_packets_lost(loss);
    }

    fn on_congestion_event(&mut self, event: &CongestionEvent) {
        let _span = trace::enter(Span::CcOnEvent);
        self.inner.on_congestion_event(event);
    }

    fn on_report(&mut self, report: &Report) {
        let _span = trace::enter(Span::CcOnReport);
        self.inner.on_report(report);
    }

    fn cwnd_packets(&self) -> f64 {
        self.inner.cwnd_packets()
    }

    fn pacing_rate_bps(&self, now: Time) -> Option<f64> {
        self.inner.pacing_rate_bps(now)
    }

    fn reinitialize(&mut self, rate_bps: f64, rtt_s: f64, mss: u32) {
        self.inner.reinitialize(rate_bps, rtt_s, mss);
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn as_any(&self) -> Option<&dyn Any> {
        self.inner.as_any()
    }
}

/// Times the engine's calls into a flow endpoint.
pub struct TimedEndpoint {
    inner: Box<dyn FlowEndpoint>,
}

impl TimedEndpoint {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn FlowEndpoint>) -> Self {
        TimedEndpoint { inner }
    }
}

impl FlowEndpoint for TimedEndpoint {
    fn on_start(&mut self, now: Time) {
        let _span = trace::enter(Span::SenderOther);
        self.inner.on_start(now);
    }

    fn on_ack(&mut self, ack: &AckInfo) {
        let _span = trace::enter(Span::SenderOnAck);
        self.inner.on_ack(ack);
    }

    fn on_tick(&mut self, now: Time) {
        let _span = trace::enter(Span::SenderOnTick);
        self.inner.on_tick(now);
    }

    fn poll_send(&mut self, now: Time) -> SendAction {
        let _span = trace::enter(Span::SenderPollSend);
        self.inner.poll_send(now)
    }

    fn on_packet_dropped(&mut self, seq: u64, now: Time) {
        let _span = trace::enter(Span::SenderOther);
        self.inner.on_packet_dropped(seq, now);
    }

    fn label(&self) -> &str {
        self.inner.label()
    }

    fn as_any(&self) -> Option<&dyn Any> {
        self.inner.as_any()
    }
}

impl Drop for TimedEndpoint {
    /// A retired fleet flow's `Sender` is dropped mid-run, so its statistics
    /// are banked here, where every flow passes exactly once.
    fn drop(&mut self) {
        let Some(sender) = self.inner.as_any().and_then(|a| a.downcast_ref::<Sender>()) else {
            return;
        };
        trace::count(|c| {
            c.packets_sent += sender.packets_sent();
            c.packets_retransmitted += sender.packets_retransmitted();
            c.scoreboard_scan_steps += sender.scoreboard_scan_steps();
        });
    }
}

/// Times flow creation and wraps every flow the spawner yields.
pub struct TimedSpawner {
    inner: Box<dyn FlowSpawner>,
}

impl TimedSpawner {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn FlowSpawner>) -> Self {
        TimedSpawner { inner }
    }
}

impl FlowSpawner for TimedSpawner {
    fn next_flow(&mut self) -> Option<(Time, FlowConfig, Box<dyn FlowEndpoint>)> {
        let _span = trace::enter(Span::FleetNextFlow);
        let (at, cfg, endpoint) = self.inner.next_flow()?;
        trace::count(|c| c.flows_spawned += 1);
        Some((at, cfg, Box::new(TimedEndpoint::new(endpoint))))
    }
}
