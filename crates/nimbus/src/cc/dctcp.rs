//! DCTCP-style ECN congestion control.
//!
//! DCTCP (Alizadeh et al., SIGCOMM 2010) reacts to the *fraction* of marked
//! packets rather than treating any mark as a loss: the receiver echoes every
//! CE mark, the sender keeps an EWMA `α` of the per-window mark fraction, and
//! once per window cuts `cwnd ← cwnd · (1 − α/2)`.  Under a shallow step
//! marker (the L4S profile in `netsim`) this yields a small, proportional
//! decrease every RTT instead of NewReno's halving — the behaviour the
//! L4S/Prague experiments need from their scalable competitor, and the model
//! the paper's elasticity detector must classify when it shares a queue with
//! an ECN flow.
//!
//! Without marks DCTCP grows exactly like Reno (slow start, then one segment
//! per RTT), so as a backlogged flow it is elastic in the sense of the
//! paper's Table 1.  The window itself is a [`NewReno`]'s: DCTCP keeps
//! only `α`, its observation window and the proportional CE cut.

use super::reno::NewReno;
use super::{AckEvent, CongestionControl, CongestionEvent, LossEvent};

/// EWMA gain `g` for the mark-fraction estimate (the DCTCP paper's 1/16).
const G: f64 = 1.0 / 16.0;

/// DCTCP: ECN mark-fraction EWMA with proportional window cuts.
#[derive(Debug, Clone)]
pub struct Dctcp {
    /// The window: slow start, congestion avoidance, the loss halving and
    /// the timeout are NewReno's.
    reno: NewReno,
    /// EWMA of the fraction of a window's bytes that carried CE marks.
    alpha: f64,
    /// Bytes acknowledged in the current observation window.
    window_acked_bytes: u64,
    /// Bytes of those that arrived CE-marked.
    window_marked_bytes: u64,
    /// ACKed packets still to count before the window closes (one cwnd's
    /// worth of ACKs approximates one RTT of feedback).
    acks_to_window_end: f64,
    /// Whether the current window may still apply its proportional cut
    /// (at most one decrease per window, like RFC 3168's gate).
    cut_armed: bool,
}

impl Dctcp {
    /// A DCTCP controller with the Linux-default initial window.
    pub fn new() -> Self {
        Dctcp {
            reno: NewReno::new(),
            alpha: 0.0,
            window_acked_bytes: 0,
            window_marked_bytes: 0,
            acks_to_window_end: 10.0,
            cut_armed: true,
        }
    }

    /// Whether the controller is currently in slow start.
    pub fn in_slow_start(&self) -> bool {
        self.reno.in_slow_start()
    }

    /// The current mark-fraction EWMA `α` (0 when no marks have been seen).
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Close the observation window: fold the measured mark fraction into
    /// `α` and start the next window.
    fn close_window(&mut self) {
        if self.window_acked_bytes > 0 {
            // Clamped: the callback API does not force hosts to couple CE
            // echoes to ACKed bytes (a CE echo may ride a zero-byte window
            // update), so the window can report more marked than ACKed
            // bytes; a fraction is still at most 1.
            let f = (self.window_marked_bytes as f64 / self.window_acked_bytes as f64).min(1.0);
            self.alpha = (1.0 - G) * self.alpha + G * f;
        }
        self.restart_window();
    }

    /// Start a fresh observation window of one cwnd's worth of ACKs.
    fn restart_window(&mut self) {
        self.window_acked_bytes = 0;
        self.window_marked_bytes = 0;
        self.acks_to_window_end = self.reno.cwnd_packets();
        self.cut_armed = true;
    }
}

impl Default for Dctcp {
    fn default() -> Self {
        Self::new()
    }
}

impl CongestionControl for Dctcp {
    fn on_packet_acked(&mut self, ack: &AckEvent) {
        self.window_acked_bytes += ack.newly_acked_bytes;
        self.reno.on_packet_acked(ack);
        self.acks_to_window_end -= ack.newly_acked_packets as f64;
        if self.acks_to_window_end <= 0.0 {
            self.close_window();
        }
    }

    fn on_packets_lost(&mut self, loss: &LossEvent) {
        // Loss still means loss: fall back to the Reno halving.
        self.reno.on_packets_lost(loss);
    }

    fn on_congestion_event(&mut self, event: &CongestionEvent) {
        match event {
            CongestionEvent::Rto { .. } => {
                self.reno.on_congestion_event(event);
                // The feedback the open window accumulated predates the
                // timeout; restart measurement cleanly.
                self.restart_window();
            }
            CongestionEvent::EcnCe { marked_bytes, .. } => {
                self.window_marked_bytes += marked_bytes;
                // The first mark ends slow start: from here on the
                // proportional law governs.
                let reno = &mut self.reno;
                if reno.in_slow_start() {
                    reno.ssthresh = reno.cwnd.max(2.0);
                }
                if self.cut_armed {
                    // Bootstrap: α starts at 0, so the very first window of
                    // marks would otherwise cut nothing.  Use the incoming
                    // fraction floor of one MSS per window as a minimum.
                    let alpha = self.alpha.max(G);
                    reno.cwnd = (reno.cwnd * (1.0 - alpha / 2.0)).max(2.0);
                    self.cut_armed = false;
                }
            }
        }
    }

    fn cwnd_packets(&self) -> f64 {
        self.reno.cwnd_packets()
    }

    fn reinitialize(&mut self, rate_bps: f64, rtt_s: f64, mss: u32) {
        self.reno.reinitialize(rate_bps, rtt_s, mss);
        self.acks_to_window_end = self.reno.cwnd;
    }

    fn name(&self) -> &'static str {
        "dctcp"
    }

    fn reads_reports(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimbus_core_types::Time;

    fn ack(n: u64) -> AckEvent {
        AckEvent {
            now: Time::from_millis(100),
            newly_acked_packets: n,
            newly_acked_bytes: n * 1500,
            rtt: Time::from_millis(50),
            min_rtt: Time::from_millis(50),
            in_flight_packets: 10,
            mss: 1500,
        }
    }

    fn ce(bytes: u64) -> CongestionEvent {
        CongestionEvent::EcnCe {
            now: Time::ZERO,
            marked_bytes: bytes,
        }
    }

    #[test]
    fn grows_like_reno_without_marks() {
        let mut cc = Dctcp::new();
        let start = cc.cwnd_packets();
        for _ in 0..(start as u64) {
            cc.on_packet_acked(&ack(1));
        }
        assert!((cc.cwnd_packets() - start * 2.0).abs() < 1e-9);
        assert!(cc.alpha() < 1e-12, "no marks, no alpha");
    }

    #[test]
    fn first_mark_exits_slow_start_and_cuts_once() {
        let mut cc = Dctcp::new();
        cc.reno.cwnd = 64.0;
        cc.acks_to_window_end = 64.0;
        assert!(cc.in_slow_start());
        let before = cc.cwnd_packets();
        for _ in 0..30 {
            cc.on_congestion_event(&ce(1500));
        }
        assert!(!cc.in_slow_start());
        let after = cc.cwnd_packets();
        // One proportional cut, far gentler than a halving.
        assert!(after < before && after > before * 0.9);
    }

    #[test]
    fn alpha_tracks_the_mark_fraction() {
        let mut cc = Dctcp::new();
        cc.reno.cwnd = 10.0;
        cc.acks_to_window_end = 10.0;
        cc.reno.ssthresh = 10.0;
        // Many windows where ~half the bytes are marked; the EWMA needs
        // roughly 3/g of them to converge.
        for _ in 0..80 {
            for i in 0..10 {
                if i % 2 == 0 {
                    cc.on_congestion_event(&ce(1500));
                }
                cc.on_packet_acked(&ack(1));
            }
        }
        assert!(
            (cc.alpha() - 0.5).abs() < 0.15,
            "alpha {} should approach 0.5",
            cc.alpha()
        );
    }

    #[test]
    fn heavy_marking_converges_to_near_halving() {
        let mut cc = Dctcp::new();
        cc.reno.ssthresh = 2.0; // out of slow start
        cc.reno.cwnd = 100.0;
        cc.acks_to_window_end = 100.0;
        // Every packet marked for many windows: alpha -> 1, cut -> cwnd/2.
        for _ in 0..60 {
            for _ in 0..20 {
                cc.on_congestion_event(&ce(1500));
                cc.on_packet_acked(&ack(1));
            }
        }
        assert!(cc.alpha() > 0.8, "alpha {} should approach 1", cc.alpha());
    }

    #[test]
    fn rto_collapses_and_clears_the_window() {
        let mut cc = Dctcp::new();
        cc.reno.cwnd = 80.0;
        cc.on_congestion_event(&ce(1500));
        cc.on_congestion_event(&CongestionEvent::Rto { now: Time::ZERO });
        assert!(cc.cwnd_packets() <= 10.0);
        assert_eq!(cc.window_marked_bytes, 0);
    }

    #[test]
    fn no_pacing_rate_pure_ack_clocking() {
        let cc = Dctcp::new();
        assert!(cc.pacing_rate_bps(Time::ZERO).is_none());
    }
}
