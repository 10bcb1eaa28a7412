//! Embedding `nimbus-core` in a host with no simulator anywhere.
//!
//! This is the worked example for the README's "Embedding Nimbus" section:
//! a mock host event loop drives [`NimbusController`] purely through the
//! [`CongestionControl`] callbacks — the same four entry points a real
//! transport stack would call — and observes the algorithm through the
//! [`Publisher`] telemetry hook.  Nothing here imports `nimbus_netsim` or
//! `nimbus_transport`; the "network" is forty lines of arithmetic.
//!
//! The host owns everything the paper's §4.2 user-space agent owns:
//!
//! * the clock (a 10 ms tick loop),
//! * pacing (it reads [`CongestionControl::pacing_rate_bps`] and "sends"
//!   at that rate, which already carries the §4 pulses),
//! * measurement (it synthesizes the CCP-style [`Report`]s a packet-level
//!   host would build with [`nimbus_core::ReportAggregator`]).
//!
//! The mock link runs three phases of cross traffic: an inelastic 12 Mbit/s
//! CBR, then an elastic (ACK-clocked, bandwidth-hungry) competitor, then the
//! CBR again.  Watch the mode transitions: Nimbus pulses, reads the echo in
//! ẑ, switches to TCP-competitive mode while the elastic flow is present,
//! and — one full FFT window after the competitor leaves (§4.1 hysteresis) —
//! returns to delay-control mode.
//!
//! Run with: `cargo run --example embed_core`

use std::collections::VecDeque;

use nimbus_core::cc::{AckEvent, CongestionControl};
use nimbus_core::ccp::Report;
use nimbus_core::{Mode, NimbusConfig, NimbusController, Publisher};
use nimbus_core_types::{format_rate_bps, Time};

/// Bottleneck rate µ.  The paper's baseline assumes the sender knows it (a
/// provisioned access link); hosts that don't would set
/// `cfg.spec.mu = MuSpec::learned()` and let the estimator track it.
const MU: f64 = 48e6;
/// Host tick — the CCP report interval (§4.2 uses 10 ms).
const TICK_S: f64 = 0.01;
/// Propagation RTT of the mock path.
const BASE_RTT_S: f64 = 0.05;

/// Telemetry observer: prints every mode transition as it happens and the
/// current µ̂/ẑ estimates once per second, straight from the controller's
/// callbacks.
struct Stdout {
    last_mu_print_s: f64,
}

impl Publisher for Stdout {
    fn on_mode_change(&mut self, now_s: f64, mode: Mode) {
        println!("t={now_s:6.2}s  mode -> {mode:?}");
    }

    fn on_estimate(&mut self, now_s: f64, mu_bps: f64, z_bps: f64) {
        if now_s - self.last_mu_print_s >= 1.0 {
            self.last_mu_print_s = now_s;
            println!(
                "t={now_s:6.2}s  mu_hat = {:>8}  z_hat = {:>8}",
                format_rate_bps(mu_bps),
                format_rate_bps(z_bps)
            );
        }
    }
}

/// The mock bottleneck: one FIFO queue shared with scripted cross traffic.
struct MockLink {
    /// Queue backlog in bits.
    backlog_bits: f64,
    /// Recent send rates, for the elastic competitor's one-RTT-lagged view.
    send_history: VecDeque<f64>,
}

impl MockLink {
    fn new() -> Self {
        MockLink {
            backlog_bits: 0.0,
            send_history: VecDeque::new(),
        }
    }

    /// Cross-traffic rate for this tick.  The elastic phase models an
    /// ACK-clocked competitor: it grabs whatever the Nimbus flow left unused
    /// one RTT ago, so the §4 rate pulses echo back in ẑ — exactly the
    /// signature the detector listens for.  The CBR phases ignore us.
    fn cross_rate_bps(&self, t_s: f64) -> f64 {
        let elastic = (12.0..24.0).contains(&t_s);
        if elastic {
            let lag_ticks = (BASE_RTT_S / TICK_S) as usize;
            let n = self.send_history.len();
            let lagged_send = if n > lag_ticks {
                self.send_history[n - 1 - lag_ticks]
            } else {
                0.0
            };
            (0.95 * MU - lagged_send).clamp(0.0, MU)
        } else {
            12e6
        }
    }

    /// Pass one tick of traffic through the bottleneck.  Returns the Nimbus
    /// flow's receive rate and the current queueing-inclusive RTT.
    fn transfer(&mut self, t_s: f64, send_bps: f64) -> (f64, f64) {
        self.send_history.push_back(send_bps);
        if self.send_history.len() > 1000 {
            self.send_history.pop_front();
        }
        let total = send_bps + self.cross_rate_bps(t_s);
        // FIFO: while a backlog stands (or the offered load exceeds µ) the
        // queue serves at µ and each flow's share of the output is its share
        // of the input (Eq. 2's regime); only a truly idle queue passes the
        // send rate through untouched.
        let served = if self.backlog_bits > 0.0 || total > MU {
            MU.min(total + self.backlog_bits / TICK_S)
        } else {
            total
        };
        let recv = if total > 0.0 {
            served * send_bps / total
        } else {
            0.0
        };
        self.backlog_bits = (self.backlog_bits + (total - served) * TICK_S).max(0.0);
        // Cap the standing queue at 200 ms — a real buffer would tail-drop.
        self.backlog_bits = self.backlog_bits.min(0.2 * MU);
        let rtt = BASE_RTT_S + self.backlog_bits / MU;
        (recv, rtt)
    }
}

fn main() {
    let cfg = NimbusConfig::default_for_link(MU);
    // The mock host sends segments of the controller's default size.
    let mss = cfg.mss;
    let mut ctl = NimbusController::new(cfg);
    ctl.set_publisher(Box::new(Stdout {
        last_mu_print_s: 0.0,
    }));

    let mut link = MockLink::new();
    let mut min_rtt_s = BASE_RTT_S;
    let mut t_s = 0.0;
    println!("phases: 0-12s CBR cross traffic, 12-24s elastic competitor, 24-36s CBR again");
    while t_s < 36.0 {
        t_s += TICK_S;
        let now = Time::from_secs_f64(t_s);

        // 1. Pace at the controller's rate (the §4 pulses are baked in).
        let send_bps = ctl
            .pacing_rate_bps(now)
            .expect("nimbus is rate-based and always paces");

        // 2. The network happens.
        let (recv_bps, rtt_s) = link.transfer(t_s, send_bps);
        min_rtt_s = min_rtt_s.min(rtt_s);

        // 3. Deliver this tick's ACKs.  A packet-level host would call this
        //    once per ACK and let `ReportAggregator` build the report; at
        //    10 ms granularity one aggregate ACK per tick is equivalent.
        let acked_bytes = (recv_bps * TICK_S / 8.0) as u64;
        ctl.on_packet_acked(&AckEvent {
            now,
            newly_acked_packets: acked_bytes / mss as u64,
            newly_acked_bytes: acked_bytes,
            rtt: Time::from_secs_f64(rtt_s),
            min_rtt: Time::from_secs_f64(min_rtt_s),
            in_flight_packets: ctl.cwnd_packets() as u64,
            mss,
        });

        // 4. Deliver the CCP measurement report the estimator/detector eat.
        ctl.on_report(&Report {
            now_s: t_s,
            send_rate_bps: send_bps,
            recv_rate_bps: recv_bps,
            acked_bytes,
            lost_packets: 0,
            rtt_s,
            min_rtt_s,
            window_acks: (acked_bytes / mss as u64) as usize,
            marked_packets: 0,
            marked_bytes: 0,
        });
    }

    println!("\nmode log (t_s, mode):");
    for (t, mode) in ctl.mode_log() {
        println!("  {t:6.2}s  {mode:?}");
    }
    let competitive = ctl.mode_log().iter().any(|&(_, m)| m == Mode::Competitive);
    assert!(
        competitive,
        "the elastic phase should have driven the controller into competitive mode"
    );
}
