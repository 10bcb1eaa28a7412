//! The `core_embed` workload: `nimbus-core` embedded in someone else's
//! datapath, with no simulator anywhere.
//!
//! A mock host drives 16 [`NimbusController`]s purely through the
//! [`CongestionControl`] callbacks — `pacing_rate_bps`, one
//! `on_packet_acked` per delivered packet, `on_packets_lost` when the mock
//! buffer overflows, and one `on_report` per 10 ms tick — generalising
//! `examples/embed_core.rs`'s `MockLink` to many flows with per-flow link
//! rates and RTTs.  Each flow sees three 12 s phases of cross traffic:
//! inelastic CBR at 0.25 µ, an elastic (ACK-clocked) competitor that echoes
//! the flow's own send rate one RTT late, then the CBR again.
//!
//! The loop is closed: what a flow is told was delivered in a tick follows
//! from what its controller chose to send through the mock queue.

use crate::laps;
use crate::shim::TimedCc;
use nimbus_core::cc::{AckEvent, CongestionControl, LossEvent};
use nimbus_core::{Mode, NimbusConfig, NimbusController, Report};
use nimbus_core_types::Time;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;
use std::collections::VecDeque;

/// Connections the mock host carries.
pub const FLOWS: usize = 16;
/// Simulated seconds one rep covers.
pub const SIM_S: f64 = 36.0;
/// Host tick — the CCP report interval (§4.2 uses 10 ms).
const TICK_S: f64 = 0.01;
const TICKS: u64 = (SIM_S / TICK_S) as u64;
const MSS: u32 = 1500;
/// Phase boundaries: CBR until here, elastic echo until `ELASTIC_END_S`.
const ELASTIC_START_S: f64 = 12.0;
const ELASTIC_END_S: f64 = 24.0;
/// The mock buffer tail-drops beyond this much queueing delay.
const BUFFER_S: f64 = 0.2;

/// One connection's path, drawn from the seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowScript {
    /// Bottleneck rate µ, bits/s, in 12–192 Mbit/s.
    pub mu_bps: f64,
    /// Propagation RTT, seconds, in 20–200 ms.
    pub base_rtt_s: f64,
    /// Seed of the controller's own randomized decisions.
    pub cc_seed: u64,
}

/// The 16 paths for `seed`.
///
/// Stratified: flow `i`'s µ is drawn log-uniformly inside the `i`-th
/// sixteenth of 12–192 Mbit/s, and the RTT strata (sixteenths of 20–200 ms)
/// are dealt to flows in a seeded shuffle.  Every seed therefore covers the
/// whole range of both and carries nearly the same total packet rate, so the
/// work of a rep moves little with the seed while the inputs still do.
pub fn scripts(seed: u64) -> Vec<FlowScript> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc0de_e3be_dded);
    let mut rtt_stratum: Vec<usize> = (0..FLOWS).collect();
    for i in (1..FLOWS).rev() {
        rtt_stratum.swap(i, rng.gen_range(0..i + 1));
    }
    (0..FLOWS)
        .map(|i| {
            let u: f64 = rng.gen();
            let v: f64 = rng.gen();
            FlowScript {
                mu_bps: 12e6 * 16f64.powf((i as f64 + u) / FLOWS as f64),
                base_rtt_s: 0.02 * 10f64.powf((rtt_stratum[i] as f64 + v) / FLOWS as f64),
                cc_seed: seed.wrapping_mul(193).wrapping_add(i as u64),
            }
        })
        .collect()
}

/// The mock bottleneck of one connection: a FIFO queue shared with scripted
/// cross traffic (`examples/embed_core.rs`'s `MockLink`, per-flow).
struct MockLink {
    mu_bps: f64,
    base_rtt_s: f64,
    /// Queue backlog in bits.
    backlog_bits: f64,
    /// The last `lag_ticks + 1` send rates, for the elastic competitor's
    /// one-RTT-lagged view.
    send_history: VecDeque<f64>,
    lag_ticks: usize,
}

/// What one tick of traffic through the mock link produced.
struct Transfer {
    recv_bps: f64,
    rtt_s: f64,
    /// Bits of the Nimbus flow the full buffer dropped.
    dropped_bits: f64,
}

impl MockLink {
    fn new(script: &FlowScript) -> Self {
        let lag_ticks = (script.base_rtt_s / TICK_S).round() as usize;
        MockLink {
            mu_bps: script.mu_bps,
            base_rtt_s: script.base_rtt_s,
            backlog_bits: 0.0,
            send_history: VecDeque::with_capacity(lag_ticks + 2),
            lag_ticks,
        }
    }

    /// Cross-traffic rate for this tick.  The elastic phase models an
    /// ACK-clocked competitor: it grabs whatever the Nimbus flow left unused
    /// one RTT ago, so the §4 rate pulses echo back in ẑ — the signature the
    /// detector listens for.  The CBR phases ignore the flow.
    fn cross_rate_bps(&self, t_s: f64) -> f64 {
        if (ELASTIC_START_S..ELASTIC_END_S).contains(&t_s) {
            let lagged_send = if self.send_history.len() > self.lag_ticks {
                self.send_history[0]
            } else {
                0.0
            };
            (0.95 * self.mu_bps - lagged_send).clamp(0.0, self.mu_bps)
        } else {
            0.25 * self.mu_bps
        }
    }

    /// Pass one tick of traffic through the bottleneck.
    fn transfer(&mut self, t_s: f64, send_bps: f64) -> Transfer {
        self.send_history.push_back(send_bps);
        if self.send_history.len() > self.lag_ticks + 1 {
            self.send_history.pop_front();
        }
        let mu = self.mu_bps;
        let total = send_bps + self.cross_rate_bps(t_s);
        // FIFO: while a backlog stands (or the offered load exceeds µ) the
        // queue serves at µ and each flow's share of the output is its share
        // of the input (Eq. 2's regime); only an idle queue passes the send
        // rate through untouched.
        let served = if self.backlog_bits > 0.0 || total > mu {
            mu.min(total + self.backlog_bits / TICK_S)
        } else {
            total
        };
        let share = if total > 0.0 { send_bps / total } else { 0.0 };
        self.backlog_bits = (self.backlog_bits + (total - served) * TICK_S).max(0.0);
        // A full buffer tail-drops; the flow loses its share of the excess.
        let excess_bits = (self.backlog_bits - BUFFER_S * mu).max(0.0);
        self.backlog_bits -= excess_bits;
        Transfer {
            recv_bps: served * share,
            rtt_s: self.base_rtt_s + self.backlog_bits / mu,
            dropped_bits: excess_bits * share,
        }
    }
}

/// One connection: a controller behind the host-abstraction trait plus the
/// host-side state a transport stack keeps for it.
pub struct Flow {
    ctl: Box<dyn CongestionControl>,
    link: MockLink,
    min_rtt_s: f64,
    /// Delivered bytes not yet amounting to a whole packet.
    ack_carry_bytes: f64,
    /// Dropped bits not yet amounting to a whole packet.
    loss_carry_bits: f64,
    acks: u64,
    losses: u64,
}

impl Flow {
    /// Build the connection for `script`.  With `traced` the controller sits
    /// behind a [`TimedCc`].
    pub fn new(script: &FlowScript, traced: bool) -> Flow {
        let mut cfg = NimbusConfig::default_for_link(script.mu_bps).with_seed(script.cc_seed);
        cfg.mss = MSS;
        let mut ctl: Box<dyn CongestionControl> = Box::new(NimbusController::new(cfg));
        if traced {
            ctl = Box::new(TimedCc::new(ctl));
        }
        Flow {
            ctl,
            link: MockLink::new(script),
            min_rtt_s: script.base_rtt_s,
            ack_carry_bytes: 0.0,
            loss_carry_bits: 0.0,
            acks: 0,
            losses: 0,
        }
    }

    /// One host tick for this connection; returns the report it delivered.
    pub fn tick(&mut self, k: u64) -> Report {
        let t_s = (k + 1) as f64 * TICK_S;
        let now = Time::from_secs_f64(t_s);

        // 1. Pace at the controller's rate (the §4 pulses are baked in).
        let send_bps = self
            .ctl
            .pacing_rate_bps(now)
            .expect("nimbus is rate-based and always paces");

        // 2. The network happens.
        let Transfer {
            recv_bps,
            rtt_s,
            dropped_bits,
        } = self.link.transfer(t_s, send_bps);
        self.min_rtt_s = self.min_rtt_s.min(rtt_s);
        let rtt = Time::from_secs_f64(rtt_s);
        let min_rtt = Time::from_secs_f64(self.min_rtt_s);
        let in_flight_packets = (send_bps * rtt_s / (8.0 * MSS as f64)) as u64;

        // 3. One ACK callback per delivered packet, spread over the tick.
        self.ack_carry_bytes += recv_bps * TICK_S / 8.0;
        let packets = (self.ack_carry_bytes / MSS as f64) as u64;
        self.ack_carry_bytes -= (packets * MSS as u64) as f64;
        for j in 0..packets {
            let at = t_s - TICK_S + TICK_S * (j + 1) as f64 / packets as f64;
            self.ctl.on_packet_acked(&AckEvent {
                now: Time::from_secs_f64(at),
                newly_acked_packets: 1,
                newly_acked_bytes: MSS as u64,
                rtt,
                min_rtt,
                in_flight_packets,
                mss: MSS,
            });
        }
        self.acks += packets;

        // 4. Tail drops surface as one loss detection per tick.
        self.loss_carry_bits += dropped_bits;
        let lost_packets = (self.loss_carry_bits / (8.0 * MSS as f64)) as u64;
        self.loss_carry_bits -= (lost_packets * 8 * MSS as u64) as f64;
        if lost_packets > 0 {
            self.ctl.on_packets_lost(&LossEvent {
                now,
                lost_packets,
                in_flight_packets,
            });
            self.losses += lost_packets;
        }

        // 5. The CCP measurement report the estimator and detector eat.
        let report = Report {
            now_s: t_s,
            send_rate_bps: send_bps,
            recv_rate_bps: recv_bps,
            acked_bytes: packets * MSS as u64,
            lost_packets,
            rtt_s,
            min_rtt_s: self.min_rtt_s,
            window_acks: packets as usize,
            marked_packets: 0,
            marked_bytes: 0,
        };
        self.ctl.on_report(&report);
        report
    }

    /// The controller, found through `as_any` (and through the shim, if any).
    pub fn nimbus(&self) -> &NimbusController {
        self.ctl
            .as_any()
            .and_then(|a| a.downcast_ref::<NimbusController>())
            .expect("core_embed flows run NimbusController")
    }
}

/// The mock host: 16 connections ticked round-robin, as a stack would.
pub struct Host {
    /// The connections, in script order.
    pub flows: Vec<Flow>,
}

impl Host {
    /// Set-up: controllers plus per-flow scripts for `seed`.
    pub fn build(seed: u64, traced: bool) -> Host {
        Host {
            flows: scripts(seed)
                .iter()
                .map(|script| Flow::new(script, traced))
                .collect(),
        }
    }

    /// The timed region: the whole callback loop, with the lap marks evenly
    /// spaced over it.
    pub fn run(&mut self) {
        const TICKS_PER_LAP: u64 = TICKS / laps::PER_REP as u64;
        for k in 0..TICKS {
            if k > 0 && k % TICKS_PER_LAP == 0 {
                laps::mark();
            }
            for flow in &mut self.flows {
                flow.tick(k);
            }
        }
    }

    /// Reports delivered per rep (sizes the trace's raw sample buffer).
    pub fn reports_per_rep() -> usize {
        FLOWS * TICKS as usize
    }

    /// The simulated results of the rep just run.
    pub fn anchors(&self) -> EmbedAnchors {
        let mut a = EmbedAnchors {
            ack_callbacks: 0,
            lost_packets: 0,
            reports: TICKS * self.flows.len() as u64,
            mode_log_len: 0,
            verdicts: 0,
            competitive_in_elastic: 0,
            delay_in_first_cbr: 0,
            mode_logs: Vec::new(),
        };
        for flow in &self.flows {
            let ctl = flow.nimbus();
            let log = ctl.mode_log();
            a.ack_callbacks += flow.acks;
            a.lost_packets += flow.losses;
            a.mode_log_len += log.len() as u64;
            a.verdicts += ctl.detector().verdicts().len() as u64;
            a.competitive_in_elastic += log.iter().any(|&(t, m)| {
                m == Mode::Competitive && (ELASTIC_START_S..ELASTIC_END_S).contains(&t)
            }) as u64;
            a.delay_in_first_cbr += (ctl.delay_mode_fraction(0.0, ELASTIC_START_S) >= 0.9) as u64;
            a.mode_logs.push(log.to_vec());
        }
        a
    }
}

/// The simulated results of one `core_embed` rep; every rep must repeat them.
#[derive(Debug, Clone, PartialEq)]
pub struct EmbedAnchors {
    /// `on_packet_acked` callbacks delivered.
    pub ack_callbacks: u64,
    /// Packets reported lost through `on_packets_lost`.
    pub lost_packets: u64,
    /// `on_report` callbacks delivered.
    pub reports: u64,
    /// Mode-log entries summed over flows.
    pub mode_log_len: u64,
    /// Detector verdicts logged, summed over flows.
    pub verdicts: u64,
    /// Flows that entered competitive mode during their elastic phase.
    pub competitive_in_elastic: u64,
    /// Flows that sat in delay mode ≥ 90 % of the first CBR phase.
    pub delay_in_first_cbr: u64,
    /// Every flow's final mode log.
    pub mode_logs: Vec<Vec<(f64, Mode)>>,
}

impl EmbedAnchors {
    /// Hold the anchors against the workload's correctness bars.
    pub fn check(&self) -> Vec<String> {
        let mut bad = Vec::new();
        if self.competitive_in_elastic < 12 {
            bad.push(format!(
                "only {}/16 flows entered competitive mode during their elastic phase",
                self.competitive_in_elastic
            ));
        }
        if self.delay_in_first_cbr < 12 {
            bad.push(format!(
                "only {}/16 flows held delay mode through the first CBR phase",
                self.delay_in_first_cbr
            ));
        }
        bad
    }

    /// The anchors as a JSON map (the mode logs as their total length only).
    pub fn to_value(&self) -> Value {
        Value::Map(vec![
            ("ack_callbacks".into(), Value::UInt(self.ack_callbacks)),
            ("lost_packets".into(), Value::UInt(self.lost_packets)),
            ("reports".into(), Value::UInt(self.reports)),
            ("mode_log_len".into(), Value::UInt(self.mode_log_len)),
            ("verdicts".into(), Value::UInt(self.verdicts)),
            (
                "competitive_in_elastic".into(),
                Value::UInt(self.competitive_in_elastic),
            ),
            (
                "delay_in_first_cbr".into(),
                Value::UInt(self.delay_in_first_cbr),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_are_seeded_stratified_and_in_range() {
        let a = scripts(1);
        assert_eq!(a, scripts(1));
        assert_ne!(a, scripts(2));
        assert_eq!(a.len(), FLOWS);
        for (i, s) in a.iter().enumerate() {
            let lo = 12e6 * 16f64.powf(i as f64 / 16.0);
            let hi = 12e6 * 16f64.powf((i + 1) as f64 / 16.0);
            assert!(s.mu_bps >= lo && s.mu_bps < hi, "flow {i}: µ {}", s.mu_bps);
            assert!((0.02..0.2).contains(&s.base_rtt_s), "rtt {}", s.base_rtt_s);
        }
        // Every RTT stratum is dealt exactly once.
        let mut strata: Vec<usize> = a
            .iter()
            .map(|s| ((s.base_rtt_s / 0.02).log10() * 16.0) as usize)
            .collect();
        strata.sort_unstable();
        assert_eq!(strata, (0..FLOWS).collect::<Vec<_>>());
    }
}
