//! Regression tests for the `step50-vs-cbr50` event-loop pathology.
//!
//! The sweep once ran `nimbus@48M step(7s,0.5) vs cbr@0.5 seed=1 dur=15s
//! steady=3.75s` at 666k events/s while every neighboring cell ran
//! 3.2–3.9M — a 5× per-event slowdown that went unnoticed because it was
//! already there when the cell was first timed.  Root cause: after the rate
//! step halves µ, the CBR cross flow offers exactly the new link rate, never
//! exits SACK recovery, and `Sender::infer_losses` re-walked its entire
//! ~2000-entry scoreboard on every ACK — O(ACKs × window) scoreboard work
//! dominating the event loop.
//!
//! Two guards:
//!
//! * a *deterministic* unit-level test pinning the sender's scoreboard scan
//!   cost to O(ACKs + holes) via the [`Sender::scoreboard_scan_steps`]
//!   counter (no timing, cannot flake);
//! * a *wall-clock* test asserting the pathological cell's events/sec
//!   within 2× of the same cell without the rate step on the same machine,
//!   so any new per-event pathology in that cell fails loudly.
//!
//! A cell that does more *events* per packet (an event storm) is caught
//! without a clock by the event budget `Cell::run` checks on every
//! paper-matrix cell (`tests/scenario_matrix.rs`).

use nimbus_core::cc::constant::Unlimited;
use nimbus_experiments::Cell;
use nimbus_netsim::endpoint::{AckInfo, FlowEndpoint, SendAction};
use nimbus_netsim::Time;
use nimbus_transport::{BackloggedSource, Sender, SenderConfig};

/// Drive a sender into permanent SACK recovery with a large scoreboard —
/// every even segment lost, every odd segment SACKed — and count the
/// scoreboard positions loss inference visits.
#[test]
fn sack_scan_cost_is_linear_in_acks_plus_holes() {
    let mut sender = Sender::new(
        SenderConfig::labelled("cbr-like"),
        Box::new(Unlimited::new()),
        Box::new(BackloggedSource),
    );
    sender.on_start(Time::ZERO);

    // Fill the window: transmit as many segments as the sender will emit.
    let mut sent = 0u64;
    let now = Time::from_millis(1);
    while sent < 4096 {
        match sender.poll_send(now) {
            SendAction::Transmit { .. } => sent += 1,
            _ => break,
        }
    }
    assert!(sent >= 2000, "expected a deep flight, got {sent}");

    // ACK storm: cum_ack pinned at 0 (segment 0 lost), each odd segment
    // SACKed in order.  From the third duplicate onwards the sender is in
    // recovery and runs loss inference on every ACK, with the scoreboard
    // growing by one entry per ACK — the permanently-recovering CBR shape.
    let acks: u64 = 1500;
    let mut t = 2_000_000u64; // ns
    for k in 0..acks {
        let seq = 2 * k + 1;
        t += 10_000;
        sender.on_ack(&AckInfo {
            now: Time(t),
            cum_ack: 0,
            triggering_seq: seq,
            triggering_bytes: 1500,
            data_sent_at: Time::from_millis(1),
            rtt_sample: Time::from_millis(20),
            newly_delivered_bytes: 0,
            ce: false,
        });
    }

    let steps = sender.scoreboard_scan_steps();
    // Linear budget: each ACK appends one scoreboard entry and uncovers at
    // most one new hole, so a frontier-based scan does O(1) amortized work
    // per ACK — comfortably under 8 positions each.  The quadratic rescan
    // this regression pins against would visit ~acks²/2 ≈ 1.1M positions.
    let budget = 8 * acks;
    assert!(
        steps <= budget,
        "scoreboard scan cost regressed to superlinear: {steps} positions \
         for {acks} ACKs (budget {budget}); infer_losses is rescanning the \
         scoreboard instead of resuming from its frontier"
    );
    // And the scan must actually have happened (the counter is live).
    assert!(steps > 0, "loss inference never ran — test setup broken");
}

/// Events per wall second of one run of `cell`.
fn events_per_sec(cell: &Cell) -> f64 {
    let started = std::time::Instant::now();
    let outcome = cell.run();
    outcome.events as f64 / started.elapsed().as_secs_f64().max(1e-9)
}

/// The cell that regressed must stay within 2× of its plain-schedule
/// neighbor.  Both cells run the same schemes, cross traffic, rate and seed;
/// only the rate step differs — their per-event cost should be comparable.
/// The pre-fix gap (5×) is far outside the 2× bar plus any plausible jitter.
#[test]
fn step50_vs_cbr50_cell_runs_within_2x_of_plain_vs_cbr50() {
    let cell = |text: &str| -> Cell { text.parse().unwrap() };
    let step = cell("nimbus@48M step(7s,0.5) vs cbr@0.5 seed=1 dur=15s steady=3.75s");
    let plain = cell("nimbus@48M vs cbr@0.5 seed=1 dur=15s steady=3.75s");
    // The fastest of five runs per cell counts, and the cells' runs
    // alternate: a stretch of load on a shared host then slows runs of
    // both cells rather than every run of one.
    let (mut step_eps, mut plain_eps) = (0.0f64, 0.0f64);
    for _ in 0..5 {
        step_eps = step_eps.max(events_per_sec(&step));
        plain_eps = plain_eps.max(events_per_sec(&plain));
    }
    assert!(
        step_eps * 2.0 >= plain_eps,
        "step50-vs-cbr50 pathology is back: {step_eps:.0} ev/s vs {plain_eps:.0} ev/s \
         on the plain vs-cbr50 cell (allowed within 2×)"
    );
}
