//! Isolated kernels: direct calls into one layer's public functions.
//!
//! The in-situ spans say where a workload's time goes; the kernels say what
//! one call of a building block costs on its own, so a change to a layer can
//! be read against both.  Detector-side inputs are captured from a mock-host
//! drive of the seed's first `core_embed` connection (its reports and its
//! final 5 s ẑ window); engine-side inputs replay the access patterns the
//! engine makes (`crates/bench/benches/micro.rs`'s event-queue pattern, one
//! enqueue + one dequeue per packet, one recorder sample per interval).
//!
//! Every kernel reports the floor over many short batches of the mean cost
//! per call inside a batch: short, so that some batch escapes the host's
//! noise entirely, but long enough that the two clock reads around it do
//! not show.

use crate::embed::{scripts, Flow, SIM_S};
use nimbus_core::{
    CrossTrafficEstimator, ElasticityConfig, ElasticityDetector, Report, ReportAggregator,
};
use nimbus_core_types::Time;
use nimbus_dsp::{Fft, Spectrum};
use nimbus_netsim::queue::delay_capacity_bytes;
use nimbus_netsim::{
    CalendarQueue, CoDelQueue, DropTailQueue, Packet, PieQueue, QueueDiscipline, Recorder,
    RecorderConfig, RedQueue,
};
use std::hint::black_box;
use std::time::Instant;

/// Floor over `batches` runs of `batch` of the mean ns per operation;
/// `batch` returns how many operations it performed.
fn floor_ns_per_op(batches: usize, mut batch: impl FnMut() -> u64) -> f64 {
    (0..batches)
        .map(|_| {
            let t = Instant::now();
            let ops = batch();
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Detector-side inputs captured from one mock-host connection.
struct Captured {
    /// Every report the host delivered, in order.
    reports: Vec<Report>,
    /// The estimator's final 5 s ẑ window.
    z: Vec<f64>,
    mu_bps: f64,
    rtt: Time,
}

fn capture(seed: u64) -> Captured {
    let script = scripts(seed)[0];
    let mut flow = Flow::new(&script, false);
    let reports: Vec<Report> = (0..(SIM_S * 100.0) as u64).map(|k| flow.tick(k)).collect();
    let cfg = ElasticityConfig::default();
    let z = flow.nimbus().estimator().z_series(cfg.fft_duration_s);
    assert!(
        z.len() >= cfg.window_samples(),
        "captured ẑ window too short: {}",
        z.len()
    );
    Captured {
        reports,
        z: z[z.len() - cfg.window_samples()..].to_vec(),
        mu_bps: script.mu_bps,
        rtt: Time::from_secs_f64(script.base_rtt_s),
    }
}

/// The `dsp` / `core` kernels, as `(metric name, value)` in metric units.
fn detector_side(seed: u64) -> Vec<(&'static str, f64)> {
    let cap = capture(seed);
    let cfg = ElasticityConfig::default();
    let z = &cap.z;
    let mut out = Vec::new();

    let plan = Fft::new(z.len());
    // A fresh process lands on a cold, often clocked-down core: spin the
    // first kernel untimed before anything is measured.
    let warm_up = Instant::now();
    while warm_up.elapsed().as_millis() < 300 {
        black_box(plan.forward_real(black_box(z)));
    }
    let fft_ns = floor_ns_per_op(300, || {
        for _ in 0..10 {
            black_box(plan.forward_real(black_box(z)));
        }
        10
    });
    out.push(("dsp.fft.forward_real_500_us", fft_ns / 1e3));

    let spectrum_ns = floor_ns_per_op(200, || {
        for _ in 0..10 {
            black_box(Spectrum::of_signal(
                black_box(z),
                cfg.sample_rate_hz(),
                true,
            ));
        }
        10
    });
    out.push(("dsp.spectrum.of_signal_500_us", spectrum_ns / 1e3));

    let detector = ElasticityDetector::new(cfg.clone());
    let eta_ns = floor_ns_per_op(300, || {
        for _ in 0..10 {
            black_box(detector.eta(black_box(z)));
        }
        10
    });
    out.push(("core.detector.eta_us", eta_ns / 1e3));

    // `evaluate` appends to the verdict log, so each batch starts a fresh
    // detector the way a connection does.
    let evaluate_ns = floor_ns_per_op(100, || {
        let mut detector = ElasticityDetector::new(cfg.clone());
        for i in 0..30 {
            black_box(detector.evaluate(i as f64 * 0.01, black_box(z)));
        }
        30
    });
    out.push(("core.detector.evaluate_us", evaluate_ns / 1e3));

    // One pass over the captured reports through a fresh estimator: window
    // fill, steady state and trimming in their real proportions.
    let history_s = 2.0 * cfg.fft_duration_s;
    let on_report_ns = floor_ns_per_op(100, || {
        let mut est = CrossTrafficEstimator::with_known_mu(cap.mu_bps, history_s);
        for r in &cap.reports {
            black_box(est.on_report(black_box(r)));
        }
        cap.reports.len() as u64
    });
    out.push(("core.estimator.on_report_ns", on_report_ns));

    let mut filled = CrossTrafficEstimator::with_known_mu(cap.mu_bps, history_s);
    for r in &cap.reports {
        filled.on_report(r);
    }
    let z_series_ns = floor_ns_per_op(200, || {
        for _ in 0..50 {
            black_box(filled.z_series(black_box(cfg.fft_duration_s)));
        }
        50
    });
    out.push(("core.estimator.z_series_us", z_series_ns / 1e3));

    // The CCP datapath half: a steady ACK stream at the captured link's
    // packet rate into `ReportAggregator`, one report per 10 ms.  The two
    // calls are timed in separate passes over the same stream.
    let gap = Time::from_secs_f64(1500.0 * 8.0 / cap.mu_bps);
    let acks_per_tick = (Time::from_millis(10).0 / gap.0.max(1)).max(1);
    let ticks = 500u64;
    let drive = |with_reports: bool| -> f64 {
        let mut agg = ReportAggregator::new(cap.rtt);
        let mut now = Time::ZERO;
        let t = Instant::now();
        for _ in 0..ticks {
            for _ in 0..acks_per_tick {
                now += gap;
                agg.on_ack(now.saturating_sub(cap.rtt), now, 1500, cap.rtt);
            }
            if with_reports {
                black_box(agg.report(now));
            }
        }
        black_box(&agg);
        t.elapsed().as_nanos() as f64
    };
    let acks = (ticks * acks_per_tick) as f64;
    let ack_only_ns = (0..50).map(|_| drive(false)).fold(f64::INFINITY, f64::min);
    let with_reports_ns = (0..50).map(|_| drive(true)).fold(f64::INFINITY, f64::min);
    out.push(("core.ccp.on_ack_ns", ack_only_ns / acks));
    out.push((
        "core.ccp.report_ns",
        (with_reports_ns - ack_only_ns).max(0.0) / ticks as f64,
    ));
    out
}

/// The engine's push pattern from `crates/bench/benches/micro.rs`: events
/// land a serialization-or-RTT ahead of `now` (0–40 ms, snapped to a grid so
/// same-timestamp ties occur), pops advance monotonically.
fn event_schedule(seed: u64) -> Vec<(u64, u64)> {
    let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ seed;
    (0..4096)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let jitter = (x >> 33) % 40_000_000;
            (jitter / 7 * 7, x)
        })
        .collect()
}

/// One enqueue + one dequeue per packet against a standing 32-packet
/// backlog, time advancing one serialization per packet — the per-packet
/// work the engine asks of a discipline on its fast path.
fn enq_deq_ns(mut queue: impl QueueDiscipline) -> f64 {
    let serialization = Time::from_secs_f64(1500.0 * 8.0 / 96e6);
    let mut now = Time::ZERO;
    let mut seq = 0u64;
    for _ in 0..32 {
        seq += 1;
        queue.enqueue(Packet::new(0, seq, 1500, now, false), now);
    }
    floor_ns_per_op(100, || {
        for _ in 0..2_000 {
            now += serialization;
            seq += 1;
            black_box(queue.enqueue(Packet::new(0, seq, 1500, now, false), now));
            black_box(queue.dequeue(now));
        }
        2_000
    })
}

/// A recorder with one monitored and one cross flow registered.
fn recorder() -> Recorder {
    let mut rec = Recorder::new(RecorderConfig::default(), 1);
    rec.register_flow(0, "primary".into(), None, true, Time::ZERO, None);
    rec.register_flow(1, "cross".into(), Some(false), false, Time::ZERO, None);
    rec
}

/// The `netsim` kernels, as `(metric name, value)` in metric units.
fn engine_side(seed: u64) -> Vec<(&'static str, f64)> {
    let schedule = event_schedule(seed);
    let mut out = Vec::new();

    out.push((
        "netsim.eventq.push_pop_ns",
        floor_ns_per_op(100, || {
            let mut q: CalendarQueue<u64> = CalendarQueue::new();
            let (mut now, mut seq) = (0u64, 0u64);
            for &(jitter, payload) in &schedule {
                seq += 1;
                q.push(Time(now + jitter), seq, payload);
                // Interleave: pop every other push, like the run loop.
                if seq % 2 == 0 {
                    let (at, _, p) = q.pop().expect("queue non-empty");
                    now = at.0;
                    black_box(p);
                }
            }
            while let Some((_, _, p)) = q.pop() {
                black_box(p);
            }
            schedule.len() as u64
        }),
    ));

    // A timer is "moved" by pushing a replacement and letting the stale entry
    // pop through, so one logical reschedule costs two pushes and two pops.
    out.push((
        "netsim.eventq.reschedule_ns",
        floor_ns_per_op(100, || {
            let mut q: CalendarQueue<u64> = CalendarQueue::new();
            let (mut now, mut seq) = (0u64, 0u64);
            for &(jitter, payload) in &schedule {
                seq += 1;
                q.push(Time(now + jitter), seq, payload);
                seq += 1;
                q.push(Time(now + jitter + 700_000), seq, payload ^ 1);
                let (at, _, p) = q.pop().expect("queue non-empty");
                now = at.0;
                black_box(p);
            }
            while let Some((_, _, p)) = q.pop() {
                black_box(p);
            }
            schedule.len() as u64
        }),
    ));

    let capacity = delay_capacity_bytes(96e6, 0.1);
    out.push((
        "netsim.queue.droptail.enq_deq_ns",
        enq_deq_ns(DropTailQueue::new(capacity)),
    ));
    out.push((
        "netsim.queue.pie.enq_deq_ns",
        enq_deq_ns(PieQueue::new(capacity, 96e6, Time::from_millis(15), seed)),
    ));
    out.push((
        "netsim.queue.red.enq_deq_ns",
        enq_deq_ns(RedQueue::new(capacity, seed)),
    ));
    out.push((
        "netsim.queue.codel.enq_deq_ns",
        enq_deq_ns(CoDelQueue::new(capacity)),
    ));

    // One recorder interval: a few per-packet hooks, then the sample that
    // closes it.  A fresh recorder per batch (one minute of samples), so
    // series growth is included.
    out.push((
        "netsim.recorder.sample_ns",
        floor_ns_per_op(100, || {
            let mut rec = recorder();
            for i in 1..=600u64 {
                rec.on_arrival(0, 1500);
                rec.on_rtt_sample(0, Time::from_millis(60));
                rec.sample(Time::from_millis(100 * i), &[150_000]);
            }
            black_box(&rec);
            600
        }),
    ));

    // A snapshot of a 60 s single-flow run's worth of recorder state: 600
    // samples per series and one queueing-delay sample per packet.
    let mut rec = recorder();
    for i in 1..=600u64 {
        for _ in 0..600 {
            rec.on_arrival(0, 1500);
            rec.on_dequeue(0, Time::from_micros(20_000 + i));
        }
        rec.sample(Time::from_millis(100 * i), &[150_000]);
    }
    out.push((
        "netsim.recorder.snapshot_ms",
        floor_ns_per_op(10, || {
            black_box(rec.snapshot());
            1
        }) / 1e6,
    ));
    out
}

/// Time every kernel; `(metric name, value)` pairs in metric units.
pub fn run(seed: u64) -> Vec<(&'static str, f64)> {
    let mut out = detector_side(seed);
    out.extend(engine_side(seed));
    out
}
