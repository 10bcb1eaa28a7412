//! Micro-benchmarks of the hot building blocks: the FFT, the elasticity
//! metric, the cross-traffic estimator, the event queue and the raw
//! simulator event loop.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use nimbus_core::{CrossTrafficEstimator, ElasticityConfig, ElasticityDetector};
use nimbus_dsp::{fft_real, Fft, PulseGenerator, SlidingDft, Spectrum};
use nimbus_netsim::{CalendarQueue, FlowConfig, Network, SimConfig, Time};
use nimbus_transport::{BackloggedSource, CcKind, PathInfo, Sender, SenderConfig};

fn bench_fft(c: &mut Criterion) {
    let signal: Vec<f64> = (0..500)
        .map(|i| (i as f64 * 0.31).sin() + 0.2 * (i as f64 * 1.7).cos())
        .collect();
    c.bench_function("fft_500_point_bluestein", |b| {
        b.iter(|| fft_real(black_box(&signal)))
    });
    let plan = Fft::new(500);
    c.bench_function("fft_500_point_planned", |b| {
        b.iter(|| plan.forward_real(black_box(&signal)))
    });
    c.bench_function("spectrum_with_dc_removal", |b| {
        b.iter(|| Spectrum::of_signal(black_box(&signal), 100.0, true))
    });
    // What the detector runs per report instead: one sample into the 36
    // bins η reads at 5 and 6 Hz (the once-per-window recompute included).
    let mut bank = SlidingDft::new(500);
    bank.cover(24, 59);
    let mut i = 0;
    c.bench_function("sliding_bank_push", |b| {
        b.iter(|| {
            i = (i + 1) % signal.len();
            bank.push(black_box(signal[i]));
        })
    });
}

fn bench_detector(c: &mut Criterion) {
    let cfg = ElasticityConfig::default();
    let det = ElasticityDetector::new(cfg.clone());
    let gen = PulseGenerator::asymmetric(5.0, 24e6);
    let z: Vec<f64> = (0..cfg.window_samples())
        .map(|i| 48e6 - 0.3 * gen.offset_at(i as f64 * 0.01 - 0.05))
        .collect();
    c.bench_function("elasticity_metric_eta", |b| {
        b.iter(|| det.eta(black_box(&z)))
    });
    // The controller's per-report detector work: push a sample, read Eq. 3.
    let mut streaming = ElasticityDetector::new(cfg.clone());
    let mut k = 0usize;
    c.bench_function("detector_push_and_verdict", |b| {
        b.iter(|| {
            k += 1;
            streaming.push(k as f64 * 0.01, black_box(z[k % z.len()]));
            streaming.eta_of_window()
        })
    });
    let est = CrossTrafficEstimator::with_known_mu(96e6, 5.0);
    c.bench_function("cross_traffic_estimate", |b| {
        b.iter(|| est.estimate(black_box(40e6), black_box(60e6)))
    });
}

fn bench_eventq(c: &mut Criterion) {
    // The engine's push pattern: events land a serialization-or-RTT ahead of
    // `now` (tens of µs to tens of ms), so pushes stay inside the wheel
    // horizon and pops advance monotonically.  The LCG is the same cheap
    // mixer the queue's own unit tests use; jitter snaps to a grid so
    // same-timestamp ties occur.
    let lcg_schedule = |max_jitter_ns: u64| -> Vec<(u64, u64)> {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        (0..4096)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let jitter = (x >> 33) % max_jitter_ns;
                (jitter / 7 * 7, x)
            })
            .collect()
    };
    let schedule = lcg_schedule(40_000_000); // 0..40 ms
    c.bench_function("eventq_push_pop_4096", |b| {
        b.iter(|| {
            let mut q: CalendarQueue<u64> = CalendarQueue::new();
            let mut now = 0u64;
            let mut seq = 0u64;
            for &(jitter, payload) in &schedule {
                seq += 1;
                q.push(Time(now + jitter), seq, payload);
                // Interleave: pop every other push, like the run loop.
                if seq.is_multiple_of(2) {
                    let (at, _, p) = q.pop().expect("queue non-empty");
                    now = at.0;
                    black_box(p);
                }
            }
            while let Some((_, _, p)) = q.pop() {
                black_box(p);
            }
        })
    });
    // Reschedule pattern: a timer is "moved" by pushing a replacement and
    // letting the stale entry pop through (generation-tag skip), so one
    // logical reschedule costs two pushes and two pops.
    c.bench_function("eventq_reschedule_4096", |b| {
        b.iter(|| {
            let mut q: CalendarQueue<u64> = CalendarQueue::new();
            let mut now = 0u64;
            let mut seq = 0u64;
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
        })
    });
    // The dense regime: `fleet_churn`'s 1 Gbit/s link puts ~74 events through
    // every 2^18 ns bucket.  Every iteration pushes as many events as it
    // pops, uniformly over the next 16 buckets, so an event waits 8 buckets
    // on average and `live` pending events put live / 8 through each bucket
    // (Little's law) for the whole run instead of building up to it.
    let dense = lcg_schedule(16 << 18);
    let prefilled = |live: usize| {
        let mut q: CalendarQueue<u64> = CalendarQueue::new();
        let mut seq = 0u64;
        for &(jitter, payload) in &dense[..live] {
            seq += 1;
            q.push(Time(jitter), seq, payload);
        }
        (q, seq)
    };
    c.bench_function("eventq_dense_push_pop_4096", |b| {
        b.iter(|| {
            let (mut q, mut seq) = prefilled(74 * 8);
            let mut now = 0u64;
            for &(jitter, payload) in &dense {
                seq += 1;
                q.push(Time(now + jitter), seq, payload);
                let (at, _, p) = q.pop().expect("queue non-empty");
                now = at.0;
                black_box(p);
            }
            black_box(q.len())
        })
    });
    c.bench_function("eventq_dense_reschedule_4096", |b| {
        b.iter(|| {
            // The stale twin waits 0.7 ms longer: 9.3 buckets on average.
            let (mut q, mut seq) = prefilled(74 * 93 / 10);
            let mut now = 0u64;
            for &(jitter, payload) in &dense {
                seq += 1;
                q.push(Time(now + jitter), seq, payload);
                seq += 1;
                q.push(Time(now + jitter + 700_000), seq, payload ^ 1);
                for _ in 0..2 {
                    let (at, _, p) = q.pop().expect("queue non-empty");
                    now = at.0;
                    black_box(p);
                }
            }
            black_box(q.len())
        })
    });
}

fn bench_simulator(c: &mut Criterion) {
    c.bench_function("simulate_cubic_10s_48mbps", |b| {
        b.iter(|| {
            let mut net = Network::new(SimConfig::new(48e6, 0.1, 10.0));
            net.add_flow(
                FlowConfig::primary("cubic", Time::from_millis(50)),
                Box::new(Sender::new(
                    SenderConfig::labelled("cubic"),
                    CcKind::Cubic.build(&PathInfo::new(1500)),
                    Box::new(BackloggedSource),
                )),
            );
            net.run();
            black_box(net.events_processed())
        })
    });
}

criterion_group! {
    name = micro;
    config = Criterion::default().sample_size(10);
    targets = bench_fft, bench_detector, bench_eventq, bench_simulator
}
criterion_main!(micro);
