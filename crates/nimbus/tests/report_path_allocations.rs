//! `NimbusController::on_report` runs per connection per 10 ms inside
//! someone else's datapath, so in steady state it must not allocate in any
//! role, with µ configured or learned: no window `Vec`, no FFT buffers (a
//! transform cannot run without several), and no per-report log — the
//! detector keeps a tally of its verdicts and the estimator no µ̂ history.
//! Every window is bounded, so once warmed up a controller's memory is
//! fixed; only the mode log grows, by one entry per switch, and the few
//! switches here fit its first allocation.  The window and pace queries a
//! sender makes between callbacks allocate nothing either.

use nimbus_core::cc::{AckEvent, CongestionControl};
use nimbus_core::{
    LearnedMuConfig, Mode, MuSpec, MultiflowConfig, NimbusConfig, NimbusController, NimbusSpec,
    Report, Role,
};
use nimbus_core_types::Time;
use nimbus_dsp::PulseGenerator;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (incl. reallocations) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded to `System` unchanged; the counter is a
// const-initialised thread-local `Cell`, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const MU: f64 = 96e6;

/// Reports measured per controller once it is warmed up.
const MEASURED: u64 = 2_000;

/// One 10 ms host tick at `t`: an ACK, then a report whose receive rate
/// `recv_of` derives from the rate the controller paces at.  Returns the
/// allocations `on_report` made.
fn tick(ctl: &mut NimbusController, t: f64, recv_of: impl Fn(f64) -> f64) -> u64 {
    ctl.on_packet_acked(&AckEvent {
        now: Time::from_secs_f64(t),
        newly_acked_packets: 1,
        newly_acked_bytes: 1500,
        rtt: Time::from_millis_f64(60.0),
        min_rtt: Time::from_millis_f64(50.0),
        in_flight_packets: 50,
        mss: 1500,
    });
    let send = ctl
        .pacing_rate_bps(Time::from_secs_f64(t))
        .expect("nimbus paces")
        .min(MU);
    let report = Report {
        now_s: t,
        send_rate_bps: send,
        recv_rate_bps: recv_of(send),
        acked_bytes: 12_000,
        lost_packets: 0,
        rtt_s: 0.06,
        min_rtt_s: 0.05,
        window_acks: 40,
        marked_packets: 0,
        marked_bytes: 0,
    };
    let before = ALLOCATIONS.with(Cell::get);
    ctl.on_report(&report);
    ALLOCATIONS.with(Cell::get) - before
}

/// The receive rate on a saturated link next to 48 Mbit/s of cross traffic
/// that echoes pulses at `freq_hz` one RTT late, `echo` times as large:
/// elastic when `echo > 0`, inelastic at 0.
fn against_cross(t: f64, send: f64, freq_hz: f64, echo: f64) -> f64 {
    let pulse = PulseGenerator::asymmetric(freq_hz, 0.25 * MU).offset_at(t - 0.05);
    MU * send / (send + 48e6 - echo * pulse)
}

fn assert_no_allocations(allocations: u64, role: &str) {
    assert_eq!(
        allocations, 0,
        "{role}: {allocations} allocations in {MEASURED} reports"
    );
}

/// A lone flow: `warm_up` reports against an elastic competitor (delay mode
/// while the first window fills, competitive once it has), then 2 000
/// measured reports with the competitor gone a quarter of the way in, so the
/// §4.1 switch back to delay mode is inside the measured stretch.
fn single_flow(cfg: NimbusConfig, warm_up: u64, role: &str) {
    let mut ctl = NimbusController::new(cfg);
    let mut k = 0u64;
    while k < warm_up {
        k += 1;
        let t = k as f64 * 0.01;
        tick(&mut ctl, t, |s| against_cross(t, s, 5.0, 0.4));
    }
    assert_eq!(
        ctl.mode(),
        Mode::Competitive,
        "warm-up must visit both modes"
    );
    assert!(ctl.detector().verdicts().len() > 400);

    let mut allocations = 0;
    for i in 0..MEASURED {
        k += 1;
        let t = k as f64 * 0.01;
        allocations += tick(&mut ctl, t, |s| {
            against_cross(t, s, 5.0, if i < MEASURED / 4 { 0.4 } else { 0.0 })
        });
    }
    assert_eq!(
        ctl.mode(),
        Mode::Delay,
        "the measured stretch must switch back"
    );
    assert_no_allocations(allocations, role);
}

#[test]
fn steady_state_reports_do_not_allocate() {
    single_flow(NimbusConfig::default_for_link(MU), 1_000, "single flow");
}

/// A learned µ takes a sample on every report; none of them is kept.  Its
/// max and min filters span 10 s, twice the detector's window, so the
/// warm-up is twice as long: the filters' bounded queues reach their
/// largest size before the measured stretch.
#[test]
fn learned_mu_reports_do_not_allocate() {
    let cfg = NimbusConfig {
        spec: NimbusSpec {
            mu: MuSpec::Learned(LearnedMuConfig::MaxFilter),
            ..NimbusSpec::default()
        },
        ..NimbusConfig::default_for_link(MU)
    };
    single_flow(cfg, 2_000, "learned µ");
}

/// A multi-flow watcher reads another flow's pulses out of its own receive
/// rate on every report and follows that pulser's mode.
#[test]
fn watcher_reports_do_not_allocate() {
    let cfg = NimbusConfig::default_for_link(MU).with_multiflow(MultiflowConfig::enabled());
    let mut ctl = NimbusController::new(cfg);
    // A receive rate carrying a pulser's pulses: 5 Hz (competitive mode) for
    // the warm-up and the first half of the measured stretch, then 6 Hz.
    let recv = |t: f64, freq_hz: f64| 20e6 + PulseGenerator::asymmetric(freq_hz, 6e6).offset_at(t);
    let mut k = 0u64;
    while k < 1_000 {
        k += 1;
        let t = k as f64 * 0.01;
        tick(&mut ctl, t, |_| recv(t, 5.0));
    }
    assert_eq!(ctl.mode(), Mode::Competitive, "follows the pulser");
    let mut allocations = 0;
    for i in 0..MEASURED {
        k += 1;
        let t = k as f64 * 0.01;
        let freq_hz = if i < MEASURED / 2 { 5.0 } else { 6.0 };
        allocations += tick(&mut ctl, t, |_| recv(t, freq_hz));
    }
    assert_eq!(ctl.role(), Role::Watcher, "a watcher that sees a pulser");
    assert_eq!(ctl.mode(), Mode::Delay, "follows the pulser back");
    assert_no_allocations(allocations, "watcher");
}

/// An elected multi-flow pulser runs the detector and, on every verdict, the
/// conflict check against its own receive rate, in both modes.
#[test]
fn elected_pulser_reports_do_not_allocate() {
    // Right after an election both of the conflict check's magnitudes are
    // rounding residue (nothing has pulsed yet), and a larger one in ẑ costs
    // a coin flip; seed 3 keeps this pulser through them.
    let cfg = NimbusConfig::default_for_link(MU)
        .with_multiflow(MultiflowConfig::enabled())
        .with_seed(3);
    let mut ctl = NimbusController::new(cfg);
    // It pulses at 5 Hz in competitive mode and 6 Hz in delay mode; elastic
    // cross traffic echoes whichever it is, weakly enough that the pulser's
    // own receive rate carries more of the pulse than ẑ does (or it would
    // suspect a second pulser and step down).
    const ECHO: f64 = 0.2;
    let freq_of = |mode| match mode {
        Mode::Competitive => 5.0,
        Mode::Delay => 6.0,
    };
    let mut k = 0u64;
    while ctl.role() == Role::Watcher {
        assert!(k < 6_000, "never elected");
        k += 1;
        let t = k as f64 * 0.01;
        tick(&mut ctl, t, |s| against_cross(t, s, 6.0, 0.0));
    }
    // 10 s against an elastic competitor, as in the single-flow test.
    let elected = k;
    while k < elected + 1_000 {
        k += 1;
        let t = k as f64 * 0.01;
        let freq_hz = freq_of(ctl.mode());
        tick(&mut ctl, t, |s| against_cross(t, s, freq_hz, ECHO));
    }
    assert_eq!(
        ctl.mode(),
        Mode::Competitive,
        "warm-up must visit both modes"
    );
    let mut allocations = 0;
    for i in 0..MEASURED {
        k += 1;
        let t = k as f64 * 0.01;
        let freq_hz = freq_of(ctl.mode());
        allocations += tick(&mut ctl, t, |s| {
            against_cross(t, s, freq_hz, if i < MEASURED / 4 { ECHO } else { 0.0 })
        });
    }
    assert_eq!(ctl.role(), Role::Pulser, "no second pulser to yield to");
    assert_eq!(
        ctl.mode(),
        Mode::Delay,
        "the measured stretch must switch back"
    );
    assert_no_allocations(allocations, "pulser");
}

/// A paced sender asks for the window and the pace several times between
/// callbacks; the controller memoizes both.  Neither the query that fills
/// the memo nor the ones it answers may allocate.
#[test]
fn poll_queries_do_not_allocate_on_memo_hit_or_miss() {
    let mut ctl = NimbusController::new(NimbusConfig::default_for_link(MU));
    let mut k = 0u64;
    while k < 1_000 {
        k += 1;
        let t = k as f64 * 0.01;
        tick(&mut ctl, t, |s| against_cross(t, s, 5.0, 0.4));
    }
    for i in 0..MEASURED {
        k += 1;
        let t = k as f64 * 0.01;
        tick(&mut ctl, t, |s| against_cross(t, s, 5.0, 0.4));
        let now = Time::from_secs_f64(t + 0.001);
        let later = now + Time::from_micros(125);
        let queries: [(&str, &dyn Fn() -> f64); 5] = [
            ("window miss", &|| ctl.cwnd_packets()),
            ("window hit", &|| ctl.cwnd_packets()),
            ("pace miss", &|| {
                ctl.pacing_rate_bps(now).expect("nimbus paces")
            }),
            ("pace hit", &|| {
                ctl.pacing_rate_bps(now).expect("nimbus paces")
            }),
            ("pace miss at a later now", &|| {
                ctl.pacing_rate_bps(later).expect("nimbus paces")
            }),
        ];
        for (what, query) in queries {
            let before = ALLOCATIONS.with(Cell::get);
            std::hint::black_box(query());
            let allocations = ALLOCATIONS.with(Cell::get) - before;
            assert_eq!(allocations, 0, "{what} after report {i}");
        }
    }
}
