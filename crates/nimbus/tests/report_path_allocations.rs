//! `NimbusController::on_report` runs per connection per 10 ms inside
//! someone else's datapath, so in steady state it must not allocate: no
//! window `Vec`, no FFT buffers (a transform cannot run without several).
//! The only allocations left are the amortised doublings of the verdict and
//! mode logs — a handful per thousand reports.

use nimbus_core::cc::{AckEvent, CongestionControl};
use nimbus_core::{Mode, NimbusConfig, NimbusController, Report};
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

/// One 10 ms host tick at `t`: an ACK, then a report in which 48 Mbit/s of
/// cross traffic either echoes the flow's pulses one RTT late (elastic) or
/// ignores them.  Returns the allocations `on_report` made.
fn tick(ctl: &mut NimbusController, t: f64, elastic: bool) -> u64 {
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
    let echo = PulseGenerator::asymmetric(5.0, 0.25 * MU).offset_at(t - 0.05);
    let z = 48e6 - if elastic { 0.4 * echo } else { 0.0 };
    let report = Report {
        now_s: t,
        send_rate_bps: send,
        recv_rate_bps: MU * send / (send + z),
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

#[test]
fn steady_state_reports_do_not_allocate() {
    let mut ctl = NimbusController::new(NimbusConfig::default_for_link(MU));
    // 10 s against an elastic competitor: delay mode while the first window
    // fills, competitive once it has.
    let mut k = 0u64;
    while k < 1_000 {
        k += 1;
        tick(&mut ctl, k as f64 * 0.01, true);
    }
    assert_eq!(
        ctl.mode(),
        Mode::Competitive,
        "warm-up must visit both modes"
    );
    assert!(ctl.detector().verdicts().len() > 400);

    // The next 2 000 reports, the competitor gone a quarter of the way in so
    // the §4.1 switch back to delay mode is inside the measured stretch.
    const MEASURED: u64 = 2_000;
    let mut allocations = 0;
    for i in 0..MEASURED {
        k += 1;
        allocations += tick(&mut ctl, k as f64 * 0.01, i < MEASURED / 4);
    }
    assert_eq!(
        ctl.mode(),
        Mode::Delay,
        "the measured stretch must switch back"
    );
    let per_report = allocations as f64 / MEASURED as f64;
    assert!(
        per_report < 0.02,
        "{allocations} allocations in {MEASURED} reports = {per_report} per on_report"
    );
}
