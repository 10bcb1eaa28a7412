//! A long run's recorder holds many sampling intervals of every series.
//! Each interval must cost it one time on its shared clock and one value
//! per column, with no second copy of the clock per series; and
//! serializing its snapshot must not copy them: streamed to a sink it
//! allocates a bounded number of bytes whatever its size, and written to a
//! `String` it allocates only that string's growth.

use nimbus_netsim::{Recorder, RecorderConfig, Time};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread has ever allocated (a reallocation counts its new size).
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread holds allocated now.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The most [`LIVE`] has been since it was last reset.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Move the live-byte gauge by `delta`, raising the peak if it grew.
fn resize(delta: i64) {
    let live = LIVE.with(|n| {
        n.set(n.get() + delta);
        n.get()
    });
    PEAK.with(|p| p.set(p.get().max(live)));
}

struct Counting;

// SAFETY: every call is forwarded to `System` unchanged; the counters are
// const-initialised thread-local `Cell`s, which neither allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.with(|n| n.set(n.get() + layout.size() as u64));
        resize(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        resize(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.with(|n| n.set(n.get() + new_size as u64));
        resize(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Sampling intervals closed on the recorder: 100 simulated minutes.
const INTERVALS: u64 = 60_000;

/// A recorder with two monitored flows and [`INTERVALS`] closed intervals,
/// each with traffic, so every series holds a finite sample per interval.
fn long_recorder() -> Recorder {
    let mut rec = Recorder::new(RecorderConfig::default(), 1);
    rec.register_flow(0, "monitored".into(), None, true, Time::ZERO, None);
    rec.register_flow(1, "second".into(), None, true, Time::ZERO, None);
    for i in 1..=INTERVALS {
        for flow in 0..2 {
            rec.on_arrival(flow, 1500 * (i % 97));
            rec.on_rtt_sample(flow, Time::from_micros(40_000 + i % 7_919));
            rec.on_dequeue(flow, Time::from_micros(i % 40_000));
        }
        rec.sample(Time::from_millis(100 * i), &[1500 * (i % 211)]);
    }
    rec
}

/// A sink that only counts the bytes written to it.
struct ByteCount(usize);

impl std::fmt::Write for ByteCount {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0 += s.len();
        Ok(())
    }
}

#[test]
fn a_snapshot_streams_its_series_without_building_a_copy() {
    let rec = long_recorder();
    let before = ALLOCATED.with(Cell::get);
    let mut sink = ByteCount(0);
    serde_json::to_writer(&mut sink, &rec.snapshot()).unwrap();
    let allocated = ALLOCATED.with(Cell::get) - before;
    // Nine series sampled per interval: 18 numbers, each at least a digit
    // and a separator.
    let least = 36 * INTERVALS as usize;
    assert!(
        sink.0 > least,
        "{INTERVALS} intervals wrote only {} B",
        sink.0
    );
    assert!(
        allocated < 64_000,
        "streaming a {} B snapshot allocated {allocated} B",
        sink.0
    );
}

#[test]
fn a_snapshot_string_allocates_only_its_own_growth() {
    let rec = long_recorder();
    let before = ALLOCATED.with(Cell::get);
    let text = serde_json::to_string(&rec.snapshot()).unwrap();
    let allocated = ALLOCATED.with(Cell::get) - before;
    // The same text pushed a character at a time into a fresh `String`:
    // what its amortised growth allocates, and nothing else.
    let before = ALLOCATED.with(Cell::get);
    let mut grown = String::new();
    for c in text.chars() {
        grown.push(c);
    }
    let growth = ALLOCATED.with(Cell::get) - before;
    assert_eq!(grown, text);
    assert!(
        allocated <= growth,
        "writing {} B allocated {allocated} B, its growth alone {growth} B",
        text.len()
    );
}

/// The peak live heap of a one-hop recorder with two monitored flows and a
/// cross flow, fed one packet of each per interval for `intervals` 100 ms
/// intervals, above what was live before.
fn peak_heap_of(intervals: u64) -> i64 {
    let before = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(before));
    let mut rec = Recorder::new(RecorderConfig::default(), 1);
    rec.register_flow(0, "primary".into(), None, true, Time::ZERO, None);
    rec.register_flow(1, "second".into(), None, true, Time::ZERO, None);
    rec.register_flow(2, "cross".into(), Some(true), false, Time::ZERO, None);
    for i in 1..=intervals {
        for flow in 0..2 {
            rec.on_arrival(flow, 1500);
            rec.on_rtt_sample(flow, Time::from_millis(60));
            rec.on_dequeue(flow, Time::from_millis(5));
        }
        rec.on_enqueue(2, 1500);
        rec.sample(Time::from_millis(100 * i), &[3000]);
    }
    drop(rec);
    PEAK.with(Cell::get) - before
}

#[test]
fn each_interval_costs_one_clock_entry_and_one_value_per_column() {
    // 2^14 and 2^15 samples leave every growing `Vec` exactly full, so the
    // difference is the per-interval cost and not a doubling caught at a
    // different moment.
    let (small, large) = (1 << 14, 1 << 15);
    let per_interval = (peak_heap_of(large) - peak_heap_of(small)) as f64 / (large - small) as f64;
    // Nine columns (three per monitored flow, three for the path) and the
    // clock, 8 B each; a clock per series would cost twice that.
    assert!(
        per_interval <= 10.0 * 8.0,
        "{per_interval:.1} B per extra interval"
    );
}
