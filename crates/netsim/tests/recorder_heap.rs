//! A long run's recorder holds many sampling intervals of every series, and
//! serializing its snapshot must not copy them: streamed to a sink it
//! allocates a bounded number of bytes whatever its size, and written to a
//! `String` it allocates only that string's growth.

use nimbus_netsim::{Recorder, RecorderConfig, Time};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread has ever allocated (a reallocation counts its new size).
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded to `System` unchanged; the counter is a
// const-initialised thread-local `Cell`, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.with(|n| n.set(n.get() + layout.size() as u64));
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.with(|n| n.set(n.get() + new_size as u64));
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
