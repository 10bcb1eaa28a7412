//! The recorder keeps one delay per packet of every monitored flow for the
//! run's median queueing delay, so on a long run those samples are most of
//! the heap.  Below 2^32 ns they must cost 4 bytes each plus at most one
//! partly filled chunk, and neither reading their median nor serializing
//! the snapshot that holds them may copy them.

use nimbus_netsim::{ChunkedSamples, Recorder, RecorderConfig, Time, SAMPLE_CHUNK};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread has allocated and not yet freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// Bytes this thread has ever allocated (a reallocation counts its new size).
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

fn on_alloc(size: usize) {
    LIVE.with(|n| n.set(n.get() + size as i64));
    ALLOCATED.with(|n| n.set(n.get() + size as u64));
}

fn on_free(size: usize) {
    LIVE.with(|n| n.set(n.get() - size as i64));
}

struct Counting;

// SAFETY: every call is forwarded to `System` unchanged; the counters are
// const-initialised thread-local `Cell`s, which neither allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_free(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        on_free(layout.size());
        on_alloc(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Per-packet delay samples fed to the one monitored flow.
const SAMPLES: usize = 600_000;

/// A recorder whose monitored flow dequeued `samples` packets, with delays
/// spread over 0–40 ms.
fn recorder_with(samples: usize) -> Recorder {
    let mut rec = Recorder::new(RecorderConfig::default(), 1);
    rec.register_flow(0, "monitored".into(), None, true, Time::ZERO, None);
    for i in 0..samples as u64 {
        rec.on_dequeue(0, Time::from_nanos(i * 7_919 % 40_000_000));
    }
    rec
}

fn median_delay_ms(rec: &Recorder) -> f64 {
    let ChunkedSamples::Narrow(narrow) = &rec.packet_delays[0] else {
        panic!("delays below 2^32 ns stay narrow");
    };
    nimbus_dsp::percentile_of_keyed_chunks(
        narrow.chunks(),
        50.0,
        |ns| u64::from(ns) << 32,
        |k| Time::from_nanos(k >> 32).as_millis_f64(),
    )
}

#[test]
fn delay_samples_cost_four_bytes_each_plus_one_chunk() {
    let before = LIVE.with(Cell::get);
    let rec = recorder_with(SAMPLES);
    let held = LIVE.with(Cell::get) - before;
    let bound = (4 * SAMPLES + 4 * SAMPLE_CHUNK) as i64;
    assert!(
        held <= bound,
        "the recorder holds {held} B for {SAMPLES} samples, over the {bound} B bound"
    );
    assert_eq!(rec.packet_delays[0].len(), SAMPLES);
}

#[test]
fn the_median_delay_allocates_the_same_bounded_bytes_at_any_sample_count() {
    let allocated_by_median = |rec: &Recorder| {
        let before = ALLOCATED.with(Cell::get);
        std::hint::black_box(median_delay_ms(rec));
        ALLOCATED.with(Cell::get) - before
    };
    let small = allocated_by_median(&recorder_with(SAMPLES / 10));
    let large = allocated_by_median(&recorder_with(SAMPLES));
    assert_eq!(
        small,
        large,
        "the median of {} samples allocated {small} B, of {SAMPLES} samples {large} B",
        SAMPLES / 10
    );
    assert!(
        large <= 8 * SAMPLE_CHUNK as u64,
        "the median allocated {large} B, more than one chunk"
    );
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
fn a_snapshot_streams_its_delays_without_building_a_copy() {
    let rec = recorder_with(SAMPLES);
    let before = ALLOCATED.with(Cell::get);
    let mut sink = ByteCount(0);
    serde_json::to_writer(&mut sink, &rec.snapshot()).unwrap();
    let allocated = ALLOCATED.with(Cell::get) - before;
    assert!(sink.0 > SAMPLES, "{SAMPLES} delays wrote only {} B", sink.0);
    assert!(
        allocated < 64_000,
        "streaming a {} B snapshot allocated {allocated} B",
        sink.0
    );
}

#[test]
fn a_snapshot_string_allocates_only_its_own_growth() {
    let rec = recorder_with(SAMPLES);
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
