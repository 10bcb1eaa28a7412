//! A counting global allocator: exact heap counts for the benchmark.
//!
//! The counters are plain thread-local cells, not atomics: every timed
//! region runs on one thread, and a thread-local never sees another thread's
//! (e.g. the test harness's) traffic.  Counts of a deterministic program
//! therefore repeat exactly, which is what lets `peak_heap_mb` and
//! `allocs_per_sim_s` be compared as counts rather than as noisy timings.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to the system allocator and counts on the way.
pub struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    static PEAK_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// Record one allocation of `size` bytes.  `try_with` because the allocator
/// is still called while a thread's locals are being torn down.
fn on_alloc(size: usize) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = ALLOC_BYTES.try_with(|c| c.set(c.get() + size as u64));
    on_resize(size as i64);
}

/// Move the live-byte gauge by `delta` and raise the peak if it grew.
fn on_resize(delta: i64) {
    let live = LIVE_BYTES.try_with(|c| {
        let live = c.get() + delta;
        c.set(live);
        live
    });
    if let Ok(live) = live {
        let _ = PEAK_BYTES.try_with(|c| c.set(c.get().max(live)));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only thread-local
// `Cell`s and never allocates or unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout the caller vouched for.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout the caller vouched for.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with `layout`, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) };
        on_resize(-(layout.size() as i64));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` came from this allocator, i.e. from `System`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // A growing `Vec` is one allocation event per reallocation.
            let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
            let _ = ALLOC_BYTES.try_with(|c| c.set(c.get() + new_size as u64));
            on_resize(new_size as i64 - layout.size() as i64);
        }
        p
    }
}

/// The calling thread's counters at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapSnapshot {
    /// Allocation events so far (`alloc`, `alloc_zeroed`, `realloc`).
    pub allocs: u64,
    /// Bytes requested by those events.
    pub alloc_bytes: u64,
    /// Bytes live right now.
    pub live_bytes: i64,
    /// Highest `live_bytes` since the last [`reset_peak`].
    pub peak_bytes: i64,
}

/// Read the calling thread's counters.
pub fn snapshot() -> HeapSnapshot {
    HeapSnapshot {
        allocs: ALLOCS.with(Cell::get),
        alloc_bytes: ALLOC_BYTES.with(Cell::get),
        live_bytes: LIVE_BYTES.with(Cell::get),
        peak_bytes: PEAK_BYTES.with(Cell::get),
    }
}

/// Restart peak tracking from the current live size.
pub fn reset_peak() {
    PEAK_BYTES.with(|p| p.set(LIVE_BYTES.with(Cell::get)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_allocations_and_tracks_the_peak() {
        reset_peak();
        let before = snapshot();
        let v: Vec<u8> = Vec::with_capacity(1 << 20);
        let during = snapshot();
        drop(v);
        let after = snapshot();
        assert_eq!(during.allocs - before.allocs, 1);
        assert_eq!(during.alloc_bytes - before.alloc_bytes, 1 << 20);
        assert_eq!(during.live_bytes - before.live_bytes, 1 << 20);
        assert_eq!(after.live_bytes, before.live_bytes);
        assert!(after.peak_bytes - before.live_bytes >= 1 << 20);
        reset_peak();
        assert_eq!(snapshot().peak_bytes, snapshot().live_bytes);
    }
}
