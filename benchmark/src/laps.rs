//! Lap marks: clock readings at fixed points of a rep's event sequence.
//!
//! Every rep of a run does bit-identical work, so the stretch between two
//! marks — a *segment* — is the same work in every rep.  The host's noise
//! comes in bursts of tens to hundreds of milliseconds: in a slow phase no
//! whole rep of a second escapes it, but each segment of a few milliseconds
//! escapes it in some rep.  Every wall-clock figure of the benchmark
//! (`stats::segment_floor`) therefore sums, over segments, the fastest time
//! any rep took for that segment.
//!
//! Marks are dropped from the benchmark's own code at points fixed in
//! simulated time, [`PER_REP`] − 1 of them evenly spaced over a rep: the mock
//! host's loop drops them itself, and in the simulator the monitored flow's
//! data source (`sim::LapSource`, the application end of the sender, which
//! the benchmark supplies anyway) marks the first poll at or past each
//! boundary.  Nothing inside the program is touched.
//!
//! The marks live in a fixed-size thread-local: the source is moved into the
//! engine and cannot carry a borrow, and marking must not allocate where
//! allocations are being counted.

use std::cell::RefCell;
use std::time::Instant;

/// Segments a rep is split into, on every workload: 2 ms (`bulk_cubic`) to
/// 20 ms (`core_embed`) of wall each.
pub const PER_REP: usize = 72;

struct Marks {
    /// Start of the region being timed, if one is.
    start: Option<Instant>,
    taken: usize,
    /// Nanoseconds from `start` to each mark.
    at_ns: [u64; PER_REP - 1],
}

thread_local! {
    static MARKS: RefCell<Marks> = const {
        RefCell::new(Marks {
            start: None,
            taken: 0,
            at_ns: [0; PER_REP - 1],
        })
    };
}

/// Read the clock.  A no-op outside [`timed`] or once a rep has all its
/// marks.
pub fn mark() {
    MARKS.with(|m| {
        let mut m = m.borrow_mut();
        if let Some(start) = m.start {
            if m.taken < m.at_ns.len() {
                let i = m.taken;
                m.at_ns[i] = start.elapsed().as_nanos() as u64;
                m.taken += 1;
            }
        }
    });
}

/// Run `region` and time it, split at the marks it drops: what it returned
/// and the duration of each segment in seconds, one more than there were
/// marks and [`PER_REP`] at most.  Nothing is allocated until `region` has
/// returned.
pub fn timed<T>(region: impl FnOnce() -> T) -> (T, Vec<f64>) {
    let start = Instant::now();
    MARKS.with(|m| {
        let mut m = m.borrow_mut();
        m.start = Some(start);
        m.taken = 0;
    });
    let out = region();
    let end_ns = start.elapsed().as_nanos() as u64;
    let (taken, at_ns) = MARKS.with(|m| {
        let mut m = m.borrow_mut();
        m.start = None;
        (m.taken, m.at_ns)
    });
    let mut from = 0;
    let mut segments = Vec::with_capacity(taken + 1);
    for at in at_ns[..taken].iter().copied().chain([end_ns]) {
        segments.push((at - from) as f64 / 1e9);
        from = at;
    }
    (out, segments)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marks_split_a_region_into_segments_that_sum_to_it() {
        let outer = Instant::now();
        let ((), segments) = timed(|| {
            mark();
            mark();
        });
        assert_eq!(segments.len(), 3);
        assert!(segments.iter().sum::<f64>() <= outer.elapsed().as_secs_f64());
        // Beyond the room marks are dropped, never reallocated.
        let ((), segments) = timed(|| (0..2 * PER_REP).for_each(|_| mark()));
        assert_eq!(segments.len(), PER_REP);
        // No collection active: marking is a no-op.
        mark();
        assert_eq!(timed(|| ()).1.len(), 1);
    }
}
