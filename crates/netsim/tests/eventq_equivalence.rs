//! Equivalence proof-by-property for the calendar event queue.
//!
//! `Network` replaced its `BinaryHeap<Reverse<EventEntry>>` with
//! [`CalendarQueue`].  The simulator's fingerprints are byte-identical only
//! if the new queue pops events in *exactly* the old order — `(at, seq)`
//! ascending, i.e. timestamp then insertion order — for every schedule the
//! engine can produce.  The engine's schedules are *monotone*: `schedule()`
//! clamps `at` to `max(at, now)`, so no push is ever earlier than the last
//! pop.  These tests drive both queues through random monotone schedules and
//! assert identical pop sequences, covering the hard cases explicitly:
//!
//! * same-timestamp ties (timestamps snapped to a coarse grid so collisions
//!   are common — insertion order must break them);
//! * pushes beyond the wheel horizon (the overflow heap path);
//! * cancel/reschedule via generation tags, the engine's idiom for moving a
//!   timer: the stale entry stays queued and is skipped on pop, so both
//!   queues must agree on the *full* sequence including stale entries;
//! * the dense regime (a 1 Gbit/s link puts ~74 events in every 262 µs
//!   bucket): 64–256 live events per bucket, pushes into the bucket being
//!   drained — at the last popped timestamp and below entries already sorted
//!   there — overflow events that come due before the wheel's minimum, and
//!   runs long enough to reuse every wheel slot;
//! * lanes: the engine keeps each fixed-delay wire as a FIFO [`Lane`] and
//!   the calendar holds only each lane's head, pushing the successor under
//!   its original `(at, seq)` when the head pops.  Merged with calendar-only
//!   timers, that must still pop every item in the heap's order.

use nimbus_netsim::Time;
use nimbus_netsim::{CalendarQueue, Lane, LanePool};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Payload: (timer id, generation tag). A reschedule bumps the current
/// generation for the id and pushes a fresh entry; entries bearing an older
/// generation are "cancelled" and skipped by the consumer on pop.
type Tag = (u32, u32);

/// The queue's geometry, restated here because the dense schedules aim at
/// particular buckets: 2^18 ns buckets, 1024 of them.
const BUCKET_NS: u64 = 1 << 18;
const WHEEL_BUCKETS: u64 = 1024;

/// The calendar queue and the reference it replaced — `(at, seq)` is unique
/// (seq strictly increases), so a heap over the full tuple orders by
/// `(at, seq)` and the payload never influences the order — driven in lock
/// step.
#[derive(Default)]
struct Pair {
    cal: CalendarQueue<Tag>,
    heap: BinaryHeap<Reverse<(u64, u64, Tag)>>,
    /// Current generation per timer id.
    gen: [u32; 16],
    seq: u64,
    /// Time of the last pop, ns.
    now: u64,
    pops: u64,
    live_pops: Vec<(u64, u64, Tag)>,
}

impl Pair {
    fn push(&mut self, at: u64, id: u32) {
        assert!(at >= self.now, "test schedule must be monotone");
        self.seq += 1;
        let tag = (id, self.gen[id as usize]);
        self.cal.push(Time(at), self.seq, tag);
        self.heap.push(Reverse((at, self.seq, tag)));
    }

    /// Cancel timer `id` by bumping its generation, then push the
    /// replacement; the stale entry stays in both queues.
    fn reschedule(&mut self, at: u64, id: u32) {
        self.gen[id as usize] += 1;
        self.push(at, id);
    }

    /// Pop once from both; `false` once both are empty.  `label` names the
    /// case and step in the failure message.
    fn pop(&mut self, label: &dyn Fn() -> String) -> bool {
        let got = self.cal.pop();
        let want = self
            .heap
            .pop()
            .map(|Reverse((at, seq, tag))| (Time(at), seq, tag));
        assert_eq!(got, want, "{}", label());
        let Some((at, s, tag)) = got else {
            return false;
        };
        assert!(at.0 >= self.now, "pop went backwards: {}", label());
        self.now = at.0;
        self.pops += 1;
        if tag.1 == self.gen[tag.0 as usize] {
            self.live_pops.push((at.0, s, tag));
        }
        true
    }

    /// Drain both to empty — tails must agree too — then check that every
    /// push was popped exactly once and the live stream is `(at, seq)`-sorted.
    fn finish(mut self, label: &dyn Fn() -> String) {
        while self.pop(label) {}
        assert!(self.cal.is_empty());
        assert_eq!(self.pops, self.seq, "{}", label());
        for w in self.live_pops.windows(2) {
            assert!((w[0].0, w[0].1) < (w[1].0, w[1].1), "{}", label());
        }
    }
}

/// Snap to a coarse grid so distinct draws collide on the same timestamp and
/// the insertion-order tiebreak actually gets exercised.
const TICK: u64 = 700_000; // 0.7 ms — several entries per calendar bucket

proptest! {
    // Random monotone schedules with ties, overflow-horizon pushes and
    // generation-tagged reschedules: both queues must emit identical
    // (at, seq, payload) streams, and the post-filter "live" streams
    // (stale generations dropped) must also match.
    #[test]
    fn calendar_queue_matches_binary_heap_pop_for_pop(
        ops in collection::vec((0u8..10, 0u64..400, 0u32..16), 1..800),
    ) {
        let mut pair = Pair::default();
        let label = || "inputs above".to_string();
        // `delta` spans 0..400 ticks = 0..280 ms: the wheel horizon is
        // ~268 ms, so the top of the range lands in the overflow heap.
        for (op, delta, id) in ops {
            let at = pair.now + delta * TICK;
            match op {
                0..=5 => pair.push(at, id),
                6..=7 => {
                    pair.pop(&label);
                }
                _ => pair.reschedule(at, id),
            }
        }
        pair.finish(&label);
    }

    // The dense regime.  Bursts of 64–256 events land in one bucket: the one
    // being drained (`ahead == 0`, so some sit at the last popped timestamp
    // and some below entries already sorted there), a nearby one, or one up
    // to 1100 buckets out — past the 1024-bucket horizon, so into the
    // overflow heap, where it comes due while later bursts fill the wheel
    // behind it.  Pops run a few hundred at a time, so buckets are left
    // half-drained when the next burst arrives, and virtual time crosses
    // several wheel turns per case.
    #[test]
    fn dense_buckets_match_binary_heap_pop_for_pop(seed in 0u64..1_000_000) {
        let mut rng = TestRng::new(seed);
        let mut pair = Pair::default();
        for step in 0..120 {
            let label = || format!("seed={seed} step={step}");
            match rng.range_u64(0, 10) {
                0..=4 => {
                    let ahead = match rng.range_u64(0, 4) {
                        0 => 0,
                        1 => rng.range_u64(0, 3),
                        _ => rng.range_u64(0, WHEEL_BUCKETS + 76),
                    };
                    let bucket_start = (pair.now / BUCKET_NS + ahead) * BUCKET_NS;
                    let n = rng.range_u64(64, 257);
                    for _ in 0..n {
                        // A 4 µs grid: 64 distinct timestamps per bucket, so
                        // a burst is mostly ties.
                        let at = bucket_start + rng.range_u64(0, 64) * (BUCKET_NS / 64);
                        let id = rng.range_u64(0, 16) as u32;
                        if rng.range_u64(0, 8) == 0 {
                            pair.reschedule(at.max(pair.now), id);
                        } else {
                            pair.push(at.max(pair.now), id);
                        }
                    }
                }
                5 => {
                    // Exactly the last popped timestamp, several times over.
                    for id in 0..4 {
                        pair.push(pair.now, id);
                    }
                }
                _ => {
                    for _ in 0..rng.range_u64(1, 400) {
                        pair.pop(&label);
                    }
                }
            }
        }
        let label = || format!("seed={seed} drain");
        pair.finish(&label);
    }
}

/// One long dense run: ~140 events through every bucket for more than a full
/// turn of the wheel, so every slot is sorted, drained and reused by the
/// bucket 1024 above it while its neighbours are still full.
#[test]
fn dense_population_survives_a_wheel_wrap() {
    let mut rng = TestRng::new(16);
    let mut pair = Pair::default();
    let mut step = 0u64;
    while pair.now / BUCKET_NS < WHEEL_BUCKETS + 200 {
        step += 1;
        let label = || format!("seed=16 step={step}");
        // Keep ~600 events live across the next four buckets; one push in
        // 500 is an RTO-scale timer that sits in the overflow heap until the
        // dense cluster catches up with it.
        while pair.cal.len() < 600 {
            let jitter = if rng.range_u64(0, 500) == 0 {
                WHEEL_BUCKETS * BUCKET_NS + rng.range_u64(0, 8 * BUCKET_NS)
            } else {
                rng.range_u64(0, 4 * BUCKET_NS) / 4096 * 4096
            };
            pair.push(pair.now + jitter, rng.range_u64(0, 16) as u32);
        }
        for _ in 0..rng.range_u64(1, 300) {
            pair.pop(&label);
        }
    }
    let per_bucket = pair.pops / (pair.now / BUCKET_NS);
    assert!((64..=256).contains(&per_bucket), "{per_bucket} per bucket");
    pair.finish(&|| "seed=16 drain".to_string());
}

/// What a calendar entry stands for in [`LaneRig`]: the head of a lane, or
/// a timer that never enters a lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Src {
    Lane(usize),
    Timer,
}

/// Lanes with constant delays and calendar-only timers, merged through one
/// calendar, beside a heap holding every item; each item's payload is its
/// own `seq`.
struct LaneRig {
    cal: CalendarQueue<Src>,
    pool: LanePool<u64>,
    lanes: Vec<Lane>,
    delays: Vec<u64>,
    heap: BinaryHeap<Reverse<(u64, u64, u64)>>,
    timers: usize,
    seq: u64,
    now: u64,
    pops: u64,
    /// Pushes into a lane that had drained to empty after holding items.
    refills: u64,
    drained: Vec<bool>,
}

impl LaneRig {
    fn new(delays: Vec<u64>) -> Self {
        LaneRig {
            cal: CalendarQueue::new(),
            pool: LanePool::new(),
            lanes: vec![Lane::default(); delays.len()],
            drained: vec![false; delays.len()],
            delays,
            heap: BinaryHeap::new(),
            timers: 0,
            seq: 0,
            now: 0,
            pops: 0,
            refills: 0,
        }
    }

    fn push_lane(&mut self, lane: usize) {
        self.seq += 1;
        let (at, seq) = (self.now + self.delays[lane], self.seq);
        self.heap.push(Reverse((at, seq, seq)));
        if std::mem::take(&mut self.drained[lane]) {
            self.refills += 1;
        }
        if self.pool.push(&mut self.lanes[lane], Time(at), seq, seq) {
            self.cal.push(Time(at), seq, Src::Lane(lane));
        }
    }

    fn push_timer(&mut self, at: u64) {
        self.seq += 1;
        self.heap.push(Reverse((at, self.seq, self.seq)));
        self.cal.push(Time(at), self.seq, Src::Timer);
        self.timers += 1;
    }

    /// Pop once from both; `false` once both are empty.
    fn pop(&mut self, label: &dyn Fn() -> String) -> bool {
        let got = self.cal.pop().map(|(at, seq, src)| {
            let item = match src {
                Src::Timer => {
                    self.timers -= 1;
                    seq
                }
                Src::Lane(lane) => {
                    let (item, next) = self.pool.pop(&mut self.lanes[lane]);
                    match next {
                        Some((at, seq)) => self.cal.push(at, seq, Src::Lane(lane)),
                        None => self.drained[lane] = true,
                    }
                    item
                }
            };
            (at.0, seq, item)
        });
        let want = self.heap.pop().map(|Reverse(x)| x);
        assert_eq!(got, want, "{}", label());
        // Every lane holds at most one calendar entry, its head.
        assert!(
            self.cal.len() <= self.lanes.len() + self.timers,
            "{}",
            label()
        );
        let Some((at, _, _)) = got else {
            return false;
        };
        self.now = at;
        self.pops += 1;
        true
    }
}

proptest! {
    // Lanes plus calendar against the heap, pop for pop.  Delays sit on a
    // half-bucket grid and a third of the lanes copy another lane's delay,
    // so lane items tie on `at` with each other and with the timers, which
    // share the grid; lane 0's delay lies past the 268 ms wheel horizon, so
    // its heads wait in the overflow heap.  One step in 20 drains both
    // queues to empty before the lanes refill, and every case runs 2000
    // steps and past 1.5 wheel turns.
    #[test]
    fn lanes_merged_through_the_calendar_match_binary_heap_pop_for_pop(
        seed in 0u64..1_000_000,
    ) {
        const GRID: u64 = BUCKET_NS / 2;
        let horizon = WHEEL_BUCKETS * BUCKET_NS;
        let mut rng = TestRng::new(seed);
        let lanes = rng.range_u64(2, 9) as usize;
        let mut delays = vec![horizon + rng.range_u64(0, 512) * GRID];
        while delays.len() < lanes {
            let delay = if rng.range_u64(0, 3) == 0 {
                delays[rng.range_u64(0, delays.len() as u64) as usize]
            } else {
                rng.range_u64(0, 2 * WHEEL_BUCKETS) * GRID
            };
            delays.push(delay);
        }
        let mut rig = LaneRig::new(delays);
        let mut step = 0u64;
        while rig.now < horizon * 3 / 2 || step < 2_000 {
            step += 1;
            assert!(step < 100_000, "seed={seed}: time stalled at {} ns", rig.now);
            let label = || format!("seed={seed} step={step}");
            match rng.range_u64(0, 20) {
                0 => while rig.pop(&label) {},
                1..=9 => {
                    for _ in 0..rng.range_u64(1, 5) {
                        rig.push_lane(rng.range_u64(0, lanes as u64) as usize);
                    }
                }
                10..=11 => {
                    let at = rig.now + rng.range_u64(0, 2 * WHEEL_BUCKETS + 600) * GRID;
                    rig.push_timer(at);
                }
                _ => {
                    for _ in 0..rng.range_u64(1, 6) {
                        rig.pop(&label);
                    }
                }
            }
        }
        while rig.pop(&|| format!("seed={seed} drain")) {}
        assert!(rig.lanes.iter().all(Lane::is_empty));
        assert_eq!(rig.pops, rig.seq, "seed={seed}: pushed items went missing");
        assert!(rig.refills > 0, "seed={seed}: no lane drained and refilled");
        assert!(rig.pool.high_water() < rig.seq as usize, "seed={seed}: links not reused");
    }
}
