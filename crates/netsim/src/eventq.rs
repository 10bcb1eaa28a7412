//! The engine's event queue: a calendar (bucket-wheel) priority queue with a
//! binary-heap overflow, ordered by `(timestamp, insertion seq)`, and the
//! propagation [`Lane`]s that keep packets and ACKs in flight out of it.
//!
//! The discrete-event engine's schedule has a very particular shape: the vast
//! majority of pending events — `LinkDone` completions, `PollSend` pacing
//! wake-ups, the heads of the propagation lanes — sit within a few hundred
//! microseconds to a few tens of milliseconds of the current virtual time,
//! while a handful of long timers (RTOs, rate-schedule transitions,
//! far-future poll wake-ups) sit seconds out.  A comparison-based heap pays
//! O(log n) pointer-chasing sifts per operation over that whole population;
//! a calendar queue instead hashes each event by time into a fixed wheel of
//! short-horizon buckets and only spills the rare far-future event into a
//! conventional heap.
//!
//! Lanes.  A fixed-delay wire is a FIFO: items enter it at non-decreasing
//! times and all wait its one delay, so `(at, seq)` strictly increases along
//! it.  Each such wire — a flow's data direction, its ACK direction, the
//! wire into a hop — is a [`Lane`] whose links live in a [`LanePool`], and
//! only the lane's head has a calendar entry.  The caller pushes the head
//! when an item enters an empty lane and, when it pops a head, pushes the
//! successor under the `(at, seq)` the successor was given on entry.  The
//! calendar so holds one entry per non-empty lane instead of one per item in
//! flight, and pops exactly what one queue holding every item would.
//!
//! Storage.  A *future* bucket is a FIFO list whose links live in one
//! [`LanePool`] shared by the whole wheel, so the links allocated are the
//! peak number of events waiting in future buckets at once, not 1 024 times
//! each bucket's busiest moment; the wheel itself is 1 024 list heads.  Only
//! the *current* bucket is a `Vec`, and one buffer serves every bucket in
//! turn.
//!
//! Cost model.  A push to a future bucket is an O(1) append: it takes a
//! link from the pool's free list (the pool grows only past its high-water
//! mark) and writes the bucket's tail.  When the cursor first reaches a
//! bucket, its list is moved into the current-bucket buffer and sorted once
//! (descending by `(at, seq)`), and from then on it is the current bucket:
//! `pop` takes its last element, and a push that lands in it does an
//! ordered insert, walking from the minimum end.  So a bucket holding k
//! events costs one O(k log k) sort for its k pops — the per-event cost does
//! not grow with k the way a min-scan per pop does — and the bucket width
//! only has to keep the wheel's horizon useful, not keep buckets short.
//! With lanes most pushes are a successor due shortly after the event just
//! popped, so on a dense link they land in the current bucket near its
//! minimum.  Seed 1 of the benchmark workloads (share of pushes that land in
//! the current bucket, entries such a push walks past, mean / peak calendar
//! population): `fleet_churn` 91 %, 3.0, 947 / 1 402; `bulk_cubic` 36 %,
//! 2.2, 9 / 11; `fig1_nimbus` 4 %, 2.5, 8 / 11.
//!
//! Ordering contract — identical to the `BinaryHeap<Reverse<EventEntry>>` it
//! replaces, and pinned by the equivalence tests in this module, by
//! `tests/eventq_equivalence.rs` and by the recorder fingerprints: events pop
//! in strictly increasing `(at, seq)` order, where `seq` is the caller's
//! monotonically increasing insertion counter.  Ties on `at` therefore
//! resolve by insertion order, exactly as before.
//!
//! Precondition (the engine's `schedule` guarantees it by clamping with
//! `at.max(now)`, and a lane's successor is no earlier than the head just
//! popped): a pushed timestamp is never smaller than the timestamp of the
//! last popped event.  Violations in release builds are clamped into the
//! current cursor bucket, which preserves pop ordering for any timestamp no
//! older than the wheel's cursor bucket start.

use nimbus_core_types::Time;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// log2 of the bucket width in nanoseconds: 2^18 ns ≈ 262 µs.  With
/// [`NUM_BUCKETS`] the width fixes the wheel's horizon, which is what it is
/// chosen for; it does not have to track the link rate, because occupancy
/// costs a sort per bucket and not a scan per pop.  Events through each
/// bucket (events per simulated second × the width; lanes do not change it,
/// since every event still passes through the calendar once) on the
/// benchmark workloads: 4 on `fig1_nimbus` (48 Mbit/s), 6 on `bulk_cubic`
/// (96 Mbit/s), 74 on `fleet_churn` (1 Gbit/s).
const BUCKET_SHIFT: u32 = 18;
/// Number of wheel buckets (power of two).  Horizon = 1024 · 262 µs ≈ 268 ms,
/// which covers propagation delays, the 10 ms tick and the 100 ms recorder
/// sample; only RTO-scale timers and rate-schedule transitions overflow.
const NUM_BUCKETS: usize = 1024;
const BUCKET_MASK: u64 = (NUM_BUCKETS as u64) - 1;

#[inline]
fn bucket_no(at: Time) -> u64 {
    at.0 >> BUCKET_SHIFT
}

#[derive(Debug, Clone)]
struct Entry<T> {
    at: Time,
    seq: u64,
    item: T,
}

impl<T> Entry<T> {
    fn key(&self) -> (Time, u64) {
        (self.at, self.seq)
    }
}

/// Overflow-heap entry ordered by `(at, seq)` only (the payload does not
/// participate in comparisons; `seq` is unique, so equality is well defined).
#[derive(Debug)]
struct OverflowEntry<T>(Entry<T>);

impl<T> PartialEq for OverflowEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.key() == other.0.key()
    }
}
impl<T> Eq for OverflowEntry<T> {}
impl<T> PartialOrd for OverflowEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for OverflowEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.key().cmp(&other.0.key())
    }
}

/// A monotone calendar queue: `(Time, seq, payload)` triples pop in
/// `(at, seq)` order under the monotone-push precondition documented above.
#[derive(Debug)]
pub struct CalendarQueue<T> {
    /// Fixed wheel of buckets, each a FIFO list threaded through `nodes`; an
    /// event whose absolute bucket number is `b` lives in slot
    /// `b & BUCKET_MASK`.  Invariant: every wheel event has bucket number in
    /// `[cursor, cursor + NUM_BUCKETS)`, so slots map one-to-one onto live
    /// bucket numbers.  The list of the bucket numbered `sorted` is empty:
    /// its events are in `current`.
    buckets: Vec<Lane>,
    /// The links of every bucket list, with a free list: its high-water mark
    /// is the peak number of events waiting in future buckets at once.
    nodes: LanePool<T>,
    /// The events of bucket `sorted`, in descending `(at, seq)` order so the
    /// minimum is the last element.  `push` keeps that order; the buffer is
    /// reused for every bucket that becomes current.
    current: Vec<Entry<T>>,
    /// Absolute number of the current bucket: the one `pop` last moved into
    /// `current`.
    sorted: u64,
    /// Absolute bucket number of the last popped event (the wheel's lower
    /// edge).  Pushes beyond `cursor + NUM_BUCKETS` spill to `overflow`.
    cursor: u64,
    /// Lowest bucket number that may hold a wheel event — a scan hint that
    /// makes successive pops skip the empty region below the next cluster
    /// without rescanning it from `cursor` every time.
    hint: u64,
    wheel_len: usize,
    /// Far-future events, min-ordered by `(at, seq)`.  Events are *not*
    /// migrated back into the wheel as the cursor advances; `pop` simply
    /// compares the wheel minimum against the overflow minimum, which is
    /// cheap because the overflow population is tiny (timers, not traffic).
    overflow: BinaryHeap<Reverse<OverflowEntry<T>>>,
}

impl<T: Copy> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy> CalendarQueue<T> {
    /// An empty queue with the cursor at time zero.
    pub fn new() -> Self {
        CalendarQueue {
            buckets: vec![Lane::default(); NUM_BUCKETS],
            nodes: LanePool::new(),
            current: Vec::new(),
            // Bucket 0 is empty, hence sorted.
            sorted: 0,
            cursor: 0,
            hint: 0,
            wheel_len: 0,
            overflow: BinaryHeap::new(),
        }
    }

    /// Total number of pending events.
    pub fn len(&self) -> usize {
        self.wheel_len + self.overflow.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bucket-list links allocated so far: the peak number of events that
    /// waited in future buckets at once.
    #[cfg(test)]
    pub(crate) fn high_water(&self) -> usize {
        self.nodes.high_water()
    }

    /// Insert an event.  `seq` must be unique and increasing across pushes
    /// (the engine's insertion counter); `at` must be no older than the last
    /// popped timestamp.
    pub fn push(&mut self, at: Time, seq: u64, item: T) {
        debug_assert!(bucket_no(at) >= self.cursor, "push into the popped past");
        // Clamp pathological pasts into the cursor bucket (see module docs);
        // the engine never triggers this because `schedule` clamps to `now`.
        let b = bucket_no(at).max(self.cursor);
        if b >= self.cursor + NUM_BUCKETS as u64 {
            self.overflow
                .push(Reverse(OverflowEntry(Entry { at, seq, item })));
            return;
        }
        if b == self.sorted {
            // Most pushes into the current bucket land a few entries above
            // its minimum, so walk from that end.
            let current = &mut self.current;
            let mut pos = current.len();
            while pos > 0 && current[pos - 1].key() < (at, seq) {
                pos -= 1;
            }
            current.insert(pos, Entry { at, seq, item });
        } else {
            let lane = &mut self.buckets[(b & BUCKET_MASK) as usize];
            self.nodes.append(lane, at, seq, item);
        }
        self.wheel_len += 1;
        if b < self.hint {
            self.hint = b;
        }
    }

    /// Remove and return the earliest event by `(at, seq)`.
    pub fn pop(&mut self) -> Option<(Time, u64, T)> {
        if self.wheel_len == 0 {
            return self.pop_overflow();
        }
        // Find the first non-empty bucket at or above the hint.  Bounded by
        // NUM_BUCKETS because the wheel is non-empty and every wheel event
        // lies within the horizon.
        let mut b = self.hint.max(self.cursor);
        while self.bucket_is_empty(b) {
            b += 1;
        }
        self.hint = b;
        if b != self.sorted {
            self.make_current(b);
        }
        // The overflow minimum can precede the wheel minimum only while the
        // wheel's next cluster sits beyond a long-dormant timer.
        if let (Some(Reverse(top)), Some(min)) = (self.overflow.peek(), self.current.last()) {
            if top.0.key() < min.key() {
                return self.pop_overflow();
            }
        }
        let entry = self.current.pop()?;
        self.wheel_len -= 1;
        self.cursor = b;
        Some((entry.at, entry.seq, entry.item))
    }

    /// True when bucket `b` holds no event: in `current` if it is the
    /// current bucket, in its list otherwise.
    #[inline]
    fn bucket_is_empty(&self, b: u64) -> bool {
        if b == self.sorted {
            self.current.is_empty()
        } else {
            self.buckets[(b & BUCKET_MASK) as usize].is_empty()
        }
    }

    /// Move bucket `b`'s list into `current` and sort it.  What is left of
    /// the previous current bucket goes back to its list first: an overflow
    /// pop can move the cursor below a half-drained current bucket, and a
    /// push can then make an earlier bucket the next one to drain.
    fn make_current(&mut self, b: u64) {
        let (nodes, current) = (&mut self.nodes, &mut self.current);
        let old = &mut self.buckets[(self.sorted & BUCKET_MASK) as usize];
        for e in current.drain(..) {
            nodes.append(old, e.at, e.seq, e.item);
        }
        let lane = &mut self.buckets[(b & BUCKET_MASK) as usize];
        nodes.drain(lane, |at, seq, item| current.push(Entry { at, seq, item }));
        // `(at, seq)` is unique, so an unstable sort is deterministic.
        current.sort_unstable_by_key(|e| Reverse(e.key()));
        self.sorted = b;
    }

    fn pop_overflow(&mut self) -> Option<(Time, u64, T)> {
        let Reverse(OverflowEntry(entry)) = self.overflow.pop()?;
        let b = bucket_no(entry.at);
        // Advancing the cursor past wheel events is impossible here: every
        // wheel event's (at, seq) exceeded the overflow minimum, so its
        // bucket number is >= b.
        self.cursor = self.cursor.max(b);
        if self.hint < self.cursor {
            self.hint = self.cursor;
        }
        Some((entry.at, entry.seq, entry.item))
    }
}

/// End-of-list marker for [`Lane`] and [`LanePool`] links.
const NIL: u32 = u32::MAX;

/// One fixed-delay wire — a flow's data or ACK direction, or the wire into
/// one hop — as a FIFO whose links live in a [`LanePool`].
///
/// Items enter a lane at non-decreasing times and all wait the lane's one
/// delay, so `(at, seq)` strictly increases from head to tail.  Only the head
/// can be the lane's next event, so only the head waits in the
/// [`CalendarQueue`]; its successor goes in when it is popped, with its
/// original `(at, seq)`, and the merged order is the order of one queue
/// holding every item.
#[derive(Debug, Clone, Copy)]
pub struct Lane {
    head: u32,
    tail: u32,
}

impl Default for Lane {
    fn default() -> Self {
        Lane {
            head: NIL,
            tail: NIL,
        }
    }
}

impl Lane {
    /// True when nothing is waiting on the lane.
    pub fn is_empty(&self) -> bool {
        self.head == NIL
    }
}

#[derive(Debug, Clone, Copy)]
struct Node<T> {
    at: Time,
    seq: u64,
    next: u32,
    item: T,
}

/// The links of every [`Lane`] that carries one payload type, with a free
/// list.  A popped link is reused before the pool grows, so the pool's
/// length — its high-water mark — is the peak number of items its lanes held
/// at once, however many lanes came and went.
#[derive(Debug)]
pub struct LanePool<T> {
    nodes: Vec<Node<T>>,
    /// Head of the free list, threaded through `Node::next`.
    free: u32,
}

impl<T: Copy> Default for LanePool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy> LanePool<T> {
    /// An empty pool; it allocates on the first push.
    pub fn new() -> Self {
        LanePool {
            nodes: Vec::new(),
            free: NIL,
        }
    }

    /// Append `item`, due at `at` with insertion number `seq`, to `lane`.
    /// Returns true when the lane was empty: the item is its head, and the
    /// caller puts `(at, seq)` into the calendar.
    pub fn push(&mut self, lane: &mut Lane, at: Time, seq: u64, item: T) -> bool {
        debug_assert!(
            lane.tail == NIL || {
                let tail = &self.nodes[lane.tail as usize];
                (tail.at, tail.seq) < (at, seq)
            },
            "lane push earlier than the lane's tail"
        );
        self.append(lane, at, seq, item)
    }

    /// [`LanePool::push`] without the FIFO order: a calendar bucket's list
    /// holds its events in push order, whatever their `(at, seq)`.
    fn append(&mut self, lane: &mut Lane, at: Time, seq: u64, item: T) -> bool {
        let node = Node {
            at,
            seq,
            next: NIL,
            item,
        };
        let idx = if self.free == NIL {
            let idx = u32::try_from(self.nodes.len()).expect("lane pool overflow");
            assert!(idx != NIL, "lane pool overflow");
            self.nodes.push(node);
            idx
        } else {
            let idx = self.free;
            self.free = self.nodes[idx as usize].next;
            self.nodes[idx as usize] = node;
            idx
        };
        if lane.tail == NIL {
            lane.head = idx;
            lane.tail = idx;
            return true;
        }
        self.nodes[lane.tail as usize].next = idx;
        lane.tail = idx;
        false
    }

    /// Empty `lane`, handing each item with its `(at, seq)` to `f` from head
    /// to tail.
    fn drain(&mut self, lane: &mut Lane, mut f: impl FnMut(Time, u64, T)) {
        let mut idx = lane.head;
        while idx != NIL {
            let node = &mut self.nodes[idx as usize];
            f(node.at, node.seq, node.item);
            let next = node.next;
            node.next = self.free;
            self.free = idx;
            idx = next;
        }
        *lane = Lane::default();
    }

    /// Remove `lane`'s head and return its item, with the `(at, seq)` of the
    /// new head for the caller to put into the calendar, if there is one.
    /// Panics on an empty lane: its head event was dispatched twice.
    pub fn pop(&mut self, lane: &mut Lane) -> (T, Option<(Time, u64)>) {
        assert!(!lane.is_empty(), "pop from an empty lane");
        let idx = lane.head;
        let node = &mut self.nodes[idx as usize];
        let (item, next) = (node.item, node.next);
        node.next = self.free;
        self.free = idx;
        lane.head = next;
        if next == NIL {
            lane.tail = NIL;
            return (item, None);
        }
        let head = &self.nodes[next as usize];
        (item, Some((head.at, head.seq)))
    }

    /// Links allocated so far: the peak number of items the pool's lanes
    /// held at once.
    pub fn high_water(&self) -> usize {
        self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference implementation: the BinaryHeap the calendar queue replaced.
    struct HeapQueue<T> {
        heap: BinaryHeap<Reverse<OverflowEntry<T>>>,
    }

    impl<T> HeapQueue<T> {
        fn new() -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
            }
        }
        fn push(&mut self, at: Time, seq: u64, item: T) {
            self.heap
                .push(Reverse(OverflowEntry(Entry { at, seq, item })));
        }
        fn pop(&mut self) -> Option<(Time, u64, T)> {
            self.heap
                .pop()
                .map(|Reverse(OverflowEntry(e))| (e.at, e.seq, e.item))
        }
    }

    #[test]
    fn pops_in_time_then_insertion_order() {
        let mut q = CalendarQueue::new();
        q.push(Time(100), 1, "a");
        q.push(Time(50), 2, "b");
        q.push(Time(100), 3, "c");
        q.push(Time(50), 4, "d");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|(_, _, i)| i).collect();
        assert_eq!(order, ["b", "d", "a", "c"]);
    }

    #[test]
    fn far_future_events_round_trip_through_overflow() {
        let mut q = CalendarQueue::new();
        let horizon = (NUM_BUCKETS as u64) << BUCKET_SHIFT;
        q.push(Time(horizon * 10), 1, "far");
        q.push(Time(5), 2, "near");
        q.push(Time(horizon * 3), 3, "mid");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().map(|(_, _, i)| i), Some("near"));
        // After the cursor jumps to the overflow event, pushes near it land
        // in the wheel again.
        assert_eq!(q.pop().map(|(_, _, i)| i), Some("mid"));
        q.push(Time(horizon * 3 + 7), 4, "after-mid");
        assert_eq!(q.pop().map(|(_, _, i)| i), Some("after-mid"));
        assert_eq!(q.pop().map(|(_, _, i)| i), Some("far"));
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn an_overflow_timer_due_before_the_current_bucket_sends_it_back_to_its_list() {
        let width = 1u64 << BUCKET_SHIFT;
        let horizon = (NUM_BUCKETS as u64) << BUCKET_SHIFT;
        let mut cal = CalendarQueue::new();
        let mut heap = HeapQueue::new();
        let mut seq = 0;
        let mut push = |cal: &mut CalendarQueue<u64>, heap: &mut HeapQueue<u64>, at: u64| {
            seq += 1;
            cal.push(Time(at), seq, seq);
            heap.push(Time(at), seq, seq);
        };
        let pop = |cal: &mut CalendarQueue<u64>, heap: &mut HeapQueue<u64>| {
            let got = cal.pop();
            assert_eq!(got, heap.pop());
            got.map(|(at, _, _)| at.0)
        };
        // A timer one horizon out waits in the overflow heap.
        let timer = horizon + 10 * width;
        push(&mut cal, &mut heap, timer);
        push(&mut cal, &mut heap, 20 * width);
        assert_eq!(pop(&mut cal, &mut heap), Some(20 * width));
        // Three events in a bucket beyond the timer's, inside the wheel now.
        let late = horizon + 15 * width;
        for at in [late + 3, late + 1, late + 2] {
            push(&mut cal, &mut heap, at);
        }
        // This pop makes their bucket current, then finds the timer earlier:
        // the cursor drops below the current bucket.
        assert_eq!(pop(&mut cal, &mut heap), Some(timer));
        // Pushes land between the timer and the current bucket, and one in
        // the current bucket itself.
        for at in [timer + 2 * width, timer + width, late] {
            push(&mut cal, &mut heap, at);
        }
        assert_eq!(pop(&mut cal, &mut heap), Some(timer + width));
        // Another push into the bucket that was current, now a list again.
        push(&mut cal, &mut heap, late + 4);
        let rest: Vec<_> = std::iter::from_fn(|| pop(&mut cal, &mut heap)).collect();
        assert_eq!(
            rest,
            [
                timer + 2 * width,
                late,
                late + 1,
                late + 2,
                late + 3,
                late + 4
            ]
        );
        assert!(cal.is_empty());
    }

    /// A deterministic LCG drives an interleaved push/pop schedule whose
    /// pushed timestamps are always >= the last popped timestamp — the
    /// engine's contract.  Both queues must pop identical sequences.
    /// `jitter(r, draw)` places a push relative to `now`; a push happens
    /// while fewer than `live_cap` events are pending and on 60 % of draws.
    fn lcg_schedule_matches_heap(
        seed: u64,
        steps: usize,
        live_cap: usize,
        jitter: impl Fn(u64, &mut dyn FnMut() -> u64) -> u64,
    ) -> (usize, u64) {
        let mut lcg = seed;
        let mut next = move || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            lcg >> 33
        };
        let mut cal = CalendarQueue::new();
        let mut heap = HeapQueue::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        let mut pops = 0;
        for step in 0..steps {
            let r = next();
            if r % 100 < 60 && cal.len() < live_cap {
                let at = Time(now + jitter(r, &mut next));
                seq += 1;
                cal.push(at, seq, seq);
                heap.push(at, seq, seq);
            } else {
                let (a, b) = (cal.pop(), heap.pop());
                assert_eq!(a, b, "seed {seed:#x} step {step}");
                if let Some((at, _, _)) = a {
                    now = at.0;
                    pops += 1;
                }
            }
        }
        while let Some(x) = cal.pop() {
            assert_eq!(Some(x), heap.pop(), "seed {seed:#x} drain");
            pops += 1;
        }
        assert!(heap.pop().is_none());
        (pops, bucket_no(Time(now)))
    }

    #[test]
    fn interleaved_monotone_pushes_match_heap_reference() {
        let mostly_near = |r: u64, next: &mut dyn FnMut() -> u64| {
            let jitter = match r % 10 {
                0 => next() % (1 << 30),     // ~1 s out: overflow
                1..=2 => next() % (1 << 24), // ~16 ms out
                _ => next() % (1 << 19),     // within a couple of buckets
            };
            // Exercise same-timestamp ties frequently.
            (jitter / 7) * 7
        };
        let (pops, _) =
            lcg_schedule_matches_heap(0x1234_5678_9abc_def0, 20_000, usize::MAX, mostly_near);
        assert!(pops > 1000, "schedule exercised too few pops");
    }

    #[test]
    fn dense_buckets_match_heap_reference_across_a_wheel_wrap() {
        // ~200 events pending within two buckets of `now`, so every pop comes
        // out of a bucket holding 64–256 and most pushes land in the bucket
        // being drained — a tenth of them at the last popped timestamp, the
        // rest anywhere in it, so below entries already sorted there.  One
        // push in 4000 is an RTO-scale timer: it waits in the overflow heap
        // (~50 of them at any time) and comes due in the middle of the
        // dense cluster.
        let horizon = (NUM_BUCKETS as u64) << BUCKET_SHIFT;
        let dense = |r: u64, next: &mut dyn FnMut() -> u64| match r % 4000 {
            0 => horizon + next() % (1 << 21),
            1..=400 => 0,
            _ => (next() % (1 << 19)) / 512 * 512,
        };
        let (pops, buckets) = lcg_schedule_matches_heap(0x0f1e_2d3c_4b5a_6978, 600_000, 250, dense);
        assert!(buckets > NUM_BUCKETS as u64 + 100, "no wrap: {buckets}");
        let per_bucket = pops as u64 / buckets;
        assert!((64..=256).contains(&per_bucket), "{per_bucket} per bucket");
    }
}
