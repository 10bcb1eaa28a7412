//! The sender's per-packet path — `on_ack`, the `poll_send`s it releases,
//! and the 10 ms `on_tick` that draws a CCP report — runs once per packet of
//! every flow in a simulation, so once a flow is warmed up it must not
//! allocate: no window `Vec` per report, no rebuilt scoreboard per ACK.

use nimbus_netsim::{AckInfo, FlowEndpoint, SendAction, Time};
use nimbus_transport::{
    BackloggedSource, CcKind, PathInfo, ReportAggregator, Sender, SenderConfig,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::{BTreeSet, VecDeque};

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

/// Allocations made while `f` runs.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

const RTT: Time = Time::from_millis(50);
/// One 1500 B segment at 96 Mbit/s.
const SERVICE: Time = Time::from_micros(125);
/// The one segment the path loses, while the sender is still in slow start.
const LOST_SEQ: u64 = 400;

/// What the engine does for one flow, without the engine: a FIFO that
/// delivers one segment per `SERVICE` no earlier than `RTT` after it was
/// sent, a cumulative-ACK receiver, and the 10 ms report tick.
struct Path {
    sender: Sender,
    now: Time,
    in_flight: VecDeque<(u64, Time, bool)>,
    next_expected: u64,
    out_of_order: BTreeSet<u64>,
    /// Allocations made inside the sender's callbacks.
    allocations: u64,
    acks: u64,
}

impl Path {
    fn poll(&mut self) {
        loop {
            let mut action = SendAction::Idle;
            self.allocations += allocations_in(|| action = self.sender.poll_send(self.now));
            let SendAction::Transmit {
                seq, retransmit, ..
            } = action
            else {
                break;
            };
            self.in_flight.push_back((seq, self.now, retransmit));
        }
    }

    /// One service interval: deliver the segment at the head of the path, if
    /// it has been in flight for an RTT, and ACK it.
    fn step(&mut self) {
        self.now += SERVICE;
        if self.now.0.is_multiple_of(Time::from_millis(10).0) {
            self.allocations += allocations_in(|| self.sender.on_tick(self.now));
            self.poll();
        }
        let Some(&(seq, sent_at, retransmit)) = self.in_flight.front() else {
            return;
        };
        if sent_at + RTT > self.now {
            return;
        }
        self.in_flight.pop_front();
        if seq == LOST_SEQ && !retransmit {
            return;
        }
        let mut newly_delivered = 0;
        if seq >= self.next_expected {
            self.out_of_order.insert(seq);
        }
        while self.out_of_order.remove(&self.next_expected) {
            self.next_expected += 1;
            newly_delivered += 1500;
        }
        let ack = AckInfo {
            now: self.now,
            cum_ack: self.next_expected,
            triggering_seq: seq,
            triggering_bytes: 1500,
            data_sent_at: sent_at,
            rtt_sample: self.now.saturating_sub(sent_at),
            is_duplicate: newly_delivered == 0,
            newly_delivered_bytes: newly_delivered,
            total_delivered_bytes: self.next_expected * 1500,
            ce: false,
        };
        self.allocations += allocations_in(|| self.sender.on_ack(&ack));
        self.acks += 1;
        self.poll();
    }
}

#[test]
fn warmed_up_ack_poll_tick_cycle_does_not_allocate() {
    let sender = Sender::new(
        SenderConfig::labelled("cubic"),
        CcKind::Cubic.build(&PathInfo::new(1500)),
        Box::new(BackloggedSource),
    );
    let mut path = Path {
        sender,
        now: Time::ZERO,
        in_flight: VecDeque::new(),
        next_expected: 0,
        out_of_order: BTreeSet::new(),
        allocations: 0,
        acks: 0,
    };
    path.sender.on_start(path.now);
    path.poll();
    // Warm-up: slow start, the loss, fast retransmit and recovery, then
    // congestion avoidance long enough for the report window to fill.
    while path.now < Time::from_millis(3000) {
        path.step();
    }
    assert_eq!(path.sender.fast_retransmits(), 1, "warm-up must recover");
    assert!(path.next_expected > LOST_SEQ);

    path.allocations = 0;
    path.acks = 0;
    while path.now < Time::from_millis(5000) {
        path.step();
    }
    assert!(path.acks > 10_000, "only {} cycles measured", path.acks);
    assert_eq!(path.sender.fast_retransmits(), 1);
    assert_eq!(
        path.allocations, 0,
        "allocations in {} ack/poll/tick cycles",
        path.acks
    );
}

#[test]
fn drawing_a_report_never_allocates() {
    let mut reports = ReportAggregator::new(RTT);
    let mut now = Time::ZERO;
    for tick in 0..200 {
        for _ in 0..80 {
            now += SERVICE;
            reports.on_ack(now.saturating_sub(RTT), now, 1500, RTT);
        }
        let mut window_acks = 0;
        let allocations = allocations_in(|| window_acks = reports.report(now).window_acks);
        assert_eq!(allocations, 0, "report {tick}");
        assert!(window_acks >= 80, "report {tick} saw {window_acks} ACKs");
    }
}
