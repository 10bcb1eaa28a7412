//! The sender's per-packet path — `on_ack`, the `poll_send`s it releases,
//! and the 10 ms `on_tick` that draws a CCP report — runs once per packet of
//! every flow in a simulation, so once a flow is warmed up it must not
//! allocate: no window `Vec` per report, no rebuilt scoreboard per ACK.
//! Loss recovery allocates only to grow a flow's scoreboard to its deepest
//! episode so far, so a warmed-up flow recovers from a loss allocation-free.
//! A fleet run spawns thousands of short flows that never warm up, so a
//! whole flow lifetime and the spawn itself are held to a budget too.

use nimbus_core::cc::{AckEvent, CongestionEvent, LossEvent};
use nimbus_netsim::{AckInfo, FlowEndpoint, FlowSpawner, SendAction, Time};
use nimbus_traffic::{FleetSpawner, FleetWorkloadConfig};
use nimbus_transport::{
    BackloggedSource, CcKind, CongestionControl, FixedSizeSource, PathInfo, Report,
    ReportAggregator, Sender, SenderConfig, Source,
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
/// The segment whose first transmission the path loses, while the sender is
/// still in slow start.
const LOST_SEQ: u64 = 400;

/// What the engine does for one flow, without the engine: a FIFO that
/// delivers one segment per `SERVICE` no earlier than `RTT` after it was
/// sent, a cumulative-ACK receiver, and the 10 ms report tick.
struct Path {
    sender: Box<dyn FlowEndpoint>,
    now: Time,
    in_flight: VecDeque<(u64, Time, bool)>,
    /// The segments whose first transmissions the path drops.
    lost: Vec<u64>,
    next_expected: u64,
    out_of_order: BTreeSet<u64>,
    /// Allocations made inside the sender's callbacks, except those of
    /// the loss episode.
    allocations: u64,
    /// Allocations made inside `on_ack` — and the polls it releases — for
    /// the ACKs of the loss episode: from the first ACK that finds a hole
    /// at the receiver to the one whose segment fills it.  The SACK
    /// scoreboard and the retransmission queue grow from empty there.
    episode_allocations: u64,
    episode_acks: u64,
    acks: u64,
    /// The sender answered `SendAction::Finished`.
    finished: bool,
}

impl Path {
    /// A fresh path in front of `sender`, before `on_start`.
    fn new(sender: Box<dyn FlowEndpoint>, lost: &[u64]) -> Self {
        Path {
            sender,
            now: Time::ZERO,
            in_flight: VecDeque::new(),
            lost: lost.to_vec(),
            next_expected: 0,
            out_of_order: BTreeSet::new(),
            allocations: 0,
            episode_allocations: 0,
            episode_acks: 0,
            acks: 0,
            finished: false,
        }
    }

    /// The transport sender behind the endpoint.
    fn sender(&self) -> &Sender {
        self.sender
            .as_any()
            .and_then(|any| any.downcast_ref())
            .expect("a transport sender")
    }

    fn start(&mut self) {
        self.allocations += allocations_in(|| self.sender.on_start(self.now));
        self.poll();
    }

    fn poll(&mut self) {
        loop {
            let mut action = SendAction::Idle;
            self.allocations += allocations_in(|| action = self.sender.poll_send(self.now));
            match action {
                SendAction::Transmit {
                    seq, retransmit, ..
                } => self.in_flight.push_back((seq, self.now, retransmit)),
                SendAction::Finished => {
                    self.finished = true;
                    break;
                }
                SendAction::WaitUntil(_) | SendAction::Idle => break,
            }
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
        if !retransmit && self.lost.contains(&seq) {
            return;
        }
        let hole_before = !self.out_of_order.is_empty();
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
            newly_delivered_bytes: newly_delivered,
            ce: false,
        };
        let outside = self.allocations;
        self.allocations += allocations_in(|| self.sender.on_ack(&ack));
        self.acks += 1;
        self.poll();
        if hole_before || !self.out_of_order.is_empty() {
            self.episode_allocations += self.allocations - outside;
            self.episode_acks += 1;
            self.allocations = outside;
        }
    }
}

/// A controller behind a wrapper that keeps the default
/// [`CongestionControl::reads_reports`], so the sender records every ACK
/// and draws a report per tick for it, as it does for Nimbus.
struct ReadsReports(Box<dyn CongestionControl>);

impl CongestionControl for ReadsReports {
    fn on_packet_acked(&mut self, ack: &AckEvent) {
        self.0.on_packet_acked(ack);
    }
    fn on_packets_lost(&mut self, loss: &LossEvent) {
        self.0.on_packets_lost(loss);
    }
    fn on_congestion_event(&mut self, event: &CongestionEvent) {
        self.0.on_congestion_event(event);
    }
    fn on_report(&mut self, report: &Report) {
        self.0.on_report(report);
    }
    fn cwnd_packets(&self) -> f64 {
        self.0.cwnd_packets()
    }
    fn pacing_rate_bps(&self, now: Time) -> Option<f64> {
        self.0.pacing_rate_bps(now)
    }
    fn name(&self) -> &'static str {
        self.0.name()
    }
}

/// A Cubic sender over `source`; `reads_reports` wraps the controller in
/// [`ReadsReports`].
fn cubic(reads_reports: bool, source: Box<dyn Source>) -> Box<dyn FlowEndpoint> {
    let mut cc = CcKind::Cubic.build(&PathInfo::new(1500));
    if reads_reports {
        cc = Box::new(ReadsReports(cc));
    }
    Box::new(Sender::new(SenderConfig::labelled("cubic"), cc, source))
}

/// Allocations the first loss episode of a flow may make: the scoreboard,
/// the retransmission marks and the retransmission queue each grow from
/// empty, a few doublings at most.  Nothing per ACK.
const FIRST_EPISODE_ALLOCATIONS: u64 = 16;

#[test]
fn warmed_up_ack_poll_tick_cycle_does_not_allocate() {
    // Plain Cubic keeps no report records; wrapped, the same Cubic runs the
    // CCP report path on every ACK and tick.
    for reads_reports in [false, true] {
        let mut path = Path::new(
            cubic(reads_reports, Box::new(BackloggedSource)),
            &[LOST_SEQ],
        );
        path.start();
        // Warm-up: slow start, the loss, fast retransmit and recovery, then
        // congestion avoidance long enough for the report window to fill.
        while path.now < Time::from_millis(3000) {
            path.step();
        }
        assert_eq!(path.sender().fast_retransmits(), 1, "warm-up must recover");
        assert!(path.next_expected > LOST_SEQ);

        path.allocations = 0;
        path.acks = 0;
        while path.now < Time::from_millis(5000) {
            path.step();
        }
        assert!(path.acks > 10_000, "only {} cycles measured", path.acks);
        assert_eq!(path.sender().fast_retransmits(), 1);
        assert_eq!(
            path.allocations, 0,
            "allocations in {} ack/poll/tick cycles (reads reports: {reads_reports})",
            path.acks
        );
    }
}

#[test]
fn a_warmed_up_sender_recovers_a_second_loss_without_allocating() {
    // The first episode, in slow start, grows the scoreboard; the second,
    // seconds later in congestion avoidance, must fit in what it left.
    const SECOND_LOST_SEQ: u64 = 30_000;
    for reads_reports in [false, true] {
        let mut path = Path::new(
            cubic(reads_reports, Box::new(BackloggedSource)),
            &[LOST_SEQ, SECOND_LOST_SEQ],
        );
        path.start();
        while path.next_expected < SECOND_LOST_SEQ - 1000 {
            path.step();
        }
        assert_eq!(path.sender().fast_retransmits(), 1, "warm-up must recover");
        assert!(
            path.episode_allocations > 0,
            "the first episode grew nothing"
        );

        path.allocations = 0;
        path.episode_allocations = 0;
        path.episode_acks = 0;
        while path.next_expected < SECOND_LOST_SEQ + 10_000 {
            path.step();
        }
        assert_eq!(path.sender().fast_retransmits(), 2);
        assert_eq!(path.sender().timeouts(), 0);
        assert!(
            path.episode_acks > 100,
            "{} ACKs in the episode",
            path.episode_acks
        );
        assert_eq!(
            (path.episode_allocations, path.allocations),
            (0, 0),
            "allocations in and outside the second episode's {} ACKs (reads reports: \
             {reads_reports})",
            path.episode_acks
        );
    }
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

#[test]
fn a_short_cubic_flow_allocates_only_to_recover_its_loss() {
    // 3 MB through slow start to `Finished`: the whole life of a fleet
    // elephant, once loss-free and once with the segment at `LOST_SEQ`
    // dropped.  Nothing the flow measures per ACK may allocate (no report
    // records a Cubic never reads, no RTT filter regrowing while the queue
    // builds); the only allocations are the loss episode's scoreboard.
    const SIZE: u64 = 3_000_000;
    for lost in [&[][..], &[LOST_SEQ]] {
        let mut path = Path::new(cubic(false, Box::new(FixedSizeSource::new(SIZE))), lost);
        path.start();
        while !path.finished {
            assert!(path.now < Time::from_millis(10_000), "flow never finished");
            path.step();
        }
        assert_eq!(path.next_expected, SIZE / 1500);
        assert_eq!(path.sender().fast_retransmits(), lost.len() as u64);
        assert_eq!(path.sender().timeouts(), 0);
        assert_eq!(
            path.allocations,
            0,
            "allocations over {} ACKs outside the loss episode (lost: {lost:?})",
            path.acks - path.episode_acks
        );
        assert!(
            path.episode_allocations <= FIRST_EPISODE_ALLOCATIONS,
            "{} allocations over the loss episode's {} ACKs",
            path.episode_allocations,
            path.episode_acks
        );
        if lost.is_empty() {
            assert_eq!(path.episode_acks, 0);
        }
    }
}

#[test]
fn spawning_a_fleet_flow_costs_its_label_and_three_boxes() {
    let mut spawner = FleetSpawner::new(FleetWorkloadConfig::default_for_link(1e9, 0.5, 20.0));
    const FLOWS: u64 = 1000;
    let allocations = allocations_in(|| {
        for _ in 0..FLOWS {
            let flow = spawner.next_flow().expect("20 s of arrivals");
            std::hint::black_box(&flow);
        }
    });
    // The `format!`ed recorder label plus the boxed sender, controller and
    // source — and nothing copied.  Dropping the flows frees, never allocates.
    assert!(
        allocations <= 4 * FLOWS,
        "{allocations} allocations for {FLOWS} spawned flows"
    );
}

#[test]
fn a_fleet_flow_with_a_loss_allocates_its_spawn_and_one_episode() {
    // The fleet's whole cycle, flow by flow: spawn, run to `Finished` with
    // the middle segment's first transmission lost, retire.  A flow too
    // short for three duplicate ACKs recovers by timeout instead.
    let mut spawner = FleetSpawner::new(FleetWorkloadConfig::default_for_link(1e9, 0.5, 20.0));
    const FLOWS: u64 = 100;
    let (mut spawn, mut life, mut recovered) = (0, 0, 0);
    for _ in 0..FLOWS {
        let mut flow = None;
        spawn += allocations_in(|| flow = spawner.next_flow());
        let (_, cfg, endpoint) = flow.expect("20 s of arrivals");
        let segments = cfg.size_bytes.expect("a sized flow").div_ceil(1500);
        let mut path = Path::new(endpoint, &[segments / 2]);
        path.start();
        while !path.finished {
            assert!(path.now < Time::from_millis(60_000), "flow never finished");
            path.step();
        }
        assert_eq!(path.next_expected, segments);
        let sender = path.sender();
        recovered += sender.fast_retransmits() + sender.timeouts();
        life += path.allocations + path.episode_allocations;
        life += allocations_in(|| drop(path.sender));
    }
    assert!(
        recovered >= FLOWS,
        "only {recovered} recoveries in {FLOWS} flows"
    );
    assert!(spawn <= 4 * FLOWS, "{spawn} allocations for {FLOWS} spawns");
    // Most fleet flows are mice, whose episode spans a handful of slots:
    // each window grows once or twice.
    assert!(
        life <= 6 * FLOWS,
        "{life} allocations over the lives of {FLOWS} flows with a loss each"
    );
}
