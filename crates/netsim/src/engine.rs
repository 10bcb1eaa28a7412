//! The discrete-event engine: a dumbbell network whose forward direction is a
//! **path** — an ordered chain of links, each with its own rate schedule,
//! queue policy and buffer, random loss and propagation delay.
//!
//! A single-hop path is exactly the network model of Fig. 2 in the paper: any
//! number of senders share one bottleneck link of rate `µ` fronted by a
//! queue; receivers acknowledge every data packet; the ACK path is
//! uncongested.  Per-flow propagation delay is split evenly between the data
//! direction (after the flow's last hop → receiver) and the ACK direction
//! (receiver → sender), so a flow's base RTT equals its configured
//! propagation RTT plus per-hop propagation plus serialization.
//!
//! Multi-hop paths generalize this: packets traverse the hops in order, each
//! hop serializing independently at its own (possibly time-varying) rate, so
//! a *secondary* bottleneck — fixed or moving as the schedules shift — and
//! cross traffic entering or exiting at interior hops are both expressible.
//! Flows declare the span of hops they traverse (`entry_hop ..= exit_hop`);
//! the default span is the whole path.
//!
//! Event types:
//!
//! * `FlowStart` — activate a flow at its configured start time.
//! * `PollSend`  — ask a flow's endpoint for its next action (pacing timers,
//!   retransmission timers and post-ACK transmission opportunities all funnel
//!   through this one event).
//! * `LinkDone`  — a hop finished serializing a packet; forward it to the
//!   next hop (or its receiver) and start on the next one.
//! * `HopArrival` — a data packet propagated to an interior hop's queue.
//! * `ReceiverArrival` — a data packet reached its receiver; generate an ACK.
//! * `AckArrival` — an ACK reached the sender; inform the endpoint, poll it.
//! * `RateChange` — one hop's rate schedule µᵢ(t) reached a transition;
//!   re-plan the in-flight packet's serialization and re-size delay-specified
//!   buffers on that hop.
//! * `Tick` — the global 10 ms measurement tick (CCP reporting cadence).
//! * `Sample` — the recorder's sampling interval elapsed.

use crate::endpoint::{AckInfo, FlowEndpoint, SendAction};
use crate::eventq::{CalendarQueue, Lane, LanePool};
use crate::packet::{AckPacket, EcnCodepoint, FlowId, Packet};
use crate::queue::{
    delay_capacity_bytes, CoDelQueue, DropTailQueue, EcnMarking, EnqueueResult, PieQueue,
    QueueDiscipline, RedQueue,
};
use crate::recorder::{Recorder, RecorderConfig};
use crate::schedule::RateSchedule;
use crate::seq_window::SeqWindow;
use nimbus_core_types::{Time, REPORT_INTERVAL};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which queue policy a hop uses (see [`crate::queue`]).
#[derive(Debug, Clone)]
pub enum QueueKind {
    /// Drop-tail.
    DropTail,
    /// PIE AQM with the given target delay.
    Pie {
        /// Target queueing delay in seconds.
        target_delay_s: f64,
    },
    /// RED.
    Red,
    /// CoDel with the RFC 8289 target and interval.
    CoDel,
}

/// Configuration of one link (hop) on the forward path.
#[derive(Debug, Clone)]
pub struct LinkConfig {
    /// Link rate µ(t) in bits per second — constant or time-varying.
    pub schedule: RateSchedule,
    /// Queue policy in front of the link.
    pub queue: QueueKind,
    /// Physical buffer in seconds of line rate ("100 ms of buffering" in the
    /// paper's experiment descriptions): re-sized whenever the rate changes,
    /// so it keeps meaning that many seconds.
    pub buffer_s: f64,
    /// Non-congestive loss: each packet offered to the hop is dropped
    /// independently with this probability before it reaches the queue (the
    /// lossy paths of Fig. 18c, §8.4); 0 for none.
    pub loss: f64,
    /// ECN marking profile of the queue: [`EcnMarking::None`] keeps the pure
    /// drop behaviour; `Classic` / `Step` convert the discipline's congestion
    /// signal into CE marks for ECT packets (drops for everything else).
    pub ecn: EcnMarking,
    /// Propagation delay from the *previous* hop's output into this link's
    /// queue.  Ignored on the first hop a flow traverses (senders inject
    /// directly); after a flow's last hop the packet instead travels the
    /// data half of the flow's configured propagation RTT to its receiver.
    pub prop_delay: Time,
}

impl LinkConfig {
    /// A plain drop-tail bottleneck: `rate_bps` with `buffer_s` seconds of buffering.
    pub fn drop_tail(rate_bps: f64, buffer_s: f64) -> Self {
        LinkConfig {
            schedule: RateSchedule::constant(rate_bps),
            queue: QueueKind::DropTail,
            buffer_s,
            loss: 0.0,
            ecn: EcnMarking::None,
            prop_delay: Time::ZERO,
        }
    }

    /// Replace the (constant) rate with an arbitrary schedule.
    pub fn with_schedule(mut self, schedule: RateSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Set the inbound propagation delay (from the previous hop's output).
    pub fn with_prop_delay(mut self, delay: Time) -> Self {
        self.prop_delay = delay;
        self
    }

    /// Enable an ECN marking profile on this hop's queue.
    pub fn with_ecn(mut self, ecn: EcnMarking) -> Self {
        self.ecn = ecn;
        self
    }

    /// The link rate at simulation start, bits/s.
    pub fn initial_rate_bps(&self) -> f64 {
        self.schedule.initial_rate_bps()
    }
}

/// Whole-simulation configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The forward path: an ordered, non-empty chain of links.  `path[0]` is
    /// the hop adjacent to the senders, the last hop hands packets to their
    /// receivers.  A one-element path is the paper's dumbbell.
    pub path: Vec<LinkConfig>,
    /// How long to simulate.
    pub duration: Time,
    /// Recorder configuration.
    pub recorder: RecorderConfig,
    /// Master seed for the engine's stochastic components (random loss and
    /// the AQMs' draws).
    pub seed: u64,
}

impl SimConfig {
    /// A convenient default: a single-hop path of the given link rate (bps),
    /// buffer (seconds of line rate) and run duration in seconds.
    pub fn new(rate_bps: f64, buffer_s: f64, duration_s: f64) -> Self {
        SimConfig {
            path: vec![LinkConfig::drop_tail(rate_bps, buffer_s)],
            duration: Time::from_secs_f64(duration_s),
            recorder: RecorderConfig::default(),
            seed: 1,
        }
    }

    /// Append another hop to the forward path (builder style).
    pub fn with_hop(mut self, link: LinkConfig) -> Self {
        self.path.push(link);
        self
    }

    /// The first hop — the classic "the bottleneck" accessor for single-hop
    /// configurations.
    pub fn link_mut(&mut self) -> &mut LinkConfig {
        &mut self.path[0]
    }
}

/// Per-flow configuration.
#[derive(Debug, Clone)]
pub struct FlowConfig {
    /// Human-readable label for results.
    pub label: String,
    /// Propagation RTT of the flow (excluding queueing and serialization).
    pub prop_rtt: Time,
    /// When the flow starts.
    pub start: Time,
    /// For the experiment ground truth: is this cross-traffic flow elastic?
    /// `None` marks the monitored (primary) flows, which are not cross
    /// traffic; the recorder keeps full time series for those and only
    /// those.
    pub counts_as_elastic: Option<bool>,
    /// Flow size in bytes, if finite (used for FCT bookkeeping only; the
    /// endpoint itself decides when it is `Finished`).
    pub size_bytes: Option<u64>,
    /// First path hop this flow's packets traverse (0 = the full path).
    /// Cross traffic that merges in mid-path enters at a later hop.
    pub entry_hop: usize,
    /// Last path hop this flow traverses, inclusive (`None` = the path's
    /// final hop).  Cross traffic that exits mid-path leaves earlier.
    pub exit_hop: Option<usize>,
    /// Whether this flow negotiated ECN: its data packets are sent as
    /// [`EcnCodepoint::Ect`], marking queues may flip them to CE instead of
    /// dropping, and the receiver echoes the mark on the ACK.
    pub ecn: bool,
    /// Retire the flow when its endpoint reports `Finished`: drop the boxed
    /// endpoint (sender windows, SACK scoreboard, controller state) and the
    /// receiver's reassembly window, replacing the endpoint with an inert stub.
    /// Essential for fleet workloads where thousands of short flows churn
    /// through one run; meaningless for endpoints callers inspect afterwards.
    pub retire_on_finish: bool,
}

impl FlowConfig {
    /// A monitored, backlogged primary flow.
    pub fn primary(label: impl Into<String>, prop_rtt: Time) -> Self {
        FlowConfig {
            label: label.into(),
            prop_rtt,
            start: Time::ZERO,
            counts_as_elastic: None,
            size_bytes: None,
            entry_hop: 0,
            exit_hop: None,
            ecn: false,
            retire_on_finish: false,
        }
    }

    /// An unmonitored cross-traffic flow.
    pub fn cross(label: impl Into<String>, prop_rtt: Time, elastic: bool) -> Self {
        FlowConfig {
            counts_as_elastic: Some(elastic),
            ..FlowConfig::primary(label, prop_rtt)
        }
    }

    /// Enter the path at `hop` instead of its head (mid-path cross traffic).
    pub fn entering_at(mut self, hop: usize) -> Self {
        self.entry_hop = hop;
        self
    }

    /// Leave the path after `hop` instead of its tail (inclusive).
    pub fn exiting_at(mut self, hop: usize) -> Self {
        self.exit_hop = Some(hop);
        self
    }

    /// Set the start time.
    pub fn starting_at(mut self, start: Time) -> Self {
        self.start = start;
        self
    }

    /// Set the flow size.
    pub fn with_size(mut self, bytes: u64) -> Self {
        self.size_bytes = Some(bytes);
        self
    }

    /// Negotiate ECN: send data packets as ECT so marking queues mark
    /// instead of dropping.
    pub fn with_ecn(mut self, yes: bool) -> Self {
        self.ecn = yes;
        self
    }

    /// Free the flow's endpoint and receiver state when it finishes.
    pub fn retiring(mut self) -> Self {
        self.retire_on_finish = true;
        self
    }
}

/// A source of dynamically arriving flows: the engine asks it for the next
/// `(arrival time, config, endpoint)` triple and schedules the flow's
/// creation at that time, so an open-loop workload of thousands of flows
/// costs nothing until each one actually arrives.  Return `None` when the
/// process is exhausted.  Arrival times must be non-decreasing.
pub trait FlowSpawner: Send {
    /// The next flow to arrive, or `None` when no more flows will.
    fn next_flow(&mut self) -> Option<(Time, FlowConfig, Box<dyn FlowEndpoint>)>;
}

/// An inert endpoint installed in place of a retired flow's real one; any
/// straggler event for the flow (late ACK, in-flight drop) hits a no-op.
/// A flow whose slot went back to the free list resolves to [`RETIRED`].
struct RetiredEndpoint;

static RETIRED: RetiredEndpoint = RetiredEndpoint;

impl FlowEndpoint for RetiredEndpoint {
    fn on_ack(&mut self, _ack: &AckInfo) {}
    fn poll_send(&mut self, _now: Time) -> SendAction {
        SendAction::Finished
    }
    fn label(&self) -> &str {
        "retired"
    }
}

/// Handle returned when adding a flow; use it to retrieve the endpoint after
/// the run for inspection (e.g. to read Nimbus's detector log).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowHandle(pub FlowId);

/// Pending-event descriptor.  Packets and ACKs propagate in the engine's
/// lanes (see [`Lane`]); the event for a lane's head names only the lane,
/// and flow, hop and spawner indices are stored as `u32`, so the descriptor
/// is two words and a calendar-queue entry four — what the queue's bucket
/// sort and ordered insert move around.
#[derive(Debug, Clone, Copy)]
enum EventKind {
    FlowStart(u32),
    PollSend(u32),
    /// Hop `hop` finished serializing its in-flight packet.  Tagged with the
    /// link generation at scheduling time: a rate transition mid-
    /// serialization bumps the generation and reschedules, orphaning the old
    /// entry, which must then be ignored.
    LinkDone {
        hop: u32,
        gen: u64,
    },
    /// The head of hop `h`'s inbound lane propagated from hop `h − 1`'s
    /// output into hop `h`'s queue.
    HopArrival(u32),
    /// The head of flow `id`'s data lane reached its receiver.
    ReceiverArrival(u32),
    /// The head of flow `id`'s ACK lane reached its sender.
    AckArrival(u32),
    /// Hop `hop`'s rate schedule reaches its next transition: advance the
    /// in-flight packet's byte progress under the outgoing rate and
    /// reschedule its completion under the incoming one.
    RateChange {
        hop: u32,
    },
    /// Spawner `idx`'s next pending flow arrives now: add it, fetch the
    /// following arrival and reschedule.
    Spawn(u32),
    Tick,
    Sample,
}

const _: () = assert!(std::mem::size_of::<EventKind>() == 16);

/// Send `item` down `lane`, due at `at` under the next insertion number from
/// `event_seq`.  The calendar gets `head`, the lane's event, only when the
/// lane was empty; otherwise [`leave_lane`] pushes it when the item reaches
/// the front.
fn enter_lane<T: Copy>(
    events: &mut CalendarQueue<EventKind>,
    event_seq: &mut u64,
    pool: &mut LanePool<T>,
    lane: &mut Lane,
    at: Time,
    item: T,
    head: EventKind,
) {
    *event_seq += 1;
    if pool.push(lane, at, *event_seq, item) {
        events.push(at, *event_seq, head);
    }
}

/// Take the item at the front of `lane`, whose `head` event is being
/// dispatched.  Before its handler runs, the successor's `head` enters the
/// calendar under the `(at, seq)` the successor was given on entry, so the
/// calendar pops every item in the order one queue holding them all would.
fn leave_lane<T: Copy>(
    events: &mut CalendarQueue<EventKind>,
    pool: &mut LanePool<T>,
    lane: &mut Lane,
    head: EventKind,
) -> T {
    let (item, next) = pool.pop(lane);
    if let Some((at, seq)) = next {
        events.push(at, seq, head);
    }
    item
}

/// Narrow a flow, hop or spawner index for an [`EventKind`].
fn idx32(i: usize) -> u32 {
    u32::try_from(i).expect("more than u32::MAX flows, hops or spawners")
}

/// A registered [`FlowSpawner`] plus its pre-fetched next arrival (fetched
/// eagerly so the arrival *time* is known and schedulable before the flow
/// itself needs to exist).
struct SpawnerState {
    spawner: Box<dyn FlowSpawner>,
    pending: Option<(Time, FlowConfig, Box<dyn FlowEndpoint>)>,
}

/// What the engine keeps of one flow while it runs or drains.  Of
/// its [`FlowConfig`], [`Network::add_flow`] hands the label, start, size
/// and elasticity tag to the recorder and keeps only the five facts the
/// packet path reads, with the exit hop resolved: a slot is 112 bytes.  A
/// retired flow gives its slot back to the [`FlowSlab`] once its last
/// packet and ACK are gone, so a fleet run holds one per flow alive or
/// draining, not one per flow ever spawned.
struct FlowState {
    endpoint: Box<dyn FlowEndpoint>,
    /// Receiver: the reassembly window.  Its base is the next in-order
    /// sequence number, the cumulative ACK; it holds the sizes of segments
    /// received above a hole.  Empty for a loss-free flow; it keeps its
    /// capacity across holes.
    reassembly: SeqWindow<u32>,
    /// Earliest pending `PollSend` event for this flow, used to avoid
    /// scheduling redundant polls (which would otherwise accumulate and blow
    /// up the event queue on paced flows).
    next_scheduled_poll: Time,
    /// Half the flow's propagation RTT: the delay of each of its two lanes.
    half_prop_rtt: Time,
    /// Data packets propagating from the exit hop to the receiver, over
    /// `half_prop_rtt`.
    data_lane: Lane,
    /// ACKs propagating from the receiver to the sender, over
    /// `half_prop_rtt`.
    ack_lane: Lane,
    /// First path hop the flow's packets traverse.
    entry_hop: u32,
    /// Last path hop the flow's packets traverse, inclusive.
    exit_hop: u32,
    /// Packets admitted at the entry hop and not yet received or dropped
    /// in transit: the flow's share of the engine's conservation law.
    in_network: u32,
    /// Whether data packets are sent as [`EcnCodepoint::Ect`].
    ecn: bool,
    /// Whether the flow is retired when its endpoint finishes.
    retire_on_finish: bool,
    started: bool,
    finished: bool,
}

/// Marks a flow whose slot went back to the free list.
const FREE: u32 = u32::MAX;

/// The engine's flow storage: reusable [`FlowState`] slots and the map from
/// a flow's id, its creation index, to its slot.  A slot is indexed by flow
/// id (`flows[id]`), which panics for a released flow: only an event that
/// cannot outlive the flow's last packet or ACK indexes it that way.
#[derive(Default)]
struct FlowSlab {
    slots: Vec<FlowState>,
    /// Per flow ever created: its slot, or [`FREE`] once released.
    slot_of: Vec<u32>,
    /// Released slots, reused last in, first out, before `slots` grows.
    free: Vec<u32>,
}

impl FlowSlab {
    /// Number of flows ever created.
    fn len(&self) -> usize {
        self.slot_of.len()
    }

    /// Store a new flow; its id is [`FlowSlab::len`] before the call.
    fn insert(&mut self, flow: FlowState) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = flow;
                slot
            }
            None => {
                self.slots.push(flow);
                idx32(self.slots.len() - 1)
            }
        };
        self.slot_of.push(slot);
    }

    /// Flow `id`'s state, unless its slot was released.
    fn get(&self, id: FlowId) -> Option<&FlowState> {
        match self.slot_of[id] {
            FREE => None,
            slot => Some(&self.slots[slot as usize]),
        }
    }

    /// Whether flow `id` finished; a released flow did.
    fn finished(&self, id: FlowId) -> bool {
        self.get(id).is_none_or(|f| f.finished)
    }

    /// Return flow `id`'s slot to the free list once nothing can reach it:
    /// the flow is retired, none of its packets is in the network and its
    /// ACK lane is empty.  A no-op for a live or already released flow.
    fn release_if_quiescent(&mut self, id: FlowId) {
        let Some(flow) = self.get(id) else {
            return;
        };
        if flow.finished
            && flow.retire_on_finish
            && flow.in_network == 0
            && flow.ack_lane.is_empty()
        {
            self.free.push(self.slot_of[id]);
            self.slot_of[id] = FREE;
        }
    }
}

impl std::ops::Index<FlowId> for FlowSlab {
    type Output = FlowState;

    fn index(&self, id: FlowId) -> &FlowState {
        &self.slots[self.slot_of[id] as usize]
    }
}

impl std::ops::IndexMut<FlowId> for FlowSlab {
    fn index_mut(&mut self, id: FlowId) -> &mut FlowState {
        &mut self.slots[self.slot_of[id] as usize]
    }
}

/// The flows' endpoints as [`Network::finish`] hands them back, indexed by
/// [`FlowId`] (`endpoints[handle.0]`).  A flow that was never retired keeps
/// its own endpoint; a retired one resolves to an inert stub labelled
/// `"retired"`.  It is the engine's slot map and its slots' endpoints,
/// collected in place: it allocates nothing per flow.
pub struct Endpoints {
    slot_of: Vec<u32>,
    slots: Vec<Box<dyn FlowEndpoint>>,
}

impl std::ops::Index<FlowId> for Endpoints {
    type Output = dyn FlowEndpoint;

    fn index(&self, id: FlowId) -> &Self::Output {
        match self.slot_of[id] {
            FREE => &RETIRED,
            slot => self.slots[slot as usize].as_ref(),
        }
    }
}

/// The packet currently being serialized on a link, tracked by byte progress
/// so the schedule can change the rate under it.
struct InFlight {
    pkt: Packet,
    /// Bits still to serialize (at the current rate).
    remaining_bits: f64,
    /// Time the progress was last advanced (transmission start or the most
    /// recent rate transition).
    since: Time,
}

/// Runtime state of one path hop.
struct LinkState {
    queue: Box<dyn QueueDiscipline>,
    /// Packet currently being serialized on this hop's link (the link is
    /// busy exactly while there is one).
    in_flight: Option<InFlight>,
    /// Link rate currently in effect, bits/s.
    current_rate_bps: f64,
    /// Generation counter validating `LinkDone` events across rate changes.
    gen: u64,
    /// Draws the hop's non-congestive losses.
    loss_rng: StdRng,
    /// Packets propagating from the previous hop's output into this hop's
    /// queue, over its `prop_delay`; always empty on hop 0.
    arrivals: Lane,
}

/// The path network simulator (a dumbbell when the path has one hop).
pub struct Network {
    cfg: SimConfig,
    now: Time,
    events: CalendarQueue<EventKind>,
    event_seq: u64,
    /// The links of every data lane and hop lane: packets propagating
    /// between hops or towards their receivers.
    pkts: LanePool<Packet>,
    /// The links of every ACK lane: ACKs propagating towards their senders.
    acks: LanePool<AckPacket>,
    links: Vec<LinkState>,
    flows: FlowSlab,
    /// Flows retired so far.
    retired_flows: usize,
    /// Registered flow spawners (`None` only transiently during dispatch).
    spawners: Vec<Option<SpawnerState>>,
    /// Flow ids that have started and not yet finished, ascending.  The
    /// per-tick walk visits only these, so a fleet run's cost per tick tracks
    /// the *concurrent* population, not the total number of flows ever
    /// created.  Ascending order keeps the tick's endpoint-call order
    /// identical to the historical `0..flows.len()` scan.
    active_flows: Vec<FlowId>,
    recorder: Recorder,
    /// Reusable per-hop occupancy buffer for recorder samples.
    occupancy_buf: Vec<u64>,
    /// Bytes admitted into the path at each flow's entry hop.
    total_enqueued_bytes: u64,
    /// Bytes delivered in order to receivers.
    total_delivered_bytes: u64,
    /// Bytes that arrived at receivers regardless of order.
    total_received_bytes: u64,
    /// Bytes dropped after admission: at an interior hop's ingress, or at
    /// dequeue by an AQM that drops there.
    dropped_in_transit_bytes: u64,
    /// Bytes currently propagating between hops or towards a receiver: the
    /// sizes of the packets waiting in hop lanes and data lanes.
    in_transit_bytes: u64,
    events_processed: u64,
}

/// Serialization time of `bits` at `rate_bps` (already floored by the schedule).
fn bits_time(bits: f64, rate_bps: f64) -> Time {
    Time::from_secs_f64(bits / rate_bps.max(crate::schedule::MIN_RATE_BPS))
}

/// Per-hop seed derivation: hop 0 keeps the master seed byte-for-byte (so
/// single-hop runs reproduce the pre-path engine exactly); later hops fold in
/// their index so independent hops draw independent random streams.
fn hop_seed(master: u64, hop: usize) -> u64 {
    master.wrapping_add((hop as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

impl Network {
    /// Create an empty network from a configuration.
    pub fn new(cfg: SimConfig) -> Self {
        assert!(!cfg.path.is_empty(), "the path needs at least one hop");
        let links: Vec<LinkState> = cfg
            .path
            .iter()
            .enumerate()
            .map(|(hop, link)| {
                let rate = link.schedule.initial_rate_bps();
                assert!(rate > 0.0, "hop {hop} rate must be positive");
                let seed = hop_seed(cfg.seed, hop);
                let capacity = delay_capacity_bytes(rate, link.buffer_s);
                let mut queue: Box<dyn QueueDiscipline> = match link.queue {
                    QueueKind::DropTail => Box::new(DropTailQueue::new(capacity)),
                    QueueKind::Pie { target_delay_s } => Box::new(PieQueue::new(
                        capacity,
                        rate,
                        Time::from_secs_f64(target_delay_s),
                        seed,
                    )),
                    QueueKind::Red => Box::new(RedQueue::new(capacity, seed)),
                    QueueKind::CoDel => Box::new(CoDelQueue::new(capacity)),
                };
                queue.set_ecn_marking(link.ecn);
                queue.set_drain_rate_bps(rate);
                LinkState {
                    queue,
                    in_flight: None,
                    current_rate_bps: rate,
                    gen: 0,
                    loss_rng: StdRng::seed_from_u64(seed ^ 0xd1b54a32d192ed03),
                    arrivals: Lane::default(),
                }
            })
            .collect();
        let recorder = Recorder::new(cfg.recorder.clone(), cfg.path.len());
        Network {
            cfg,
            now: Time::ZERO,
            events: CalendarQueue::new(),
            event_seq: 0,
            pkts: LanePool::new(),
            acks: LanePool::new(),
            links,
            flows: FlowSlab::default(),
            retired_flows: 0,
            spawners: Vec::new(),
            active_flows: Vec::new(),
            recorder,
            occupancy_buf: Vec::new(),
            total_enqueued_bytes: 0,
            total_delivered_bytes: 0,
            total_received_bytes: 0,
            dropped_in_transit_bytes: 0,
            in_transit_bytes: 0,
            events_processed: 0,
        }
    }

    /// Number of hops on the forward path.
    pub fn num_hops(&self) -> usize {
        self.links.len()
    }

    /// The first hop's rate currently in effect, in bits per second.
    pub fn link_rate_bps(&self) -> f64 {
        self.links[0].current_rate_bps
    }

    /// Every hop's configured rate schedule, in path order.
    pub fn hop_schedules(&self) -> Vec<&RateSchedule> {
        self.cfg.path.iter().map(|l| &l.schedule).collect()
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Add a flow. Returns a handle whose index identifies the flow in the
    /// recorder output.
    pub fn add_flow(&mut self, cfg: FlowConfig, endpoint: Box<dyn FlowEndpoint>) -> FlowHandle {
        assert!(
            cfg.entry_hop < self.links.len(),
            "flow '{}' enters at hop {} of a {}-hop path",
            cfg.label,
            cfg.entry_hop,
            self.links.len()
        );
        if let Some(exit) = cfg.exit_hop {
            assert!(
                exit >= cfg.entry_hop && exit < self.links.len(),
                "flow '{}' exits at hop {exit} outside [{}, {})",
                cfg.label,
                cfg.entry_hop,
                self.links.len()
            );
        }
        let id = self.flows.len();
        self.recorder.register_flow(
            id,
            cfg.label,
            cfg.counts_as_elastic,
            cfg.counts_as_elastic.is_none(),
            cfg.start,
            cfg.size_bytes,
        );
        self.schedule(cfg.start, EventKind::FlowStart(idx32(id)));
        self.flows.insert(FlowState {
            endpoint,
            reassembly: SeqWindow::new(),
            next_scheduled_poll: Time::MAX,
            half_prop_rtt: Time::from_nanos(cfg.prop_rtt.as_nanos() / 2),
            data_lane: Lane::default(),
            ack_lane: Lane::default(),
            entry_hop: idx32(cfg.entry_hop),
            exit_hop: idx32(cfg.exit_hop.unwrap_or(self.links.len() - 1)),
            in_network: 0,
            ecn: cfg.ecn,
            retire_on_finish: cfg.retire_on_finish,
            started: false,
            finished: false,
        });
        FlowHandle(id)
    }

    /// Register an open-loop flow source.  Its first arrival is fetched and
    /// scheduled immediately; each arrival event adds the pending flow and
    /// fetches the next, so at most one un-created flow per spawner is ever
    /// held in memory.
    pub fn add_spawner(&mut self, spawner: Box<dyn FlowSpawner>) {
        let mut state = SpawnerState {
            spawner,
            pending: None,
        };
        if let Some(next) = state.spawner.next_flow() {
            let at = next.0;
            state.pending = Some(next);
            let idx = self.spawners.len();
            self.schedule(at, EventKind::Spawn(idx32(idx)));
        }
        self.spawners.push(Some(state));
    }

    /// Total number of flows ever created (static adds plus spawned), a
    /// counter: a retired flow's slot is reused, its id is not.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Flows that finished and had their endpoint/receiver state retired.
    pub fn retired_flow_count(&self) -> usize {
        self.retired_flows
    }

    /// Run the simulation to completion (until `duration`).
    pub fn run(&mut self) {
        self.schedule_clocks();
        while self.step() {}
        self.close();
    }

    /// Schedule the first tick, the first recorder sample and each hop's
    /// first rate transition.
    fn schedule_clocks(&mut self) {
        self.schedule(REPORT_INTERVAL, EventKind::Tick);
        self.schedule(self.cfg.recorder.sample_interval, EventKind::Sample);
        for hop in 0..self.cfg.path.len() {
            if let Some(at) = self.cfg.path[hop]
                .schedule
                .next_transition_after(Time::ZERO)
            {
                self.schedule(at, EventKind::RateChange { hop: idx32(hop) });
            }
        }
    }

    /// Dispatch the next event; false once none is left at or before the
    /// end of the run.
    fn step(&mut self) -> bool {
        let Some((at, _seq, kind)) = self.events.pop() else {
            return false;
        };
        if at > self.cfg.duration {
            return false;
        }
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        self.events_processed += 1;
        self.dispatch(kind);
        true
    }

    fn close(&mut self) {
        // Advance the clock to the configured end of the run: the event loop
        // leaves `now` at the last event at or before `duration`, which would
        // stamp the closing sample early and truncate `now()`-based
        // steady-state windows.  This must not depend on any hop's `LinkDone`
        // firing — a hop whose schedule ends in a (near-)zero-rate outage
        // schedules its completion far beyond `duration` and still closes here.
        if self.now < self.cfg.duration {
            self.now = self.cfg.duration;
        }
        // Close the final, partial recorder interval.  When the duration is
        // a whole number of intervals, the `Sample` event at `duration`
        // already closed the last one, and a second sample there would span
        // 0 s and read 0 Mbit/s.  The marks are read either way: events at
        // `duration` after that sample may still have marked.
        if self.recorder.last_sample() < self.now {
            self.take_sample();
        } else {
            self.read_marks();
        }
    }

    /// Refresh the reusable occupancy buffer and close a recorder interval.
    fn take_sample(&mut self) {
        self.occupancy_buf.clear();
        self.occupancy_buf
            .extend(self.links.iter().map(|l| l.queue.len_bytes()));
        self.recorder.sample(self.now, &self.occupancy_buf);
        self.read_marks();
    }

    /// Copy each hop's cumulative CE mark count into the recorder.
    fn read_marks(&mut self) {
        let marked = self.recorder.hop_marked_packets.iter_mut();
        for (marked, link) in marked.zip(&self.links) {
            *marked = link.queue.marks();
        }
    }

    /// Consume the network, returning the recorder (results) and the flow
    /// endpoints (so callers can inspect controller-internal logs).  The
    /// endpoints keep the engine's slot map, and its slots turn into them in
    /// place: nothing is built per flow.
    pub fn finish(self) -> (Recorder, Endpoints) {
        let endpoints = Endpoints {
            slot_of: self.flows.slot_of,
            slots: self.flows.slots.into_iter().map(|f| f.endpoint).collect(),
        };
        (self.recorder, endpoints)
    }

    /// Access the recorder during/after a run.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Borrow a flow's endpoint (e.g. to inspect controller state mid-run in tests).
    pub fn endpoint(&self, handle: FlowHandle) -> &dyn FlowEndpoint {
        self.flows
            .get(handle.0)
            .map_or(&RETIRED, |f| f.endpoint.as_ref())
    }

    /// Total number of events processed (diagnostics / benchmarking).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Total bytes admitted into the path at the flows' entry hops.
    pub fn total_enqueued_bytes(&self) -> u64 {
        self.total_enqueued_bytes
    }

    /// Total bytes delivered in order to receivers.
    pub fn total_delivered_bytes(&self) -> u64 {
        self.total_delivered_bytes
    }

    /// Total bytes that arrived at receivers, regardless of ordering.
    pub fn total_received_bytes(&self) -> u64 {
        self.total_received_bytes
    }

    /// Bytes dropped after admission: at an interior hop's ingress, or at
    /// dequeue by an AQM that drops there (CoDel).
    pub fn dropped_in_transit_bytes(&self) -> u64 {
        self.dropped_in_transit_bytes
    }

    /// Bytes currently inside the network: queued at a hop, mid-serialization
    /// on a link, or propagating between hops / towards a receiver.  Together
    /// with the counters above this makes admission conservation exact:
    /// `total_enqueued = total_received + dropped_in_transit + in_network`.
    pub fn in_network_bytes(&self) -> u64 {
        self.links
            .iter()
            .map(|l| {
                l.queue.len_bytes() + l.in_flight.as_ref().map_or(0, |f| f.pkt.size_bytes as u64)
            })
            .sum::<u64>()
            + self.in_transit_bytes
    }

    fn schedule(&mut self, at: Time, kind: EventKind) {
        let at = at.max(self.now);
        self.event_seq += 1;
        self.events.push(at, self.event_seq, kind);
    }

    fn dispatch(&mut self, kind: EventKind) {
        match kind {
            EventKind::FlowStart(id) => {
                let id = id as FlowId;
                if !self.flows[id].started {
                    self.flows[id].started = true;
                    let pos = self.active_flows.binary_search(&id).unwrap_or_else(|p| p);
                    self.active_flows.insert(pos, id);
                    self.recorder.on_flow_start(id);
                    let now = self.now;
                    self.flows[id].endpoint.on_start(now);
                    self.poll_flow(id);
                }
            }
            EventKind::PollSend(id) => {
                // Only the poll recorded in `next_scheduled_poll` is live; an
                // entry left in the heap after an earlier poll superseded it
                // must be dropped here, otherwise every stale entry would
                // reschedule itself and the poll chains would multiply without
                // bound (each ACK that moves the wake-up earlier would leak
                // one immortal chain).
                // A flow whose slot was released has no live poll.
                let id = id as FlowId;
                if self.flows.get(id).map(|f| f.next_scheduled_poll) != Some(self.now) {
                    return;
                }
                self.flows[id].next_scheduled_poll = Time::MAX;
                self.poll_flow(id)
            }
            EventKind::LinkDone { hop, gen } => self.on_link_done(hop as usize, gen),
            EventKind::HopArrival(hop) => {
                let lane = &mut self.links[hop as usize].arrivals;
                let pkt = leave_lane(&mut self.events, &mut self.pkts, lane, kind);
                self.on_hop_arrival(pkt);
            }
            EventKind::ReceiverArrival(id) => {
                let lane = &mut self.flows[id as usize].data_lane;
                let pkt = leave_lane(&mut self.events, &mut self.pkts, lane, kind);
                self.on_receiver_arrival(pkt);
            }
            EventKind::AckArrival(id) => {
                let lane = &mut self.flows[id as usize].ack_lane;
                let ack = leave_lane(&mut self.events, &mut self.acks, lane, kind);
                self.on_ack_arrival(ack);
                self.flows.release_if_quiescent(id as usize);
            }
            EventKind::RateChange { hop } => self.on_rate_change(hop as usize),
            EventKind::Spawn(idx) => {
                let idx = idx as usize;
                // Take the state out so `add_flow` can borrow `self` freely.
                if let Some(mut state) = self.spawners[idx].take() {
                    if let Some((at, cfg, endpoint)) = state.pending.take() {
                        debug_assert!(at <= self.now, "spawn fired before its arrival time");
                        // The flow's `FlowStart` lands at the same instant but
                        // a later event sequence number, so it fires right
                        // after this event — deterministically.
                        self.add_flow(cfg, endpoint);
                    }
                    if let Some(next) = state.spawner.next_flow() {
                        let at = next.0;
                        state.pending = Some(next);
                        self.schedule(at, EventKind::Spawn(idx32(idx)));
                    }
                    self.spawners[idx] = Some(state);
                }
            }
            EventKind::Tick => {
                let now = self.now;
                // Walk by index (not iterator) because `poll_flow` needs
                // `&mut self`; the list only grows at `FlowStart`, never
                // during a tick, so the bound is stable.
                let mut i = 0;
                while i < self.active_flows.len() {
                    let id = self.active_flows[i];
                    if !self.flows.finished(id) {
                        self.flows[id].endpoint.on_tick(now);
                        self.poll_flow(id);
                    }
                    i += 1;
                }
                self.active_flows.retain(|&id| !self.flows.finished(id));
                self.schedule(now + REPORT_INTERVAL, EventKind::Tick);
            }
            EventKind::Sample => {
                self.take_sample();
                let next = self.now + self.cfg.recorder.sample_interval;
                self.schedule(next, EventKind::Sample);
            }
        }
    }

    fn poll_flow(&mut self, id: FlowId) {
        let flow = &self.flows[id];
        if !flow.started || flow.finished {
            return;
        }
        // Cap the number of back-to-back transmissions per poll so a buggy
        // endpoint cannot wedge the simulation.
        const MAX_BURST: usize = 100_000;
        for iteration in 0.. {
            assert!(
                iteration < MAX_BURST,
                "flow {id} ({}) transmitted {MAX_BURST} packets in one poll; runaway endpoint",
                self.recorder.flows[id].label
            );
            let action = self.flows[id].endpoint.poll_send(self.now);
            match action {
                SendAction::Transmit {
                    seq,
                    bytes,
                    retransmit,
                } => {
                    self.transmit(id, seq, bytes, retransmit);
                }
                SendAction::WaitUntil(t) => {
                    // Guard against endpoints asking to be polled in the past,
                    // which would busy-loop the event queue.
                    let t = t.max(self.now + Time::from_nanos(1));
                    // Only schedule if no earlier (or equal) poll is already
                    // pending; otherwise ACK-triggered polls on paced flows
                    // would pile up duplicate events.
                    if self.flows[id].next_scheduled_poll > t {
                        self.flows[id].next_scheduled_poll = t;
                        self.schedule(t, EventKind::PollSend(idx32(id)));
                    }
                    break;
                }
                SendAction::Idle => break,
                SendAction::Finished => {
                    self.flows[id].finished = true;
                    self.recorder.on_finish(id, self.now);
                    if self.flows[id].retire_on_finish {
                        self.retire_flow(id);
                    }
                    break;
                }
            }
        }
    }

    /// Free a finished flow's heavyweight state: the boxed endpoint (sender
    /// window, SACK scoreboard, congestion controller) and the receiver's
    /// reassembly window.  Straggler events — a packet still propagating or
    /// dropped in transit, an ACK on its way back — find a no-op endpoint and
    /// a `finished` flag that short-circuits the ACK path, so late arrivals
    /// are received, counted and acknowledged as before, and harmless.  The
    /// slot itself goes back to the free list once the last of them is gone
    /// (`FlowSlab::release_if_quiescent`).
    fn retire_flow(&mut self, id: FlowId) {
        let flow = &mut self.flows[id];
        flow.endpoint = Box::new(RetiredEndpoint);
        // A straggler still finds the cumulative ACK where the flow left it.
        let next_expected = flow.reassembly.base();
        flow.reassembly = SeqWindow::new();
        flow.reassembly.advance_to(next_expected);
        self.retired_flows += 1;
        self.flows.release_if_quiescent(id);
    }

    /// The last hop flow `id` traverses.
    fn exit_hop_of(&self, id: FlowId) -> usize {
        self.flows[id].exit_hop as usize
    }

    /// Offer `pkt` to `hop`'s ingress: random loss, then the queue.  On a
    /// drop the recorder and the owning endpoint are notified; returns
    /// whether the packet was accepted.
    fn offer_to_hop(&mut self, hop: usize, pkt: Packet) -> bool {
        let (id, seq) = (pkt.flow, pkt.seq);
        let loss = self.cfg.path[hop].loss;
        let link = &mut self.links[hop];
        let lost = loss > 0.0 && link.loss_rng.gen::<f64>() < loss;
        let accepted = !lost && link.queue.enqueue(pkt, self.now) == EnqueueResult::Accepted;
        if !accepted {
            self.recorder.on_drop(id, hop);
            self.flows[id].endpoint.on_packet_dropped(seq, self.now);
        }
        accepted
    }

    fn transmit(&mut self, id: FlowId, seq: u64, bytes: u32, retransmit: bool) {
        debug_assert!(bytes > 0, "cannot transmit an empty packet");
        let flow = &self.flows[id];
        let entry = flow.entry_hop as usize;
        let mut pkt = Packet::new(id, seq, bytes, self.now, retransmit);
        pkt.hop = entry;
        if flow.ecn {
            pkt.ecn = EcnCodepoint::Ect;
        }
        if self.offer_to_hop(entry, pkt) {
            self.flows[id].in_network += 1;
            self.total_enqueued_bytes += bytes as u64;
            self.recorder.on_enqueue(id, bytes);
            self.maybe_start_transmission(entry);
        }
    }

    /// A packet propagated to an interior hop's queue.
    fn on_hop_arrival(&mut self, pkt: Packet) {
        let hop = pkt.hop;
        let bytes = pkt.size_bytes as u64;
        let id = pkt.flow;
        self.in_transit_bytes -= bytes;
        if self.offer_to_hop(hop, pkt) {
            self.maybe_start_transmission(hop);
        } else {
            // The bytes were admitted upstream but died here.
            self.dropped_in_transit_bytes += bytes;
            self.flows[id].in_network -= 1;
            self.poll_flow(id);
            self.flows.release_if_quiescent(id);
        }
    }

    fn maybe_start_transmission(&mut self, hop: usize) {
        let link = &mut self.links[hop];
        if link.in_flight.is_some() {
            return;
        }
        let (now, recorder, flows) = (self.now, &mut self.recorder, &mut self.flows);
        let lost = &mut self.dropped_in_transit_bytes;
        // An AQM that drops at dequeue (CoDel) discards admitted bytes: the
        // recorder and the endpoint hear of each packet, as at the ingress.
        let next = link.queue.dequeue_reporting(now, &mut |pkt| {
            *lost += pkt.size_bytes as u64;
            recorder.on_drop(pkt.flow, hop);
            flows[pkt.flow].endpoint.on_packet_dropped(pkt.seq, now);
            flows[pkt.flow].in_network -= 1;
            flows.release_if_quiescent(pkt.flow);
        });
        if let Some(mut pkt) = next {
            let delay = pkt.queueing_delay(self.now);
            pkt.cum_queue_delay += delay;
            // The recorder sees one sample per packet: its whole-path
            // queueing delay, reported as it clears its final queue.
            if hop >= self.exit_hop_of(pkt.flow) {
                self.recorder.on_dequeue(pkt.flow, pkt.cum_queue_delay);
            }
            let bits = pkt.size_bytes as f64 * 8.0;
            let tx = bits_time(bits, self.links[hop].current_rate_bps);
            self.links[hop].in_flight = Some(InFlight {
                pkt,
                remaining_bits: bits,
                since: self.now,
            });
            self.links[hop].gen += 1;
            let gen = self.links[hop].gen;
            let hop = idx32(hop);
            self.schedule(self.now + tx, EventKind::LinkDone { hop, gen });
        }
    }

    /// Apply a scheduled rate transition on `hop`.  The in-flight packet (if
    /// any) has its byte progress advanced under the outgoing rate and its
    /// completion rescheduled under the incoming one; delay-sized queue
    /// capacities are recomputed so "x seconds of buffering" keeps meaning
    /// x seconds.
    fn on_rate_change(&mut self, hop: usize) {
        let new_rate = self.cfg.path[hop].schedule.rate_at(self.now);
        let link = &mut self.links[hop];
        if let Some(inf) = &mut link.in_flight {
            let elapsed = self.now.saturating_sub(inf.since).as_secs_f64();
            inf.remaining_bits = (inf.remaining_bits - elapsed * link.current_rate_bps).max(0.0);
            inf.since = self.now;
        }
        link.current_rate_bps = new_rate;
        if let Some(inf) = &link.in_flight {
            let tx = bits_time(inf.remaining_bits, new_rate);
            link.gen += 1;
            let gen = link.gen;
            let at = self.now + tx;
            let hop = idx32(hop);
            self.schedule(at, EventKind::LinkDone { hop, gen });
        }
        // Keep "x seconds of buffering" meaning x seconds.
        let link = &mut self.links[hop];
        let capacity = delay_capacity_bytes(new_rate, self.cfg.path[hop].buffer_s);
        link.queue.set_capacity_bytes(capacity);
        link.queue.set_drain_rate_bps(new_rate);
        if let Some(at) = self.cfg.path[hop].schedule.next_transition_after(self.now) {
            self.schedule(at, EventKind::RateChange { hop: idx32(hop) });
        }
    }

    fn on_link_done(&mut self, hop: usize, gen: u64) {
        // A rate transition mid-serialization reschedules completion under a
        // new generation; the orphaned entry must not complete the packet.
        if gen != self.links[hop].gen {
            return;
        }
        if let Some(inf) = self.links[hop].in_flight.take() {
            let mut pkt = inf.pkt;
            self.in_transit_bytes += pkt.size_bytes as u64;
            let exits = hop >= self.exit_hop_of(pkt.flow);
            let (events, seq, pkts) = (&mut self.events, &mut self.event_seq, &mut self.pkts);
            if exits {
                // Last hop for this flow: propagate to the receiver over the
                // data half of the configured RTT.
                let flow = &mut self.flows[pkt.flow];
                let at = self.now + flow.half_prop_rtt;
                let head = EventKind::ReceiverArrival(idx32(pkt.flow));
                enter_lane(events, seq, pkts, &mut flow.data_lane, at, pkt, head);
            } else {
                // Interior hop: propagate into the next hop's queue over
                // that hop's configured inbound delay.
                let at = self.now + self.cfg.path[hop + 1].prop_delay;
                pkt.hop = hop + 1;
                let head = EventKind::HopArrival(idx32(hop + 1));
                let lane = &mut self.links[hop + 1].arrivals;
                enter_lane(events, seq, pkts, lane, at, pkt, head);
            }
        }
        self.maybe_start_transmission(hop);
    }

    fn on_receiver_arrival(&mut self, pkt: Packet) {
        let id = pkt.flow;
        self.in_transit_bytes -= pkt.size_bytes as u64;
        self.total_received_bytes += pkt.size_bytes as u64;
        let flow = &mut self.flows[id];
        // The packet leaves the network, but its ACK enters the flow's ACK
        // lane, so the slot stays until that ACK arrives.
        flow.in_network -= 1;
        // Receiver: cumulative ACK generation with duplicate-data suppression.
        let window = &mut flow.reassembly;
        let mut newly_delivered = 0u64;
        if pkt.seq == window.base() && window.is_empty() {
            // In order with nothing buffered — every packet of a loss-free
            // flow: deliver it without touching the window's slots.
            newly_delivered = pkt.size_bytes as u64;
            window.advance_to(pkt.seq + 1);
        } else {
            if pkt.seq >= window.base() {
                // A duplicate keeps the size first buffered.
                window.insert(pkt.seq, pkt.size_bytes);
            }
            while let Some(sz) = window.pop_base() {
                newly_delivered += sz as u64;
            }
        }
        self.total_delivered_bytes += newly_delivered;
        self.recorder.on_arrival(id, pkt.size_bytes as u64);
        self.recorder.on_delivered(id, newly_delivered);

        let ack = AckPacket {
            flow: id,
            cum_ack: flow.reassembly.base(),
            triggering_seq: pkt.seq,
            triggering_bytes: pkt.size_bytes,
            data_sent_at: pkt.sent_at,
            received_at: self.now,
            newly_delivered_bytes: newly_delivered,
            ce: pkt.ecn == EcnCodepoint::Ce,
        };
        let at = self.now + flow.half_prop_rtt;
        let (events, seq) = (&mut self.events, &mut self.event_seq);
        let head = EventKind::AckArrival(idx32(id));
        enter_lane(
            events,
            seq,
            &mut self.acks,
            &mut flow.ack_lane,
            at,
            ack,
            head,
        );
    }

    fn on_ack_arrival(&mut self, ack: AckPacket) {
        let id = ack.flow;
        if self.flows[id].finished {
            return;
        }
        let rtt = self.now.saturating_sub(ack.data_sent_at);
        self.recorder.on_rtt_sample(id, rtt);
        let info = AckInfo {
            now: self.now,
            cum_ack: ack.cum_ack,
            triggering_seq: ack.triggering_seq,
            triggering_bytes: ack.triggering_bytes,
            data_sent_at: ack.data_sent_at,
            rtt_sample: rtt,
            newly_delivered_bytes: ack.newly_delivered_bytes,
            ce: ack.ce,
        };
        self.flows[id].endpoint.on_ack(&info);
        self.poll_flow(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::FlowStats;

    /// A constant-bit-rate, paced sender: one MSS every `interval`.
    struct PacedCbr {
        rate_bps: f64,
        mss: u32,
        next_seq: u64,
        next_send: Time,
        total_packets: Option<u64>,
    }

    impl PacedCbr {
        fn new(rate_bps: f64) -> Self {
            PacedCbr {
                rate_bps,
                mss: 1500,
                next_seq: 0,
                next_send: Time::ZERO,
                total_packets: None,
            }
        }
        fn with_limit(mut self, packets: u64) -> Self {
            self.total_packets = Some(packets);
            self
        }
    }

    impl FlowEndpoint for PacedCbr {
        fn on_ack(&mut self, _ack: &AckInfo) {}
        fn poll_send(&mut self, now: Time) -> SendAction {
            if let Some(limit) = self.total_packets {
                if self.next_seq >= limit {
                    return SendAction::Finished;
                }
            }
            if now >= self.next_send {
                let seq = self.next_seq;
                self.next_seq += 1;
                let gap = Time::from_secs_f64(self.mss as f64 * 8.0 / self.rate_bps);
                self.next_send = if self.next_send == Time::ZERO {
                    now + gap
                } else {
                    self.next_send + gap
                };
                SendAction::Transmit {
                    seq,
                    bytes: self.mss,
                    retransmit: false,
                }
            } else {
                SendAction::WaitUntil(self.next_send)
            }
        }
        fn label(&self) -> &str {
            "paced-cbr"
        }
    }

    /// A fixed-window, ACK-clocked sender (no loss recovery; relies on the
    /// queue being big enough in these tests).
    struct FixedWindow {
        window: u64,
        next_seq: u64,
        cum_ack: u64,
        mss: u32,
    }

    impl FixedWindow {
        fn new(window: u64) -> Self {
            FixedWindow {
                window,
                next_seq: 0,
                cum_ack: 0,
                mss: 1500,
            }
        }
    }

    impl FlowEndpoint for FixedWindow {
        fn on_ack(&mut self, ack: &AckInfo) {
            self.cum_ack = self.cum_ack.max(ack.cum_ack);
        }
        fn poll_send(&mut self, _now: Time) -> SendAction {
            if self.next_seq < self.cum_ack + self.window {
                let seq = self.next_seq;
                self.next_seq += 1;
                SendAction::Transmit {
                    seq,
                    bytes: self.mss,
                    retransmit: false,
                }
            } else {
                SendAction::Idle
            }
        }
        fn label(&self) -> &str {
            "fixed-window"
        }
    }

    fn base_config(rate_bps: f64, duration_s: f64) -> SimConfig {
        SimConfig::new(rate_bps, 0.1, duration_s)
    }

    #[test]
    fn paced_flow_below_capacity_sees_no_queueing() {
        // 10 Mbit/s offered on a 96 Mbit/s link: essentially zero queueing delay.
        let mut net = Network::new(base_config(96e6, 10.0));
        let h = net.add_flow(
            FlowConfig::primary("cbr", Time::from_millis(50)),
            Box::new(PacedCbr::new(10e6)),
        );
        net.run();
        let (rec, _) = net.finish();
        let slot = rec.monitored_slot(h.0).unwrap();
        // Throughput ~10 Mbit/s after startup.
        let tput = rec.throughput_mbps(slot).mean_in_range(2.0, 10.0);
        assert!((tput - 10.0).abs() < 1.0, "throughput {tput}");
        // Mean RTT close to the propagation RTT.
        let rtt = rec.rtt_ms(slot).mean_in_range(2.0, 10.0);
        assert!((rtt - 50.0).abs() < 2.0, "rtt {rtt}");
        // Per-packet queueing delay ~0.
        let qd = rec.queue_delay_ms(slot).mean_in_range(2.0, 10.0);
        assert!(qd < 1.0, "queue delay {qd}");
    }

    #[test]
    fn paced_flow_above_capacity_is_limited_to_link_rate() {
        // Offer 20 Mbit/s on a 12 Mbit/s link: delivery is capped at link rate
        // and the (100 ms) buffer fills, so queueing delay approaches 100 ms.
        let mut net = Network::new(base_config(12e6, 20.0));
        let h = net.add_flow(
            FlowConfig::primary("cbr", Time::from_millis(20)),
            Box::new(PacedCbr::new(20e6)),
        );
        net.run();
        let (rec, _) = net.finish();
        let slot = rec.monitored_slot(h.0).unwrap();
        let tput = rec.throughput_mbps(slot).mean_in_range(5.0, 20.0);
        assert!((tput - 12.0).abs() < 1.0, "throughput {tput}");
        let qd = rec.queue_delay_ms(slot).mean_in_range(5.0, 20.0);
        assert!(qd > 60.0 && qd <= 105.0, "queue delay {qd}");
        // Drops must have occurred once the buffer filled.
        assert!(rec.flows[h.0].dropped_packets > 0);
    }

    #[test]
    fn ack_clocked_window_flow_matches_bandwidth_delay_product() {
        // Window = 2 * BDP on an otherwise empty link: the flow saturates the
        // link and the standing queue is about one BDP.
        let rate: f64 = 48e6;
        let rtt = Time::from_millis(50);
        let bdp_packets = (rate * 0.050 / 8.0 / 1500.0).round() as u64; // = 200
        let mut net = Network::new(base_config(rate, 30.0));
        let h = net.add_flow(
            FlowConfig::primary("window", rtt),
            Box::new(FixedWindow::new(bdp_packets * 2)),
        );
        net.run();
        let (rec, _) = net.finish();
        let slot = rec.monitored_slot(h.0).unwrap();
        let tput = rec.throughput_mbps(slot).mean_in_range(5.0, 30.0);
        assert!((tput - 48.0).abs() < 2.0, "throughput {tput}");
        // Standing queue of ~1 BDP => queueing delay ~ RTT (50 ms).
        let qd = rec.queue_delay_ms(slot).mean_in_range(5.0, 30.0);
        assert!((qd - 50.0).abs() < 10.0, "queue delay {qd}");
        // RTT observed = propagation + queueing ≈ 100 ms.
        let rtt_obs = rec.rtt_ms(slot).mean_in_range(5.0, 30.0);
        assert!((rtt_obs - 100.0).abs() < 12.0, "rtt {rtt_obs}");
    }

    #[test]
    fn two_equal_window_flows_share_the_link() {
        let rate = 96e6;
        let mut net = Network::new(base_config(rate, 30.0));
        let h1 = net.add_flow(
            FlowConfig::primary("a", Time::from_millis(50)),
            Box::new(FixedWindow::new(400)),
        );
        let h2 = net.add_flow(
            FlowConfig::primary("b", Time::from_millis(50)),
            Box::new(FixedWindow::new(400)),
        );
        net.run();
        let (rec, _) = net.finish();
        let t1 = rec
            .throughput_mbps(rec.monitored_slot(h1.0).unwrap())
            .mean_in_range(10.0, 30.0);
        let t2 = rec
            .throughput_mbps(rec.monitored_slot(h2.0).unwrap())
            .mean_in_range(10.0, 30.0);
        assert!((t1 + t2 - 96.0).abs() < 4.0, "sum {t1}+{t2}");
        assert!((t1 - t2).abs() < 10.0, "unfair split {t1} vs {t2}");
    }

    #[test]
    fn finite_flow_records_completion_time() {
        let mut net = Network::new(base_config(96e6, 30.0));
        let h = net.add_flow(
            FlowConfig::cross("finite", Time::from_millis(20), false)
                .with_size(150_000)
                .starting_at(Time::from_secs_f64(1.0)),
            Box::new(PacedCbr::new(12e6).with_limit(100)), // 100 * 1500 B = 150 kB
        );
        net.run();
        let (rec, _) = net.finish();
        let stats = &rec.flows[h.0];
        assert!(stats.finish.is_some(), "flow should have finished");
        let fct = stats.fct().unwrap().as_secs_f64();
        // 150 kB at 12 Mbit/s is 0.1 s; allow pacing/ack slack.
        assert!(fct > 0.05 && fct < 0.5, "fct {fct}");
        assert_eq!(stats.delivered_bytes, 150_000);
    }

    #[test]
    fn byte_conservation_delivered_never_exceeds_enqueued() {
        let mut net = Network::new(base_config(24e6, 10.0));
        let a = net.add_flow(
            FlowConfig::primary("a", Time::from_millis(30)),
            Box::new(PacedCbr::new(30e6)),
        );
        let b = net.add_flow(
            FlowConfig::cross("b", Time::from_millis(60), false),
            Box::new(PacedCbr::new(10e6)),
        );
        // A primary flow is monitored and a cross flow is not.
        assert!(net.recorder().monitored_slot(a.0).is_some());
        assert_eq!(net.recorder().monitored_slot(b.0), None);
        net.run();
        assert!(net.total_delivered_bytes() <= net.total_enqueued_bytes());
        assert!(net.total_delivered_bytes() > 0);
        // Link can have delivered at most rate * duration.
        let cap = 24e6 * 10.0 / 8.0;
        assert!((net.total_delivered_bytes() as f64) <= cap * 1.01);
    }

    #[test]
    fn ground_truth_elastic_fraction_tracks_flow_tags() {
        let mut net = Network::new(base_config(96e6, 10.0));
        // 10 Mbit/s tagged elastic + 30 Mbit/s tagged inelastic => fraction 0.25.
        net.add_flow(
            FlowConfig::cross("elastic", Time::from_millis(50), true),
            Box::new(PacedCbr::new(10e6)),
        );
        net.add_flow(
            FlowConfig::cross("inelastic", Time::from_millis(50), false),
            Box::new(PacedCbr::new(30e6)),
        );
        net.run();
        let (rec, _) = net.finish();
        let truth = rec.elastic_fraction();
        let frac: Vec<f64> = truth
            .t
            .iter()
            .zip(truth.v)
            .filter(|(t, _)| **t > 2.0)
            .map(|(_, v)| *v)
            .collect();
        let mean = frac.iter().sum::<f64>() / frac.len() as f64;
        assert!((mean - 0.25).abs() < 0.05, "elastic fraction {mean}");
        // Cross rate ground truth ~40 Mbit/s.
        let z = rec.cross_rate_mbps().mean_in_range(2.0, 10.0);
        assert!((z - 40.0).abs() < 3.0, "cross rate {z}");
    }

    /// A fixed-window sender that repairs its losses: every third duplicate
    /// ACK resends the segment at the cumulative ACK, and so does a poll
    /// 200 ms after the last progress.  Its holes fill out of order at the
    /// receiver, and its repeated resends arrive there as duplicates.
    struct Repairing {
        window: u64,
        next_seq: u64,
        cum_ack: u64,
        dup_acks: u64,
        resend: bool,
        progress_at: Time,
    }

    impl Repairing {
        const STALL: Time = Time::from_millis(200);

        fn new(window: u64) -> Self {
            Repairing {
                window,
                next_seq: 0,
                cum_ack: 0,
                dup_acks: 0,
                resend: false,
                progress_at: Time::ZERO,
            }
        }
    }

    impl FlowEndpoint for Repairing {
        fn on_ack(&mut self, ack: &AckInfo) {
            if ack.cum_ack > self.cum_ack {
                self.cum_ack = ack.cum_ack;
                self.dup_acks = 0;
                self.progress_at = ack.now;
            } else {
                self.dup_acks += 1;
                self.resend |= self.dup_acks.is_multiple_of(3);
            }
        }
        fn poll_send(&mut self, now: Time) -> SendAction {
            if now >= self.progress_at + Self::STALL && self.cum_ack < self.next_seq {
                self.resend = true;
                self.progress_at = now;
            }
            let (seq, retransmit) =
                if std::mem::take(&mut self.resend) && self.cum_ack < self.next_seq {
                    (self.cum_ack, true)
                } else if self.next_seq < self.cum_ack + self.window {
                    self.next_seq += 1;
                    (self.next_seq - 1, false)
                } else {
                    return SendAction::WaitUntil(self.progress_at + Self::STALL);
                };
            SendAction::Transmit {
                seq,
                bytes: 1500,
                retransmit,
            }
        }
        fn label(&self) -> &str {
            "repairing"
        }
    }

    #[test]
    fn lossy_reassembly_conserves_bytes_and_reproduces_its_recorder() {
        // Random loss plus tail drops (320 windowed packets against an 80
        // packet BDP and a 200 packet buffer): both receivers buffer
        // segments above holes that retransmissions fill out of order.
        let mut cfg = base_config(24e6, 10.0);
        cfg.link_mut().loss = 0.02;
        cfg.seed = 5;
        let mut net = Network::new(cfg);
        net.add_flow(
            FlowConfig::primary("a", Time::from_millis(40)),
            Box::new(Repairing::new(200)),
        );
        net.add_flow(
            FlowConfig::cross("b", Time::from_millis(60), true),
            Box::new(Repairing::new(120)),
        );
        net.run();
        assert_eq!(
            net.total_enqueued_bytes(),
            net.total_received_bytes() + net.dropped_in_transit_bytes() + net.in_network_bytes()
        );
        let duplicates = net.total_received_bytes() - net.total_delivered_bytes();
        assert!(duplicates > 0, "no retransmission arrived as a duplicate");
        let counters = (
            net.events_processed(),
            net.total_enqueued_bytes(),
            net.total_received_bytes(),
            net.total_delivered_bytes(),
        );
        let (rec, _) = net.finish();
        assert!(rec.flows.iter().all(|f| f.dropped_packets > 0));
        let mut hash = crate::Fnv1a::default();
        serde_json::to_writer(&mut hash, &rec.snapshot()).unwrap();
        // Pinned on the engine whose reassembly buffer was a `BTreeMap`; the
        // hash re-pinned when the snapshot lost its per-packet delays and
        // mark series, and again when the run stopped closing a second,
        // zero-length sample at its end (FINGERPRINTS.md).
        assert_eq!(
            (counters, hash.finish()),
            (
                (34_534, 16_657_500, 16_653_000, 11_281_500),
                0x90e3_f43b_8e8b_c905
            ),
        );
    }

    #[test]
    fn random_loss_drops_at_its_probability() {
        // 20 Mbit/s on a 96 Mbit/s link never fills the queue, so every drop
        // is a random loss.
        let mut cfg = base_config(96e6, 5.0);
        cfg.link_mut().loss = 0.05;
        let mut net = Network::new(cfg);
        let h = net.add_flow(
            FlowConfig::primary("lossy", Time::from_millis(20)),
            Box::new(PacedCbr::new(20e6)),
        );
        net.run();
        let admitted = net.total_enqueued_bytes() / 1500;
        let (rec, _) = net.finish();
        let dropped = rec.flows[h.0].dropped_packets;
        let rate = dropped as f64 / (dropped + admitted) as f64;
        assert!((rate - 0.05).abs() < 0.01, "loss rate {rate}");
    }

    #[test]
    fn simulation_is_deterministic() {
        let run = || {
            let mut cfg = base_config(48e6, 5.0);
            cfg.link_mut().loss = 0.01;
            cfg.seed = 99;
            let mut net = Network::new(cfg);
            net.add_flow(
                FlowConfig::primary("a", Time::from_millis(40)),
                Box::new(FixedWindow::new(300)),
            );
            net.add_flow(
                FlowConfig::cross("b", Time::from_millis(40), false),
                Box::new(PacedCbr::new(12e6)),
            );
            net.run();
            (
                net.total_delivered_bytes(),
                net.total_enqueued_bytes(),
                net.events_processed(),
            )
        };
        assert_eq!(run(), run());
    }

    /// A fixed-count open-loop spawner: `count` retiring 15 kB flows, one
    /// every `interval`, starting at t = 0.5 s.
    struct BurstSpawner {
        interval_s: f64,
        emitted: u64,
        count: u64,
    }

    impl FlowSpawner for BurstSpawner {
        fn next_flow(&mut self) -> Option<(Time, FlowConfig, Box<dyn FlowEndpoint>)> {
            if self.emitted >= self.count {
                return None;
            }
            let i = self.emitted;
            self.emitted += 1;
            let at = Time::from_secs_f64(0.5 + i as f64 * self.interval_s);
            let cfg = FlowConfig::cross(format!("spawn-{i}"), Time::from_millis(20), false)
                .starting_at(at)
                .with_size(15_000)
                .retiring();
            let ep: Box<dyn FlowEndpoint> = Box::new(PacedCbr::new(6e6).with_limit(10));
            Some((at, cfg, ep))
        }
    }

    #[test]
    fn spawner_creates_finishes_and_retires_flows() {
        let mut net = Network::new(base_config(96e6, 10.0));
        net.add_spawner(Box::new(BurstSpawner {
            interval_s: 0.2,
            emitted: 0,
            count: 20,
        }));
        net.run();
        assert_eq!(net.flow_count(), 20);
        assert_eq!(net.retired_flow_count(), 20);
        let (rec, endpoints) = net.finish();
        for (i, stats) in rec.flows.iter().enumerate() {
            assert!(stats.started, "flow {i} started");
            assert!(stats.finish.is_some(), "flow {i} finished");
            assert_eq!(stats.delivered_bytes, 15_000, "flow {i} delivered");
            assert!(stats.fct().unwrap() > Time::ZERO);
        }
        // Retirement swapped every endpoint for the inert stub, and a flow
        // whose slot went back to the free list resolves to it too.
        for id in 0..rec.flows.len() {
            assert_eq!(endpoints[id].label(), "retired", "flow {id}");
        }
    }

    #[test]
    fn spawned_runs_are_deterministic() {
        let run = || {
            let mut cfg = base_config(48e6, 8.0);
            cfg.link_mut().loss = 0.005;
            cfg.seed = 7;
            let mut net = Network::new(cfg);
            net.add_flow(
                FlowConfig::primary("long", Time::from_millis(40)),
                Box::new(FixedWindow::new(200)),
            );
            net.add_spawner(Box::new(BurstSpawner {
                interval_s: 0.1,
                emitted: 0,
                count: 50,
            }));
            net.run();
            (
                net.total_delivered_bytes(),
                net.total_enqueued_bytes(),
                net.events_processed(),
                net.flow_count(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn unretired_finite_flows_keep_their_endpoints() {
        let mut net = Network::new(base_config(96e6, 10.0));
        let h = net.add_flow(
            FlowConfig::cross("finite", Time::from_millis(20), false).with_size(15_000),
            Box::new(PacedCbr::new(6e6).with_limit(10)),
        );
        net.run();
        assert_eq!(net.retired_flow_count(), 0);
        let (_, endpoints) = net.finish();
        assert_eq!(endpoints[h.0].label(), "paced-cbr");
    }

    /// A fixed-window endpoint that counts CE echoes on its ACKs.
    struct CeCountingWindow {
        inner: FixedWindow,
        ce_acks: u64,
    }

    impl FlowEndpoint for CeCountingWindow {
        fn on_ack(&mut self, ack: &AckInfo) {
            if ack.ce {
                self.ce_acks += 1;
            }
            self.inner.on_ack(ack);
        }
        fn poll_send(&mut self, now: Time) -> SendAction {
            self.inner.poll_send(now)
        }
        fn label(&self) -> &str {
            "ce-counting"
        }
        fn as_any(&self) -> Option<&dyn std::any::Any> {
            Some(self)
        }
    }

    #[test]
    fn step_marking_hop_echoes_ce_back_to_an_ecn_flow() {
        // An over-buffered window on a 12 Mbit/s link with a 1 ms L4S step
        // threshold: the standing queue far exceeds the threshold, so ECT
        // packets are marked, the receiver echoes CE, and no packets drop
        // (the 100 ms physical buffer is never reached by a 100-packet window).
        let mut cfg = base_config(12e6, 10.0);
        cfg.link_mut().ecn = EcnMarking::Step;
        let mut net = Network::new(cfg);
        let h = net.add_flow(
            FlowConfig::primary("ecn-window", Time::from_millis(20)).with_ecn(true),
            Box::new(CeCountingWindow {
                inner: FixedWindow::new(100),
                ce_acks: 0,
            }),
        );
        net.run();
        assert!(net.recorder().hop_marked_packets[0] > 100, "queue marked");
        assert_eq!(net.recorder().flows[h.0].dropped_packets, 0, "no drops");
        let marks = net.recorder().hop_marked_packets[0];
        let (_, endpoints) = net.finish();
        let ep = endpoints[h.0]
            .as_any()
            .and_then(|a| a.downcast_ref::<CeCountingWindow>())
            .expect("endpoint downcasts");
        assert!(
            ep.ce_acks as f64 >= marks as f64 * 0.9,
            "CE echoes ({}) should track queue marks ({marks})",
            ep.ce_acks
        );
    }

    #[test]
    fn a_run_closes_one_sample_per_interval_and_ends_on_its_duration() {
        // 2 s is twenty whole intervals: the `Sample` at 2 s closes the last
        // one.  2.05 s ends on a partial interval that the close samples.
        for (duration_s, samples) in [(2.0, 20), (2.05, 21)] {
            let mut cfg = base_config(12e6, duration_s);
            cfg.link_mut().ecn = EcnMarking::Step;
            let mut net = Network::new(cfg);
            let h = net.add_flow(
                FlowConfig::primary("ecn-window", Time::from_millis(20)).with_ecn(true),
                Box::new(FixedWindow::new(100)),
            );
            net.run();
            let marks = net.links[0].queue.marks();
            let (rec, _) = net.finish();
            // The close reads the marks whether or not it samples.
            assert!(marks > 0, "the standing queue marks");
            assert_eq!(rec.hop_marked_packets[0], marks);

            let clock = rec.queue_bytes().t;
            let expected: Vec<f64> = (1..=samples)
                .map(|i| Time::from_millis(100 * i).min(Time::from_secs_f64(duration_s)))
                .map(Time::as_secs_f64)
                .collect();
            assert_eq!(clock, expected, "{duration_s} s");
            // Every interval, the last included, spans time and carries the
            // window's throughput: no zero-length closing sample.
            let tput = rec.throughput_mbps(rec.monitored_slot(h.0).unwrap());
            let last = *tput.v.last().unwrap();
            assert!(last > 10.0, "{duration_s} s: last interval {last} Mbit/s");
            assert!(rec.rtt_ms(0).v.last().unwrap().is_finite());
        }
    }

    #[test]
    fn non_ecn_flows_see_identical_runs_when_marking_is_enabled() {
        // ECN enabled on the hop but the flow never negotiates it: every
        // observable outcome must match the marking-off run bit for bit.
        let run = |ecn: EcnMarking| {
            let mut cfg = base_config(12e6, 8.0);
            cfg.link_mut().ecn = ecn;
            cfg.seed = 17;
            let mut net = Network::new(cfg);
            net.add_flow(
                FlowConfig::primary("plain", Time::from_millis(30)),
                Box::new(FixedWindow::new(150)),
            );
            net.run();
            let marks = net.recorder().hop_marked_packets[0];
            (
                net.total_delivered_bytes(),
                net.total_enqueued_bytes(),
                net.events_processed(),
                marks,
            )
        };
        let off = run(EcnMarking::None);
        let on = run(EcnMarking::Step);
        assert_eq!(off.3, 0);
        assert_eq!(on.3, 0, "NotEct packets must never be marked");
        assert_eq!(off, on);
    }

    #[test]
    fn flows_start_at_their_configured_times() {
        let mut net = Network::new(base_config(96e6, 10.0));
        let h = net.add_flow(
            FlowConfig::primary("late", Time::from_millis(20))
                .starting_at(Time::from_secs_f64(5.0)),
            Box::new(PacedCbr::new(10e6)),
        );
        net.run();
        let (rec, _) = net.finish();
        let slot = rec.monitored_slot(h.0).unwrap();
        let before = rec.throughput_mbps(slot).mean_in_range(0.0, 4.5);
        let after = rec.throughput_mbps(slot).mean_in_range(6.0, 10.0);
        assert!(before < 0.5, "no traffic before start, got {before}");
        assert!(
            (after - 10.0).abs() < 1.0,
            "traffic after start, got {after}"
        );
    }

    /// Counts shared by [`ShortFlows`] and its [`ShortWindow`] flows.
    #[derive(Default)]
    struct Census {
        finished: std::sync::atomic::AtomicU64,
        acks: std::sync::atomic::AtomicU64,
    }

    /// A window-limited sender of `total` packets that finishes once all are
    /// acknowledged; it never asks for a timer.
    struct ShortWindow {
        census: std::sync::Arc<Census>,
        window: u64,
        total: u64,
        next_seq: u64,
        cum_ack: u64,
    }

    impl FlowEndpoint for ShortWindow {
        fn on_ack(&mut self, ack: &AckInfo) {
            use std::sync::atomic::Ordering::Relaxed;
            self.census.acks.fetch_add(1, Relaxed);
            self.cum_ack = self.cum_ack.max(ack.cum_ack);
        }
        fn poll_send(&mut self, _now: Time) -> SendAction {
            use std::sync::atomic::Ordering::Relaxed;
            if self.cum_ack >= self.total {
                self.census.finished.fetch_add(1, Relaxed);
                SendAction::Finished
            } else if self.next_seq < self.total.min(self.cum_ack + self.window) {
                self.next_seq += 1;
                SendAction::Transmit {
                    seq: self.next_seq - 1,
                    bytes: 1500,
                    retransmit: false,
                }
            } else {
                SendAction::Idle
            }
        }
        fn label(&self) -> &str {
            "short-window"
        }
    }

    /// `count` retiring [`ShortWindow`] flows (window 16, 48 packets, 100 ms
    /// RTT), one every 2 ms.
    struct ShortFlows {
        census: std::sync::Arc<Census>,
        emitted: u64,
        count: u64,
    }

    impl FlowSpawner for ShortFlows {
        fn next_flow(&mut self) -> Option<(Time, FlowConfig, Box<dyn FlowEndpoint>)> {
            if self.emitted == self.count {
                return None;
            }
            let at = Time::from_millis(2 * self.emitted);
            self.emitted += 1;
            let cfg = FlowConfig::cross("short", Time::from_millis(100), true)
                .starting_at(at)
                .retiring();
            let ep = ShortWindow {
                census: self.census.clone(),
                window: 16,
                total: 48,
                next_seq: 0,
                cum_ack: 0,
            };
            Some((at, cfg, Box::new(ep)))
        }
    }

    #[test]
    fn lanes_bound_the_pools_by_items_in_flight_and_the_calendar_by_flows() {
        use std::sync::atomic::Ordering::Relaxed;
        let census = std::sync::Arc::new(Census::default());
        let hop = LinkConfig::drop_tail(1e9, 0.1).with_prop_delay(Time::from_millis(5));
        let mut net = Network::new(SimConfig::new(1e9, 0.1, 5.0).with_hop(hop));
        net.add_spawner(Box::new(ShortFlows {
            census: census.clone(),
            emitted: 0,
            count: 2_000,
        }));
        net.schedule_clocks();
        let (mut peak_pkts, mut peak_acks, mut peak_flows) = (0, 0, 0);
        let mut peak_events = net.events.len();
        while net.step() {
            // Counted outside the pools: packets by the engine's byte count,
            // ACKs as those sent by receivers minus those seen by senders.
            let pkts = net.in_transit_bytes / 1500;
            let acks = net.total_received_bytes / 1500 - census.acks.load(Relaxed);
            let flows = net.flow_count() as u64 - census.finished.load(Relaxed);
            peak_pkts = peak_pkts.max(pkts as usize);
            peak_acks = peak_acks.max(acks as usize);
            peak_flows = peak_flows.max(flows as usize);
            peak_events = peak_events.max(net.events.len());
        }
        net.close();
        assert_eq!(net.retired_flow_count(), 2_000);
        assert_eq!(
            net.recorder()
                .flows
                .iter()
                .map(|f| f.dropped_packets)
                .sum::<u64>(),
            0
        );
        // A link is reused before the pool grows, so the high-water mark
        // tracks what propagates at once, not the 2000 flows' lanes.
        assert!(
            net.pkts.high_water() <= peak_pkts,
            "{} > {peak_pkts}",
            net.pkts.high_water()
        );
        assert!(
            net.acks.high_water() <= peak_acks,
            "{} > {peak_acks}",
            net.acks.high_water()
        );
        // The calendar holds at most two lane heads per live flow (no flow
        // here sets a timer, and a flow not yet started holds only its
        // `FlowStart`), per hop a `LinkDone` and its inbound lane's head,
        // the spawner's next arrival and the tick and sample clocks.
        let bound = 2 * peak_flows + 2 * net.num_hops() + 1 + 2;
        assert!(
            peak_events < bound,
            "calendar peaked at {peak_events}, bound {bound}"
        );
        // ...whereas one event per item in flight would have needed several
        // times that.
        assert!(
            peak_pkts + peak_acks > 3 * bound,
            "{peak_pkts} + {peak_acks} vs {bound}"
        );
        // The calendar's bucket lists share one pool, so its links track the
        // pending events too, not each of 1 024 buckets' busiest moment.
        assert!(
            net.events.high_water() <= peak_events,
            "{} > {peak_events}",
            net.events.high_water()
        );
        // A flow here finishes only once its last ACK is in, so none drains
        // after retiring: a slot is back on the free list as its flow
        // finishes, and one is reused before the slab grows, so the slab
        // tracks the flows created and not yet finished, not the 2 000.
        assert!(
            net.flows.slots.len() <= peak_flows,
            "{} slots > {peak_flows}",
            net.flows.slots.len()
        );
        assert!(net.flows.get(1_999).is_none(), "the last flow drained");
    }

    /// Flow 0 of a two-hop path whose second hop loses a fifth of what it
    /// is offered: a paced 100-packet flow that finishes as it sends its last
    /// packet, so packets and ACKs are still in its lanes when it does.
    /// Once it finishes a second flow is added; the run ends at 2 s.
    /// Returns the recorder, flow 0's stats when it finished, and whether
    /// flow 0's slot was still held and the second flow's differed from it
    /// right after the second was added.
    fn straggling_run(retiring: bool) -> (Recorder, FlowStats, bool) {
        let lossy = LinkConfig {
            loss: 0.2,
            ..LinkConfig::drop_tail(96e6, 0.1).with_prop_delay(Time::from_millis(5))
        };
        let mut cfg = SimConfig::new(96e6, 0.1, 2.0).with_hop(lossy);
        cfg.seed = 3;
        let mut net = Network::new(cfg);
        let first = FlowConfig::cross("first", Time::from_millis(40), false).with_size(150_000);
        let first = if retiring { first.retiring() } else { first };
        net.add_flow(first, Box::new(PacedCbr::new(50e6).with_limit(100)));
        net.schedule_clocks();
        while net.recorder().flows[0].finish.is_none() {
            assert!(net.step(), "the first flow finishes within the run");
        }
        let at_finish = net.recorder().flows[0].clone();
        net.add_flow(
            FlowConfig::cross("second", Time::from_millis(40), false),
            Box::new(PacedCbr::new(10e6)),
        );
        let (held, second) = (net.flows.slot_of[0], net.flows.slot_of[1]);
        let distinct = held != FREE && second != held;
        while net.step() {}
        net.close();
        if retiring {
            assert!(net.flows.get(0).is_none(), "the retired flow drained");
        }
        let (rec, _) = net.finish();
        (rec, at_finish, distinct)
    }

    #[test]
    fn a_retired_flow_keeps_its_slot_until_its_stragglers_are_gone() {
        let (twin, _, _) = straggling_run(false);
        let (rec, at_finish, distinct) = straggling_run(true);
        assert!(
            distinct,
            "a flow added while the first drains gets its own slot"
        );
        // Stragglers arrived, were dropped in transit and were acknowledged
        // after the flow retired...
        let after = &rec.flows[0];
        assert!(after.received_bytes > at_finish.received_bytes);
        assert!(after.dropped_packets > at_finish.dropped_packets);
        // ...and each counts exactly as it does for a flow never retired.
        for (retired, kept) in rec.flows.iter().zip(&twin.flows) {
            assert_eq!(retired.received_bytes, kept.received_bytes);
            assert_eq!(retired.delivered_bytes, kept.delivered_bytes);
            assert_eq!(retired.dropped_packets, kept.dropped_packets);
            assert_eq!(retired.finish, kept.finish);
        }
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_flow_slot_keeps_only_what_the_packet_path_reads() {
        // 64-bit layout: the boxed endpoint, the reassembly window, the poll
        // time, half the RTT, two lanes, two `u32` hops, the `u32` count of
        // packets in the network (in what was padding) and four flags.
        assert_eq!(std::mem::size_of::<FlowState>(), 112);
    }
}
