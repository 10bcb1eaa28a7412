//! A fleet of short flows that retire as they finish must cost the run only
//! what it reports per flow: the flow's `FlowStats` (label included), its
//! completion record and the engine's 4-byte slot map entry.  The engine's
//! per-flow state is bounded by the flows alive at once, whatever the
//! number ever spawned.

use nimbus_netsim::{
    AckInfo, FlowConfig, FlowEndpoint, FlowSpawner, Network, SendAction, SimConfig, Time,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
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

// SAFETY: every call is forwarded to `System` unchanged; the gauges are
// const-initialised thread-local `Cell`s, which neither allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        resize(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        resize(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        resize(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Packets each flow sends, all in its first window.
const PACKETS: u64 = 4;

/// Sends [`PACKETS`] packets at once and finishes when all are acknowledged.
struct Burst {
    next_seq: u64,
    cum_ack: u64,
}

impl FlowEndpoint for Burst {
    fn on_ack(&mut self, ack: &AckInfo) {
        self.cum_ack = self.cum_ack.max(ack.cum_ack);
    }
    fn poll_send(&mut self, _now: Time) -> SendAction {
        if self.cum_ack >= PACKETS {
            SendAction::Finished
        } else if self.next_seq < PACKETS {
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
        "burst"
    }
}

/// `count` retiring [`Burst`] flows with a 10 ms RTT, one every millisecond:
/// about ten are alive at once.
struct Fleet {
    emitted: u64,
    count: u64,
}

impl FlowSpawner for Fleet {
    fn next_flow(&mut self) -> Option<(Time, FlowConfig, Box<dyn FlowEndpoint>)> {
        if self.emitted == self.count {
            return None;
        }
        let at = Time::from_millis(self.emitted);
        let cfg = FlowConfig::cross(format!("f{}", self.emitted), Time::from_millis(10), false)
            .starting_at(at)
            .with_size(PACKETS * 1500)
            .retiring();
        self.emitted += 1;
        let burst = Burst {
            next_seq: 0,
            cum_ack: 0,
        };
        Some((at, cfg, Box::new(burst)))
    }
}

/// The peak live heap of building, running and finishing a network that
/// spawns `count` flows, above what was live before; checks that every flow
/// ran to completion.
fn peak_heap_of(count: u64) -> i64 {
    let before = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(before));
    let secs = count as f64 / 1000.0 + 0.5;
    let mut net = Network::new(SimConfig::new(1e9, 0.1, secs));
    net.add_spawner(Box::new(Fleet { emitted: 0, count }));
    net.run();
    assert_eq!(net.retired_flow_count() as u64, count);
    let (recorder, endpoints) = net.finish();
    assert_eq!(recorder.fct_stream().len() as u64, count);
    drop((recorder, endpoints));
    PEAK.with(Cell::get) - before
}

#[test]
fn the_peak_heap_grows_only_by_what_each_flow_reports() {
    // 4 000 and 32 000 flows fill every per-flow `Vec` to the same fraction
    // of its capacity (4 096 and 32 768), so the difference is the per-flow
    // cost and not a doubling caught at a different moment.
    let (small, large) = (4_000, 32_000);
    let per_flow = (peak_heap_of(large) - peak_heap_of(small)) as f64 / (large - small) as f64;
    // `FlowStats` is 72 B, a completion record (a flow id) 4 B, a slot map
    // entry 4 B and a label a few bytes; a slot of engine state (112 B) per
    // flow ever spawned would not fit.
    assert!(per_flow <= 96.0, "{per_flow:.1} B per extra flow");
}
