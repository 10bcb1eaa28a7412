//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed from the benchmark's own files, around the
//! calls into each layer (see `shim`); nothing inside the program is
//! instrumented.  A span's *self* time is its duration minus the part its
//! child spans cover, so the self times of one rep sum to the rep's wall
//! time exactly.  Heap counters are read at the same boundaries.
//!
//! The recorder aggregates per span name (count, inclusive and self time,
//! inclusive and self allocations) in fixed arrays and keeps raw durations
//! only for `cc.on_report`, in a buffer sized before the rep starts — the
//! recorder itself never allocates inside a timed region.
//!
//! The active recorder lives in a thread-local: the shims are `Send` boxes
//! handed to the engine and cannot carry a borrow of it.

use crate::alloc;
use std::cell::RefCell;
use std::time::Instant;

/// The span names of the ledger, one per layer boundary crossed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Span {
    /// One whole rep: set-up plus the timed region.
    Rep,
    /// Scenario → network + endpoints (`experiments::runner` build path), or
    /// controllers + scripts for the mock host.
    RunnerBuild,
    /// `Network::run` — the event loop; self time is the engine's own.
    EngineRun,
    /// The mock host's callback loop (`core_embed`); self time is the mock
    /// link arithmetic.
    HostRun,
    /// `FlowSpawner::next_flow` — building one fleet flow.
    FleetNextFlow,
    /// `FlowEndpoint::on_ack` on a `transport::Sender`.
    SenderOnAck,
    /// `FlowEndpoint::poll_send`.
    SenderPollSend,
    /// `FlowEndpoint::on_tick` (report aggregation + hand-off to the CCA).
    SenderOnTick,
    /// `FlowEndpoint::on_start` / `on_packet_dropped`.
    SenderOther,
    /// `CongestionControl::on_packet_acked`.
    CcOnAck,
    /// `CongestionControl::on_packets_lost`.
    CcOnLoss,
    /// `CongestionControl::on_congestion_event`.
    CcOnEvent,
    /// `CongestionControl::on_report` — estimator → detector → FFT for Nimbus.
    CcOnReport,
}

impl Span {
    /// Every span, in ledger order.
    pub const ALL: [Span; 13] = [
        Span::Rep,
        Span::RunnerBuild,
        Span::EngineRun,
        Span::HostRun,
        Span::FleetNextFlow,
        Span::SenderOnAck,
        Span::SenderPollSend,
        Span::SenderOnTick,
        Span::SenderOther,
        Span::CcOnAck,
        Span::CcOnLoss,
        Span::CcOnEvent,
        Span::CcOnReport,
    ];

    /// The span's name in the ledger.
    pub fn name(self) -> &'static str {
        match self {
            Span::Rep => "rep",
            Span::RunnerBuild => "runner.build",
            Span::EngineRun => "engine.run",
            Span::HostRun => "host.run",
            Span::FleetNextFlow => "fleet.next_flow",
            Span::SenderOnAck => "sender.on_ack",
            Span::SenderPollSend => "sender.poll_send",
            Span::SenderOnTick => "sender.on_tick",
            Span::SenderOther => "sender.other",
            Span::CcOnAck => "cc.on_ack",
            Span::CcOnLoss => "cc.on_loss",
            Span::CcOnEvent => "cc.on_event",
            Span::CcOnReport => "cc.on_report",
        }
    }
}

const SPANS: usize = Span::ALL.len();
/// Deepest nesting: rep → engine.run → sender.* → cc.*.
const MAX_DEPTH: usize = 6;
/// log2-ns histogram buckets: bucket `b` holds durations in `[2^b, 2^(b+1))` ns.
pub const HIST_BUCKETS: usize = 40;

/// Aggregate of every closed span of one name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanAgg {
    /// Spans closed.
    pub count: u64,
    /// Inclusive time, ns.
    pub total_ns: u64,
    /// Time not covered by child spans, ns.
    pub self_ns: u64,
    /// Allocation events inside the span, children included.
    pub allocs: u64,
    /// Allocation events not inside a child span.
    pub self_allocs: u64,
    /// Bytes requested inside the span, children included.
    pub alloc_bytes: u64,
    /// Histogram of inclusive durations over log2-ns buckets.
    pub hist: [u32; HIST_BUCKETS],
}

impl Default for SpanAgg {
    fn default() -> Self {
        SpanAgg {
            count: 0,
            total_ns: 0,
            self_ns: 0,
            allocs: 0,
            self_allocs: 0,
            alloc_bytes: 0,
            hist: [0; HIST_BUCKETS],
        }
    }
}

#[derive(Clone, Copy)]
struct Frame {
    span: Span,
    start: Instant,
    allocs0: u64,
    alloc_bytes0: u64,
    child_ns: u64,
    child_allocs: u64,
}

/// Counters the shims add up next to the spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Data packets sent by every wrapped `Sender`.
    pub packets_sent: u64,
    /// Of those, retransmissions.
    pub packets_retransmitted: u64,
    /// SACK-scoreboard positions examined by loss inference.
    pub scoreboard_scan_steps: u64,
    /// Flows yielded by the wrapped spawner.
    pub flows_spawned: u64,
}

/// Everything one traced rep recorded.
#[derive(Debug, Clone)]
pub struct RepTrace {
    agg: [SpanAgg; SPANS],
    /// Counters the shims maintain.
    pub counters: Counters,
    /// Duration in ns of every `cc.on_report` span (the primary flow's in a
    /// simulation, every flow's on the mock host), in call order.
    pub report_ns: Vec<u32>,
    /// Spans opened deeper than the recorder can nest (must stay 0).
    pub overflowed: u64,
}

impl RepTrace {
    /// The aggregate for one span name.
    pub fn span(&self, span: Span) -> &SpanAgg {
        &self.agg[span as usize]
    }

    /// Sum of the self times of every span, ns — equals the root span's
    /// inclusive time when the tree is well formed.
    pub fn self_ns_sum(&self) -> u64 {
        self.agg.iter().map(|a| a.self_ns).sum()
    }
}

struct Recorder {
    stack: [Option<Frame>; MAX_DEPTH],
    depth: usize,
    rep: RepTrace,
}

thread_local! {
    static ACTIVE: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Start recording on this thread.  `report_capacity` sizes the raw
/// `cc.on_report` sample buffer up front so recording never allocates.
pub fn start(report_capacity: usize) {
    ACTIVE.with(|a| {
        *a.borrow_mut() = Some(Recorder {
            stack: [None; MAX_DEPTH],
            depth: 0,
            rep: RepTrace {
                agg: [SpanAgg::default(); SPANS],
                counters: Counters::default(),
                report_ns: Vec::with_capacity(report_capacity),
                overflowed: 0,
            },
        });
    });
}

/// Stop recording and hand back what was recorded.  Panics if no recording
/// is active or a span is still open — both are bugs in the benchmark.
pub fn finish() -> RepTrace {
    ACTIVE.with(|a| {
        let rec = a.borrow_mut().take().expect("trace::finish without start");
        assert_eq!(rec.depth, 0, "trace finished with a span still open");
        rec.rep
    })
}

/// Closes its span when dropped.
#[must_use = "the span closes when the guard is dropped"]
pub struct SpanGuard {
    /// False when no recording was active at open: the drop must not pop.
    recorded: bool,
}

/// Open `span`; it closes when the returned guard drops.  A no-op when no
/// recording is active.
pub fn enter(span: Span) -> SpanGuard {
    SpanGuard {
        recorded: open(span),
    }
}

fn open(span: Span) -> bool {
    ACTIVE.with(|a| {
        let mut a = a.borrow_mut();
        let Some(rec) = a.as_mut() else { return false };
        if rec.depth >= MAX_DEPTH {
            rec.rep.overflowed += 1;
            rec.depth += 1;
            return true;
        }
        let heap = alloc::snapshot();
        rec.stack[rec.depth] = Some(Frame {
            span,
            allocs0: heap.allocs,
            alloc_bytes0: heap.alloc_bytes,
            child_ns: 0,
            child_allocs: 0,
            // Taken last, so the bookkeeping above is outside the span.
            start: Instant::now(),
        });
        rec.depth += 1;
        true
    })
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        // Taken first, so the bookkeeping below is outside the span.
        let end = Instant::now();
        if !self.recorded {
            return;
        }
        ACTIVE.with(|a| {
            let mut a = a.borrow_mut();
            let Some(rec) = a.as_mut() else { return };
            rec.depth -= 1;
            if rec.depth >= MAX_DEPTH {
                return;
            }
            let frame = rec.stack[rec.depth]
                .take()
                .expect("span closed without open");
            let heap = alloc::snapshot();
            let ns = end.duration_since(frame.start).as_nanos() as u64;
            let allocs = heap.allocs - frame.allocs0;
            let agg = &mut rec.rep.agg[frame.span as usize];
            agg.count += 1;
            agg.total_ns += ns;
            agg.self_ns += ns.saturating_sub(frame.child_ns);
            agg.allocs += allocs;
            agg.self_allocs += allocs - frame.child_allocs;
            agg.alloc_bytes += heap.alloc_bytes - frame.alloc_bytes0;
            let bucket = (63 - ns.max(1).leading_zeros() as usize).min(HIST_BUCKETS - 1);
            agg.hist[bucket] += 1;
            if frame.span == Span::CcOnReport
                && rec.rep.report_ns.len() < rec.rep.report_ns.capacity()
            {
                rec.rep.report_ns.push(ns.min(u32::MAX as u64) as u32);
            }
            if rec.depth > 0 {
                if let Some(parent) = rec.stack[rec.depth - 1].as_mut() {
                    parent.child_ns += ns;
                    parent.child_allocs += allocs;
                }
            }
        });
    }
}

/// Add to the shim-maintained counters (no-op when not recording).
pub fn count(f: impl FnOnce(&mut Counters)) {
    ACTIVE.with(|a| {
        if let Some(rec) = a.borrow_mut().as_mut() {
            f(&mut rec.rep.counters);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_is_span_minus_children_and_sums_to_the_root() {
        start(4);
        {
            let _rep = enter(Span::Rep);
            spin(200_000);
            {
                let _run = enter(Span::EngineRun);
                spin(200_000);
                for _ in 0..3 {
                    let _ack = enter(Span::SenderOnAck);
                    spin(50_000);
                    let _cc = enter(Span::CcOnReport);
                    spin(50_000);
                }
            }
        }
        let rep = finish();
        let root = rep.span(Span::Rep);
        assert_eq!(root.count, 1);
        assert_eq!(rep.span(Span::SenderOnAck).count, 3);
        assert_eq!(rep.span(Span::CcOnReport).count, 3);
        assert_eq!(rep.report_ns.len(), 3);
        assert_eq!(rep.overflowed, 0);
        // Self times partition the root exactly.
        assert_eq!(rep.self_ns_sum(), root.total_ns);
        // Children are charged to themselves, not to their parents.
        let run = rep.span(Span::EngineRun);
        assert_eq!(
            run.self_ns,
            run.total_ns - rep.span(Span::SenderOnAck).total_ns
        );
        assert!(rep.span(Span::CcOnReport).self_ns >= 150_000);
        assert!(rep.span(Span::SenderOnAck).self_ns >= 150_000);
        assert!(rep.span(Span::SenderOnAck).self_ns < rep.span(Span::SenderOnAck).total_ns);
    }

    #[test]
    fn allocations_are_attributed_to_the_innermost_span() {
        start(0);
        {
            let _rep = enter(Span::Rep);
            let a = vec![0u8; 64];
            {
                let _b = enter(Span::RunnerBuild);
                let b = vec![0u8; 128];
                std::hint::black_box(&b);
            }
            std::hint::black_box(&a);
        }
        let rep = finish();
        assert_eq!(rep.span(Span::RunnerBuild).allocs, 1);
        assert_eq!(rep.span(Span::RunnerBuild).alloc_bytes, 128);
        assert_eq!(rep.span(Span::Rep).allocs, 2);
        assert_eq!(rep.span(Span::Rep).self_allocs, 1);
    }

    #[test]
    fn spans_outside_a_recording_are_no_ops() {
        let _g = enter(Span::Rep);
        count(|c| c.flows_spawned += 1);
    }
}
