//! Packets and flow identifiers.

use nimbus_core_types::Time;

/// Identifier of a flow within one simulation.
pub type FlowId = usize;

/// The two-bit ECN codepoint a packet carries (RFC 3168 / RFC 9331).
///
/// Flows that negotiate ECN send their data packets as [`Ect`]
/// (ECN-Capable Transport); a marking queue then flips the codepoint to
/// [`Ce`] (Congestion Experienced) *instead of dropping*, and the receiver
/// echoes the mark back to the sender on the ACK.  Non-ECN flows stay
/// [`NotEct`] and always take the drop path, so enabling marking on a queue
/// is invisible to them.
///
/// [`Ect`]: EcnCodepoint::Ect
/// [`Ce`]: EcnCodepoint::Ce
/// [`NotEct`]: EcnCodepoint::NotEct
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EcnCodepoint {
    /// Not ECN-capable: the queue must drop, never mark.
    #[default]
    NotEct,
    /// ECN-capable transport: the queue may mark instead of dropping.
    Ect,
    /// Congestion experienced: an AQM has marked this packet.
    Ce,
}

/// The maximum segment size, in bytes, of every simulated flow.  The sender
/// cuts its data into segments of this size, the controllers' `PathInfo`
/// carries it, and a queue always admits at least one segment of it.
pub const MSS: u32 = 1500;

/// A data packet travelling from a sender towards its receiver.
///
/// Sequence numbers count whole segments (not bytes): every congestion
/// controller in the paper is evaluated with MSS-sized segments, and working
/// in segments keeps the arithmetic in the controllers identical to the
/// papers they come from (Cubic, Vegas and Copa are all expressed in packets).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// The flow this packet belongs to.
    pub flow: FlowId,
    /// Segment sequence number (0-based, in packets).
    pub seq: u64,
    /// Size of the segment in bytes (including an abstracted header).
    pub size_bytes: u32,
    /// Time the sender transmitted this packet (enqueued it at the bottleneck).
    pub sent_at: Time,
    /// Whether this transmission is a retransmission of an earlier segment.
    pub retransmit: bool,
    /// Time the packet entered its current hop's queue (re-stamped by the
    /// engine at every hop of a multi-link path).
    pub enqueued_at: Time,
    /// Index of the path hop the packet currently occupies (queue or link).
    pub hop: usize,
    /// Total queueing delay accumulated across every hop traversed so far —
    /// the end-to-end "self-inflicted" delay a path imposes on the packet.
    pub cum_queue_delay: Time,
    /// The ECN codepoint the packet carries ([`EcnCodepoint::NotEct`] unless
    /// the sending flow negotiated ECN; marking queues flip Ect → Ce).
    pub ecn: EcnCodepoint,
}

impl Packet {
    /// Create a new data packet; the engine stamps `enqueued_at` on arrival at
    /// the bottleneck queue.
    pub fn new(flow: FlowId, seq: u64, size_bytes: u32, sent_at: Time, retransmit: bool) -> Self {
        Packet {
            flow,
            seq,
            size_bytes,
            sent_at,
            retransmit,
            enqueued_at: sent_at,
            hop: 0,
            cum_queue_delay: Time::ZERO,
            ecn: EcnCodepoint::NotEct,
        }
    }

    /// Queueing delay experienced so far if the packet left the queue at `now`.
    pub fn queueing_delay(&self, now: Time) -> Time {
        now.saturating_sub(self.enqueued_at)
    }
}

/// An acknowledgement travelling back to the sender.
///
/// The receiver acknowledges cumulatively and additionally echoes which
/// segment triggered the ACK, so senders can detect reordering/duplication
/// and take RTT samples exactly as a real TCP timestamp option would allow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AckPacket {
    /// The flow being acknowledged.
    pub flow: FlowId,
    /// Cumulative acknowledgement: all segments with `seq < cum_ack` have
    /// been received.
    pub cum_ack: u64,
    /// The sequence number of the data segment that triggered this ACK.
    pub triggering_seq: u64,
    /// Size in bytes of the triggering data segment — the bytes that
    /// physically arrived at the receiver with this ACK's trigger (used for
    /// receive-rate measurement; `newly_delivered_bytes` jumps on hole fills
    /// and is 0 for out-of-order arrivals, so it is unusable for rates).
    pub triggering_bytes: u32,
    /// `sent_at` timestamp of the triggering data segment (echoed back).
    pub data_sent_at: Time,
    /// Time the triggering data segment arrived at the receiver.
    pub received_at: Time,
    /// Number of data bytes newly delivered to the receiver in order as a
    /// result of the triggering segment (0 for out-of-order arrivals).
    pub newly_delivered_bytes: u64,
    /// Whether the triggering data segment arrived carrying
    /// [`EcnCodepoint::Ce`] — the receiver's CE echo (ECE, in TCP terms).
    pub ce: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queueing_delay_is_relative_to_enqueue() {
        let mut p = Packet::new(0, 7, 1500, Time::from_millis(10), false);
        p.enqueued_at = Time::from_millis(12);
        assert_eq!(
            p.queueing_delay(Time::from_millis(20)),
            Time::from_millis(8)
        );
        // Before enqueue time: saturates to zero.
        assert_eq!(p.queueing_delay(Time::from_millis(5)), Time::ZERO);
    }

    #[test]
    fn packet_construction_defaults_enqueue_to_send_time() {
        let p = Packet::new(3, 0, 1000, Time::from_millis(1), true);
        assert_eq!(p.enqueued_at, Time::from_millis(1));
        assert!(p.retransmit);
        assert_eq!(p.flow, 3);
    }
}
