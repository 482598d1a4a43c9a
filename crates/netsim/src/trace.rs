//! Event tracing hooks.
//!
//! A [`Tracer`] observes packet-level events as the engine processes them —
//! the simulator's analogue of smoltcp's pcap dumps (and the hook the
//! `telemetry` crate's actual pcap exporter hangs off). Experiments use it
//! to record queue-occupancy time series via `telemetry`'s
//! `QueueSeriesTracer` (the paper's "buffer period" analysis), drop
//! patterns (the phase-effect demonstration), and packet captures.

use crate::id::{AgentId, ChannelId, NodeId};
use crate::packet::Packet;
use crate::queue::DropReason;
use crate::time::SimTime;

/// A packet-level event visible to tracers.
#[derive(Debug)]
pub enum TraceEvent<'a> {
    /// A packet was accepted into a channel buffer; `qlen` is the length
    /// after insertion.
    Enqueue {
        /// The channel whose buffer accepted the packet.
        channel: ChannelId,
        /// The accepted packet.
        packet: &'a Packet,
        /// Buffer occupancy after insertion.
        qlen: usize,
    },
    /// A packet was discarded at a channel.
    Drop {
        /// The dropping channel.
        channel: ChannelId,
        /// The discarded packet.
        packet: &'a Packet,
        /// Why it was discarded.
        reason: DropReason,
        /// Buffer occupancy at the time of the drop.
        qlen: usize,
    },
    /// A channel began serializing a packet; `qlen` is the length after the
    /// packet left the buffer.
    TxStart {
        /// The transmitting channel.
        channel: ChannelId,
        /// The packet being transmitted.
        packet: &'a Packet,
        /// Buffer occupancy after removal.
        qlen: usize,
    },
    /// A packet arrived at a node (after propagation).
    Arrive {
        /// The node reached.
        node: NodeId,
        /// The arriving packet.
        packet: &'a Packet,
    },
    /// A packet was handed to a transport endpoint.
    Deliver {
        /// The receiving agent.
        agent: AgentId,
        /// The delivered packet.
        packet: &'a Packet,
    },
}

/// A set of [`TraceEvent`] kinds: what a [`Tracer`] declares it listens
/// to, one bit per variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceKinds(u8);

impl TraceKinds {
    /// No kind at all (an empty slot).
    pub(crate) const NONE: TraceKinds = TraceKinds(0);
    /// [`TraceEvent::Enqueue`].
    pub const ENQUEUE: TraceKinds = TraceKinds(1 << 0);
    /// [`TraceEvent::Drop`].
    pub const DROP: TraceKinds = TraceKinds(1 << 1);
    /// [`TraceEvent::TxStart`].
    pub const TX_START: TraceKinds = TraceKinds(1 << 2);
    /// [`TraceEvent::Arrive`].
    pub const ARRIVE: TraceKinds = TraceKinds(1 << 3);
    /// [`TraceEvent::Deliver`].
    pub const DELIVER: TraceKinds = TraceKinds(1 << 4);
    /// Every kind.
    pub const ALL: TraceKinds = TraceKinds(0b1_1111);

    /// `true` if the two sets share a kind.
    pub(crate) const fn intersects(self, other: TraceKinds) -> bool {
        self.0 & other.0 != 0
    }
}

impl std::ops::BitOr for TraceKinds {
    type Output = TraceKinds;
    fn bitor(self, other: TraceKinds) -> TraceKinds {
        TraceKinds(self.0 | other.0)
    }
}

/// Observer of engine events.
///
/// The slot's contract is time order: `now` never decreases from one
/// call to the next, and same-instant events arrive in the order the
/// engine dispatched them. The engine's one calendar, popped in
/// `(time, key)` order, gives that — so a tracer may write each event
/// through as it happens and never needs to buffer or sort.
///
/// A tracer is called only for the kinds it declares in [`wants`]. The
/// declaration is read once, when
/// [`Engine::set_tracer`](crate::engine::Engine::set_tracer) installs the
/// tracer, and kept beside it in the slot: each event site then tests one
/// bit, so a listener to a single kind costs nothing at the other four.
///
/// [`wants`]: Tracer::wants
pub trait Tracer {
    /// Called for every traced event of a declared kind, in simulation
    /// order.
    fn trace(&mut self, now: SimTime, event: &TraceEvent<'_>);

    /// The event kinds this tracer listens to; every kind unless
    /// overridden. Must not change once the tracer is installed.
    fn wants(&self) -> TraceKinds {
        TraceKinds::ALL
    }
}

/// Order-sensitive 64-bit digest of the packet-event stream, plus
/// per-kind counters.
///
/// Every event the engine processes — enqueue, drop, transmission start,
/// node arrival, agent delivery — is folded into a running 64-bit hash
/// together with its timestamp, the id it happened at, the packet uid,
/// and (where meaningful) the queue length. Two runs with equal digests
/// processed the same events in the same order at the same simulated
/// times: the digest is a whole-run fingerprint cheap enough (a couple of
/// multiplies per event, no allocation) to leave on unconditionally.
///
/// The engine maintains one of these for every run (see
/// [`crate::engine::Engine::trace_digest`]); it can also be installed as
/// a standalone [`Tracer`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceDigest {
    hash: u64,
    /// Packets accepted into buffers.
    pub enqueues: u64,
    /// Packets discarded (any [`DropReason`]).
    pub drops: u64,
    /// Transmissions started.
    pub tx_starts: u64,
    /// Node arrivals.
    pub arrivals: u64,
    /// Agent deliveries.
    pub deliveries: u64,
}

impl Default for TraceDigest {
    fn default() -> Self {
        TraceDigest {
            // FNV-1a 64-bit offset basis: a fixed, documented start state.
            hash: 0xcbf2_9ce4_8422_2325,
            enqueues: 0,
            drops: 0,
            tx_starts: 0,
            arrivals: 0,
            deliveries: 0,
        }
    }
}

impl TraceDigest {
    /// A fresh digest.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current digest value.
    pub fn value(&self) -> u64 {
        self.hash
    }

    /// The digest as the canonical 16-hex-digit string used in run
    /// manifests.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.hash)
    }

    /// Total events folded in, across all kinds.
    pub fn events(&self) -> u64 {
        self.enqueues + self.drops + self.tx_starts + self.arrivals + self.deliveries
    }

    /// Fold one word into the running hash (order-sensitive).
    fn mix(&mut self, word: u64) {
        let mut h = self.hash ^ word;
        h = h.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^= h >> 29;
        self.hash = h;
    }

    fn fold(&mut self, kind: u64, now: SimTime, id: u64, uid: u64, aux: u64) {
        self.mix(kind);
        self.mix(now.as_nanos());
        self.mix(id);
        self.mix(uid);
        self.mix(aux);
    }

    /// Fold a packet accepted into `channel`'s buffer.
    pub fn record_enqueue(&mut self, now: SimTime, channel: ChannelId, uid: u64, qlen: usize) {
        self.enqueues += 1;
        self.fold(1, now, channel.index() as u64, uid, qlen as u64);
    }

    /// Fold a packet discarded at `channel`.
    pub fn record_drop(
        &mut self,
        now: SimTime,
        channel: ChannelId,
        uid: u64,
        reason: DropReason,
        qlen: usize,
    ) {
        self.drops += 1;
        let tag = match reason {
            DropReason::BufferOverflow => 0,
            DropReason::EarlyDrop => 1,
            DropReason::ForcedDrop => 2,
            DropReason::Fault => 3,
        };
        self.fold(
            2 | (tag << 8),
            now,
            channel.index() as u64,
            uid,
            qlen as u64,
        );
    }

    /// Fold the start of a transmission on `channel`.
    pub fn record_tx_start(&mut self, now: SimTime, channel: ChannelId, uid: u64, qlen: usize) {
        self.tx_starts += 1;
        self.fold(3, now, channel.index() as u64, uid, qlen as u64);
    }

    /// Fold a packet arrival at `node`.
    pub fn record_arrive(&mut self, now: SimTime, node: NodeId, uid: u64) {
        self.arrivals += 1;
        self.fold(4, now, node.index() as u64, uid, 0);
    }

    /// Fold a packet delivery to `agent`.
    pub fn record_deliver(&mut self, now: SimTime, agent: AgentId, uid: u64) {
        self.deliveries += 1;
        self.fold(5, now, agent.index() as u64, uid, 0);
    }

    /// Fold another digest into this one: counters add, and the other's
    /// hash is mixed into the running hash. Order-sensitive — the
    /// partitioned engine absorbs per-region digests in region order,
    /// making the merged value a pure function of the ordered per-region
    /// streams.
    pub fn absorb(&mut self, other: &TraceDigest) {
        self.mix(other.hash);
        self.enqueues += other.enqueues;
        self.drops += other.drops;
        self.tx_starts += other.tx_starts;
        self.arrivals += other.arrivals;
        self.deliveries += other.deliveries;
    }
}

impl Tracer for TraceDigest {
    fn trace(&mut self, now: SimTime, event: &TraceEvent<'_>) {
        match event {
            TraceEvent::Enqueue {
                channel,
                packet,
                qlen,
            } => self.record_enqueue(now, *channel, packet.uid, *qlen),
            TraceEvent::Drop {
                channel,
                packet,
                reason,
                qlen,
            } => self.record_drop(now, *channel, packet.uid, *reason, *qlen),
            TraceEvent::TxStart {
                channel,
                packet,
                qlen,
            } => self.record_tx_start(now, *channel, packet.uid, *qlen),
            TraceEvent::Arrive { node, packet } => self.record_arrive(now, *node, packet.uid),
            TraceEvent::Deliver { agent, packet } => self.record_deliver(now, *agent, packet.uid),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::AgentId;
    use crate::packet::Dest;
    use crate::wire::Segment;

    fn pkt() -> Packet {
        Packet {
            uid: 1,
            src: AgentId(0),
            dest: Dest::Agent(AgentId(1)),
            size_bytes: 1000,
            segment: Segment::Raw,
            sent_at: SimTime::ZERO,
        }
    }

    #[test]
    fn digest_is_order_sensitive() {
        let p = pkt();
        let enq = TraceEvent::Enqueue {
            channel: ChannelId(0),
            packet: &p,
            qlen: 1,
        };
        let arr = TraceEvent::Arrive {
            node: NodeId(3),
            packet: &p,
        };
        let mut ab = TraceDigest::new();
        ab.trace(SimTime::from_secs(1), &enq);
        ab.trace(SimTime::from_secs(1), &arr);
        let mut ba = TraceDigest::new();
        ba.trace(SimTime::from_secs(1), &arr);
        ba.trace(SimTime::from_secs(1), &enq);
        assert_ne!(ab.value(), ba.value(), "order must matter");
        assert_eq!(ab.events(), 2);
        assert_eq!((ab.enqueues, ab.arrivals), (1, 1));
    }

    #[test]
    fn digest_separates_time_id_and_kind() {
        let p = pkt();
        let at = |t: u64| {
            let mut d = TraceDigest::new();
            d.trace(
                SimTime::from_secs(t),
                &TraceEvent::Deliver {
                    agent: AgentId(1),
                    packet: &p,
                },
            );
            d.value()
        };
        assert_ne!(at(1), at(2), "time must be folded in");

        let drop_with = |reason: DropReason| {
            let mut d = TraceDigest::new();
            d.trace(
                SimTime::ZERO,
                &TraceEvent::Drop {
                    channel: ChannelId(0),
                    packet: &p,
                    reason,
                    qlen: 0,
                },
            );
            d.value()
        };
        assert_ne!(
            drop_with(DropReason::EarlyDrop),
            drop_with(DropReason::ForcedDrop),
            "drop reason must be folded in"
        );
    }

    #[test]
    fn digest_identical_streams_match() {
        let p = pkt();
        let run = || {
            let mut d = TraceDigest::new();
            for t in 0..50 {
                d.trace(
                    SimTime::from_secs(t),
                    &TraceEvent::Enqueue {
                        channel: ChannelId((t % 3) as u32),
                        packet: &p,
                        qlen: t as usize,
                    },
                );
            }
            (d.value(), d.hex())
        };
        assert_eq!(run(), run());
        assert_eq!(run().1.len(), 16, "canonical hex form is 16 digits");
    }
}
