//! Crash flight recorder: the last N trace events, kept per channel.
//!
//! A [`FlightRecorder`] is a [`Tracer`] that copies every event into a
//! fixed-depth ring — one ring per channel (enqueue/drop/tx-start) plus
//! one shared endpoint ring (arrive/deliver). Memory is bounded by
//! `depth × channels`, so it can stay installed for arbitrarily long
//! runs; when a run panics or a golden-digest gate trips, [`dump`]
//! renders the retained tail so the divergence is debuggable instead of
//! opaque.
//!
//! [`FlightDumpGuard`] automates the panic case: construct it after
//! installing the recorder, and its `Drop` impl writes the dump to
//! stderr if the thread is unwinding.
//!
//! [`dump`]: FlightRecorder::dump

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::rc::Rc;

use netsim::id::ChannelId;
use netsim::packet::Packet;
use netsim::queue::DropReason;
use netsim::time::SimTime;
use netsim::trace::{TraceEvent, Tracer};

/// Default ring depth per channel.
pub const DEFAULT_FLIGHT_DEPTH: usize = 64;

/// What happened, for a retained event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// Packet accepted into a channel buffer.
    Enqueue,
    /// Packet discarded at a channel.
    Drop(DropReason),
    /// Channel began serializing a packet.
    TxStart,
    /// Packet arrived at a node.
    Arrive,
    /// Packet handed to a transport endpoint.
    Deliver,
}

/// One owned record in a flight ring — a compact copy of a
/// [`TraceEvent`], with the packet reduced to its identifying fields.
#[derive(Debug, Clone)]
pub struct FlightEvent {
    /// When the event happened.
    pub time: SimTime,
    /// What happened.
    pub kind: FlightKind,
    /// Uid of the packet involved.
    pub uid: u64,
    /// Segment kind tag (`data`, `ack`, `nack`, …).
    pub segment: &'static str,
    /// Index of the id the event happened at (channel, node or agent,
    /// depending on `kind`).
    pub at: u32,
    /// Buffer occupancy, for the channel-side kinds.
    pub qlen: Option<usize>,
}

impl FlightEvent {
    fn render(&self, out: &mut String) {
        let kind = match self.kind {
            FlightKind::Enqueue => "enqueue".to_string(),
            FlightKind::Drop(reason) => format!("DROP({reason:?})"),
            FlightKind::TxStart => "tx".to_string(),
            FlightKind::Arrive => "arrive".to_string(),
            FlightKind::Deliver => "deliver".to_string(),
        };
        let _ = write!(
            out,
            "{} {:<18} uid={} {}",
            self.time, kind, self.uid, self.segment
        );
        if let Some(q) = self.qlen {
            let _ = write!(out, " q={q}");
        }
        out.push('\n');
    }
}

/// Fixed-depth ring of [`FlightEvent`]s.
#[derive(Debug, Default)]
struct Ring {
    events: VecDeque<FlightEvent>,
}

impl Ring {
    fn push(&mut self, depth: usize, ev: FlightEvent) {
        if self.events.len() == depth {
            self.events.pop_front();
        }
        self.events.push_back(ev);
    }
}

/// A [`Tracer`] retaining the last `depth` events per channel plus the
/// last `depth` endpoint events. See the module docs.
#[derive(Debug)]
pub struct FlightRecorder {
    depth: usize,
    /// Indexed by channel id; grown on demand.
    channels: Vec<Ring>,
    /// Arrive/Deliver events, all nodes and agents together.
    endpoints: Ring,
    /// Total events seen (not just retained).
    seen: u64,
}

impl FlightRecorder {
    /// A recorder keeping `depth` events per ring (`depth == 0` is
    /// coerced to 1 so a dump is never structurally empty).
    pub fn new(depth: usize) -> Self {
        FlightRecorder {
            depth: depth.max(1),
            channels: Vec::new(),
            endpoints: Ring::default(),
            seen: 0,
        }
    }

    /// The configured per-ring depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Total events observed over the recorder's lifetime (retained or
    /// not).
    pub fn events_seen(&self) -> u64 {
        self.seen
    }

    fn channel_ring(&mut self, ch: ChannelId) -> &mut Ring {
        let idx = ch.index();
        if idx >= self.channels.len() {
            self.channels.resize_with(idx + 1, Ring::default);
        }
        &mut self.channels[idx]
    }

    fn record_channel(
        &mut self,
        ch: ChannelId,
        time: SimTime,
        kind: FlightKind,
        packet: &Packet,
        qlen: usize,
    ) {
        let depth = self.depth;
        let ev = FlightEvent {
            time,
            kind,
            uid: packet.uid,
            segment: packet.segment.kind_str(),
            at: ch.index() as u32,
            qlen: Some(qlen),
        };
        self.channel_ring(ch).push(depth, ev);
    }

    /// Render every non-empty ring, channels first (in id order), then
    /// the endpoint ring — each chronologically oldest-to-newest.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "flight recorder: {} events seen, depth {} per ring",
            self.seen, self.depth
        );
        for (idx, ring) in self.channels.iter().enumerate() {
            if ring.events.is_empty() {
                continue;
            }
            let _ = writeln!(out, "--- channel {idx} (last {}) ---", ring.events.len());
            for ev in &ring.events {
                ev.render(&mut out);
            }
        }
        if !self.endpoints.events.is_empty() {
            let _ = writeln!(
                out,
                "--- endpoints (last {}) ---",
                self.endpoints.events.len()
            );
            for ev in &self.endpoints.events {
                ev.render(&mut out);
            }
        }
        out
    }
}

impl Tracer for FlightRecorder {
    fn trace(&mut self, now: SimTime, event: &TraceEvent<'_>) {
        self.seen += 1;
        match event {
            TraceEvent::Enqueue {
                channel,
                packet,
                qlen,
            } => self.record_channel(*channel, now, FlightKind::Enqueue, packet, *qlen),
            TraceEvent::Drop {
                channel,
                packet,
                reason,
                qlen,
            } => self.record_channel(*channel, now, FlightKind::Drop(*reason), packet, *qlen),
            TraceEvent::TxStart {
                channel,
                packet,
                qlen,
            } => self.record_channel(*channel, now, FlightKind::TxStart, packet, *qlen),
            TraceEvent::Arrive { node, packet } => {
                let depth = self.depth;
                self.endpoints.push(
                    depth,
                    FlightEvent {
                        time: now,
                        kind: FlightKind::Arrive,
                        uid: packet.uid,
                        segment: packet.segment.kind_str(),
                        at: node.index() as u32,
                        qlen: None,
                    },
                );
            }
            TraceEvent::Deliver { agent, packet } => {
                let depth = self.depth;
                self.endpoints.push(
                    depth,
                    FlightEvent {
                        time: now,
                        kind: FlightKind::Deliver,
                        uid: packet.uid,
                        segment: packet.segment.kind_str(),
                        at: agent.index() as u32,
                        qlen: None,
                    },
                );
            }
        }
    }
}

/// Writes a [`FlightRecorder`] dump to stderr if the thread unwinds
/// while the guard is live. Construct it right after installing the
/// recorder as the engine tracer; on a clean exit it does nothing.
pub struct FlightDumpGuard {
    label: String,
    recorder: Rc<RefCell<FlightRecorder>>,
}

impl FlightDumpGuard {
    /// Guard `recorder`, tagging any dump with `label` (scenario name,
    /// seed — whatever identifies the run).
    pub fn new(label: impl Into<String>, recorder: Rc<RefCell<FlightRecorder>>) -> Self {
        FlightDumpGuard {
            label: label.into(),
            recorder,
        }
    }
}

impl Drop for FlightDumpGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // try_borrow: the panic may have interrupted the recorder
            // mid-trace; a second panic here would abort the process.
            match self.recorder.try_borrow() {
                Ok(rec) => eprintln!(
                    "\n=== flight recorder dump [{}] ===\n{}",
                    self.label,
                    rec.dump()
                ),
                Err(_) => eprintln!(
                    "\n=== flight recorder [{}] busy during panic; no dump ===",
                    self.label
                ),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::id::{AgentId, NodeId};
    use netsim::packet::Dest;
    use netsim::wire::Segment;

    fn pkt(uid: u64) -> Packet {
        Packet {
            uid,
            src: AgentId(0),
            dest: Dest::Agent(AgentId(1)),
            size_bytes: 1000,
            segment: Segment::Raw,
            sent_at: SimTime::ZERO,
        }
    }

    #[test]
    fn rings_are_bounded_per_channel() {
        let mut rec = FlightRecorder::new(3);
        for uid in 0..10 {
            let p = pkt(uid);
            rec.trace(
                SimTime::from_secs(uid),
                &TraceEvent::Enqueue {
                    channel: ChannelId(0),
                    packet: &p,
                    qlen: uid as usize,
                },
            );
        }
        let p = pkt(99);
        rec.trace(
            SimTime::from_secs(99),
            &TraceEvent::Enqueue {
                channel: ChannelId(2),
                packet: &p,
                qlen: 1,
            },
        );
        assert_eq!(rec.events_seen(), 11);
        let dump = rec.dump();
        // Channel 0 keeps only the newest three uids.
        assert!(!dump.contains("uid=6"), "{dump}");
        assert!(dump.contains("uid=7"), "{dump}");
        assert!(dump.contains("uid=9"), "{dump}");
        assert!(dump.contains("--- channel 0 (last 3) ---"), "{dump}");
        assert!(dump.contains("--- channel 2 (last 1) ---"), "{dump}");
        // Channel 1 saw nothing and is omitted entirely.
        assert!(!dump.contains("channel 1"), "{dump}");
    }

    #[test]
    fn endpoint_events_share_one_ring() {
        let mut rec = FlightRecorder::new(2);
        let p = pkt(5);
        rec.trace(
            SimTime::from_secs(1),
            &TraceEvent::Arrive {
                node: NodeId(3),
                packet: &p,
            },
        );
        rec.trace(
            SimTime::from_secs(2),
            &TraceEvent::Deliver {
                agent: AgentId(4),
                packet: &p,
            },
        );
        let dump = rec.dump();
        assert!(dump.contains("--- endpoints (last 2) ---"), "{dump}");
        assert!(dump.contains("arrive"), "{dump}");
        assert!(dump.contains("deliver"), "{dump}");
    }

    #[test]
    fn drop_events_keep_their_reason() {
        let mut rec = FlightRecorder::new(4);
        let p = pkt(7);
        rec.trace(
            SimTime::from_secs(1),
            &TraceEvent::Drop {
                channel: ChannelId(0),
                packet: &p,
                reason: DropReason::EarlyDrop,
                qlen: 9,
            },
        );
        let dump = rec.dump();
        assert!(dump.contains("DROP(EarlyDrop)"), "{dump}");
        assert!(dump.contains("q=9"), "{dump}");
    }

    #[test]
    fn zero_depth_is_coerced() {
        assert_eq!(FlightRecorder::new(0).depth(), 1);
    }
}
