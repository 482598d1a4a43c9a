//! Crash flight recorder: the last N channel events, kept per channel.
//!
//! A [`FlightRecorder`] is a [`Tracer`] that listens to the channel events
//! only — enqueue, drop and transmission start — and copies each into a
//! fixed-depth ring of its channel. Arrivals and deliveries are two thirds
//! of a run's events and it is never woken for them: an arrival is the
//! upstream transmission start plus the link's delay, so the channel rings
//! already imply it. Memory is bounded by `depth × channels`, so it can
//! stay installed for arbitrarily long runs; when a run panics or a
//! golden-digest gate trips, [`dump`] renders the retained tail so the
//! divergence is debuggable instead of opaque.
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

use netsim::queue::DropReason;
use netsim::time::SimTime;
use netsim::trace::{TraceEvent, TraceKinds, Tracer};

/// Default ring depth per channel.
pub const DEFAULT_FLIGHT_DEPTH: usize = 64;

/// What happened at the channel, for a retained event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// Packet accepted into a channel buffer.
    Enqueue,
    /// Packet discarded at a channel.
    Drop(DropReason),
    /// Channel began serializing a packet.
    TxStart,
}

/// One owned record in a channel's flight ring — a compact copy of a
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
    /// Buffer occupancy the event reported.
    pub qlen: usize,
}

impl FlightEvent {
    fn render(&self, out: &mut String) {
        let kind = match self.kind {
            FlightKind::Enqueue => "enqueue".to_string(),
            FlightKind::Drop(reason) => format!("DROP({reason:?})"),
            FlightKind::TxStart => "tx".to_string(),
        };
        let _ = writeln!(
            out,
            "{} {:<18} uid={} {} q={}",
            self.time, kind, self.uid, self.segment, self.qlen
        );
    }
}

/// A [`Tracer`] retaining the last `depth` events of each channel. See
/// the module docs.
#[derive(Debug)]
pub struct FlightRecorder {
    depth: usize,
    /// One ring per channel, indexed by channel id; grown on demand.
    channels: Vec<VecDeque<FlightEvent>>,
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
            seen: 0,
        }
    }

    /// The configured per-ring depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Total channel events observed over the recorder's lifetime
    /// (retained or not).
    pub fn events_seen(&self) -> u64 {
        self.seen
    }

    /// Render every non-empty ring in channel-id order, each
    /// chronologically oldest-to-newest.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "flight recorder: {} events seen, depth {} per ring",
            self.seen, self.depth
        );
        for (idx, ring) in self.channels.iter().enumerate() {
            if ring.is_empty() {
                continue;
            }
            let _ = writeln!(out, "--- channel {idx} (last {}) ---", ring.len());
            for ev in ring {
                ev.render(&mut out);
            }
        }
        out
    }
}

impl Tracer for FlightRecorder {
    fn wants(&self) -> TraceKinds {
        TraceKinds::ENQUEUE | TraceKinds::DROP | TraceKinds::TX_START
    }

    fn trace(&mut self, now: SimTime, event: &TraceEvent<'_>) {
        let (channel, kind, packet, qlen) = match *event {
            TraceEvent::Enqueue {
                channel,
                packet,
                qlen,
            } => (channel, FlightKind::Enqueue, packet, qlen),
            TraceEvent::Drop {
                channel,
                packet,
                reason,
                qlen,
            } => (channel, FlightKind::Drop(reason), packet, qlen),
            TraceEvent::TxStart {
                channel,
                packet,
                qlen,
            } => (channel, FlightKind::TxStart, packet, qlen),
            TraceEvent::Arrive { .. } | TraceEvent::Deliver { .. } => return,
        };
        self.seen += 1;
        let idx = channel.index();
        if idx >= self.channels.len() {
            self.channels.resize_with(idx + 1, VecDeque::new);
        }
        let ring = &mut self.channels[idx];
        if ring.len() == self.depth {
            ring.pop_front();
        }
        ring.push_back(FlightEvent {
            time: now,
            kind,
            uid: packet.uid,
            segment: packet.segment.kind_str(),
            qlen,
        });
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
    use netsim::id::{AgentId, ChannelId, NodeId};
    use netsim::packet::{Dest, Packet};
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
    fn it_listens_to_the_channel_events_only() {
        let mut rec = FlightRecorder::new(2);
        assert_eq!(
            rec.wants(),
            TraceKinds::ENQUEUE | TraceKinds::DROP | TraceKinds::TX_START
        );
        // Arrivals and deliveries, were they delivered anyway, leave no
        // trace: the rings are the channels'.
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
        assert_eq!(rec.events_seen(), 0);
        assert_eq!(rec.dump().lines().count(), 1, "header only");
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
