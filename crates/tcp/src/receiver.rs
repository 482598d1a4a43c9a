//! The SACK receive side, [`Reassembly`]: every data packet earns a
//! cumulative ack plus up to three RFC 2018 SACK blocks, which
//! [`TcpReceiver`] sends back and the RLA's receiver sends with its
//! identity attached (§3.3: "the same format as SACK TCP receivers").

use std::any::Any;
use std::collections::BTreeSet;

use netsim::agent::Agent;
use netsim::engine::Context;
use netsim::packet::{Dest, Packet};
use netsim::time::SimTime;
use netsim::wire::{SackList, Segment, TcpAck};

/// Receiver-side statistics.
#[derive(Debug, Default, Clone)]
pub struct ReceiverStats {
    /// Data packets that arrived (including duplicates).
    pub arrivals: u64,
    /// Distinct packets delivered in order (cumulative-ack progress).
    pub delivered: u64,
    /// Duplicate arrivals (already delivered or already buffered).
    pub duplicates: u64,
}

/// The receive state of one SACK connection: the cumulative ack, the
/// out-of-order packets held above it, and the counters.
#[derive(Debug, Default)]
pub struct Reassembly {
    /// Next expected in-order sequence number (== cumulative ack).
    cum_ack: u64,
    /// Out-of-order packets held above the cumulative ack.
    ooo: BTreeSet<u64>,
    /// Running statistics.
    pub stats: ReceiverStats,
}

impl Reassembly {
    /// A late joiner's state: everything below `next_seq` counts as held,
    /// so a straggler sent before the join is a duplicate, not a hole.
    pub fn starting_at(next_seq: u64) -> Self {
        Reassembly {
            cum_ack: next_seq,
            ..Default::default()
        }
    }

    /// Current cumulative acknowledgment.
    pub fn cum_ack(&self) -> u64 {
        self.cum_ack
    }

    /// Fold in the arrival of `seq`, sent at `timestamp`, and return the
    /// ack it earns, the SACK block holding `seq` first.
    pub fn accept(&mut self, seq: u64, timestamp: SimTime) -> TcpAck {
        self.stats.arrivals += 1;
        if seq == self.cum_ack {
            // Deliver `seq`, then the buffer as far as it now reaches.
            self.cum_ack += 1;
            while self.ooo.remove(&self.cum_ack) {
                self.cum_ack += 1;
            }
            self.stats.delivered += self.cum_ack - seq;
        } else if seq < self.cum_ack || !self.ooo.insert(seq) {
            // Already delivered, or already held out of order.
            self.stats.duplicates += 1;
        }
        TcpAck {
            cum_ack: self.cum_ack,
            sack: SackList::from_ascending_seqs(self.ooo.iter().copied(), seq),
            echo_timestamp: timestamp,
        }
    }
}

/// A TCP SACK receiver endpoint.
#[derive(Debug, Default)]
pub struct TcpReceiver {
    /// The receive state and its counters.
    pub reassembly: Reassembly,
    /// ACK packet size on the wire, bytes.
    ack_size: u32,
}

impl TcpReceiver {
    /// A receiver producing `ack_size`-byte acknowledgments.
    pub fn new(ack_size: u32) -> Self {
        TcpReceiver {
            ack_size,
            ..Default::default()
        }
    }
}

impl Agent for TcpReceiver {
    fn on_packet(&mut self, packet: Packet, ctx: &mut Context<'_>) {
        let Segment::TcpData(data) = packet.segment else {
            debug_assert!(false, "TCP receiver got {}", packet.segment.kind_str());
            return;
        };
        let ack = self.reassembly.accept(data.seq, data.timestamp);
        ctx.send(Dest::Agent(packet.src), self.ack_size, Segment::TcpAck(ack));
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::wire::{SackBlock, MAX_SACK_BLOCKS};

    /// Feed `seqs` in order; the ack the last one earned.
    fn feed(r: &mut Reassembly, seqs: impl IntoIterator<Item = u64>) -> TcpAck {
        let mut last = None;
        for seq in seqs {
            last = Some(r.accept(seq, SimTime::ZERO));
        }
        last.expect("at least one arrival")
    }

    #[test]
    fn in_order_advances_cum_ack() {
        let mut r = Reassembly::default();
        let ack = feed(&mut r, [0, 1]);
        assert_eq!(ack.cum_ack, 2);
        assert_eq!(r.cum_ack(), 2);
        assert_eq!(r.stats.delivered, 2);
        assert!(ack.sack.is_empty());
    }

    #[test]
    fn hole_generates_sack_block() {
        let mut r = Reassembly::default();
        let ack = feed(&mut r, [0, 2, 3]);
        assert_eq!(ack.cum_ack, 1);
        assert_eq!(ack.sack.as_slice(), [SackBlock { start: 2, end: 4 }]);
    }

    #[test]
    fn fill_drains_out_of_order_buffer() {
        let mut r = Reassembly::default();
        let ack = feed(&mut r, [0, 2, 3, 1]); // 1 fills the hole
        assert_eq!(ack.cum_ack, 4);
        assert!(ack.sack.is_empty());
        assert_eq!(r.stats.delivered, 4);
    }

    #[test]
    fn duplicates_are_counted_not_delivered() {
        let mut r = Reassembly::default();
        // A re-delivered in-order packet, then a buffered one arriving
        // twice (e.g. a multicast retransmission), then the fill.
        let ack = feed(&mut r, [0, 0, 2, 2]);
        assert_eq!(r.stats.duplicates, 2);
        assert_eq!(ack.cum_ack, 1);
        feed(&mut r, [1]);
        assert_eq!(r.cum_ack(), 3);
        assert_eq!(r.stats.delivered, 3);
        assert_eq!(r.stats.arrivals, 5);
    }

    #[test]
    fn most_recent_block_listed_first() {
        let mut r = Reassembly::default();
        // Holes at 1, 4 and 6: blocks {2,3}, {5} and {7}, 5 arriving last.
        let ack = feed(&mut r, [0, 2, 3, 7, 5]);
        assert_eq!(ack.sack[0], SackBlock { start: 5, end: 6 });
        assert_eq!(ack.sack.len(), 3);
        assert!(ack.sack.contains(&SackBlock { start: 2, end: 4 }));
    }

    #[test]
    fn block_count_capped_at_wire_limit() {
        let mut r = Reassembly::default();
        // Every even seq from 2..20: nine isolated blocks.
        let ack = feed(&mut r, (2..20).step_by(2));
        assert_eq!(ack.sack.len(), MAX_SACK_BLOCKS);
    }
}
