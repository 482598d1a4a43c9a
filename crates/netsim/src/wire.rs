//! Transport segment representations.
//!
//! Following the smoltcp convention, the base crate defines the *wire
//! formats* that travel inside packets, while the protocol *behaviour*
//! (window management, loss detection) lives in the transport crates
//! (`tcp-sack`, `rla`, `baselines`).
//!
//! Sequence numbers count packets, not bytes — the paper's analysis is
//! entirely in packet units (windows in packets, throughput in pkt/s), and
//! all data packets have a fixed size per flow.

use crate::id::AgentId;
use crate::time::SimTime;

/// The maximum number of SACK blocks carried in one acknowledgment, as in
/// RFC 2018 (40 bytes of TCP option space / 8 bytes per block, with one slot
/// lost to the timestamp option in practice).
pub const MAX_SACK_BLOCKS: usize = 3;

/// A half-open range `[start, end)` of packet sequence numbers that the
/// receiver holds above the cumulative acknowledgment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SackBlock {
    /// First sequence number covered by the block.
    pub start: u64,
    /// One past the last sequence number covered by the block.
    pub end: u64,
}

impl SackBlock {
    /// Number of packets the block covers.
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// `true` for a degenerate empty block.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }

    /// `true` if `seq` falls inside the block.
    pub fn contains(&self, seq: u64) -> bool {
        (self.start..self.end).contains(&seq)
    }
}

/// The SACK blocks carried in one acknowledgment: an inline array bounded
/// by the wire format's [`MAX_SACK_BLOCKS`], in the order they appear on
/// the wire (most recent block first, remainder by descending start).
///
/// Acks are forged and copied on every data packet, so the list is a plain
/// `Copy` value — no heap allocation per acknowledgment, and segments that
/// carry one stay `memcpy`-able.
#[derive(Debug, Clone, Copy, Default)]
pub struct SackList {
    blocks: [SackBlock; MAX_SACK_BLOCKS],
    len: u8,
}

impl SackList {
    /// An empty list.
    pub const EMPTY: SackList = SackList {
        blocks: [SackBlock { start: 0, end: 0 }; MAX_SACK_BLOCKS],
        len: 0,
    };

    /// An empty list.
    pub fn new() -> Self {
        Self::EMPTY
    }

    /// Append a block. Blocks beyond [`MAX_SACK_BLOCKS`] are silently
    /// discarded — exactly the wire truncation RFC 2018 imposes when the
    /// option space runs out.
    pub fn push(&mut self, block: SackBlock) {
        if (self.len as usize) < MAX_SACK_BLOCKS {
            self.blocks[self.len as usize] = block;
            self.len += 1;
        }
    }

    /// The carried blocks, in wire order.
    pub fn as_slice(&self) -> &[SackBlock] {
        &self.blocks[..self.len as usize]
    }

    /// Build the wire list from an *ascending* iterator of out-of-order
    /// sequence numbers (the receiver's reorder buffer): maximal runs become
    /// blocks; the block containing `latest` is listed first, then the
    /// remaining blocks from highest to lowest start, truncated to
    /// [`MAX_SACK_BLOCKS`].
    ///
    /// Runs arrive in ascending start order, so the blocks we may need are
    /// the one holding `latest` plus the last `MAX_SACK_BLOCKS` runs seen —
    /// kept in a fixed ring, no allocation.
    pub fn from_ascending_seqs(seqs: impl IntoIterator<Item = u64>, latest: u64) -> SackList {
        let mut latest_block: Option<SackBlock> = None;
        // Ring of the highest-start runs seen so far (ascending input means
        // the last MAX_SACK_BLOCKS runs are the highest).
        let mut ring = [SackBlock::default(); MAX_SACK_BLOCKS];
        let mut ring_len = 0usize; // total runs ever pushed
        let push_run = |run: SackBlock,
                        latest_block: &mut Option<SackBlock>,
                        ring: &mut [SackBlock; MAX_SACK_BLOCKS],
                        ring_len: &mut usize| {
            if run.contains(latest) {
                *latest_block = Some(run);
            }
            ring[*ring_len % MAX_SACK_BLOCKS] = run;
            *ring_len += 1;
        };

        let mut iter = seqs.into_iter();
        if let Some(first) = iter.next() {
            let mut cur = SackBlock {
                start: first,
                end: first + 1,
            };
            for seq in iter {
                debug_assert!(seq > cur.end - 1, "sequences must be ascending and unique");
                if seq == cur.end {
                    cur.end += 1;
                } else {
                    push_run(cur, &mut latest_block, &mut ring, &mut ring_len);
                    cur = SackBlock {
                        start: seq,
                        end: seq + 1,
                    };
                }
            }
            push_run(cur, &mut latest_block, &mut ring, &mut ring_len);
        }

        let mut out = SackList::new();
        if let Some(lb) = latest_block {
            out.push(lb);
        }
        // Walk the ring newest-first (descending start), skipping the block
        // already emitted for `latest`.
        let kept = ring_len.min(MAX_SACK_BLOCKS);
        for i in 0..kept {
            let idx = (ring_len - 1 - i) % MAX_SACK_BLOCKS;
            let run = ring[idx];
            if Some(run) != latest_block {
                out.push(run);
            }
        }
        out
    }
}

impl std::ops::Deref for SackList {
    type Target = [SackBlock];
    fn deref(&self) -> &[SackBlock] {
        self.as_slice()
    }
}

impl PartialEq for SackList {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for SackList {}

impl<'a> IntoIterator for &'a SackList {
    type Item = &'a SackBlock;
    type IntoIter = std::slice::Iter<'a, SackBlock>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl FromIterator<SackBlock> for SackList {
    fn from_iter<T: IntoIterator<Item = SackBlock>>(iter: T) -> Self {
        let mut out = SackList::new();
        for b in iter {
            out.push(b);
        }
        out
    }
}

/// A TCP data segment (one packet of the flow's fixed packet size).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpData {
    /// Packet sequence number, starting at 0.
    pub seq: u64,
    /// `true` when this is a retransmission.
    pub retransmit: bool,
    /// Timestamp at which the sender transmitted the segment; echoed by the
    /// receiver for RTT measurement (the timestamp option).
    pub timestamp: SimTime,
}

/// A TCP SACK acknowledgment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpAck {
    /// Cumulative ack: all packets with `seq < cum_ack` have been received.
    pub cum_ack: u64,
    /// Out-of-order data held by the receiver, most recent block first.
    pub sack: SackList,
    /// Echo of the data segment timestamp that triggered this ack.
    pub echo_timestamp: SimTime,
}

/// A multicast data segment (used by the RLA sender).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McastData {
    /// Packet sequence number, starting at 0.
    pub seq: u64,
    /// `true` when this is a retransmission.
    pub retransmit: bool,
    /// Sender transmission timestamp, echoed by receivers.
    pub timestamp: SimTime,
}

/// A multicast receiver's selective acknowledgment, unicast back to the
/// sender: a [`TcpAck`] plus the receiver's identity (the RLA sender keeps
/// per-receiver state).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McastAck {
    /// The acknowledging receiver.
    pub receiver: AgentId,
    /// The acknowledgment itself, in the TCP SACK receiver's format.
    pub ack: TcpAck,
}

/// A data packet from a rate-based sender (LTRC / MBFC baselines).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateData {
    /// Packet sequence number, starting at 0.
    pub seq: u64,
    /// Sender transmission timestamp.
    pub timestamp: SimTime,
}

/// Periodic feedback from a rate-based receiver: a loss-rate report over the
/// last monitoring interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateFeedback {
    /// The reporting receiver.
    pub receiver: AgentId,
    /// Highest sequence number seen so far.
    pub highest_seq: u64,
    /// Packets detected lost during the report interval.
    pub lost: u64,
    /// Packets received during the report interval.
    pub received: u64,
    /// Exponentially-weighted moving average of the receiver's loss rate.
    pub avg_loss_rate: f64,
}

/// The transport payload of a packet.
///
/// Every variant is a plain `Copy` value (acks carry their SACK blocks
/// inline as a [`SackList`]), so cloning a packet — multicast fan-out,
/// trace snapshots — never allocates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Segment {
    /// No transport payload (cross traffic, probes).
    Raw,
    /// TCP data.
    TcpData(TcpData),
    /// TCP selective acknowledgment.
    TcpAck(TcpAck),
    /// Multicast data (RLA).
    McastData(McastData),
    /// Multicast receiver SACK (RLA).
    McastAck(McastAck),
    /// Rate-based multicast data (baselines).
    RateData(RateData),
    /// Rate-based receiver feedback (baselines).
    RateFeedback(RateFeedback),
}

impl Segment {
    /// Short tag for traces.
    pub fn kind_str(&self) -> &'static str {
        match self {
            Segment::Raw => "raw",
            Segment::TcpData(_) => "tcp-data",
            Segment::TcpAck(_) => "tcp-ack",
            Segment::McastData(_) => "mc-data",
            Segment::McastAck(_) => "mc-ack",
            Segment::RateData(_) => "rate-data",
            Segment::RateFeedback(_) => "rate-fb",
        }
    }

    /// `true` for data-bearing segments (as opposed to feedback).
    pub fn is_data(&self) -> bool {
        matches!(
            self,
            Segment::TcpData(_) | Segment::McastData(_) | Segment::RateData(_)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sack_block_geometry() {
        let b = SackBlock { start: 10, end: 14 };
        assert_eq!(b.len(), 4);
        assert!(!b.is_empty());
        assert!(b.contains(10) && b.contains(13));
        assert!(!b.contains(14) && !b.contains(9));

        let e = SackBlock { start: 5, end: 5 };
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
    }

    #[test]
    fn sack_list_builds_runs_latest_first() {
        // ooo = {2,3} ∪ {5} ∪ {7}; latest receipt is 5.
        let l = SackList::from_ascending_seqs([2, 3, 5, 7], 5);
        assert_eq!(
            l.as_slice(),
            [
                SackBlock { start: 5, end: 6 },
                SackBlock { start: 7, end: 8 },
                SackBlock { start: 2, end: 4 },
            ]
        );
    }

    #[test]
    fn sack_list_truncates_to_wire_limit() {
        // Nine isolated runs; only MAX_SACK_BLOCKS survive, and the block
        // holding `latest` always does.
        let l = SackList::from_ascending_seqs((2..20).step_by(2), 2);
        assert_eq!(l.len(), MAX_SACK_BLOCKS);
        assert_eq!(l[0], SackBlock { start: 2, end: 3 });
        assert_eq!(l[1], SackBlock { start: 18, end: 19 });
        assert_eq!(l[2], SackBlock { start: 16, end: 17 });
    }

    #[test]
    fn sack_list_without_latest_is_descending() {
        // `latest` filled a hole and was consumed: not in the buffer.
        let l = SackList::from_ascending_seqs([4, 5, 8, 11], 1);
        assert_eq!(
            l.as_slice(),
            [
                SackBlock { start: 11, end: 12 },
                SackBlock { start: 8, end: 9 },
                SackBlock { start: 4, end: 6 },
            ]
        );
    }

    #[test]
    fn sack_list_empty_and_eq() {
        assert!(SackList::from_ascending_seqs([], 0).is_empty());
        let a: SackList = [SackBlock { start: 1, end: 2 }].into_iter().collect();
        let b = SackList::from_ascending_seqs([1], 1);
        assert_eq!(a, b);
        assert_ne!(a, SackList::EMPTY);
    }

    #[test]
    fn sack_list_push_discards_overflow() {
        let mut l = SackList::new();
        for i in 0..5 {
            l.push(SackBlock {
                start: i * 10,
                end: i * 10 + 1,
            });
        }
        assert_eq!(l.len(), MAX_SACK_BLOCKS);
        assert_eq!(l[2], SackBlock { start: 20, end: 21 });
    }

    #[test]
    fn segment_classification() {
        assert!(Segment::TcpData(TcpData {
            seq: 0,
            retransmit: false,
            timestamp: SimTime::ZERO
        })
        .is_data());
        assert!(!Segment::TcpAck(TcpAck {
            cum_ack: 0,
            sack: SackList::new(),
            echo_timestamp: SimTime::ZERO
        })
        .is_data());
        assert_eq!(Segment::Raw.kind_str(), "raw");
    }
}
