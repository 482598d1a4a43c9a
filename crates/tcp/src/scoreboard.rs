//! The sender-side SACK scoreboard.
//!
//! Tracks the fate of every packet between the cumulative ACK and the
//! highest sequence sent, and implements the paper's loss-declaration rule
//! (§3.3 rule 1): *a packet is considered lost if a packet with a sequence
//! number at least `dupack_threshold` higher has been selectively ACKed.*

use std::collections::VecDeque;

use netsim::time::SimTime;
use netsim::wire::SackBlock;
use transport::HeadHole;

/// Sender-side state of one in-flight packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SentPacket {
    /// When the packet (or its latest retransmission) was sent.
    pub sent_at: SimTime,
    /// The receiver has selectively acknowledged it.
    pub sacked: bool,
    /// Declared lost (hole with enough SACKed packets above it).
    pub lost: bool,
    /// A retransmission of it is in flight.
    pub retransmitted: bool,
}

/// The scoreboard: per-packet state for `[cum_ack, next)`, where `next` is
/// the sequence after the highest one sent.
///
/// Every sender here sends only the next sequence or resends an
/// outstanding one ([`Scoreboard::on_send`] panics on anything else), so
/// the tracked window is dense: entry `i` of one ring is sequence
/// `cum_ack + i`. Every per-sequence operation is an index, the
/// cumulative-ack advance is a drain off the front, and the aggregate
/// queries TCP asks on every ack (`in_flight`, `next_lost` when nothing is
/// lost) come from counters maintained incrementally — this structure sits
/// on the simulator's hottest path (one `on_ack` per acknowledgment for
/// TCP *and* per receiver for the RLA sender).
#[derive(Debug, Default)]
pub struct Scoreboard {
    /// Entry `i` holds the state of sequence `cum_ack + i`.
    packets: VecDeque<SentPacket>,
    cum_ack: u64,
    /// Highest sequence number SACKed so far (None if nothing SACKed).
    high_sacked: Option<u64>,
    /// Entries with `sacked` set. Disjoint from `n_lost`: sacking clears
    /// `lost`, and loss declaration skips sacked entries.
    n_sacked: u64,
    /// Entries with `lost` set.
    n_lost: u64,
}

impl Scoreboard {
    /// An empty scoreboard.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current cumulative acknowledgment (all `seq <` this are delivered).
    pub fn cum_ack(&self) -> u64 {
        self.cum_ack
    }

    /// Record that `seq` was (re)transmitted at `now`. `seq` must be the
    /// next sequence (`cum_ack() + outstanding()`) or an outstanding one.
    pub fn on_send(&mut self, seq: u64, now: SimTime) {
        let next = self.cum_ack + self.packets.len() as u64;
        assert!(
            (self.cum_ack..=next).contains(&seq),
            "on_send({seq}): only the next sequence {next} or an outstanding one may be sent"
        );
        let Some(p) = self.packets.get_mut((seq - self.cum_ack) as usize) else {
            self.packets.push_back(SentPacket {
                sent_at: now,
                sacked: false,
                lost: false,
                retransmitted: false,
            });
            return;
        };
        if p.lost {
            p.retransmitted = true;
            p.lost = false;
            self.n_lost -= 1;
        }
        p.sent_at = now;
    }

    /// Apply an acknowledgment. Returns the number of packets *newly*
    /// declared lost by this ack (0 if none).
    pub fn on_ack(&mut self, cum_ack: u64, sack: &[SackBlock], dup_threshold: u64) -> usize {
        if cum_ack > self.cum_ack {
            // Everything below the cumulative ack is delivered.
            let n = (cum_ack - self.cum_ack).min(self.packets.len() as u64);
            for p in self.packets.drain(..n as usize) {
                self.n_sacked -= u64::from(p.sacked);
                self.n_lost -= u64::from(p.lost);
            }
            self.cum_ack = cum_ack;
        }
        let next = self.cum_ack + self.packets.len() as u64;
        for block in sack {
            // Sequences outside the window (stale or never sent) are ignored.
            for seq in block.start.max(self.cum_ack)..block.end.min(next) {
                let p = &mut self.packets[(seq - self.cum_ack) as usize];
                if !p.sacked {
                    p.sacked = true;
                    self.n_lost -= u64::from(p.lost);
                    p.lost = false;
                    self.n_sacked += 1;
                    self.high_sacked = Some(self.high_sacked.map_or(seq, |h| h.max(seq)));
                }
            }
        }
        self.detect_losses(dup_threshold)
    }

    /// Declare holes lost per the dup-threshold rule. Returns newly lost.
    fn detect_losses(&mut self, dup_threshold: u64) -> usize {
        let Some(high) = self.high_sacked else {
            return 0;
        };
        if self.packets.is_empty() || high < self.cum_ack {
            return 0;
        }
        // Count, for each hole, the SACKed packets strictly above it.
        // Walk from the top: maintain a running count of sacked packets seen.
        let top = ((high - self.cum_ack) as usize).min(self.packets.len() - 1);
        let mut newly_lost = 0;
        let mut sacked_above = 0u64;
        for p in self.packets.range_mut(..=top).rev() {
            if p.sacked {
                sacked_above += 1;
            } else if !p.lost && !p.retransmitted && sacked_above >= dup_threshold {
                p.lost = true;
                self.n_lost += 1;
                newly_lost += 1;
            }
        }
        newly_lost
    }

    /// Ring index of the oldest unsacked packet: the one
    /// [`Scoreboard::head_hole`] reports and [`Scoreboard::mark_head_lost`]
    /// marks.
    fn head(&self) -> Option<usize> {
        self.packets.iter().position(|p| !p.sacked)
    }

    /// The oldest unsacked packet, the one [`Scoreboard::mark_head_lost`]
    /// marks; its `evidence` is true when some higher packet has been
    /// SACKed (the hole is a real gap, not just the newest data). The
    /// view `transport::Recovery`'s age rules read.
    pub fn head_hole(&self) -> Option<HeadHole> {
        let i = self.head()?;
        let p = &self.packets[i];
        let seq = self.cum_ack + i as u64;
        Some(HeadHole {
            seq,
            sent_at: p.sent_at,
            evidence: self.high_sacked.is_some_and(|h| h > seq),
            retransmitted: p.retransmitted,
        })
    }

    /// Mark only the oldest unsacked packet as lost (one-per-RTO pacing,
    /// as TCP effectively does when it retransmits the head of the window
    /// on timeout). Returns the marked sequence, if any.
    pub fn mark_head_lost(&mut self) -> Option<u64> {
        let i = self.head()?;
        let p = &mut self.packets[i];
        self.n_lost += u64::from(!p.lost);
        p.lost = true;
        p.retransmitted = false;
        Some(self.cum_ack + i as u64)
    }

    /// Mark everything outstanding as lost (retransmission timeout).
    /// Returns the number of packets so marked.
    pub fn mark_all_lost(&mut self) -> usize {
        let mut n = 0;
        for p in self.packets.iter_mut().filter(|p| !p.sacked) {
            self.n_lost += u64::from(!p.lost);
            p.lost = true;
            p.retransmitted = false;
            n += 1;
        }
        n
    }

    /// The packets marked lost and not yet retransmitted, in sequence
    /// order; no walk at all while nothing is lost.
    fn unrepaired(&self) -> impl Iterator<Item = u64> + '_ {
        let walk = if self.n_lost == 0 {
            0
        } else {
            self.packets.len()
        };
        (self.cum_ack..)
            .zip(self.packets.range(..walk))
            .filter(|(_, p)| p.lost && !p.retransmitted)
            .map(|(seq, _)| seq)
    }

    /// All packets currently marked lost and not yet retransmitted, in
    /// sequence order. (The RLA sender feeds these into its retransmission
    /// queue; TCP itself only needs [`Scoreboard::next_lost`].)
    pub fn lost_unretransmitted(&self) -> Vec<u64> {
        self.unrepaired().collect()
    }

    /// `true` if the receiver is known to hold `seq` (cumulatively acked or
    /// selectively acked).
    pub fn is_received(&self, seq: u64) -> bool {
        seq < self.cum_ack || self.get(seq).is_some_and(|p| p.sacked)
    }

    /// `true` if `seq` is currently declared lost.
    pub fn is_lost(&self, seq: u64) -> bool {
        self.get(seq).is_some_and(|p| p.lost)
    }

    /// The lowest packet currently marked lost and not yet retransmitted.
    pub fn next_lost(&self) -> Option<u64> {
        self.unrepaired().next()
    }

    /// Packets "in the pipe": sent, not cumulatively acked, not SACKed, and
    /// not declared lost (lost ones are assumed gone from the network).
    pub fn in_flight(&self) -> u64 {
        self.outstanding() - self.n_sacked - self.n_lost
    }

    /// Outstanding packets currently SACKed (received above a hole).
    /// `cum_ack() + sacked()` is the sender's known-delivered count, the
    /// basis for delivery-rate samples: it advances when a packet is
    /// *first* reported received, so a hole-fill's cumulative jump does
    /// not re-count packets SACKed round trips ago.
    pub fn sacked(&self) -> u64 {
        self.n_sacked
    }

    /// Number of outstanding packets, `[cum_ack, next)`.
    pub fn outstanding(&self) -> u64 {
        self.packets.len() as u64
    }

    /// `true` when nothing is outstanding.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// State of a specific packet, if outstanding.
    pub fn get(&self, seq: u64) -> Option<&SentPacket> {
        self.packets.get(seq.checked_sub(self.cum_ack)? as usize)
    }

    /// Time the oldest outstanding packet was last (re)sent — the age the
    /// RLA's scanned RTO reads.
    pub fn oldest_sent_at(&self) -> Option<SimTime> {
        self.packets
            .iter()
            .filter(|p| !p.sacked)
            .map(|p| p.sent_at)
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sb_with_sent(n: u64) -> Scoreboard {
        let mut sb = Scoreboard::new();
        for seq in 0..n {
            sb.on_send(seq, SimTime::from_secs(seq));
        }
        sb
    }

    fn block(start: u64, end: u64) -> SackBlock {
        SackBlock { start, end }
    }

    #[test]
    fn cum_ack_clears_delivered_packets() {
        let mut sb = sb_with_sent(5);
        assert_eq!(sb.outstanding(), 5);
        let lost = sb.on_ack(3, &[], 3);
        assert_eq!(lost, 0);
        assert_eq!(sb.cum_ack(), 3);
        assert_eq!(sb.outstanding(), 2);
        assert_eq!(sb.in_flight(), 2);
    }

    #[test]
    fn loss_declared_after_three_sacks_above() {
        let mut sb = sb_with_sent(6);
        // Packet 0 lost; 1, 2 SACKed: not enough evidence yet.
        assert_eq!(sb.on_ack(0, &[block(1, 3)], 3), 0);
        assert!(!sb.get(0).unwrap().lost);
        // Third SACK above seals it.
        assert_eq!(sb.on_ack(0, &[block(1, 4)], 3), 1);
        assert!(sb.get(0).unwrap().lost);
        assert_eq!(sb.next_lost(), Some(0));
        // In flight excludes both the lost packet and the SACKed ones.
        assert_eq!(sb.in_flight(), 2); // packets 4, 5
    }

    #[test]
    fn multiple_holes_all_declared() {
        let mut sb = sb_with_sent(10);
        // Holes at 0 and 2; SACKs at 1 and 3..=8.
        let lost = sb.on_ack(0, &[block(1, 2), block(3, 9)], 3);
        assert_eq!(lost, 2);
        assert_eq!(sb.next_lost(), Some(0));
    }

    #[test]
    fn retransmission_clears_lost_flag() {
        let mut sb = sb_with_sent(5);
        sb.on_ack(0, &[block(1, 5)], 3);
        assert_eq!(sb.next_lost(), Some(0));
        sb.on_send(0, SimTime::from_secs(99));
        assert_eq!(sb.next_lost(), None);
        let p = sb.get(0).unwrap();
        assert!(p.retransmitted && !p.lost);
        // A retransmitted hole is back in flight.
        assert_eq!(sb.in_flight(), 1);
    }

    #[test]
    fn retransmitted_hole_not_redeclared() {
        let mut sb = sb_with_sent(6);
        sb.on_ack(0, &[block(1, 5)], 3);
        sb.on_send(0, SimTime::from_secs(99));
        // More SACKs arrive; packet 0 is retransmitted, must not be lost
        // again by the same evidence.
        assert_eq!(sb.on_ack(0, &[block(1, 6)], 3), 0);
        assert_eq!(sb.next_lost(), None);
    }

    #[test]
    fn timeout_marks_everything_unsacked() {
        let mut sb = sb_with_sent(4);
        sb.on_ack(0, &[block(2, 3)], 3);
        let n = sb.mark_all_lost();
        assert_eq!(n, 3); // 0, 1, 3 (2 is SACKed)
        assert_eq!(sb.in_flight(), 0);
        assert_eq!(sb.next_lost(), Some(0));
    }

    #[test]
    fn cum_ack_supersedes_sack_state() {
        let mut sb = sb_with_sent(6);
        sb.on_ack(0, &[block(1, 5)], 3); // 0 lost
        sb.on_send(0, SimTime::from_secs(9));
        // Retransmission delivered: cum ack jumps over everything sacked.
        sb.on_ack(5, &[], 3);
        assert_eq!(sb.outstanding(), 1); // only packet 5
        assert_eq!(sb.cum_ack(), 5);
    }

    #[test]
    fn oldest_sent_time_tracks_unsacked_only() {
        let mut sb = sb_with_sent(3); // sent at t=0,1,2
        sb.on_ack(0, &[block(0, 1)], 3); // SACK packet 0 (degenerate but legal)
        assert_eq!(sb.oldest_sent_at(), Some(SimTime::from_secs(1)));
    }

    #[test]
    fn reception_and_loss_queries() {
        let mut sb = sb_with_sent(6);
        sb.on_ack(1, &[block(2, 5)], 3); // hole at 1? no: cum=1, hole at 1.., sacked 2..5
        assert!(sb.is_received(0), "below cum ack");
        assert!(sb.is_received(3), "sacked");
        assert!(!sb.is_received(1), "the hole");
        assert!(!sb.is_received(5), "in flight");
        assert!(sb.is_lost(1), "three sacks above the hole");
        assert_eq!(sb.lost_unretransmitted(), vec![1]);
        sb.on_send(1, SimTime::from_secs(9));
        assert!(sb.lost_unretransmitted().is_empty());
    }

    #[test]
    #[should_panic(expected = "on_send(6): only the next sequence 5")]
    fn a_send_past_the_next_sequence_panics() {
        let mut sb = sb_with_sent(5);
        sb.on_send(6, SimTime::from_secs(9));
    }

    #[test]
    fn stale_sack_below_cum_ack_ignored() {
        let mut sb = sb_with_sent(5);
        sb.on_ack(4, &[], 3);
        // A reordered ack with old SACK info must not resurrect state.
        let lost = sb.on_ack(2, &[block(0, 2)], 3);
        assert_eq!(lost, 0);
        assert_eq!(sb.cum_ack(), 4);
        assert_eq!(sb.outstanding(), 1);
    }
}
