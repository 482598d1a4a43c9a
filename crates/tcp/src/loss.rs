//! The two loss detectors [`crate::TcpSender`] can run — everything that
//! differs between a SACK-style and a Reno-style sender.
//!
//! * **Scoreboard**: the RFC 2018 [`Scoreboard`] declares holes lost and
//!   the send loop retransmits every declared hole; per-segment send
//!   times make every RTT sample unambiguous, and the delivery-rate
//!   bookkeeping (`meta`, a second dense ring anchored with the board's
//!   at the cumulative ack) turns each cumulative advance into a
//!   [`RateSample`]. A timeout marks what the recovery row says:
//!   everything outstanding under TCP's.
//! * **Dup-ack**: no per-segment state. The policy ([`transport::RenoCc`])
//!   counts duplicate cumulative acks itself and names the one segment to
//!   fast-retransmit; RTT samples follow Karn's algorithm (an ack that
//!   covers a retransmitted segment may answer either copy, so it is
//!   withheld); a timeout rewinds the send loop to the cumulative ack
//!   (go-back-N) and the receiver's buffered out-of-order data turns the
//!   resent prefix into fast cumulative jumps. It talks to the ordinary
//!   [`crate::TcpReceiver`] and ignores the SACK blocks in its acks.

use std::collections::{BTreeSet, VecDeque};

use netsim::time::SimTime;
use netsim::wire::TcpAck;

use transport::recovery::Mark;
use transport::{defaults, RateSample};

use crate::config::TcpConfig;
use crate::scoreboard::Scoreboard;

/// Per-packet delivery-rate bookkeeping recorded at transmit time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SendMeta {
    /// When the packet (or its latest retransmission) left.
    sent_at: SimTime,
    /// The sender's delivered counter at that moment.
    delivered_at_send: u64,
}

/// What one acknowledgment told the loss detector.
pub(crate) struct AckReport {
    /// How far the cumulative ack advanced (0 for a duplicate ack).
    pub(crate) advanced: u64,
    /// Packets first known delivered by this ack (see
    /// [`transport::AckEvent::newly_delivered`]).
    pub(crate) newly_delivered: u64,
    /// Packets this ack newly declared lost.
    pub(crate) newly_lost: u64,
    /// Delivery-rate sample for the newly acked data, when tracked.
    pub(crate) rate: Option<RateSample>,
    /// Karn: the echoed timestamp may answer either copy of a
    /// retransmitted segment, so the RTT sample must be withheld.
    pub(crate) rtt_ambiguous: bool,
}

/// How a sender learns that packets were lost.
pub(crate) enum LossDetector {
    /// SACK scoreboard plus delivery-rate bookkeeping.
    Scoreboard {
        board: Scoreboard,
        /// Send records, dense like the board's ring: entry `i` holds
        /// sequence `board.cum_ack() + i`, drained off the front as the
        /// cumulative ack passes it; retransmissions overwrite their entry.
        meta: VecDeque<SendMeta>,
    },
    /// Duplicate-ack counting (done by the policy) with Karn's rule.
    DupAck {
        /// Highest cumulative ack heard.
        cum_ack: u64,
        /// Next never-before-sent sequence; anything below it is a
        /// retransmission when sent again.
        high_water: u64,
        /// Unacked sequences that have been retransmitted (Karn's
        /// ambiguity set; pruned as the cumulative ack advances).
        retransmitted: BTreeSet<u64>,
    },
}

impl LossDetector {
    pub(crate) fn scoreboard() -> Self {
        LossDetector::Scoreboard {
            board: Scoreboard::new(),
            meta: VecDeque::new(),
        }
    }

    pub(crate) fn dup_ack() -> Self {
        LossDetector::DupAck {
            cum_ack: 0,
            high_water: 0,
            retransmitted: BTreeSet::new(),
        }
    }

    /// The telemetry probe kind of a sender running this detector.
    pub(crate) fn probe_kind(&self) -> &'static str {
        match self {
            LossDetector::Scoreboard { .. } => "tcp-sack",
            LossDetector::DupAck { .. } => "reno",
        }
    }

    pub(crate) fn cum_ack(&self) -> u64 {
        match self {
            LossDetector::Scoreboard { board, .. } => board.cum_ack(),
            LossDetector::DupAck { cum_ack, .. } => *cum_ack,
        }
    }

    /// Packets in the pipe, given the send loop's next sequence.
    pub(crate) fn in_flight(&self, high_seq: u64) -> u64 {
        match self {
            LossDetector::Scoreboard { board, .. } => board.in_flight(),
            LossDetector::DupAck { cum_ack, .. } => high_seq.saturating_sub(*cum_ack),
        }
    }

    /// `true` when nothing is outstanding (a timeout has nothing to do).
    pub(crate) fn is_idle(&self, high_seq: u64) -> bool {
        match self {
            LossDetector::Scoreboard { board, .. } => board.is_empty(),
            LossDetector::DupAck { cum_ack, .. } => high_seq == *cum_ack,
        }
    }

    /// The lowest declared-lost sequence awaiting retransmission (the
    /// dup-ack detector declares none: its policy names the segment).
    pub(crate) fn next_lost(&self) -> Option<u64> {
        match self {
            LossDetector::Scoreboard { board, .. } => board.next_lost(),
            LossDetector::DupAck { .. } => None,
        }
    }

    /// Record that `seq` leaves at `now` with the sender's delivered
    /// counter at `delivered`; returns whether it is a retransmission.
    pub(crate) fn on_send(&mut self, seq: u64, now: SimTime, delivered: u64) -> bool {
        match self {
            LossDetector::Scoreboard { board, meta } => {
                // The send loop only resends what the scoreboard declared.
                let retransmit = board.is_lost(seq);
                board.on_send(seq, now);
                let m = SendMeta {
                    sent_at: now,
                    delivered_at_send: delivered,
                };
                // A retransmission overwrites its entry, so the eventual
                // sample measures the copy that was acked.
                match meta.get_mut((seq - board.cum_ack()) as usize) {
                    Some(slot) => *slot = m,
                    None => meta.push_back(m),
                }
                retransmit
            }
            LossDetector::DupAck {
                high_water,
                retransmitted,
                ..
            } => {
                let retransmit = seq < *high_water;
                if retransmit {
                    retransmitted.insert(seq);
                }
                *high_water = (*high_water).max(seq + 1);
                retransmit
            }
        }
    }

    pub(crate) fn on_ack(&mut self, ack: &TcpAck, cfg: &TcpConfig) -> AckReport {
        match self {
            LossDetector::Scoreboard { board, meta } => {
                let before = board.cum_ack();
                let sacked_before = board.sacked();
                let newly_lost = board.on_ack(ack.cum_ack, &ack.sack, defaults::DUPACK_THRESHOLD);
                let cum = board.cum_ack();
                let advanced = cum.saturating_sub(before);
                // Drain the bookkeeping below the new cumulative ack; the
                // delivery-rate sample comes off the last packet of the
                // acked range (the persistent source is never application-
                // limited).
                let rate = meta
                    .drain(..advanced as usize)
                    .next_back()
                    .map(|m| RateSample {
                        newly_acked_bytes: advanced * cfg.packet_size as u64,
                        sent_at: m.sent_at,
                        delivered_at_send: m.delivered_at_send,
                        app_limited: false,
                    });
                AckReport {
                    advanced,
                    // First-time delivery reports: the cumulative advance
                    // net of packets an earlier SACK already reported,
                    // plus newly SACKed ones (cum + sacked is monotone, so
                    // this never underflows).
                    newly_delivered: (advanced + board.sacked()).saturating_sub(sacked_before),
                    newly_lost: newly_lost as u64,
                    rate,
                    rtt_ambiguous: false,
                }
            }
            LossDetector::DupAck {
                cum_ack,
                retransmitted,
                ..
            } => {
                let advanced = ack.cum_ack.saturating_sub(*cum_ack);
                let rtt_ambiguous =
                    advanced == 0 || retransmitted.range(*cum_ack..ack.cum_ack).next().is_some();
                if advanced > 0 {
                    *retransmitted = retransmitted.split_off(&ack.cum_ack);
                    *cum_ack = ack.cum_ack;
                }
                AckReport {
                    advanced,
                    newly_delivered: advanced, // no selective acks to report early
                    newly_lost: 0,             // the policy counts duplicates itself
                    rate: None,                // no per-segment send state
                    rtt_ambiguous,
                }
            }
        }
    }

    /// A retransmission timeout fired, marking `mark` lost; returns where
    /// the send loop resumes (its new `high_seq`).
    pub(crate) fn on_timeout(&mut self, mark: Mark, high_seq: u64) -> u64 {
        match self {
            LossDetector::Scoreboard { board, .. } => {
                if mark == Mark::All {
                    board.mark_all_lost();
                } else {
                    board.mark_head_lost();
                }
                high_seq
            }
            // Go-back-N: without per-segment state, resume from the hole,
            // whatever the mark.
            LossDetector::DupAck { cum_ack, .. } => *cum_ack,
        }
    }
}
