//! Property-based tests of the SACK scoreboard — the data structure both
//! TCP and the RLA build their loss detection on.

use proptest::prelude::*;

use netsim::time::SimTime;
use netsim::wire::SackBlock;
use tcp_sack::Scoreboard;

/// A random but *coherent* receiver: it holds some subset of the sent
/// packets; the cumulative ack is the first missing one, the SACK blocks
/// describe the rest.
fn receiver_view(sent: u64, held: &[bool]) -> (u64, Vec<SackBlock>) {
    let mut cum = 0u64;
    while (cum as usize) < held.len() && held[cum as usize] {
        cum += 1;
    }
    let mut blocks = Vec::new();
    let mut i = cum as usize;
    while i < held.len().min(sent as usize) {
        if held[i] {
            let start = i as u64;
            while i < held.len() && held[i] {
                i += 1;
            }
            blocks.push(SackBlock {
                start,
                end: i as u64,
            });
        } else {
            i += 1;
        }
    }
    (cum, blocks)
}

proptest! {
    /// The scoreboard never "receives" a packet the receiver doesn't hold,
    /// and everything below the cumulative ack is received.
    #[test]
    fn reception_tracking_is_exact(
        held in proptest::collection::vec(any::<bool>(), 1..64),
    ) {
        let sent = held.len() as u64;
        let mut sb = Scoreboard::new();
        for seq in 0..sent {
            sb.on_send(seq, SimTime::from_nanos(seq));
        }
        let (cum, blocks) = receiver_view(sent, &held);
        sb.on_ack(cum, &blocks, 3);
        for seq in 0..sent {
            prop_assert_eq!(
                sb.is_received(seq),
                held[seq as usize],
                "seq {} tracked wrong", seq
            );
        }
        prop_assert_eq!(sb.cum_ack(), cum);
    }

    /// A packet declared lost always has at least `thresh` held packets
    /// above it, and is itself missing at the receiver.
    #[test]
    fn loss_declarations_are_justified(
        held in proptest::collection::vec(any::<bool>(), 4..64),
        thresh in 1u64..5,
    ) {
        let sent = held.len() as u64;
        let mut sb = Scoreboard::new();
        for seq in 0..sent {
            sb.on_send(seq, SimTime::from_nanos(seq));
        }
        let (cum, blocks) = receiver_view(sent, &held);
        sb.on_ack(cum, &blocks, thresh);
        for seq in cum..sent {
            if sb.is_lost(seq) {
                prop_assert!(!held[seq as usize], "lost but held");
                let above = held[(seq as usize + 1)..]
                    .iter()
                    .filter(|&&h| h)
                    .count() as u64;
                prop_assert!(above >= thresh, "lost with only {} sacked above", above);
            }
        }
    }

    /// Monotonicity: acks can arrive in any order; the cumulative ack
    /// never regresses and counts never go negative.
    #[test]
    fn out_of_order_acks_never_regress(
        acks in proptest::collection::vec((0u64..40, any::<bool>()), 1..40),
    ) {
        let mut sb = Scoreboard::new();
        for seq in 0..40u64 {
            sb.on_send(seq, SimTime::from_nanos(seq));
        }
        let mut best = 0u64;
        for &(cum, with_sack) in &acks {
            let blocks = if with_sack && cum + 3 < 40 {
                vec![SackBlock { start: cum + 1, end: cum + 3 }]
            } else {
                vec![]
            };
            sb.on_ack(cum, &blocks, 3);
            best = best.max(cum);
            prop_assert_eq!(sb.cum_ack(), best);
            prop_assert!(sb.in_flight() <= sb.outstanding());
        }
    }

    /// in_flight + sacked + lost partition the outstanding set.
    #[test]
    fn flight_accounting_partitions(
        held in proptest::collection::vec(any::<bool>(), 1..64),
    ) {
        let sent = held.len() as u64;
        let mut sb = Scoreboard::new();
        for seq in 0..sent {
            sb.on_send(seq, SimTime::from_nanos(seq));
        }
        let (cum, blocks) = receiver_view(sent, &held);
        sb.on_ack(cum, &blocks, 3);
        let outstanding = sb.outstanding();
        let in_flight = sb.in_flight();
        let lost = sb.lost_unretransmitted().len() as u64;
        let sacked = (cum..sent).filter(|&s| sb.is_received(s)).count() as u64;
        prop_assert_eq!(outstanding, in_flight + lost + sacked);
    }

    /// Retransmitting every declared loss empties the lost set and puts
    /// the packets back in flight.
    #[test]
    fn retransmission_restores_flight(
        held in proptest::collection::vec(any::<bool>(), 4..64),
    ) {
        let sent = held.len() as u64;
        let mut sb = Scoreboard::new();
        for seq in 0..sent {
            sb.on_send(seq, SimTime::from_nanos(seq));
        }
        let (cum, blocks) = receiver_view(sent, &held);
        sb.on_ack(cum, &blocks, 3);
        let before_flight = sb.in_flight();
        let lost = sb.lost_unretransmitted();
        for &seq in &lost {
            sb.on_send(seq, SimTime::from_nanos(1_000_000 + seq));
        }
        prop_assert!(sb.lost_unretransmitted().is_empty());
        prop_assert_eq!(sb.in_flight(), before_flight + lost.len() as u64);
    }
}

proptest! {
    /// Over any interleaving of next-sequence sends, resends of
    /// outstanding sequences, acks with SACK blocks and timeouts, the
    /// board tracks exactly `[cum_ack, next)`, never counts `cum_ack` as
    /// received, and its counters partition that window:
    /// `in_flight + sacked + lost == outstanding`.
    #[test]
    fn the_ring_is_dense_from_cum_ack_to_next(
        steps in proptest::collection::vec((0u8..9, any::<u64>(), any::<bool>()), 1..200),
    ) {
        let mut sb = Scoreboard::new();
        // `held[seq]`: the receiver holds `seq`; its length is `next`.
        let mut held: Vec<bool> = Vec::new();
        for (t, &(kind, pick, flag)) in steps.iter().enumerate() {
            let now = SimTime::from_nanos(t as u64);
            match kind {
                // Send the next sequence; it arrives when `flag`.
                0..=2 => {
                    sb.on_send(held.len() as u64, now);
                    held.push(flag);
                }
                // Resend an outstanding sequence; it arrives when `flag`.
                3..=4 => {
                    if sb.outstanding() > 0 {
                        let seq = sb.cum_ack() + pick % sb.outstanding();
                        sb.on_send(seq, now);
                        held[seq as usize] |= flag;
                    }
                }
                // The receiver acks everything it holds.
                5..=7 => {
                    let (cum, blocks) = receiver_view(held.len() as u64, &held);
                    sb.on_ack(cum, &blocks, 3);
                    prop_assert_eq!(sb.cum_ack(), cum);
                }
                // A timeout marks everything or just the head.
                _ => {
                    if flag {
                        sb.mark_all_lost();
                    } else {
                        sb.mark_head_lost();
                    }
                }
            }
            let next = held.len() as u64;
            for seq in 0..next + 2 {
                prop_assert_eq!(
                    sb.get(seq).is_some(),
                    (sb.cum_ack()..next).contains(&seq),
                    "seq {} against window [{}, {})", seq, sb.cum_ack(), next
                );
            }
            prop_assert_eq!(sb.outstanding(), next - sb.cum_ack());
            // The receiver never holds its cumulative ack, so the RLA's
            // `max_reach_all` can be the smallest cumulative ack.
            prop_assert!(!sb.is_received(sb.cum_ack()), "holds cum_ack {}", sb.cum_ack());
            let window = sb.cum_ack()..next;
            let sacked = window.clone().filter(|&s| sb.get(s).unwrap().sacked).count() as u64;
            let lost = window.filter(|&s| sb.is_lost(s)).count() as u64;
            prop_assert_eq!(sb.sacked(), sacked);
            prop_assert_eq!(sb.in_flight() + sacked + lost, sb.outstanding());
        }
    }
}
