//! Scoreboard edge cases the property suite doesn't pin down:
//! duplicate/overlapping SACK blocks, receiver reneging, and holes at the
//! left edge of the window.

use netsim::time::SimTime;
use netsim::wire::SackBlock;
use tcp_sack::Scoreboard;

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
fn duplicate_sack_blocks_are_idempotent() {
    // RFC 2018 receivers repeat the most recent block first; the same
    // range arriving twice in one ack must count once.
    let mut a = sb_with_sent(8);
    let dup = a.on_ack(0, &[block(1, 5), block(1, 5), block(2, 4)], 3);
    let mut b = sb_with_sent(8);
    let single = b.on_ack(0, &[block(1, 5)], 3);
    assert_eq!(dup, single, "duplicate blocks changed the loss count");
    assert_eq!(a.in_flight(), b.in_flight());
    assert_eq!(a.lost_unretransmitted(), b.lost_unretransmitted());
}

#[test]
fn repeated_identical_acks_declare_loss_once() {
    let mut sb = sb_with_sent(6);
    assert_eq!(sb.on_ack(0, &[block(1, 5)], 3), 1);
    // The network duplicates the ack: no *new* losses may be declared.
    assert_eq!(sb.on_ack(0, &[block(1, 5)], 3), 0);
    assert_eq!(sb.on_ack(0, &[block(1, 5)], 3), 0);
    assert_eq!(sb.lost_unretransmitted(), vec![0]);
}

#[test]
fn overlapping_blocks_union_correctly() {
    let mut sb = sb_with_sent(10);
    // Three overlapping blocks covering 1..8 with a hole at 0.
    let lost = sb.on_ack(0, &[block(1, 4), block(3, 6), block(5, 8)], 3);
    assert_eq!(lost, 1);
    for seq in 1..8 {
        assert!(sb.is_received(seq), "seq {seq} must be sacked");
    }
    assert!(!sb.is_received(8));
    assert_eq!(sb.in_flight(), 2); // 8 and 9
}

#[test]
fn reneging_receiver_does_not_unsack() {
    // RFC 2018 allows a receiver to discard sacked-but-not-delivered data
    // ("reneging"). The conservative sender behaviour the paper's SACK
    // model follows: once sacked, a packet stays sacked — only the
    // retransmission timeout recovers from an actual renege.
    let mut sb = sb_with_sent(6);
    // SACKs for 2..5 also declare the left-edge holes 0 and 1 lost
    // (three sacked packets sit above each).
    assert_eq!(sb.on_ack(0, &[block(2, 5)], 3), 2);
    assert!(sb.is_received(3));
    // Later ack carries *no* SACK info for 2..5 (the renege): state must
    // not regress.
    sb.on_ack(1, &[], 3);
    assert!(sb.is_received(3), "sacked state must survive a renege");
    assert_eq!(sb.in_flight(), 1); // only 5 (1 is lost, 2..5 sacked)
                                   // The timeout path still covers the reneged data: every unsacked
                                   // packet (the lost hole at 1 and the tail at 5) is marked, and the
                                   // sacked range keeps being trusted as delivered.
    let marked = sb.mark_all_lost();
    assert_eq!(marked, 2);
    assert_eq!(sb.next_lost(), Some(1));
}

#[test]
fn left_edge_hole_declared_lost_with_enough_evidence() {
    // The hole sits exactly at the cumulative ack (the left edge of the
    // window) — the common fast-retransmit case.
    let mut sb = sb_with_sent(5);
    sb.on_ack(1, &[block(2, 5)], 3);
    assert!(sb.is_lost(1), "left-edge hole with 3 SACKs above");
    let head = sb.head_hole().expect("hole exists");
    assert_eq!(head.seq, 1);
    assert!(head.evidence);
    assert!(!head.retransmitted);
}

#[test]
fn left_edge_hole_without_evidence_is_not_lost() {
    let mut sb = sb_with_sent(4);
    // Only two SACKs above the hole: below the dup threshold.
    sb.on_ack(1, &[block(2, 4)], 3);
    assert!(!sb.is_lost(1));
    assert_eq!(sb.lost_unretransmitted(), Vec::<u64>::new());
    // head_hole still reports the gap so the early-retransmit timer can
    // cover it.
    let head = sb.head_hole().expect("hole exists");
    assert_eq!(head.seq, 1);
    assert!(head.evidence);
}

#[test]
fn left_edge_advances_past_filled_hole() {
    let mut sb = sb_with_sent(6);
    sb.on_ack(1, &[block(2, 6)], 3);
    assert_eq!(sb.next_lost(), Some(1));
    sb.on_send(1, SimTime::from_secs(50)); // retransmit the hole
                                           // The retransmission arrives: cumulative ack jumps the whole window.
    sb.on_ack(6, &[], 3);
    assert!(sb.is_empty());
    assert_eq!(sb.cum_ack(), 6);
    assert_eq!(sb.head_hole(), None);
}

#[test]
fn mark_head_lost_targets_left_edge_only() {
    let mut sb = sb_with_sent(5);
    sb.on_ack(0, &[block(1, 2)], 3); // hole at 0, then 2..5 unsacked
    assert_eq!(sb.mark_head_lost(), Some(0));
    assert!(sb.is_lost(0));
    assert!(!sb.is_lost(2), "only the head may be marked");
    assert_eq!(sb.lost_unretransmitted(), vec![0]);
}

#[test]
fn mark_head_lost_marks_the_head_hole() {
    // The RLA's early repairs judge `head_hole` and then mark with
    // `mark_head_lost`: the two must find the same packet, sacked slots,
    // retransmissions and all.
    let mut sb = sb_with_sent(8);
    let agree = |sb: &mut Scoreboard| {
        let head = sb.head_hole().map(|h| h.seq);
        assert_eq!(sb.mark_head_lost(), head);
    };
    agree(&mut sb);
    sb.on_send(0, SimTime::from_secs(9)); // the repair leaves
    sb.on_ack(0, &[block(0, 1), block(2, 6)], 3); // ...and is SACKed above a hole
    assert_eq!(sb.head_hole().map(|h| h.seq), Some(1));
    agree(&mut sb);
    sb.on_ack(8, &[], 3);
    agree(&mut sb);
    assert_eq!(sb.head_hole(), None);
}

#[test]
fn sack_block_clipped_at_cum_ack() {
    let mut sb = sb_with_sent(6);
    sb.on_ack(3, &[], 3);
    // A block straddling the cumulative ack: only the part above counts.
    let lost = sb.on_ack(3, &[block(1, 5)], 3);
    assert_eq!(lost, 0, "3 and 4 sacked leaves no hole below them");
    assert!(sb.is_received(2), "below cum ack");
    assert!(sb.is_received(4), "sacked part of the block");
    assert!(!sb.is_received(5), "still in flight");
    assert_eq!(sb.cum_ack(), 3);
    assert_eq!(sb.in_flight(), 1);
}
