//! Property-based tests of the SACK receive side, [`Reassembly`] — the
//! state both the TCP receiver and the RLA's multicast receiver ack from.

use std::collections::BTreeSet;

use proptest::prelude::*;

use netsim::time::SimTime;
use netsim::wire::MAX_SACK_BLOCKS;
use tcp_sack::Reassembly;

/// The maximal runs of `held` above `cum_ack`, as `(start, end)` pairs.
fn runs_above(held: &BTreeSet<u64>, cum_ack: u64) -> Vec<(u64, u64)> {
    let mut runs: Vec<(u64, u64)> = Vec::new();
    for &seq in held.range(cum_ack..) {
        match runs.last_mut() {
            Some(run) if run.1 == seq => run.1 += 1,
            _ => runs.push((seq, seq + 1)),
        }
    }
    runs
}

proptest! {
    /// Over any arrival order with duplicates, from any starting point,
    /// after every arrival: the cumulative ack is the lowest sequence not
    /// yet held, every arrival is delivered, buffered or a duplicate, and the SACK
    /// blocks are distinct maximal runs of held sequences above the
    /// cumulative ack — as many as fit on the wire, the one holding the
    /// latest arrival first.
    #[test]
    fn every_ack_describes_what_is_held(
        start in 0u64..8,
        arrivals in proptest::collection::vec(0u64..48, 1..160),
    ) {
        let mut r = Reassembly::starting_at(start);
        let mut held: BTreeSet<u64> = (0..start).collect();
        for (i, &seq) in arrivals.iter().enumerate() {
            let t = SimTime::from_nanos(i as u64);
            let ack = r.accept(seq, t);
            held.insert(seq);

            let lowest_missing = (0..).find(|s| !held.contains(s)).unwrap();
            prop_assert_eq!(ack.cum_ack, lowest_missing);
            prop_assert_eq!(r.cum_ack(), lowest_missing);
            prop_assert_eq!(ack.echo_timestamp, t);

            // An arrival held out of order is neither delivered nor a
            // duplicate until the hole below it fills.
            let runs = runs_above(&held, ack.cum_ack);
            let buffered: u64 = runs.iter().map(|(s, e)| e - s).sum();
            let stats = &r.stats;
            prop_assert_eq!(stats.arrivals, i as u64 + 1);
            prop_assert_eq!(stats.delivered + stats.duplicates + buffered, stats.arrivals);
            prop_assert_eq!(stats.delivered, lowest_missing - start);

            prop_assert!(ack.sack.len() <= MAX_SACK_BLOCKS);
            prop_assert_eq!(ack.sack.len(), runs.len().min(MAX_SACK_BLOCKS));
            for (j, b) in ack.sack.iter().enumerate() {
                prop_assert!(runs.contains(&(b.start, b.end)), "{:?} is no maximal run", b);
                prop_assert!(!ack.sack[..j].contains(b), "{:?} listed twice", b);
            }
            if seq > ack.cum_ack {
                prop_assert!(ack.sack[0].contains(seq), "latest {} not first", seq);
            }
        }
    }
}
