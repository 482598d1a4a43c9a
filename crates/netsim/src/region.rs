//! The region partition behind the engine's keyed calendar.
//!
//! The tree topologies of the paper have a useful property: every link
//! carries a propagation delay, so a packet crossing a link cannot affect
//! the far side for at least that long. Partitioning the topology along
//! links whose delay is at least a bound θ yields *regions*, and θ is a
//! certified lookahead between them — the classic conservative-lookahead
//! argument of parallel discrete-event simulation.
//!
//! The engine runs one calendar and uses the partition for two other
//! things. Each region owns an RNG stream, a packet-uid tag and a
//! trace-digest lane (`region_seed` derives the stream), which the golden
//! digests pin. And a packet leaving its region has its arrival filed
//! under a calendar key fixed by the θ-grid epoch its transmission ends
//! in ([`crate::event::boundary_key`], [`grid_next`]) rather than by when
//! it was filed.
//!
//! [`Regions`] computes the partition: nodes connected by links with
//! propagation delay *below* θ are merged into one region (they interact
//! too quickly to separate), and the *lookahead* `L` is the minimum delay
//! over the links that remain cut.
//!
//! # Determinism contract
//!
//! The partition is a pure function of the topology and θ. Epoch barriers
//! are absolute grid points `i·L`, never caller-chosen deadlines, so the
//! keys — and therefore same-instant dispatch order — are independent of
//! how the caller steps `run_until`.

use crate::id::NodeId;
use crate::time::{SimDuration, SimTime};

/// A partition of the topology's nodes into conservative-lookahead
/// regions. See the [module docs](self) for the partition rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Regions {
    /// Per node: its region index. Empty in the trivial single-region map,
    /// where every node is region 0 regardless of index.
    region_of: Vec<u32>,
    /// Number of regions (at least 1).
    count: u32,
    /// Minimum propagation delay over cut (inter-region) links; zero in
    /// the single-region map, where it is never consulted.
    lookahead: SimDuration,
}

impl Regions {
    /// The trivial map: every node in region 0. This is the map an
    /// unpartitioned engine carries.
    pub fn single() -> Self {
        Regions {
            region_of: Vec::new(),
            count: 1,
            lookahead: SimDuration::ZERO,
        }
    }

    /// Partition `node_count` nodes along the directed links
    /// `(from, to, prop_delay)`.
    ///
    /// Endpoints of any link with `prop_delay < theta` are merged into one
    /// region; the remaining (cut) links all carry at least `theta` of
    /// delay, and the lookahead is their minimum. `theta` defaults to the
    /// smallest positive link delay in the topology — the finest partition
    /// the delays admit. Regions are numbered by first appearance in node
    /// order, so the result is a pure function of the topology and θ.
    ///
    /// # Panics
    /// If an explicit `theta` is zero (a zero lookahead admits no
    /// conservative window).
    pub fn partition(
        node_count: usize,
        links: &[(NodeId, NodeId, SimDuration)],
        theta: Option<SimDuration>,
    ) -> Self {
        if let Some(t) = theta {
            assert!(
                !t.is_zero(),
                "partition threshold must be positive: a zero lookahead admits no epoch window"
            );
        }
        let theta = theta.or_else(|| {
            links
                .iter()
                .map(|&(_, _, d)| d)
                .filter(|d| !d.is_zero())
                .min()
        });
        let Some(theta) = theta else {
            // No links with positive delay anywhere: nothing to cut.
            return Regions::single();
        };

        // Union-find over nodes; links too fast to cut merge their
        // endpoints.
        let mut parent: Vec<u32> = (0..node_count as u32).collect();
        for &(from, to, delay) in links {
            if delay < theta {
                let a = find(&mut parent, from.index() as u32);
                let b = find(&mut parent, to.index() as u32);
                if a != b {
                    // Smaller root wins, keeping numbering order-stable.
                    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                    parent[hi as usize] = lo;
                }
            }
        }

        // Compress roots to dense region ids in node order.
        let mut region_of = vec![u32::MAX; node_count];
        let mut count = 0u32;
        for n in 0..node_count as u32 {
            let root = find(&mut parent, n);
            if region_of[root as usize] == u32::MAX {
                region_of[root as usize] = count;
                count += 1;
            }
            region_of[n as usize] = region_of[root as usize];
        }
        if count <= 1 {
            return Regions::single();
        }

        // Lookahead: the tightest cut link bounds the epoch width.
        let lookahead = links
            .iter()
            .filter(|&&(from, to, _)| region_of[from.index()] != region_of[to.index()])
            .map(|&(_, _, d)| d)
            .min()
            .expect("multiple regions imply at least one cut link");
        debug_assert!(lookahead >= theta, "cut link faster than the threshold");

        Regions {
            region_of,
            count,
            lookahead,
        }
    }

    /// The region a node belongs to.
    #[inline]
    pub fn region_of(&self, node: NodeId) -> u32 {
        if self.count == 1 {
            0
        } else {
            self.region_of[node.index()]
        }
    }

    /// Number of regions.
    pub fn count(&self) -> usize {
        self.count as usize
    }

    /// `true` when the map actually splits the topology.
    pub fn is_partitioned(&self) -> bool {
        self.count > 1
    }

    /// The conservative lookahead: the minimum propagation delay over
    /// inter-region links. Zero for the single-region map.
    pub fn lookahead(&self) -> SimDuration {
        self.lookahead
    }
}

/// Path-halving find for the union-find pass above.
fn find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        let up = parent[parent[x as usize] as usize];
        parent[x as usize] = up;
        x = up;
    }
    x
}

/// The next epoch barrier after `now`: the smallest multiple of
/// `lookahead` strictly greater than `now`. Grid points are absolute
/// (independent of where a `run_until` call happens to pause), which is
/// what makes the keys — and therefore the digests — invariant under
/// caller stepping.
#[inline]
pub fn grid_next(now: SimTime, lookahead: SimDuration) -> SimTime {
    let l = lookahead.as_nanos();
    debug_assert!(l > 0, "epoch grid needs a positive lookahead");
    SimTime::from_nanos((now.as_nanos() / l + 1).saturating_mul(l))
}

/// Deterministic per-region RNG seed: a splitmix64-style mix of the base
/// seed and the region index. Region streams must be decorrelated (the
/// phase-effect machinery draws per-packet jitter from them) yet a pure
/// function of `(seed, region)`.
pub(crate) fn region_seed(seed: u64, region: u32) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(region as u64 + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    #[test]
    fn default_theta_cuts_every_positive_link() {
        // a -5ms- b -100ms- c: theta defaults to 5ms, no link is below it,
        // so all three nodes are their own region and L = 5ms.
        let links = vec![
            (NodeId(0), NodeId(1), ms(5)),
            (NodeId(1), NodeId(0), ms(5)),
            (NodeId(1), NodeId(2), ms(100)),
            (NodeId(2), NodeId(1), ms(100)),
        ];
        let m = Regions::partition(3, &links, None);
        assert_eq!(m.count(), 3);
        assert_eq!(m.lookahead(), ms(5));
        assert!(m.is_partitioned());
        // Numbered in node order.
        assert_eq!(m.region_of(NodeId(0)), 0);
        assert_eq!(m.region_of(NodeId(1)), 1);
        assert_eq!(m.region_of(NodeId(2)), 2);
    }

    #[test]
    fn explicit_theta_merges_fast_links() {
        // With theta above the 5ms link, a and b fuse; the 100ms link is
        // the only cut, so L = 100ms.
        let links = vec![
            (NodeId(0), NodeId(1), ms(5)),
            (NodeId(1), NodeId(0), ms(5)),
            (NodeId(1), NodeId(2), ms(100)),
            (NodeId(2), NodeId(1), ms(100)),
        ];
        let m = Regions::partition(3, &links, Some(ms(10)));
        assert_eq!(m.count(), 2);
        assert_eq!(m.lookahead(), ms(100));
        assert_eq!(m.region_of(NodeId(0)), m.region_of(NodeId(1)));
        assert_ne!(m.region_of(NodeId(0)), m.region_of(NodeId(2)));
    }

    #[test]
    fn fully_merged_topology_is_single_region() {
        let links = vec![(NodeId(0), NodeId(1), ms(1)), (NodeId(1), NodeId(2), ms(1))];
        let m = Regions::partition(3, &links, Some(ms(50)));
        assert_eq!(m.count(), 1);
        assert!(!m.is_partitioned());
        assert_eq!(m.region_of(NodeId(2)), 0);
    }

    #[test]
    fn single_map_covers_any_node() {
        let m = Regions::single();
        assert_eq!(m.count(), 1);
        assert_eq!(m.region_of(NodeId(999)), 0);
        assert_eq!(m.lookahead(), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "zero lookahead")]
    fn zero_theta_is_rejected() {
        Regions::partition(2, &[(NodeId(0), NodeId(1), ms(1))], Some(SimDuration::ZERO));
    }

    #[test]
    fn grid_steps_are_absolute_and_strictly_advancing() {
        let l = ms(5);
        assert_eq!(grid_next(SimTime::ZERO, l), SimTime::from_millis(5));
        assert_eq!(
            grid_next(SimTime::from_millis(5), l),
            SimTime::from_millis(10)
        );
        assert_eq!(
            grid_next(SimTime::from_millis(7), l),
            SimTime::from_millis(10),
            "mid-epoch resumption lands on the same absolute barrier"
        );
        assert_eq!(
            grid_next(SimTime::from_nanos(4_999_999), l),
            SimTime::from_millis(5)
        );
    }

    #[test]
    fn final_barrier_landing_exactly_on_the_deadline_runs_once() {
        // The epoch loop's arithmetic when the run end is an exact grid
        // multiple: every barrier — including the one *at* the deadline —
        // is visited exactly once, and the loop terminates with the clock
        // on the deadline (events at the deadline instant are dispatched
        // in that final epoch, never dropped or replayed).
        let l = ms(5);
        let deadline = SimTime::from_millis(15);
        let mut t = SimTime::ZERO;
        let mut barriers = Vec::new();
        while t < deadline {
            let b = grid_next(t, l);
            let target = b.min(deadline);
            assert!(target > t, "epoch made no progress");
            if target == b {
                barriers.push(b);
            }
            t = target;
        }
        assert_eq!(
            barriers,
            vec![
                SimTime::from_millis(5),
                SimTime::from_millis(10),
                SimTime::from_millis(15)
            ],
            "the final barrier must coincide with the deadline and fire once"
        );
        assert_eq!(t, deadline);
    }

    #[test]
    fn grid_next_from_an_exact_barrier_strictly_advances() {
        // Resuming a run whose deadline landed exactly on a barrier must
        // compute the *next* barrier, not re-run the one just completed.
        let l = ms(5);
        assert_eq!(
            grid_next(SimTime::from_millis(15), l),
            SimTime::from_millis(20)
        );
    }

    #[test]
    fn region_seeds_differ_per_region_and_are_stable() {
        let a = region_seed(1, 0);
        let b = region_seed(1, 1);
        assert_ne!(a, b);
        assert_eq!(a, region_seed(1, 0), "pure function of (seed, region)");
        assert_ne!(region_seed(2, 0), a);
    }
}
