//! Domain partitioning for the parallel engine.
//!
//! The tree topologies of the paper have a useful property for parallel
//! discrete-event simulation: every link carries a propagation delay, so a
//! packet crossing a link cannot affect the far side for at least that
//! long. Partitioning the topology along links whose delay is at least a
//! bound θ yields *domains* that can each run θ of simulated time without
//! looking at any other domain — the classic conservative-lookahead
//! argument, here realised as an epoch barrier instead of null messages.
//!
//! [`DomainMap`] computes that partition: nodes connected by links with
//! propagation delay *below* θ are merged into one domain (they interact
//! too quickly to separate), and the *lookahead* `L` is the minimum delay
//! over the links that remain cut. The epoch executor in
//! [`engine`](crate::engine) advances every domain to the next multiple of
//! `L` ([`grid_next`]) and then exchanges [`BoundaryMsg`]s — packets
//! transmitted in one domain whose arrival node lives in another.
//!
//! # Determinism contract
//!
//! The partition is a pure function of the topology and θ, never of the
//! worker count: running the same partitioned world on 1, 2 or 4 workers
//! executes the identical per-domain event streams and produces
//! bit-identical trace digests. Boundary messages are exchanged only at
//! absolute grid barriers `i·L` (never at caller-chosen deadlines), each
//! under a calendar key that is a pure function of the message, so the
//! per-domain calendar sequence numbers — and therefore same-instant FIFO
//! dispatch — are independent of both the worker count and how the caller
//! steps `run_until`.

use crate::id::NodeId;
use crate::packet::Packet;
use crate::time::{SimDuration, SimTime};

/// A packet crossing from one domain to another: it leaves the sending
/// domain's arena for the outbox when its transmission *starts* (the
/// arrival instant is already known then) and is scheduled into the
/// arrival node's domain at the next epoch barrier.
#[derive(Debug, Clone, Copy)]
pub struct BoundaryMsg {
    /// Arrival instant at the destination node (end of transmission plus
    /// the cut link's propagation delay — by construction past the barrier
    /// that hands the message over).
    pub at: SimTime,
    /// The node the packet arrives at (in the destination domain).
    pub node: NodeId,
    /// The packet itself, by value: it left the sending domain's arena and
    /// enters the destination domain's arena on delivery.
    pub packet: Packet,
    /// The arrival's calendar key ([`crate::event::boundary_key`]): with
    /// `at`, its dispatch position, whatever order the exchange delivers
    /// messages in.
    pub key: u64,
}

/// A partition of the topology's nodes into conservative-lookahead
/// domains. See the [module docs](self) for the partition rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainMap {
    /// Per node: its domain index. Empty in the trivial single-domain map,
    /// where every node is domain 0 regardless of index.
    domain_of: Vec<u32>,
    /// Number of domains (at least 1).
    domains: u32,
    /// Minimum propagation delay over cut (inter-domain) links; zero in
    /// the single-domain map, where it is never consulted.
    lookahead: SimDuration,
}

impl DomainMap {
    /// The trivial map: every node (present or future) in domain 0. This
    /// is the map an unpartitioned engine carries.
    pub fn single() -> Self {
        DomainMap {
            domain_of: Vec::new(),
            domains: 1,
            lookahead: SimDuration::ZERO,
        }
    }

    /// Partition `node_count` nodes along the directed links
    /// `(from, to, prop_delay)`.
    ///
    /// Endpoints of any link with `prop_delay < theta` are merged into one
    /// domain; the remaining (cut) links all carry at least `theta` of
    /// delay, and the lookahead is their minimum. `theta` defaults to the
    /// smallest positive link delay in the topology — the finest partition
    /// the delays admit. Domains are numbered by first appearance in node
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
            return DomainMap::single();
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

        // Compress roots to dense domain ids in node order.
        let mut domain_of = vec![u32::MAX; node_count];
        let mut domains = 0u32;
        for n in 0..node_count as u32 {
            let root = find(&mut parent, n);
            if domain_of[root as usize] == u32::MAX {
                domain_of[root as usize] = domains;
                domains += 1;
            }
            domain_of[n as usize] = domain_of[root as usize];
        }
        if domains <= 1 {
            return DomainMap::single();
        }

        // Lookahead: the tightest cut link bounds the epoch width.
        let lookahead = links
            .iter()
            .filter(|&&(from, to, _)| domain_of[from.index()] != domain_of[to.index()])
            .map(|&(_, _, d)| d)
            .min()
            .expect("multiple domains imply at least one cut link");
        debug_assert!(lookahead >= theta, "cut link faster than the threshold");

        DomainMap {
            domain_of,
            domains,
            lookahead,
        }
    }

    /// Coalesce this partition's domains into at most `target` groups,
    /// merging along the fastest inter-domain links first so the surviving
    /// cut links — and with them the merged lookahead — are as slow as the
    /// topology allows. `costs` (one weight per domain, typically an
    /// event-load estimate) keeps the groups balanced: a merge is skipped
    /// while the combined weight would exceed 125% of the ideal
    /// `total/target` share; if the cap alone cannot reach the target the
    /// remaining merges are chosen balance-greedily — each round unions
    /// the connected pair with the lightest combined weight (ties to the
    /// faster link), so the forced merges spread load instead of piling
    /// onto the heaviest group. Returns the merged map (nodes → groups);
    /// with one group the result is [`DomainMap::single`].
    ///
    /// The merge is deterministic: candidate links are taken in ascending
    /// `(delay, domain pair)` order, forced merges break ties on
    /// `(weight, delay, domain pair)`, and groups are numbered by first
    /// appearance in node order, so the result is a pure function of the
    /// partition, the links, `target` and `costs` — never of worker
    /// counts or timing.
    pub fn merged(
        &self,
        links: &[(NodeId, NodeId, SimDuration)],
        target: usize,
        costs: Option<&[u64]>,
    ) -> DomainMap {
        assert!(target >= 1, "at least one group is required");
        let r_count = self.domains();
        if !self.is_partitioned() || target >= r_count {
            return self.clone();
        }
        if let Some(c) = costs {
            assert_eq!(c.len(), r_count, "need exactly one cost per domain");
        }

        // Candidate cut links between distinct domains, fastest first;
        // deduplicated so a full-duplex link is one candidate.
        let mut candidates: Vec<(SimDuration, u32, u32)> = links
            .iter()
            .filter_map(|&(from, to, d)| {
                let a = self.domain_of(from);
                let b = self.domain_of(to);
                (a != b).then_some((d, a.min(b), a.max(b)))
            })
            .collect();
        candidates.sort_unstable();
        candidates.dedup();

        let mut parent: Vec<u32> = (0..r_count as u32).collect();
        let mut weight: Vec<u64> = match costs {
            Some(c) => c.to_vec(),
            None => vec![1; r_count],
        };
        let total: u64 = weight.iter().sum();
        let ideal = total.div_ceil(target as u64).max(1);
        let cap = ideal + ideal / 4;
        let mut groups = r_count;
        let union = |parent: &mut Vec<u32>, weight: &mut Vec<u64>, ra: u32, rb: u32| {
            // Smaller root wins, keeping the numbering order-stable.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            parent[hi as usize] = lo;
            weight[lo as usize] = weight[lo as usize].saturating_add(weight[hi as usize]);
        };

        // Pass 1: balanced merges along the fastest cuts.
        for &(_, a, b) in &candidates {
            if groups == target {
                break;
            }
            let ra = find(&mut parent, a);
            let rb = find(&mut parent, b);
            if ra == rb {
                continue;
            }
            if weight[ra as usize].saturating_add(weight[rb as usize]) > cap {
                continue;
            }
            union(&mut parent, &mut weight, ra, rb);
            groups -= 1;
        }
        // Pass 2: the balance cap may strand groups above the target.
        // Pack the stranded groups into `target` bins, heaviest first,
        // each into the currently lightest bin (LPT scheduling). An
        // execution group does not need to be link-connected — the epoch
        // grid is the *fine* lookahead θ at every shard count, so the
        // surviving cut set never widens an epoch — and following links
        // here would be actively harmful: in a star topology every
        // stranded leaf connects only through the hub, so link-following
        // forced merges pile all remaining load onto the one heavy
        // component. This also folds link-disconnected components, which
        // have no candidates at all.
        if groups > target {
            let mut units: Vec<(u64, u32)> = (0..r_count as u32)
                .filter(|&r| find(&mut parent, r) == r)
                .map(|r| (weight[r as usize], r))
                .collect();
            // Heaviest first; ties by the lower root for determinism.
            units.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
            let mut bins: Vec<(u64, Option<u32>)> = vec![(0, None); target];
            for (w, r) in units {
                let i = (0..target)
                    .min_by_key(|&i| (bins[i].0, i))
                    .expect("target >= 1");
                match bins[i].1 {
                    None => bins[i] = (w, Some(r)),
                    Some(root) => {
                        union(&mut parent, &mut weight, root, r);
                        bins[i].0 += w;
                        bins[i].1 = Some(root.min(r));
                        groups -= 1;
                    }
                }
            }
            debug_assert!(groups <= target, "LPT packing missed the target");
        }

        // Dense group ids in node order, exactly like `partition`.
        let node_count = self.domain_of.len();
        let mut group_of_root = vec![u32::MAX; r_count];
        let mut domain_of = vec![u32::MAX; node_count];
        let mut domains = 0u32;
        for (node, slot) in domain_of.iter_mut().enumerate() {
            let root = find(&mut parent, self.domain_of[node]);
            if group_of_root[root as usize] == u32::MAX {
                group_of_root[root as usize] = domains;
                domains += 1;
            }
            *slot = group_of_root[root as usize];
        }
        if domains <= 1 {
            return DomainMap::single();
        }

        let lookahead = links
            .iter()
            .filter(|&&(from, to, _)| domain_of[from.index()] != domain_of[to.index()])
            .map(|&(_, _, d)| d)
            .min()
            .expect("multiple groups imply at least one cut link");
        DomainMap {
            domain_of,
            domains,
            lookahead,
        }
    }

    /// The domain a node belongs to.
    #[inline]
    pub fn domain_of(&self, node: NodeId) -> u32 {
        if self.domains == 1 {
            0
        } else {
            self.domain_of[node.index()]
        }
    }

    /// Number of domains.
    pub fn domains(&self) -> usize {
        self.domains as usize
    }

    /// `true` when the map actually splits the topology.
    pub fn is_partitioned(&self) -> bool {
        self.domains > 1
    }

    /// The conservative lookahead: the minimum propagation delay over
    /// inter-domain links. Zero for the single-domain map.
    pub fn lookahead(&self) -> SimDuration {
        self.lookahead
    }

    /// Register one more node in a partitioned map, as its own fresh
    /// domain (it has no links yet; links added later are checked against
    /// the lookahead). Returns the new domain index. Internal to the
    /// engine's topology-growth path.
    pub(crate) fn push_isolated_node(&mut self) -> u32 {
        debug_assert!(self.is_partitioned());
        let d = self.domains;
        self.domain_of.push(d);
        self.domains += 1;
        d
    }
}

/// Path-halving find for the union-find passes above.
fn find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        let up = parent[parent[x as usize] as usize];
        parent[x as usize] = up;
        x = up;
    }
    x
}

/// The next epoch barrier after `now`: the smallest multiple of
/// `lookahead` strictly greater than `now`. Barriers are absolute
/// (independent of where a `run_until` call happens to pause), which is
/// what makes the exchange schedule — and therefore the digests —
/// invariant under caller stepping.
#[inline]
pub fn grid_next(now: SimTime, lookahead: SimDuration) -> SimTime {
    let l = lookahead.as_nanos();
    debug_assert!(l > 0, "epoch grid needs a positive lookahead");
    SimTime::from_nanos((now.as_nanos() / l + 1).saturating_mul(l))
}

/// Deterministic per-domain RNG seed: a splitmix64-style mix of the base
/// seed and the domain index. Domain streams must be decorrelated (the
/// phase-effect machinery draws per-packet jitter from them) yet a pure
/// function of `(seed, domain)` so every worker count sees identical
/// draws.
pub(crate) fn domain_seed(seed: u64, domain: u32) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(domain as u64 + 1));
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
        // so all three nodes are their own domain and L = 5ms.
        let links = vec![
            (NodeId(0), NodeId(1), ms(5)),
            (NodeId(1), NodeId(0), ms(5)),
            (NodeId(1), NodeId(2), ms(100)),
            (NodeId(2), NodeId(1), ms(100)),
        ];
        let m = DomainMap::partition(3, &links, None);
        assert_eq!(m.domains(), 3);
        assert_eq!(m.lookahead(), ms(5));
        assert!(m.is_partitioned());
        // Numbered in node order.
        assert_eq!(m.domain_of(NodeId(0)), 0);
        assert_eq!(m.domain_of(NodeId(1)), 1);
        assert_eq!(m.domain_of(NodeId(2)), 2);
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
        let m = DomainMap::partition(3, &links, Some(ms(10)));
        assert_eq!(m.domains(), 2);
        assert_eq!(m.lookahead(), ms(100));
        assert_eq!(m.domain_of(NodeId(0)), m.domain_of(NodeId(1)));
        assert_ne!(m.domain_of(NodeId(0)), m.domain_of(NodeId(2)));
    }

    #[test]
    fn fully_merged_topology_is_single_domain() {
        let links = vec![(NodeId(0), NodeId(1), ms(1)), (NodeId(1), NodeId(2), ms(1))];
        let m = DomainMap::partition(3, &links, Some(ms(50)));
        assert_eq!(m.domains(), 1);
        assert!(!m.is_partitioned());
        assert_eq!(m.domain_of(NodeId(2)), 0);
    }

    #[test]
    fn single_map_covers_any_node() {
        let m = DomainMap::single();
        assert_eq!(m.domains(), 1);
        assert_eq!(m.domain_of(NodeId(999)), 0);
        assert_eq!(m.lookahead(), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "zero lookahead")]
    fn zero_theta_is_rejected() {
        DomainMap::partition(2, &[(NodeId(0), NodeId(1), ms(1))], Some(SimDuration::ZERO));
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

    /// A chain 0 -5ms- 1 -5ms- 2 -100ms- 3 -5ms- 4 (full duplex), finely
    /// partitioned into five single-node domains.
    fn chain_links() -> Vec<(NodeId, NodeId, SimDuration)> {
        let delays = [ms(5), ms(5), ms(100), ms(5)];
        let mut links = Vec::new();
        for (i, &d) in delays.iter().enumerate() {
            let i = i as u32;
            links.push((NodeId(i), NodeId(i + 1), d));
            links.push((NodeId(i + 1), NodeId(i), d));
        }
        links
    }

    #[test]
    fn merged_collapses_to_one_group_at_target_one() {
        let links = chain_links();
        let fine = DomainMap::partition(5, &links, None);
        assert_eq!(fine.domains(), 5);
        let m = fine.merged(&links, 1, None);
        assert_eq!(m.domains(), 1);
        assert!(!m.is_partitioned());
    }

    #[test]
    fn merged_cuts_the_slowest_links() {
        // Merging 5 domains to 2 must spend its merges on the 5 ms links
        // and keep the 100 ms link as the cut, maximizing the merged
        // lookahead: {0,1,2} | {3,4}.
        let links = chain_links();
        let fine = DomainMap::partition(5, &links, None);
        let m = fine.merged(&links, 2, None);
        assert_eq!(m.domains(), 2);
        assert_eq!(m.lookahead(), ms(100));
        assert_eq!(m.domain_of(NodeId(0)), m.domain_of(NodeId(2)));
        assert_eq!(m.domain_of(NodeId(3)), m.domain_of(NodeId(4)));
        assert_ne!(m.domain_of(NodeId(2)), m.domain_of(NodeId(3)));
        // Groups are numbered by first appearance in node order.
        assert_eq!(m.domain_of(NodeId(0)), 0);
        assert_eq!(m.domain_of(NodeId(4)), 1);
    }

    #[test]
    fn merged_respects_the_balance_cap() {
        // Domain 0 carries almost all the load; with the cap active the
        // cheap domains must coalesce among themselves instead of piling
        // onto domain 0. Chain of four 5 ms links: merging to 2 with
        // costs [97,1,1,1,1] must not attach everything to domain 0.
        let delays = [ms(5), ms(5), ms(5), ms(5)];
        let mut links = Vec::new();
        for (i, &d) in delays.iter().enumerate() {
            let i = i as u32;
            links.push((NodeId(i), NodeId(i + 1), d));
            links.push((NodeId(i + 1), NodeId(i), d));
        }
        let fine = DomainMap::partition(5, &links, None);
        let m = fine.merged(&links, 2, Some(&[97, 1, 1, 1, 1]));
        assert_eq!(m.domains(), 2);
        // Ideal share is 51, cap 63: domain 0 (97) can absorb nothing, so
        // it stays alone and 1..4 fuse.
        assert_eq!(m.domain_of(NodeId(0)), 0);
        for n in 1..5 {
            assert_eq!(m.domain_of(NodeId(n)), 1);
        }
    }

    #[test]
    fn merged_is_identity_at_or_above_the_domain_count() {
        let links = chain_links();
        let fine = DomainMap::partition(5, &links, None);
        assert_eq!(fine.merged(&links, 5, None), fine);
        assert_eq!(fine.merged(&links, 8, None), fine);
    }

    #[test]
    fn merged_folds_disconnected_components() {
        // Two disjoint pairs (no inter-component link): merging to 1 must
        // still succeed via the root-folding fallback.
        let links = vec![
            (NodeId(0), NodeId(1), ms(10)),
            (NodeId(2), NodeId(3), ms(10)),
        ];
        let fine = DomainMap::partition(4, &links, None);
        assert_eq!(fine.domains(), 4);
        let m = fine.merged(&links, 1, None);
        assert_eq!(m.domains(), 1);
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
    fn domain_seeds_differ_per_domain_and_are_stable() {
        let a = domain_seed(1, 0);
        let b = domain_seed(1, 1);
        assert_ne!(a, b);
        assert_eq!(a, domain_seed(1, 0), "pure function of (seed, domain)");
        assert_ne!(domain_seed(2, 0), a);
    }
}
