//! Regions: the partition behind the engine's keyed calendar, and what
//! each region owns.
//!
//! The tree topologies of the paper have a useful property: every link
//! carries a propagation delay, so a packet crossing a link cannot affect
//! the far side for at least that long. Partitioning the topology along
//! links whose delay is at least a bound θ yields *regions*, and θ is a
//! certified lookahead between them — the classic conservative-lookahead
//! argument of parallel discrete-event simulation.
//!
//! The engine runs one calendar in one loop and reads the partition
//! through one type, [`Regions`], for two things. Each region owns an RNG
//! stream, a packet-uid tag and a trace-digest lane, which the golden
//! digests pin. And a packet leaving its region has its arrival filed
//! under a calendar key fixed by the θ-grid epoch its transmission ends in
//! ([`crate::event::boundary_key`]) rather than by when it was filed.
//!
//! [`Regions::partition`]: nodes connected by links with propagation delay
//! *below* θ are merged into one region (they interact too quickly to
//! separate), and the *lookahead* `L` is the minimum delay over the links
//! that remain cut.
//!
//! # Determinism contract
//!
//! The partition is a pure function of the topology and θ. Epochs lie on
//! the absolute grid: an event at `t` is dispatched in epoch ⌈t/L⌉ (at
//! least 1), and a run that resumes on a grid instant `k·L` dispatches
//! what is still due there in epoch `k + 1`, the one that begins there.
//! Caller-chosen deadlines never move an epoch, so the keys — and
//! therefore same-instant dispatch order — are independent of how the
//! caller steps `run_until`.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::event::{boundary_key, boundary_lane, Calendar, MAX_EPOCHS};
use crate::id::{ChannelId, NodeId};
use crate::link::Channel;
use crate::time::{SimDuration, SimTime};
use crate::trace::TraceDigest;

/// One region's stream: the RNG, packet-uid counter and digest lane of
/// its nodes, channels and agents.
pub(crate) struct RegionStream {
    /// Every random draw made for the region.
    pub(crate) rng: StdRng,
    next_uid: u64,
    /// High bits stamped onto the region's packet uids, keeping them
    /// unique; zero while there is one region (the classic counter).
    uid_tag: u64,
    /// Fingerprint of the region's packet-event stream (see
    /// [`TraceDigest`]); the lanes fold in region order.
    pub(crate) digest: TraceDigest,
}

impl RegionStream {
    fn new(seed: u64, uid_tag: u64) -> Self {
        RegionStream {
            rng: StdRng::seed_from_u64(seed),
            next_uid: 0,
            uid_tag,
            digest: TraceDigest::new(),
        }
    }

    /// A packet uid no other packet of the run has.
    #[inline]
    pub(crate) fn alloc_uid(&mut self) -> u64 {
        let uid = self.uid_tag | self.next_uid;
        self.next_uid += 1;
        uid
    }
}

/// The region identity the engine reads on every hop: the partition, the
/// stream of a node's or channel's region (an agent's is its node's), the
/// key of a hop's arrival and the θ-grid epoch the calendar stamps onto
/// keys. Until [`Regions::partition`] cuts a link, the world is one region
/// with the classic stream and no epochs.
pub(crate) struct Regions {
    /// The base RNG seed; per-region streams derive from it.
    seed: u64,
    /// Per node: its region. Empty while there is one region.
    node_region: Vec<u32>,
    /// Per channel: the region of its `from` node, and the static half of
    /// its arrival keys — its [`boundary_lane`] if it leaves that region,
    /// zero if it does not.
    chan_lane: Vec<(u32, u64)>,
    /// One stream per region, by region id.
    streams: Vec<RegionStream>,
    /// The lookahead `L`, in ns: the least delay over cut links, and the
    /// epoch width. Zero while there is one region.
    lookahead: u64,
    /// The last instant of the calendar's epoch; `SimTime::MAX` while
    /// there are no epochs.
    epoch_end: SimTime,
}

impl Regions {
    /// One region, its stream seeded straight from `seed`, uid tag zero.
    pub(crate) fn new(seed: u64) -> Self {
        Regions {
            seed,
            node_region: Vec::new(),
            chan_lane: Vec::new(),
            streams: vec![RegionStream::new(seed, 0)],
            lookahead: 0,
            epoch_end: SimTime::MAX,
        }
    }

    /// Partition `node_count` nodes along `channels`, each registered with
    /// [`Regions::add_channel`]. Returns the region count.
    ///
    /// Endpoints of any channel with `prop_delay < theta` are merged into
    /// one region; the remaining (cut) links all carry at least `theta` of
    /// delay, and the lookahead is their minimum; with no cut link the
    /// regions never meet, and there are no epochs. `theta` defaults to the
    /// smallest positive link delay in the topology — the finest partition
    /// the delays admit. Regions are numbered by first appearance in node
    /// order, so the result is a pure function of the topology and θ. Each
    /// region gets a stream seeded by [`region_seed`] and the uid tag
    /// `r << 48`.
    ///
    /// # Panics
    /// If an explicit `theta` is zero (a zero lookahead admits no
    /// conservative window), or a cross-region channel does not fit the
    /// calendar key (see [`boundary_lane`]).
    pub(crate) fn partition(
        &mut self,
        node_count: usize,
        channels: &[Channel],
        theta: Option<SimDuration>,
    ) -> usize {
        assert!(
            theta.is_none_or(|t| !t.is_zero()),
            "partition threshold must be positive: a zero lookahead admits no epoch window"
        );
        let delays = channels.iter().map(|ch| ch.prop_delay);
        let Some(theta) = theta.or_else(|| delays.filter(|d| !d.is_zero()).min()) else {
            // No links with positive delay anywhere: nothing to cut.
            return 1;
        };

        let (region, count) = components(node_count, channels, theta);
        if count <= 1 {
            return 1;
        }

        debug_assert_eq!(self.chan_lane.len(), channels.len());
        let mut lookahead = u64::MAX;
        for (lane, ch) in self.chan_lane.iter_mut().zip(channels) {
            *lane = (region[ch.from.index()], 0);
            if region[ch.to.index()] != lane.0 {
                // The tightest cut link bounds the epoch width.
                lookahead = lookahead.min(ch.prop_delay.as_nanos());
                let key = boundary_lane(lane.0, ch.id);
                lane.1 = key.unwrap_or_else(|e| panic!("{e}"));
            }
        }
        self.streams = (0..count)
            .map(|r| RegionStream::new(region_seed(self.seed, r), (r as u64) << 48))
            .collect();
        self.node_region = region;
        // Regions that share no link never exchange a packet, so they need
        // no epochs: lookahead stays 0 and the epoch never ends.
        if lookahead < u64::MAX {
            self.lookahead = lookahead;
            self.epoch_end = SimTime::ZERO;
        }
        self.streams.len()
    }

    /// Register the next channel, before the topology is partitioned.
    pub(crate) fn add_channel(&mut self) {
        self.chan_lane.push((0, 0));
    }

    /// The stream of `node`'s region.
    #[inline]
    pub(crate) fn node(&mut self, node: NodeId) -> &mut RegionStream {
        let region = if self.node_region.is_empty() {
            0
        } else {
            self.node_region[node.index()]
        };
        &mut self.streams[region as usize]
    }

    /// The stream of the region `channel` leaves from.
    #[inline]
    pub(crate) fn channel(&mut self, channel: ChannelId) -> &mut RegionStream {
        &mut self.streams[self.chan_lane[channel.index()].0 as usize]
    }

    /// Number of regions.
    pub(crate) fn count(&self) -> usize {
        self.streams.len()
    }

    /// The region digests folded in region order; a single region's own.
    pub(crate) fn digest(&self) -> TraceDigest {
        if let [only] = &self.streams[..] {
            return only.digest.clone();
        }
        let mut merged = TraceDigest::new();
        for stream in &self.streams {
            merged.absorb(&stream.digest);
        }
        merged
    }

    /// Events recorded across the region digests.
    pub(crate) fn events(&self) -> u64 {
        self.streams.iter().map(|s| s.digest.events()).sum()
    }

    /// The key of the arrival of a transmission on `channel` that ends at
    /// `end`. Within the region it is the calendar's next local key; out
    /// of it, a pure function of the message: the epoch that dispatches
    /// `end` (almost always the current one), the source region, the
    /// channel.
    #[inline]
    pub(crate) fn arrival_key(&self, channel: ChannelId, end: SimTime, cal: &mut Calendar) -> u64 {
        match self.chan_lane[channel.index()].1 {
            0 => cal.reserve_key(),
            lane if end <= self.epoch_end => boundary_key(cal.epoch(), lane),
            lane => boundary_key(self.epoch_of(end), lane),
        }
    }

    /// The epoch that dispatches an event at `t`: ⌈t/L⌉. Past the last
    /// epoch a run admits, an event is never dispatched; its key stays
    /// well-formed anyway.
    fn epoch_of(&self, t: SimTime) -> u64 {
        t.as_nanos().div_ceil(self.lookahead).min(MAX_EPOCHS - 1)
    }

    /// Open a run from `now` to `deadline`: refuse a deadline whose epoch
    /// does not fit the key here, not hours into the run, and if the
    /// current epoch ended at `now`, enter the one that begins there.
    pub(crate) fn begin_run(&mut self, cal: &mut Calendar, now: SimTime, deadline: SimTime) {
        let theta = self.lookahead;
        if theta == 0 {
            return;
        }
        assert!(
            deadline.as_nanos().div_ceil(theta) < MAX_EPOCHS,
            "run_until({:.3} s) is past the partitioned engine's limit of {:.3} simulated \
             seconds: 2^28 θ-grid epochs at lookahead θ = {theta} ns",
            deadline.as_secs_f64(),
            ((MAX_EPOCHS - 1) * theta) as f64 / 1e9,
        );
        if now >= self.epoch_end {
            self.enter(cal, now.as_nanos() / theta + 1);
        }
    }

    /// Move the calendar into the epoch that dispatches `t` once `t` is
    /// past the current epoch's end: for every event, and once more for
    /// the deadline.
    #[inline]
    pub(crate) fn reach(&mut self, cal: &mut Calendar, t: SimTime) {
        if t > self.epoch_end {
            self.enter(cal, self.epoch_of(t));
        }
    }

    fn enter(&mut self, cal: &mut Calendar, epoch: u64) {
        cal.set_epoch(epoch);
        self.epoch_end = SimTime::from_nanos(epoch.saturating_mul(self.lookahead));
    }
}

/// Each node's region when the channels faster than `theta` merge their
/// endpoints, numbered by first appearance in node order, and the count.
fn components(node_count: usize, channels: &[Channel], theta: SimDuration) -> (Vec<u32>, u32) {
    // Union-find over nodes; links too fast to cut merge their
    // endpoints.
    let mut parent: Vec<u32> = (0..node_count as u32).collect();
    for ch in channels {
        if ch.prop_delay < theta {
            let a = find(&mut parent, ch.from.index() as u32);
            let b = find(&mut parent, ch.to.index() as u32);
            // Smaller root wins, keeping numbering order-stable.
            parent[a.max(b) as usize] = a.min(b);
        }
    }

    // Compress roots to dense region ids in node order.
    let mut region = vec![u32::MAX; node_count];
    let mut count = 0u32;
    for n in 0..node_count as u32 {
        let root = find(&mut parent, n);
        if region[root as usize] == u32::MAX {
            region[root as usize] = count;
            count += 1;
        }
        region[n as usize] = region[root as usize];
    }
    (region, count)
}

/// Path-halving find for the union-find pass in `components`.
fn find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        let up = parent[parent[x as usize] as usize];
        parent[x as usize] = up;
        x = up;
    }
    x
}

/// Deterministic per-region RNG seed: a splitmix64-style mix of the base
/// seed and the region index. Region streams must be decorrelated (the
/// phase-effect machinery draws per-packet jitter from them) yet a pure
/// function of `(seed, region)`.
fn region_seed(seed: u64, region: u32) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(region as u64 + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::local_key;
    use crate::queue::QueueConfig;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    /// Channels `(from, to, prop_delay)` partitioned at `theta`, and the
    /// region count.
    fn split(
        nodes: usize,
        links: &[(NodeId, NodeId, SimDuration)],
        theta: Option<SimDuration>,
    ) -> (Regions, usize) {
        let mut m = Regions::new(1);
        let q = QueueConfig::paper_droptail();
        let channels: Vec<Channel> = (links.iter().enumerate())
            .map(|(i, &(from, to, delay))| Channel::new(ChannelId::from(i), from, to, 1, delay, &q))
            .collect();
        channels.iter().for_each(|_| m.add_channel());
        let count = m.partition(nodes, &channels, theta);
        (m, count)
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
        let (m, count) = split(3, &links, None);
        assert_eq!((count, m.count()), (3, 3));
        assert_eq!(m.lookahead, ms(5).as_nanos());
        // Numbered in node order; every link leaves its region.
        assert_eq!(m.node_region, [0, 1, 2]);
        assert!(m.chan_lane.iter().all(|&(_, lane)| lane != 0));
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
        let (m, count) = split(3, &links, Some(ms(10)));
        assert_eq!(count, 2);
        assert_eq!(m.lookahead, ms(100).as_nanos());
        assert_eq!(m.node_region, [0, 0, 1]);
        let lanes: Vec<bool> = m.chan_lane.iter().map(|&(_, lane)| lane != 0).collect();
        assert_eq!(lanes, [false, false, true, true]);
    }

    #[test]
    fn fully_merged_topology_is_single_region() {
        let links = vec![(NodeId(0), NodeId(1), ms(1)), (NodeId(1), NodeId(2), ms(1))];
        let (mut m, count) = split(3, &links, Some(ms(50)));
        assert_eq!((count, m.count(), m.lookahead), (1, 1, 0));
        let uid = m.node(NodeId(999)).alloc_uid();
        assert_eq!(uid, 0, "the one region covers any node, uid tag zero");
    }

    #[test]
    #[should_panic(expected = "zero lookahead")]
    fn zero_theta_is_rejected() {
        split(2, &[(NodeId(0), NodeId(1), ms(1))], Some(SimDuration::ZERO));
    }

    /// Two regions joined by a 5 ms link both ways, and a calendar.
    fn two_regions() -> (Regions, Calendar) {
        let links = [(NodeId(0), NodeId(1), ms(5)), (NodeId(1), NodeId(0), ms(5))];
        let (m, count) = split(2, &links, None);
        assert_eq!(count, 2);
        (m, Calendar::new())
    }

    #[test]
    fn epochs_lie_on_the_absolute_grid() {
        let (mut ids, mut cal) = two_regions();
        let at = SimTime::from_millis;
        ids.begin_run(&mut cal, SimTime::ZERO, at(17));
        assert_eq!(cal.epoch(), 1, "a run from zero starts in epoch 1");
        ids.reach(&mut cal, at(5));
        assert_eq!(
            cal.epoch(),
            1,
            "a barrier instant belongs to the epoch it closes"
        );
        ids.reach(&mut cal, SimTime::from_nanos(5_000_001));
        assert_eq!(cal.epoch(), 2);
        ids.reach(&mut cal, at(17));
        assert_eq!(cal.epoch(), 4, "epochs with no event are skipped");
        ids.begin_run(&mut cal, at(17), at(20));
        assert_eq!(cal.epoch(), 4, "a run stopped mid-epoch resumes in it");
        ids.reach(&mut cal, at(20));
        assert_eq!(cal.epoch(), 4);
        ids.begin_run(&mut cal, at(20), at(20));
        assert_eq!(
            cal.epoch(),
            5,
            "a run resumed on a barrier starts the next epoch"
        );
        ids.begin_run(&mut cal, at(20), at(30));
        assert_eq!(cal.epoch(), 5, "and only once");
    }

    #[test]
    fn an_arrival_is_keyed_by_its_region_and_the_epoch_its_transmission_ends_in() {
        let (mut ids, mut cal) = two_regions();
        ids.begin_run(&mut cal, SimTime::ZERO, SimTime::from_secs(1));
        for (channel, region) in [(0, 0), (1, 1)] {
            let lane = boundary_lane(region, ChannelId(channel)).unwrap();
            let mut key = |end| ids.arrival_key(ChannelId(channel), end, &mut cal);
            assert_eq!(key(SimTime::from_millis(5)), boundary_key(1, lane));
            assert_eq!(key(SimTime::from_millis(12)), boundary_key(3, lane));
        }
        // Inside one region: the calendar's next local keys.
        let mut one = Regions::new(1);
        one.add_channel();
        let keys: Vec<u64> = (0..2)
            .map(|_| one.arrival_key(ChannelId(0), SimTime::from_millis(12), &mut cal))
            .collect();
        assert_eq!(keys, [local_key(1, 0), local_key(1, 1)]);
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
