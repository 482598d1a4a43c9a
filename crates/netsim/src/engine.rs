//! The simulation engine: world state, event dispatch, agent context.
//!
//! Ownership layout: the [`Engine`] owns a [`World`] and, in a *separate
//! field*, the boxed [`Agent`]s. The world itself is split for the
//! domain-partitioned executor: a read-only [`Shared`] half (nodes,
//! groups, routes, the [`DomainMap`]) and one [`DomainShard`] per domain
//! holding everything a domain mutates while it runs — its calendar, RNG,
//! channels, packet arena and trace digest. Agent callbacks receive a
//! [`Context`] borrowing only the shared state and the agent's own shard,
//! so an agent can schedule sends and timers while the engine still holds
//! `&mut` to the agent itself — no `RefCell`, no unsafe.
//!
//! # Execution modes
//!
//! * **Classic sequential** — an unpartitioned engine has exactly one
//!   domain and [`Engine::run_until`] is the familiar single event loop,
//!   bit-identical to the engine before partitioning existed. Every unit
//!   test and every caller that never calls [`Engine::partition`] lives
//!   here.
//! * **Partitioned** — after [`Engine::partition`] the event loop becomes
//!   an epoch executor: every domain advances to the next absolute barrier
//!   (a multiple of the [`DomainMap`] lookahead, see
//!   [`crate::shard::grid_next`]), then the epoch's boundary packets are
//!   exchanged in one batch, each scheduled directly under its canonical
//!   *(epoch of the transmission's end, source region, channel)* calendar
//!   key. With
//!   [`Engine::set_workers`] above 1 the domains run on scoped threads;
//!   the digests are bit-identical at every worker count and under any
//!   `run_until` stepping, because the partition, the per-domain RNG
//!   streams and the keyed exchange order depend only on the topology,
//!   the seed and θ.
//!
//! Determinism: per-domain seeded RNGs, integer time, and FIFO
//! tie-breaking in each calendar make runs bit-reproducible for a given
//! seed.
//!
//! Hot path: packets live in per-domain [`PacketArena`]s and move through
//! the calendar, queues and multicast fan-out as copyable
//! [`PacketHandle`]s; the packet struct itself is only touched at
//! injection, at trace points, at domain crossings (where it moves between
//! arenas by value) and at delivery. Each calendar is a hierarchical timer
//! wheel ([`Calendar`]) driven through `pop_before(deadline)`.
//!
//! A cross-region link hop — every hop of the paper's trees — costs one
//! calendar event, not two: the downstream arrival is filed when the
//! transmission *starts* (its instant is known then), and the completion
//! is filed only when a packet is waiting behind it; otherwise the channel
//! just remembers when it falls idle ([`InService`]) and the bookkeeping
//! is *settled* by the next offer, or on the way out of
//! [`Engine::run_until`]. Intra-region hops keep both events, because
//! their arrival's key is its dispatch position. [`Engine::event_counts`]
//! says how many completions each run saved.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Barrier, Mutex};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::agent::Agent;
use crate::arena::{PacketArena, PacketHandle};
use crate::event::{boundary_key, boundary_lane, Calendar, EventKind, MAX_EPOCHS};
use crate::fault::FaultInjector;
use crate::id::{AgentId, ChannelId, GroupId, NodeId};
use crate::link::{Channel, InService};
use crate::node::{Group, Node};
use crate::packet::{Dest, Packet};
use crate::queue::{Enqueue, QueueConfig};
use crate::shard::{domain_seed, grid_next, BoundaryMsg, DomainMap};
use crate::time::{SimDuration, SimTime};
use crate::trace::{TraceDigest, TraceEvent, TraceKinds, Tracer};
use crate::wire::Segment;

/// Per-agent engine-side metadata.
#[derive(Debug)]
struct AgentMeta {
    /// The node the agent is attached to.
    node: NodeId,
    /// Local slot (within the owning shard's `regions`) of the agent's
    /// region: the RNG stream, uid counter and digest lane its packets
    /// charge against.
    region: u32,
    /// Maximum of the uniform random per-packet processing delay added at
    /// send time (the paper's phase-effect eliminator, §3.1). Zero disables
    /// it.
    send_overhead: SimDuration,
    /// Injection time of this agent's most recent packet. Random overhead
    /// must not reorder an agent's own packets (host processing is a
    /// queue, not a scatter), so later sends enter the network no earlier
    /// than this.
    last_injection: SimTime,
}

/// One conservative-lookahead *region*'s identity state. Regions are the
/// components of the fine θ-partition — a pure function of the topology,
/// the seed and θ, never of the shard count — and each owns the RNG
/// stream, uid counter and digest lane for its nodes. Execution domains
/// ([`DomainShard`]) group one or more regions (the cost-aware merge
/// pass), so merging never moves a random draw, a uid or a digest record
/// from one stream to another: digests stay bit-identical at every shard
/// count.
struct RegionStream {
    rng: StdRng,
    next_uid: u64,
    /// High bits stamped onto this region's packet uids so uids stay
    /// globally unique without cross-region coordination. Zero for the
    /// unpartitioned engine (uids identical to the classic counter).
    uid_tag: u64,
    /// Always-on fingerprint of this region's packet-event stream (see
    /// [`TraceDigest`]); merged across regions in region order by
    /// [`World::trace_digest`].
    digest: TraceDigest,
}

impl RegionStream {
    fn new(rng: StdRng, uid_tag: u64) -> Self {
        RegionStream {
            rng,
            next_uid: 0,
            uid_tag,
            digest: TraceDigest::new(),
        }
    }

    fn alloc_uid(&mut self) -> u64 {
        let uid = self.uid_tag | self.next_uid;
        self.next_uid += 1;
        uid
    }
}

/// The read-only half of the world: topology, routing, groups and the
/// domain partition. During a run every domain reads this concurrently;
/// it is only mutated between runs (topology growth, group churn).
pub struct Shared {
    nodes: Vec<Node>,
    groups: Vec<Group>,
    /// The base RNG seed; per-region streams derive from it.
    seed: u64,
    /// The fine θ-partition: the *regions* that own RNG/uid/digest
    /// identity. A pure function of the topology, the seed and θ. Its
    /// lookahead is the exchange grid at every shard count.
    regions: DomainMap,
    /// The execution partition (regions coalesced by the cost-aware merge
    /// pass): one [`DomainShard`] per execution domain. Equal to `regions`
    /// for the classic fine partition.
    dmap: DomainMap,
    /// Global region id → (owning shard, slot within that shard's
    /// `regions`).
    region_loc: Vec<(u32, u32)>,
    /// Global node id → local region slot within its owning shard.
    node_region_slot: Vec<u32>,
    /// Global channel id → (owning shard, index within that shard). A
    /// channel belongs to the shard of its `from` node — the only shard
    /// that ever transmits on it.
    chan_loc: Vec<(u32, u32)>,
    /// Global agent id → (home shard, index within that shard).
    agent_loc: Vec<(u32, u32)>,
    /// Global agent id → home node (read from any domain when routing
    /// unicast traffic toward the agent).
    agent_nodes: Vec<NodeId>,
}

/// Everything one execution domain mutates while it runs: its slice of
/// simulated time, calendar, channels, packet arena, and the identity
/// streams of the regions it executes.
pub struct DomainShard {
    /// This shard's execution-domain index.
    domain: u32,
    now: SimTime,
    calendar: Calendar,
    channels: Vec<Channel>,
    /// Local region slot per channel (parallel to `channels`): the region
    /// of the channel's `from` node.
    chan_region: Vec<u32>,
    /// Static half of each channel's arrival keys (parallel to
    /// `channels`): its [`boundary_lane`] if the channel leaves its region,
    /// zero if it does not.
    chan_lane: Vec<u64>,
    agent_meta: Vec<AgentMeta>,
    /// Identity streams of the regions executed here, ordered by global
    /// region id.
    regions: Vec<RegionStream>,
    /// Every in-flight packet's single home; events and queues hold
    /// [`PacketHandle`]s into it.
    arena: PacketArena,
    /// Packets that crossed out of this shard since the last epoch
    /// barrier, in send order.
    outbox: Vec<BoundaryMsg>,
    /// Key of the event being dispatched: with `now`, the calendar
    /// position an unfiled completion is compared against.
    cur_key: u64,
    counts: EventCounts,
    /// The differential tests' model: file every completion when its
    /// transmission starts.
    #[cfg(test)]
    eager: bool,
    /// Reusable buffers for multicast fan-out (avoids a pair of Vec
    /// allocations per group arrival).
    fwd_scratch: Vec<ChannelId>,
    member_scratch: Vec<AgentId>,
}

impl DomainShard {
    fn new(domain: u32) -> Self {
        DomainShard {
            domain,
            now: SimTime::ZERO,
            calendar: Calendar::new(),
            channels: Vec::new(),
            chan_region: Vec::new(),
            chan_lane: Vec::new(),
            agent_meta: Vec::new(),
            regions: Vec::new(),
            arena: PacketArena::new(),
            outbox: Vec::new(),
            cur_key: 0,
            counts: EventCounts::default(),
            #[cfg(test)]
            eager: false,
            fwd_scratch: Vec::new(),
            member_scratch: Vec::new(),
        }
    }

    /// Total events recorded across this shard's region digests.
    fn events(&self) -> u64 {
        self.regions.iter().map(|r| r.digest.events()).sum()
    }

    /// Deliver an incoming boundary packet: it enters this shard's arena
    /// and goes straight into the calendar under the key it was sent with
    /// — the key alone fixes its same-instant dispatch position, so neither
    /// the insertion sequence (nondeterministic under the threaded
    /// exchange) nor the shard count can perturb the order.
    fn accept_boundary(&mut self, msg: BoundaryMsg) {
        let handle = self.arena.insert(msg.packet);
        self.calendar.schedule_keyed(
            msg.at,
            msg.key,
            EventKind::Arrive {
                node: msg.node,
                packet: handle,
            },
        );
    }

    /// Add a channel to this shard; `slot` is the local slot of its
    /// upstream node's region.
    ///
    /// # Panics
    /// If the channel leaves its region and the calendar key has no room
    /// for it (see [`boundary_lane`]).
    fn push_channel(&mut self, regions: &DomainMap, slot: u32, ch: Channel) {
        let region = regions.domain_of(ch.from);
        let lane = if regions.domain_of(ch.to) == region {
            0
        } else {
            boundary_lane(region, ch.id).unwrap_or_else(|e| panic!("{e}"))
        };
        self.chan_region.push(slot);
        self.chan_lane.push(lane);
        self.channels.push(ch);
    }
}

/// What the calendar dispatched, by [`EventKind`], and what it did not
/// have to: transmission completions that found nothing waiting and were
/// settled without an event. A diagnostic — it is deliberately not in the
/// registry, whose snapshots the golden manifests compare byte for byte.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EventCounts {
    /// `TxComplete` events dispatched.
    pub tx_complete: u64,
    /// `Arrive` events dispatched.
    pub arrive: u64,
    /// `Timer` events dispatched.
    pub timer: u64,
    /// `Start` events dispatched.
    pub start: u64,
    /// Completions settled without a calendar event.
    pub settled: u64,
}

impl EventCounts {
    /// Events the calendar dispatched.
    pub fn dispatched(&self) -> u64 {
        self.tx_complete + self.arrive + self.timer + self.start
    }
}

/// Everything in the simulated world except the agents' protocol state.
pub struct World {
    shared: Shared,
    shards: Vec<DomainShard>,
    tracer: Option<Rc<RefCell<dyn Tracer>>>,
    /// What the installed tracer declared it listens to ([`Tracer::wants`],
    /// read by `set_tracer`); empty while the slot is.
    traced: TraceKinds,
    /// Worker threads for the partitioned executor (1 = run the epochs
    /// inline on the calling thread).
    workers: usize,
    /// When armed, the inline epoch executor appends one row per epoch:
    /// the number of events each domain processed in that epoch — how
    /// evenly the epochs split, read back through [`Engine::epoch_loads`].
    epoch_loads: Option<Vec<Vec<u64>>>,
}

impl World {
    fn new(seed: u64) -> Self {
        let mut shard0 = DomainShard::new(0);
        // The unpartitioned engine is one region with the classic stream:
        // seeded straight from the base seed, uid tag zero.
        shard0
            .regions
            .push(RegionStream::new(StdRng::seed_from_u64(seed), 0));
        World {
            shared: Shared {
                nodes: Vec::new(),
                groups: Vec::new(),
                seed,
                regions: DomainMap::single(),
                dmap: DomainMap::single(),
                region_loc: vec![(0, 0)],
                node_region_slot: Vec::new(),
                chan_loc: Vec::new(),
                agent_loc: Vec::new(),
                agent_nodes: Vec::new(),
            },
            shards: vec![shard0],
            tracer: None,
            traced: TraceKinds::NONE,
            workers: 1,
            epoch_loads: None,
        }
    }

    /// Current simulation time. Between `run_until` calls every domain
    /// agrees on this; within a partitioned run domains advance epoch by
    /// epoch.
    pub fn now(&self) -> SimTime {
        self.shards[0].now
    }

    /// Immutable channel access (routed to the owning domain's shard).
    pub fn channel(&self, id: ChannelId) -> &Channel {
        let (d, li) = self.shared.chan_loc[id.index()];
        &self.shards[d as usize].channels[li as usize]
    }

    /// Mutable channel access (configure faults, inspect queues).
    pub fn channel_mut(&mut self, id: ChannelId) -> &mut Channel {
        let (d, li) = self.shared.chan_loc[id.index()];
        &mut self.shards[d as usize].channels[li as usize]
    }

    /// Immutable node access.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.shared.nodes[id.index()]
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.shared.nodes.len()
    }

    /// Number of channels.
    pub fn channel_count(&self) -> usize {
        self.shared.chan_loc.len()
    }

    /// The node an agent is attached to.
    pub fn agent_node(&self, agent: AgentId) -> NodeId {
        self.shared.agent_nodes[agent.index()]
    }

    /// The members of a group.
    pub fn group_members(&self, group: GroupId) -> &[AgentId] {
        &self.shared.groups[group.index()].members
    }

    /// The region-0 simulation RNG. A partitioned world runs one
    /// independent stream per region; out-of-band draws (topology
    /// construction, test scaffolding, scenario dynamics) use region 0's.
    pub fn rng(&mut self) -> &mut StdRng {
        // Region 0 always lives in shard 0, slot 0: both numberings start
        // at node 0.
        &mut self.shards[0].regions[0].rng
    }

    /// The merged digest of every packet event processed so far: the
    /// per-region digests folded in global region order. For a
    /// single-region world this is exactly that region's digest. The fold
    /// order — and every lane in it — depends only on the topology, the
    /// seed and θ, so the result is bit-identical at every shard and
    /// worker count.
    pub fn trace_digest(&self) -> TraceDigest {
        if self.shared.region_loc.len() == 1 {
            return self.shards[0].regions[0].digest.clone();
        }
        let mut merged = TraceDigest::new();
        for &(s, slot) in &self.shared.region_loc {
            merged.absorb(&self.shards[s as usize].regions[slot as usize].digest);
        }
        merged
    }

    /// Number of regions (components of the fine θ-partition; 1 until
    /// [`Engine::partition`]).
    pub fn region_count(&self) -> usize {
        self.shared.region_loc.len()
    }

    /// The domain-0 packet arena (diagnostics: live packet population,
    /// peak capacity). Partitioned worlds keep one arena per domain; see
    /// [`World::live_packets`] for the global population.
    pub fn arena(&self) -> &PacketArena {
        &self.shards[0].arena
    }

    /// Total in-flight packets across all domains (boundary packets in
    /// transit between arenas included).
    pub fn live_packets(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.arena.len() + s.outbox.len())
            .sum()
    }

    /// Number of domains (1 until [`Engine::partition`]).
    pub fn domain_count(&self) -> usize {
        self.shards.len()
    }

    /// Worker threads the partitioned executor will use.
    pub fn workers(&self) -> usize {
        self.workers
    }
}

/// The handle an agent uses to act on the world from inside a callback.
/// It sees the shared topology and its own domain's shard — which is all
/// an agent can causally touch within an epoch.
pub struct Context<'w> {
    shared: &'w Shared,
    shard: &'w mut DomainShard,
    /// The agent being called.
    pub agent: AgentId,
    /// The agent's index within its domain.
    agent_local: usize,
}

impl<'w> Context<'w> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.shard.now
    }

    /// The simulation RNG (the *only* randomness source agents may use);
    /// this agent's region stream.
    pub fn rng(&mut self) -> &mut StdRng {
        let r = self.shard.agent_meta[self.agent_local].region as usize;
        &mut self.shard.regions[r].rng
    }

    /// Send a packet. It enters the network at this agent's node, after the
    /// agent's configured random processing overhead (if any). Returns the
    /// packet uid.
    pub fn send(&mut self, dest: Dest, size_bytes: u32, segment: Segment) -> u64 {
        let meta = &self.shard.agent_meta[self.agent_local];
        let node = meta.node;
        let overhead = meta.send_overhead;
        let region = meta.region as usize;
        let uid = self.shard.regions[region].alloc_uid();
        let delay = if overhead.is_zero() {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(
                self.shard.regions[region]
                    .rng
                    .gen_range(0..=overhead.as_nanos()),
            )
        };
        // Order-preserving jitter: never inject before a previously sent
        // packet of the same agent.
        let at =
            (self.shard.now + delay).max(self.shard.agent_meta[self.agent_local].last_injection);
        self.shard.agent_meta[self.agent_local].last_injection = at;
        let packet = Packet {
            uid,
            src: self.agent,
            dest,
            size_bytes,
            segment,
            sent_at: self.shard.now,
        };
        let handle = self.shard.arena.insert(packet);
        self.shard.calendar.schedule(
            at,
            EventKind::Arrive {
                node,
                packet: handle,
            },
        );
        uid
    }

    /// Arm a timer to fire after `delay` with the given token.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        let at = self.shard.now + delay;
        self.shard.calendar.schedule(
            at,
            EventKind::Timer {
                agent: self.agent,
                token,
            },
        );
    }

    /// Arm a timer at an absolute instant.
    pub fn set_timer_at(&mut self, at: SimTime, token: u64) {
        debug_assert!(at >= self.shard.now, "timer set in the past");
        self.shard.calendar.schedule(
            at.max(self.shard.now),
            EventKind::Timer {
                agent: self.agent,
                token,
            },
        );
    }

    /// The members of a multicast group.
    pub fn group_members(&self, group: GroupId) -> &[AgentId] {
        &self.shared.groups[group.index()].members
    }
}

/// One domain's event loop: the shard being advanced, the shared
/// topology, and the slice of agents homed in this domain. This is the
/// unit of work the epoch executor hands to a worker thread.
struct DomainRun<'a> {
    shared: &'a Shared,
    shard: &'a mut DomainShard,
    agents: &'a mut [Box<dyn Agent>],
    tracer: Option<&'a Rc<RefCell<dyn Tracer>>>,
    /// The kinds `tracer` is called for: each event site tests its bit.
    traced: TraceKinds,
}

impl<'a> DomainRun<'a> {
    /// Local index of a channel owned by this domain.
    #[inline]
    fn chan_index(&self, id: ChannelId) -> usize {
        let (d, li) = self.shared.chan_loc[id.index()];
        debug_assert_eq!(d, self.shard.domain, "channel event in the wrong domain");
        li as usize
    }

    fn trace(&self, event: &TraceEvent<'_>) {
        if let Some(tracer) = self.tracer {
            tracer.borrow_mut().trace(self.shard.now, event);
        }
    }

    /// Run this domain until its calendar is exhausted or `deadline` is
    /// reached; the clock ends at exactly `deadline` if the calendar
    /// outlives it.
    fn run_until(&mut self, deadline: SimTime) {
        while let Some(event) = self.shard.calendar.pop_before(deadline) {
            debug_assert!(event.at >= self.shard.now, "time ran backwards");
            self.shard.now = event.at;
            self.shard.cur_key = event.key;
            self.dispatch(event.kind);
        }
        if deadline > self.shard.now {
            self.shard.now = deadline;
        }
    }

    fn dispatch(&mut self, kind: EventKind) {
        match kind {
            EventKind::TxComplete { channel } => {
                self.shard.counts.tx_complete += 1;
                self.complete_tx(channel)
            }
            EventKind::Arrive { node, packet } => {
                self.shard.counts.arrive += 1;
                self.arrive(node, packet)
            }
            EventKind::Timer { agent, token } => {
                self.shard.counts.timer += 1;
                let local = self.agent_index(agent);
                let mut ctx = Context {
                    shared: self.shared,
                    shard: &mut *self.shard,
                    agent,
                    agent_local: local,
                };
                self.agents[local].on_timer(token, &mut ctx);
            }
            EventKind::Start { agent } => {
                self.shard.counts.start += 1;
                let local = self.agent_index(agent);
                let mut ctx = Context {
                    shared: self.shared,
                    shard: &mut *self.shard,
                    agent,
                    agent_local: local,
                };
                self.agents[local].on_start(&mut ctx);
            }
        }
    }

    /// Local index of an agent homed in this domain.
    #[inline]
    fn agent_index(&self, agent: AgentId) -> usize {
        let (d, li) = self.shared.agent_loc[agent.index()];
        debug_assert_eq!(d, self.shard.domain, "agent event in the wrong domain");
        li as usize
    }

    /// Inject the packet behind `handle` at `channel`: fault-check, then
    /// transmit immediately if the transmitter is idle, otherwise enqueue.
    /// On any drop the arena slot is freed here.
    fn offer(&mut self, channel: ChannelId, handle: PacketHandle) {
        let li = self.chan_index(channel);
        let shard = &mut *self.shard;
        let rslot = shard.chan_region[li] as usize;
        let now = shard.now;
        let (uid, is_data) = {
            let p = shard.arena.get(handle);
            (p.uid, p.segment.is_data())
        };
        let ch = &mut shard.channels[li];
        ch.stats.offered += 1;

        if let Some(fault) = ch.fault.as_mut() {
            if fault.should_drop(is_data, &mut shard.regions[rslot].rng) {
                ch.stats.record_drop(crate::queue::DropReason::Fault);
                let qlen = ch.queue.len();
                shard.regions[rslot].digest.record_drop(
                    now,
                    channel,
                    uid,
                    crate::queue::DropReason::Fault,
                    qlen,
                );
                if self.traced.intersects(TraceKinds::DROP) {
                    self.trace(&TraceEvent::Drop {
                        channel,
                        packet: self.shard.arena.get(handle),
                        reason: crate::queue::DropReason::Fault,
                        qlen,
                    });
                }
                self.shard.arena.remove(handle);
                return;
            }
        }

        let ch = &mut shard.channels[li];
        // An unfiled completion has no event to run it: if the calendar
        // would have popped it before the event being dispatched, it
        // happens now.
        if ch
            .in_service
            .is_some_and(|tx| !tx.filed && (tx.end, tx.key) < (now, shard.cur_key))
        {
            ch.settle();
            shard.counts.settled += 1;
        }
        if ch.in_service.is_none() {
            debug_assert!(ch.queue.is_empty(), "idle transmitter with queued packets");
            ch.stats.accepted += 1;
            self.start_tx(channel, handle);
        } else {
            match ch.queue.enqueue(handle, now, &mut shard.regions[rslot].rng) {
                Enqueue::Accepted => {
                    // A packet is waiting now: the completion needs its
                    // event.
                    if let Some(tx) = ch.in_service.as_mut().filter(|tx| !tx.filed) {
                        tx.filed = true;
                        let kind = EventKind::TxComplete { channel };
                        shard.calendar.schedule_keyed(tx.end, tx.key, kind);
                    }
                    ch.stats.accepted += 1;
                    let qlen = ch.queue.len();
                    ch.stats.record_qlen(now, qlen);
                    shard.regions[rslot]
                        .digest
                        .record_enqueue(now, channel, uid, qlen);
                    if self.traced.intersects(TraceKinds::ENQUEUE) {
                        self.trace(&TraceEvent::Enqueue {
                            channel,
                            packet: self.shard.arena.get(handle),
                            qlen,
                        });
                    }
                }
                Enqueue::Dropped(handle, reason) => {
                    ch.stats.record_drop(reason);
                    let qlen = ch.queue.len();
                    shard.regions[rslot]
                        .digest
                        .record_drop(now, channel, uid, reason, qlen);
                    if self.traced.intersects(TraceKinds::DROP) {
                        self.trace(&TraceEvent::Drop {
                            channel,
                            packet: self.shard.arena.get(handle),
                            reason,
                            qlen,
                        });
                    }
                    self.shard.arena.remove(handle);
                }
            }
        }
    }

    /// Begin transmitting the packet behind `handle` on `channel`, and
    /// reserve the completion's calendar key as scheduling it would.
    ///
    /// On an intra-region hop the completion is filed here and schedules
    /// the arrival when it fires (the classic path: that arrival's key is
    /// its dispatch position). On a cross-region hop the arrival is filed
    /// here — this is the only place a packet can leave its region —
    /// under a key that is a pure function of the message: the epoch in
    /// which the transmission ends, the source region, the channel. It
    /// goes straight into this shard's calendar (same execution domain; the
    /// arena handle is kept, no copy) or to the outbox for the barrier
    /// exchange (different shard); the key is a total order independent of
    /// the insertion path, so both roads dispatch the arrival at exactly
    /// the same position and the merge pass never changes an event
    /// sequence. The completion is then filed only if a packet is already
    /// waiting behind this one; `offer` files it later if one turns up.
    fn start_tx(&mut self, channel: ChannelId, handle: PacketHandle) {
        let li = self.chan_index(channel);
        let shard = &mut *self.shard;
        let rslot = shard.chan_region[li] as usize;
        let now = shard.now;
        let (uid, size_bytes) = {
            let p = shard.arena.get(handle);
            (p.uid, p.size_bytes)
        };
        let ch = &mut shard.channels[li];
        debug_assert!(ch.in_service.is_none(), "transmitter already busy");
        let end = now + ch.service_time(size_bytes);
        ch.stats.record_tx_begin(now);
        let qlen = ch.queue.len();
        shard.regions[rslot]
            .digest
            .record_tx_start(now, channel, uid, qlen);
        if self.traced.intersects(TraceKinds::TX_START) {
            self.trace(&TraceEvent::TxStart {
                channel,
                packet: self.shard.arena.get(handle),
                qlen,
            });
        }
        let shard = &mut *self.shard;
        let ch = &mut shard.channels[li];
        let lane = shard.chan_lane[li];
        let cross = lane != 0;
        let key = shard.calendar.reserve_key();
        #[cfg(test)]
        let eager = shard.eager;
        #[cfg(not(test))]
        let eager = false;
        let filed = !cross || qlen > 0 || eager;
        if filed {
            shard
                .calendar
                .schedule_keyed(end, key, EventKind::TxComplete { channel });
        }
        ch.in_service = Some(InService {
            end,
            key,
            size_bytes,
            filed,
            arrival: (!cross).then_some(handle),
        });
        if cross {
            // The epoch whose run dispatches the instant `end`: almost
            // always the current one.
            let theta = self.shared.regions.lookahead().as_nanos();
            let epoch = shard.calendar.epoch();
            let end_epoch = if end.as_nanos() <= epoch.saturating_mul(theta) {
                epoch
            } else {
                // Past the last epoch `run_until` admits, the arrival is
                // never dispatched; keep the key well-formed anyway.
                (end.as_nanos().div_ceil(theta)).min(MAX_EPOCHS - 1)
            };
            let (at, node) = (end + ch.prop_delay, ch.to);
            let key = boundary_key(end_epoch, lane);
            if self.shared.dmap.domain_of(node) == shard.domain {
                let kind = EventKind::Arrive {
                    node,
                    packet: handle,
                };
                shard.calendar.schedule_keyed(at, key, kind);
            } else {
                let packet = shard.arena.remove(handle);
                shard.outbox.push(BoundaryMsg {
                    at,
                    node,
                    packet,
                    key,
                });
            }
        }
    }

    /// The transmitter on `channel` finished serializing its packet: on an
    /// intra-region hop the packet starts propagating; either way the next
    /// one, if any, leaves the buffer.
    fn complete_tx(&mut self, channel: ChannelId) {
        let li = self.chan_index(channel);
        let shard = &mut *self.shard;
        let now = shard.now;
        let ch = &mut shard.channels[li];
        let tx = ch.in_service.expect("a completion without a transmission");
        debug_assert!(tx.filed && tx.end == now, "completion off its position");
        let next = ch.finish_tx();
        if let Some(packet) = tx.arrival {
            shard.calendar.schedule(
                now + ch.prop_delay,
                EventKind::Arrive {
                    node: ch.to,
                    packet,
                },
            );
        }
        if let Some(next) = next {
            let qlen = ch.queue.len();
            ch.stats.record_qlen(now, qlen);
            self.start_tx(channel, next);
        }
    }

    fn arrive(&mut self, node: NodeId, handle: PacketHandle) {
        let (uid, dest) = {
            let p = self.shard.arena.get(handle);
            (p.uid, p.dest)
        };
        let rslot = self.shared.node_region_slot[node.index()] as usize;
        self.shard.regions[rslot]
            .digest
            .record_arrive(self.shard.now, node, uid);
        if self.traced.intersects(TraceKinds::ARRIVE) {
            self.trace(&TraceEvent::Arrive {
                node,
                packet: self.shard.arena.get(handle),
            });
        }
        match dest {
            Dest::Agent(agent) => {
                let target_node = self.shared.agent_nodes[agent.index()];
                if target_node == node {
                    self.deliver(agent, handle);
                } else {
                    let ch = self.shared.nodes[node.index()]
                        .route_to(target_node)
                        .unwrap_or_else(|| {
                            panic!("no route from {node} toward {target_node} for {agent}")
                        });
                    self.offer(ch, handle);
                }
            }
            Dest::Group(group) => {
                // Fan out through reusable scratch buffers; replicate via
                // the arena, letting the last copy reuse the original slot.
                let mut forwards = std::mem::take(&mut self.shard.fwd_scratch);
                let mut locals = std::mem::take(&mut self.shard.member_scratch);
                forwards.clear();
                locals.clear();
                let g = &self.shared.groups[group.index()];
                debug_assert!(
                    g.root.is_some(),
                    "group packet before build_group_tree was called"
                );
                if let Some(f) = g.forward.get(node.index()) {
                    forwards.extend_from_slice(f);
                }
                if let Some(m) = g.members_at.get(node.index()) {
                    locals.extend_from_slice(m);
                }
                let total = forwards.len() + locals.len();
                let mut k = 0;
                for &ch in &forwards {
                    k += 1;
                    let h = if k == total {
                        handle
                    } else {
                        self.shard.arena.duplicate(handle)
                    };
                    self.offer(ch, h);
                }
                for &agent in &locals {
                    k += 1;
                    let h = if k == total {
                        handle
                    } else {
                        self.shard.arena.duplicate(handle)
                    };
                    self.deliver(agent, h);
                }
                if total == 0 {
                    // A tree node with nothing downstream: the packet ends
                    // here.
                    self.shard.arena.remove(handle);
                }
                self.shard.fwd_scratch = forwards;
                self.shard.member_scratch = locals;
            }
        }
    }

    fn deliver(&mut self, agent: AgentId, handle: PacketHandle) {
        let uid = self.shard.arena.get(handle).uid;
        let local = self.agent_index(agent);
        let rslot = self.shard.agent_meta[local].region as usize;
        self.shard.regions[rslot]
            .digest
            .record_deliver(self.shard.now, agent, uid);
        if self.traced.intersects(TraceKinds::DELIVER) {
            self.trace(&TraceEvent::Deliver {
                agent,
                packet: self.shard.arena.get(handle),
            });
        }
        let packet = self.shard.arena.remove(handle);
        let mut ctx = Context {
            shared: self.shared,
            shard: &mut *self.shard,
            agent,
            agent_local: local,
        };
        self.agents[local].on_packet(packet, &mut ctx);
    }
}

/// The simulator: a world plus the transport agents living in it. Agents
/// are stored per domain, parallel to the world's shards.
pub struct Engine {
    world: World,
    agents: Vec<Vec<Box<dyn Agent>>>,
}

impl Engine {
    /// A fresh, empty world with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        Engine {
            world: World::new(seed),
            agents: vec![Vec::new()],
        }
    }

    /// Read-only world access.
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Mutable world access (topology construction, fault configuration).
    pub fn world_mut(&mut self) -> &mut World {
        &mut self.world
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.world.now()
    }

    /// Install a tracer. The caller keeps its own `Rc` handle to read the
    /// trace back after the run. The slot promises callbacks in
    /// simulated-time order (see [`Tracer`]), which one execution domain
    /// gives and several do not: [`Engine::run_until`] refuses a traced
    /// engine with more than one, so trace an unpartitioned engine or one
    /// merged to a single domain (`partition_merged(.., 1, ..)`). The
    /// tracer's [`Tracer::wants`] is read here, once: it is called for
    /// those event kinds and no others.
    pub fn set_tracer(&mut self, tracer: Rc<RefCell<dyn Tracer>>) {
        self.world.traced = tracer.borrow().wants();
        self.world.tracer = Some(tracer);
    }

    /// The merged digest of every packet event this engine processed.
    pub fn trace_digest(&self) -> TraceDigest {
        self.world.trace_digest()
    }

    // ------------------------------------------------------------------
    // Domain partitioning
    // ------------------------------------------------------------------

    /// Partition the topology into conservative-lookahead domains along
    /// links whose propagation delay is at least `theta` (default: the
    /// smallest positive link delay — the finest partition the delays
    /// admit; see [`DomainMap::partition`]). Returns the domain count.
    /// Every region becomes its own execution domain; see
    /// [`Engine::partition_merged`] for the cost-aware coalesced form.
    ///
    /// Existing channels, agents and their metadata are redistributed to
    /// their domains; per-region RNG streams are derived from the base
    /// seed. The partition — and with it every digest the engine will
    /// produce — is a pure function of the topology, the seed and θ,
    /// never of the worker count.
    ///
    /// # Panics
    /// If events are already scheduled or packets in flight (partition
    /// the world before starting agents), or if the engine is already
    /// partitioned.
    pub fn partition(&mut self, theta: Option<SimDuration>) -> usize {
        self.do_partition(theta, None, None)
    }

    /// Cost-aware merged partition: compute the fine θ-partition (the
    /// *regions*, which keep their own RNG/uid/digest identity exactly as
    /// under [`Engine::partition`]), then coalesce regions into at most
    /// `target` execution domains along the fastest cut links, balancing
    /// the per-domain load estimate `costs` (one weight per region;
    /// defaults to each region's outbound `bandwidth · fan-out` when
    /// `None`). Returns the execution-domain count.
    ///
    /// `target = 1` collapses the run to a single shard with zero
    /// exchange overhead — intra-region hops take the classic direct
    /// path, cross-region hops defer to a per-barrier batch flush in the
    /// same arena. Digests are bit-identical at every `target`, because
    /// the identity layer (regions) never depends on it.
    pub fn partition_merged(
        &mut self,
        theta: Option<SimDuration>,
        target: usize,
        costs: Option<&[u64]>,
    ) -> usize {
        assert!(target >= 1, "at least one execution domain is required");
        self.do_partition(theta, Some(target), costs)
    }

    fn do_partition(
        &mut self,
        theta: Option<SimDuration>,
        target: Option<usize>,
        costs: Option<&[u64]>,
    ) -> usize {
        assert!(
            !self.world.shared.regions.is_partitioned(),
            "the engine is already partitioned"
        );
        assert_eq!(
            self.world.shards.len(),
            1,
            "the engine is already partitioned"
        );
        {
            let s0 = &self.world.shards[0];
            assert!(
                s0.calendar.is_empty() && s0.arena.is_empty() && s0.now == SimTime::ZERO,
                "partition the world before scheduling events or running"
            );
        }
        let links: Vec<(NodeId, NodeId, SimDuration)> = self.world.shards[0]
            .channels
            .iter()
            .map(|ch| (ch.from, ch.to, ch.prop_delay))
            .collect();
        let node_count = self.world.shared.nodes.len();
        let regions = DomainMap::partition(node_count, &links, theta);
        if !regions.is_partitioned() {
            self.world.shared.regions = DomainMap::single();
            self.world.shared.dmap = DomainMap::single();
            return 1;
        }
        let r_count = regions.domains();

        // The execution partition: regions coalesced toward the target
        // shard count (or the identity when no target was given).
        let dmap = match target {
            None => regions.clone(),
            Some(t) => {
                let default_costs;
                let costs = match costs {
                    Some(c) => c,
                    None => {
                        // Bandwidth·fan-out estimate: each region's event
                        // load scales with the aggregate outbound link
                        // rate of its nodes (links driven at capacity).
                        let mut w = vec![1u64; r_count];
                        for ch in &self.world.shards[0].channels {
                            let r = regions.domain_of(ch.from) as usize;
                            w[r] = w[r].saturating_add(1 + ch.bandwidth_bps / 1_000_000);
                        }
                        default_costs = w;
                        &default_costs
                    }
                };
                regions.merged(&links, t, Some(costs))
            }
        };
        let e_count = dmap.domains();

        let seed = self.world.shared.seed;
        let mut shards: Vec<DomainShard> = (0..e_count as u32).map(DomainShard::new).collect();
        let mut agents: Vec<Vec<Box<dyn Agent>>> = (0..e_count).map(|_| Vec::new()).collect();

        // Region identity streams: region r keeps the same derived seed
        // and uid tag at every execution grouping. Slots within a shard
        // are ordered by global region id.
        let mut exec_of_region = vec![u32::MAX; r_count];
        for n in 0..node_count {
            let r = regions.domain_of(NodeId::from(n)) as usize;
            let e = dmap.domain_of(NodeId::from(n));
            if exec_of_region[r] == u32::MAX {
                exec_of_region[r] = e;
            } else {
                debug_assert_eq!(exec_of_region[r], e, "region split across shards");
            }
        }
        let mut region_loc = vec![(0u32, 0u32); r_count];
        for (r, &e) in exec_of_region.iter().enumerate() {
            let shard = &mut shards[e as usize];
            region_loc[r] = (e, shard.regions.len() as u32);
            shard.regions.push(RegionStream::new(
                StdRng::seed_from_u64(domain_seed(seed, r as u32)),
                (r as u64) << 48,
            ));
        }
        let node_region_slot: Vec<u32> = (0..node_count)
            .map(|n| region_loc[regions.domain_of(NodeId::from(n)) as usize].1)
            .collect();

        let mut old = std::mem::take(&mut self.world.shards);
        let old_shard = old.pop().expect("one shard before partition");
        // Channels move to the shard of their upstream node, in global id
        // order, so local indices are reproducible.
        for (ch, loc) in old_shard
            .channels
            .into_iter()
            .zip(self.world.shared.chan_loc.iter_mut())
        {
            let d = dmap.domain_of(ch.from);
            let shard = &mut shards[d as usize];
            *loc = (d, shard.channels.len() as u32);
            let slot = region_loc[regions.domain_of(ch.from) as usize].1;
            shard.push_channel(&regions, slot, ch);
        }
        // Agents (and their metadata) move with their home node, in global
        // agent order.
        let old_agents = std::mem::take(&mut self.agents[0]);
        for ((agent, mut meta), loc) in old_agents
            .into_iter()
            .zip(old_shard.agent_meta)
            .zip(self.world.shared.agent_loc.iter_mut())
        {
            let d = dmap.domain_of(meta.node);
            meta.region = region_loc[regions.domain_of(meta.node) as usize].1;
            *loc = (d, agents[d as usize].len() as u32);
            shards[d as usize].agent_meta.push(meta);
            agents[d as usize].push(agent);
        }

        self.world.shared.regions = regions;
        self.world.shared.dmap = dmap;
        self.world.shared.region_loc = region_loc;
        self.world.shared.node_region_slot = node_region_slot;
        self.world.shards = shards;
        self.agents = agents;
        e_count
    }

    /// Set the worker-thread count for the partitioned executor. With 1
    /// (the default) the epochs run inline on the calling thread; above 1
    /// the domains are distributed round-robin over scoped worker
    /// threads. Has no effect on an unpartitioned engine — and none on
    /// the results either way: digests are identical at every worker
    /// count.
    pub fn set_workers(&mut self, workers: usize) {
        assert!(workers >= 1, "at least one worker is required");
        self.world.workers = workers;
    }

    /// Number of domains (1 until [`Engine::partition`]).
    pub fn domain_count(&self) -> usize {
        self.world.domain_count()
    }

    /// Arm (or disarm) per-epoch load recording: one row per epoch with
    /// each domain's processed-event count. Only the inline (workers = 1)
    /// partitioned executor records; the profile shows how evenly the
    /// epochs split across domains.
    pub fn record_epoch_loads(&mut self, on: bool) {
        self.world.epoch_loads = on.then(Vec::new);
    }

    /// The recorded per-epoch, per-domain event counts (see
    /// [`Engine::record_epoch_loads`]).
    pub fn epoch_loads(&self) -> Option<&[Vec<u64>]> {
        self.world.epoch_loads.as_deref()
    }

    /// Number of regions (components of the fine θ-partition).
    pub fn region_count(&self) -> usize {
        self.world.region_count()
    }

    // ------------------------------------------------------------------
    // Topology construction
    // ------------------------------------------------------------------

    /// Add a node. After [`Engine::partition`] a new node forms its own
    /// fresh region (it has no links yet; links attached later are checked
    /// against the lookahead) — and, when the execution partition is
    /// split, its own fresh shard; under a merged single-shard partition
    /// it joins shard 0.
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        let id = NodeId::from(self.world.shared.nodes.len());
        self.world.shared.nodes.push(Node::new(id, name));
        if self.world.shared.regions.is_partitioned() {
            let r = self.world.shared.regions.push_isolated_node();
            let seed = self.world.shared.seed;
            let stream = RegionStream::new(
                StdRng::seed_from_u64(domain_seed(seed, r)),
                (r as u64) << 48,
            );
            let d = if self.world.shared.dmap.is_partitioned() {
                let d = self.world.shared.dmap.push_isolated_node();
                let mut shard = DomainShard::new(d);
                // Late domains start at the global clock, not at zero.
                shard.now = self.world.shards[0].now;
                self.world.shards.push(shard);
                self.agents.push(Vec::new());
                d
            } else {
                0
            };
            let shard = &mut self.world.shards[d as usize];
            let slot = shard.regions.len() as u32;
            shard.regions.push(stream);
            self.world.shared.region_loc.push((d, slot));
            self.world.shared.node_region_slot.push(slot);
        } else {
            self.world.shared.node_region_slot.push(0);
        }
        id
    }

    /// Add a full-duplex link between `a` and `b`: two independent
    /// channels, each with its own buffer built from `queue_cfg`. Returns
    /// `(a→b, b→a)`.
    pub fn add_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        bandwidth_bps: u64,
        prop_delay: SimDuration,
        queue_cfg: &QueueConfig,
    ) -> (ChannelId, ChannelId) {
        let ab = self.add_channel(a, b, bandwidth_bps, prop_delay, queue_cfg);
        let ba = self.add_channel(b, a, bandwidth_bps, prop_delay, queue_cfg);
        (ab, ba)
    }

    /// Add a single directed channel (for asymmetric links).
    pub fn add_channel(
        &mut self,
        from: NodeId,
        to: NodeId,
        bandwidth_bps: u64,
        prop_delay: SimDuration,
        queue_cfg: &QueueConfig,
    ) -> ChannelId {
        assert!(from != to, "self-loop channels are not allowed");
        let regions = &self.world.shared.regions;
        if regions.is_partitioned() && regions.domain_of(from) != regions.domain_of(to) {
            // The exchange grid is the *fine* lookahead θ at every shard
            // count, so every cross-region channel must clear it.
            assert!(
                prop_delay >= regions.lookahead(),
                "cross-domain channel faster than the lookahead breaks the epoch contract"
            );
        }
        let d = self.world.shared.dmap.domain_of(from);
        let id = ChannelId::from(self.world.shared.chan_loc.len());
        let shard = &mut self.world.shards[d as usize];
        self.world
            .shared
            .chan_loc
            .push((d, shard.channels.len() as u32));
        shard.push_channel(
            &self.world.shared.regions,
            self.world.shared.node_region_slot[from.index()],
            Channel::new(id, from, to, bandwidth_bps, prop_delay, queue_cfg),
        );
        self.world.shared.nodes[from.index()].out_channels.push(id);
        id
    }

    /// Attach a fault injector to a channel.
    pub fn set_fault(&mut self, channel: ChannelId, fault: FaultInjector) {
        self.world.channel_mut(channel).fault = Some(fault);
    }

    /// Attach an agent to `node`. The agent does nothing until
    /// [`Engine::start_agent_at`] schedules its start event.
    pub fn add_agent(&mut self, node: NodeId, agent: Box<dyn Agent>) -> AgentId {
        assert!(node.index() < self.world.shared.nodes.len(), "unknown node");
        let d = self.world.shared.dmap.domain_of(node);
        let id = AgentId::from(self.world.shared.agent_loc.len());
        self.world
            .shared
            .agent_loc
            .push((d, self.agents[d as usize].len() as u32));
        self.world.shared.agent_nodes.push(node);
        self.agents[d as usize].push(agent);
        self.world.shards[d as usize].agent_meta.push(AgentMeta {
            node,
            region: self.world.shared.node_region_slot[node.index()],
            send_overhead: SimDuration::ZERO,
            last_injection: SimTime::ZERO,
        });
        id
    }

    /// Configure the agent's uniform random per-packet send overhead
    /// (phase-effect elimination; see §3.1 of the paper). `max` should be
    /// the bottleneck service time of the agent's data packets.
    pub fn set_send_overhead(&mut self, agent: AgentId, max: SimDuration) {
        let (d, li) = self.world.shared.agent_loc[agent.index()];
        self.world.shards[d as usize].agent_meta[li as usize].send_overhead = max;
    }

    /// Create a multicast group.
    pub fn new_group(&mut self) -> GroupId {
        let id = GroupId::from(self.world.shared.groups.len());
        self.world.shared.groups.push(Group::default());
        id
    }

    /// Add `agent` to `group`'s receiver set.
    pub fn join_group(&mut self, group: GroupId, agent: AgentId) {
        let g = &mut self.world.shared.groups[group.index()];
        if !g.members.contains(&agent) {
            g.members.push(agent);
        }
    }

    /// Remove `agent` from `group`'s receiver set; returns `false` when it
    /// was not a member. The distribution tree is untouched — call
    /// [`Engine::build_group_tree`] afterwards so in-flight multicast stops
    /// fanning out to pruned branches.
    pub fn leave_group(&mut self, group: GroupId, agent: AgentId) -> bool {
        let g = &mut self.world.shared.groups[group.index()];
        match g.members.iter().position(|&m| m == agent) {
            Some(i) => {
                g.members.remove(i);
                true
            }
            None => false,
        }
    }

    /// Compute all-pairs unicast next-hop routes with BFS (all links are
    /// one hop). Call after the topology is final and before running.
    pub fn compute_routes(&mut self) {
        let n = self.world.shared.nodes.len();
        // Adjacency: (neighbor, channel) per node.
        let adj: Vec<Vec<(NodeId, ChannelId)>> = self
            .world
            .shared
            .nodes
            .iter()
            .map(|node| {
                node.out_channels
                    .iter()
                    .map(|&ch| (self.world.channel(ch).to, ch))
                    .collect()
            })
            .collect();

        for src in 0..n {
            let mut first_hop: Vec<Option<ChannelId>> = vec![None; n];
            let mut visited = vec![false; n];
            let mut queue = std::collections::VecDeque::new();
            visited[src] = true;
            // Seed the BFS with src's direct neighbours, remembering which
            // channel reached them; descendants inherit that first hop.
            for &(nb, ch) in &adj[src] {
                if !visited[nb.index()] {
                    visited[nb.index()] = true;
                    first_hop[nb.index()] = Some(ch);
                    queue.push_back(nb);
                }
            }
            while let Some(u) = queue.pop_front() {
                let via = first_hop[u.index()];
                for &(nb, _) in &adj[u.index()] {
                    if !visited[nb.index()] {
                        visited[nb.index()] = true;
                        first_hop[nb.index()] = via;
                        queue.push_back(nb);
                    }
                }
            }
            self.world.shared.nodes[src].routes = first_hop;
        }
    }

    /// Build the source-based distribution tree for `group`, rooted at the
    /// node of `root_agent`. Requires routes (call [`Engine::compute_routes`]
    /// first) and the full member list.
    pub fn build_group_tree(&mut self, group: GroupId, root: NodeId) {
        let n = self.world.shared.nodes.len();
        let members = self.world.shared.groups[group.index()].members.clone();
        let mut forward: Vec<Vec<ChannelId>> = vec![Vec::new(); n];
        let mut members_at: Vec<Vec<AgentId>> = vec![Vec::new(); n];

        for &member in &members {
            let target = self.world.shared.agent_nodes[member.index()];
            members_at[target.index()].push(member);
            let mut cur = root;
            let mut hops = 0;
            while cur != target {
                let ch = self.world.shared.nodes[cur.index()]
                    .route_to(target)
                    .unwrap_or_else(|| {
                        panic!("group member at {target} unreachable from tree root {root}")
                    });
                if !forward[cur.index()].contains(&ch) {
                    forward[cur.index()].push(ch);
                }
                cur = self.world.channel(ch).to;
                hops += 1;
                assert!(hops <= n, "routing loop while building multicast tree");
            }
        }

        let g = &mut self.world.shared.groups[group.index()];
        g.root = Some(root);
        g.forward = forward;
        g.members_at = members_at;
    }

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    /// Schedule `agent`'s `on_start` at time `at`.
    pub fn start_agent_at(&mut self, agent: AgentId, at: SimTime) {
        let (d, _) = self.world.shared.agent_loc[agent.index()];
        self.world.shards[d as usize]
            .calendar
            .schedule(at, EventKind::Start { agent });
    }

    /// Run until `deadline`; the clock ends at exactly `deadline`.
    ///
    /// An unpartitioned engine runs the classic single event loop (and
    /// additionally stops early if its calendar empties). A partitioned
    /// engine advances all domains epoch by epoch to `deadline` —
    /// inline, or on [`Engine::set_workers`] scoped threads — exchanging
    /// boundary packets at each absolute grid barrier. Every domain's
    /// clock equals `deadline` on return.
    ///
    /// # Panics
    /// If a tracer is installed on more than one execution domain — the
    /// domains run each epoch one after another (or on threads), so the
    /// callbacks would not arrive in time order.
    pub fn run_until(&mut self, deadline: SimTime) {
        assert!(
            self.world.tracer.is_none() || self.domain_count() == 1,
            "a tracer sees events in time order only on one execution domain, and this \
             engine has {}: trace an unpartitioned engine or one merged to a single \
             domain (partition_merged(.., 1, ..))",
            self.domain_count()
        );
        if !self.world.shared.regions.is_partitioned() {
            // One region: the classic single event loop, no barriers, no
            // exchange.
            let world = &mut self.world;
            DomainRun {
                shared: &world.shared,
                shard: &mut world.shards[0],
                agents: &mut self.agents[0],
                tracer: world.tracer.as_ref(),
                traced: world.traced,
            }
            .run_until(deadline);
            return;
        }
        // Every epoch up to the deadline must fit the key's epoch bits:
        // refuse the run here, not at the offending barrier hours into it.
        let theta = self.world.shared.regions.lookahead().as_nanos();
        assert!(
            deadline.as_nanos().div_ceil(theta) < MAX_EPOCHS,
            "run_until({:.3} s) is past the partitioned engine's limit of {:.3} simulated \
             seconds: 2^28 θ-grid epochs at lookahead θ = {theta} ns",
            deadline.as_secs_f64(),
            ((MAX_EPOCHS - 1) * theta) as f64 / 1e9,
        );
        if self.world.shards.len() == 1 || self.world.workers == 1 {
            self.run_epochs_inline(deadline);
        } else {
            self.run_epochs_threaded(deadline);
        }
        // Whoever reads the world between runs — registry snapshots, the
        // timeline sampler, `utilization(now)` — sees every transmission
        // that ended by `deadline` as ended.
        for shard in &mut self.world.shards {
            for ch in &mut shard.channels {
                if ch
                    .in_service
                    .is_some_and(|tx| !tx.filed && tx.end <= deadline)
                {
                    ch.settle();
                    shard.counts.settled += 1;
                }
            }
        }
    }

    /// The inline epoch executor: advance every shard to the next θ-grid
    /// barrier (or the deadline), then hand each shard's outbox — the
    /// whole epoch's crossings in one batch — to the destination shards,
    /// which schedule them directly under their canonical keys. This is
    /// also the merged-to-one executor — the only partitioned run that
    /// may carry a tracer: with a single shard the exchange is empty
    /// and the loop degenerates to stepping the grid epoch, so the
    /// sequential path pays no per-message cost at all beyond the keyed
    /// schedule it already did at send time.
    fn run_epochs_inline(&mut self, deadline: SimTime) {
        // The exchange grid is the *fine* lookahead θ regardless of how
        // regions were coalesced: a merged-L grid would let a receiver
        // dispatch events between a message's send epoch and its arrival,
        // perturbing same-instant FIFO order relative to the fine run.
        let lookahead = self.world.shared.regions.lookahead();
        debug_assert!(!lookahead.is_zero(), "partitioned world without lookahead");
        let mut t = self.world.shards[0].now;
        debug_assert!(
            self.world.shards.iter().all(|s| s.now == t),
            "domains out of step at epoch entry"
        );
        let recording = self.world.epoch_loads.is_some();
        while t < deadline {
            let barrier = grid_next(t, lookahead);
            let target = barrier.min(deadline);
            // The global grid index of the epoch being run: the high bits
            // of every key assigned this step, identical at every shard
            // and worker count (and across stepped `run_until` calls that
            // stop mid-epoch).
            let epoch = barrier.as_nanos() / lookahead.as_nanos();
            let mut loads = recording.then(|| Vec::with_capacity(self.world.shards.len()));
            for (shard, agents) in self.world.shards.iter_mut().zip(self.agents.iter_mut()) {
                shard.calendar.set_epoch(epoch);
                let before = recording.then(|| shard.events());
                DomainRun {
                    shared: &self.world.shared,
                    shard,
                    agents,
                    tracer: self.world.tracer.as_ref(),
                    traced: self.world.traced,
                }
                .run_until(target);
                if let (Some(loads), Some(before)) = (loads.as_mut(), before) {
                    loads.push(shard.events() - before);
                }
            }
            if let (Some(all), Some(row)) = (self.world.epoch_loads.as_mut(), loads) {
                all.push(row);
            }
            if target == barrier && self.world.shards.len() > 1 {
                // Exchange at the grid barrier: hand each shard's outbox —
                // the whole epoch's crossings in one batch — to the
                // destination shards. Each message is scheduled under the
                // key it carries, so no sort is needed anywhere: the keys
                // are a total order independent of routing sequence.
                let mut d = 0;
                while d < self.world.shards.len() {
                    if !self.world.shards[d].outbox.is_empty() {
                        let outbox = std::mem::take(&mut self.world.shards[d].outbox);
                        for m in &outbox {
                            let dst = self.world.shared.dmap.domain_of(m.node) as usize;
                            self.world.shards[dst].accept_boundary(*m);
                        }
                        // Hand the allocation back for the next epoch.
                        let mut outbox = outbox;
                        outbox.clear();
                        self.world.shards[d].outbox = outbox;
                    }
                    d += 1;
                }
            }
            t = target;
        }
    }

    /// The threaded epoch executor: domains are distributed round-robin
    /// over scoped worker threads; two barriers per epoch separate the
    /// run phase from the exchange phase. The whole epoch's crossings are
    /// batched through one shared inbox — each worker appends its
    /// domains' outboxes under a single lock, then (after the barrier)
    /// filter-copies the messages addressed to its own domains under one
    /// more lock and schedules them directly under their canonical keys —
    /// so the exchange cost is two lock acquisitions per worker per epoch
    /// instead of a mutex slot per domain. The inbox's append order is
    /// racy, but the keys are a total order independent of insertion
    /// sequence, so digests are bit-identical to the inline executor's.
    fn run_epochs_threaded(&mut self, deadline: SimTime) {
        let d_count = self.world.shards.len();
        let workers = self.world.workers.min(d_count);
        let lookahead = self.world.shared.regions.lookahead();
        debug_assert!(!lookahead.is_zero(), "partitioned world without lookahead");
        let start = self.world.shards[0].now;
        debug_assert!(
            self.world.shards.iter().all(|s| s.now == start),
            "domains out of step at epoch entry"
        );
        let shared = &self.world.shared;
        // One shared inbox for the whole epoch's crossings, tagged with
        // the epoch index: the first appender of a new epoch clears the
        // previous batch (every reader consumed it before the prior
        // epoch's closing barrier).
        let inbox: Mutex<(u64, Vec<BoundaryMsg>)> = Mutex::new((0, Vec::new()));
        let inbox = &inbox;
        let barrier = Barrier::new(workers);
        let barrier = &barrier;

        type BucketEntry<'a> = (usize, &'a mut DomainShard, &'a mut Vec<Box<dyn Agent>>);
        let mut buckets: Vec<Vec<BucketEntry>> = (0..workers).map(|_| Vec::new()).collect();
        for (d, (shard, agents)) in self
            .world
            .shards
            .iter_mut()
            .zip(self.agents.iter_mut())
            .enumerate()
        {
            buckets[d % workers].push((d, shard, agents));
        }

        std::thread::scope(|scope| {
            for mut bucket in buckets {
                scope.spawn(move || {
                    let mut t = start;
                    let mut epoch = 0u64;
                    while t < deadline {
                        let grid = grid_next(t, lookahead);
                        let target = grid.min(deadline);
                        let exchanging = target == grid;
                        epoch += 1;
                        let grid_epoch = grid.as_nanos() / lookahead.as_nanos();
                        // Phase A: run own domains to the target, then
                        // publish all their outboxes under one lock.
                        for (_, shard, agents) in bucket.iter_mut() {
                            shard.calendar.set_epoch(grid_epoch);
                            DomainRun {
                                shared,
                                shard,
                                agents,
                                tracer: None,
                                traced: TraceKinds::NONE,
                            }
                            .run_until(target);
                        }
                        if exchanging {
                            let mut slot = inbox.lock().unwrap();
                            if slot.0 != epoch {
                                slot.0 = epoch;
                                slot.1.clear();
                            }
                            for (_, shard, _) in bucket.iter_mut() {
                                slot.1.append(&mut shard.outbox);
                            }
                        }
                        barrier.wait();
                        // Phase B: copy the messages addressed to own
                        // domains out of the shared batch, scheduling each
                        // directly under the key it carries. The batch's
                        // append order is racy across workers, but the key
                        // fixes every arrival's dispatch position, so the
                        // copy order is immaterial.
                        if exchanging {
                            let slot = inbox.lock().unwrap();
                            for (d, shard, _) in bucket.iter_mut() {
                                for m in slot.1.iter() {
                                    if shared.dmap.domain_of(m.node) as usize == *d {
                                        shard.accept_boundary(*m);
                                    }
                                }
                            }
                        }
                        barrier.wait();
                        t = target;
                    }
                });
            }
        });
    }

    // ------------------------------------------------------------------
    // Inspection
    // ------------------------------------------------------------------

    /// Downcast an agent to its concrete type for post-run inspection.
    pub fn agent_as<T: 'static>(&self, id: AgentId) -> Option<&T> {
        let (d, li) = self.world.shared.agent_loc[id.index()];
        self.agents[d as usize][li as usize]
            .as_any()
            .downcast_ref::<T>()
    }

    /// Mutable downcast.
    pub fn agent_as_mut<T: 'static>(&mut self, id: AgentId) -> Option<&mut T> {
        let (d, li) = self.world.shared.agent_loc[id.index()];
        self.agents[d as usize][li as usize]
            .as_any_mut()
            .downcast_mut::<T>()
    }

    /// Calendar events dispatched so far, by kind, and transmission
    /// completions settled without one.
    pub fn event_counts(&self) -> EventCounts {
        let mut total = EventCounts::default();
        for c in self.world.shards.iter().map(|s| &s.counts) {
            total.tx_complete += c.tx_complete;
            total.arrive += c.arrive;
            total.timer += c.timer;
            total.start += c.start;
            total.settled += c.settled;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::Sink;
    use crate::queue::{QueueConfig, RedConfig};

    /// An agent that fires `count` fixed-size packets at a destination as
    /// fast as the engine lets it (all injected at start).
    struct Blaster {
        dest: Dest,
        count: u32,
        size: u32,
    }

    impl Agent for Blaster {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            for _ in 0..self.count {
                ctx.send(self.dest, self.size, Segment::Raw);
            }
        }
        fn on_packet(&mut self, _packet: Packet, _ctx: &mut Context<'_>) {}
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    fn two_node_world(qcfg: &QueueConfig) -> (Engine, AgentId, AgentId, ChannelId) {
        let mut e = Engine::new(1);
        let a = e.add_node("a");
        let b = e.add_node("b");
        let (ab, _) = e.add_link(a, b, 8_000_000, SimDuration::from_millis(10), qcfg);
        let sink = e.add_agent(b, Box::new(Sink::default()));
        let blaster = e.add_agent(
            a,
            Box::new(Blaster {
                dest: Dest::Agent(sink),
                count: 5,
                size: 1000,
            }),
        );
        e.compute_routes();
        (e, blaster, sink, ab)
    }

    #[test]
    fn packets_flow_end_to_end() {
        let (mut e, blaster, sink, ab) = two_node_world(&QueueConfig::paper_droptail());
        e.start_agent_at(blaster, SimTime::ZERO);
        e.run_until(SimTime::from_secs(1));
        let s: &Sink = e.agent_as(sink).unwrap();
        assert_eq!(s.received, 5);
        assert_eq!(s.bytes, 5000);
        assert_eq!(e.world().channel(ab).stats.transmitted, 5);
    }

    #[test]
    fn serialization_and_propagation_delays_add_up() {
        // 1000 B at 8 Mbps = 1 ms serialization; 10 ms propagation.
        // 5 back-to-back packets: the last arrives at 5*1ms + 10ms = 15 ms.
        let (mut e, blaster, sink, _) = two_node_world(&QueueConfig::paper_droptail());
        e.start_agent_at(blaster, SimTime::ZERO);
        e.run_until(SimTime::from_millis(14));
        let s: &Sink = e.agent_as(sink).unwrap();
        assert_eq!(s.received, 4, "only four packets can have arrived by 14ms");
        e.run_until(SimTime::from_millis(15));
        let s: &Sink = e.agent_as(sink).unwrap();
        assert_eq!(s.received, 5);
    }

    #[test]
    fn utilization_at_a_mid_transmission_deadline_counts_elapsed_time_only() {
        // 1000 B at 8 Mbps = 1 ms serialization. The blaster starts at
        // t=1ms, so at a 1.5ms deadline the first packet is half-sent:
        // 0.5ms of busy time over 1.5ms of run = 1/3. Charging the full
        // service time at tx start (the old accounting) would claim 2/3.
        let (mut e, blaster, _, ab) = two_node_world(&QueueConfig::paper_droptail());
        e.start_agent_at(blaster, SimTime::from_millis(1));
        e.run_until(SimTime::from_millis(1) + SimDuration::from_micros(500));
        let u = e.world().channel(ab).stats.utilization(e.now());
        assert!((u - 1.0 / 3.0).abs() < 1e-9, "got {u}");
    }

    #[test]
    fn droptail_overflow_loses_excess() {
        let mut e = Engine::new(1);
        let a = e.add_node("a");
        let b = e.add_node("b");
        let (ab, _) = e.add_link(
            a,
            b,
            8_000_000,
            SimDuration::from_millis(1),
            &QueueConfig::DropTail { limit: 3 },
        );
        let sink = e.add_agent(b, Box::new(Sink::default()));
        let blaster = e.add_agent(
            a,
            Box::new(Blaster {
                dest: Dest::Agent(sink),
                count: 10,
                size: 1000,
            }),
        );
        e.compute_routes();
        e.start_agent_at(blaster, SimTime::ZERO);
        e.run_until(SimTime::from_secs(1));
        // 10 injected simultaneously: 1 in service + 3 buffered survive.
        let s: &Sink = e.agent_as(sink).unwrap();
        assert_eq!(s.received, 4);
        assert_eq!(e.world().channel(ab).stats.overflow_drops, 6);
    }

    #[test]
    fn multihop_routing_works() {
        let mut e = Engine::new(1);
        let a = e.add_node("a");
        let m = e.add_node("m");
        let b = e.add_node("b");
        e.add_link(
            a,
            m,
            8_000_000,
            SimDuration::from_millis(1),
            &QueueConfig::paper_droptail(),
        );
        e.add_link(
            m,
            b,
            8_000_000,
            SimDuration::from_millis(1),
            &QueueConfig::paper_droptail(),
        );
        let sink = e.add_agent(b, Box::new(Sink::default()));
        let blaster = e.add_agent(
            a,
            Box::new(Blaster {
                dest: Dest::Agent(sink),
                count: 3,
                size: 500,
            }),
        );
        e.compute_routes();
        e.start_agent_at(blaster, SimTime::ZERO);
        e.run_until(SimTime::from_secs(1));
        let s: &Sink = e.agent_as(sink).unwrap();
        assert_eq!(s.received, 3);
    }

    #[test]
    fn multicast_replicates_to_all_members() {
        // Star: root -> g -> {l1, l2, l3}; one packet must reach all three.
        let mut e = Engine::new(1);
        let root = e.add_node("root");
        let g = e.add_node("g");
        let leaves: Vec<NodeId> = (0..3).map(|i| e.add_node(format!("l{i}"))).collect();
        e.add_link(
            root,
            g,
            8_000_000,
            SimDuration::from_millis(1),
            &QueueConfig::paper_droptail(),
        );
        for &l in &leaves {
            e.add_link(
                g,
                l,
                8_000_000,
                SimDuration::from_millis(1),
                &QueueConfig::paper_droptail(),
            );
        }
        let group = e.new_group();
        let sinks: Vec<AgentId> = leaves
            .iter()
            .map(|&l| {
                let s = e.add_agent(l, Box::new(Sink::default()));
                e.join_group(group, s);
                s
            })
            .collect();
        let blaster = e.add_agent(
            root,
            Box::new(Blaster {
                dest: Dest::Group(group),
                count: 7,
                size: 1000,
            }),
        );
        e.compute_routes();
        e.build_group_tree(group, root);
        e.start_agent_at(blaster, SimTime::ZERO);
        e.run_until(SimTime::from_secs(1));
        for &s in &sinks {
            let sink: &Sink = e.agent_as(s).unwrap();
            assert_eq!(sink.received, 7);
        }
        // The root->g hop carries each packet exactly once (replication
        // happens at the branch point g, not at the source).
        let root_out = e.world().node(root).out_channels[0];
        assert_eq!(e.world().channel(root_out).stats.transmitted, 7);
    }

    #[test]
    fn determinism_same_seed_same_world() {
        let run = |seed: u64| {
            let (mut e, blaster, sink, ab) = two_node_world(&QueueConfig::paper_red());
            let _ = seed;
            e.start_agent_at(blaster, SimTime::ZERO);
            e.run_until(SimTime::from_secs(2));
            let s: &Sink = e.agent_as(sink).unwrap();
            (s.received, e.world().channel(ab).stats.transmitted)
        };
        assert_eq!(run(1), run(1));
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerAgent {
            fired: Vec<u64>,
        }
        impl Agent for TimerAgent {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.set_timer(SimDuration::from_millis(20), 2);
                ctx.set_timer(SimDuration::from_millis(10), 1);
                ctx.set_timer(SimDuration::from_millis(30), 3);
            }
            fn on_packet(&mut self, _p: Packet, _ctx: &mut Context<'_>) {}
            fn on_timer(&mut self, token: u64, _ctx: &mut Context<'_>) {
                self.fired.push(token);
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }
        let mut e = Engine::new(1);
        let n = e.add_node("n");
        let a = e.add_agent(n, Box::new(TimerAgent { fired: vec![] }));
        e.start_agent_at(a, SimTime::ZERO);
        e.run_until(SimTime::from_secs(1));
        let ta: &TimerAgent = e.agent_as(a).unwrap();
        assert_eq!(ta.fired, vec![1, 2, 3]);
    }

    #[test]
    fn send_overhead_never_reorders_an_agents_packets() {
        // Random processing overhead models a host's (serialized) protocol
        // stack: it delays packets but must not permute them, or receivers
        // would see phantom SACK holes.
        struct OrderedSink {
            uids: Vec<u64>,
        }
        impl Agent for OrderedSink {
            fn on_packet(&mut self, packet: Packet, _ctx: &mut Context<'_>) {
                self.uids.push(packet.uid);
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }
        let mut e = Engine::new(99);
        let a = e.add_node("a");
        let b = e.add_node("b");
        e.add_link(
            a,
            b,
            1_000_000_000, // fast link: ordering is decided at injection
            SimDuration::from_millis(1),
            &QueueConfig::DropTail { limit: 10_000 },
        );
        let sink = e.add_agent(b, Box::new(OrderedSink { uids: vec![] }));
        let blaster = e.add_agent(
            a,
            Box::new(Blaster {
                dest: Dest::Agent(sink),
                count: 500,
                size: 100,
            }),
        );
        e.compute_routes();
        e.set_send_overhead(blaster, SimDuration::from_millis(5));
        e.start_agent_at(blaster, SimTime::ZERO);
        e.run_until(SimTime::from_secs(10));
        let s: &OrderedSink = e.agent_as(sink).unwrap();
        assert_eq!(s.uids.len(), 500);
        let mut sorted = s.uids.clone();
        sorted.sort_unstable();
        assert_eq!(s.uids, sorted, "jitter reordered the agent's packets");
    }

    #[test]
    fn fault_injection_drops_everything() {
        let (mut e, blaster, sink, ab) = two_node_world(&QueueConfig::paper_droptail());
        e.set_fault(ab, FaultInjector::new(1.0));
        e.start_agent_at(blaster, SimTime::ZERO);
        e.run_until(SimTime::from_secs(1));
        let s: &Sink = e.agent_as(sink).unwrap();
        assert_eq!(s.received, 0);
        assert_eq!(e.world().channel(ab).stats.fault_drops, 5);
    }

    #[test]
    fn clock_lands_exactly_on_deadline() {
        let (mut e, blaster, _, _) = two_node_world(&QueueConfig::paper_droptail());
        e.start_agent_at(blaster, SimTime::ZERO);
        e.run_until(SimTime::from_secs(42));
        assert_eq!(e.now(), SimTime::from_secs(42));
    }

    // ------------------------------------------------------------------
    // Domain-partitioned execution
    // ------------------------------------------------------------------

    /// A chain a -(1ms)- m -(10ms)- b with traffic in both directions and
    /// a multicast group fanning out from a. Partitioning at θ=5ms cuts
    /// the 10ms link: {a, m} and {b} become two domains with L = 10ms.
    fn partitioned_chain(seed: u64, workers: usize) -> (Engine, AgentId, AgentId) {
        let mut e = Engine::new(seed);
        let a = e.add_node("a");
        let m = e.add_node("m");
        let b = e.add_node("b");
        e.add_link(
            a,
            m,
            8_000_000,
            SimDuration::from_millis(1),
            &QueueConfig::DropTail { limit: 8 },
        );
        e.add_link(
            m,
            b,
            8_000_000,
            SimDuration::from_millis(10),
            &QueueConfig::DropTail { limit: 8 },
        );
        assert_eq!(e.partition(Some(SimDuration::from_millis(5))), 2);
        e.set_workers(workers);
        let sink_b = e.add_agent(b, Box::new(Sink::default()));
        let sink_a = e.add_agent(a, Box::new(Sink::default()));
        let fwd = e.add_agent(
            a,
            Box::new(Blaster {
                dest: Dest::Agent(sink_b),
                count: 40,
                size: 1000,
            }),
        );
        let rev = e.add_agent(
            b,
            Box::new(Blaster {
                dest: Dest::Agent(sink_a),
                count: 25,
                size: 600,
            }),
        );
        e.compute_routes();
        e.set_send_overhead(fwd, SimDuration::from_millis(2));
        e.set_send_overhead(rev, SimDuration::from_millis(2));
        e.start_agent_at(fwd, SimTime::ZERO);
        e.start_agent_at(rev, SimTime::from_millis(3));
        (e, sink_a, sink_b)
    }

    #[test]
    fn partitioned_packets_cross_domains_both_ways() {
        let (mut e, sink_a, sink_b) = partitioned_chain(7, 1);
        e.run_until(SimTime::from_secs(2));
        let sb: &Sink = e.agent_as(sink_b).unwrap();
        let sa: &Sink = e.agent_as(sink_a).unwrap();
        // Both blasts overflow their drop-tail exits (limit 8, plus one in
        // service); what survives the first hop crosses the cut link and
        // must be conserved end to end — no packet may vanish at a domain
        // boundary.
        assert!(sb.received > 0, "forward traffic never crossed the cut");
        assert!(sa.received > 0, "reverse traffic never crossed the cut");
        let w = e.world();
        let drops = |ch: ChannelId| w.channel(ch).stats.overflow_drops;
        let a_to_m = w.node(NodeId(0)).out_channels[0];
        let b_to_m = w.node(NodeId(2)).out_channels[0];
        assert_eq!(sb.received + drops(a_to_m), 40, "forward packets vanished");
        assert_eq!(sa.received + drops(b_to_m), 25, "reverse packets vanished");
        assert_eq!(e.now(), SimTime::from_secs(2));
        assert_eq!(w.live_packets(), 0);
    }

    #[test]
    fn digest_is_identical_across_worker_counts_and_stepping() {
        let full = |workers: usize| {
            let (mut e, _, _) = partitioned_chain(11, workers);
            e.run_until(SimTime::from_secs(2));
            e.trace_digest()
        };
        let baseline = full(1);
        assert!(baseline.events() > 0);
        assert_eq!(baseline, full(2), "two workers drifted");
        assert_eq!(baseline, full(4), "four workers drifted");
        // Mid-epoch stepping must not move the exchange barriers: pause at
        // an off-grid instant (L = 10ms; 7ms is mid-epoch) and resume.
        let (mut e, _, _) = partitioned_chain(11, 2);
        e.run_until(SimTime::from_millis(7));
        e.run_until(SimTime::from_millis(13));
        e.run_until(SimTime::from_secs(2));
        assert_eq!(baseline, e.trace_digest(), "stepping changed the digest");
        // Deadlines landing exactly on grid barriers are the epoch loop's
        // edge case: the final epoch must run (and exchange) exactly once.
        let (mut e, _, _) = partitioned_chain(11, 1);
        e.run_until(SimTime::from_millis(10));
        e.run_until(SimTime::from_millis(20));
        e.run_until(SimTime::from_secs(2));
        assert_eq!(
            baseline,
            e.trace_digest(),
            "on-barrier stepping changed the digest"
        );
    }

    /// The star topology from `partitioned_multicast_spans_domains`, with
    /// bidirectional unicast echo traffic layered on top, partitioned by
    /// the given closure. Returns the digest after 1 s.
    fn star_digest(partition: impl FnOnce(&mut Engine) -> usize, workers: usize) -> TraceDigest {
        let mut e = Engine::new(17);
        let root = e.add_node("root");
        let hub = e.add_node("hub");
        let l0 = e.add_node("l0");
        let l1 = e.add_node("l1");
        for &(x, y) in &[(root, hub), (hub, l0), (hub, l1)] {
            e.add_link(
                x,
                y,
                8_000_000,
                SimDuration::from_millis(10),
                &QueueConfig::DropTail { limit: 6 },
            );
        }
        let domains = partition(&mut e);
        assert!(domains >= 1);
        e.set_workers(workers);
        let group = e.new_group();
        let s0 = e.add_agent(l0, Box::new(Sink::default()));
        let s1 = e.add_agent(l1, Box::new(Sink::default()));
        e.join_group(group, s0);
        e.join_group(group, s1);
        let sink_root = e.add_agent(root, Box::new(Sink::default()));
        let mcast = e.add_agent(
            root,
            Box::new(Blaster {
                dest: Dest::Group(group),
                count: 9,
                size: 1000,
            }),
        );
        let echo = e.add_agent(
            l1,
            Box::new(Blaster {
                dest: Dest::Agent(sink_root),
                count: 12,
                size: 700,
            }),
        );
        e.compute_routes();
        e.build_group_tree(group, root);
        e.set_send_overhead(mcast, SimDuration::from_millis(1));
        e.set_send_overhead(echo, SimDuration::from_millis(1));
        e.start_agent_at(mcast, SimTime::ZERO);
        e.start_agent_at(echo, SimTime::from_millis(2));
        e.run_until(SimTime::from_secs(1));
        assert_eq!(e.world().live_packets(), 0, "packets leaked across arenas");
        e.trace_digest()
    }

    #[test]
    fn merged_partition_preserves_the_fine_digest_at_every_target() {
        // The fine partition (4 regions) is the identity baseline; the
        // merge pass must reproduce its digest bit-for-bit at every
        // execution-domain count, including the fully collapsed single
        // shard, and on worker threads.
        let fine = star_digest(|e| e.partition(None), 1);
        assert!(fine.events() > 0);
        for target in 1..=4 {
            let merged = star_digest(|e| e.partition_merged(None, target, None), 1);
            assert_eq!(fine, merged, "merge to {target} changed the digest");
        }
        let merged_threaded = star_digest(|e| e.partition_merged(None, 2, None), 2);
        assert_eq!(fine, merged_threaded, "threaded merged run drifted");
        // Measured per-region costs must not change results either — only
        // the grouping may move.
        let costs = vec![5, 40, 3, 3];
        let refined = star_digest(|e| e.partition_merged(None, 2, Some(&costs)), 1);
        assert_eq!(fine, refined, "cost-refined merge changed the digest");
    }

    #[test]
    fn merged_to_one_keeps_exchange_counters_at_zero() {
        let mut e = Engine::new(17);
        let a = e.add_node("a");
        let b = e.add_node("b");
        e.add_link(
            a,
            b,
            8_000_000,
            SimDuration::from_millis(10),
            &QueueConfig::paper_droptail(),
        );
        assert_eq!(e.partition_merged(None, 1, None), 1);
        assert_eq!(e.domain_count(), 1);
        assert_eq!(e.region_count(), 2, "regions stay fine under the merge");
        let sink = e.add_agent(b, Box::new(Sink::default()));
        let blaster = e.add_agent(
            a,
            Box::new(Blaster {
                dest: Dest::Agent(sink),
                count: 5,
                size: 1000,
            }),
        );
        e.compute_routes();
        e.start_agent_at(blaster, SimTime::ZERO);
        e.run_until(SimTime::from_secs(1));
        let s: &Sink = e.agent_as(sink).unwrap();
        assert_eq!(s.received, 5);
        // A single execution domain never touches the outbox: every
        // crossing stays in its arena and is scheduled directly under its
        // canonical boundary key.
        assert_eq!(e.world().shards[0].outbox.capacity(), 0);
        assert_eq!(e.world().live_packets(), 0);
    }

    #[test]
    #[should_panic(expected = "already partitioned")]
    fn merged_partition_cannot_be_applied_twice() {
        let mut e = Engine::new(1);
        let a = e.add_node("a");
        let b = e.add_node("b");
        e.add_link(
            a,
            b,
            8_000_000,
            SimDuration::from_millis(10),
            &QueueConfig::paper_droptail(),
        );
        e.partition_merged(None, 1, None);
        e.partition(None);
    }

    #[test]
    fn partitioned_multicast_spans_domains() {
        // root -(10ms)- hub, hub -(10ms)- l0/l1: four domains; the group
        // tree replicates at hub across two boundary crossings.
        let mut e = Engine::new(3);
        let root = e.add_node("root");
        let hub = e.add_node("hub");
        let l0 = e.add_node("l0");
        let l1 = e.add_node("l1");
        for &(x, y) in &[(root, hub), (hub, l0), (hub, l1)] {
            e.add_link(
                x,
                y,
                8_000_000,
                SimDuration::from_millis(10),
                &QueueConfig::paper_droptail(),
            );
        }
        assert_eq!(e.partition(None), 4);
        e.set_workers(2);
        let group = e.new_group();
        let s0 = e.add_agent(l0, Box::new(Sink::default()));
        let s1 = e.add_agent(l1, Box::new(Sink::default()));
        e.join_group(group, s0);
        e.join_group(group, s1);
        let blaster = e.add_agent(
            root,
            Box::new(Blaster {
                dest: Dest::Group(group),
                count: 9,
                size: 1000,
            }),
        );
        e.compute_routes();
        e.build_group_tree(group, root);
        e.start_agent_at(blaster, SimTime::ZERO);
        e.run_until(SimTime::from_secs(1));
        for id in [s0, s1] {
            let s: &Sink = e.agent_as(id).unwrap();
            assert_eq!(s.received, 9);
        }
        assert_eq!(e.world().live_packets(), 0, "packets leaked across arenas");
    }

    #[test]
    fn unpartitioned_engine_is_untouched_by_worker_setting() {
        // set_workers on an unpartitioned engine is inert: same digest as
        // the default.
        let run = |workers: usize| {
            let (mut e, blaster, _, _) = two_node_world(&QueueConfig::paper_red());
            e.set_workers(workers);
            e.start_agent_at(blaster, SimTime::ZERO);
            e.run_until(SimTime::from_secs(2));
            e.trace_digest()
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    #[should_panic(expected = "limit of 0.268 simulated seconds")]
    fn deadline_past_the_key_width_is_refused_on_entry() {
        // θ = 1 ns: the 28-bit epoch field covers 2^28 ns ≈ 0.268 s.
        let mut e = Engine::new(1);
        let a = e.add_node("a");
        let b = e.add_node("b");
        e.add_link(
            a,
            b,
            8_000_000,
            SimDuration::from_nanos(1),
            &QueueConfig::paper_droptail(),
        );
        assert_eq!(e.partition(None), 2);
        e.run_until(SimTime::from_nanos(1_000)); // inside the limit: runs
        e.run_until(SimTime::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "already partitioned")]
    fn double_partition_is_rejected() {
        let mut e = Engine::new(1);
        let a = e.add_node("a");
        let b = e.add_node("b");
        e.add_link(
            a,
            b,
            8_000_000,
            SimDuration::from_millis(10),
            &QueueConfig::paper_droptail(),
        );
        e.partition(None);
        e.partition(None);
    }

    // ------------------------------------------------------------------
    // One event per hop: lazy completions against the eager model
    // ------------------------------------------------------------------

    /// An agent that fires `count` packets of `size` bytes at `dest` at
    /// each scripted instant (ns; at once if the agent starts later).
    struct Script {
        dest: Dest,
        bursts: Vec<(u64, u32, u32)>,
    }

    impl Agent for Script {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            for (i, &(t, _, _)) in self.bursts.iter().enumerate() {
                ctx.set_timer_at(SimTime::from_nanos(t).max(ctx.now()), i as u64);
            }
        }
        fn on_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
            let (_, count, size) = self.bursts[token as usize];
            for _ in 0..count {
                ctx.send(self.dest, size, Segment::Raw);
            }
        }
        fn on_packet(&mut self, _packet: Packet, _ctx: &mut Context<'_>) {}
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    /// Records every link event as `"<ns> <kind> <channel> uid<uid> q<qlen>"`.
    #[derive(Default)]
    struct LinkLog(Vec<String>);

    impl Tracer for LinkLog {
        fn trace(&mut self, now: SimTime, event: &TraceEvent<'_>) {
            let (kind, channel, packet, qlen) = match *event {
                TraceEvent::Enqueue {
                    channel,
                    packet,
                    qlen,
                } => ("Enqueue", channel, packet, qlen),
                TraceEvent::Drop {
                    channel,
                    packet,
                    qlen,
                    ..
                } => ("Drop", channel, packet, qlen),
                TraceEvent::TxStart {
                    channel,
                    packet,
                    qlen,
                } => ("TxStart", channel, packet, qlen),
                _ => return,
            };
            let uid = packet.uid & 0xffff;
            self.0.push(format!(
                "{} {kind} {channel} uid{uid} q{qlen}",
                now.as_nanos()
            ));
        }
    }

    #[test]
    fn a_tracer_on_two_domains_is_refused_before_anything_is_dispatched() {
        // Inline executor, two domains: each epoch runs domain 0 then
        // domain 1, so callbacks would go back in time at every switch.
        let (mut e, _, _) = partitioned_chain(7, 1);
        assert_eq!(e.domain_count(), 2);
        let log = Rc::new(RefCell::new(LinkLog::default()));
        e.set_tracer(log.clone());
        let run = std::panic::AssertUnwindSafe(|| e.run_until(SimTime::from_millis(50)));
        let err = std::panic::catch_unwind(run).expect_err("a traced two-domain run");
        let msg = err.downcast_ref::<String>().expect("formatted message");
        assert!(msg.contains("this engine has 2"), "{msg}");
        assert!(msg.contains("partition_merged(.., 1, ..)"), "{msg}");
        assert!(log.borrow().0.is_empty(), "nothing was traced");
        assert_eq!(e.trace_digest().events(), 0, "nothing was dispatched");
    }

    /// A digest of the callbacks it gets that listens to `wants` only.
    struct Listening {
        wants: TraceKinds,
        seen: TraceDigest,
    }

    impl Tracer for Listening {
        fn wants(&self) -> TraceKinds {
            self.wants
        }
        fn trace(&mut self, now: SimTime, event: &TraceEvent<'_>) {
            self.seen.trace(now, event);
        }
    }

    #[test]
    fn the_slot_calls_a_tracer_for_the_kinds_it_declared_at_install_and_no_others() {
        // Forty packets at once into a 20-packet buffer: the run produces
        // every kind, drops included.
        let run = |install: &dyn Fn(&mut Engine)| {
            let bursts = vec![(0, 40, 1000)];
            let (mut e, _, _) =
                lazy_chain(&QueueConfig::paper_droptail(), 1, false, vec![], bursts);
            install(&mut e);
            e.run_until(SimTime::from_secs(1));
            e.trace_digest()
        };
        let counters =
            |d: &TraceDigest| [d.enqueues, d.drops, d.tx_starts, d.arrivals, d.deliveries];
        let bare = run(&|_| {});
        let want = counters(&bare);
        assert!(
            want.iter().all(|&n| n > 0),
            "a kind never occurred: {want:?}"
        );

        // TxStart only — and the declaration is read by `set_tracer`, once:
        // a change of mind afterwards is not seen.
        let narrow = Rc::new(RefCell::new(Listening {
            wants: TraceKinds::TX_START,
            seen: TraceDigest::new(),
        }));
        let traced = run(&|e| {
            e.set_tracer(narrow.clone());
            narrow.borrow_mut().wants = TraceKinds::ALL;
        });
        assert_eq!(
            counters(&narrow.borrow().seen),
            [0, 0, bare.tx_starts, 0, 0]
        );
        assert_eq!(traced, bare, "a narrow tracer moved the digest");

        // The default declaration is every kind: a standalone digest in
        // the slot counts what the engine's own counted.
        let wide = Rc::new(RefCell::new(TraceDigest::new()));
        let traced = run(&|e| e.set_tracer(wide.clone()));
        assert_eq!(counters(&wide.borrow()), want);
        assert_eq!(traced, bare, "a wide tracer moved the digest");
    }

    /// The model: every completion is filed when its transmission starts.
    /// Call after partitioning (late shards are born lazy).
    fn set_eager(e: &mut Engine) {
        for shard in &mut e.world.shards {
            shard.eager = true;
        }
    }

    /// A chain c -(10ms)- a -(10ms)- b at 8 Mb/s (1000 B = 1 ms), every
    /// node its own region, `shards` execution domains; `src_c` and
    /// `src_a` script traffic from c and from a to a sink on b. Returns
    /// the engine, the a→b channel and the sink.
    fn lazy_chain(
        queue: &QueueConfig,
        shards: usize,
        eager: bool,
        src_c: Vec<(u64, u32, u32)>,
        src_a: Vec<(u64, u32, u32)>,
    ) -> (Engine, ChannelId, AgentId) {
        let mut e = Engine::new(5);
        let c = e.add_node("c");
        let a = e.add_node("a");
        let b = e.add_node("b");
        e.add_link(c, a, 8_000_000, SimDuration::from_millis(10), queue);
        let (ab, _) = e.add_link(a, b, 8_000_000, SimDuration::from_millis(10), queue);
        e.partition_merged(None, shards, None);
        assert_eq!(e.region_count(), 3);
        if eager {
            set_eager(&mut e);
        }
        let sink = e.add_agent(b, Box::new(Sink::default()));
        let dest = Dest::Agent(sink);
        for (node, bursts) in [(c, src_c), (a, src_a)] {
            let src = e.add_agent(node, Box::new(Script { dest, bursts }));
            e.start_agent_at(src, SimTime::ZERO);
        }
        e.compute_routes();
        (e, ab, sink)
    }

    /// Everything the two engines must agree on at a stop.
    fn observable(e: &Engine) -> (TraceDigest, Vec<String>, usize) {
        let w = e.world();
        let channels = (0..w.channel_count())
            .map(|i| {
                let ch = w.channel(ChannelId::from(i));
                format!("{:?} {:?}", ch.stats, ch.queue.red_avg())
            })
            .collect();
        (e.trace_digest(), channels, w.live_packets())
    }

    #[test]
    fn a_start_from_a_completion_with_packets_still_buffered_files_at_once() {
        // Five packets at once: the first transmission goes lazy, the
        // second offer files its completion, and each completion that
        // dequeues with packets still behind must file the next one on
        // the spot — going lazy there strands the buffer for good.
        let (mut e, ab, sink) = lazy_chain(
            &QueueConfig::paper_droptail(),
            1,
            false,
            vec![],
            vec![(0, 5, 1000)],
        );
        e.run_until(SimTime::from_secs(1));
        assert_eq!(e.agent_as::<Sink>(sink).unwrap().received, 5);
        assert_eq!(e.world().channel(ab).stats.transmitted, 5);
        let c = e.event_counts();
        // Only the last transmission ends with nothing waiting.
        assert_eq!((c.tx_complete, c.settled), (4, 1));
        // Timer, five injections, five arrivals at b.
        assert_eq!((c.timer, c.arrive), (1, 10));
    }

    #[test]
    fn an_arrival_at_the_very_end_of_service_lands_on_its_side_of_the_completion() {
        let link_log = |src_c: Vec<(u64, u32, u32)>, src_a: Vec<(u64, u32, u32)>, eager: bool| {
            let (mut e, ab, _) = lazy_chain(&QueueConfig::paper_droptail(), 1, eager, src_c, src_a);
            let log = Rc::new(RefCell::new(LinkLog::default()));
            e.set_tracer(log.clone());
            e.run_until(SimTime::from_millis(50));
            let tag = format!(" {ab} ");
            let lines: Vec<String> = log
                .borrow()
                .0
                .iter()
                .filter(|l| l.contains(&tag))
                .cloned()
                .collect();
            lines
        };
        // a→b serves a packet over [10.5 ms, 11.5 ms]; its completion's
        // key is a local one of epoch 2. A packet sent from c at 0.5 ms
        // reaches a at 11.5 ms under a boundary key of epoch 1 — *before*
        // that completion: it must find the transmitter busy, queue, and
        // be pulled out again in the same instant.
        let before = link_log(vec![(500_000, 1, 1000)], vec![(10_500_000, 1, 1000)], false);
        assert_eq!(
            before,
            [
                "10500000 TxStart ch2 uid0 q0",
                "11500000 Enqueue ch2 uid0 q1",
                "11500000 TxStart ch2 uid0 q0",
            ]
        );
        assert_eq!(
            before,
            link_log(vec![(500_000, 1, 1000)], vec![(10_500_000, 1, 1000)], true)
        );
        // A packet a's own agent injects at 11.5 ms is scheduled after the
        // key was reserved — *after* the completion: the transmitter is
        // idle by then and it goes straight out.
        let bursts = vec![(10_500_000, 1, 1000), (11_500_000, 1, 1000)];
        let after = link_log(vec![], bursts.clone(), false);
        assert_eq!(
            after,
            [
                "10500000 TxStart ch2 uid0 q0",
                "11500000 TxStart ch2 uid1 q0",
            ]
        );
        assert_eq!(after, link_log(vec![], bursts, true));
    }

    #[test]
    fn a_red_drop_onto_an_empty_buffer_mid_service_still_arms_the_idle_clock() {
        // A burst drives RED's average past max_th and leaves six packets
        // queued; the straggler at 6.5 ms meets an empty buffer behind the
        // last of them (in service until 7 ms) and is force-dropped, which
        // disarms RED's idle clock. Nothing else happens until long after
        // 7 ms, so that completion is settled late — and must still re-arm
        // the clock *at 7 ms*, or the average the packets at 20 ms see has
        // not aged.
        let red = QueueConfig::Red(RedConfig {
            limit: 20,
            min_th: 2.9,
            max_th: 3.0,
            weight: 0.25,
            max_p: 1.0,
            mean_pkt_time: SimDuration::from_millis(1),
        });
        let run = |eager: bool| {
            let bursts = vec![(0, 30, 1000), (6_500_000, 1, 1000), (20_000_000, 2, 1000)];
            let (mut e, ab, _) = lazy_chain(&red, 1, eager, vec![], bursts);
            let log = Rc::new(RefCell::new(LinkLog::default()));
            e.set_tracer(log.clone());
            e.run_until(SimTime::from_millis(19));
            let quiet = e.world().channel(ab).queue.red_avg().unwrap();
            e.run_until(SimTime::from_millis(30));
            let aged = e.world().channel(ab).queue.red_avg().unwrap();
            let log = log.borrow().0.clone();
            (quiet, aged, log, observable(&e))
        };
        let (quiet, aged, log, lazy) = run(false);
        assert!(
            log.contains(&"6000000 TxStart ch2 uid6 q0".to_string())
                && log.contains(&"6500000 Drop ch2 uid30 q0".to_string()),
            "the scenario no longer drops onto an empty buffer mid-service: {log:#?}"
        );
        assert!(quiet > 3.0 && aged < 0.2, "avg {quiet} -> {aged}");
        let (equiet, eaged, elog, eager) = run(true);
        assert_eq!((quiet, aged), (equiet, eaged));
        assert_eq!(log, elog);
        assert_eq!(lazy, eager);
    }

    #[test]
    fn a_deadline_on_the_end_of_service_reads_the_transmission_as_over() {
        let (mut e, ab, _) = lazy_chain(
            &QueueConfig::paper_droptail(),
            1,
            false,
            vec![],
            vec![(0, 1, 1000)],
        );
        e.run_until(SimTime::from_nanos(500_000));
        let ch = e.world().channel(ab);
        assert_eq!(ch.stats.transmitted, 0);
        assert!(ch.in_service.is_some_and(|tx| !tx.filed));
        assert_eq!(ch.stats.utilization(e.now()), 1.0);
        // The completion has no event, and nothing offers again: only the
        // way out of `run_until` can close it.
        e.run_until(SimTime::from_millis(1));
        let ch = e.world().channel(ab);
        assert_eq!(
            (ch.stats.transmitted, ch.stats.bytes_transmitted),
            (1, 1000)
        );
        assert!(ch.in_service.is_none());
        assert_eq!(ch.stats.utilization(e.now()), 1.0);
        e.run_until(SimTime::from_millis(2));
        assert_eq!(e.world().channel(ab).stats.utilization(e.now()), 0.5);
        assert_eq!(e.event_counts().settled, 1);
    }

    #[test]
    fn a_degrade_mid_service_leaves_the_transmission_its_end() {
        let run = |eager: bool| {
            let bursts = vec![(0, 1, 1000), (600_000, 1, 1000)];
            let (mut e, ab, sink) =
                lazy_chain(&QueueConfig::paper_droptail(), 1, eager, vec![], bursts);
            e.run_until(SimTime::from_nanos(500_000));
            e.world_mut().channel_mut(ab).degrade(0.0, Some(4_000_000));
            let mut stops = vec![observable(&e)];
            // First packet out at 1 ms as started; the second is served at
            // the degraded rate: 1 + 2 ms, at b 10 ms later.
            for (ms, transmitted, received) in [(1, 1, 0), (3, 2, 0), (12, 2, 1), (13, 2, 2)] {
                e.run_until(SimTime::from_millis(ms));
                assert_eq!(e.world().channel(ab).stats.transmitted, transmitted);
                assert_eq!(e.agent_as::<Sink>(sink).unwrap().received, received);
                stops.push(observable(&e));
            }
            stops
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn a_packet_bound_for_another_shard_waits_in_the_outbox_from_the_start() {
        let (mut e, ab, sink) = lazy_chain(
            &QueueConfig::paper_droptail(),
            3,
            false,
            vec![],
            vec![(0, 1, 1000)],
        );
        assert_eq!(e.domain_count(), 3);
        // Mid-transmission, mid-epoch: the packet has already left a's
        // arena for the outbox, and is still counted.
        e.run_until(SimTime::from_nanos(500_000));
        assert_eq!(e.world().shards[1].arena.len(), 0);
        assert_eq!(e.world().shards[1].outbox.len(), 1);
        assert_eq!(e.world().live_packets(), 1);
        // The barrier hands it to b's shard, ahead of its arrival at 11 ms.
        e.run_until(SimTime::from_millis(10));
        assert_eq!(e.world().shards[1].outbox.len(), 0);
        assert_eq!(e.world().shards[2].arena.len(), 1);
        assert_eq!(e.world().live_packets(), 1);
        assert_eq!(e.world().channel(ab).stats.transmitted, 1);
        e.run_until(SimTime::from_millis(11));
        assert_eq!(e.world().live_packets(), 0);
        assert_eq!(e.agent_as::<Sink>(sink).unwrap().received, 1);
    }

    /// A chain of `n` nodes on 1 ms links, every node its own region.
    fn wide_chain(n: usize) -> Engine {
        let mut e = Engine::new(1);
        let queue = QueueConfig::DropTail { limit: 1 };
        let mut prev = e.add_node("n");
        for _ in 1..n {
            let next = e.add_node("n");
            e.add_link(prev, next, 8_000_000, SimDuration::from_millis(1), &queue);
            prev = next;
        }
        e
    }

    #[test]
    #[should_panic(expected = "region 16384 does not fit the calendar key")]
    fn a_partition_too_wide_for_the_key_is_refused_before_anything_runs() {
        wide_chain(crate::event::MAX_REGIONS + 1).partition_merged(None, 1, None);
    }

    /// One randomly drawn world for the differential property: a random
    /// tree (chains and stars included) with mixed link delays, rates,
    /// drop-tail and RED buffers and fault injectors, partitioned at a
    /// drawn θ so that some hops stay inside a region; unicast scripts and
    /// one multicast group, bursts on a 250 µs grid so that arrivals,
    /// completions and deadlines keep landing on the same instants.
    fn random_world(draws: &[u64], shards: usize, eager: bool) -> Engine {
        let mut next = {
            let mut i = 0;
            move |n: u64| {
                i += 1;
                draws[i % draws.len()].rotate_left(i as u32 % 64) % n
            }
        };
        let mut e = Engine::new(draws[0]);
        let n = 2 + next(7) as usize;
        let nodes: Vec<NodeId> = (0..n).map(|i| e.add_node(format!("n{i}"))).collect();
        let red = QueueConfig::Red(RedConfig {
            limit: 5,
            min_th: 0.5,
            max_th: 1.5,
            weight: 0.3,
            max_p: 1.0,
            mean_pkt_time: SimDuration::from_millis(1),
        });
        let mut channels = Vec::new();
        for i in 1..n {
            let parent = nodes[next(i as u64) as usize];
            let delay = [0, 1, 5, 5, 10][next(5) as usize];
            let rate = [1_000_000, 8_000_000, 100_000_000][next(3) as usize];
            let queue = match next(6) {
                k @ 0..=2 => QueueConfig::DropTail {
                    limit: [1, 2, 5][k as usize],
                },
                _ => red.clone(),
            };
            let (down, up) = e.add_link(
                parent,
                nodes[i],
                rate,
                SimDuration::from_millis(delay),
                &queue,
            );
            channels.extend([down, up]);
        }
        for &ch in &channels {
            if next(5) == 0 {
                e.set_fault(ch, FaultInjector::new(0.2));
            }
        }
        let theta = [None, Some(SimDuration::from_millis(5))][next(2) as usize];
        e.partition_merged(theta, shards, None);
        if eager {
            set_eager(&mut e);
        }
        let sinks: Vec<AgentId> = nodes
            .iter()
            .map(|&node| e.add_agent(node, Box::new(Sink::default())))
            .collect();
        let group = e.new_group();
        for &sink in &sinks[1..] {
            if next(2) == 0 {
                e.join_group(group, sink);
            }
        }
        let mut sources = Vec::new();
        for k in 0..1 + next(4) {
            let dest = if k == 0 {
                Dest::Group(group)
            } else {
                Dest::Agent(sinks[next(n as u64) as usize])
            };
            let bursts = (0..1 + next(6))
                .map(|_| {
                    let size = [40, 1000][next(2) as usize];
                    (next(80) * 250_000, 1 + next(6) as u32, size)
                })
                .collect();
            let node = if k == 0 {
                nodes[0]
            } else {
                nodes[next(n as u64) as usize]
            };
            let src = e.add_agent(node, Box::new(Script { dest, bursts }));
            if next(3) == 0 {
                e.set_send_overhead(src, SimDuration::from_micros(300));
            }
            sources.push(src);
        }
        e.compute_routes();
        e.build_group_tree(group, nodes[0]);
        for src in sources {
            e.start_agent_at(src, SimTime::from_nanos(next(4) * 250_000));
        }
        e
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Filing a completion only when a packet is waiting is invisible:
        /// against the model that files every one at start, the digest,
        /// every channel's statistics and RED average and the live-packet
        /// count agree at every stop of an arbitrarily stepped run — stops
        /// on the burst grid (where transmissions end) and off it, a
        /// degrade dropped in at one of them — at one and two shards.
        #[test]
        fn lazy_completions_match_the_eager_model(
            draws in proptest::collection::vec(proptest::prelude::any::<u64>(), 24..48),
            stops in proptest::collection::vec((0u64..120, 0u64..4), 1..10),
            degrade_at in 0usize..10,
        ) {
            let mut worlds = [
                random_world(&draws, 1, true),
                random_world(&draws, 1, false),
                random_world(&draws, 2, true),
                random_world(&draws, 2, false),
            ];
            let mut stops: Vec<u64> = stops
                .iter()
                .map(|&(grid, off)| grid * 250_000 + [0, 0, 80_000, 3_200][off as usize])
                .collect();
            stops.sort_unstable();
            stops.push(200_000_000);
            for (i, &stop) in stops.iter().enumerate() {
                for e in &mut worlds {
                    e.run_until(SimTime::from_nanos(stop));
                    if i == degrade_at && e.world().channel_count() > 0 {
                        let ch = ChannelId::from(draws[1] as usize % e.world().channel_count());
                        e.world_mut().channel_mut(ch).degrade(0.1, Some(2_000_000));
                    }
                }
                let model = observable(&worlds[0]);
                proptest::prop_assert!(model.0.events() > 0 || i + 1 < stops.len());
                for (k, e) in worlds.iter().enumerate().skip(1) {
                    proptest::prop_assert_eq!(&model, &observable(e), "world {} at {} ns", k, stop);
                }
            }
            let (lazy, eager) = (worlds[1].event_counts(), worlds[0].event_counts());
            proptest::prop_assert_eq!(eager.settled, 0);
            proptest::prop_assert_eq!(lazy.tx_complete + lazy.settled, eager.tx_complete);
        }
    }

    #[test]
    fn epoch_loads_cover_every_domain() {
        let (mut e, _, _) = partitioned_chain(5, 1);
        e.record_epoch_loads(true);
        e.run_until(SimTime::from_millis(100));
        let loads = e.epoch_loads().expect("recording was armed");
        // L = 10ms over a 100ms run: ten epochs, two domains each.
        assert_eq!(loads.len(), 10);
        assert!(loads.iter().all(|row| row.len() == 2));
        let total: u64 = loads.iter().flatten().sum();
        assert_eq!(total, e.trace_digest().events());
    }
}
