//! The simulation engine: world state, event dispatch, agent context.
//!
//! Ownership layout: the [`Engine`] owns a [`World`] and, in a *separate
//! field*, the boxed [`Agent`]s. The world itself is split in two: a
//! read-only [`Shared`] half (nodes, groups, routes, the region
//! [`DomainMap`]) and the [`DomainShard`] holding everything a run
//! mutates — the calendar, the region streams, channels, packet arena
//! and counters. Agent callbacks receive a [`Context`] borrowing the
//! shared half and the shard, so an agent can schedule sends and timers
//! while the engine still holds `&mut` to the agent itself — no
//! `RefCell`, no unsafe.
//!
//! # Execution
//!
//! There is one execution domain, run on the calling thread:
//!
//! * **Unpartitioned** — one region, and [`Engine::run_until`] is the
//!   familiar single event loop. Every unit test and every caller that
//!   never calls [`Engine::partition`] lives here.
//! * **Partitioned** — after [`Engine::partition`] the topology is split
//!   into *regions* along links at least θ slow (see [`DomainMap`]).
//!   Each region owns an RNG stream, a packet-uid tag and a digest lane,
//!   and the loop steps the calendar epoch by epoch on the absolute
//!   θ-grid ([`crate::shard::grid_next`]) so that a cross-region arrival
//!   can be filed at once under its canonical *(epoch of the
//!   transmission's end, source region, channel)* key. Digests are
//!   identical under any `run_until` stepping, because the regions, their
//!   streams and the keys depend only on the topology, the seed and θ.
//!
//! Determinism: per-region seeded RNGs, integer time, and FIFO
//! tie-breaking in the calendar make runs bit-reproducible for a given
//! seed.
//!
//! Hot path: packets live in a [`PacketArena`] and move through the
//! calendar, queues and multicast fan-out as copyable [`PacketHandle`]s;
//! the packet struct itself is only touched at injection, at trace points
//! and at delivery. The calendar is a hierarchical timer wheel
//! ([`Calendar`]) driven through `pop_before(deadline)`.
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
use crate::shard::{domain_seed, grid_next, DomainMap};
use crate::time::{SimDuration, SimTime};
use crate::trace::{TraceDigest, TraceEvent, TraceKinds, Tracer};
use crate::wire::Segment;

/// Per-agent engine-side metadata.
#[derive(Debug)]
struct AgentMeta {
    /// The node the agent is attached to.
    node: NodeId,
    /// The agent's region: the RNG stream, uid counter and digest lane
    /// its packets charge against.
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
/// components of the θ-partition — a pure function of the topology, the
/// seed and θ — and each owns the RNG stream, uid counter and digest lane
/// for its nodes.
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

    /// Region `r`'s stream in a partitioned world: an RNG derived from the
    /// base seed and the uid tag `r << 48`.
    fn derived(seed: u64, r: u32) -> Self {
        RegionStream::new(
            StdRng::seed_from_u64(domain_seed(seed, r)),
            (r as u64) << 48,
        )
    }

    fn alloc_uid(&mut self) -> u64 {
        let uid = self.uid_tag | self.next_uid;
        self.next_uid += 1;
        uid
    }
}

/// The read-only half of the world: topology, routing, groups and the
/// region partition. Agents read it during a run; it is only mutated
/// between runs (topology growth, group churn).
pub struct Shared {
    nodes: Vec<Node>,
    groups: Vec<Group>,
    /// The base RNG seed; per-region streams derive from it.
    seed: u64,
    /// The θ-partition: the *regions* that own RNG/uid/digest identity.
    /// A pure function of the topology, the seed and θ; its lookahead is
    /// the epoch grid.
    regions: DomainMap,
}

/// Everything a run mutates: simulated time, the calendar, channels,
/// agent metadata, the packet arena and the region identity streams.
/// Channels, agents and regions are indexed by their ids.
pub struct DomainShard {
    now: SimTime,
    calendar: Calendar,
    channels: Vec<Channel>,
    /// Region of each channel's `from` node (parallel to `channels`).
    chan_region: Vec<u32>,
    /// Static half of each channel's arrival keys (parallel to
    /// `channels`): its [`boundary_lane`] if the channel leaves its region,
    /// zero if it does not.
    chan_lane: Vec<u64>,
    agent_meta: Vec<AgentMeta>,
    /// One identity stream per region, by region id.
    regions: Vec<RegionStream>,
    /// Every in-flight packet's single home; events and queues hold
    /// [`PacketHandle`]s into it.
    arena: PacketArena,
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
    /// Total events recorded across the region digests.
    fn events(&self) -> u64 {
        self.regions.iter().map(|r| r.digest.events()).sum()
    }
}

/// The region of `ch`'s `from` node, and the static half of the channel's
/// arrival keys: its [`boundary_lane`] if it leaves that region, zero if
/// it does not.
///
/// # Panics
/// If the channel leaves its region and the calendar key has no room for
/// it (see [`boundary_lane`]).
fn channel_lane(regions: &DomainMap, ch: &Channel) -> (u32, u64) {
    let region = regions.domain_of(ch.from);
    let lane = if regions.domain_of(ch.to) == region {
        0
    } else {
        boundary_lane(region, ch.id).unwrap_or_else(|e| panic!("{e}"))
    };
    (region, lane)
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
    shard: DomainShard,
    tracer: Option<Rc<RefCell<dyn Tracer>>>,
    /// What the installed tracer declared it listens to ([`Tracer::wants`],
    /// read by `set_tracer`); empty while the slot is.
    traced: TraceKinds,
    /// When armed, a partitioned run appends one row per epoch: the
    /// events processed in that epoch, read back through
    /// [`Engine::epoch_loads`].
    epoch_loads: Option<Vec<Vec<u64>>>,
}

impl World {
    fn new(seed: u64) -> Self {
        World {
            shared: Shared {
                nodes: Vec::new(),
                groups: Vec::new(),
                seed,
                regions: DomainMap::single(),
            },
            shard: DomainShard {
                now: SimTime::ZERO,
                calendar: Calendar::new(),
                channels: Vec::new(),
                chan_region: Vec::new(),
                chan_lane: Vec::new(),
                agent_meta: Vec::new(),
                // The unpartitioned engine is one region with the classic
                // stream: seeded straight from the base seed, uid tag zero.
                regions: vec![RegionStream::new(StdRng::seed_from_u64(seed), 0)],
                arena: PacketArena::new(),
                cur_key: 0,
                counts: EventCounts::default(),
                #[cfg(test)]
                eager: false,
                fwd_scratch: Vec::new(),
                member_scratch: Vec::new(),
            },
            tracer: None,
            traced: TraceKinds::NONE,
            epoch_loads: None,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.shard.now
    }

    /// Immutable channel access.
    pub fn channel(&self, id: ChannelId) -> &Channel {
        &self.shard.channels[id.index()]
    }

    /// Mutable channel access (configure faults, inspect queues).
    pub fn channel_mut(&mut self, id: ChannelId) -> &mut Channel {
        &mut self.shard.channels[id.index()]
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
        self.shard.channels.len()
    }

    /// The node an agent is attached to.
    pub fn agent_node(&self, agent: AgentId) -> NodeId {
        self.shard.agent_meta[agent.index()].node
    }

    /// The members of a group.
    pub fn group_members(&self, group: GroupId) -> &[AgentId] {
        &self.shared.groups[group.index()].members
    }

    /// The region-0 simulation RNG. A partitioned world runs one
    /// independent stream per region; out-of-band draws (topology
    /// construction, test scaffolding, scenario dynamics) use region 0's.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.shard.regions[0].rng
    }

    /// The merged digest of every packet event processed so far: the
    /// per-region digests folded in region order. For a single-region
    /// world this is exactly that region's digest. The fold order — and
    /// every lane in it — depends only on the topology, the seed and θ.
    pub fn trace_digest(&self) -> TraceDigest {
        if let [only] = &self.shard.regions[..] {
            return only.digest.clone();
        }
        let mut merged = TraceDigest::new();
        for region in &self.shard.regions {
            merged.absorb(&region.digest);
        }
        merged
    }

    /// Number of regions (components of the θ-partition; 1 until
    /// [`Engine::partition`]).
    pub fn region_count(&self) -> usize {
        self.shard.regions.len()
    }

    /// The packet arena (diagnostics: live packet population, peak
    /// capacity).
    pub fn arena(&self) -> &PacketArena {
        &self.shard.arena
    }
}

/// The handle an agent uses to act on the world from inside a callback.
/// It sees the shared topology and the mutable shard.
pub struct Context<'w> {
    shared: &'w Shared,
    shard: &'w mut DomainShard,
    /// The agent being called.
    pub agent: AgentId,
}

impl<'w> Context<'w> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.shard.now
    }

    /// The simulation RNG (the *only* randomness source agents may use);
    /// this agent's region stream.
    pub fn rng(&mut self) -> &mut StdRng {
        let r = self.shard.agent_meta[self.agent.index()].region as usize;
        &mut self.shard.regions[r].rng
    }

    /// Send a packet. It enters the network at this agent's node, after the
    /// agent's configured random processing overhead (if any). Returns the
    /// packet uid.
    pub fn send(&mut self, dest: Dest, size_bytes: u32, segment: Segment) -> u64 {
        let meta = &self.shard.agent_meta[self.agent.index()];
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
        let meta = &mut self.shard.agent_meta[self.agent.index()];
        let at = (self.shard.now + delay).max(meta.last_injection);
        meta.last_injection = at;
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

/// The event loop's borrows: the shard being advanced, the shared
/// topology, the agents and the tracer slot.
struct DomainRun<'a> {
    shared: &'a Shared,
    shard: &'a mut DomainShard,
    agents: &'a mut [Box<dyn Agent>],
    tracer: Option<&'a Rc<RefCell<dyn Tracer>>>,
    /// The kinds `tracer` is called for: each event site tests its bit.
    traced: TraceKinds,
}

impl<'a> DomainRun<'a> {
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

    /// Run a partitioned world to `deadline` epoch by epoch on the θ-grid:
    /// each step stamps the calendar with the index of the barrier it
    /// runs to, the high bits of every key assigned in it. The barriers
    /// are absolute, so a `run_until` stopping mid-epoch resumes in the
    /// same epoch and stepping never moves a key. With `loads`, one row
    /// per epoch records the events it processed.
    fn run_epochs(&mut self, deadline: SimTime, mut loads: Option<&mut Vec<Vec<u64>>>) {
        let lookahead = self.shared.regions.lookahead();
        debug_assert!(!lookahead.is_zero(), "partitioned world without lookahead");
        let mut t = self.shard.now;
        while t < deadline {
            let barrier = grid_next(t, lookahead);
            let target = barrier.min(deadline);
            self.shard
                .calendar
                .set_epoch(barrier.as_nanos() / lookahead.as_nanos());
            let before = loads.is_some().then(|| self.shard.events());
            self.run_until(target);
            if let (Some(loads), Some(before)) = (loads.as_deref_mut(), before) {
                loads.push(vec![self.shard.events() - before]);
            }
            t = target;
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
                let mut ctx = Context {
                    shared: self.shared,
                    shard: &mut *self.shard,
                    agent,
                };
                self.agents[agent.index()].on_timer(token, &mut ctx);
            }
            EventKind::Start { agent } => {
                self.shard.counts.start += 1;
                let mut ctx = Context {
                    shared: self.shared,
                    shard: &mut *self.shard,
                    agent,
                };
                self.agents[agent.index()].on_start(&mut ctx);
            }
        }
    }

    /// Inject the packet behind `handle` at `channel`: fault-check, then
    /// transmit immediately if the transmitter is idle, otherwise enqueue.
    /// On any drop the arena slot is freed here.
    fn offer(&mut self, channel: ChannelId, handle: PacketHandle) {
        let li = channel.index();
        let shard = &mut *self.shard;
        let region = shard.chan_region[li] as usize;
        let now = shard.now;
        let (uid, is_data) = {
            let p = shard.arena.get(handle);
            (p.uid, p.segment.is_data())
        };
        let ch = &mut shard.channels[li];
        ch.stats.offered += 1;

        if let Some(fault) = ch.fault.as_mut() {
            if fault.should_drop(is_data, &mut shard.regions[region].rng) {
                ch.stats.record_drop(crate::queue::DropReason::Fault);
                let qlen = ch.queue.len();
                shard.regions[region].digest.record_drop(
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
            match ch
                .queue
                .enqueue(handle, now, &mut shard.regions[region].rng)
            {
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
                    shard.regions[region]
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
                    shard.regions[region]
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
    /// which the transmission ends, the source region, the channel. The
    /// completion is then filed only if a packet is already waiting behind
    /// this one; `offer` files it later if one turns up.
    fn start_tx(&mut self, channel: ChannelId, handle: PacketHandle) {
        let li = channel.index();
        let shard = &mut *self.shard;
        let region = shard.chan_region[li] as usize;
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
        shard.regions[region]
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
            let kind = EventKind::Arrive {
                node: ch.to,
                packet: handle,
            };
            let key = boundary_key(end_epoch, lane);
            shard
                .calendar
                .schedule_keyed(end + ch.prop_delay, key, kind);
        }
    }

    /// The transmitter on `channel` finished serializing its packet: on an
    /// intra-region hop the packet starts propagating; either way the next
    /// one, if any, leaves the buffer.
    fn complete_tx(&mut self, channel: ChannelId) {
        let li = channel.index();
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
        let region = self.shared.regions.domain_of(node) as usize;
        self.shard.regions[region]
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
                let target_node = self.shard.agent_meta[agent.index()].node;
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
        let region = self.shard.agent_meta[agent.index()].region as usize;
        self.shard.regions[region]
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
        };
        self.agents[agent.index()].on_packet(packet, &mut ctx);
    }
}

/// The simulator: a world plus the transport agents living in it, indexed
/// by [`AgentId`].
pub struct Engine {
    world: World,
    agents: Vec<Box<dyn Agent>>,
}

impl Engine {
    /// A fresh, empty world with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        Engine {
            world: World::new(seed),
            agents: Vec::new(),
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
    /// trace back after the run. Callbacks arrive in simulated-time order
    /// (see [`Tracer`]), partitioned or not: there is one calendar. The
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
    // Region partitioning
    // ------------------------------------------------------------------

    /// Partition the topology into conservative-lookahead regions along
    /// links whose propagation delay is at least `theta` (default: the
    /// smallest positive link delay — the finest partition the delays
    /// admit; see [`DomainMap::partition`]). Returns the region count.
    ///
    /// Each region gets an RNG stream derived from the base seed and its
    /// own uid tag; existing channels and agents are re-homed to their
    /// regions. The partition — and with it every digest the engine will
    /// produce — is a pure function of the topology, the seed and θ.
    ///
    /// # Panics
    /// If events are already scheduled or packets in flight (partition
    /// the world before starting agents), if the engine is already
    /// partitioned, or if a cross-region channel does not fit the
    /// calendar key (see [`boundary_lane`]).
    pub fn partition(&mut self, theta: Option<SimDuration>) -> usize {
        let World { shared, shard, .. } = &mut self.world;
        assert!(
            !shared.regions.is_partitioned(),
            "the engine is already partitioned"
        );
        assert!(
            shard.calendar.is_empty() && shard.arena.is_empty() && shard.now == SimTime::ZERO,
            "partition the world before scheduling events or running"
        );
        let links: Vec<(NodeId, NodeId, SimDuration)> = shard
            .channels
            .iter()
            .map(|ch| (ch.from, ch.to, ch.prop_delay))
            .collect();
        let regions = DomainMap::partition(shared.nodes.len(), &links, theta);
        if !regions.is_partitioned() {
            return 1;
        }
        shard.regions = (0..regions.domains() as u32)
            .map(|r| RegionStream::derived(shared.seed, r))
            .collect();
        for (i, ch) in shard.channels.iter().enumerate() {
            (shard.chan_region[i], shard.chan_lane[i]) = channel_lane(&regions, ch);
        }
        for meta in &mut shard.agent_meta {
            meta.region = regions.domain_of(meta.node);
        }
        shared.regions = regions;
        shard.regions.len()
    }

    /// Inert: [`Engine::partition`] under the name that also coalesced
    /// regions into `target` execution domains by `costs`. There is one
    /// execution domain, so both are ignored and the result is always 1.
    /// Only `benchmark/` calls it; ROADMAP item 4(b) deletes it.
    pub fn partition_merged(
        &mut self,
        theta: Option<SimDuration>,
        target: usize,
        _costs: Option<&[u64]>,
    ) -> usize {
        assert!(target >= 1, "at least one execution domain is required");
        self.partition(theta);
        1
    }

    /// Inert: the engine runs on the calling thread whatever this says.
    /// Only `benchmark/` calls it; ROADMAP item 4(b) deletes it.
    pub fn set_workers(&mut self, _workers: usize) {}

    /// Inert: always 1, the one execution domain. Only `benchmark/` calls
    /// it; ROADMAP item 4(b) deletes it.
    pub fn domain_count(&self) -> usize {
        1
    }

    /// Arm (or disarm) per-epoch load recording: one row per θ-grid epoch
    /// of a partitioned run, one domain wide, holding the events the epoch
    /// processed. Only `benchmark/` reads it; ROADMAP item 4(b) deletes it.
    pub fn record_epoch_loads(&mut self, on: bool) {
        self.world.epoch_loads = on.then(Vec::new);
    }

    /// The recorded per-epoch event counts (see
    /// [`Engine::record_epoch_loads`]).
    pub fn epoch_loads(&self) -> Option<&[Vec<u64>]> {
        self.world.epoch_loads.as_deref()
    }

    /// Number of regions (components of the θ-partition).
    pub fn region_count(&self) -> usize {
        self.world.region_count()
    }

    // ------------------------------------------------------------------
    // Topology construction
    // ------------------------------------------------------------------

    /// Add a node. After [`Engine::partition`] a new node forms its own
    /// fresh region (it has no links yet; links attached later are checked
    /// against the lookahead).
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        let World { shared, shard, .. } = &mut self.world;
        let id = NodeId::from(shared.nodes.len());
        shared.nodes.push(Node::new(id, name));
        if shared.regions.is_partitioned() {
            let r = shared.regions.push_isolated_node();
            shard.regions.push(RegionStream::derived(shared.seed, r));
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
        let World { shared, shard, .. } = &mut self.world;
        let regions = &shared.regions;
        if regions.is_partitioned() && regions.domain_of(from) != regions.domain_of(to) {
            // The epoch grid is the lookahead θ, so every cross-region
            // channel must clear it.
            assert!(
                prop_delay >= regions.lookahead(),
                "cross-region channel faster than the lookahead breaks the epoch contract"
            );
        }
        let id = ChannelId::from(shard.channels.len());
        let ch = Channel::new(id, from, to, bandwidth_bps, prop_delay, queue_cfg);
        let (region, lane) = channel_lane(regions, &ch);
        shard.chan_region.push(region);
        shard.chan_lane.push(lane);
        shard.channels.push(ch);
        shared.nodes[from.index()].out_channels.push(id);
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
        let id = AgentId::from(self.agents.len());
        self.agents.push(agent);
        self.world.shard.agent_meta.push(AgentMeta {
            node,
            region: self.world.shared.regions.domain_of(node),
            send_overhead: SimDuration::ZERO,
            last_injection: SimTime::ZERO,
        });
        id
    }

    /// Configure the agent's uniform random per-packet send overhead
    /// (phase-effect elimination; see §3.1 of the paper). `max` should be
    /// the bottleneck service time of the agent's data packets.
    pub fn set_send_overhead(&mut self, agent: AgentId, max: SimDuration) {
        self.world.shard.agent_meta[agent.index()].send_overhead = max;
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
            let target = self.world.agent_node(member);
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
        self.world
            .shard
            .calendar
            .schedule(at, EventKind::Start { agent });
    }

    /// Run until `deadline`; the clock ends at exactly `deadline`.
    ///
    /// An unpartitioned engine runs the classic single event loop. A
    /// partitioned engine runs the same loop epoch by epoch on the θ-grid,
    /// then settles every transmission that ended by `deadline` without a
    /// completion event, so whoever reads the world between runs —
    /// registry snapshots, the timeline sampler, `utilization(now)` —
    /// sees it as ended.
    ///
    /// # Panics
    /// If a partitioned run's deadline lies past the last θ-grid epoch
    /// the calendar key can tell apart.
    pub fn run_until(&mut self, deadline: SimTime) {
        let World {
            shared,
            shard,
            tracer,
            traced,
            epoch_loads,
        } = &mut self.world;
        let mut run = DomainRun {
            shared,
            shard,
            agents: &mut self.agents,
            tracer: tracer.as_ref(),
            traced: *traced,
        };
        if !shared.regions.is_partitioned() {
            // One region: no epochs, and every completion is filed.
            run.run_until(deadline);
            return;
        }
        // Every epoch up to the deadline must fit the key's epoch bits:
        // refuse the run here, not at the offending barrier hours into it.
        let theta = shared.regions.lookahead().as_nanos();
        assert!(
            deadline.as_nanos().div_ceil(theta) < MAX_EPOCHS,
            "run_until({:.3} s) is past the partitioned engine's limit of {:.3} simulated \
             seconds: 2^28 θ-grid epochs at lookahead θ = {theta} ns",
            deadline.as_secs_f64(),
            ((MAX_EPOCHS - 1) * theta) as f64 / 1e9,
        );
        run.run_epochs(deadline, epoch_loads.as_mut());
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

    // ------------------------------------------------------------------
    // Inspection
    // ------------------------------------------------------------------

    /// Downcast an agent to its concrete type for post-run inspection.
    pub fn agent_as<T: 'static>(&self, id: AgentId) -> Option<&T> {
        self.agents[id.index()].as_any().downcast_ref::<T>()
    }

    /// Mutable downcast.
    pub fn agent_as_mut<T: 'static>(&mut self, id: AgentId) -> Option<&mut T> {
        self.agents[id.index()].as_any_mut().downcast_mut::<T>()
    }

    /// Calendar events dispatched so far, by kind, and transmission
    /// completions settled without one.
    pub fn event_counts(&self) -> EventCounts {
        self.world.shard.counts
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
    // Region-partitioned execution
    // ------------------------------------------------------------------

    /// A chain a -(1ms)- m -(10ms)- b with traffic in both directions and
    /// a multicast group fanning out from a. Partitioning at θ=5ms cuts
    /// the 10ms link: {a, m} and {b} become two regions with L = 10ms.
    fn partitioned_chain(seed: u64) -> (Engine, AgentId, AgentId) {
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
        let (mut e, sink_a, sink_b) = partitioned_chain(7);
        e.run_until(SimTime::from_secs(2));
        let sb: &Sink = e.agent_as(sink_b).unwrap();
        let sa: &Sink = e.agent_as(sink_a).unwrap();
        // Both blasts overflow their drop-tail exits (limit 8, plus one in
        // service); what survives the first hop crosses the cut link and
        // must be conserved end to end — no packet may vanish at a region
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
        assert_eq!(w.arena().len(), 0);
    }

    #[test]
    fn digest_is_identical_under_stepping() {
        let (mut e, _, _) = partitioned_chain(11);
        e.run_until(SimTime::from_secs(2));
        let baseline = e.trace_digest();
        assert!(baseline.events() > 0);
        // Mid-epoch stepping must not move the epoch barriers: pause at an
        // off-grid instant (L = 10ms; 7ms is mid-epoch) and resume.
        let (mut e, _, _) = partitioned_chain(11);
        e.run_until(SimTime::from_millis(7));
        e.run_until(SimTime::from_millis(13));
        e.run_until(SimTime::from_secs(2));
        assert_eq!(baseline, e.trace_digest(), "stepping changed the digest");
        // Deadlines landing exactly on grid barriers are the epoch loop's
        // edge case: the final epoch must run exactly once.
        let (mut e, _, _) = partitioned_chain(11);
        e.run_until(SimTime::from_millis(10));
        e.run_until(SimTime::from_millis(20));
        e.run_until(SimTime::from_secs(2));
        assert_eq!(
            baseline,
            e.trace_digest(),
            "on-barrier stepping changed the digest"
        );
    }

    #[test]
    fn the_shard_count_surface_is_inert() {
        let run = |stubs: &dyn Fn(&mut Engine)| {
            let (mut e, _, _) = partitioned_chain(11);
            stubs(&mut e);
            assert_eq!(e.domain_count(), 1);
            assert_eq!(e.region_count(), 2);
            e.run_until(SimTime::from_secs(2));
            e.trace_digest()
        };
        let baseline = run(&|_| {});
        assert_eq!(baseline, run(&|e| e.set_workers(4)), "set_workers moved it");
        // `partition_merged` is `partition` whatever its target and costs.
        let merged = |target: usize, costs: Option<&[u64]>| {
            let mut e = Engine::new(1);
            let a = e.add_node("a");
            let b = e.add_node("b");
            let q = QueueConfig::paper_droptail();
            e.add_link(a, b, 8_000_000, SimDuration::from_millis(10), &q);
            assert_eq!(e.partition_merged(None, target, costs), 1);
            (e.domain_count(), e.region_count())
        };
        assert_eq!(merged(1, None), (1, 2));
        assert_eq!(merged(2, Some(&[5, 40])), (1, 2));
    }

    #[test]
    fn partitioned_multicast_spans_domains() {
        // root -(10ms)- hub, hub -(10ms)- l0/l1: four regions; the group
        // tree replicates at hub across two region crossings.
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
        assert_eq!(e.world().arena().len(), 0, "packets leaked");
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

    /// A digest of the callbacks it gets that counts every step back in
    /// time.
    #[derive(Default)]
    struct InOrder {
        last: SimTime,
        backwards: u64,
        seen: TraceDigest,
    }

    impl Tracer for InOrder {
        fn trace(&mut self, now: SimTime, event: &TraceEvent<'_>) {
            self.backwards += u64::from(now < self.last);
            self.last = now;
            self.seen.trace(now, event);
        }
    }

    #[test]
    fn a_tracer_on_a_partitioned_engine_sees_every_event_in_time_order() {
        // Two regions with traffic crossing the cut both ways: one
        // calendar, so the slot's time-order promise holds partitioned.
        let (mut bare, _, _) = partitioned_chain(7);
        bare.run_until(SimTime::from_secs(2));
        let (mut e, _, _) = partitioned_chain(7);
        let log = Rc::new(RefCell::new(InOrder::default()));
        e.set_tracer(log.clone());
        e.run_until(SimTime::from_secs(2));
        let log = log.borrow();
        assert_eq!(log.backwards, 0, "a callback went back in time");
        let d = e.trace_digest();
        let counters =
            |d: &TraceDigest| [d.enqueues, d.drops, d.tx_starts, d.arrivals, d.deliveries];
        assert!(d.drops > 0 && d.deliveries > 0, "{:?}", counters(&d));
        assert_eq!(counters(&log.seen), counters(&d));
        assert_eq!(d, bare.trace_digest(), "the tracer moved the digest");
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
            let (mut e, _, _) = lazy_chain(&QueueConfig::paper_droptail(), false, vec![], bursts);
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
    fn set_eager(e: &mut Engine) {
        e.world.shard.eager = true;
    }

    /// A chain c -(10ms)- a -(10ms)- b at 8 Mb/s (1000 B = 1 ms), every
    /// node its own region; `src_c` and `src_a` script traffic from c and
    /// from a to a sink on b. Returns the engine, the a→b channel and the
    /// sink.
    fn lazy_chain(
        queue: &QueueConfig,
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
        assert_eq!(e.partition(None), 3);
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
        (e.trace_digest(), channels, w.arena().len())
    }

    #[test]
    fn a_start_from_a_completion_with_packets_still_buffered_files_at_once() {
        // Five packets at once: the first transmission goes lazy, the
        // second offer files its completion, and each completion that
        // dequeues with packets still behind must file the next one on
        // the spot — going lazy there strands the buffer for good.
        let (mut e, ab, sink) = lazy_chain(
            &QueueConfig::paper_droptail(),
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
            let (mut e, ab, _) = lazy_chain(&QueueConfig::paper_droptail(), eager, src_c, src_a);
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
            let (mut e, ab, _) = lazy_chain(&red, eager, vec![], bursts);
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
                lazy_chain(&QueueConfig::paper_droptail(), eager, vec![], bursts);
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
        wide_chain(crate::event::MAX_REGIONS + 1).partition(None);
    }

    /// One randomly drawn world for the differential property: a random
    /// tree (chains and stars included) with mixed link delays, rates,
    /// drop-tail and RED buffers and fault injectors, partitioned at a
    /// drawn θ so that some hops stay inside a region; unicast scripts and
    /// one multicast group, bursts on a 250 µs grid so that arrivals,
    /// completions and deadlines keep landing on the same instants.
    fn random_world(draws: &[u64], eager: bool) -> Engine {
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
        e.partition(theta);
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
        /// degrade dropped in at one of them.
        #[test]
        fn lazy_completions_match_the_eager_model(
            draws in proptest::collection::vec(proptest::prelude::any::<u64>(), 24..48),
            stops in proptest::collection::vec((0u64..120, 0u64..4), 1..10),
            degrade_at in 0usize..10,
        ) {
            let mut worlds = [random_world(&draws, true), random_world(&draws, false)];
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
                proptest::prop_assert_eq!(model, observable(&worlds[1]), "at {} ns", stop);
            }
            let (lazy, eager) = (worlds[1].event_counts(), worlds[0].event_counts());
            proptest::prop_assert_eq!(eager.settled, 0);
            proptest::prop_assert_eq!(lazy.tx_complete + lazy.settled, eager.tx_complete);
        }
    }

    #[test]
    fn epoch_loads_cover_every_domain() {
        let (mut e, _, _) = partitioned_chain(5);
        e.record_epoch_loads(true);
        e.run_until(SimTime::from_millis(100));
        let loads = e.epoch_loads().expect("recording was armed");
        // L = 10ms over a 100ms run: ten epochs, one domain each.
        assert_eq!(loads.len(), 10);
        assert!(loads.iter().all(|row| row.len() == 1));
        let total: u64 = loads.iter().flatten().sum();
        assert_eq!(total, e.trace_digest().events());
    }
}
