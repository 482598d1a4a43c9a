//! The simulation engine: world state, event dispatch, agent context.
//!
//! Ownership layout: the [`Engine`] owns one [`World`] — topology, groups,
//! the region partition, the calendar, channels, the packet arena, the
//! region streams and counters — and, in a *separate field*, the boxed
//! [`Agent`]s. Agent callbacks receive a [`Context`] borrowing the world,
//! so an agent can schedule sends and timers while the engine still holds
//! `&mut` to the agent itself — no `RefCell`, no unsafe.
//!
//! The module is split by job: this file builds the world (nodes, links,
//! agents, groups, routes, the partition) and inspects it; `dispatch.rs`
//! holds the run loop, what it does with each event and the [`Context`]
//! agents act through; `tests.rs` and `differential.rs` test them.
//!
//! # Execution
//!
//! There is one calendar, run on the calling thread by one loop,
//! [`Engine::run_until`], which pops every event due by the deadline.
//! Until [`Engine::partition`] the world is a single region. The partition
//! freezes the topology and splits it into *regions* along links at least
//! θ slow, all read through one type, `region::Regions`: each region owns
//! an RNG stream, a packet-uid tag and a digest lane, and a cross-region
//! arrival is keyed by *(epoch of the transmission's end, source region,
//! channel)*, the epochs lying on the absolute θ-grid. The loop moves the
//! calendar to the next epoch when an event's instant passes the current
//! one's end. Digests are identical under any `run_until` stepping,
//! because the regions, their streams and the keys depend only on the
//! topology, the seed and θ.
//!
//! Determinism: per-region seeded RNGs, integer time, and FIFO
//! tie-breaking in the calendar make runs bit-reproducible for a given
//! seed.
//!
//! Hot path: packets live in a [`PacketArena`] and move through the
//! calendar, queues and multicast fan-out as copyable
//! [`PacketHandle`](crate::arena::PacketHandle)s; the packet struct itself
//! is only touched at injection, at trace points and at delivery. The
//! calendar is a sliding ring of slots with an overflow heap
//! ([`Calendar`]), driven through `pop_before(deadline)`.
//!
//! A link hop costs one calendar event, not two: the downstream arrival is
//! filed when the transmission *starts* (its instant is known then) —
//! under a key reserved there on an intra-region hop, under its boundary
//! key on a cross-region one — and the completion is filed only when a
//! packet is waiting behind it; otherwise the channel just remembers when
//! it falls idle ([`InService`](crate::link::InService)) and the
//! bookkeeping is *settled* by the next offer, or on the way out of
//! [`Engine::run_until`]. [`Engine::event_counts`] says how many
//! completions each run saved.

use std::cell::RefCell;
use std::rc::Rc;

use crate::agent::Agent;
use crate::arena::PacketArena;
use crate::event::{Calendar, EventKind};
use crate::fault::FaultInjector;
use crate::id::{AgentId, ChannelId, GroupId, NodeId};
use crate::link::Channel;
use crate::node::{Group, Node};
use crate::queue::QueueConfig;
use crate::region::Regions;
use crate::time::{SimDuration, SimTime};
use crate::trace::{TraceDigest, TraceKinds, Tracer};

mod dispatch;
pub use dispatch::Context;
use dispatch::Dispatch;

#[cfg(test)]
mod differential;
#[cfg(test)]
mod tests;

/// The rule `add_node` and `add_channel` enforce.
const FROZEN: &str =
    "the topology freezes at Engine::partition: add every node and channel before partitioning";

/// Per-agent engine-side metadata.
#[derive(Debug)]
struct AgentMeta {
    /// The node the agent is attached to.
    node: NodeId,
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

/// Everything in the simulated world except the agents' protocol state:
/// the topology, its region partition, and everything a run mutates.
/// Channels, agents and regions are indexed by their ids.
pub struct World {
    now: SimTime,
    calendar: Calendar,
    nodes: Vec<Node>,
    groups: Vec<Group>,
    channels: Vec<Channel>,
    agent_meta: Vec<AgentMeta>,
    /// The θ-partition's regions: their streams, the arrival keys and the
    /// epoch.
    regions: Regions,
    /// Set by [`Engine::partition`], which freezes the topology.
    partitioned: bool,
    /// Every in-flight packet's single home; events and queues hold
    /// handles into it.
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
    tracer: Option<Rc<RefCell<dyn Tracer>>>,
    /// What the installed tracer declared it listens to ([`Tracer::wants`],
    /// read by `set_tracer`); empty while the slot is.
    traced: TraceKinds,
    /// When armed, each run appends one row: the events it processed,
    /// read back through [`Engine::epoch_loads`].
    epoch_loads: Option<Vec<Vec<u64>>>,
}

impl World {
    fn new(seed: u64) -> Self {
        World {
            now: SimTime::ZERO,
            calendar: Calendar::new(),
            nodes: Vec::new(),
            groups: Vec::new(),
            channels: Vec::new(),
            agent_meta: Vec::new(),
            regions: Regions::new(seed),
            partitioned: false,
            arena: PacketArena::new(),
            cur_key: 0,
            counts: EventCounts::default(),
            #[cfg(test)]
            eager: false,
            fwd_scratch: Vec::new(),
            member_scratch: Vec::new(),
            tracer: None,
            traced: TraceKinds::NONE,
            epoch_loads: None,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Immutable channel access.
    pub fn channel(&self, id: ChannelId) -> &Channel {
        &self.channels[id.index()]
    }

    /// Mutable channel access (configure faults, inspect queues).
    pub fn channel_mut(&mut self, id: ChannelId) -> &mut Channel {
        &mut self.channels[id.index()]
    }

    /// Immutable node access.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of channels.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// The node an agent is attached to.
    pub fn agent_node(&self, agent: AgentId) -> NodeId {
        self.agent_meta[agent.index()].node
    }

    /// The members of a group.
    pub fn group_members(&self, group: GroupId) -> &[AgentId] {
        &self.groups[group.index()].members
    }

    /// The merged digest of every packet event processed so far: the
    /// per-region digests folded in region order. For a single-region
    /// world this is exactly that region's digest. The fold order — and
    /// every lane in it — depends only on the topology, the seed and θ.
    pub fn trace_digest(&self) -> TraceDigest {
        self.regions.digest()
    }

    /// Number of regions (components of the θ-partition; 1 until
    /// [`Engine::partition`]).
    pub fn region_count(&self) -> usize {
        self.regions.count()
    }

    /// The packet arena (diagnostics: live packet population, peak
    /// capacity).
    pub fn arena(&self) -> &PacketArena {
        &self.arena
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

    /// Freeze the topology and partition it into conservative-lookahead
    /// regions along links whose propagation delay is at least `theta`
    /// (default: the smallest positive link delay — the finest partition
    /// the delays admit). Returns the region count.
    ///
    /// Each region gets an RNG stream derived from the base seed and its
    /// own uid tag; existing channels and agents are re-homed to their
    /// regions (an agent's is its node's). The partition — and with it
    /// every digest the engine will produce — is a pure function of the
    /// topology, the seed and θ.
    ///
    /// # Panics
    /// If events are already scheduled or packets in flight (partition
    /// the world before starting agents), if the engine is already
    /// partitioned, or if a cross-region channel does not fit the
    /// calendar key (see [`boundary_lane`](crate::event::boundary_lane)).
    pub fn partition(&mut self, theta: Option<SimDuration>) -> usize {
        let w = &mut self.world;
        assert!(!w.partitioned, "the engine is already partitioned");
        assert!(
            w.calendar.is_empty() && w.arena.is_empty() && w.now == SimTime::ZERO,
            "partition the world before scheduling events or running"
        );
        w.partitioned = true;
        w.regions.partition(w.nodes.len(), &w.channels, theta)
    }

    /// Inert: [`Engine::partition`] under the name that also coalesced
    /// regions into `target` execution domains by `costs`. There is one
    /// execution domain, so both are ignored and the result is always 1.
    /// Only `benchmark/` calls it; ROADMAP item 9 deletes it.
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
    /// Only `benchmark/` calls it; ROADMAP item 9 deletes it.
    pub fn set_workers(&mut self, _workers: usize) {}

    /// Inert: always 1, the one execution domain. Only `benchmark/` calls
    /// it; ROADMAP item 9 deletes it.
    pub fn domain_count(&self) -> usize {
        1
    }

    /// Arm (or disarm) load recording: one row per `run_until` call, one
    /// domain wide, holding the events the call processed — the run loop
    /// has no per-epoch step to record. Only `benchmark/` reads it;
    /// ROADMAP item 9 deletes it.
    pub fn record_epoch_loads(&mut self, on: bool) {
        self.world.epoch_loads = on.then(Vec::new);
    }

    /// The recorded per-call event counts (see
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

    /// Add a node.
    ///
    /// # Panics
    /// After [`Engine::partition`]: the topology freezes there.
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        let w = &mut self.world;
        assert!(!w.partitioned, "{FROZEN}");
        let id = NodeId::from(w.nodes.len());
        w.nodes.push(Node::new(id, name));
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
    ///
    /// # Panics
    /// On a self-loop, and after [`Engine::partition`]: the topology
    /// freezes there.
    pub fn add_channel(
        &mut self,
        from: NodeId,
        to: NodeId,
        bandwidth_bps: u64,
        prop_delay: SimDuration,
        queue_cfg: &QueueConfig,
    ) -> ChannelId {
        assert!(from != to, "self-loop channels are not allowed");
        let w = &mut self.world;
        assert!(!w.partitioned, "{FROZEN}");
        let id = ChannelId::from(w.channels.len());
        let ch = Channel::new(id, from, to, bandwidth_bps, prop_delay, queue_cfg);
        w.channels.push(ch);
        w.regions.add_channel();
        w.nodes[from.index()].out_channels.push(id);
        id
    }

    /// Attach a fault injector to a channel.
    pub fn set_fault(&mut self, channel: ChannelId, fault: FaultInjector) {
        self.world.channel_mut(channel).fault = Some(fault);
    }

    /// Attach an agent to `node`. The agent does nothing until
    /// [`Engine::start_agent_at`] schedules its start event.
    pub fn add_agent(&mut self, node: NodeId, agent: Box<dyn Agent>) -> AgentId {
        assert!(node.index() < self.world.nodes.len(), "unknown node");
        let id = AgentId::from(self.agents.len());
        self.agents.push(agent);
        self.world.agent_meta.push(AgentMeta {
            node,
            send_overhead: SimDuration::ZERO,
            last_injection: SimTime::ZERO,
        });
        id
    }

    /// Configure the agent's uniform random per-packet send overhead
    /// (phase-effect elimination; see §3.1 of the paper). `max` should be
    /// the bottleneck service time of the agent's data packets.
    pub fn set_send_overhead(&mut self, agent: AgentId, max: SimDuration) {
        self.world.agent_meta[agent.index()].send_overhead = max;
    }

    /// Create a multicast group.
    pub fn new_group(&mut self) -> GroupId {
        let id = GroupId::from(self.world.groups.len());
        self.world.groups.push(Group::default());
        id
    }

    /// Add `agent` to `group`'s receiver set.
    pub fn join_group(&mut self, group: GroupId, agent: AgentId) {
        let g = &mut self.world.groups[group.index()];
        if !g.members.contains(&agent) {
            g.members.push(agent);
        }
    }

    /// Remove `agent` from `group`'s receiver set; returns `false` when it
    /// was not a member. The distribution tree is untouched — call
    /// [`Engine::build_group_tree`] afterwards so in-flight multicast stops
    /// fanning out to pruned branches.
    pub fn leave_group(&mut self, group: GroupId, agent: AgentId) -> bool {
        let g = &mut self.world.groups[group.index()];
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
        let n = self.world.nodes.len();
        // Adjacency: (neighbor, channel) per node.
        let adj: Vec<Vec<(NodeId, ChannelId)>> = self
            .world
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
            self.world.nodes[src].routes = first_hop;
        }
    }

    /// Build the source-based distribution tree for `group`, rooted at the
    /// node of `root_agent`. Requires routes (call [`Engine::compute_routes`]
    /// first) and the full member list.
    pub fn build_group_tree(&mut self, group: GroupId, root: NodeId) {
        let n = self.world.nodes.len();
        let members = self.world.groups[group.index()].members.clone();
        let mut forward: Vec<Vec<ChannelId>> = vec![Vec::new(); n];
        let mut members_at: Vec<Vec<AgentId>> = vec![Vec::new(); n];

        for &member in &members {
            let target = self.world.agent_node(member);
            members_at[target.index()].push(member);
            let mut cur = root;
            let mut hops = 0;
            while cur != target {
                let ch = self.world.nodes[cur.index()]
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

        let g = &mut self.world.groups[group.index()];
        g.root = Some(root);
        g.forward = forward;
        g.members_at = members_at;
    }

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    /// Schedule `agent`'s `on_start` at time `at`.
    pub fn start_agent_at(&mut self, agent: AgentId, at: SimTime) {
        self.world.calendar.schedule(at, EventKind::Start { agent });
    }

    /// Run until `deadline`; the clock ends at exactly `deadline`.
    ///
    /// The event loop pops every event due by the deadline, partitioned
    /// or not, then settles every transmission that ended by `deadline`
    /// without a completion event, so whoever reads the world between
    /// runs — registry snapshots, the timeline sampler, `utilization(now)`
    /// — sees it as ended.
    ///
    /// # Panics
    /// If a partitioned run's deadline lies past the last θ-grid epoch
    /// the calendar key can tell apart.
    pub fn run_until(&mut self, deadline: SimTime) {
        Dispatch {
            world: &mut self.world,
            agents: &mut self.agents,
        }
        .run_until(deadline);
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
        self.world.counts
    }
}
