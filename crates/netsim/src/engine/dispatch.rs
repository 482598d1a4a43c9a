//! The run loop and what it does with each event: offer a packet to a
//! channel, start and complete transmissions, arrive at a node, deliver
//! to an agent — and the [`Context`] agents act through while it runs.

use rand::rngs::StdRng;
use rand::Rng;

use super::World;
use crate::agent::Agent;
use crate::arena::PacketHandle;
use crate::event::{boundary_key, EventKind, MAX_EPOCHS};
use crate::id::{AgentId, ChannelId, GroupId, NodeId};
use crate::link::InService;
use crate::packet::{Dest, Packet};
use crate::queue::{DropReason, Enqueue};
use crate::region::grid_next;
use crate::time::{SimDuration, SimTime};
use crate::trace::{TraceEvent, TraceKinds};
use crate::wire::Segment;

/// The handle an agent uses to act on the world from inside a callback.
pub struct Context<'w> {
    world: &'w mut World,
    /// The agent being called.
    pub agent: AgentId,
}

impl<'w> Context<'w> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.world.now
    }

    /// The simulation RNG (the *only* randomness source agents may use);
    /// this agent's region stream.
    pub fn rng(&mut self) -> &mut StdRng {
        let r = self.world.agent_meta[self.agent.index()].region as usize;
        &mut self.world.streams[r].rng
    }

    /// Send a packet. It enters the network at this agent's node, after the
    /// agent's configured random processing overhead (if any). Returns the
    /// packet uid.
    pub fn send(&mut self, dest: Dest, size_bytes: u32, segment: Segment) -> u64 {
        let w = &mut *self.world;
        let meta = &mut w.agent_meta[self.agent.index()];
        let stream = &mut w.streams[meta.region as usize];
        let uid = stream.alloc_uid();
        let delay = if meta.send_overhead.is_zero() {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(stream.rng.gen_range(0..=meta.send_overhead.as_nanos()))
        };
        // Order-preserving jitter: never inject before a previously sent
        // packet of the same agent.
        let at = (w.now + delay).max(meta.last_injection);
        meta.last_injection = at;
        let packet = Packet {
            uid,
            src: self.agent,
            dest,
            size_bytes,
            segment,
            sent_at: w.now,
        };
        let kind = EventKind::Arrive {
            node: meta.node,
            packet: w.arena.insert(packet),
        };
        w.calendar.schedule(at, kind);
        uid
    }

    /// Arm a timer to fire after `delay` with the given token.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.world.calendar.schedule(
            self.world.now + delay,
            EventKind::Timer {
                agent: self.agent,
                token,
            },
        );
    }

    /// The members of a multicast group.
    pub fn group_members(&self, group: GroupId) -> &[AgentId] {
        self.world.group_members(group)
    }
}

/// The event loop's borrows: the world and, beside it, the agents.
pub(super) struct Dispatch<'a> {
    pub(super) world: &'a mut World,
    pub(super) agents: &'a mut [Box<dyn Agent>],
}

impl Dispatch<'_> {
    fn trace(&self, event: &TraceEvent<'_>) {
        if let Some(tracer) = &self.world.tracer {
            tracer.borrow_mut().trace(self.world.now, event);
        }
    }

    /// Run to `deadline`, then settle every transmission that ended by it
    /// without a completion event.
    ///
    /// A single-region world runs in one step. A partitioned one runs
    /// epoch by epoch on the θ-grid: each step stamps the calendar with
    /// the index of the barrier it runs to, the high bits of every key
    /// assigned in it. The barriers are absolute, so a `run_until`
    /// stopping mid-epoch resumes in the same epoch and stepping never
    /// moves a key. With `epoch_loads` armed, each step records the
    /// events it processed.
    pub(super) fn run_until(&mut self, deadline: SimTime) {
        let lookahead = self.world.regions.lookahead();
        let theta = lookahead.as_nanos();
        // Every epoch up to the deadline must fit the key's epoch bits:
        // refuse the run here, not at the offending barrier hours into it.
        assert!(
            theta == 0 || deadline.as_nanos().div_ceil(theta) < MAX_EPOCHS,
            "run_until({:.3} s) is past the partitioned engine's limit of {:.3} simulated \
             seconds: 2^28 θ-grid epochs at lookahead θ = {theta} ns",
            deadline.as_secs_f64(),
            ((MAX_EPOCHS - 1) * theta) as f64 / 1e9,
        );
        let mut loads = self.world.epoch_loads.take();
        loop {
            let mut target = deadline;
            if !lookahead.is_zero() {
                let barrier = grid_next(self.world.now, lookahead);
                self.world.calendar.set_epoch(barrier.as_nanos() / theta);
                target = barrier.min(deadline);
            }
            let before = loads.is_some().then(|| self.world.events());
            self.run_to(target);
            if let (Some(loads), Some(before)) = (loads.as_mut(), before) {
                loads.push(vec![self.world.events() - before]);
            }
            if target == deadline {
                break;
            }
        }
        self.world.epoch_loads = loads;
        let w = &mut *self.world;
        for ch in &mut w.channels {
            if ch
                .in_service
                .is_some_and(|tx| !tx.filed && tx.end <= deadline)
            {
                ch.settle();
                w.counts.settled += 1;
            }
        }
    }

    /// Dispatch every event due by `deadline`; the clock ends at exactly
    /// `deadline` if the calendar outlives it.
    fn run_to(&mut self, deadline: SimTime) {
        while let Some(event) = self.world.calendar.pop_before(deadline) {
            debug_assert!(event.at >= self.world.now, "time ran backwards");
            self.world.now = event.at;
            self.world.cur_key = event.key;
            self.dispatch(event.kind);
        }
        if deadline > self.world.now {
            self.world.now = deadline;
        }
    }

    fn dispatch(&mut self, kind: EventKind) {
        match kind {
            EventKind::TxComplete { channel } => {
                self.world.counts.tx_complete += 1;
                self.complete_tx(channel)
            }
            EventKind::Arrive { node, packet } => {
                self.world.counts.arrive += 1;
                self.arrive(node, packet)
            }
            EventKind::Timer { agent, token } => {
                self.world.counts.timer += 1;
                let mut ctx = Context {
                    world: &mut *self.world,
                    agent,
                };
                self.agents[agent.index()].on_timer(token, &mut ctx);
            }
            EventKind::Start { agent } => {
                self.world.counts.start += 1;
                let mut ctx = Context {
                    world: &mut *self.world,
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
        let w = &mut *self.world;
        let region = w.chan_lane[li].0 as usize;
        let now = w.now;
        let (uid, is_data) = {
            let p = w.arena.get(handle);
            (p.uid, p.segment.is_data())
        };
        let ch = &mut w.channels[li];
        ch.stats.offered += 1;

        if let Some(fault) = ch.fault.as_mut() {
            if fault.should_drop(is_data, &mut w.streams[region].rng) {
                ch.stats.record_drop(DropReason::Fault);
                let qlen = ch.queue.len();
                w.streams[region]
                    .digest
                    .record_drop(now, channel, uid, DropReason::Fault, qlen);
                if w.traced.intersects(TraceKinds::DROP) {
                    self.trace(&TraceEvent::Drop {
                        channel,
                        packet: self.world.arena.get(handle),
                        reason: DropReason::Fault,
                        qlen,
                    });
                }
                self.world.arena.remove(handle);
                return;
            }
        }

        // An unfiled completion has no event to run it: if the calendar
        // would have popped it before the event being dispatched, it
        // happens now.
        if ch
            .in_service
            .is_some_and(|tx| !tx.filed && (tx.end, tx.key) < (now, w.cur_key))
        {
            ch.settle();
            w.counts.settled += 1;
        }
        if ch.in_service.is_none() {
            debug_assert!(ch.queue.is_empty(), "idle transmitter with queued packets");
            ch.stats.accepted += 1;
            self.start_tx(channel, handle);
            return;
        }
        match ch.queue.enqueue(handle, now, &mut w.streams[region].rng) {
            Enqueue::Accepted => {
                // A packet is waiting now: the completion needs its event.
                if let Some(tx) = ch.in_service.as_mut().filter(|tx| !tx.filed) {
                    tx.filed = true;
                    let kind = EventKind::TxComplete { channel };
                    w.calendar.schedule_keyed(tx.end, tx.key, kind);
                }
                ch.stats.accepted += 1;
                let qlen = ch.queue.len();
                ch.stats.record_qlen(now, qlen);
                w.streams[region]
                    .digest
                    .record_enqueue(now, channel, uid, qlen);
                if w.traced.intersects(TraceKinds::ENQUEUE) {
                    self.trace(&TraceEvent::Enqueue {
                        channel,
                        packet: self.world.arena.get(handle),
                        qlen,
                    });
                }
            }
            Enqueue::Dropped(handle, reason) => {
                ch.stats.record_drop(reason);
                let qlen = ch.queue.len();
                w.streams[region]
                    .digest
                    .record_drop(now, channel, uid, reason, qlen);
                if w.traced.intersects(TraceKinds::DROP) {
                    self.trace(&TraceEvent::Drop {
                        channel,
                        packet: self.world.arena.get(handle),
                        reason,
                        qlen,
                    });
                }
                self.world.arena.remove(handle);
            }
        }
    }

    /// Begin transmitting the packet behind `handle` on `channel`: reserve
    /// the completion's calendar key as scheduling it would, and file the
    /// downstream arrival — its instant is known now.
    ///
    /// An intra-region arrival takes the next local key. A cross-region
    /// arrival takes a key that is a pure function of the message: the
    /// epoch in which the transmission ends, the source region, the
    /// channel. The completion is filed only if a packet is already
    /// waiting behind this one; `offer` files it later if one turns up.
    fn start_tx(&mut self, channel: ChannelId, handle: PacketHandle) {
        let li = channel.index();
        let w = &mut *self.world;
        let (region, lane) = w.chan_lane[li];
        let now = w.now;
        let (uid, size_bytes) = {
            let p = w.arena.get(handle);
            (p.uid, p.size_bytes)
        };
        let ch = &mut w.channels[li];
        debug_assert!(ch.in_service.is_none(), "transmitter already busy");
        let end = now + ch.service_time(size_bytes);
        ch.stats.record_tx_begin(now);
        let qlen = ch.queue.len();
        w.streams[region as usize]
            .digest
            .record_tx_start(now, channel, uid, qlen);
        if w.traced.intersects(TraceKinds::TX_START) {
            self.trace(&TraceEvent::TxStart {
                channel,
                packet: self.world.arena.get(handle),
                qlen,
            });
        }
        let w = &mut *self.world;
        let key = w.calendar.reserve_key();
        #[cfg(test)]
        let eager = w.eager;
        #[cfg(not(test))]
        let eager = false;
        let filed = qlen > 0 || eager;
        if filed {
            w.calendar
                .schedule_keyed(end, key, EventKind::TxComplete { channel });
        }
        let ch = &mut w.channels[li];
        ch.in_service = Some(InService {
            end,
            key,
            size_bytes,
            filed,
        });
        let arrival_key = if lane == 0 {
            w.calendar.reserve_key()
        } else {
            // The epoch whose run dispatches the instant `end`: almost
            // always the current one.
            let theta = w.regions.lookahead().as_nanos();
            let epoch = w.calendar.epoch();
            let end_epoch = if end.as_nanos() <= epoch.saturating_mul(theta) {
                epoch
            } else {
                // Past the last epoch `run_until` admits, the arrival is
                // never dispatched; keep the key well-formed anyway.
                (end.as_nanos().div_ceil(theta)).min(MAX_EPOCHS - 1)
            };
            boundary_key(end_epoch, lane)
        };
        let kind = EventKind::Arrive {
            node: ch.to,
            packet: handle,
        };
        w.calendar
            .schedule_keyed(end + ch.prop_delay, arrival_key, kind);
    }

    /// The transmitter on `channel` finished serializing its packet: the
    /// next one, if any, leaves the buffer.
    fn complete_tx(&mut self, channel: ChannelId) {
        let now = self.world.now;
        let ch = &mut self.world.channels[channel.index()];
        debug_assert!(
            ch.in_service.is_some_and(|tx| tx.filed && tx.end == now),
            "completion off its position"
        );
        if let Some(next) = ch.finish_tx() {
            let qlen = ch.queue.len();
            ch.stats.record_qlen(now, qlen);
            self.start_tx(channel, next);
        }
    }

    fn arrive(&mut self, node: NodeId, handle: PacketHandle) {
        let w = &mut *self.world;
        let (uid, dest) = {
            let p = w.arena.get(handle);
            (p.uid, p.dest)
        };
        let region = w.regions.region_of(node) as usize;
        w.streams[region].digest.record_arrive(w.now, node, uid);
        if w.traced.intersects(TraceKinds::ARRIVE) {
            self.trace(&TraceEvent::Arrive {
                node,
                packet: self.world.arena.get(handle),
            });
        }
        match dest {
            Dest::Agent(agent) => {
                let target_node = self.world.agent_node(agent);
                if target_node == node {
                    self.deliver(agent, handle);
                } else {
                    let ch = self.world.nodes[node.index()]
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
                let w = &mut *self.world;
                let mut forwards = std::mem::take(&mut w.fwd_scratch);
                let mut locals = std::mem::take(&mut w.member_scratch);
                forwards.clear();
                locals.clear();
                let g = &w.groups[group.index()];
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
                        self.world.arena.duplicate(handle)
                    };
                    self.offer(ch, h);
                }
                for &agent in &locals {
                    k += 1;
                    let h = if k == total {
                        handle
                    } else {
                        self.world.arena.duplicate(handle)
                    };
                    self.deliver(agent, h);
                }
                if total == 0 {
                    // A tree node with nothing downstream: the packet ends
                    // here.
                    self.world.arena.remove(handle);
                }
                self.world.fwd_scratch = forwards;
                self.world.member_scratch = locals;
            }
        }
    }

    fn deliver(&mut self, agent: AgentId, handle: PacketHandle) {
        let w = &mut *self.world;
        let uid = w.arena.get(handle).uid;
        let region = w.agent_meta[agent.index()].region as usize;
        w.streams[region].digest.record_deliver(w.now, agent, uid);
        if w.traced.intersects(TraceKinds::DELIVER) {
            self.trace(&TraceEvent::Deliver {
                agent,
                packet: self.world.arena.get(handle),
            });
        }
        let packet = self.world.arena.remove(handle);
        let mut ctx = Context {
            world: &mut *self.world,
            agent,
        };
        self.agents[agent.index()].on_packet(packet, &mut ctx);
    }
}
