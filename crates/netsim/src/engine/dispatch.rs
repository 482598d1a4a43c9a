//! The run loop and what it does with each event: offer a packet to a
//! channel, start and complete transmissions, arrive at a node, deliver
//! to an agent — and the [`Context`] agents act through while it runs.

use rand::rngs::StdRng;
use rand::Rng;

use super::World;
use crate::agent::Agent;
use crate::arena::PacketHandle;
use crate::event::EventKind;
use crate::id::{AgentId, ChannelId, GroupId, NodeId};
use crate::link::InService;
use crate::packet::{Dest, Packet};
use crate::queue::{DropReason, Enqueue};
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
        let node = self.world.agent_node(self.agent);
        &mut self.world.regions.node(node).rng
    }

    /// Send a packet. It enters the network at this agent's node, after the
    /// agent's configured random processing overhead (if any). Returns the
    /// packet uid.
    pub fn send(&mut self, dest: Dest, size_bytes: u32, segment: Segment) -> u64 {
        let w = &mut *self.world;
        let meta = &mut w.agent_meta[self.agent.index()];
        let stream = w.regions.node(meta.node);
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

    /// Dispatch every event due by `deadline` — the clock ends at exactly
    /// `deadline` if the calendar outlives it — then settle every
    /// transmission that ended by it without a completion event.
    ///
    /// The calendar enters the next θ-grid epoch when an event's instant
    /// passes the current epoch's end, and once more for the deadline;
    /// the epochs are absolute, so stopping anywhere moves no key. With
    /// `epoch_loads` armed, the call records the events it processed.
    pub(super) fn run_until(&mut self, deadline: SimTime) {
        let w = &mut *self.world;
        w.regions.begin_run(&mut w.calendar, w.now, deadline);
        let before = w.epoch_loads.is_some().then(|| w.regions.events());
        while let Some(event) = self.world.calendar.pop_before(deadline) {
            let w = &mut *self.world;
            debug_assert!(event.at >= w.now, "time ran backwards");
            w.regions.reach(&mut w.calendar, event.at);
            w.now = event.at;
            w.cur_key = event.key;
            self.dispatch(event.kind);
        }
        let w = &mut *self.world;
        w.regions.reach(&mut w.calendar, deadline);
        w.now = w.now.max(deadline);
        if let (Some(loads), Some(before)) = (w.epoch_loads.as_mut(), before) {
            loads.push(vec![w.regions.events() - before]);
        }
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
        let now = w.now;
        let (uid, is_data) = {
            let p = w.arena.get(handle);
            (p.uid, p.segment.is_data())
        };
        let ch = &mut w.channels[li];
        ch.stats.offered += 1;

        if let Some(fault) = ch.fault.as_mut() {
            let stream = w.regions.channel(channel);
            if fault.should_drop(is_data, &mut stream.rng) {
                ch.stats.record_drop(DropReason::Fault);
                let qlen = ch.queue.len();
                stream
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
        let stream = w.regions.channel(channel);
        match ch.queue.enqueue(handle, now, &mut stream.rng) {
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
                stream.digest.record_enqueue(now, channel, uid, qlen);
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
                stream.digest.record_drop(now, channel, uid, reason, qlen);
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
    /// The arrival's key comes from the region identity, which keys a
    /// cross-region arrival by the message alone. The completion is filed
    /// only if a packet is already waiting behind this one; `offer` files
    /// it later if one turns up.
    fn start_tx(&mut self, channel: ChannelId, handle: PacketHandle) {
        let li = channel.index();
        let w = &mut *self.world;
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
        w.regions
            .channel(channel)
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
        let arrival_key = w.regions.arrival_key(channel, end, &mut w.calendar);
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
        w.regions.node(node).digest.record_arrive(w.now, node, uid);
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
        let (now, node) = (w.now, w.agent_node(agent));
        w.regions.node(node).digest.record_deliver(now, agent, uid);
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
