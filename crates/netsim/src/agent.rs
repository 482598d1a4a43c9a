//! The transport-endpoint abstraction.
//!
//! An [`Agent`] is a protocol state machine attached to a node: a TCP
//! sender, a multicast receiver, a rate controller. The engine drives it
//! through three callbacks, and the agent acts on the world only through
//! the [`Context`] it is handed — no interior
//! mutability, no back-references, so the borrow checker and determinism
//! are both satisfied. A protocol whose logic needs only a clock, a random
//! stream, a send and a timer takes a [`Port`] instead, so a test can drive
//! it on a manual clock with no engine; its `Agent` impl forwards to it.

use std::any::Any;

use rand::rngs::StdRng;

use crate::engine::Context;
use crate::packet::{Dest, Packet};
use crate::time::{SimDuration, SimTime};
use crate::wire::Segment;

/// What a protocol's logic needs of the world. [`Context`] forwards each
/// call at once: its send draws jitter from the stream `rng` hands out, so
/// a port that deferred sends would reorder the draws.
pub trait Port {
    /// Current simulation time.
    fn now(&self) -> SimTime;
    /// The agent's random stream.
    fn rng(&mut self) -> &mut StdRng;
    /// Send a packet from the agent's node.
    fn send(&mut self, dest: Dest, size_bytes: u32, segment: Segment);
    /// Fire `token` at the agent after `delay`.
    fn set_timer(&mut self, delay: SimDuration, token: u64);
}

impl Port for Context<'_> {
    fn now(&self) -> SimTime {
        Context::now(self)
    }
    fn rng(&mut self) -> &mut StdRng {
        Context::rng(self)
    }
    fn send(&mut self, dest: Dest, size_bytes: u32, segment: Segment) {
        Context::send(self, dest, size_bytes, segment);
    }
    fn set_timer(&mut self, delay: SimDuration, token: u64) {
        Context::set_timer(self, delay, token);
    }
}

/// A transport endpoint.
///
/// `Send` is part of the contract, so a built agent population can move
/// to another thread. Agents own their state outright (no `Rc`, no
/// references into the world), so this costs implementations nothing.
pub trait Agent: Any + Send {
    /// Called once when the agent's start event fires. Open the window,
    /// arm timers, send the first packets.
    fn on_start(&mut self, _ctx: &mut Context<'_>) {}

    /// A packet addressed to this agent (or to a group it joined) arrived.
    fn on_packet(&mut self, packet: Packet, ctx: &mut Context<'_>);

    /// A timer set through [`Context::set_timer`](crate::engine::Context::set_timer)
    /// fired. `token` is whatever the agent registered; agents that re-arm
    /// timers must ignore stale tokens themselves.
    fn on_timer(&mut self, _token: u64, _ctx: &mut Context<'_>) {}

    /// Downcasting hook so experiments can read protocol-specific
    /// statistics after a run.
    fn as_any(&self) -> &dyn Any;

    /// Mutable downcasting hook.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// A do-nothing endpoint: a packet sink. Useful as a placeholder and for
/// engine tests.
#[derive(Debug, Default)]
pub struct Sink {
    /// Packets delivered to this sink.
    pub received: u64,
    /// Bytes delivered to this sink.
    pub bytes: u64,
}

impl Agent for Sink {
    fn on_packet(&mut self, packet: Packet, _ctx: &mut Context<'_>) {
        self.received += 1;
        self.bytes += packet.size_bytes as u64;
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
