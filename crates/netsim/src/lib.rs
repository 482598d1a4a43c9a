//! # netsim — a deterministic packet-level network simulator
//!
//! The substrate for reproducing *Achieving Bounded Fairness for Multicast
//! and TCP Traffic in the Internet* (Wang & Schwartz, SIGCOMM 1998). The
//! paper evaluated the Random Listening Algorithm in NS2; this crate plays
//! NS2's role: a discrete-event engine moving fixed-size packets through
//! finite-buffer gateways.
//!
//! ## What's here
//!
//! * [`engine::Engine`] — the event loop, topology construction, agent
//!   arena, unicast routing and source-based multicast trees.
//! * [`queue`] — **drop-tail** and **RED** gateway buffers, the two router
//!   types the paper's fairness theorems distinguish.
//! * [`agent::Agent`] — the transport-endpoint trait implemented by the
//!   `tcp-sack`, `rla` and `baselines` crates.
//! * [`wire`] — segment formats (TCP SACK acknowledgments, multicast data
//!   and SACKs, rate-controller feedback), following the smoltcp convention
//!   of wire formats in the base crate and behaviour above it.
//! * [`fault`] — Bernoulli packet loss for robustness tests and for the
//!   paper's analytic loss models (figure 2).
//! * [`trace`] — packet-level tracing hooks (queue occupancy time series,
//!   drop records) used by the buffer-period and phase-effect experiments.
//!
//! ## Determinism
//!
//! Integer nanosecond time, FIFO tie-breaking in the calendar, and one
//! seeded RNG stream per region make every run bit-reproducible: the same
//! seed yields the same tables. Experiments average over seeds explicitly.
//!
//! ## Quick example
//!
//! ```
//! use netsim::prelude::*;
//!
//! let mut engine = Engine::new(7);
//! let a = engine.add_node("a");
//! let b = engine.add_node("b");
//! engine.add_link(a, b, 8_000_000, SimDuration::from_millis(10),
//!                 &QueueConfig::paper_droptail());
//! let sink = engine.add_agent(b, Box::new(netsim::agent::Sink::default()));
//! engine.compute_routes();
//! // ... attach senders, start agents, then:
//! engine.run_until(SimTime::from_secs(1));
//! assert_eq!(engine.now(), SimTime::from_secs(1));
//! # let _ = sink;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
pub mod arena;
pub mod engine;
pub mod event;
pub mod fault;
pub mod id;
pub mod link;
pub mod node;
pub mod packet;
pub mod queue;
mod region;
pub mod stats;
pub mod time;
pub mod topology;
pub mod trace;
pub mod wire;

/// The most commonly used items in one import.
pub mod prelude {
    pub use crate::agent::Agent;
    pub use crate::arena::{PacketArena, PacketHandle};
    pub use crate::engine::{Context, Engine, World};
    pub use crate::fault::FaultInjector;
    pub use crate::id::{AgentId, ChannelId, GroupId, NodeId};
    pub use crate::packet::{Dest, Packet};
    pub use crate::queue::{QueueConfig, RedConfig};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::trace::TraceDigest;
    pub use crate::wire::{SackBlock, SackList, Segment};
}
