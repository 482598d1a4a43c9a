//! Benchmark-owned observers: an [`Agent`] wrapper that times the
//! callbacks of the agent inside it, and two [`Tracer`]s.
//!
//! Both sit on the public seams of `netsim`, so the simulator is timed
//! without a line of it changing. The wrapper forwards every callback
//! and both downcasting hooks unchanged, which makes it invisible to the
//! engine and to the experiment layer: a shimmed world produces the same
//! trace digest as the bare one (a test pins this).

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use netsim::agent::Agent;
use netsim::engine::Context;
use netsim::id::AgentId;
use netsim::packet::Packet;
use netsim::time::SimTime;
use netsim::trace::{TraceEvent, Tracer};

/// One callback in this many is timed; the rest only count.
const SAMPLE_EVERY: u64 = 64;

/// Callback counters shared between a [`TimedAgent`] (which may run on a
/// worker thread) and the harness reading them after the run. They are
/// statistics only and publish no other data, hence `Relaxed`.
#[derive(Debug, Default)]
pub struct Probe {
    calls: AtomicU64,
    packets: AtomicU64,
    sampled: AtomicU64,
    sampled_ns: AtomicU64,
}

impl Probe {
    /// A fresh, shareable probe.
    pub fn new() -> Arc<Probe> {
        Arc::new(Probe::default())
    }

    /// Callbacks seen (`on_start`, `on_packet` and `on_timer`).
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// `on_packet` callbacks seen.
    pub fn packets(&self) -> u64 {
        self.packets.load(Ordering::Relaxed)
    }

    /// Callbacks that were timed.
    pub fn sampled(&self) -> u64 {
        self.sampled.load(Ordering::Relaxed)
    }

    /// Mean nanoseconds per timed callback, less `timer_overhead_ns` (the
    /// cost of the `Instant` pair itself). 0 when nothing was sampled.
    pub fn mean_ns(&self, timer_overhead_ns: f64) -> f64 {
        let n = self.sampled();
        if n == 0 {
            return 0.0;
        }
        let mean = self.sampled_ns.load(Ordering::Relaxed) as f64 / n as f64;
        (mean - timer_overhead_ns).max(0.0)
    }

    fn timed<T>(&self, f: impl FnOnce() -> T) -> T {
        let n = self.calls.fetch_add(1, Ordering::Relaxed);
        if !n.is_multiple_of(SAMPLE_EVERY) {
            return f();
        }
        let t = Instant::now();
        let out = f();
        let ns = t.elapsed().as_nanos() as u64;
        self.sampled.fetch_add(1, Ordering::Relaxed);
        self.sampled_ns.fetch_add(ns, Ordering::Relaxed);
        out
    }
}

/// An agent whose callbacks are counted, and sampled 1-in-64 with an
/// `Instant` pair, into a [`Probe`].
pub struct TimedAgent {
    inner: Box<dyn Agent>,
    probe: Arc<Probe>,
}

impl TimedAgent {
    /// Wrap `inner`; several agents of one class may share `probe`.
    pub fn wrap(inner: Box<dyn Agent>, probe: &Arc<Probe>) -> Box<dyn Agent> {
        Box::new(TimedAgent {
            inner,
            probe: Arc::clone(probe),
        })
    }
}

impl Agent for TimedAgent {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let inner = &mut self.inner;
        self.probe.timed(|| inner.on_start(ctx));
    }

    fn on_packet(&mut self, packet: Packet, ctx: &mut Context<'_>) {
        self.probe.packets.fetch_add(1, Ordering::Relaxed);
        let inner = &mut self.inner;
        self.probe.timed(|| inner.on_packet(packet, ctx));
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
        let inner = &mut self.inner;
        self.probe.timed(|| inner.on_timer(token, ctx));
    }

    // Downcasts reach the wrapped agent, so `Engine::agent_as::<TcpSender>`
    // and the statistics readers keep working on a shimmed world.
    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// A tracer that does nothing: prices the engine's tracer slot itself.
#[derive(Debug, Default)]
pub struct NoopTracer;

impl Tracer for NoopTracer {
    fn trace(&mut self, _now: SimTime, event: &TraceEvent<'_>) {
        std::hint::black_box(event);
    }
}

/// Number of agent classes [`ClassCounter`] tells apart.
pub const CLASSES: usize = 5;
/// Class of an agent the harness did not label.
pub const CLASS_OTHER: u8 = 4;

/// Counts trace events by kind and deliveries by agent class — the exact
/// per-class callback counts the ladder multiplies its rungs by.
#[derive(Debug)]
pub struct ClassCounter {
    class_of: Vec<u8>,
    /// Events by kind: enqueue, drop, tx_start, arrive, deliver.
    pub kinds: [u64; 5],
    /// Deliveries by agent class.
    pub deliveries: [u64; CLASSES],
}

impl ClassCounter {
    /// A counter labelling each listed agent with its class
    /// (`0..CLASS_OTHER`); unlisted agents count as [`CLASS_OTHER`].
    pub fn new(classes: &[(&[AgentId], u8)]) -> ClassCounter {
        let mut class_of = Vec::new();
        for &(agents, class) in classes {
            assert!(class < CLASS_OTHER, "class index out of range");
            for a in agents {
                if class_of.len() <= a.index() {
                    class_of.resize(a.index() + 1, CLASS_OTHER);
                }
                class_of[a.index()] = class;
            }
        }
        ClassCounter {
            class_of,
            kinds: [0; 5],
            deliveries: [0; CLASSES],
        }
    }
}

impl Tracer for ClassCounter {
    fn trace(&mut self, _now: SimTime, event: &TraceEvent<'_>) {
        let kind = match event {
            TraceEvent::Enqueue { .. } => 0,
            TraceEvent::Drop { .. } => 1,
            TraceEvent::TxStart { .. } => 2,
            TraceEvent::Arrive { .. } => 3,
            TraceEvent::Deliver { agent, .. } => {
                let class = self
                    .class_of
                    .get(agent.index())
                    .copied()
                    .unwrap_or(CLASS_OTHER);
                self.deliveries[class as usize] += 1;
                4
            }
        };
        self.kinds[kind] += 1;
    }
}
