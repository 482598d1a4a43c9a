//! The layer ladder: each rung isolates one layer on the paper's
//! workload shapes and prices it from outside, around public calls.
//!
//! Rungs L0–L4 climb from the calendar alone to a full RLA session; the
//! direct-call rungs price single data structures at the paper's
//! configurations; the remaining rungs price the partitioned executor,
//! the telemetry sinks, the manifest tools and the worker pool on
//! reduced copies of the workloads' scenarios. The rungs run the same
//! work for every `--workload`, so their numbers compare across runs.

use std::cell::RefCell;
use std::path::Path;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use experiments::diff::{diff_manifests, parse_manifest, DiffOptions};
use experiments::manifest::scenario_manifest;
use experiments::prelude::*;
use experiments::tree::{build_tree, pps_to_bps, FAST_BPS};
use netsim::agent::{Agent, Sink};
use netsim::arena::PacketArena;
use netsim::engine::{Context, Engine};
use netsim::event::{Calendar, Event, EventKind, HeapCalendar};
use netsim::id::{AgentId, ChannelId, NodeId};
use netsim::packet::{tx_nanos, Dest, Packet};
use netsim::queue::{DropTail, Enqueue, QueueConfig, QueueDiscipline, Red, RedConfig};
use netsim::time::SimTime;
use netsim::trace::TraceDigest;
use netsim::wire::{SackBlock, Segment};
use rla::{McastReceiver, RlaConfig, RlaSender, TroubleTracker};
use tcp_sack::{CcVariant, RenoSender, Scoreboard, TcpConfig, TcpReceiver, TcpSender};
use telemetry::{FlightRecorder, FlowSample, PcapWriter, TimelineFormat, TimelineRecorder};
use transport::{
    defaults, AckEvent, BbrV1Cc, CcSignals, CongestionControl, CubicCc, RateSample, RenoCc,
    RttEstimator, SackCc, WindowState,
};

use crate::host::{cpu_seconds, timer_overhead_ns};
use crate::shim::{ClassCounter, NoopTracer, Probe, TimedAgent};
use crate::spans::Spans;
use crate::stats::median;
use crate::workloads::{
    case5_spec, churn_spec, clear_dir, fig7_case1_spec, sink_options, table_sweep_specs, Scale,
};

/// The metrics a ladder run produced, by declared name.
pub type Metrics = Vec<(&'static str, f64)>;

fn ns_per(op_count: u64, t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64 / op_count as f64
}

fn raw_packet(uid: u64) -> Packet {
    Packet {
        uid,
        src: AgentId(0),
        dest: Dest::Agent(AgentId(1)),
        size_bytes: defaults::PACKET_SIZE,
        segment: Segment::Raw,
        sent_at: SimTime::ZERO,
    }
}

// ----------------------------------------------------------------------
// L0: the calendar
// ----------------------------------------------------------------------

trait Cal {
    fn schedule(&mut self, at: SimTime, kind: EventKind);
    fn pop(&mut self) -> Option<Event>;
}

impl Cal for Calendar {
    fn schedule(&mut self, at: SimTime, kind: EventKind) {
        Calendar::schedule(self, at, kind);
    }
    fn pop(&mut self) -> Option<Event> {
        Calendar::pop(self)
    }
}

impl Cal for HeapCalendar {
    fn schedule(&mut self, at: SimTime, kind: EventKind) {
        HeapCalendar::schedule(self, at, kind);
    }
    fn pop(&mut self) -> Option<Event> {
        HeapCalendar::pop(self)
    }
}

/// Delays with the tertiary tree's time shape: service times of a
/// 1000-byte packet on the congested and the fast links, the 5 ms and
/// 100 ms hops, same-instant follow-ups and RTO-scale timers. Popping at
/// `t` and scheduling at `t + delay` from so few distinct delays makes
/// same-instant ties as common as they are under multicast fan-out.
fn calendar_delays(seed: u64, n: usize) -> Vec<u64> {
    let congested = tx_nanos(defaults::PACKET_SIZE, pps_to_bps(2800));
    let fast = tx_nanos(defaults::PACKET_SIZE, FAST_BPS);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| match rng.gen_range(0..100u32) {
            0..=24 => congested,
            25..=44 => fast,
            45..=79 => 5_000_000,
            80..=91 => 100_000_000,
            92..=96 => 0,
            _ => rng.gen_range(1_000_000_000..3_000_000_000u64),
        })
        .collect()
}

/// Nanoseconds per pop + schedule pair at a steady population of 512
/// pending events.
fn calendar_ns(cal: &mut impl Cal, delays: &[u64]) -> f64 {
    let timer = |token: u64| EventKind::Timer {
        agent: AgentId(0),
        token,
    };
    for i in 0..512u64 {
        cal.schedule(SimTime::from_nanos(i * 195_313), timer(i));
    }
    let t = Instant::now();
    for (i, &d) in delays.iter().enumerate() {
        let e = cal.pop().expect("the population never drains");
        cal.schedule(SimTime::from_nanos(e.at.as_nanos() + d), timer(i as u64));
    }
    let ns = ns_per(delays.len() as u64, t);
    std::hint::black_box(cal.pop());
    ns
}

fn rung_calendar(seed: u64, scale: Scale, out: &mut Metrics) {
    let delays = calendar_delays(seed, scale.pick(1_000_000, 50_000));
    let wheel = calendar_ns(&mut Calendar::new(), &delays);
    let heap = calendar_ns(&mut HeapCalendar::new(), &delays);
    out.push(("netsim.event.sched_pop_ns", wheel));
    out.push(("netsim.event.heap_ref_ratio", heap / wheel));
}

// ----------------------------------------------------------------------
// Direct-call rungs: arena, queues, digest
// ----------------------------------------------------------------------

fn rung_arena(scale: Scale, out: &mut Metrics) {
    let n = scale.pick(2_000_000u64, 100_000);
    let mut arena = PacketArena::new();
    // 256 packets live at any time, as many as the 80 buffers of the
    // tree hold under load.
    let mut live: Vec<_> = (0..256).map(|i| arena.insert(raw_packet(i))).collect();
    let t = Instant::now();
    for i in 0..n {
        let slot = (i & 255) as usize;
        std::hint::black_box(arena.remove(live[slot]));
        live[slot] = arena.insert(raw_packet(i));
    }
    out.push(("netsim.arena.insert_remove_ns", ns_per(n, t)));

    let base = live[0];
    let t = Instant::now();
    for _ in 0..n {
        let copy = arena.duplicate(std::hint::black_box(base));
        std::hint::black_box(arena.remove(copy));
    }
    out.push(("netsim.arena.duplicate_ns", ns_per(n, t)));
}

/// Offer packets to `queue` 10 % faster than it is served, at the
/// congested root link's service time. Returns (ns per offered packet,
/// dropped share).
fn queue_ns(queue: &mut dyn QueueDiscipline, seed: u64, ticks: u64) -> (f64, f64) {
    let service = tx_nanos(defaults::PACKET_SIZE, pps_to_bps(2800));
    let mut arena = PacketArena::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut offered, mut dropped) = (0u64, 0u64);
    let t = Instant::now();
    for tick in 0..ticks {
        let now = SimTime::from_nanos(tick * service);
        for _ in 0..(1 + u64::from(tick % 10 == 0)) {
            offered += 1;
            let handle = arena.insert(raw_packet(offered));
            if let Enqueue::Dropped(h, _) = queue.enqueue(handle, now, &mut rng) {
                arena.remove(h);
                dropped += 1;
            }
        }
        if let Some(h) = queue.dequeue(now) {
            std::hint::black_box(arena.remove(h));
        }
    }
    (ns_per(offered, t), dropped as f64 / offered as f64)
}

fn rung_queues(seed: u64, scale: Scale, out: &mut Metrics) {
    let ticks = scale.pick(1_000_000, 50_000);
    let QueueConfig::DropTail { limit } = QueueConfig::paper_droptail() else {
        unreachable!("paper_droptail is a drop-tail configuration");
    };
    let (droptail_ns, _) = queue_ns(&mut DropTail::new(limit), seed, ticks);
    let (red_ns, red_drops) = queue_ns(&mut Red::new(RedConfig::paper()), seed, ticks);
    out.push(("netsim.queue.droptail_ns", droptail_ns));
    out.push(("netsim.queue.red_ns", red_ns));
    out.push(("netsim.queue.red_drop_share", red_drops));
}

fn rung_digest(scale: Scale, out: &mut Metrics) {
    let n = scale.pick(4_000_000u64, 200_000);
    let mut d = TraceDigest::new();
    let t = Instant::now();
    for i in 0..n / 4 {
        let now = SimTime::from_nanos(i * 1000);
        d.record_enqueue(now, ChannelId(3), i, 7);
        d.record_tx_start(now, ChannelId(3), i, 6);
        d.record_arrive(now, NodeId(2), i);
        d.record_deliver(now, AgentId(5), i);
    }
    std::hint::black_box(d.value());
    out.push(("netsim.trace.digest_ns", ns_per(n, t)));
}

// ----------------------------------------------------------------------
// L1, L2: the engine without a protocol
// ----------------------------------------------------------------------

/// Sends one raw packet to `dest` every `interval`, driven by a timer.
struct Pacer {
    dest: Dest,
    interval: SimDuration,
}

impl Agent for Pacer {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(self.interval, 0);
    }
    fn on_packet(&mut self, _packet: Packet, _ctx: &mut Context<'_>) {}
    fn on_timer(&mut self, _token: u64, ctx: &mut Context<'_>) {
        ctx.send(self.dest, defaults::PACKET_SIZE, Segment::Raw);
        ctx.set_timer(self.interval, 0);
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Wall nanoseconds per trace event of `engine` run to `until`.
fn engine_ns_per_event(engine: &mut Engine, until: SimTime) -> f64 {
    let t = Instant::now();
    engine.run_until(until);
    t.elapsed().as_nanos() as f64 / engine.trace_digest().events() as f64
}

/// One link at the case-5 bottleneck rate, offered 10 % more than it
/// carries: arena, ring buffer, drop-tail and the tx/arrive path.
fn rung_link(seed: u64, scale: Scale, out: &mut Metrics) {
    let mut e = Engine::new(seed);
    let a = e.add_node("a");
    let b = e.add_node("b");
    e.add_link(
        a,
        b,
        pps_to_bps(1000),
        SimDuration::from_millis(5),
        &QueueConfig::paper_droptail(),
    );
    e.partition_merged(None, 1, None);
    let sink = e.add_agent(b, Box::new(Sink::default()));
    let pacer = e.add_agent(
        a,
        Box::new(Pacer {
            dest: Dest::Agent(sink),
            interval: SimDuration::from_micros(909),
        }),
    );
    e.compute_routes();
    e.start_agent_at(pacer, SimTime::ZERO);
    let ns = engine_ns_per_event(&mut e, SimTime::from_secs(scale.pick(600, 30)));
    out.push(("netsim.engine.link_ns_per_event", ns));
}

/// The tertiary tree carrying one multicast stream to 27 sinks: fan-out
/// replication and nothing else. Returns wall ns per trace event.
fn fanout_ns(seed: u64, simulated_secs: u64, noop_tracer: bool) -> f64 {
    let mut e = Engine::new(seed);
    let tree = build_tree(
        &mut e,
        CongestionCase::Case1RootLink,
        &QueueConfig::paper_droptail(),
    );
    e.partition_merged(None, 1, None);
    let group = e.new_group();
    for &leaf in &tree.leaves {
        let sink = e.add_agent(leaf, Box::new(Sink::default()));
        e.join_group(group, sink);
    }
    // 3000 pkt/s into the 2800 pkt/s root link.
    let pacer = e.add_agent(
        tree.root,
        Box::new(Pacer {
            dest: Dest::Group(group),
            interval: SimDuration::from_micros(333),
        }),
    );
    e.compute_routes();
    e.build_group_tree(group, tree.root);
    e.start_agent_at(pacer, SimTime::ZERO);
    if noop_tracer {
        e.set_tracer(Rc::new(RefCell::new(NoopTracer)));
    }
    engine_ns_per_event(&mut e, SimTime::from_secs(simulated_secs))
}

fn rung_fanout(seed: u64, scale: Scale, out: &mut Metrics) -> f64 {
    let secs = scale.pick(12, 1);
    let (mut bare, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        bare.push(fanout_ns(seed, secs, false));
        traced.push(fanout_ns(seed, secs, true));
    }
    let (bare, traced) = (median(&bare), median(&traced));
    out.push(("netsim.engine.fanout_ns_per_event", bare));
    out.push((
        "netsim.engine.tracer_slot_pct",
        (traced / bare - 1.0) * 100.0,
    ));
    bare
}

// ----------------------------------------------------------------------
// Direct-call rungs: congestion control, RTT, scoreboard, trouble tracker
// ----------------------------------------------------------------------

/// An acknowledgment trace with a loss every 200 acks: three duplicate
/// acks, the third reporting the loss, then an ack covering the hole.
fn ack_trace(seed: u64, n: usize) -> Vec<AckEvent> {
    let mut rng = StdRng::seed_from_u64(seed);
    let rtt = SimDuration::from_millis(230);
    let mut cum = 0u64;
    let mut now = SimTime::from_secs(1);
    let mut trace = Vec::with_capacity(n);
    while trace.len() < n {
        now += SimDuration::from_micros(rng.gen_range(300..1500));
        let phase = trace.len() % 200;
        let dup = (196..199).contains(&phase);
        if !dup {
            cum += if phase == 199 { 4 } else { 1 };
        }
        let newly_acked = if dup {
            0
        } else if phase == 199 {
            4
        } else {
            1
        };
        let sample = rtt + SimDuration::from_micros(rng.gen_range(0..20_000));
        trace.push(AckEvent {
            cum_ack: cum,
            newly_acked,
            newly_delivered: newly_acked.max(1),
            newly_lost: u64::from(phase == 198),
            high_seq: cum + 30,
            ack_time: now,
            rtt_sample: (!dup).then_some(sample),
            in_flight: 30,
            rate: (!dup).then_some(RateSample {
                newly_acked_bytes: newly_acked * u64::from(defaults::PACKET_SIZE),
                sent_at: now - sample,
                delivered_at_send: cum.saturating_sub(30),
                app_limited: false,
            }),
        });
    }
    trace
}

fn rung_cc(seed: u64, scale: Scale, out: &mut Metrics) {
    let trace = ack_trace(seed, scale.pick(1_000_000, 50_000));
    let names = CcVariant::names();
    for (metric, name) in [
        ("transport.cc.sack.on_ack_ns", "sack"),
        ("transport.cc.reno.on_ack_ns", "reno"),
        ("transport.cc.cubic.on_ack_ns", "cubic"),
        ("transport.cc.bbr.on_ack_ns", "bbr"),
    ] {
        assert!(names.contains(&name), "{name} left CC_REGISTRY");
        let mut cc: Box<dyn CongestionControl> = match name {
            "sack" => Box::new(SackCc::new()),
            "reno" => Box::new(RenoCc::new(defaults::DUPACK_THRESHOLD)),
            "cubic" => Box::new(CubicCc::new()),
            _ => Box::new(BbrV1Cc::new()),
        };
        let mut win = WindowState::new(
            defaults::INITIAL_CWND,
            defaults::INITIAL_SSTHRESH,
            defaults::MAX_CWND,
        );
        let mut signals = CcSignals::new();
        let t = Instant::now();
        for ev in &trace {
            signals.on_ack(ev);
            std::hint::black_box(cc.on_ack(&mut win, ev, &signals));
            std::hint::black_box(cc.allowed_window(&win, &signals));
        }
        out.push((metric, ns_per(trace.len() as u64, t)));
    }
    assert_eq!(names.len(), 4, "a CC_REGISTRY entry has no on_ack rung");

    let mut est = RttEstimator::new(defaults::MIN_RTO, defaults::MAX_RTO);
    let t = Instant::now();
    for ev in &trace {
        est.sample(ev.rtt_sample.unwrap_or(SimDuration::from_millis(230)));
        std::hint::black_box(est.rto());
    }
    out.push(("transport.rtt.sample_ns", ns_per(trace.len() as u64, t)));
}

/// `Scoreboard::on_ack` at a window of 30 with three SACK blocks above a
/// hole, the shape a TCP sender sees in fast recovery.
fn rung_scoreboard(scale: Scale, out: &mut Metrics) {
    let n = scale.pick(1_000_000u64, 50_000);
    let mut sb = Scoreboard::new();
    let now = SimTime::from_secs(1);
    for seq in 0..30 {
        sb.on_send(seq, now);
    }
    let t = Instant::now();
    for cum in 1..=n {
        let sack = [
            SackBlock {
                start: cum + 10,
                end: cum + 12,
            },
            SackBlock {
                start: cum + 6,
                end: cum + 8,
            },
            SackBlock {
                start: cum + 2,
                end: cum + 4,
            },
        ];
        std::hint::black_box(sb.on_ack(cum, &sack, defaults::DUPACK_THRESHOLD));
        sb.on_send(cum + 29, now);
    }
    out.push(("tcp.scoreboard.on_ack_ns", ns_per(n, t)));
}

/// One congestion signal into the troubled-receiver tracker, and the
/// troubled count the sender reads on each of them, at 27 receivers.
fn rung_trouble(seed: u64, scale: Scale, out: &mut Metrics) {
    let n = scale.pick(1_000_000u64, 50_000);
    let cfg = RlaConfig::default();
    let mut tracker = TroubleTracker::new(27, cfg.eta, cfg.interval_gain);
    let mut rng = StdRng::seed_from_u64(seed);
    let receivers: Vec<usize> = (0..4096).map(|_| rng.gen_range(0..27)).collect();
    let t = Instant::now();
    for i in 0..n {
        let now = SimTime::from_nanos(1_000_000_000 + i * 40_000_000);
        tracker.record_signal(receivers[(i & 4095) as usize], now);
        std::hint::black_box(tracker.troubled_count(now));
    }
    out.push(("rla.trouble.signal_ns", ns_per(n, t)));
}

// ----------------------------------------------------------------------
// L3, L4: protocols, with timing shims on every agent
// ----------------------------------------------------------------------

/// A built protocol rung: the engine and the probes of its agents.
pub struct ShimmedWorld {
    /// The simulator, ready to run.
    pub engine: Engine,
    /// The sending agent.
    pub sender: AgentId,
    /// Probe shared by the sender-side shims.
    pub sender_probe: Arc<Probe>,
    /// Probe shared by the receiver-side shims.
    pub receiver_probe: Arc<Probe>,
}

fn maybe_shim(agent: Box<dyn Agent>, probe: &Arc<Probe>, shimmed: bool) -> Box<dyn Agent> {
    if shimmed {
        TimedAgent::wrap(agent, probe)
    } else {
        agent
    }
}

/// Rung `L3_tcp_pair`: one TCP connection of variant `cc` across a fast
/// hop and a 200 pkt/s, 100 ms bottleneck with the paper's 20-packet
/// drop-tail buffer.
pub fn tcp_pair_world(seed: u64, cc: &str, shimmed: bool) -> ShimmedWorld {
    let mut e = Engine::new(seed);
    let s = e.add_node("s");
    let m = e.add_node("m");
    let r = e.add_node("r");
    let q = QueueConfig::paper_droptail();
    e.add_link(s, m, FAST_BPS, SimDuration::from_millis(5), &q);
    e.add_link(m, r, pps_to_bps(200), SimDuration::from_millis(100), &q);
    e.partition_merged(None, 1, None);
    let (sender_probe, receiver_probe) = (Probe::new(), Probe::new());
    let cfg = TcpConfig::default();
    let rx = e.add_agent(
        r,
        maybe_shim(
            Box::new(TcpReceiver::new(cfg.ack_size)),
            &receiver_probe,
            shimmed,
        ),
    );
    let variant = CcVariant::parse(cc).expect("a registered congestion controller");
    let sender = e.add_agent(
        s,
        maybe_shim(variant.build_sender(rx, cfg), &sender_probe, shimmed),
    );
    e.compute_routes();
    e.start_agent_at(sender, SimTime::ZERO);
    ShimmedWorld {
        engine: e,
        sender,
        sender_probe,
        receiver_probe,
    }
}

/// Rung `L4_rla_session`: one RLA session to 27 receivers on the case-1
/// tree, no TCP. The root link is throttled to 200 pkt/s so the session
/// saturates it (fully correlated losses, as in case 1) at an event rate
/// a ladder rung can afford.
pub fn rla_session_world(seed: u64, shimmed: bool) -> ShimmedWorld {
    let mut e = Engine::new(seed);
    let tree = build_tree(
        &mut e,
        CongestionCase::Case1RootLink,
        &QueueConfig::paper_droptail(),
    );
    e.world_mut()
        .channel_mut(tree.l1_down)
        .degrade(0.0, Some(pps_to_bps(200)));
    e.partition_merged(None, 1, None);
    let (sender_probe, receiver_probe) = (Probe::new(), Probe::new());
    let cfg = RlaConfig::default();
    let group = e.new_group();
    for &leaf in &tree.leaves {
        let rx = e.add_agent(
            leaf,
            maybe_shim(
                Box::new(McastReceiver::new(cfg.ack_size)),
                &receiver_probe,
                shimmed,
            ),
        );
        e.join_group(group, rx);
        // The receivers' host-processing jitter of the paper scenarios.
        e.set_send_overhead(rx, SimDuration::from_millis(2));
    }
    let service = SimDuration::from_nanos(tx_nanos(cfg.packet_size, pps_to_bps(200)));
    let sender = e.add_agent(
        tree.root,
        maybe_shim(Box::new(RlaSender::new(group, cfg)), &sender_probe, shimmed),
    );
    e.set_send_overhead(sender, service);
    e.compute_routes();
    e.build_group_tree(group, tree.root);
    e.start_agent_at(sender, SimTime::ZERO);
    ShimmedWorld {
        engine: e,
        sender,
        sender_probe,
        receiver_probe,
    }
}

/// Callback costs the protocol rungs measured, for the reconstruction.
struct CallbackNs {
    tcp_sender: f64,
    tcp_receiver: f64,
    rla_sender: f64,
    rla_receiver: f64,
}

fn rung_protocols(seed: u64, scale: Scale, spans: &mut Spans, out: &mut Metrics) -> CallbackNs {
    let overhead = timer_overhead_ns();

    let (sack, reno) = spans.span("L3_tcp_pair", |_| {
        let until = SimTime::from_secs(scale.pick(900, 60));
        let mut sack = tcp_pair_world(seed, "sack", true);
        sack.engine.run_until(until);
        let mut reno = tcp_pair_world(seed, "reno", true);
        reno.engine.run_until(until);
        (sack, reno)
    });
    let stats = &sack
        .engine
        .agent_as::<TcpSender>(sack.sender)
        .expect("the shim forwards downcasts to the SACK sender")
        .stats;
    assert!(
        reno.engine.agent_as::<RenoSender>(reno.sender).is_some(),
        "the shim forwards downcasts to the Reno sender"
    );
    let tcp_sender = sack.sender_probe.mean_ns(overhead);
    let tcp_receiver = sack.receiver_probe.mean_ns(overhead);
    out.push(("tcp.sender.callback_ns", tcp_sender));
    out.push(("tcp.receiver.callback_ns", tcp_receiver));
    out.push(("tcp.reno.callback_ns", reno.sender_probe.mean_ns(overhead)));
    out.push((
        "tcp.retransmit_share",
        stats.retransmits as f64 / stats.data_sent as f64,
    ));

    let rla = spans.span("L4_rla_session", |_| {
        let mut rla = rla_session_world(seed, true);
        rla.engine
            .run_until(SimTime::from_secs(scale.pick(120, 15)));
        rla
    });
    let stats = &rla
        .engine
        .agent_as::<RlaSender>(rla.sender)
        .expect("the shim forwards downcasts to the RLA sender")
        .stats;
    let sent = stats.data_sent + stats.retransmits_multicast + stats.retransmits_unicast;
    let rla_sender = rla.sender_probe.mean_ns(overhead);
    let rla_receiver = rla.receiver_probe.mean_ns(overhead);
    out.push(("rla.sender.callback_ns", rla_sender));
    out.push(("rla.receiver.callback_ns", rla_receiver));
    out.push((
        "rla.sender.acks_per_data_pkt",
        rla.sender_probe.packets() as f64 / sent as f64,
    ));
    out.push((
        "rla.cut_per_signal",
        stats.window_cuts() as f64 / stats.cong_signals.max(1) as f64,
    ));
    out.push((
        "rla.retransmit_share",
        (sent - stats.data_sent) as f64 / sent as f64,
    ));
    CallbackNs {
        tcp_sender,
        tcp_receiver,
        rla_sender,
        rla_receiver,
    }
}

// ----------------------------------------------------------------------
// L5: the pinned scenario, and what the rungs below explain of it
// ----------------------------------------------------------------------

fn rung_pinned(
    seed: u64,
    scale: Scale,
    fanout_ns_per_event: f64,
    cb: &CallbackNs,
    out: &mut Metrics,
) {
    let spec = fig7_case1_spec(seed, scale.pick(60, 20));

    let mut build_us = Vec::new();
    for _ in 0..scale.pick(31, 5) {
        let t = Instant::now();
        let scenario = spec.build();
        let world = scenario.build();
        build_us.push(t.elapsed().as_secs_f64() * 1e6);
        drop(world);
    }
    out.push(("experiments.scenario.build_us", median(&build_us)));

    // Untraced for the wall time, traced for the exact callback counts.
    let scenario = spec.build();
    let mut world = scenario.build();
    let t = Instant::now();
    let result = world.run(&scenario);
    let wall_ns = t.elapsed().as_nanos() as f64;

    let (mut collect_us, mut snapshot_us) = (Vec::new(), Vec::new());
    for _ in 0..scale.pick(31, 5) {
        let t = Instant::now();
        std::hint::black_box(world.collect(&scenario));
        collect_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        std::hint::black_box(world.registry_snapshot());
        snapshot_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    out.push(("experiments.scenario.collect_us", median(&collect_us)));
    out.push(("telemetry.registry.snapshot_us", median(&snapshot_us)));

    let mut traced = scenario.build();
    let receivers: Vec<AgentId> = traced.rla_receivers.concat();
    let counter = Rc::new(RefCell::new(ClassCounter::new(&[
        (&traced.tcp_senders, 0),
        (&traced.tcp_receivers, 1),
        (&traced.rla_senders, 2),
        (&receivers, 3),
    ])));
    traced.engine.set_tracer(counter.clone());
    let again = traced.run(&scenario);
    assert_eq!(
        again.trace_digest, result.trace_digest,
        "a tracer changed the pinned scenario's digest"
    );
    let c = counter.borrow();
    let explained = result.trace_events as f64 * fanout_ns_per_event
        + c.deliveries[0] as f64 * cb.tcp_sender
        + c.deliveries[1] as f64 * cb.tcp_receiver
        + c.deliveries[2] as f64 * cb.rla_sender
        + c.deliveries[3] as f64 * cb.rla_receiver;
    out.push(("ladder.reconstructed_share", explained / wall_ns));
}

// ----------------------------------------------------------------------
// The partitioned executor, measured
// ----------------------------------------------------------------------

/// Case 5 drop-tail on one domain, on two domains walked by one worker
/// (which records the per-epoch loads) and on two domains on two worker
/// threads. The threaded executor's wall time is bimodal from run to run
/// on a 2-vCPU guest — the same seed reads 3.4 s or 5.3 s at 150 s
/// simulated — so it is no end-to-end workload; here the least-disturbed
/// of three rounds is kept for each configuration.
fn rung_shards(seed: u64, scale: Scale, out: &mut Metrics) {
    let secs = scale.pick(60, 20);
    let timed_run = |shards: usize, inline: bool| {
        let scenario = case5_spec(seed, secs, shards).build();
        let mut world = scenario.build();
        if inline {
            world.engine.set_workers(1);
            world.engine.record_epoch_loads(true);
        }
        let cpu0 = cpu_seconds();
        let t = Instant::now();
        let result = world.run(&scenario);
        let wall = t.elapsed().as_secs_f64();
        (wall, cpu_seconds() - cpu0, result, world)
    };

    let (mut one, mut inline2, mut threaded2, mut cpu2) = (f64::MAX, f64::MAX, f64::MAX, 0.0);
    let mut last = None;
    for _ in 0..scale.pick(3, 1) {
        let (wall, _, reference, _) = timed_run(1, false);
        one = one.min(wall);
        let (wall, _, inline, world) = timed_run(2, true);
        inline2 = inline2.min(wall);
        let (wall, cpu, threaded, _) = timed_run(2, false);
        if wall < threaded2 {
            (threaded2, cpu2) = (wall, cpu);
        }
        assert_eq!(inline.trace_digest, reference.trace_digest);
        assert_eq!(threaded.trace_digest, reference.trace_digest);
        last = Some((reference.trace_events, world));
    }
    let (events, world) = last.expect("at least one round ran");

    let loads = world
        .engine
        .epoch_loads()
        .expect("the inline partitioned run records epoch loads");
    // Each epoch ends when its busier worker does.
    let critical: u64 = loads
        .iter()
        .map(|row| row.iter().copied().max().unwrap_or(0))
        .sum();
    let total: u64 = loads.iter().flatten().sum();
    out.push(("netsim.shard.regions", world.engine.region_count() as f64));
    out.push(("netsim.shard.domains", world.engine.domain_count() as f64));
    out.push(("netsim.shard.epochs", loads.len() as f64));
    out.push((
        "netsim.shard.events_per_epoch",
        events as f64 / loads.len() as f64,
    ));
    out.push((
        "netsim.shard.critical_path_share",
        critical as f64 / total as f64,
    ));
    out.push((
        "netsim.shard.inline_overhead_pct",
        (inline2 / one - 1.0) * 100.0,
    ));
    out.push(("netsim.shard.threaded_speedup", one / threaded2));
    out.push(("netsim.shard.cpu_per_wall", cpu2 / threaded2));
}

// ----------------------------------------------------------------------
// Telemetry sinks, one at a time
// ----------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq)]
enum SinkOn {
    None,
    Timeline,
    Pcap,
    Flight,
}

fn rung_sinks(seed: u64, scale: Scale, scratch: &Path, out: &mut Metrics) {
    let scenario = churn_spec(seed, scale.pick(20, 20)).build();
    let (pcap, timeline) = sink_options(scratch);
    let mut finish_s = 0.0;
    let mut run_with = |sink: SinkOn| -> f64 {
        let mut world = scenario.build();
        let t = Instant::now();
        match sink {
            SinkOn::None => {
                world.run(&scenario);
            }
            SinkOn::Timeline => {
                world.run_with_telemetry_streamed(&scenario, &timeline, "rung");
            }
            SinkOn::Pcap => {
                let tracer = world.install_pcap(&pcap, "rung");
                world.run(&scenario);
                let t = Instant::now();
                tracer.borrow_mut().finish().expect("pcap finish");
                finish_s = t.elapsed().as_secs_f64();
            }
            SinkOn::Flight => {
                let recorder = Rc::new(RefCell::new(FlightRecorder::new(timeline.flight_depth)));
                world.engine.set_tracer(recorder.clone());
                world.run(&scenario);
                std::hint::black_box(recorder.borrow().events_seen());
            }
        }
        let wall = t.elapsed().as_secs_f64();
        // See `Runner::rep_observed`: files are unlinked, not truncated.
        clear_dir(scratch);
        wall
    };
    // Least-disturbed of two rounds for each configuration.
    let mut best = [f64::MAX; 4];
    for _ in 0..2 {
        for (slot, sink) in [SinkOn::None, SinkOn::Timeline, SinkOn::Pcap, SinkOn::Flight]
            .into_iter()
            .enumerate()
        {
            best[slot] = best[slot].min(run_with(sink));
        }
    }
    let pct = |on: f64| (on / best[0] - 1.0) * 100.0;
    out.push(("telemetry.timeline.on_cost_pct", pct(best[1])));
    out.push(("telemetry.pcap.on_cost_pct", pct(best[2])));
    out.push(("telemetry.flight.on_cost_pct", pct(best[3])));
    out.push(("telemetry.pcap.finish_s", finish_s));

    // One record of each segment kind the capture carries.
    let n = scale.pick(500_000u64, 25_000);
    let packets = [
        Packet {
            segment: Segment::TcpData(netsim::wire::TcpData {
                seq: 7,
                retransmit: false,
                timestamp: SimTime::from_secs(1),
            }),
            ..raw_packet(1)
        },
        Packet {
            size_bytes: defaults::ACK_SIZE,
            segment: Segment::TcpAck(netsim::wire::TcpAck {
                cum_ack: 7,
                sack: netsim::wire::SackList::from_ascending_seqs([9, 10, 12], 12),
                echo_timestamp: SimTime::from_secs(1),
            }),
            ..raw_packet(2)
        },
        Packet {
            segment: Segment::McastData(netsim::wire::McastData {
                seq: 7,
                retransmit: false,
                timestamp: SimTime::from_secs(1),
            }),
            ..raw_packet(3)
        },
    ];
    let mut writer = PcapWriter::new(std::io::sink(), pcap.snaplen).expect("sink never fails");
    let mut bytes = 0usize;
    for p in &packets {
        bytes += telemetry::pcap::record_bytes(pcap.snaplen, SimTime::from_secs(1), p).len();
    }
    let t = Instant::now();
    for i in 0..n {
        let p = &packets[(i % 3) as usize];
        writer
            .record(SimTime::from_nanos(i * 1000), p)
            .expect("sink never fails");
    }
    out.push(("telemetry.pcap.record_ns", ns_per(n, t)));
    out.push((
        "telemetry.pcap.bytes_per_record",
        bytes as f64 / packets.len() as f64,
    ));

    // Streamed, so every sample is one rendered line written and flushed.
    let n = scale.pick(50_000u64, 5_000);
    let mut rec = TimelineRecorder::new(timeline.sample_period);
    rec.stream_to(scratch, "rung_samples", TimelineFormat::Jsonl)
        .expect("open the timeline stream");
    let flow = rec.add_flow("tcp.0", "tcp");
    let t = Instant::now();
    for i in 0..n {
        rec.record_flow(
            flow,
            SimTime::from_nanos(i * 100_000_000),
            FlowSample {
                cwnd: 12.5,
                ssthresh: Some(8.0),
                awnd: None,
                rtt: Some(0.23),
            },
        );
    }
    out.push(("telemetry.timeline.sample_ns", ns_per(n, t)));
    rec.finish_stream().expect("flush the timeline stream");
}

// ----------------------------------------------------------------------
// Manifest tools and the worker pool
// ----------------------------------------------------------------------

fn rung_sweep_tools(seed: u64, scale: Scale, out: &mut Metrics) {
    let secs = scale.pick(30, 20);
    let scenarios: Vec<TreeScenario> = table_sweep_specs(seed, secs)
        .iter()
        .map(ScenarioSpec::build)
        .collect();

    let mut solo = Vec::new();
    for s in &scenarios {
        let mut world = s.build();
        let t = Instant::now();
        std::hint::black_box(world.run(s));
        solo.push(t.elapsed().as_secs_f64());
    }
    let t = Instant::now();
    let results = run_parallel_with_jobs(scenarios, 2);
    let pool = t.elapsed().as_secs_f64();
    let longest = solo.iter().copied().fold(0.0, f64::max);
    out.push((
        "experiments.runner.pool_efficiency",
        solo.iter().sum::<f64>() / (2.0 * pool),
    ));
    out.push(("experiments.runner.longest_job_share", longest / pool));

    let manifest = scenario_manifest("benchmark", SimDuration::from_secs(secs), &results);
    let rounds = scale.pick(20, 3);
    let (mut render, mut parse, mut diff) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..rounds {
        let t = Instant::now();
        let text = manifest.pretty();
        render.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let parsed = parse_manifest(&text).expect("the manifest re-parses");
        parse.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let d = diff_manifests(&parsed, &parsed, &DiffOptions::default()).expect("aligned runs");
        diff.push(t.elapsed().as_secs_f64());
        assert!(!d.has_drift(), "a manifest drifts from itself");
        std::hint::black_box(text.len());
    }
    let mb = manifest.pretty().len() as f64 / 1e6;
    out.push(("experiments.manifest.render_mb_s", mb / median(&render)));
    out.push(("experiments.manifest.parse_mb_s", mb / median(&parse)));
    out.push(("experiments.diff.self_diff_ms", median(&diff) * 1e3));
}

/// Run every rung once. `scratch` receives the sink rungs' files.
pub fn run(seed: u64, scale: Scale, spans: &mut Spans, scratch: &Path) -> Metrics {
    let mut out = Metrics::new();
    spans.span("L0_calendar", |_| rung_calendar(seed, scale, &mut out));
    spans.span("direct_netsim", |_| {
        rung_arena(scale, &mut out);
        rung_queues(seed, scale, &mut out);
        rung_digest(scale, &mut out);
    });
    spans.span("L1_link", |_| rung_link(seed, scale, &mut out));
    let fanout = spans.span("L2_tree_fanout", |_| rung_fanout(seed, scale, &mut out));
    spans.span("direct_protocols", |_| {
        rung_cc(seed, scale, &mut out);
        rung_scoreboard(scale, &mut out);
        rung_trouble(seed, scale, &mut out);
    });
    let callbacks = rung_protocols(seed, scale, spans, &mut out);
    spans.span("L5_pinned", |_| {
        rung_pinned(seed, scale, fanout, &callbacks, &mut out)
    });
    spans.span("shards", |_| rung_shards(seed, scale, &mut out));
    spans.span("sinks", |_| rung_sinks(seed, scale, scratch, &mut out));
    spans.span("sweep_tools", |_| rung_sweep_tools(seed, scale, &mut out));
    out
}
