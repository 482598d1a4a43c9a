//! Scenario assembly and execution for the paper's evaluation (§5).
//!
//! A [`TreeScenario`] describes one table column: the congestion case,
//! gateway type, RLA session count, and run length. [`TreeScenario::run`]
//! builds the world, wires one TCP connection from the sender node to
//! every receiver node plus the RLA session(s) over the same tree, runs
//! the warmup, resets statistics (the paper discards the first 100 s),
//! completes the run, and extracts per-flow rows.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use netsim::agent::Sink;
use netsim::engine::Engine;
use netsim::id::{AgentId, ChannelId, GroupId};
use netsim::packet::tx_nanos;
use netsim::queue::QueueConfig;
use netsim::time::{SimDuration, SimTime};

use baselines::{BackgroundConfig, BurstSource, PoissonFlowSource};
use rla::{McastReceiver, RlaConfig, RlaSender};

use tcp_sack::{CcVariant, TcpConfig, TcpReceiver, TcpSender};
use telemetry::pcap::PcapTracer;
use telemetry::timeline::SeriesId;
use telemetry::{ChannelSample, TimelineRecorder};

use crate::cli::{PcapOptions, TelemetryOptions};
use crate::events::{BackgroundLoad, EventCommand, ScenarioEvent};
use crate::metrics::{RlaRow, ScenarioResult, TcpRow};
use crate::tree::{build_tree, pps_to_bps, CongestionCase, TertiaryTree};

/// Gateway type for every buffer in the scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GatewayKind {
    /// FIFO with tail drop; random per-packet processing overhead is added
    /// at the senders to break phase effects (§3.1).
    DropTail,
    /// RED (5/15 thresholds, buffer 20); no random overhead needed.
    Red,
}

impl GatewayKind {
    /// The queue configuration for this gateway type.
    pub fn queue_config(&self) -> QueueConfig {
        match self {
            GatewayKind::DropTail => QueueConfig::paper_droptail(),
            GatewayKind::Red => QueueConfig::paper_red(),
        }
    }
}

/// One experiment configuration, fully resolved: plain data that
/// [`ScenarioSpec::build`](crate::spec::ScenarioSpec::build) produces from
/// the paper defaults plus overrides, validating and ordering the event
/// schedule on the way — construct through the spec, not by hand.
#[derive(Debug, Clone)]
pub struct TreeScenario {
    /// Which links are congested (and whether G3 nodes host receivers).
    pub case: CongestionCase,
    /// Gateway type on every link.
    pub gateway: GatewayKind,
    /// Number of overlapping RLA sessions (1 for figures 7–10; 2 for §5.2).
    pub rla_sessions: usize,
    /// Simulation seed.
    pub seed: u64,
    /// Total simulated time.
    pub duration: SimDuration,
    /// Statistics discarded before this time (the paper uses 100 s).
    pub warmup: SimDuration,
    /// Full RLA configuration for the sender(s). Figure 10 uses the
    /// RTT-scaled pthresh generalization; the other cases use the Equal
    /// policy.
    pub rla_config: RlaConfig,
    /// Which congestion controller the background TCP flows run. The
    /// paper's tables use SACK; the Reno variant measures how sensitive
    /// the fairness results are to the TCP flavor.
    pub tcp_cc: CcVariant,
    /// Scheduled mid-run commands (receiver churn, link degradation,
    /// background bursts), sorted by time. Empty for the static paper
    /// scenarios. Populated via `ScenarioSpec::with_events` /
    /// `with_churn_rate`, which also validate the schedule.
    pub events: Vec<ScenarioEvent>,
    /// Poisson short-flow background traffic sharing the tree's links
    /// (`None` for the static paper scenarios).
    pub bg_load: Option<BackgroundLoad>,
}

impl TreeScenario {
    /// Build, run and measure.
    pub fn run(&self) -> ScenarioResult {
        self.build().run(self)
    }

    /// Build the world without running it (used by tracing experiments).
    pub fn build(&self) -> ScenarioWorld {
        assert!(self.rla_sessions >= 1, "need at least one RLA session");
        assert!(self.warmup < self.duration, "warmup must precede the end");

        let queue = self.gateway.queue_config();
        let mut engine = Engine::new(self.seed);
        let tree = build_tree(&mut engine, self.case, &queue);

        // Partition along the link delays before any agent or event
        // exists. The θ-partition (the tree's 5 ms/100 ms propagation
        // delays all clear the default threshold, so every node is its own
        // region) fixes the identity layer — per-region RNG streams, uid
        // tags and digest lanes — and lets every cross-region hop file its
        // arrival when transmission starts.
        engine.partition(None);

        // Multicast receiver nodes: every leaf, plus the G3 gateways for
        // figure 10. TCP connections terminate at the *leaves only* — the
        // paper's figure-10 WTCP and BTCP are nearly equal, which rules
        // out 30 ms-RTT TCP flows on the congested links.
        let mut receiver_nodes = tree.leaves.clone();
        if self.case.g3_receivers {
            receiver_nodes.extend(tree.g3.iter().copied());
        }
        let tcp_nodes = tree.leaves.clone();

        // One TCP connection from S to every leaf.
        let tcp_cfg = TcpConfig::default();
        let mut tcp_receivers = Vec::new();
        let mut tcp_senders = Vec::new();
        for &node in &tcp_nodes {
            let rx = engine.add_agent(node, Box::new(TcpReceiver::new(tcp_cfg.ack_size)));
            // The registry builds the right sender for the configured
            // variant — adding a controller never touches this site.
            let tx = engine.add_agent(tree.root, self.tcp_cc.build_sender(rx, tcp_cfg.clone()));
            tcp_receivers.push(rx);
            tcp_senders.push(tx);
        }

        // RLA session(s): sender at S, receivers at every receiver node.
        let rla_cfg = self.rla_config.clone();
        let mut rla_senders = Vec::new();
        let mut rla_receivers: Vec<Vec<AgentId>> = Vec::new();
        for _ in 0..self.rla_sessions {
            let group = engine.new_group();
            let mut rxs = Vec::new();
            for &node in &receiver_nodes {
                let rx = engine.add_agent(node, Box::new(McastReceiver::new(rla_cfg.ack_size)));
                engine.join_group(group, rx);
                rxs.push(rx);
            }
            let tx = engine.add_agent(tree.root, Box::new(RlaSender::new(group, rla_cfg.clone())));
            rla_senders.push(tx);
            rla_receivers.push(rxs);
        }

        engine.compute_routes();
        // Each session's group was created in order 0..rla_sessions; build
        // every source tree rooted at S.
        for gid in 0..self.rla_sessions {
            engine.build_group_tree(netsim::id::GroupId::from(gid), tree.root);
        }

        // Phase-effect elimination with drop-tail gateways: uniform random
        // per-packet processing overhead up to the bottleneck service time
        // (§3.1). RED gateways don't need it.
        if matches!(self.gateway, GatewayKind::DropTail) {
            let service = SimDuration::from_nanos(tx_nanos(
                rla_cfg.packet_size,
                crate::tree::pps_to_bps(self.case.bottleneck_pps()),
            ));
            for &a in tcp_senders.iter().chain(rla_senders.iter()) {
                engine.set_send_overhead(a, service);
            }
        }

        // Host processing jitter at every receiver, both gateway types.
        // Without it the perfectly symmetric tree delivers each multicast
        // packet to all 27 leaves at the same instant; the 27 SACKs then
        // hit the 20-packet reverse buffers as one burst and the engine's
        // deterministic tie-breaking starves the *same* receivers' acks
        // forever — a phase effect no real host exhibits. A couple of
        // milliseconds of uniform jitter (small against the 230 ms RTT)
        // restores the asynchrony real end systems have.
        let ack_jitter = SimDuration::from_millis(2);
        for &a in tcp_receivers.iter() {
            engine.set_send_overhead(a, ack_jitter);
        }
        for rxs in &rla_receivers {
            for &a in rxs {
                engine.set_send_overhead(a, ack_jitter);
            }
        }

        // Staggered deterministic starts to avoid synchronized slow starts.
        let mut t = SimTime::ZERO;
        for &a in tcp_senders.iter().chain(rla_senders.iter()) {
            engine.start_agent_at(a, t);
            t += SimDuration::from_millis(173);
        }

        // Dynamic-scenario machinery, built only when the scenario has
        // scheduled events or background load. A static scenario adds no
        // agents beyond this point and takes none of the executor paths,
        // so its trace digest and registry stay byte-identical to the
        // pre-event-layer code.
        let dynamics = (!self.events.is_empty() || self.bg_load.is_some()).then(|| {
            let mut bg_sinks: Vec<Option<AgentId>> = vec![None; tree.leaves.len()];
            let bg_source = self.bg_load.as_ref().map(|load| {
                let sinks: Vec<AgentId> = (0..tree.leaves.len())
                    .map(|leaf| bg_sink(&mut engine, &tree, &mut bg_sinks, leaf))
                    .collect();
                let src = engine.add_agent(
                    tree.root,
                    Box::new(PoissonFlowSource::new(
                        BackgroundConfig::new(load.flows_per_sec, load.mean_flow_packets),
                        sinks,
                    )),
                );
                engine.start_agent_at(src, SimTime::ZERO);
                src
            });
            // Burst agents for scheduled StartBackgroundFlow commands are
            // created now, in schedule order (deterministic agent ids),
            // and fired by the executor at event time.
            let mut events = self.events.clone();
            events.sort_by_key(|ev| ev.at);
            let pending = events
                .iter()
                .map(|ev| {
                    let burst = match ev.command {
                        EventCommand::StartBackgroundFlow { leaf, packets } => {
                            let sink = bg_sink(&mut engine, &tree, &mut bg_sinks, leaf);
                            Some(engine.add_agent(
                                tree.root,
                                Box::new(BurstSource::new(sink, packets, rla_cfg.packet_size)),
                            ))
                        }
                        _ => None,
                    };
                    PendingEvent {
                        at: SimTime::ZERO + ev.at,
                        command: ev.command.clone(),
                        burst,
                    }
                })
                .collect();
            let active_rx = rla_receivers
                .iter()
                .map(|rxs| {
                    rxs.iter()
                        .take(tree.leaves.len())
                        .map(|&a| Some(a))
                        .collect()
                })
                .collect();
            Dynamics {
                pending,
                ack_size: rla_cfg.ack_size,
                active_rx,
                bg_source,
                counters: ChurnCounters::default(),
                degraded: Vec::new(),
            }
        });

        ScenarioWorld {
            engine,
            tree,
            tcp_senders,
            tcp_receivers,
            rla_senders,
            rla_receivers,
            dynamics,
            sampler: None,
        }
    }
}

/// Seconds since simulation start, for event-error messages.
fn span_secs(now: SimTime) -> f64 {
    now.saturating_since(SimTime::ZERO).as_secs_f64()
}

/// Get-or-create the background-traffic sink at `leaf`. Sinks are shared
/// between the Poisson aggregate and scheduled bursts, and only exist in
/// dynamic scenarios.
fn bg_sink(
    engine: &mut Engine,
    tree: &TertiaryTree,
    sinks: &mut [Option<AgentId>],
    leaf: usize,
) -> AgentId {
    if let Some(a) = sinks[leaf] {
        return a;
    }
    let a = engine.add_agent(tree.leaves[leaf], Box::new(Sink::default()));
    sinks[leaf] = Some(a);
    a
}

/// What the event executor has done so far (the `net.churn.*` block).
#[derive(Debug, Default)]
struct ChurnCounters {
    joins: u64,
    leaves: u64,
    link_degrades: u64,
    link_restores: u64,
    bg_bursts: u64,
}

/// One scheduled command, resolved to engine terms at build time.
#[derive(Debug)]
struct PendingEvent {
    at: SimTime,
    command: EventCommand,
    /// The pre-created burst agent for `StartBackgroundFlow` commands.
    burst: Option<AgentId>,
}

/// Executor state for dynamic scenarios; `None` on static runs.
#[derive(Debug)]
struct Dynamics {
    /// Events not yet applied, in time-then-schedule (FIFO) order.
    pending: VecDeque<PendingEvent>,
    /// Ack size for receivers constructed by `ReceiverJoin`.
    ack_size: u32,
    /// The live receiver at `[session][leaf]`, `None` while departed.
    active_rx: Vec<Vec<Option<AgentId>>>,
    /// The Poisson background aggregate, if configured.
    bg_source: Option<AgentId>,
    counters: ChurnCounters,
    /// Every link ever degraded, with its channel (for `loss_injected`).
    degraded: Vec<(String, ChannelId)>,
}

/// The timeline slot: a caller-built recorder and the series it feeds.
struct Sampler {
    rec: TimelineRecorder,
    /// One series per RLA sender, then per TCP sender.
    flows: Vec<SeriesId>,
    /// One series per congested channel.
    channels: Vec<(SeriesId, ChannelId)>,
    /// The next sampling instant; `None` outside the measurement window.
    next: Option<SimTime>,
}

/// A built scenario: the engine plus the agent handles needed to reset and
/// read statistics.
pub struct ScenarioWorld {
    /// The simulator.
    pub engine: Engine,
    /// The topology handles.
    pub tree: TertiaryTree,
    /// TCP senders at the root, in receiver-node order.
    pub tcp_senders: Vec<AgentId>,
    /// TCP receivers, in receiver-node order.
    pub tcp_receivers: Vec<AgentId>,
    /// RLA sender(s).
    pub rla_senders: Vec<AgentId>,
    /// RLA receivers per session, in receiver-node order.
    pub rla_receivers: Vec<Vec<AgentId>>,
    /// Event-executor state; `None` for static scenarios.
    dynamics: Option<Dynamics>,
    /// The attached timeline, if any.
    sampler: Option<Sampler>,
}

impl ScenarioWorld {
    /// Run warmup + measurement and collect the rows. Scheduled events
    /// are applied, and an attached timeline sampled from the statistics
    /// reset to the end, on the way (see [`run_span`](Self::run_span)).
    pub fn run(&mut self, scenario: &TreeScenario) -> ScenarioResult {
        self.run_span(SimTime::ZERO + scenario.warmup);
        self.reset_stats();
        if let Some(s) = self.sampler.as_mut() {
            s.next = Some(self.engine.now());
        }
        self.run_span(SimTime::ZERO + scenario.duration);
        self.collect(scenario)
    }

    /// Advance the engine to `end`, applying scheduled events and taking
    /// timeline samples on the way — the one loop that moves a scenario.
    ///
    /// The engine is stepped with plain `run_until` calls to the nearest
    /// of the next event timestamp and the next sampling instant (while a
    /// timeline is armed). That processes exactly the same packet events
    /// at the same simulated times as one uninterrupted call, so an
    /// observed run's digest and manifest are the unobserved run's. A
    /// static, unobserved span is a single `run_until(end)`. Events
    /// sharing a timestamp apply in schedule order (FIFO), mirroring the
    /// engine calendar's own tie-break, before a sample at their instant
    /// is taken.
    pub fn run_span(&mut self, end: SimTime) {
        loop {
            let now = self.engine.now();
            while let Some(due) = self
                .dynamics
                .as_mut()
                .and_then(|d| d.pending.pop_front_if(|p| p.at <= now))
            {
                self.apply_event(due);
            }
            self.sample_due(end);
            if now >= end {
                return;
            }
            let stop = self
                .dynamics
                .as_ref()
                .and_then(|d| d.pending.front())
                .map_or(end, |p| p.at.min(end));
            let target = self
                .sampler
                .as_ref()
                .and_then(|s| s.next)
                .map_or(stop, |t| t.min(stop));
            self.engine.run_until(target);
        }
    }

    /// Apply one scheduled command at the current simulated time.
    fn apply_event(&mut self, ev: PendingEvent) {
        let now = self.engine.now();
        match &ev.command {
            EventCommand::ReceiverJoin { session, leaf } => {
                self.apply_join(*session, *leaf, now);
            }
            EventCommand::ReceiverLeave { session, leaf } => {
                self.apply_leave(*session, *leaf, now);
            }
            EventCommand::LinkDegrade {
                link,
                loss,
                bandwidth_pps,
            } => {
                let c = self.channel_for(link);
                let bw = bandwidth_pps.map(pps_to_bps);
                self.engine.world_mut().channel_mut(c).degrade(*loss, bw);
                let d = self.dynamics.as_mut().expect("dynamic scenario");
                if !d.degraded.iter().any(|(l, _)| l == link) {
                    d.degraded.push((link.clone(), c));
                }
                d.counters.link_degrades += 1;
            }
            EventCommand::LinkRestore { link } => {
                let c = self.channel_for(link);
                assert!(
                    self.engine.world().channel(c).degraded,
                    "LinkRestore at {:.3}s: link {link:?} is not degraded — \
                     schedule a LinkDegrade first",
                    span_secs(now)
                );
                self.engine.world_mut().channel_mut(c).restore();
                let d = self.dynamics.as_mut().expect("dynamic scenario");
                d.counters.link_restores += 1;
            }
            EventCommand::StartBackgroundFlow { .. } => {
                let burst = ev.burst.expect("burst agent pre-created at build");
                self.engine.start_agent_at(burst, now);
                let d = self.dynamics.as_mut().expect("dynamic scenario");
                d.counters.bg_bursts += 1;
            }
        }
    }

    /// A joining receiver enters at the sender's *current* sequence: its
    /// cumulative ack starts at `next_seq`, and the sender's fresh
    /// scoreboard for it is pre-advanced to the same point, so in-flight
    /// packets below it (which the joiner may never see) can never open a
    /// hole that would freeze the session's `min_last_ack`.
    fn apply_join(&mut self, session: usize, leaf: usize, now: SimTime) {
        let d = self.dynamics.as_ref().expect("dynamic scenario");
        assert!(
            d.active_rx[session][leaf].is_none(),
            "ReceiverJoin at {:.3}s: session {session} already has a live receiver \
             at leaf {leaf} — schedule a ReceiverLeave first",
            span_secs(now)
        );
        let ack_size = d.ack_size;
        let sender = self.rla_senders[session];
        let started = self
            .engine
            .agent_as::<RlaSender>(sender)
            .expect("rla sender")
            .receiver_count()
            > 0;
        let next_seq = self
            .engine
            .agent_as::<RlaSender>(sender)
            .expect("rla sender")
            .next_seq();
        let rx = self.engine.add_agent(
            self.tree.leaves[leaf],
            Box::new(McastReceiver::joining_at(next_seq, ack_size)),
        );
        self.engine
            .set_send_overhead(rx, SimDuration::from_millis(2));
        self.engine.join_group(GroupId::from(session), rx);
        self.engine
            .build_group_tree(GroupId::from(session), self.tree.root);
        if started {
            self.engine
                .agent_as_mut::<RlaSender>(sender)
                .expect("rla sender")
                .add_receiver(rx, now);
        }
        let d = self.dynamics.as_mut().expect("dynamic scenario");
        d.active_rx[session][leaf] = Some(rx);
        d.counters.joins += 1;
        // Keep the handle so reset_stats touches the joiner too.
        self.rla_receivers[session].push(rx);
    }

    /// The departing receiver is pruned from the distribution tree and
    /// detached from the sender's control loop.
    fn apply_leave(&mut self, session: usize, leaf: usize, now: SimTime) {
        let d = self.dynamics.as_ref().expect("dynamic scenario");
        let rx = d.active_rx[session][leaf].unwrap_or_else(|| {
            panic!(
                "ReceiverLeave at {:.3}s: session {session} has no live receiver \
                 at leaf {leaf}",
                span_secs(now)
            )
        });
        let live = d.active_rx[session].iter().flatten().count();
        assert!(
            live > 1,
            "ReceiverLeave at {:.3}s: leaf {leaf} is session {session}'s last \
             receiver — a session cannot run empty",
            span_secs(now)
        );
        let left = self.engine.leave_group(GroupId::from(session), rx);
        assert!(left, "receiver {rx:?} was not in group {session}");
        self.engine
            .build_group_tree(GroupId::from(session), self.tree.root);
        let sender = self.rla_senders[session];
        let s = self
            .engine
            .agent_as_mut::<RlaSender>(sender)
            .expect("rla sender");
        if s.receiver_count() > 0 {
            s.remove_receiver(rx);
        }
        let d = self.dynamics.as_mut().expect("dynamic scenario");
        d.active_rx[session][leaf] = None;
        d.counters.leaves += 1;
    }

    /// Resolve a paper-style link label (`L1`, `L2.1`, `L4.12`), which
    /// [`ScenarioSpec::build`](crate::spec::ScenarioSpec::build) checked.
    fn channel_for(&self, link: &str) -> ChannelId {
        self.tree
            .channel_by_label(link)
            .expect("link labels are validated when the scenario is built")
    }

    /// Install a pcap export tracer: every `TxStart` event is written,
    /// as it happens, as one capture record of `<dir>/<stem>.pcap`. The
    /// returned handle is also held by the engine; borrow it after the
    /// run to [`finish`] — which reports a write error the run could not
    /// — and read the record count. Panics with the knob named if the
    /// capture file cannot be created — an export silently going missing
    /// would defeat the point of asking for one.
    ///
    /// [`finish`]: PcapTracer::finish
    pub fn install_pcap(&mut self, opts: &PcapOptions, stem: &str) -> Rc<RefCell<PcapTracer>> {
        let path = opts.dir.join(format!("{stem}.pcap"));
        let tracer = PcapTracer::create(&path, opts.snaplen)
            .unwrap_or_else(|e| panic!("RLA_PCAP: cannot create {}: {e}", path.display()));
        let tracer = Rc::new(RefCell::new(tracer));
        self.engine.set_tracer(tracer.clone());
        tracer
    }

    /// Attach a timeline: [`run`](Self::run) samples every flow and every
    /// congested channel into `rec` each `rec.period`, from the statistics
    /// reset to the run's end, where the last sample is taken. `rec` must
    /// already stream ([`TimelineRecorder::stream_to`]): a recorder keeps
    /// no samples, and the first one taken without a stream panics.
    pub fn attach_timeline(&mut self, mut rec: TimelineRecorder) {
        let mut flows = Vec::new();
        for (i, &a) in self.rla_senders.iter().enumerate() {
            let s: &RlaSender = self.engine.agent_as(a).expect("rla sender");
            flows.push(rec.add_flow(format!("rla.{i}"), s.probe_kind()));
        }
        for (i, &a) in self.tcp_senders.iter().enumerate() {
            flows.push(rec.add_flow(format!("tcp.{i}"), self.tcp_sender(a).probe_kind()));
        }
        let channels = self
            .tree
            .congested_channels()
            .into_iter()
            .map(|(label, c)| (rec.add_channel(format!("chan.{label}")), c))
            .collect();
        self.sampler = Some(Sampler {
            rec,
            flows,
            channels,
            next: None,
        });
    }

    /// Detach the timeline. Its samples are in its stream, not in it:
    /// [`TimelineRecorder::finish_stream`] writes the last instant and
    /// reports any I/O error the run swallowed.
    pub fn take_timeline(&mut self) -> Option<TimelineRecorder> {
        self.sampler.take().map(|s| s.rec)
    }

    /// [`run`](Self::run) with a timeline attached that samples every
    /// `opts.sample_period` and streams to `<dir>/<stem>.timeline.jsonl`
    /// (written per sampling instant, whole lines), so `tail -f` and
    /// `rla_top` follow the run live, one sampling period behind.
    pub fn run_with_telemetry_streamed(
        &mut self,
        scenario: &TreeScenario,
        opts: &TelemetryOptions,
        stem: &str,
    ) -> (ScenarioResult, TimelineRecorder) {
        let mut rec = TimelineRecorder::new(opts.sample_period);
        rec.stream_to(&opts.dir, stem, opts.format)
            .unwrap_or_else(|e| {
                panic!(
                    "cannot stream the timeline into {}: {e}",
                    opts.dir.display()
                )
            });
        self.attach_timeline(rec);
        let result = self.run(scenario);
        let mut rec = self.take_timeline().expect("attached above");
        rec.finish_stream()
            .unwrap_or_else(|e| panic!("timeline stream into {} failed: {e}", opts.dir.display()));
        (result, rec)
    }

    /// Take the armed timeline's sample if one is due now — one per
    /// series — and schedule the next a period later, clamped to `end`.
    fn sample_due(&mut self, end: SimTime) {
        let now = self.engine.now();
        let Some(s) = self.sampler.as_mut().filter(|s| s.next == Some(now)) else {
            return;
        };
        let engine = &self.engine;
        let rla = self.rla_senders.iter().map(|&a| {
            let rla: &RlaSender = engine.agent_as(a).expect("rla sender");
            rla.flow_sample()
        });
        let tcp = self.tcp_senders.iter().map(|&a| {
            let tcp: &TcpSender = engine.agent_as(a).expect("tcp sender");
            tcp.flow_sample()
        });
        for (&sid, sample) in s.flows.iter().zip(rla.chain(tcp)) {
            s.rec.record_flow(sid, now, sample);
        }
        for &(sid, c) in &s.channels {
            let ch = engine.world().channel(c);
            let sample = ChannelSample {
                qlen: ch.queue.len(),
                red_avg: ch.queue.red_avg(),
            };
            s.rec.record_channel(sid, now, sample);
        }
        s.next = (now < end).then(|| (now + s.rec.period).min(end));
    }

    /// A TCP sender of any variant (one agent type serves them all).
    fn tcp_sender(&self, a: AgentId) -> &TcpSender {
        self.engine.agent_as(a).expect("tcp sender")
    }

    /// Reset every agent's statistics window (end of warmup).
    pub fn reset_stats(&mut self) {
        let now = self.engine.now();
        for &a in &self.tcp_senders {
            self.engine
                .agent_as_mut::<TcpSender>(a)
                .expect("tcp sender")
                .reset_stats(now);
        }
        for &a in &self.tcp_receivers {
            self.engine
                .agent_as_mut::<TcpReceiver>(a)
                .expect("tcp receiver")
                .reassembly
                .stats = Default::default();
        }
        for &a in &self.rla_senders {
            self.engine
                .agent_as_mut::<RlaSender>(a)
                .expect("rla sender")
                .reset_stats(now);
        }
        for &a in self.rla_receivers.iter().flatten() {
            self.engine
                .agent_as_mut::<McastReceiver>(a)
                .expect("rla receiver")
                .reassembly
                .stats = Default::default();
        }
    }

    /// Extract the per-flow rows at the current time.
    pub fn collect(&self, scenario: &TreeScenario) -> ScenarioResult {
        let now = self.engine.now();
        let rla = self
            .rla_senders
            .iter()
            .map(|&a| {
                let s: &RlaSender = self.engine.agent_as(a).expect("rla sender");
                RlaRow {
                    throughput_pps: s.stats.throughput_pps(now),
                    cwnd_avg: s.stats.cwnd_avg.average(now),
                    rtt_avg: s.stats.rtt.mean(),
                    cong_signals: s.stats.cong_signals,
                    cong_signals_per_receiver: s.stats.cong_signals_per_receiver.clone(),
                    window_cuts: s.stats.window_cuts(),
                    forced_cuts: s.stats.forced_cuts,
                    timeouts: s.stats.timeouts,
                    retransmits: s.stats.retransmits_multicast + s.stats.retransmits_unicast,
                }
            })
            .collect();
        let tcp = self
            .tcp_senders
            .iter()
            .enumerate()
            .map(|(i, &a)| {
                let stats = &self.tcp_sender(a).stats;
                TcpRow {
                    receiver_index: i,
                    throughput_pps: stats.throughput_pps(now),
                    cwnd_avg: stats.cwnd_avg.average(now),
                    rtt_avg: stats.rtt.mean(),
                    window_cuts: stats.total_cuts(),
                    timeouts: stats.timeouts,
                }
            })
            .collect();
        ScenarioResult {
            case_label: scenario.case.label(),
            gateway: scenario.gateway,
            congested_leaves: scenario.case.congested_leaves(),
            measured_secs: now
                .saturating_since(SimTime::ZERO + scenario.warmup)
                .as_secs_f64(),
            seed: scenario.seed,
            trace_digest: self.engine.trace_digest().value(),
            trace_events: self.engine.trace_digest().events(),
            registry: self.registry_snapshot(),
            events: scenario.events.clone(),
            rla,
            tcp,
        }
    }

    /// Every metric block of the run, exported through each block's
    /// `export` into one `telemetry::Registry` and snapshotted: per-flow
    /// sender statistics, the congested channels' buffer statistics,
    /// network-wide channel totals, and the engine's event counters.
    pub fn registry_snapshot(&self) -> telemetry::Snapshot {
        let now = self.engine.now();
        let mut reg = telemetry::Registry::new();
        for (i, &a) in self.rla_senders.iter().enumerate() {
            let s: &RlaSender = self.engine.agent_as(a).expect("rla sender");
            s.stats.export(&mut reg, &format!("rla.{i}"), now);
        }
        for (i, &a) in self.tcp_senders.iter().enumerate() {
            self.tcp_sender(a)
                .stats
                .export(&mut reg, &format!("tcp.{i}"), now);
        }
        for (label, c) in self.tree.congested_channels() {
            telemetry::registry::export_channel_stats(
                &mut reg,
                &format!("chan.{label}"),
                &self.engine.world().channel(c).stats,
                now,
            );
        }

        // Network-wide totals over every channel.
        let world = self.engine.world();
        let mut net = [0u64; 5];
        for i in 0..world.channel_count() {
            let st = &world.channel(ChannelId(i as u32)).stats;
            net[0] += st.offered;
            net[1] += st.accepted;
            net[2] += st.transmitted;
            net[3] += st.queue_drops();
            net[4] += st.fault_drops;
        }
        reg.record_count("net.offered", net[0]);
        reg.record_count("net.accepted", net[1]);
        reg.record_count("net.transmitted", net[2]);
        reg.record_count("net.queue_drops", net[3]);
        reg.record_count("net.fault_drops", net[4]);

        let d = self.engine.trace_digest();
        reg.record_count("engine.enqueues", d.enqueues);
        reg.record_count("engine.drops", d.drops);
        reg.record_count("engine.tx_starts", d.tx_starts);
        reg.record_count("engine.arrivals", d.arrivals);
        reg.record_count("engine.deliveries", d.deliveries);

        // The churn/background block exists only on dynamic runs, so a
        // static run's registry (and manifest) stays byte-identical, and
        // `rla_diff` flags static-vs-dynamic as added-key drift.
        if let Some(dy) = &self.dynamics {
            reg.record_count("net.churn.joins", dy.counters.joins);
            reg.record_count("net.churn.leaves", dy.counters.leaves);
            reg.record_count("net.churn.link_degrades", dy.counters.link_degrades);
            reg.record_count("net.churn.link_restores", dy.counters.link_restores);
            reg.record_count("net.churn.bg_bursts", dy.counters.bg_bursts);
            let (flows, packets) = dy
                .bg_source
                .map(|a| {
                    let s: &PoissonFlowSource = self.engine.agent_as(a).expect("bg source");
                    (s.stats.flows, s.stats.packets)
                })
                .unwrap_or((0, 0));
            reg.record_count("net.churn.bg_flows", flows);
            reg.record_count("net.churn.bg_packets", packets);
            for (label, c) in &dy.degraded {
                reg.record_count(
                    format!("chan.{label}.loss_injected"),
                    self.engine.world().channel(*c).stats.fault_drops,
                );
            }
        }
        reg.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ScenarioSpec;

    fn quick(case: CongestionCase, gateway: GatewayKind) -> ScenarioResult {
        ScenarioSpec::paper(case)
            .with_gateway(gateway)
            .with_duration(SimDuration::from_secs(120))
            .run()
    }

    #[test]
    fn case3_droptail_is_essentially_fair() {
        let r = quick(CongestionCase::Case3AllLeaves, GatewayKind::DropTail);
        let rla = &r.rla[0];
        let wtcp = r.worst_tcp().expect("tcp rows");
        // Even in a short run the RLA must sit within the Theorem II
        // bounds against the worst TCP.
        let bounds = analysis::FairnessBounds::theorem2_droptail(27);
        assert!(
            bounds.contains(rla.throughput_pps, wtcp.throughput_pps),
            "rla {} vs wtcp {}",
            rla.throughput_pps,
            wtcp.throughput_pps
        );
        // Soft bottleneck share is 100 pkt/s; nothing should exceed the
        // 200 pkt/s leaf links.
        assert!(rla.throughput_pps < 205.0);
        assert!(wtcp.throughput_pps > 20.0, "TCP must not be shut out");
    }

    #[test]
    fn case1_red_is_close_to_absolute() {
        let r = quick(CongestionCase::Case1RootLink, GatewayKind::Red);
        let rla = &r.rla[0];
        let avg_tcp = r.avg_tcp_throughput();
        let ratio = rla.throughput_pps / avg_tcp;
        // The paper reports ~118 vs ~85-90 (ratio 1.3-1.4) for case 1 RED;
        // accept a generous band for a short run.
        assert!(
            (0.5..4.0).contains(&ratio),
            "ratio {ratio} (rla {}, tcp {avg_tcp})",
            rla.throughput_pps
        );
    }

    #[test]
    fn rtt_matches_topology() {
        let r = quick(CongestionCase::Case3AllLeaves, GatewayKind::DropTail);
        // Base leaf RTT is 230 ms; with queueing it sits somewhat above.
        let rtt = r.rla[0].rtt_avg;
        assert!(
            (0.20..0.5).contains(&rtt),
            "RLA rtt {rtt} should be a bit above 230 ms"
        );
        let tcp_rtt = r.tcp[0].rtt_avg;
        assert!((0.20..0.5).contains(&tcp_rtt), "TCP rtt {tcp_rtt}");
    }

    /// Run `scenario` with a timeline sampled every 60 s streaming into
    /// `name`'s temp dir; returns the result and the sample times the file
    /// holds per series, in registration order.
    fn sampled(scenario: &TreeScenario, name: &str) -> (ScenarioResult, Vec<(String, Vec<f64>)>) {
        let dir = std::env::temp_dir().join("rla_scenario_timelines");
        let mut rec = TimelineRecorder::new(SimDuration::from_secs(60));
        let path = rec
            .stream_to(&dir, name, telemetry::TimelineFormat::Jsonl)
            .expect("open the timeline");
        let mut world = scenario.build();
        world.attach_timeline(rec);
        let r = world.run(scenario);
        let mut rec = world.take_timeline().expect("attached");
        rec.finish_stream().expect("write the timeline");
        let mut times: Vec<(String, Vec<f64>)> = rec
            .series()
            .iter()
            .map(|s| (s.name.clone(), Vec::new()))
            .collect();
        for line in std::fs::read_to_string(&path).expect("read back").lines() {
            let json = crate::manifest::Json::parse(line).expect("a JSON line");
            let series = json.get("series").and_then(|v| v.as_str()).expect("series");
            let t = json.get("t").and_then(|v| v.as_f64()).expect("t");
            let (_, ts) = times.iter_mut().find(|(n, _)| n == series).expect("known");
            ts.push(t);
        }
        assert_eq!(
            times.iter().map(|(_, ts)| ts.len()).sum::<usize>(),
            rec.sample_count()
        );
        (r, times)
    }

    #[test]
    fn telemetry_emits_a_final_sample_at_the_end_of_partial_periods() {
        // duration = 2.5 × sampling period: `run_span` must take one last
        // sample at `end` even though `end` is not on a period boundary —
        // a truncated timeline would silently hide everything after the
        // last full tick.
        let scenario = ScenarioSpec::paper(CongestionCase::Case1RootLink)
            .with_duration(SimDuration::from_secs(150))
            .build();
        let (_, series) = sampled(&scenario, "partial_periods");
        assert!(!series.is_empty());
        for (name, times) in series {
            // Warmup ends at 20 s; full ticks at 80 s and 140 s; the
            // final partial tick lands exactly on end-of-run.
            assert_eq!(times, vec![20.0, 80.0, 140.0, 150.0], "series {name}");
        }
    }

    #[test]
    fn canonical_churn_scenario_executes_its_schedule() {
        use telemetry::MetricValue;
        let r = crate::events::canonical_churn_spec().run();
        let count = |key: &str| match r.registry.get(key) {
            Some(MetricValue::Counter(v)) => v,
            other => panic!("{key} missing or wrong kind: {other:?}"),
        };
        assert_eq!(count("net.churn.joins"), 1);
        assert_eq!(count("net.churn.leaves"), 1);
        assert_eq!(count("net.churn.link_degrades"), 1);
        assert_eq!(count("net.churn.link_restores"), 1);
        assert_eq!(count("net.churn.bg_bursts"), 0);
        // The degraded congested link carried traffic while lossy.
        assert!(count("chan.L2.1.loss_injected") > 0, "injected loss");
        // The manifest entry records the schedule.
        assert_eq!(r.events.len(), 4);
        let entry = crate::manifest::scenario_entry(&r).pretty();
        assert!(entry.contains(r#""events""#), "{entry}");
        assert!(entry.contains(r#""command": "link_degrade""#), "{entry}");
    }

    #[test]
    fn canonical_bgload_scenario_injects_cross_traffic() {
        use telemetry::MetricValue;
        let r = crate::events::canonical_bgload_spec().run();
        let count = |key: &str| match r.registry.get(key) {
            Some(MetricValue::Counter(v)) => v,
            other => panic!("{key} missing or wrong kind: {other:?}"),
        };
        assert_eq!(count("net.churn.bg_bursts"), 1);
        assert!(count("net.churn.bg_flows") > 0, "Poisson flows arrived");
        assert!(
            count("net.churn.bg_packets") >= count("net.churn.bg_flows"),
            "every flow is at least one packet"
        );
        // Static registry keys are still there alongside the churn block.
        assert!(r.registry.get("net.offered").is_some());
    }

    #[test]
    fn membership_event_on_a_sample_boundary_yields_exactly_one_sample() {
        // Extends the final-sample pin above: a leave scheduled exactly on
        // the 80 s telemetry boundary must neither drop that sample nor
        // double it — the event applies when the engine reaches 80 s, then
        // the loop takes its one sample.
        let scenario = ScenarioSpec::paper(CongestionCase::Case1RootLink)
            .with_duration(SimDuration::from_secs(150))
            .with_event(ScenarioEvent::leave(80.0, 0, 0))
            .build();
        let (r, series) = sampled(&scenario, "event_on_boundary");
        for (name, times) in series {
            assert_eq!(times, vec![20.0, 80.0, 140.0, 150.0], "series {name}");
        }
        use telemetry::MetricValue;
        assert_eq!(
            r.registry.get("net.churn.leaves"),
            Some(MetricValue::Counter(1))
        );
    }

    #[test]
    fn full_loss_degrade_blacks_out_a_link_until_restore() {
        use telemetry::MetricValue;
        let r = ScenarioSpec::paper(CongestionCase::Case5OneLevel2)
            .with_duration(SimDuration::from_secs(60))
            .with_event(ScenarioEvent::degrade(25.0, "L4.1", 1.0, None))
            .with_event(ScenarioEvent::restore(30.0, "L4.1"))
            .run();
        match r.registry.get("chan.L4.1.loss_injected") {
            Some(MetricValue::Counter(v)) => {
                assert!(v > 0, "a 100% lossy leaf link must drop traffic")
            }
            other => panic!("loss_injected missing: {other:?}"),
        }
        // The session survives the 5 s blackout of one leaf.
        assert!(r.rla[0].throughput_pps > 0.0);
    }

    #[test]
    #[should_panic(expected = "is not degraded")]
    fn restore_without_degrade_is_rejected_with_the_link_named() {
        let _ = ScenarioSpec::paper(CongestionCase::Case5OneLevel2)
            .with_duration(SimDuration::from_secs(60))
            .with_event(ScenarioEvent::restore(25.0, "L2.1"))
            .run();
    }

    #[test]
    #[should_panic(expected = "no live receiver")]
    fn leaving_twice_from_the_same_leaf_is_rejected() {
        let _ = ScenarioSpec::paper(CongestionCase::Case5OneLevel2)
            .with_duration(SimDuration::from_secs(60))
            .with_event(ScenarioEvent::leave(25.0, 0, 3))
            .with_event(ScenarioEvent::leave(26.0, 0, 3))
            .run();
    }

    #[test]
    fn two_sessions_split_evenly() {
        let r = ScenarioSpec::paper(CongestionCase::Case3AllLeaves)
            .with_sessions(2)
            .with_duration(SimDuration::from_secs(150))
            .run();
        assert_eq!(r.rla.len(), 2);
        let (a, b) = (r.rla[0].throughput_pps, r.rla[1].throughput_pps);
        let ratio = a.max(b) / a.min(b).max(1e-9);
        assert!(ratio < 2.0, "sessions {a} vs {b}");
    }
}
