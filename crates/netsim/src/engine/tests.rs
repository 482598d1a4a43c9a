//! Unit tests of the engine: packets end to end, timing, drops, routing,
//! multicast, timers, the partition, the frozen topology and the tracer
//! slot.

use super::*;
use crate::agent::Sink;
use crate::packet::{Dest, Packet};
use crate::trace::TraceEvent;
use crate::wire::Segment;

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

#[test]
fn an_unpartitioned_hop_costs_one_event_and_settles_its_completion() {
    // One packet over one hop of a world that never partitions: its
    // arrival is filed when the transmission starts, nothing ever waits
    // behind it, and the way out of `run_until` settles the completion.
    let mut e = Engine::new(1);
    let a = e.add_node("a");
    let b = e.add_node("b");
    let q = QueueConfig::paper_droptail();
    let (ab, _) = e.add_link(a, b, 8_000_000, SimDuration::from_millis(10), &q);
    let sink = e.add_agent(b, Box::new(Sink::default()));
    let dest = Dest::Agent(sink);
    let blaster = e.add_agent(
        a,
        Box::new(Blaster {
            dest,
            count: 1,
            size: 1000,
        }),
    );
    e.compute_routes();
    e.start_agent_at(blaster, SimTime::ZERO);
    e.run_until(SimTime::from_secs(1));
    assert_eq!(e.agent_as::<Sink>(sink).unwrap().received, 1);
    assert_eq!(e.world().channel(ab).stats.transmitted, 1);
    let c = e.event_counts();
    assert_eq!((c.tx_complete, c.settled), (0, 1));
    // Start, the injection at a, the arrival at b.
    assert_eq!((c.start, c.arrive), (1, 2));
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
fn regions_that_share_no_link_run_without_epochs() {
    // a -(1ms)- b and a lone c: at θ = 5ms the link merges a and b, so c
    // is a second region that no link reaches. It needs no epochs, and a
    // run across the linked pair repeats its digest.
    let run = || {
        let mut e = Engine::new(3);
        let a = e.add_node("a");
        let b = e.add_node("b");
        e.add_node("c");
        let q = QueueConfig::paper_droptail();
        e.add_link(a, b, 8_000_000, SimDuration::from_millis(1), &q);
        assert_eq!(e.partition(Some(SimDuration::from_millis(5))), 2);
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
        assert_eq!(e.agent_as::<Sink>(sink).unwrap().received, 5);
        e.trace_digest()
    };
    let digest = run();
    assert!(digest.events() > 0);
    assert_eq!(digest, run(), "the digest must repeat");
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
    // A repeated deadline, and one below `now`, dispatch nothing and leave
    // the clock where it was.
    let (mut e, _, _) = partitioned_chain(11);
    e.run_until(SimTime::from_millis(10));
    e.run_until(SimTime::from_millis(10));
    e.run_until(SimTime::from_millis(5));
    assert_eq!(e.now(), SimTime::from_millis(10));
    e.run_until(SimTime::from_secs(2));
    assert_eq!(
        baseline,
        e.trace_digest(),
        "a repeated or past deadline changed the digest"
    );
    // An agent started at `now` between two runs that stop on a barrier:
    // what it schedules at 10 ms belongs to the epoch that *begins* there.
    // With no send jitter, its 2600-byte packet reaches m at 13.6 ms,
    // tying with the first reverse packet (sent at 3 ms, done at 3.6 ms)
    // as it crosses the cut into m, and that epoch decides which goes
    // first. The pin was taken from a run loop that stepped the calendar
    // barrier by barrier; taking each event's epoch from its instant alone
    // (⌈t/L⌉) would key the late agent's schedules in epoch 1 and move it.
    let (mut e, sink_a, sink_b) = partitioned_chain(11);
    for agent in [2, 3] {
        e.set_send_overhead(AgentId(agent), SimDuration::ZERO);
    }
    let late = e.add_agent(
        NodeId(0),
        Box::new(Blaster {
            dest: Dest::Agent(sink_b),
            count: 1,
            size: 2600,
        }),
    );
    e.run_until(SimTime::from_millis(10));
    e.start_agent_at(late, e.now());
    e.run_until(SimTime::from_millis(20));
    e.run_until(SimTime::from_secs(2));
    let received = |e: &Engine, id| e.agent_as::<Sink>(id).unwrap().received;
    assert_eq!((received(&e, sink_a), received(&e, sink_b)), (9, 10));
    let got = e.trace_digest().value();
    assert_eq!(
        got, 0xd395_37e2_d604_0ea0,
        "a start between runs moved: 0x{got:016x}"
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

#[test]
#[should_panic(expected = "the topology freezes at Engine::partition")]
fn a_node_added_after_partition_is_refused() {
    let (mut e, _, _) = partitioned_chain(1);
    e.add_node("late");
}

#[test]
#[should_panic(expected = "the topology freezes at Engine::partition")]
fn a_channel_added_after_a_partition_that_cut_nothing_is_refused() {
    // No link to cut: one region, and still frozen.
    let mut e = Engine::new(1);
    let a = e.add_node("a");
    let b = e.add_node("b");
    assert_eq!(e.partition(None), 1);
    let q = QueueConfig::paper_droptail();
    e.add_channel(a, b, 8_000_000, SimDuration::from_millis(1), &q);
}

#[test]
fn epoch_loads_cover_every_domain() {
    let (mut e, _, _) = partitioned_chain(5);
    e.record_epoch_loads(true);
    e.run_until(SimTime::from_millis(15));
    e.run_until(SimTime::from_millis(100));
    let loads = e.epoch_loads().expect("recording was armed");
    // One row per call, one domain wide, however many epochs (L = 10ms)
    // the call spans.
    assert_eq!(loads.len(), 2);
    assert!(loads.iter().all(|row| row.len() == 1 && row[0] > 0));
    let total: u64 = loads.iter().flatten().sum();
    assert_eq!(total, e.trace_digest().events());
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
    let counters = |d: &TraceDigest| [d.enqueues, d.drops, d.tx_starts, d.arrivals, d.deliveries];
    assert!(d.drops > 0 && d.deliveries > 0, "{:?}", counters(&d));
    assert_eq!(counters(&log.seen), counters(&d));
    assert_eq!(d, bare.trace_digest(), "the tracer moved the digest");
}
