//! One event per hop: lazy completions against the eager model, a
//! `#[cfg(test)]` engine that files every completion when its
//! transmission starts.

use super::*;
use crate::agent::Sink;
use crate::packet::{Dest, Packet};
use crate::queue::RedConfig;
use crate::trace::TraceEvent;
use crate::wire::Segment;

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
    let counters = |d: &TraceDigest| [d.enqueues, d.drops, d.tx_starts, d.arrivals, d.deliveries];
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
    e.world.eager = true;
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
        let (mut e, ab, sink) = lazy_chain(&QueueConfig::paper_droptail(), eager, vec![], bursts);
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

/// One randomly drawn world for the differential property: a random
/// tree (chains and stars included) with mixed link delays, rates,
/// drop-tail and RED buffers and fault injectors, partitioned at a
/// drawn θ so that some hops stay inside a region — or not partitioned
/// at all, one region run without epochs; unicast scripts and one
/// multicast group, bursts on a 250 µs grid so that arrivals,
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
    let theta = [Some(None), Some(Some(SimDuration::from_millis(5))), None];
    if let Some(theta) = theta[next(3) as usize] {
        e.partition(theta);
    }
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
