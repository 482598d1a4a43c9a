//! Property-based cross-crate invariants: random topologies and loads
//! must never violate conservation or routing guarantees.

use bounded_fairness::prelude::*;
use proptest::prelude::*;

/// A random small tree with blaster traffic; checks packet conservation
/// on every channel: offered = accepted + drops; accepted ≈ transmitted +
/// still queued/in service.
fn run_random_tree(
    seed: u64,
    arity: usize,
    depth: usize,
    bandwidth_kbps: u64,
    count: u32,
) -> Result<(), TestCaseError> {
    use netsim::agent::Sink;
    use netsim::topology::{kary_tree, LinkSpec};

    let mut engine = Engine::new(seed);
    let spec = LinkSpec::new(
        bandwidth_kbps * 1000,
        SimDuration::from_millis(5),
        QueueConfig::DropTail { limit: 10 },
    );
    let specs = vec![spec; depth];
    let tree = kary_tree(&mut engine, arity, &specs);
    let group = engine.new_group();
    let sinks: Vec<AgentId> = tree
        .leaves()
        .iter()
        .map(|&leaf| {
            let s = engine.add_agent(leaf, Box::new(Sink::default()));
            engine.join_group(group, s);
            s
        })
        .collect();

    struct Blaster {
        group: GroupId,
        count: u32,
    }
    impl netsim::agent::Agent for Blaster {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            for _ in 0..self.count {
                ctx.send(Dest::Group(self.group), 1000, Segment::Raw);
            }
        }
        fn on_packet(&mut self, _p: Packet, _ctx: &mut Context<'_>) {}
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }
    let blaster = engine.add_agent(tree.root, Box::new(Blaster { group, count }));
    engine.compute_routes();
    engine.build_group_tree(group, tree.root);
    engine.start_agent_at(blaster, SimTime::ZERO);
    engine.run_until(SimTime::from_secs(120));

    // Conservation per channel.
    for i in 0..engine.world().channel_count() {
        let ch = engine.world().channel(netsim::id::ChannelId::from(i));
        prop_assert_eq!(
            ch.stats.offered,
            ch.stats.accepted + ch.stats.queue_drops() + ch.stats.fault_drops,
            "channel admission must partition"
        );
        prop_assert!(
            ch.stats.transmitted <= ch.stats.accepted,
            "cannot transmit more than accepted"
        );
        // After a long quiet period everything accepted has drained.
        prop_assert_eq!(ch.stats.transmitted, ch.stats.accepted);
    }

    // Every sink received the same number of packets, and no more than
    // were sent.
    let first = engine.agent_as::<Sink>(sinks[0]).expect("sink").received;
    prop_assert!(first <= count as u64);
    for &s in &sinks {
        let got = engine.agent_as::<Sink>(s).expect("sink").received;
        // Drops can differ per branch; each sink individually bounded.
        prop_assert!(got <= count as u64);
        let _ = got;
    }
    let _ = first;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn multicast_conservation_on_random_trees(
        seed in 0u64..1000,
        arity in 1usize..4,
        depth in 1usize..4,
        bandwidth_kbps in 100u64..10_000,
        count in 1u32..200,
    ) {
        run_random_tree(seed, arity, depth, bandwidth_kbps, count)?;
    }

    #[test]
    fn pa_window_monotone_decreasing(p1 in 0.0005f64..0.3, p2 in 0.0005f64..0.3) {
        let (lo, hi) = if p1 < p2 { (p1, p2) } else { (p2, p1) };
        prop_assume!(hi - lo > 1e-9);
        prop_assert!(analysis::pa_window(lo) >= analysis::pa_window(hi));
    }

    #[test]
    fn proposition_window_inside_bounds(
        n in 2usize..30,
        p_max in 0.001f64..0.05,
        shrink in 0.05f64..1.0,
    ) {
        // Probabilities between p_max/eta-ish and p_max. (n = 1 is the
        // degenerate case where W *equals* the lower bound — eq. (1) —
        // so the strict Proposition applies from two receivers up.)
        let p: Vec<f64> = (0..n)
            .map(|i| if i == 0 { p_max } else { p_max * shrink })
            .collect();
        let w = analysis::rla_window_independent(&p);
        let b = analysis::proposition_bounds(p_max, n);
        prop_assert!(w > b.lower * (1.0 - 1e-9) && w < b.upper * (1.0 + 1e-9),
            "W={} outside ({}, {}) for n={} p_max={} shrink={}",
            w, b.lower, b.upper, n, p_max, shrink);
    }

    #[test]
    fn lemma_common_beats_independent(n in 2usize..30, p in 0.001f64..0.05) {
        let indep = analysis::rla_window_independent(&vec![p; n]);
        let common = analysis::rla_window_common(p, n);
        prop_assert!(common > indep);
    }

    #[test]
    fn theorem_bounds_ordering(n in 1usize..100) {
        let t1 = FairnessBounds::theorem1_red(n);
        let t2 = FairnessBounds::theorem2_droptail(n);
        prop_assert!(t1.a > t2.a, "RED lower bound is tighter");
        prop_assert!(t1.b <= t2.b, "RED upper bound is tighter");
    }
}

/// One calendar event per uncongested hop: in fig-7 case 1 only L1 is
/// congested, so most transmissions end with nothing waiting behind them
/// and their completion must cost no event. Every digest stays green if a
/// refactor files them all again — this count does not.
#[test]
fn most_case1_completions_are_settled_without_an_event() {
    use bounded_fairness::experiments::{CongestionCase, ScenarioSpec};
    let scenario = ScenarioSpec::paper(CongestionCase::Case1RootLink)
        .with_duration(SimDuration::from_secs(20))
        .build();
    let mut world = scenario.build();
    world.run(&scenario);
    let c = world.engine.event_counts();
    let completions = c.settled + c.tx_complete;
    assert!(completions > 100_000, "only {completions} transmissions");
    assert!(
        2 * c.settled >= completions,
        "{} of {completions} completions settled without an event",
        c.settled
    );
}
