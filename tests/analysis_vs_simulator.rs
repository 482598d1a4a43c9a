//! The §4 analysis against the packet-level simulator: the closed-form
//! window fixed points are checked on a *physical* model — Bernoulli loss
//! injected on real links — rather than the abstract window process.

use bounded_fairness::prelude::*;
use bounded_fairness::rla::McastReceiver;

/// An RLA session over `n` independent star branches, each dropping data
/// with probability `p` (figure 2(a) realized with fault injectors).
/// Returns the time-average congestion window.
fn rla_window_on_bernoulli_star(n: usize, p: f64, secs: u64, seed: u64) -> f64 {
    let mut engine = Engine::new(seed);
    let queue = QueueConfig::DropTail { limit: 1000 }; // no queue losses
    let root = engine.add_node("S");
    let group = engine.new_group();
    for i in 0..n {
        let leaf = engine.add_node(format!("R{i}"));
        let (down, _) =
            engine.add_link(root, leaf, 80_000_000, SimDuration::from_millis(30), &queue);
        engine.set_fault(down, FaultInjector::new(p).data_only());
        let rx = engine.add_agent(leaf, Box::new(McastReceiver::new(40)));
        engine.set_send_overhead(rx, SimDuration::from_millis(1));
        engine.join_group(group, rx);
    }
    let tx = engine.add_agent(root, Box::new(RlaSender::new(group, RlaConfig::default())));
    engine.compute_routes();
    engine.build_group_tree(group, root);
    engine.start_agent_at(tx, SimTime::ZERO);
    // Warm up, then measure.
    engine.run_until(SimTime::from_secs(secs / 5));
    let warm = engine.now();
    engine
        .agent_as_mut::<RlaSender>(tx)
        .expect("sender")
        .reset_stats(warm);
    engine.run_until(SimTime::from_secs(secs));
    let s = engine.agent_as::<RlaSender>(tx).expect("sender");
    s.stats.cwnd_avg.average(engine.now())
}

#[test]
fn single_receiver_window_tracks_eq1() {
    // n = 1: the RLA degenerates to TCP-like behaviour; eq. (1) applies.
    // Note: eq. (1) is in *congestion probability* (signals per packet).
    // With uncorrelated Bernoulli loss at p = 2% and the 2·srtt signal
    // grouping, multiple losses can merge, so the effective p is a bit
    // lower and the window a bit higher; accept a wide band.
    let p = 0.02;
    let measured = rla_window_on_bernoulli_star(1, p, 500, 3);
    let predicted = analysis::pa_window(p);
    let ratio = measured / predicted;
    assert!(
        (0.6..2.2).contains(&ratio),
        "measured {measured:.1} vs eq1 {predicted:.1} (ratio {ratio:.2})"
    );
}

#[test]
fn proposition_bounds_hold_on_physical_losses() {
    // n = 4 independent lossy branches at p = 2%: the Proposition brackets
    // the measured window between eq1(p_max) and sqrt(n)*eq1(p_max).
    // Signal grouping only *raises* the window, and the upper bound has
    // sqrt(n) of headroom.
    let p = 0.02;
    let n = 4;
    let measured = rla_window_on_bernoulli_star(n, p, 500, 5);
    let bounds = analysis::proposition_bounds(p, n);
    assert!(
        measured > bounds.lower * 0.8 && measured < bounds.upper * 1.6,
        "measured {measured:.1} outside proposition band ({:.1}, {:.1})",
        bounds.lower,
        bounds.upper
    );
}

#[test]
fn window_grows_with_receiver_count_at_fixed_p() {
    // More independent congested receivers => more signals but only a 1/n
    // listening probability: the fixed point grows with n (that is the
    // essence of the sqrt(n) upper bound).
    let w1 = rla_window_on_bernoulli_star(1, 0.02, 400, 7);
    let w4 = rla_window_on_bernoulli_star(4, 0.02, 400, 7);
    assert!(
        w4 > w1 * 0.9,
        "window must not shrink with more receivers: n=1 {w1:.1}, n=4 {w4:.1}"
    );
}

#[test]
fn particle_model_matches_full_two_session_split() {
    // Both the abstract particle model and the full simulator must agree
    // that two sessions split evenly (within noise).
    let particle = analysis::simulate_particle(3, 40.0, 300_000, 1, 80);
    let rel = (particle.mean_w1 - particle.mean_w2).abs() / particle.mean_w1;
    assert!(rel < 0.03, "particle split {rel}");

    let r = bounded_fairness::experiments::ScenarioSpec::paper(
        bounded_fairness::experiments::CongestionCase::Case3AllLeaves,
    )
    .with_sessions(2)
    .with_duration(SimDuration::from_secs(150))
    .run();
    let (a, b) = (r.rla[0].throughput_pps, r.rla[1].throughput_pps);
    assert!(
        a.max(b) / a.min(b) < 1.8,
        "full-sim sessions {a:.1} vs {b:.1}"
    );
}
