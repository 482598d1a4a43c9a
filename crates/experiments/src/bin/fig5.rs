//! Figure 5: density of `(cwnd₁, cwnd₂)` for two competing RLA sessions.
//!
//! Two views:
//!
//! 1. the §4.4 Markov **particle model** (no feedback delay, shared pipe),
//!    and
//! 2. the **full simulator** on the paper's footnote-11 setup: a flat
//!    27-path star (figure 1) where every path has a delay-bandwidth
//!    product of 60 packets shared by 2 multicast sessions and 1 TCP — so
//!    each session should average a window near 20.
//!
//! Both densities concentrate around the fair operating point.

use analysis::particle::simulate_particle;
use experiments::plots::render_density;
use experiments::prelude::*;
use netsim::prelude::*;
use rla::{McastReceiver, RlaConfig, RlaSender};
use tcp_sack::{TcpConfig, TcpReceiver, TcpSender};

fn particle_view() -> experiments::Json {
    // pipe 40 shared by the two sessions themselves -> fair point (20,20).
    let stats = simulate_particle(27, 40.0, 2_000_000, 5, 60);
    println!("— particle model (n = 27, fair point (20, 20)) —");
    println!("{}", render_density(&stats, 60, 20));
    println!(
        "mean windows: {:.1} / {:.1}; mode cell {:?}; mass within ±8 of (20,20): {:.0}%\n",
        stats.mean_w1,
        stats.mean_w2,
        stats.mode(),
        100.0 * stats.mass_near(20.0, 20.0, 8.0)
    );
    experiments::Json::obj(vec![
        ("view", "particle".into()),
        ("seed", 5u64.into()),
        ("mean_w1", stats.mean_w1.into()),
        ("mean_w2", stats.mean_w2.into()),
        (
            "mass_near_fair_point",
            stats.mass_near(20.0, 20.0, 8.0).into(),
        ),
    ])
}

fn full_sim_view(cfg: &RunConfig) -> experiments::Json {
    // Flat star: S -- R_i over 27 independent paths, BDP = 60 packets:
    // 600 pkt/s (4.8 Mbps) with 50 ms one-way delay (RTT 0.1 s).
    let mut engine = Engine::new(cfg.seed);
    let queue = QueueConfig::paper_droptail();
    let star = experiments::build_star(
        &mut engine,
        &vec![experiments::BranchSpec::fig5(); 27],
        &queue,
    );
    let root = star.root;
    let leaves = star.leaves;

    let mut rla_senders = Vec::new();
    for _ in 0..2 {
        let group = engine.new_group();
        for &leaf in &leaves {
            let rx = engine.add_agent(leaf, Box::new(McastReceiver::new(40)));
            engine.join_group(group, rx);
            engine.set_send_overhead(rx, SimDuration::from_millis(2));
        }
        let tx = engine.add_agent(root, Box::new(RlaSender::new(group, RlaConfig::default())));
        rla_senders.push(tx);
    }
    let mut tcp_senders = Vec::new();
    for &leaf in &leaves {
        let rx = engine.add_agent(leaf, Box::new(TcpReceiver::new(40)));
        engine.set_send_overhead(rx, SimDuration::from_millis(2));
        let tx = engine.add_agent(root, Box::new(TcpSender::new(rx, TcpConfig::default())));
        tcp_senders.push(tx);
    }
    engine.compute_routes();
    engine.build_group_tree(GroupId(0), root);
    engine.build_group_tree(GroupId(1), root);
    // Random overhead against drop-tail phase effects (1000 B at 600 pkt/s).
    let overhead = SimDuration::from_nanos(netsim::packet::tx_nanos(1000, 4_800_000));
    let mut t = SimTime::ZERO;
    for &a in tcp_senders.iter().chain(rla_senders.iter()) {
        engine.set_send_overhead(a, overhead);
        engine.start_agent_at(a, t);
        t += SimDuration::from_millis(173);
    }

    // Sample both session windows every 0.2 s after warmup into the
    // density histogram.
    let duration = cfg.capped_duration(1200.0).as_secs_f64();
    let warmup = 50.0f64.min(duration / 4.0);
    engine.run_until(SimTime::from_secs_f64(warmup));
    let grid = 60usize;
    let mut histogram = vec![vec![0u64; grid + 1]; grid + 1];
    let mut sum = [0.0f64; 2];
    let mut samples = 0u64;
    let mut now = warmup;
    while now < duration {
        now += 0.2;
        engine.run_until(SimTime::from_secs_f64(now));
        let [w1, w2] = [0, 1].map(|i| {
            let s: &RlaSender = engine.agent_as(rla_senders[i]).expect("sender");
            s.cwnd()
        });
        sum[0] += w1;
        sum[1] += w2;
        samples += 1;
        let x = (w1.floor() as usize).min(grid);
        let y = (w2.floor() as usize).min(grid);
        histogram[x][y] += 1;
    }
    let stats = analysis::ParticleStats {
        mean_w1: sum[0] / samples as f64,
        mean_w2: sum[1] / samples as f64,
        histogram,
        steps: samples,
    };
    println!("— full simulator (27-path star, BDP 60, 2 RLA + 1 TCP per path) —");
    println!("{}", render_density(&stats, grid, 20));
    println!(
        "mean windows: {:.1} / {:.1} over {} samples ({}s simulated)",
        stats.mean_w1, stats.mean_w2, stats.steps, duration
    );
    println!("paper reference: density centred at (20, 20)");
    experiments::Json::obj(vec![
        ("view", "full-sim".into()),
        ("seed", cfg.seed.into()),
        ("duration_secs", duration.into()),
        (
            "trace_digest",
            format!("{:016x}", engine.trace_digest().value()).into(),
        ),
        ("trace_events", engine.trace_digest().events().into()),
        ("mean_w1", stats.mean_w1.into()),
        ("mean_w2", stats.mean_w2.into()),
    ])
}

fn main() {
    let cfg = RunConfig::from_env();
    cfg.refuse_scenario_knobs("fig5");
    println!("Figure 5 — occurrence density of (cwnd1, cwnd2)\n");
    let particle = particle_view();
    let full = full_sim_view(&cfg);
    let manifest = experiments::Json::obj(vec![
        ("binary", "fig5".into()),
        ("views", experiments::Json::Arr(vec![particle, full])),
    ]);
    emit_manifest(&cfg.results_dir, "fig5", &manifest);
}
