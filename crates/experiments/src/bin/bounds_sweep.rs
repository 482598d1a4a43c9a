//! How the essential-fairness ratio scales with the receiver count.
//!
//! §4.3's remark: with one *much* more congested receiver and `n−1`
//! receivers just congested enough to stay in the troubled set, the RLA's
//! throughput approaches the upper bound — `O(√n)` over the worst TCP
//! with RED-like uniform losses, `O(n)` with drop-tail. This sweep
//! measures the ratio on a star with Bernoulli losses (the §4 independent
//! loss model): the worst branch at `p = 2%`, the rest at `p = 0.2%`
//! (inside the η = 20 margin, so they count as troubled).

use experiments::prelude::*;
use experiments::star::{build_star, BranchSpec};
use netsim::prelude::*;
use rla::{McastReceiver, RlaConfig, RlaSender};
use tcp_sack::{TcpConfig, TcpReceiver, TcpSender};

/// Run one (n, seed) point; returns (λ_RLA, λ_TCP on the worst branch,
/// average RLA window, trace digest).
fn point(n: usize, seed: u64, secs: u64) -> (f64, f64, f64, u64) {
    let mut engine = Engine::new(seed);
    let queue = QueueConfig::DropTail { limit: 1000 }; // losses come from the injectors
    let mut branches =
        vec![BranchSpec::new(80_000_000, SimDuration::from_millis(30)).with_loss(0.002); n];
    branches[0].drop_prob = 0.02; // the soft bottleneck
    let star = build_star(&mut engine, &branches, &queue);

    // The competing TCP on the worst branch.
    let tcp_rx = engine.add_agent(star.leaves[0], Box::new(TcpReceiver::new(40)));
    engine.set_send_overhead(tcp_rx, SimDuration::from_millis(1));
    let tcp_tx = engine.add_agent(
        star.root,
        Box::new(TcpSender::new(tcp_rx, TcpConfig::default())),
    );

    let group = engine.new_group();
    for &leaf in &star.leaves {
        let rx = engine.add_agent(leaf, Box::new(McastReceiver::new(40)));
        engine.set_send_overhead(rx, SimDuration::from_millis(1));
        engine.join_group(group, rx);
    }
    let rla_tx = engine.add_agent(
        star.root,
        Box::new(RlaSender::new(group, RlaConfig::default())),
    );
    engine.compute_routes();
    engine.build_group_tree(group, star.root);
    engine.start_agent_at(tcp_tx, SimTime::ZERO);
    engine.start_agent_at(rla_tx, SimTime::from_millis(501));

    let warmup = secs / 5;
    engine.run_until(SimTime::from_secs(warmup));
    let w = engine.now();
    engine
        .agent_as_mut::<RlaSender>(rla_tx)
        .expect("rla")
        .reset_stats(w);
    engine
        .agent_as_mut::<TcpSender>(tcp_tx)
        .expect("tcp")
        .reset_stats(w);
    engine.run_until(SimTime::from_secs(secs));
    let now = engine.now();
    let rla = engine.agent_as::<RlaSender>(rla_tx).expect("rla");
    let tcp = engine.agent_as::<TcpSender>(tcp_tx).expect("tcp");
    (
        rla.stats.throughput_pps(now),
        tcp.stats.throughput_pps(now),
        rla.stats.cwnd_avg.average(now),
        engine.trace_digest().value(),
    )
}

fn main() {
    let cfg = RunConfig::from_env();
    let secs = cfg.scaled_duration(5.0, 200.0).as_secs_f64() as u64;
    println!("Essential-fairness ratio vs receiver count (unbalanced congestion)");
    println!("worst branch p = 2%, others p = 0.2% (troubled within η = 20)");
    println!(
        "{:>4} {:>10} {:>10} {:>8} {:>8} {:>10} {:>12}",
        "n", "λ_RLA", "λ_WTCP", "ratio", "cwnd", "√(3n)", "2n (Thm II)"
    );
    let mut run_entries = Vec::new();
    for &n in &[2usize, 4, 9, 16, 27] {
        // Average a few seeds; each point is cheap (fault-injected, no
        // queue dynamics).
        let mut rla = 0.0;
        let mut tcp = 0.0;
        let mut cwnd = 0.0;
        let mut digests = Vec::new();
        const SEEDS: u64 = 3;
        for s in 0..SEEDS {
            let (a, b, w, d) = point(n, cfg.seed + s, secs);
            rla += a;
            tcp += b;
            cwnd += w;
            digests.push(Json::from(format!("{d:016x}")));
        }
        rla /= SEEDS as f64;
        tcp /= SEEDS as f64;
        cwnd /= SEEDS as f64;
        println!(
            "{:>4} {:>10.1} {:>10.1} {:>8.2} {:>8.1} {:>10.2} {:>12.1}",
            n,
            rla,
            tcp,
            rla / tcp,
            cwnd,
            (3.0 * n as f64).sqrt(),
            2.0 * n as f64
        );
        run_entries.push(Json::obj(vec![
            ("receivers", n.into()),
            ("base_seed", cfg.seed.into()),
            ("rla_pps", rla.into()),
            ("wtcp_pps", tcp.into()),
            ("ratio", (rla / tcp).into()),
            ("trace_digests", Json::Arr(digests)),
        ]));
    }
    let manifest = Json::obj(vec![
        ("binary", "bounds_sweep".into()),
        ("duration_secs", (secs as f64).into()),
        ("runs", Json::Arr(run_entries)),
    ]);
    emit_manifest(&cfg.results_dir, "bounds_sweep", &manifest);
    println!(
        "\nexpected shape: the ratio grows with n (the paper's 'serves more\n\
         receivers' dividend) but stays far below the 2n guarantee — the\n\
         measured band is much tighter than the worst-case theorem."
    );
}
