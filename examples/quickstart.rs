//! Quickstart: one RLA multicast session vs one TCP connection per branch
//! over a small drop-tail star — the paper's problem in miniature.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use bounded_fairness::prelude::*;

fn main() {
    let mut engine = Engine::new(42);
    let queue = QueueConfig::paper_droptail();

    // A star: the sender S, nine receivers, 200 pkt/s branches.
    // Each branch carries 1 TCP + the multicast -> fair share 100 pkt/s.
    let root = engine.add_node("S");
    let group = engine.new_group();
    let mut tcp = Vec::new();
    let mut mcast_rx = Vec::new();
    for i in 0..9 {
        let leaf = engine.add_node(format!("R{}", i + 1));
        engine.add_link(root, leaf, 1_600_000, SimDuration::from_millis(40), &queue);
        let mrx = engine.add_agent(leaf, Box::new(McastReceiver::new(40)));
        engine.join_group(group, mrx);
        engine.set_send_overhead(mrx, SimDuration::from_millis(2));
        mcast_rx.push(mrx);
        let trx = engine.add_agent(leaf, Box::new(TcpReceiver::new(40)));
        engine.set_send_overhead(trx, SimDuration::from_millis(2));
        let ttx = engine.add_agent(root, Box::new(TcpSender::new(trx, TcpConfig::default())));
        tcp.push((ttx, trx));
    }
    let rla_tx = engine.add_agent(root, Box::new(RlaSender::new(group, RlaConfig::default())));

    engine.compute_routes();
    engine.build_group_tree(group, root);

    // Random processing overhead (one bottleneck service time) kills the
    // drop-tail phase effect, per the paper's §3.1.
    let overhead = SimDuration::from_nanos(netsim::packet::tx_nanos(1000, 1_600_000));
    for (i, &(ttx, _)) in tcp.iter().enumerate() {
        engine.set_send_overhead(ttx, overhead);
        engine.start_agent_at(ttx, SimTime::from_millis(137 * i as u64));
    }
    engine.set_send_overhead(rla_tx, overhead);
    engine.start_agent_at(rla_tx, SimTime::from_secs(1));

    println!("running 300 simulated seconds...");
    engine.run_until(SimTime::from_secs(300));

    let rla = engine.agent_as::<RlaSender>(rla_tx).expect("rla sender");
    let now = engine.now();
    println!("\nRLA session:");
    println!("  throughput {:>6.1} pkt/s", rla.stats.throughput_pps(now));
    println!(
        "  avg window {:>6.1} packets",
        rla.stats.cwnd_avg.average(now)
    );
    println!(
        "  {} congestion signals -> {} window cuts ({} forced)",
        rla.stats.cong_signals,
        rla.stats.window_cuts(),
        rla.stats.forced_cuts
    );

    let mut worst = f64::INFINITY;
    let mut best: f64 = 0.0;
    for &(_, trx) in &tcp {
        let rate = engine
            .agent_as::<TcpReceiver>(trx)
            .expect("tcp receiver")
            .reassembly
            .stats
            .delivered as f64
            / now.as_secs_f64();
        worst = worst.min(rate);
        best = best.max(rate);
    }
    println!("\ncompeting TCP: worst {worst:.1}, best {best:.1} pkt/s");

    let ratio = rla.stats.throughput_pps(now) / worst;
    let bounds = FairnessBounds::theorem2_droptail(9);
    println!(
        "\nessential fairness: ratio {:.2} vs Theorem II bounds [{:.2}, {:.1}] -> {}",
        ratio,
        bounds.a,
        bounds.b,
        if bounds.contains(rla.stats.throughput_pps(now), worst) {
            "fair"
        } else {
            "VIOLATED"
        }
    );
}
