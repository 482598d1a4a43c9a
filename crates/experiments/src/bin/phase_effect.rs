//! §3.1: the drop-tail **phase effect** and its elimination.
//!
//! Two identical TCP connections whose access links differ by a fraction
//! of the bottleneck service time share a drop-tail gateway. Without any
//! randomness the drop pattern locks onto the arrival phase and the split
//! can be grossly unfair even though the RTT difference is negligible.
//! Adding a uniform random processing time up to one bottleneck service
//! time (the paper's remedy) — or switching to RED — restores fairness.

use experiments::prelude::*;
use netsim::prelude::*;
use tcp_sack::{TcpConfig, TcpReceiver, TcpSender};

/// Run the two-flow contest for `duration` simulated seconds; returns
/// (throughput1, throughput2) in pkt/s plus the trace digest.
fn contest(
    queue: &QueueConfig,
    overhead: SimDuration,
    seed: u64,
    duration: f64,
) -> (f64, f64, u64) {
    let mut engine = Engine::new(seed);
    let s1 = engine.add_node("s1");
    let s2 = engine.add_node("s2");
    let gw = engine.add_node("gw");
    let dst = engine.add_node("dst");
    // Bottleneck: 100 pkt/s => service time 10 ms for 1000 B packets.
    let bottleneck_bps = 800_000;
    let service = SimDuration::from_nanos(netsim::packet::tx_nanos(1000, bottleneck_bps));
    // Access links differ by a fraction of the service time: that tiny
    // offset is what the phase effect amplifies.
    engine.add_link(s1, gw, 100_000_000, SimDuration::from_millis(10), queue);
    engine.add_link(
        s2,
        gw,
        100_000_000,
        SimDuration::from_millis(10) + service / 4,
        queue,
    );
    engine.add_link(gw, dst, bottleneck_bps, SimDuration::from_millis(30), queue);
    let rx1 = engine.add_agent(dst, Box::new(TcpReceiver::new(40)));
    let rx2 = engine.add_agent(dst, Box::new(TcpReceiver::new(40)));
    let tx1 = engine.add_agent(s1, Box::new(TcpSender::new(rx1, TcpConfig::default())));
    let tx2 = engine.add_agent(s2, Box::new(TcpSender::new(rx2, TcpConfig::default())));
    engine.compute_routes();
    if !overhead.is_zero() {
        engine.set_send_overhead(tx1, overhead);
        engine.set_send_overhead(tx2, overhead);
    }
    engine.start_agent_at(tx1, SimTime::ZERO);
    engine.start_agent_at(tx2, SimTime::from_millis(503));
    engine.run_until(SimTime::from_secs_f64(duration));
    let d1 = engine
        .agent_as::<TcpReceiver>(rx1)
        .expect("rx")
        .stats
        .delivered;
    let d2 = engine
        .agent_as::<TcpReceiver>(rx2)
        .expect("rx")
        .stats
        .delivered;
    (
        d1 as f64 / duration,
        d2 as f64 / duration,
        engine.trace_digest().value(),
    )
}

fn main() {
    let cfg = RunConfig::from_env();
    cfg.refuse_scenario_knobs("phase_effect");
    let duration = cfg.capped_duration(1000.0).as_secs_f64();
    let service = SimDuration::from_nanos(netsim::packet::tx_nanos(1000, 800_000));
    println!("§3.1 — phase effect at a drop-tail gateway (two near-identical TCPs)");
    println!(
        "{:<44} {:>9} {:>9} {:>9}",
        "configuration", "flow 1", "flow 2", "max/min"
    );
    let mut rows: Vec<(&str, QueueConfig, SimDuration)> = vec![
        (
            "drop-tail, no randomness (phase-locked)",
            QueueConfig::paper_droptail(),
            SimDuration::ZERO,
        ),
        (
            "drop-tail + random overhead (paper's fix)",
            QueueConfig::paper_droptail(),
            service,
        ),
        (
            "RED gateway (no overhead needed)",
            QueueConfig::paper_red(),
            SimDuration::ZERO,
        ),
    ];
    let mut summary = Vec::new();
    let mut run_entries = Vec::new();
    for (label, queue, overhead) in rows.drain(..) {
        // Average the unfairness indicator over several seeds.
        let mut worst_ratio: f64 = 1.0;
        let mut t1_acc = 0.0;
        let mut t2_acc = 0.0;
        let mut digests = Vec::new();
        const SEEDS: u64 = 5;
        for seed in 0..SEEDS {
            let (t1, t2, d) = contest(&queue, overhead, cfg.seed + seed, duration);
            worst_ratio = worst_ratio.max(t1.max(t2) / t1.min(t2).max(1e-9));
            t1_acc += t1;
            t2_acc += t2;
            digests.push(Json::from(format!("{d:016x}")));
        }
        println!(
            "{:<44} {:>9.1} {:>9.1} {:>9.2}",
            label,
            t1_acc / SEEDS as f64,
            t2_acc / SEEDS as f64,
            worst_ratio
        );
        run_entries.push(Json::obj(vec![
            ("configuration", label.into()),
            ("base_seed", cfg.seed.into()),
            ("flow1_pps", (t1_acc / SEEDS as f64).into()),
            ("flow2_pps", (t2_acc / SEEDS as f64).into()),
            ("worst_ratio", worst_ratio.into()),
            ("trace_digests", Json::Arr(digests)),
        ]));
        summary.push((label, worst_ratio));
    }
    let manifest = Json::obj(vec![
        ("binary", "phase_effect".into()),
        ("runs", Json::Arr(run_entries)),
    ]);
    emit_manifest(&cfg.results_dir, "phase_effect", &manifest);
    println!("\n(flow rates in pkt/s; max/min is the worst split over 5 seeds)");
    println!(
        "expected shape: the phase-locked row is markedly less fair than the\n\
         random-overhead and RED rows — the reason the RLA adds randomness\n\
         with drop-tail gateways and needs none with RED."
    );
}
