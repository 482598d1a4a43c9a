//! Reliable multicast over faulty branches: fault injection plus the
//! RLA's retransmission machinery (multicast vs unicast repair).
//!
//! One branch takes heavy random loss; the session keeps every receiver's
//! in-order stream complete, and the repair strategy switches between
//! multicast and unicast depending on `rexmit_threshold` (footnote 8).
//!
//! ```text
//! cargo run --release --example lossy_link -- [drop_percent] [rexmit_threshold]
//! ```

use bounded_fairness::prelude::*;
use bounded_fairness::rla::McastReceiver as Rx;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let drop_pct: f64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(10.0);
    let threshold: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(0);

    let mut engine = Engine::new(9);
    let queue = QueueConfig::paper_droptail();
    let root = engine.add_node("S");
    let group = engine.new_group();
    let mut receivers = Vec::new();
    let mut lossy_channel = None;
    for i in 0..6 {
        let leaf = engine.add_node(format!("R{}", i + 1));
        let (down, _) =
            engine.add_link(root, leaf, 8_000_000, SimDuration::from_millis(20), &queue);
        if i == 0 {
            lossy_channel = Some(down);
        }
        let rx = engine.add_agent(leaf, Box::new(Rx::new(40)));
        engine.join_group(group, rx);
        engine.set_send_overhead(rx, SimDuration::from_millis(1));
        receivers.push(rx);
    }
    let cfg = RlaConfig {
        rexmit_threshold: threshold,
        ..RlaConfig::default()
    };
    let tx = engine.add_agent(root, Box::new(RlaSender::new(group, cfg)));
    engine.compute_routes();
    engine.build_group_tree(group, root);
    engine.set_fault(
        lossy_channel.expect("lossy branch"),
        FaultInjector::new(drop_pct / 100.0).data_only(),
    );
    engine.start_agent_at(tx, SimTime::ZERO);

    println!("6 receivers, branch 1 dropping {drop_pct}% of data, rexmit_threshold = {threshold}");
    engine.run_until(SimTime::from_secs(60));

    let sender = engine.agent_as::<RlaSender>(tx).expect("sender");
    println!(
        "\nsender: {} packets acked by all ({:.1} pkt/s), {} multicast + {} unicast repairs, {} timeouts",
        sender.stats.delivered,
        sender.stats.throughput_pps(engine.now()),
        sender.stats.retransmits_multicast,
        sender.stats.retransmits_unicast,
        sender.stats.timeouts,
    );
    let reach = sender.max_reach_all();
    let mut complete = true;
    for (i, &rx) in receivers.iter().enumerate() {
        let r = engine.agent_as::<Rx>(rx).expect("receiver");
        complete &= r.reassembly.cum_ack() >= reach;
        println!(
            "receiver {}: in-order prefix {:>6}  arrivals {:>6}  duplicates {:>5}",
            i + 1,
            r.reassembly.cum_ack(),
            r.reassembly.stats.arrivals,
            r.reassembly.stats.duplicates
        );
    }
    println!(
        "\nreliability: every receiver holds the full prefix [0, {reach}): {}",
        if complete { "yes" } else { "NO" }
    );
    println!("try: --example lossy_link -- 10 5   (unicast repairs: fewer duplicates)");
}
