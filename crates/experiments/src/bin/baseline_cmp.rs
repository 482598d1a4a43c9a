//! §1: why threshold-based rate control fails where the RLA succeeds.
//!
//! A multicast session (3 receivers behind one drop-tail bottleneck)
//! competes with one TCP connection. The bottleneck gives a fair share of
//! 100 pkt/s to each of the two sessions. LTRC and MBFC are run at two
//! loss thresholds each; the RLA needs no threshold. The paper's claim:
//! no universal threshold makes a rate-based scheme TCP-fair — too low
//! and the controller starves, too high and it crushes TCP.

use baselines::{Ltrc, LtrcConfig, Mbfc, MbfcConfig, RateConfig, RateReceiver, RateSender};
use experiments::prelude::*;
use netsim::prelude::*;
use rla::{McastReceiver, RlaConfig, RlaSender};
use rla::{RateRla, RateRlaConfig};
use tcp_sack::{TcpConfig, TcpReceiver, TcpSender};

/// What multicast controller to install.
enum Controller {
    Ltrc(f64),
    Mbfc(f64),
    RateRla,
    Rla,
}

/// Run the contest for `duration` simulated seconds; returns (multicast
/// goodput at the slowest receiver, TCP throughput) in pkt/s plus the
/// engine's trace digest.
fn contest(controller: Controller, seed: u64, duration: f64) -> (f64, f64, u64) {
    let mut engine = Engine::new(seed);
    let queue = QueueConfig::paper_droptail();
    let src = engine.add_node("src");
    let gw = engine.add_node("gw");
    // Bottleneck: 200 pkt/s shared by 1 multicast + 1 TCP.
    engine.add_link(src, gw, 1_600_000, SimDuration::from_millis(20), &queue);
    let leaves: Vec<NodeId> = (0..3)
        .map(|i| {
            let n = engine.add_node(format!("r{i}"));
            engine.add_link(gw, n, 100_000_000, SimDuration::from_millis(5), &queue);
            n
        })
        .collect();

    let tcp_rx = engine.add_agent(leaves[0], Box::new(TcpReceiver::new(40)));
    let tcp_tx = engine.add_agent(src, Box::new(TcpSender::new(tcp_rx, TcpConfig::default())));

    let group = engine.new_group();
    let overhead = SimDuration::from_nanos(netsim::packet::tx_nanos(1000, 1_600_000));
    enum RxSet {
        Rate(Vec<AgentId>),
        Rla(Vec<AgentId>),
    }
    let (mc_tx, rxs) = match controller {
        Controller::Ltrc(threshold) => {
            let rxs: Vec<AgentId> = leaves
                .iter()
                .map(|&l| {
                    let rx = engine.add_agent(
                        l,
                        Box::new(RateReceiver::new(SimDuration::from_millis(500), 0.25)),
                    );
                    engine.join_group(group, rx);
                    rx
                })
                .collect();
            let ctl = Ltrc::new(LtrcConfig {
                loss_threshold: threshold,
                ..LtrcConfig::default()
            });
            let tx = engine.add_agent(
                src,
                Box::new(RateSender::new(group, RateConfig::default(), ctl)),
            );
            (tx, RxSet::Rate(rxs))
        }
        Controller::Mbfc(threshold) => {
            let rxs: Vec<AgentId> = leaves
                .iter()
                .map(|&l| {
                    let rx = engine.add_agent(
                        l,
                        Box::new(RateReceiver::new(SimDuration::from_millis(500), 0.25)),
                    );
                    engine.join_group(group, rx);
                    rx
                })
                .collect();
            let ctl = Mbfc::new(MbfcConfig {
                loss_threshold: threshold,
                population: 3,
                population_threshold: 0.25,
                ..MbfcConfig::default()
            });
            let tx = engine.add_agent(
                src,
                Box::new(RateSender::new(group, RateConfig::default(), ctl)),
            );
            (tx, RxSet::Rate(rxs))
        }
        Controller::RateRla => {
            let rxs: Vec<AgentId> = leaves
                .iter()
                .map(|&l| {
                    let rx = engine.add_agent(
                        l,
                        Box::new(RateReceiver::new(SimDuration::from_millis(500), 0.25)),
                    );
                    engine.join_group(group, rx);
                    rx
                })
                .collect();
            let ctl = RateRla::new(RateRlaConfig::default());
            let tx = engine.add_agent(
                src,
                Box::new(RateSender::new(group, RateConfig::default(), ctl)),
            );
            (tx, RxSet::Rate(rxs))
        }
        Controller::Rla => {
            let rxs: Vec<AgentId> = leaves
                .iter()
                .map(|&l| {
                    let rx = engine.add_agent(l, Box::new(McastReceiver::new(40)));
                    engine.join_group(group, rx);
                    engine.set_send_overhead(rx, SimDuration::from_millis(2));
                    rx
                })
                .collect();
            let tx = engine.add_agent(src, Box::new(RlaSender::new(group, RlaConfig::default())));
            (tx, RxSet::Rla(rxs))
        }
    };
    engine.compute_routes();
    engine.build_group_tree(group, src);
    engine.set_send_overhead(tcp_tx, overhead);
    engine.set_send_overhead(mc_tx, overhead);
    engine.start_agent_at(tcp_tx, SimTime::ZERO);
    engine.start_agent_at(mc_tx, SimTime::from_millis(711));
    engine.run_until(SimTime::from_secs_f64(duration));

    let mc = match rxs {
        RxSet::Rate(v) => v
            .iter()
            .map(|&rx| {
                engine
                    .agent_as::<RateReceiver>(rx)
                    .expect("rx")
                    .stats
                    .received
            })
            .min()
            .unwrap_or(0),
        RxSet::Rla(v) => v
            .iter()
            .map(|&rx| {
                engine
                    .agent_as::<McastReceiver>(rx)
                    .expect("rx")
                    .stats
                    .delivered
            })
            .min()
            .unwrap_or(0),
    };
    let tcp = engine
        .agent_as::<TcpReceiver>(tcp_rx)
        .expect("tcp rx")
        .stats
        .delivered;
    (
        mc as f64 / duration,
        tcp as f64 / duration,
        engine.trace_digest().value(),
    )
}

fn main() {
    let cfg = RunConfig::from_env();
    cfg.refuse_scenario_knobs("baseline_cmp");
    let duration = cfg.capped_duration(1000.0).as_secs_f64();
    println!("§1 — rate-based baselines vs the RLA against TCP (fair share: 100/100 pkt/s)");
    println!(
        "{:<34} {:>10} {:>10} {:>10}",
        "multicast controller", "mcast", "TCP", "mc/TCP"
    );
    let rows: Vec<(String, Controller)> = vec![
        ("LTRC, loss threshold 0.5%".into(), Controller::Ltrc(0.005)),
        ("LTRC, loss threshold 5%".into(), Controller::Ltrc(0.05)),
        ("MBFC, loss threshold 0.5%".into(), Controller::Mbfc(0.005)),
        ("MBFC, loss threshold 5%".into(), Controller::Mbfc(0.05)),
        (
            "rate-based random listening (§6)".into(),
            Controller::RateRla,
        ),
        ("RLA (no threshold to tune)".into(), Controller::Rla),
    ];
    let mut run_entries = Vec::new();
    for (label, ctl) in rows {
        let (mc, tcp, digest) = contest(ctl, cfg.seed, duration);
        println!(
            "{:<34} {:>10.1} {:>10.1} {:>10.2}",
            label,
            mc,
            tcp,
            mc / tcp.max(1e-9)
        );
        run_entries.push(Json::obj(vec![
            ("controller", label.as_str().into()),
            ("seed", cfg.seed.into()),
            ("mcast_pps", mc.into()),
            ("tcp_pps", tcp.into()),
            ("trace_digest", format!("{digest:016x}").into()),
        ]));
    }
    let manifest = Json::obj(vec![
        ("binary", "baseline_cmp".into()),
        ("runs", Json::Arr(run_entries)),
    ]);
    emit_manifest(&cfg.results_dir, "baseline_cmp", &manifest);
    println!(
        "\nexpected shape: each rate-based row is far from 1.0 on at least one\n\
         threshold (starved or TCP-crushing), while the RLA sits near parity\n\
         without any topology-specific tuning — the paper's motivation for\n\
         random listening."
    );
}
