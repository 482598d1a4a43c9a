//! The claims the paper makes before its §4 analysis, each on the small
//! world that shows it: §3.1's drop-tail phase effect and buffer period,
//! and §1's case against loss-threshold rate control.
//!
//! Every world here is built by hand on an unpartitioned engine (one
//! region, no epochs), and its 60 s seed-1 trace digest is pinned, so this
//! file also keeps that loop byte-pinned.

use std::cell::RefCell;
use std::rc::Rc;

use baselines::{
    Ltrc, LtrcConfig, Mbfc, MbfcConfig, RateConfig, RateController, RateReceiver, RateSender,
};
use bounded_fairness::netsim::packet::tx_nanos;
use bounded_fairness::prelude::*;
use telemetry::QueueSeriesTracer;

/// `run` over `items`, one thread each, results in input order.
fn each<T: Send, R: Send>(items: Vec<T>, run: impl Fn(T) -> R + Sync) -> Vec<R> {
    let run = &run;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .into_iter()
            .map(|item| scope.spawn(move || run(item)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// Packets per simulated second the receiver `rx` took in: in order for
/// a TCP or RLA receiver, all of them for a rate-based one.
fn pps(engine: &Engine, rx: AgentId, secs: f64) -> f64 {
    let packets = if let Some(tcp) = engine.agent_as::<TcpReceiver>(rx) {
        tcp.reassembly.stats.delivered
    } else if let Some(rla) = engine.agent_as::<McastReceiver>(rx) {
        rla.reassembly.stats.delivered
    } else {
        let rate = engine.agent_as::<RateReceiver>(rx).expect("a receiver");
        rate.stats.received
    };
    packets as f64 / secs
}

// ---------------------------------------------------------------------
// §3.1: the phase effect

/// How the gateway of the two-flow contest treats its arrivals.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Gateway {
    /// Drop-tail with no randomness: the drop pattern locks onto the
    /// arrival phase.
    PhaseLocked,
    /// Drop-tail, each sender adding a uniform random send overhead of up
    /// to one bottleneck service time (the paper's remedy).
    RandomOverhead,
    /// RED, no overhead.
    Red,
}

/// Two SACK TCPs whose access links differ by a quarter of the service
/// time of a 100 pkt/s bottleneck share one gateway: their throughputs'
/// max/min and the trace digest.
fn phase_contest(gateway: Gateway, seed: u64, secs: f64) -> (f64, u64) {
    let queue = match gateway {
        Gateway::Red => QueueConfig::paper_red(),
        _ => QueueConfig::paper_droptail(),
    };
    let bottleneck_bps = 800_000;
    let service = SimDuration::from_nanos(tx_nanos(1000, bottleneck_bps));
    let mut engine = Engine::new(seed);
    let [s1, s2, gw, dst] = ["s1", "s2", "gw", "dst"].map(|name| engine.add_node(name));
    let access = SimDuration::from_millis(10);
    engine.add_link(s1, gw, 100_000_000, access, &queue);
    engine.add_link(s2, gw, 100_000_000, access + service / 4, &queue);
    let delay = SimDuration::from_millis(30);
    engine.add_link(gw, dst, bottleneck_bps, delay, &queue);
    let rx = [0, 1].map(|_| engine.add_agent(dst, Box::new(TcpReceiver::new(40))));
    let tx = [(s1, rx[0]), (s2, rx[1])].map(|(node, rx)| {
        engine.add_agent(node, Box::new(TcpSender::new(rx, TcpConfig::default())))
    });
    engine.compute_routes();
    if gateway == Gateway::RandomOverhead {
        for tx in tx {
            engine.set_send_overhead(tx, service);
        }
    }
    engine.start_agent_at(tx[0], SimTime::ZERO);
    engine.start_agent_at(tx[1], SimTime::from_millis(503));
    engine.run_until(SimTime::from_secs_f64(secs));
    let [a, b] = rx.map(|rx| pps(&engine, rx, secs));
    (a.max(b) / a.min(b), engine.trace_digest().value())
}

#[test]
fn phase_locked_drop_tail_is_less_fair_than_either_remedy() {
    // 1000 s contests. The phase-locked world draws no randomness, so one
    // run stands for every seed; each remedy is checked over 20 seeds.
    let secs = 1000.0;
    let (locked, _) = phase_contest(Gateway::PhaseLocked, 1, secs);
    let seeds: Vec<u64> = (1..=20).collect();
    for remedy in [Gateway::RandomOverhead, Gateway::Red] {
        let splits = each(seeds.clone(), |seed| phase_contest(remedy, seed, secs).0);
        let worst = splits.iter().copied().fold(1.0, f64::max);
        assert!(
            locked > worst,
            "phase-locked max/min {locked:.3} is not above the worst {remedy:?} \
             split {worst:.3} over seeds 1..=20: {splits:.3?}"
        );
    }
}

// ---------------------------------------------------------------------
// §3.1: the buffer period

/// The capacity of `QueueConfig::paper_droptail()`, in packets.
const BUFFER_CAP: usize = 20;

/// One SACK TCP through a 100 pkt/s drop-tail bottleneck with a 50 ms
/// one-way delay (a pipe of 10 packets, half the buffer): the
/// bottleneck's `(time, qlen)` at every occupancy change, and the trace
/// digest.
fn buffer_world(seed: u64, secs: f64) -> (Vec<(SimTime, usize)>, u64) {
    let mut engine = Engine::new(seed);
    let a = engine.add_node("src");
    let b = engine.add_node("dst");
    let delay = SimDuration::from_millis(50);
    let (down, _) = engine.add_link(a, b, 800_000, delay, &QueueConfig::paper_droptail());
    let rx = engine.add_agent(b, Box::new(TcpReceiver::new(40)));
    let tx = engine.add_agent(a, Box::new(TcpSender::new(rx, TcpConfig::default())));
    engine.compute_routes();
    engine.start_agent_at(tx, SimTime::ZERO);
    let tracer = Rc::new(RefCell::new(QueueSeriesTracer::new(down)));
    engine.set_tracer(tracer.clone());
    engine.run_until(SimTime::from_secs_f64(secs));
    let samples = std::mem::take(&mut tracer.borrow_mut().samples);
    (samples, engine.trace_digest().value())
}

/// After the first 20 s of slow start: the lengths in seconds of every
/// buffer period (from a quarter full or less, through full, back to a
/// quarter) and of every buffer-full episode.
fn buffer_periods(samples: &[(SimTime, usize)]) -> (Vec<f64>, Vec<f64>) {
    let (low, full) = (BUFFER_CAP / 4, BUFFER_CAP - 1);
    let (mut period_ends, mut full_periods) = (Vec::new(), Vec::new());
    let mut full_start = None;
    // The first low instant opens the first period.
    let mut reached_full = true;
    for &(t, q) in samples.iter().filter(|(t, _)| t.as_secs_f64() >= 20.0) {
        let t = t.as_secs_f64();
        if q >= full {
            full_start.get_or_insert(t);
        } else if let Some(start) = full_start.take() {
            full_periods.push(t - start);
            reached_full = true;
        }
        if q <= low && reached_full {
            period_ends.push(t);
            reached_full = false;
        }
    }
    let periods = period_ends.windows(2).map(|w| w[1] - w[0]).collect();
    (periods, full_periods)
}

#[test]
fn drop_tail_buffer_periods_outlast_two_rtts_and_their_full_episodes_do_not() {
    // 600 s. The round trip is 0.1 s of propagation plus half a full
    // buffer of queueing. A buffer period needs a full episode to end, so
    // at least as many full episodes as periods are measured.
    let two_rtt = 2.0 * (0.1 + BUFFER_CAP as f64 / 100.0 * 0.5);
    let (periods, full) = buffer_periods(&buffer_world(1, 600.0).0);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let (period, full_mean) = (mean(&periods), mean(&full));
    assert!(
        periods.len() >= 20 && period > two_rtt && full_mean < two_rtt,
        "{} buffer periods of {period:.2} s and {} full episodes of {full_mean:.3} s \
         on average; want at least 20 periods, straddling 2·RTT = {two_rtt:.2} s",
        periods.len(),
        full.len()
    );
}

// ---------------------------------------------------------------------
// §1: loss-threshold rate control against the RLA

/// The multicast controller that competes with one TCP.
#[derive(Clone, Copy, Debug)]
enum Controller {
    /// LTRC at this loss threshold.
    Ltrc(f64),
    /// MBFC at this loss threshold.
    Mbfc(f64),
    /// The window-based RLA.
    Rla,
}

impl Controller {
    /// The sender for `group`.
    fn sender(self, group: GroupId) -> Box<dyn Agent> {
        fn rate(group: GroupId, controller: impl RateController) -> Box<dyn Agent> {
            Box::new(RateSender::new(group, RateConfig::default(), controller))
        }
        match self {
            Controller::Ltrc(loss_threshold) => rate(
                group,
                Ltrc::new(LtrcConfig {
                    loss_threshold,
                    ..LtrcConfig::default()
                }),
            ),
            Controller::Mbfc(loss_threshold) => rate(
                group,
                Mbfc::new(MbfcConfig {
                    loss_threshold,
                    population: 3,
                    population_threshold: 0.25,
                    ..MbfcConfig::default()
                }),
            ),
            Controller::Rla => Box::new(RlaSender::new(group, RlaConfig::default())),
        }
    }
}

/// A multicast session to three receivers and one TCP share a 200 pkt/s
/// drop-tail bottleneck (a fair share of 100 pkt/s each): the multicast
/// goodput at its slowest receiver over the TCP's, and the trace digest.
fn rate_contest(controller: Controller, seed: u64, secs: f64) -> (f64, u64) {
    let queue = QueueConfig::paper_droptail();
    let bottleneck_bps = 1_600_000;
    let mut engine = Engine::new(seed);
    let src = engine.add_node("src");
    let gw = engine.add_node("gw");
    let delay = SimDuration::from_millis(20);
    engine.add_link(src, gw, bottleneck_bps, delay, &queue);
    let leaves: Vec<NodeId> = (0..3)
        .map(|i| {
            let leaf = engine.add_node(format!("r{i}"));
            engine.add_link(gw, leaf, 100_000_000, SimDuration::from_millis(5), &queue);
            leaf
        })
        .collect();
    let tcp_rx = engine.add_agent(leaves[0], Box::new(TcpReceiver::new(40)));
    let tcp_tx = engine.add_agent(src, Box::new(TcpSender::new(tcp_rx, TcpConfig::default())));
    let group = engine.new_group();
    let mc_rx: Vec<AgentId> = leaves
        .iter()
        .map(|&leaf| {
            let rx = if let Controller::Rla = controller {
                let rx = engine.add_agent(leaf, Box::new(McastReceiver::new(40)));
                engine.set_send_overhead(rx, SimDuration::from_millis(2));
                rx
            } else {
                let report = SimDuration::from_millis(500);
                engine.add_agent(leaf, Box::new(RateReceiver::new(report, 0.25)))
            };
            engine.join_group(group, rx);
            rx
        })
        .collect();
    let mc_tx = engine.add_agent(src, controller.sender(group));
    engine.compute_routes();
    engine.build_group_tree(group, src);
    let overhead = SimDuration::from_nanos(tx_nanos(1000, bottleneck_bps));
    engine.set_send_overhead(tcp_tx, overhead);
    engine.set_send_overhead(mc_tx, overhead);
    engine.start_agent_at(tcp_tx, SimTime::ZERO);
    engine.start_agent_at(mc_tx, SimTime::from_millis(711));
    engine.run_until(SimTime::from_secs_f64(secs));
    let slowest = mc_rx.iter().map(|&rx| pps(&engine, rx, secs));
    let mc = slowest.fold(f64::INFINITY, f64::min);
    let tcp = pps(&engine, tcp_rx, secs);
    (mc / tcp, engine.trace_digest().value())
}

#[test]
fn loss_thresholds_miss_tcp_fairness_where_the_rla_keeps_it() {
    // 300 s contests, seeds 1..=8. A threshold-based controller is
    // TCP-fair only by luck of the threshold: at each seed LTRC and MBFC
    // each have a threshold that starves it or crushes the TCP (mc/TCP
    // outside [0.5, 2]). The RLA, with nothing to tune, stays inside
    // [0.5, 2] and inside Theorem II for its three receivers.
    let controllers = [
        Controller::Ltrc(0.005),
        Controller::Ltrc(0.05),
        Controller::Mbfc(0.005),
        Controller::Mbfc(0.05),
        Controller::Rla,
    ];
    let runs = (1..=8u64).flat_map(|seed| controllers.map(|c| (seed, c)));
    let ratios = each(runs.collect(), |(seed, c)| rate_contest(c, seed, 300.0).0);
    let fair = |r: &f64| (0.5..=2.0).contains(r);
    let theorem2 = FairnessBounds::theorem2_droptail(3);
    for (row, seed) in ratios.chunks(controllers.len()).zip(1..) {
        let (ltrc, mbfc, rla) = (&row[0..2], &row[2..4], row[4]);
        assert!(
            !ltrc.iter().all(fair)
                && !mbfc.iter().all(fair)
                && fair(&rla)
                && (theorem2.a..=theorem2.b).contains(&rla),
            "seed {seed}: mc/TCP {row:.2?} for {controllers:?}; LTRC and MBFC must each \
             leave [0.5, 2] at a threshold, the RLA stay inside it and Theorem II"
        );
    }
}

// ---------------------------------------------------------------------
// Digest pins

#[test]
fn every_hand_built_world_keeps_its_digest() {
    // 60 s seed-1 digests from the manifests of the retired
    // `phase_effect`, `buffer_period` and `baseline_cmp` binaries, which
    // ran these worlds. The phase-locked and buffer worlds draw no
    // randomness, so they must give the same digest at seed 2: a random
    // draw added on that path shows here.
    let secs = 60.0;
    let phase = [
        (Gateway::PhaseLocked, 0x0fbf_af24_fc1a_882f),
        (Gateway::RandomOverhead, 0x2a36_c228_1f82_0590),
        (Gateway::Red, 0xa880_8981_d7a6_78dc),
    ];
    for (gateway, want) in phase {
        let (_, got) = phase_contest(gateway, 1, secs);
        assert_eq!(got, want, "{gateway:?} drifted: 0x{got:016x}");
    }
    let locked = phase_contest(Gateway::PhaseLocked, 2, secs).1;
    assert_eq!(locked, phase[0].1, "the phase-locked world drew at random");
    for seed in [1, 2] {
        let (_, got) = buffer_world(seed, secs);
        assert_eq!(got, 0x144b_b3fc_3f61_b331, "seed {seed}: 0x{got:016x}");
    }
    let rate = [
        (Controller::Ltrc(0.005), 0x3834_913f_ab7b_c424),
        (Controller::Ltrc(0.05), 0xcd8f_330e_60e1_27b3),
        (Controller::Mbfc(0.005), 0xe8e6_04e4_e2b8_3d9b),
        (Controller::Mbfc(0.05), 0xca2d_7eb3_4837_d334),
        (Controller::Rla, 0x2fb8_5134_bcd2_fe07),
    ];
    for (controller, want) in rate {
        let (_, got) = rate_contest(controller, 1, secs);
        assert_eq!(got, want, "{controller:?} drifted: 0x{got:016x}");
    }
}
