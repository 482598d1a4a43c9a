//! Cross-crate integration: the RLA, TCP and the analysis bounds agree
//! end-to-end on small versions of the paper's scenarios.

use bounded_fairness::experiments::{CongestionCase, GatewayKind, ScenarioSpec};
use bounded_fairness::prelude::*;

fn quick(case: CongestionCase, gateway: GatewayKind, secs: u64) -> experiments::ScenarioResult {
    ScenarioSpec::paper(case)
        .with_gateway(gateway)
        .with_duration(SimDuration::from_secs(secs))
        .run()
}

#[test]
fn droptail_cases_satisfy_theorem2() {
    for case in [
        CongestionCase::Case1RootLink,
        CongestionCase::Case3AllLeaves,
        CongestionCase::Case5OneLevel2,
    ] {
        let r = quick(case, GatewayKind::DropTail, 150);
        let bounds = FairnessBounds::theorem2_droptail(27);
        let tcp = r.bottleneck_tcp_throughput();
        assert!(
            bounds.contains(r.rla[0].throughput_pps, tcp),
            "{}: rla {:.1} vs tcp {:.1} outside [{}, {}]",
            r.case_label,
            r.rla[0].throughput_pps,
            tcp,
            bounds.a,
            bounds.b
        );
    }
}

#[test]
fn red_cases_satisfy_theorem1() {
    for case in [
        CongestionCase::Case1RootLink,
        CongestionCase::Case3AllLeaves,
    ] {
        let r = quick(case, GatewayKind::Red, 150);
        let bounds = FairnessBounds::theorem1_red(27);
        let tcp = r.bottleneck_tcp_throughput();
        assert!(
            bounds.contains(r.rla[0].throughput_pps, tcp),
            "{}: rla {:.1} vs tcp {:.1}",
            r.case_label,
            r.rla[0].throughput_pps,
            tcp
        );
    }
}

#[test]
fn red_is_tighter_than_droptail_in_case1() {
    // Figure 9's headline: RED pulls case 1 toward absolute fairness.
    let dt = quick(CongestionCase::Case1RootLink, GatewayKind::DropTail, 200);
    let red = quick(CongestionCase::Case1RootLink, GatewayKind::Red, 200);
    let ratio = |r: &experiments::ScenarioResult| {
        (r.rla[0].throughput_pps / r.bottleneck_tcp_throughput() - 1.0).abs()
    };
    // Allow slack: short runs are noisy; RED must not be *worse*.
    assert!(
        ratio(&red) <= ratio(&dt) + 0.35,
        "RED |ratio-1| {:.2} vs drop-tail {:.2}",
        ratio(&red),
        ratio(&dt)
    );
}

#[test]
fn nobody_is_shut_out() {
    // The minimum requirement of §2.1: TCP survives, multicast survives.
    for gateway in [GatewayKind::DropTail, GatewayKind::Red] {
        let r = quick(CongestionCase::Case2AllLevel3, gateway, 150);
        assert!(r.rla[0].throughput_pps > 10.0, "multicast starved");
        assert!(
            r.worst_tcp().expect("tcp").throughput_pps > 10.0,
            "TCP shut out"
        );
    }
}

#[test]
fn correlation_ordering_of_window_sizes() {
    // The §4.2 Lemma in the full simulator: correlated losses (case 1)
    // give the RLA a larger average window than independent losses
    // (case 3). RED keeps the comparison clean of phase artifacts.
    let c1 = quick(CongestionCase::Case1RootLink, GatewayKind::Red, 250);
    let c3 = quick(CongestionCase::Case3AllLeaves, GatewayKind::Red, 250);
    assert!(
        c1.rla[0].cwnd_avg > c3.rla[0].cwnd_avg * 0.9,
        "case1 cwnd {:.1} should not be below case3 cwnd {:.1}",
        c1.rla[0].cwnd_avg,
        c3.rla[0].cwnd_avg
    );
}

#[test]
fn window_cuts_track_signals_over_n() {
    let r = quick(CongestionCase::Case3AllLeaves, GatewayKind::DropTail, 200);
    let rla = &r.rla[0];
    let per_cut = rla.cong_signals as f64 / rla.window_cuts.max(1) as f64;
    assert!(
        per_cut > 9.0 && per_cut < 81.0,
        "signals per cut {per_cut} should be near n = 27"
    );
}

#[test]
fn rtt_scaled_pthresh_beats_equal_on_unequal_rtts() {
    // §5.3's generalized rule, pthresh = (rtt_i / rtt_max)² / n, is the
    // paper default on figure 10's topology, where nine 30 ms receivers
    // listen beside the 27 leaves. Against the Equal rule it must cut on
    // fewer of the signals and win the multicast a larger share against
    // the worst TCP, at every seed.
    let paper = |seed| {
        ScenarioSpec::paper(CongestionCase::Fig10AllLevel3)
            .with_duration(SimDuration::from_secs(120))
            .with_seed(seed)
    };
    let equal = RlaConfig {
        pthresh_policy: PthreshPolicy::Equal,
        ..RlaConfig::default()
    };
    let scenarios = (1..=5)
        .flat_map(|seed| {
            let equal = paper(seed).with_rla_config(equal.clone());
            [paper(seed).build(), equal.build()]
        })
        .collect();
    let results = experiments::run_parallel_with_jobs(scenarios, 2);
    // (seed, RLA/WTCP, cuts per signal) per run, RTT-scaled before Equal.
    let mut table = String::new();
    let rows: Vec<(u64, f64, f64)> = (1..=5)
        .flat_map(|seed| [seed, seed])
        .zip(&results)
        .zip(["rtt-scaled", "equal"].into_iter().cycle())
        .map(|((seed, r), policy)| {
            let (rla, wtcp) = (&r.rla[0], r.worst_tcp().expect("tcp").throughput_pps);
            table += &format!(
                "seed {seed} {policy:<10} RLA {:5.1}  WTCP {wtcp:5.1}  cuts/signals {}/{}\n",
                rla.throughput_pps, rla.window_cuts, rla.cong_signals
            );
            let cuts_per_signal = rla.window_cuts as f64 / rla.cong_signals.max(1) as f64;
            (seed, rla.throughput_pps / wtcp, cuts_per_signal)
        })
        .collect();
    for pair in rows.chunks(2) {
        let [(seed, scaled_ratio, scaled_cuts), (_, equal_ratio, equal_cuts)] = pair else {
            unreachable!("two runs per seed")
        };
        assert!(
            scaled_ratio > equal_ratio,
            "seed {seed}: RTT-scaled RLA/WTCP {scaled_ratio:.2} is not above Equal's {equal_ratio:.2}\n{table}"
        );
        assert!(
            scaled_cuts < equal_cuts,
            "seed {seed}: RTT-scaled cuts per signal are not below Equal's\n{table}"
        );
    }
}

#[test]
fn case3_forces_window_cuts_before_the_warmup_ends() {
    // Rule 3's forced cut fires when no cut has happened for 2·awnd
    // session round trips. Early on `awnd` still sits near the initial
    // window of 1, so on case 3's drop-tail tree the first signals force
    // one or two cuts between 6 s and 11 s, at seeds 1-5. The tables'
    // `forced` row counts after the warmup reset and reads 0.
    for seed in 1..=5 {
        let scenario = ScenarioSpec::paper(CongestionCase::Case3AllLeaves)
            .with_duration(SimDuration::from_secs(120))
            .with_seed(seed)
            .build();
        let mut world = scenario.build();
        world.run_span(SimTime::from_secs(20));
        let sender: &RlaSender = world
            .engine
            .agent_as(world.rla_senders[0])
            .expect("rla sender");
        assert!(
            sender.stats.forced_cuts >= 1,
            "seed {seed}: no forced cut in the first 20 s ({} randomized)",
            sender.stats.randomized_cuts
        );
    }
}
