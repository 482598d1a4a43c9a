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
