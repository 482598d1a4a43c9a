//! The paper's full four-level tertiary tree, one case at a time.
//!
//! ```text
//! cargo run --release --example tertiary_tree -- [1-5] [droptail|red] [secs]
//! ```
//!
//! Runs the chosen figure-7/9 column and prints the table row plus the
//! essential-fairness verdict.

use bounded_fairness::experiments::cli::parse_case;
use bounded_fairness::experiments::{GatewayKind, ScenarioSpec};
use bounded_fairness::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let arg = args.get(1).map_or("1", String::as_str);
    let case = parse_case(arg).unwrap_or_else(|| {
        eprintln!("unknown case {arg:?}; use 1-5");
        std::process::exit(2);
    });
    let gateway = match args.get(2).map(String::as_str) {
        Some("red") => GatewayKind::Red,
        _ => GatewayKind::DropTail,
    };
    let secs: f64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(300.0);

    println!(
        "case {:?} ({}), {} gateways, {secs:.0} s",
        case,
        case.label(),
        match gateway {
            GatewayKind::Red => "RED",
            GatewayKind::DropTail => "drop-tail",
        }
    );
    let result = ScenarioSpec::paper(case)
        .with_gateway(gateway)
        .with_duration(SimDuration::from_secs_f64(secs))
        .run();

    let rla = &result.rla[0];
    println!(
        "\nRLA : {:>7.1} pkt/s  cwnd {:>5.1}  rtt {:.3}s  signals {}  cuts {} (forced {})",
        rla.throughput_pps,
        rla.cwnd_avg,
        rla.rtt_avg,
        rla.cong_signals,
        rla.window_cuts,
        rla.forced_cuts
    );
    let w = result.worst_tcp().expect("tcp");
    let b = result.best_tcp().expect("tcp");
    println!(
        "WTCP: {:>7.1} pkt/s  cwnd {:>5.1}  rtt {:.3}s  cuts {}",
        w.throughput_pps, w.cwnd_avg, w.rtt_avg, w.window_cuts
    );
    println!(
        "BTCP: {:>7.1} pkt/s  cwnd {:>5.1}  rtt {:.3}s  cuts {}",
        b.throughput_pps, b.cwnd_avg, b.rtt_avg, b.window_cuts
    );

    let bounds = match gateway {
        GatewayKind::Red => FairnessBounds::theorem1_red(27),
        GatewayKind::DropTail => FairnessBounds::theorem2_droptail(27),
    };
    let tcp_star = result.bottleneck_tcp_throughput();
    let check = FairnessCheck::evaluate(rla.throughput_pps, tcp_star, bounds);
    println!(
        "\nessential fairness vs soft-bottleneck TCP ({tcp_star:.1} pkt/s): ratio {:.2} in [{:.2}, {:.1}] -> {}",
        check.ratio,
        bounds.a,
        bounds.b,
        if check.fair { "fair" } else { "VIOLATED" }
    );
}
