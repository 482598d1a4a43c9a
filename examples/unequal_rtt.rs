//! The generalized RLA (§5.3): receivers at very different distances.
//!
//! Compares the `Equal` pthresh policy against the paper's RTT-scaled
//! `f(x) = x²` policy on the figure-10 topology, where 9 of the 36
//! receivers sit at a 30 ms RTT and 27 at 230 ms. The scaled policy
//! mostly ignores congestion signals from the near receivers, matching
//! TCP's own bias toward short connections: it cuts on fewer of the
//! signals and takes a larger share against the worst TCP.
//! `rtt_scaled_pthresh_beats_equal_on_unequal_rtts` asserts both at
//! 120 s, seeds 1–5.
//!
//! ```text
//! cargo run --release --example unequal_rtt -- [secs]
//! ```

use bounded_fairness::experiments::tables::PAPER;
use bounded_fairness::experiments::{CongestionCase, ScenarioSpec};
use bounded_fairness::prelude::*;

fn main() {
    let secs: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(120.0);

    for (name, policy) in [
        ("Equal (pthresh = 1/n)", PthreshPolicy::Equal),
        (
            "RTT-scaled (pthresh = (rtt/rtt_max)^2 / n)",
            PthreshPolicy::paper_rtt_scaled(),
        ),
    ] {
        let result = ScenarioSpec::paper(CongestionCase::Fig10AllLevel3)
            .with_rla_config(RlaConfig {
                pthresh_policy: policy,
                ..RlaConfig::default()
            })
            .with_duration(SimDuration::from_secs_f64(secs))
            .run();
        let rla = &result.rla[0];
        let wtcp = result.worst_tcp().expect("tcp").throughput_pps;
        println!("{name}:");
        println!(
            "  RLA {:>7.1} pkt/s  cwnd {:>5.1}  cuts {} of {} signals ({:.3} per signal)",
            rla.throughput_pps,
            rla.cwnd_avg,
            rla.window_cuts,
            rla.cong_signals,
            rla.window_cuts as f64 / rla.cong_signals.max(1) as f64
        );
        println!(
            "  TCP worst {wtcp:.1} / best {:.1} pkt/s  RLA/WTCP {:.2}\n",
            result.best_tcp().expect("tcp").throughput_pps,
            rla.throughput_pps / wtcp
        );
    }
    let (links, [rla, _, wtcp, _]) = PAPER.fig10[1];
    println!("expected shape: the RTT-scaled policy cuts on a smaller share of the");
    println!("signals and raises RLA/WTCP; the paper's {links} run reads RLA {rla:.1},");
    println!("WTCP {wtcp:.1} pkt/s (RLA/WTCP {:.2}).", rla / wtcp);
}
