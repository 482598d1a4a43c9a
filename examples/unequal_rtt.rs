//! The generalized RLA (§5.3): receivers at very different distances.
//!
//! Compares the `Equal` pthresh policy against the paper's RTT-scaled
//! `f(x) = x²` policy on the figure-10 topology, where 9 of the 36
//! receivers sit at a 30 ms RTT and 27 at 230 ms. The scaled policy
//! mostly ignores congestion signals from the near receivers, matching
//! TCP's own bias toward short connections.
//!
//! ```text
//! cargo run --release --example unequal_rtt -- [secs]
//! ```

use bounded_fairness::experiments::{CongestionCase, ScenarioSpec};
use bounded_fairness::prelude::*;

fn main() {
    let secs: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(300.0);

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
        println!("{name}:");
        println!(
            "  RLA {:>7.1} pkt/s  cwnd {:>5.1}  cuts {} of {} signals",
            rla.throughput_pps, rla.cwnd_avg, rla.window_cuts, rla.cong_signals
        );
        println!(
            "  TCP worst {:.1} / best {:.1} pkt/s\n",
            result.worst_tcp().expect("tcp").throughput_pps,
            result.best_tcp().expect("tcp").throughput_pps
        );
    }
    println!("expected shape: the RTT-scaled policy lifts the multicast throughput");
    println!("(the paper reports 161.6 pkt/s on this case) without starving TCP.");
}
