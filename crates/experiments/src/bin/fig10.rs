//! Figure 10: the generalized RLA with **unequal round-trip times**.
//!
//! The G3 gateways join as receivers (36 in total; their base RTT is
//! 30 ms against the leaves' 230 ms), and the sender scales the cut
//! probability with `pthresh = (srtt_i / srtt_max)² / num_trouble_rcvr` so
//! congestion signals from near receivers are mostly ignored —
//! compensating TCP's own bias toward short-RTT connections. Two
//! bottleneck placements: all level-2 links, all level-3 links.

use experiments::prelude::*;
use experiments::tables::render_fig10_table;

fn main() {
    let cfg = RunConfig::from_env();
    let duration = cfg.run_duration();
    let scenarios: Vec<TreeScenario> = [
        CongestionCase::Fig10AllLevel2,
        CongestionCase::Fig10AllLevel3,
    ]
    .iter()
    .map(|&case| cfg.spec(case).with_duration(duration).build())
    .collect();
    eprintln!(
        "figure 10: generalized RLA, 36 receivers with different RTTs, {:.0} s per case...",
        duration.as_secs_f64()
    );
    let results = Pool::new(&cfg).run(scenarios);
    emit_scenario_manifest(&cfg.results_dir, "fig10", duration, &results);
    println!("Figure 10 — results with different round-trip times (f(x) = x^2)");
    println!("{}", render_fig10_table(&results));
    println!("paper reference:");
    println!("  case 1 (L2i): RLA 167.6 pkt/s cwnd 39.1 | WTCP 78.0 | BTCP 83.2");
    println!("  case 2 (L3i): RLA 161.6 pkt/s cwnd 36.5 | WTCP 64.2 | BTCP 67.7");
}
