//! Figure 7: RLA sharing with TCP through **drop-tail** gateways.
//!
//! Five congestion placements on the four-level tertiary tree, soft
//! bottleneck share normalized to 100 pkt/s. Prints the paper's table:
//! RLA throughput/cwnd/RTT/signals/cuts plus the worst and best competing
//! TCP. Honours `RLA_DURATION_SECS` (default 3000 s, the paper's
//! length) and `RLA_TCP_CC` (background TCP congestion controller).

use experiments::prelude::*;
use experiments::tables::render_throughput_table;

fn main() {
    let cfg = RunConfig::from_env();
    let duration = cfg.run_duration();
    let scenarios: Vec<TreeScenario> = CongestionCase::FIGURE7_CASES
        .iter()
        .map(|&case| cfg.spec(case).with_duration(duration).build())
        .collect();
    eprintln!(
        "figure 7: 5 drop-tail cases, {:.0} s each (RLA_DURATION_SECS to change)...",
        duration.as_secs_f64()
    );
    let results = Pool::new(&cfg).run(scenarios);
    emit_scenario_manifest(&cfg.results_dir, "fig7", duration, &results);
    println!(
        "{}",
        render_throughput_table(
            "Figure 7 — simulation results with drop-tail gateways",
            &results
        )
    );
    println!("paper reference (3000 s runs):");
    println!("  RLA  thrput: 144.1 / 105.1 /  94.6 / 153.0 / 224.6");
    println!("  WTCP thrput:  81.8 /  83.0 /  79.2 /  68.2 /  74.5");
    println!("  BTCP thrput:  89.6 /  87.8 /  80.3 / 170.7 / 570.7");
}
