//! Figure 9: RLA sharing with TCP through **RED** gateways.
//!
//! Same five cases as figure 7 with RED (5/15, buffer 20) on every link
//! and no random processing overhead — RED removes the phase effect by
//! itself. Fairness should tighten toward absolute, most visibly in
//! case 1.

use experiments::prelude::*;
use experiments::tables::render_throughput_table;

fn main() {
    let cfg = RunConfig::from_env();
    let duration = cfg.run_duration();
    let scenarios: Vec<TreeScenario> = CongestionCase::FIGURE7_CASES
        .iter()
        .map(|&case| {
            cfg.spec(case)
                .with_gateway(GatewayKind::Red)
                .with_duration(duration)
                .build()
        })
        .collect();
    eprintln!(
        "figure 9: 5 RED cases, {:.0} s each (RLA_DURATION_SECS to change)...",
        duration.as_secs_f64()
    );
    let results = Pool::new(&cfg).run(scenarios);
    emit_scenario_manifest(&cfg.results_dir, "fig9", duration, &results);
    println!(
        "{}",
        render_throughput_table("Figure 9 — simulation results with RED gateways", &results)
    );
    println!("paper reference (3000 s runs):");
    println!("  RLA  thrput: 118.0 / 103.7 /  88.3 / 141.0 / 209.2");
    println!("  WTCP thrput:  84.9 /  81.7 /  74.1 /  67.1 /  73.1");
    println!("  BTCP thrput:  86.8 /  86.1 /  74.0 / 166.2 / 576.4");
}
