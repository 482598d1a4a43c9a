//! Theorems I and II: measured essential-fairness ratios vs the proved
//! bounds.
//!
//! Runs every figure-7 case under both gateway types and evaluates
//! `λ_RLA / λ_TCP` (TCP taken on the soft-bottleneck branches) against
//! Theorem I (`a = 1/3`, `b = √(3n)`, RED) and Theorem II (`a = 1/4`,
//! `b = 2n`, drop-tail). The paper's remark that the *measured* band is
//! far tighter (`a ≈ 1`, `b ≈ 3` in §5's setups) is reported alongside.

use analysis::{FairnessBounds, FairnessCheck};
use experiments::prelude::*;

fn main() {
    // Theorem sweeps run both gateway types; cap each run at a fifth of
    // the paper budget so the 10-run sweep stays tractable.
    let cfg = RunConfig::from_env();
    let duration = cfg.scaled_duration(5.0, 120.0);
    let mut scenarios = Vec::new();
    for &gw in &[GatewayKind::Red, GatewayKind::DropTail] {
        for &case in &CongestionCase::FIGURE7_CASES {
            scenarios.push(
                cfg.spec(case)
                    .with_gateway(gw)
                    .with_duration(duration)
                    .build(),
            );
        }
    }
    eprintln!(
        "theorem check: 10 runs of {:.0} s each...",
        duration.as_secs_f64()
    );
    let results = Pool::new(&cfg).run(scenarios);
    emit_scenario_manifest(&cfg.results_dir, "theorem_check", duration, &results);

    println!("Theorems I & II — measured ratio vs proved bounds (n = 27 troubled receivers)");
    println!(
        "{:>10} {:<16} {:>10} {:>10} {:>8} {:>14} {:>6}",
        "gateway", "case", "λ_RLA", "λ_TCP*", "ratio", "bounds [a,b]", "fair?"
    );
    let mut all_fair = true;
    let mut ratios: Vec<f64> = Vec::new();
    for r in &results {
        let bounds = match r.gateway {
            GatewayKind::Red => FairnessBounds::theorem1_red(27),
            GatewayKind::DropTail => FairnessBounds::theorem2_droptail(27),
        };
        let tcp = r.bottleneck_tcp_throughput();
        let check = FairnessCheck::evaluate(r.rla[0].throughput_pps, tcp, bounds);
        all_fair &= check.fair;
        ratios.push(check.ratio);
        println!(
            "{:>10} {:<16} {:>10.1} {:>10.1} {:>8.2} {:>14} {:>6}",
            match r.gateway {
                GatewayKind::Red => "RED",
                GatewayKind::DropTail => "drop-tail",
            },
            r.case_label,
            check.lambda_rla,
            check.lambda_tcp,
            check.ratio,
            format!("[{:.2},{:.1}]", bounds.a, bounds.b),
            if check.fair { "yes" } else { "NO" }
        );
    }
    let lo = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = ratios.iter().cloned().fold(0.0, f64::max);
    println!("\nall runs inside the theorem bounds: {all_fair}");
    println!(
        "measured band across all runs: a = {lo:.2}, b = {hi:.2} \
         (paper reports a ≈ 1, b ≈ 3 for its setups; the theorems only \
         guarantee [0.25, 54])"
    );
    println!("(λ_TCP* = mean TCP throughput over soft-bottleneck branches)");
}
