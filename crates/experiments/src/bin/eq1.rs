//! Equation (1): the proportional-average TCP window `√(2(1−p))/√p`.
//!
//! Sweeps the congestion probability, comparing the closed form, its
//! small-`p` approximation, a Monte-Carlo simulation of the §4.1 window
//! process, and the Mahdavi–Floyd throughput rule the paper cites.

use std::fmt::Write as _;

use analysis::{mahdavi_floyd_pps, pa_window, pa_window_approx, simulate_tcp_window};
use experiments::prelude::*;

fn main() {
    let cfg = RunConfig::from_env();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Equation (1) — PA window size vs congestion probability p"
    );
    let _ = writeln!(
        out,
        "{:>8} {:>12} {:>12} {:>14} {:>10} {:>16}",
        "p", "eq.(1)", "sqrt(2)/√p", "monte-carlo", "MC/eq.(1)", "MF pkt/s @230ms"
    );
    for &p in &[0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.03, 0.05] {
        let closed = pa_window(p);
        let approx = pa_window_approx(p);
        let sim = simulate_tcp_window(p, 4_000_000, 200_000, 42);
        let mf = mahdavi_floyd_pps(p, 0.230);
        let _ = writeln!(
            out,
            "{:>8.4} {:>12.2} {:>12.2} {:>14.2} {:>10.3} {:>16.1}",
            p,
            closed,
            approx,
            sim.mean,
            sim.mean / closed,
            mf
        );
    }
    print!("{out}");
    emit_analysis_manifest(
        &cfg.results_dir,
        "eq1",
        &out,
        vec![("monte_carlo_seed", 42u64.into())],
    );
    println!("\nThe Monte-Carlo time average tracks the closed form (ratio ≈ 1),");
    println!("and both scale as 1/√p — the relation every §4 bound builds on.");
}
