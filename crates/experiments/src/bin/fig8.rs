//! Figure 8: per-branch congestion-signal statistics.
//!
//! For the five drop-tail cases, the number of congestion signals the RLA
//! sender detected from each receiver (worst/best/average per branch
//! group) next to the competing TCP connections' window-cut counts. The
//! paper's point: on equally congested branches both protocols see the
//! same congestion frequency (§3.1's macro-argument); in the unbalanced
//! cases 4–5 the counts diverge because the window sizes differ.

use experiments::prelude::*;
use experiments::tables::render_signal_table;

fn main() {
    let cfg = RunConfig::from_env();
    let duration = cfg.run_duration();
    let scenarios: Vec<TreeScenario> = CongestionCase::FIGURE7_CASES
        .iter()
        .map(|&case| cfg.spec(case).with_duration(duration).build())
        .collect();
    eprintln!(
        "figure 8: per-branch signal statistics, {:.0} s per case...",
        duration.as_secs_f64()
    );
    let results = Pool::new(&cfg).run(scenarios);
    emit_scenario_manifest(&cfg.results_dir, "fig8", duration, &results);
    println!("Figure 8 — congestion signals per branch (RLA) vs window cuts (TCP)");
    println!("{}", render_signal_table(&results));
    println!("paper reference (worst/best/average):");
    println!("  case 1 all links:      RLA 861/861/861   TCP 879/818/851");
    println!("  case 2 all links:      RLA 762/713/707   TCP 722/688/709");
    println!("  case 3 all links:      RLA 650/609/630   TCP 657/646/652");
    println!("  case 4 more congested: RLA 952/925/938   TCP 842/819/831");
    println!("  case 4 less congested: RLA 384/351/367   TCP 413/405/409");
    println!("  case 5 more congested: RLA 1082/1082/1082 TCP 899/869/886");
    println!("  case 5 less congested: RLA 112/112/112   TCP 302/225/271");
}
