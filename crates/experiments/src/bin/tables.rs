//! Figures 7, 8 and 9 and Theorems I/II: four views of one sweep.
//!
//! The paper's §5 reports one set of simulations — five congestion
//! placements on the four-level tertiary tree, soft-bottleneck share
//! normalized to 100 pkt/s, through drop-tail and through RED (5/15,
//! buffer 20) gateways — three ways, and Theorems I/II are claims about
//! the same ten runs. This binary runs them once
//! ([`experiments::tables::paper_sweep`]) and prints:
//!
//! * **figure 7** — RLA throughput/cwnd/RTT/signals/cuts beside the worst
//!   and best competing TCP, drop-tail;
//! * **figure 8** — congestion signals the RLA sender detected per branch
//!   next to the TCPs' window cuts, for the figure-7 runs: on equally
//!   congested branches both see the same congestion frequency (§3.1),
//!   in the unbalanced cases 4–5 the counts diverge with the windows;
//! * **figure 9** — figure 7's table under RED, where fairness should
//!   tighten toward absolute, most visibly in case 1;
//! * **Theorems I/II** — `λ_RLA / λ_TCP` of every run against
//!   `[1/3, √(3n)]` (RED) and `[1/4, 2n]` (drop-tail).
//!
//! Exits with status 1 — after printing everything and writing
//! `tables.manifest.json` — if any ratio is outside its theorem's bounds.
//! Honours `RLA_DURATION_SECS` (default 3000 s, the paper's length),
//! `RLA_SEED`, `RLA_JOBS` and `RLA_TCP_CC`.

use std::process::ExitCode;

use experiments::prelude::*;
use experiments::tables::{
    paper_sweep, render_signal_table, render_theorem_table, render_throughput_table,
};

fn main() -> ExitCode {
    let cfg = RunConfig::from_env();
    let duration = cfg.run_duration();
    let scenarios = paper_sweep(&cfg).iter().map(ScenarioSpec::build).collect();
    eprintln!(
        "tables: 5 cases x {{drop-tail, RED}}, {:.0} s each (RLA_DURATION_SECS to change)...",
        duration.as_secs_f64()
    );
    let results = Pool::new(&cfg).run(scenarios);
    emit_scenario_manifest(&cfg.results_dir, "tables", duration, &results);
    let (droptail, red) = results.split_at(CongestionCase::FIGURE7_CASES.len());

    println!(
        "{}",
        render_throughput_table(
            "Figure 7 — simulation results with drop-tail gateways",
            droptail
        )
    );
    println!("paper reference (3000 s runs):");
    println!("  RLA  thrput: 144.1 / 105.1 /  94.6 / 153.0 / 224.6");
    println!("  WTCP thrput:  81.8 /  83.0 /  79.2 /  68.2 /  74.5");
    println!("  BTCP thrput:  89.6 /  87.8 /  80.3 / 170.7 / 570.7");

    println!("\nFigure 8 — congestion signals per branch (RLA) vs window cuts (TCP)");
    println!("{}", render_signal_table(droptail));
    println!("paper reference (worst/best/average):");
    println!("  case 1 all links:      RLA 861/861/861   TCP 879/818/851");
    println!("  case 2 all links:      RLA 762/713/707   TCP 722/688/709");
    println!("  case 3 all links:      RLA 650/609/630   TCP 657/646/652");
    println!("  case 4 more congested: RLA 952/925/938   TCP 842/819/831");
    println!("  case 4 less congested: RLA 384/351/367   TCP 413/405/409");
    println!("  case 5 more congested: RLA 1082/1082/1082 TCP 899/869/886");
    println!("  case 5 less congested: RLA 112/112/112   TCP 302/225/271");

    println!(
        "\n{}",
        render_throughput_table("Figure 9 — simulation results with RED gateways", red)
    );
    println!("paper reference (3000 s runs):");
    println!("  RLA  thrput: 118.0 / 103.7 /  88.3 / 141.0 / 209.2");
    println!("  WTCP thrput:  84.9 /  81.7 /  74.1 /  67.1 /  73.1");
    println!("  BTCP thrput:  86.8 /  86.1 /  74.0 / 166.2 / 576.4");

    let (theorems, outside) = render_theorem_table(&results);
    print!("\n{theorems}");
    if outside.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("outside the theorem bounds: {}", outside.join("; "));
        ExitCode::FAILURE
    }
}
