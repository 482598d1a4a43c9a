//! The paper's §5 — figures 7 to 10, §5.2 and Theorems I/II — as six
//! views of one sweep.
//!
//! The paper's §5 reports one set of simulations on the four-level
//! tertiary tree, soft-bottleneck share normalized to 100 pkt/s. This
//! binary runs all thirteen once ([`experiments::tables::paper_sweep`])
//! and prints:
//!
//! * **figure 7** — RLA throughput/cwnd/RTT/signals/cuts beside the worst
//!   and best competing TCP, five congestion placements, drop-tail;
//! * **figure 8** — congestion signals the RLA sender detected per branch
//!   next to the TCPs' window cuts, for the figure-7 runs: on equally
//!   congested branches both see the same congestion frequency (§3.1),
//!   in the unbalanced cases 4–5 the counts diverge with the windows;
//! * **figure 9** — figure 7's table under RED (5/15, buffer 20), where
//!   fairness should tighten toward absolute, most visibly in case 1;
//! * **Theorems I/II** — `λ_RLA / λ_TCP` of the ten figure-7/9 runs
//!   against `[1/3, √(3n)]` (RED) and `[1/4, 2n]` (drop-tail);
//! * **figure 10** — figure 7's table for the generalized RLA with
//!   unequal RTTs: the G3 gateways join as receivers (36 in total; base
//!   RTT 30 ms against the leaves' 230 ms) and the sender scales its cut
//!   probability by `(srtt_i / srtt_max)²`, bottlenecks on all level-2 or
//!   all level-3 links;
//! * **§5.2** — two overlapping RLA sessions on the case-3 topology,
//!   which should split their share equally (§4.4).
//!
//! Beside each view, the paper's own numbers
//! ([`experiments::tables::PAPER`]); last, a score of every figure-7/8/9
//! cell's relative error against them
//! ([`experiments::tables::render_score`]).
//!
//! Exits with status 1 — after printing everything and writing
//! `tables.manifest.json` — if any ratio is outside its theorem's bounds.
//! Honours `RLA_DURATION_SECS` (default 3000 s, the paper's length),
//! `RLA_SEED`, `RLA_JOBS` and `RLA_TCP_CC`.

use std::process::ExitCode;

use experiments::prelude::*;
use experiments::tables::{
    paper_sweep, render_fig10_reference, render_score, render_sessions_reference,
    render_sessions_table, render_signal_reference, render_signal_table, render_theorem_table,
    render_throughput_reference, render_throughput_table, PAPER,
};

fn main() -> ExitCode {
    let cfg = RunConfig::from_env();
    let duration = cfg.run_duration();
    let scenarios: Vec<_> = paper_sweep(&cfg).iter().map(ScenarioSpec::build).collect();
    eprintln!(
        "tables: {} runs, {:.0} s each (RLA_DURATION_SECS to change)...",
        scenarios.len(),
        duration.as_secs_f64()
    );
    let results = Pool::new(&cfg).run(scenarios);
    emit_scenario_manifest(&cfg.results_dir, "tables", duration, &results);
    let cases = CongestionCase::FIGURE7_CASES.len();
    let (theorem_runs, rest) = results.split_at(2 * cases);
    let (droptail, red) = theorem_runs.split_at(cases);
    let (fig10, sec52) = rest.split_at(CongestionCase::FIGURE10_CASES.len());

    let title = "Figure 7 — simulation results with drop-tail gateways";
    println!("{}", render_throughput_table(title, droptail));
    print!("{}", render_throughput_reference(&PAPER.fig7));

    let title = "Figure 8 — congestion signals per branch (RLA) vs window cuts (TCP)";
    println!("\n{}", render_signal_table(title, droptail));
    print!("{}", render_signal_reference(&PAPER.fig8));

    let title = "Figure 9 — simulation results with RED gateways";
    println!("\n{}", render_throughput_table(title, red));
    print!("{}", render_throughput_reference(&PAPER.fig9));

    let (theorems, outside) = render_theorem_table(theorem_runs);
    print!("\n{theorems}");

    let title = "Figure 10 — results with different round-trip times (f(x) = x^2)";
    println!("\n{}", render_throughput_table(title, fig10));
    print!("{}", render_fig10_reference(&PAPER.fig10));

    let title = "Section 5.2 — two overlapping multicast sessions (case-3 topology)";
    print!("\n{}", render_sessions_table(title, &sec52[0]));
    print!("{}", render_sessions_reference(&PAPER.sec52));

    print!("\n{}", render_score(droptail, red));

    if outside.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("outside the theorem bounds: {}", outside.join("; "));
        ExitCode::FAILURE
    }
}
