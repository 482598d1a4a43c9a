//! Equation (3), the Proposition, and the correlation Lemma.
//!
//! * two receivers, independent loss paths (figure 2a): the paper's closed
//!   form vs our n-receiver generalization vs Monte Carlo;
//! * the Proposition's bounds (equation 2) across receiver counts;
//! * the Lemma: common losses (figure 2b) give a larger window than
//!   independent losses at the same per-receiver congestion probability.

use std::fmt::Write as _;

use analysis::{
    eq3_two_receivers, pa_window, proposition_bounds, rla_window_common, rla_window_independent,
    simulate_rla_window,
};
use experiments::prelude::*;

fn main() {
    let cfg = RunConfig::from_env();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Equation (3) — two-receiver RLA window, independent losses"
    );
    let _ = writeln!(
        out,
        "{:>8} {:>8} {:>10} {:>10} {:>12} {:>10}",
        "p1", "p2", "eq.(3)", "general", "monte-carlo", "MC/eq3"
    );
    for &(p1, p2) in &[
        (0.01, 0.01),
        (0.02, 0.02),
        (0.02, 0.01),
        (0.04, 0.002),
        (0.05, 0.0025), // the η = 20 edge: p2 = p1/20
    ] {
        let paper = eq3_two_receivers(p1, p2);
        let general = rla_window_independent(&[p1, p2]);
        let mc = simulate_rla_window(&[p1, p2], false, 4_000_000, 200_000, 7);
        let _ = writeln!(
            out,
            "{:>8.4} {:>8.4} {:>10.2} {:>10.2} {:>12.2} {:>10.3}",
            p1,
            p2,
            paper,
            general,
            mc,
            mc / paper
        );
    }

    let _ = writeln!(
        out,
        "\nProposition (equation 2) — bounds on the RLA window, p_max = 0.02"
    );
    let _ = writeln!(
        out,
        "{:>4} {:>14} {:>14} {:>12} {:>12} {:>8}",
        "n", "W (indep)", "W (common)", "lower", "upper", "inside?"
    );
    let p = 0.02;
    for &n in &[1usize, 2, 3, 9, 27] {
        let indep = rla_window_independent(&vec![p; n]);
        let common = rla_window_common(p, n);
        let b = proposition_bounds(p, n);
        // n = 1 is the degenerate boundary: W equals the lower bound.
        let tol = 1.0 + 1e-9;
        let inside = indep * tol > b.lower
            && indep < b.upper * tol
            && common * tol > b.lower
            && common < b.upper * tol;
        let _ = writeln!(
            out,
            "{:>4} {:>14.2} {:>14.2} {:>12.2} {:>12.2} {:>8}",
            n, indep, common, b.lower, b.upper, inside
        );
    }
    let _ = writeln!(
        out,
        "(lower bound = eq.(1) at p_max = {:.2}: {:.2})",
        p,
        pa_window(p)
    );

    let _ = writeln!(
        out,
        "\nLemma — correlation in losses enlarges the window (common / indep):"
    );
    for &n in &[2usize, 9, 27] {
        let indep = rla_window_independent(&vec![p; n]);
        let common = rla_window_common(p, n);
        let _ = writeln!(out, "  n = {:>2}: ratio {:.3}", n, common / indep);
    }
    print!("{out}");
    emit_analysis_manifest(
        &cfg.results_dir,
        "eq3",
        &out,
        vec![("monte_carlo_seed", 7u64.into())],
    );
    println!("\n(the same ordering shows up in figure 7: case 1 > case 2 > case 3)");
}
