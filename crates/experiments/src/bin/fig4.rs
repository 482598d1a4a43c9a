//! Figure 4: the average drift diagram of two competing RLA windows.
//!
//! Analytic Markov model of §4.4 with the paper's parameters `n = 3`,
//! `pipe = 10`: below the pipe both windows drift up the 45° line; above
//! it the drift turns back toward the fair operating point. Printed as an
//! ASCII vector field plus the raw values as CSV.

use std::fmt::Write as _;

use analysis::particle::drift_field;
use experiments::plots::render_drift_field;
use experiments::prelude::*;

fn main() {
    let cfg = RunConfig::from_env();
    let n = 3;
    let pipe = 10.0;
    let w_max = 16.0;
    let step = 1.0;
    let field = drift_field(n, pipe, w_max, step);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 4 — average drift of (cwnd1, cwnd2), n = {n}, pipe = {pipe}"
    );
    let _ = writeln!(
        out,
        "(7 = both grow; L = both shrink; direction of steepest drift per cell)"
    );
    let _ = writeln!(out, "{}", render_drift_field(&field, w_max, step));

    let _ = writeln!(out, "raw field (CSV): w1,w2,dx,dy");
    for v in &field {
        let _ = writeln!(out, "{},{},{:.4},{:.4}", v.w1, v.w2, v.dx, v.dy);
    }
    print!("{out}");
    emit_analysis_manifest(
        &cfg.results_dir,
        "fig4",
        &out,
        vec![
            ("receivers", (n as u64).into()),
            ("pipe", pipe.into()),
            ("w_max", w_max.into()),
        ],
    );

    // The headline property: drift points toward the fair point.
    let below = field
        .iter()
        .find(|v| v.w1 + v.w2 < pipe)
        .expect("points below the pipe exist");
    let above = field
        .iter()
        .find(|v| v.w1 > 12.0 && v.w2 > 12.0)
        .expect("points above the pipe exist");
    println!(
        "\ncheck: below pipe drift = (+{:.2}, +{:.2})",
        below.dx, below.dy
    );
    println!(
        "check: far above pipe drift = ({:.2}, {:.2}) (must be negative)",
        above.dx, above.dy
    );
}
