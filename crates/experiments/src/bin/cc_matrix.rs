//! The congestion-controller fairness grid: every registered TCP variant
//! × the five §5 congestion cases.
//!
//! Each cell reruns a paper tree scenario with the background TCP flows
//! driven by one controller from the `tcp_sack` registry (SACK, Reno,
//! CUBIC, BBRv1, and whatever gets registered next) and summarizes how
//! the soft bottleneck is shared: Jain's index, the worst pairwise
//! throughput ratio, and the paper's `λ_RLA / λ_WTCP`. One manifest
//! (`cc_matrix.manifest.json`) records the whole grid with a `tcp_cc`
//! field per run, so `rla_diff` can regression-gate every pairing's
//! fairness at once.
//!
//! `--quick` shrinks every cell to a 20 s smoke run for CI; the default
//! budget divides `RLA_DURATION_SECS` across the grid.

use experiments::prelude::*;

fn main() {
    let cfg = RunConfig::from_env();
    let quick = std::env::args().any(|a| a == "--quick");
    let duration = if quick {
        SimDuration::from_secs(20)
    } else {
        cfg.scaled_duration(10.0, 120.0)
    };
    let seed = cfg.seed;
    let grid = MatrixConfig::full(duration, seed);
    let cells = run_matrix(&grid, &Pool::new(&cfg));

    println!(
        "CC fairness matrix ({} variants x {} cases, {} s cells, seed {seed})",
        grid.variants.len(),
        grid.cases.len(),
        duration.as_secs_f64()
    );
    println!(
        "{:<16} {:<6} {:>10} {:>10} {:>8} {:>12} {:>10}",
        "case", "tcp", "rla", "wtcp", "jain", "worst pair", "rla/wtcp"
    );
    for cell in &cells {
        let r = &cell.result;
        println!(
            "{:<16} {:<6} {:>10.1} {:>10.1} {:>8.3} {:>12.2} {:>10.2}",
            r.case_label,
            cell.cc.name(),
            r.rla[0].throughput_pps,
            r.worst_tcp().map_or(0.0, |t| t.throughput_pps),
            cell.jain(),
            cell.worst_pair(),
            cell.rla_over_wtcp(),
        );
    }

    let manifest = experiments::ccmatrix::matrix_manifest("cc_matrix", &grid, &cells);
    emit_manifest(&cfg.results_dir, "cc_matrix", &manifest);

    println!(
        "\nexpected shape: every row's rla/wtcp ratio stays inside the paper's\n\
         essential-fairness bounds — the RLA keys off losses, so loss-based\n\
         controllers (sack, reno, cubic) land close together, while bbr's\n\
         rate-based probing shifts the TCP side without starving either party."
    );
}
