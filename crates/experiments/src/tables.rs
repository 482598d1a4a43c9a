//! Plain-text table rendering in the layout of the paper's figures, and
//! the one sweep the §5 tables are views of.

use analysis::{FairnessBounds, FairnessCheck};

use crate::cli::RunConfig;
use crate::metrics::{BranchSignalStats, ScenarioResult};
use crate::scenario::GatewayKind;
use crate::spec::ScenarioSpec;
use crate::tree::CongestionCase;

/// The ten simulations behind figures 7, 8 and 9 and the Theorem I/II
/// check: every figure-7 case through drop-tail gateways, then the same
/// five through RED, in [`CongestionCase::FIGURE7_CASES`] order, each
/// with the config's seed, TCP flavour and
/// [`run_duration`](RunConfig::run_duration). Figures 7 and 8 read the
/// first half of the results, figure 9 the second, the theorems all ten.
pub fn paper_sweep(cfg: &RunConfig) -> Vec<ScenarioSpec> {
    let duration = cfg.run_duration();
    [GatewayKind::DropTail, GatewayKind::Red]
        .into_iter()
        .flat_map(|gateway| {
            CongestionCase::FIGURE7_CASES
                .into_iter()
                .map(move |case| cfg.spec(case).with_gateway(gateway).with_duration(duration))
        })
        .collect()
}

/// Render a figure-7/9-style table from one result per case (columns) —
/// the RLA block, then the worst-TCP block, then the best-TCP block.
pub fn render_throughput_table(title: &str, results: &[ScenarioResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    let header: Vec<String> = results
        .iter()
        .enumerate()
        .map(|(i, r)| format!("case {}: {}", i + 1, r.case_label))
        .collect();
    out.push_str(&format!("{:<26}", "most congested links"));
    for h in &header {
        out.push_str(&format!("{h:>22}"));
    }
    out.push('\n');

    let mut row = |label: &str, values: Vec<String>| {
        out.push_str(&format!("{label:<26}"));
        for v in values {
            out.push_str(&format!("{v:>22}"));
        }
        out.push('\n');
    };

    row(
        "RLA thrput (pkt/sec)",
        results
            .iter()
            .map(|r| format!("{:.1}", r.rla[0].throughput_pps))
            .collect(),
    );
    row(
        "RLA cwnd",
        results
            .iter()
            .map(|r| format!("{:.1}", r.rla[0].cwnd_avg))
            .collect(),
    );
    row(
        "RLA RTT (sec)",
        results
            .iter()
            .map(|r| format!("{:.3}", r.rla[0].rtt_avg))
            .collect(),
    );
    row(
        "RLA # cong signals",
        results
            .iter()
            .map(|r| format!("{}", r.rla[0].cong_signals))
            .collect(),
    );
    row(
        "RLA # wnd cut",
        results
            .iter()
            .map(|r| format!("{}", r.rla[0].window_cuts))
            .collect(),
    );
    row(
        "RLA # forced cut",
        results
            .iter()
            .map(|r| format!("{}", r.rla[0].forced_cuts))
            .collect(),
    );

    // A scenario with zero competing TCP flows has no worst/best row;
    // render `n/a` cells rather than refusing to print the RLA block.
    for (label, pick) in [("WTCP", true), ("BTCP", false)] {
        let rows: Vec<Option<&crate::metrics::TcpRow>> = results
            .iter()
            .map(|r| if pick { r.worst_tcp() } else { r.best_tcp() })
            .collect();
        let cells = |fmt: &dyn Fn(&crate::metrics::TcpRow) -> String| -> Vec<String> {
            rows.iter()
                .map(|t| t.map_or_else(|| "n/a".to_string(), fmt))
                .collect()
        };
        row(
            &format!("{label} thrput (pkt/sec)"),
            cells(&|t| format!("{:.1}", t.throughput_pps)),
        );
        row(
            &format!("{label} cwnd"),
            cells(&|t| format!("{:.1}", t.cwnd_avg)),
        );
        row(
            &format!("{label} RTT (sec)"),
            cells(&|t| format!("{:.3}", t.rtt_avg)),
        );
        row(
            &format!("{label} # wnd cut"),
            cells(&|t| format!("{}", t.window_cuts)),
        );
    }
    out
}

/// Render the figure-8 table: per-branch congestion-signal statistics for
/// the RLA and the competing TCP flows, split into more/less congested
/// groups when the case is unbalanced.
pub fn render_signal_table(results: &[ScenarioResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<10}{:<18}{:>8}{:>8}{:>10}  |{:>8}{:>8}{:>10}\n",
        "case", "branches", "RLA wrst", "best", "avg", "TCP wrst", "best", "avg"
    ));
    for (i, r) in results.iter().enumerate() {
        let rla = &r.rla[0];
        let groups: Vec<(&str, Vec<usize>)> = if r.congested_leaves.is_empty() {
            vec![("all links", (0..r.tcp.len()).collect())]
        } else {
            let less: Vec<usize> = (0..r.tcp.len())
                .filter(|i| !r.congested_leaves.contains(i))
                .collect();
            vec![
                ("more congested", r.congested_leaves.clone()),
                ("less congested", less),
            ]
        };
        for (name, idxs) in groups {
            let rla_counts: Vec<u64> = idxs
                .iter()
                .map(|&j| rla.cong_signals_per_receiver[j])
                .collect();
            let tcp_counts: Vec<u64> = idxs.iter().map(|&j| r.tcp[j].window_cuts).collect();
            // Empty branch groups (e.g. zero TCP flows) render as n/a
            // instead of refusing to summarize the rest of the table.
            let cells = |s: Option<BranchSignalStats>| match s {
                Some(s) => (
                    s.worst.to_string(),
                    s.best.to_string(),
                    format!("{:.1}", s.average),
                ),
                None => ("n/a".to_string(), "n/a".to_string(), "n/a".to_string()),
            };
            let (rw, rb, ra) = cells(BranchSignalStats::from_counts(&rla_counts));
            let (tw, tb, ta) = cells(BranchSignalStats::from_counts(&tcp_counts));
            out.push_str(&format!(
                "{:<10}{:<18}{:>8}{:>8}{:>10}  |{:>8}{:>8}{:>10}\n",
                i + 1,
                name,
                rw,
                rb,
                ra,
                tw,
                tb,
                ta
            ));
        }
    }
    out
}

/// Render the Theorem I/II table: each run's `λ_RLA / λ_TCP` (TCP taken
/// on the soft-bottleneck branches) against Theorem I's `[1/3, √(3n)]`
/// for RED and Theorem II's `[1/4, 2n]` for drop-tail, `n = 27`, plus the
/// measured band the paper's §5 remark compares with (`a ≈ 1`, `b ≈ 3`).
/// Returns the text and the `"<gateway> <case>"` cells whose ratio lies
/// outside its (closed) interval — empty when the theorems hold.
pub fn render_theorem_table(results: &[ScenarioResult]) -> (String, Vec<String>) {
    /// Troubled receivers in every figure-7 case: all 27 leaves.
    const N: usize = 27;
    let mut out =
        format!("Theorems I & II — measured ratio vs proved bounds (n = {N} troubled receivers)\n");
    out.push_str(&format!(
        "{:>10} {:<16} {:>10} {:>10} {:>8} {:>14} {:>6}\n",
        "gateway", "case", "λ_RLA", "λ_TCP*", "ratio", "bounds [a,b]", "fair?"
    ));
    let mut outside = Vec::new();
    let (mut lo, mut hi) = (f64::INFINITY, 0.0_f64);
    for r in results {
        let (gateway, bounds) = match r.gateway {
            GatewayKind::Red => ("RED", FairnessBounds::theorem1_red(N)),
            GatewayKind::DropTail => ("drop-tail", FairnessBounds::theorem2_droptail(N)),
        };
        let check = FairnessCheck::evaluate(
            r.rla[0].throughput_pps,
            r.bottleneck_tcp_throughput(),
            bounds,
        );
        if !check.fair {
            outside.push(format!("{gateway} {}", r.case_label));
        }
        lo = lo.min(check.ratio);
        hi = hi.max(check.ratio);
        out.push_str(&format!(
            "{:>10} {:<16} {:>10.1} {:>10.1} {:>8.2} {:>14} {:>6}\n",
            gateway,
            r.case_label,
            check.lambda_rla,
            check.lambda_tcp,
            check.ratio,
            format!("[{:.2},{:.1}]", bounds.a, bounds.b),
            if check.fair { "yes" } else { "NO" }
        ));
    }
    out.push_str(&format!(
        "\nall runs inside the theorem bounds: {}\n",
        outside.is_empty()
    ));
    out.push_str(&format!(
        "measured band across all runs: a = {lo:.2}, b = {hi:.2} \
         (paper reports a ≈ 1, b ≈ 3 for its setups; the theorems only \
         guarantee [0.25, 54])\n"
    ));
    out.push_str("(λ_TCP* = mean TCP throughput over soft-bottleneck branches)\n");
    (out, outside)
}

/// Render the figure-10 table (generalized RLA, unequal RTTs).
pub fn render_fig10_table(results: &[ScenarioResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<6}{:<16}{:>10}{:>8}{:>8}{:>10}{:>8}{:>8} |{:>10}{:>8}{:>8}{:>8} |{:>10}{:>8}{:>8}{:>8}\n",
        "case", "links", "RLAthr", "cwnd", "RTT", "#cong", "#cut", "#forc", "WTCPthr", "cwnd",
        "RTT", "#cut", "BTCPthr", "cwnd", "RTT", "#cut"
    ));
    // Like the figure-7 table, zero-TCP scenarios get n/a cells in the
    // WTCP/BTCP blocks rather than a panic.
    let tcp_cells = |t: Option<&crate::metrics::TcpRow>| match t {
        Some(t) => (
            format!("{:.1}", t.throughput_pps),
            format!("{:.1}", t.cwnd_avg),
            format!("{:.3}", t.rtt_avg),
            t.window_cuts.to_string(),
        ),
        None => (
            "n/a".to_string(),
            "n/a".to_string(),
            "n/a".to_string(),
            "n/a".to_string(),
        ),
    };
    for (i, r) in results.iter().enumerate() {
        let a = &r.rla[0];
        let (wt, wc, wr, ww) = tcp_cells(r.worst_tcp());
        let (bt, bc, br, bw) = tcp_cells(r.best_tcp());
        out.push_str(&format!(
            "{:<6}{:<16}{:>10.1}{:>8.1}{:>8.3}{:>10}{:>8}{:>8} |{:>10}{:>8}{:>8}{:>8} |{:>10}{:>8}{:>8}{:>8}\n",
            i + 1,
            r.case_label,
            a.throughput_pps,
            a.cwnd_avg,
            a.rtt_avg,
            a.cong_signals,
            a.window_cuts,
            a.forced_cuts,
            wt,
            wc,
            wr,
            ww,
            bt,
            bc,
            br,
            bw
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{RlaRow, TcpRow};

    fn fake_result() -> ScenarioResult {
        ScenarioResult {
            case_label: "L1".into(),
            gateway: GatewayKind::DropTail,
            congested_leaves: vec![],
            measured_secs: 2900.0,
            seed: 1,
            trace_digest: 0,
            trace_events: 0,
            events: vec![],
            registry: telemetry::Snapshot::default(),
            rla: vec![RlaRow {
                throughput_pps: 144.1,
                cwnd_avg: 33.9,
                rtt_avg: 0.234,
                cong_signals: 23247,
                cong_signals_per_receiver: vec![861; 27],
                window_cuts: 840,
                forced_cuts: 0,
                timeouts: 0,
                retransmits: 100,
            }],
            tcp: (0..27)
                .map(|i| TcpRow {
                    receiver_index: i,
                    throughput_pps: 80.0 + i as f64,
                    cwnd_avg: 20.0,
                    rtt_avg: 0.233,
                    window_cuts: 850,
                    timeouts: 0,
                })
                .collect(),
        }
    }

    #[test]
    fn throughput_table_contains_all_blocks() {
        let t = render_throughput_table("figure 7", &[fake_result()]);
        assert!(t.contains("RLA thrput"));
        assert!(t.contains("144.1"));
        assert!(t.contains("WTCP thrput"));
        assert!(t.contains("80.0"));
        assert!(t.contains("BTCP thrput"));
        assert!(t.contains("106.0"));
    }

    #[test]
    fn signal_table_groups_branches() {
        let mut r = fake_result();
        r.congested_leaves = vec![0, 1, 2];
        let t = render_signal_table(&[r]);
        assert!(t.contains("more congested"));
        assert!(t.contains("less congested"));
    }

    #[test]
    fn fig10_table_renders() {
        let t = render_fig10_table(&[fake_result()]);
        assert!(t.contains("144.1"));
        assert!(t.contains("WTCP"));
    }

    #[test]
    fn zero_tcp_scenarios_render_na_cells_instead_of_panicking() {
        let mut r = fake_result();
        r.tcp.clear();
        r.rla[0].cong_signals_per_receiver.clear();

        let t = render_throughput_table("figure 7", &[r.clone()]);
        assert!(t.contains("RLA thrput"));
        assert!(t.contains("144.1"));
        assert!(t.contains("WTCP thrput"));
        assert!(t.contains("n/a"));

        let t = render_fig10_table(&[r.clone()]);
        assert!(t.contains("144.1"));
        assert!(t.contains("n/a"));

        let t = render_signal_table(&[r]);
        assert!(t.contains("all links"));
        assert!(t.contains("n/a"));
    }

    /// One fabricated sweep cell: every TCP at 100 pkt/s, the RLA at
    /// `ratio` times that.
    fn cell(gateway: GatewayKind, case: CongestionCase, ratio: f64) -> ScenarioResult {
        let mut r = fake_result();
        r.gateway = gateway;
        r.case_label = case.label().into();
        r.rla[0].throughput_pps = 100.0 * ratio;
        for t in &mut r.tcp {
            t.throughput_pps = 100.0;
        }
        r
    }

    /// The sweep's (gateway, case) cells in the order the views assume.
    fn sweep_order() -> Vec<(GatewayKind, CongestionCase)> {
        [GatewayKind::DropTail, GatewayKind::Red]
            .into_iter()
            .flat_map(|gw| CongestionCase::FIGURE7_CASES.map(|case| (gw, case)))
            .collect()
    }

    /// Ten cells in sweep order, every ratio 1.5 except the overrides.
    fn fake_sweep(overrides: &[(GatewayKind, CongestionCase, f64)]) -> Vec<ScenarioResult> {
        sweep_order()
            .into_iter()
            .map(|(gw, case)| {
                let ratio = overrides
                    .iter()
                    .find(|o| (o.0, o.1) == (gw, case))
                    .map_or(1.5, |o| o.2);
                cell(gw, case, ratio)
            })
            .collect()
    }

    #[test]
    fn theorem_table_counts_a_ratio_on_a_bound_as_inside() {
        // Drop-tail's [1/4, 2n] at n = 27, both ends hit exactly.
        let (text, outside) = render_theorem_table(&fake_sweep(&[
            (GatewayKind::DropTail, CongestionCase::Case1RootLink, 0.25),
            (GatewayKind::DropTail, CongestionCase::Case5OneLevel2, 54.0),
        ]));
        assert!(outside.is_empty(), "{outside:?}");
        assert!(text.contains("all runs inside the theorem bounds: true"));
        assert_eq!(text.matches(" yes\n").count(), 10, "{text}");
        assert!(text.contains("a = 0.25, b = 54.00"), "{text}");
    }

    #[test]
    fn theorem_table_names_every_cell_outside_its_bounds() {
        // 0.30 < 1/3 under RED and 55 > 2n under drop-tail are outside;
        // 10 under drop-tail is inside, though above RED's √(3n) = 9 —
        // each run is held to its own gateway's theorem.
        let (text, outside) = render_theorem_table(&fake_sweep(&[
            (GatewayKind::DropTail, CongestionCase::Case5OneLevel2, 55.0),
            (GatewayKind::Red, CongestionCase::Case1RootLink, 0.30),
            (GatewayKind::DropTail, CongestionCase::Case4FiveLeaves, 10.0),
        ]));
        assert_eq!(outside, ["drop-tail L21", "RED L1"]);
        assert!(text.contains("all runs inside the theorem bounds: false"));
        assert_eq!(text.matches(" yes\n").count(), 8, "{text}");
        assert_eq!(text.matches(" NO\n").count(), 2, "{text}");
    }

    #[test]
    fn paper_sweep_is_five_droptail_then_five_red_under_the_config() {
        let cfg = RunConfig::from_vars(|knob| {
            let v = match knob {
                "RLA_SEED" => "7",
                "RLA_DURATION_SECS" => "90",
                "RLA_TCP_CC" => "reno",
                _ => return None,
            };
            Some(v.to_string())
        });
        let sweep: Vec<_> = paper_sweep(&cfg).iter().map(ScenarioSpec::build).collect();
        let cells: Vec<_> = sweep.iter().map(|s| (s.gateway, s.case)).collect();
        assert_eq!(cells, sweep_order());
        let labels: std::collections::BTreeSet<_> = sweep
            .iter()
            .map(|s| (s.case.label(), s.gateway == GatewayKind::Red))
            .collect();
        assert_eq!(labels.len(), 10, "manifest labels must not collide");
        for s in &sweep {
            assert_eq!(s.seed, 7);
            assert_eq!(s.duration, cfg.run_duration());
            assert_eq!(s.tcp_cc.name(), "reno");
        }
        assert_eq!(cfg.run_duration().as_secs_f64(), 90.0);
    }
}
