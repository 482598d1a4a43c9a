//! Plain-text table rendering in the layout of the paper's figures, the
//! one sweep the §5 tables are views of, and the paper's own numbers
//! ([`PAPER`]) the views are printed beside.

use analysis::{FairnessBounds, FairnessCheck};

use crate::cli::RunConfig;
use crate::metrics::{BranchSignalStats, RlaRow, ScenarioResult, TcpRow};
use crate::scenario::GatewayKind;
use crate::spec::ScenarioSpec;
use crate::tree::CongestionCase;

/// The thirteen simulations behind §5, in the order the views read them:
/// every figure-7 case through drop-tail gateways, then the same five
/// through RED, in [`CongestionCase::FIGURE7_CASES`] order — figures 7–9
/// and the Theorem I/II check; then figure 10's
/// [`CongestionCase::FIGURE10_CASES`]; then §5.2's case 3 with two
/// overlapping sessions. Each runs with the config's seed, TCP flavour
/// and [`run_duration`](RunConfig::run_duration).
pub fn paper_sweep(cfg: &RunConfig) -> Vec<ScenarioSpec> {
    let figs_7_to_9 = [GatewayKind::DropTail, GatewayKind::Red]
        .into_iter()
        .flat_map(|gateway| {
            CongestionCase::FIGURE7_CASES
                .into_iter()
                .map(move |case| cfg.spec(case).with_gateway(gateway))
        });
    let fig10 = CongestionCase::FIGURE10_CASES.map(|case| cfg.spec(case));
    let sec52 = cfg.spec(CongestionCase::Case3AllLeaves).with_sessions(2);
    figs_7_to_9
        .chain(fig10)
        .chain([sec52])
        .map(|spec| spec.with_duration(cfg.run_duration()))
        .collect()
}

/// The paper's §5 numbers, figure by figure; [`PAPER`] is the one
/// instance. Throughputs are pkt/s, windows packets.
#[derive(Debug)]
pub struct Paper {
    /// Figure 7 (drop-tail): the RLA, worst-TCP and best-TCP throughput
    /// rows, in [`CongestionCase::FIGURE7_CASES`] order.
    pub fig7: [[f64; 5]; 3],
    /// Figure 8, one row per branch group: the case (1–5), the group, the
    /// RLA's congestion signals and the TCPs' window cuts per branch, each
    /// as worst / best / average.
    pub fig8: [(u8, &'static str, [u64; 3], [u64; 3]); 7],
    /// Figure 9 (RED), laid out as figure 7.
    pub fig9: [[f64; 5]; 3],
    /// Figure 10, in [`CongestionCase::FIGURE10_CASES`] order: the
    /// congested links, then RLA throughput, RLA window, WTCP and BTCP
    /// throughput.
    pub fig10: [(&'static str, [f64; 4]); 2],
    /// §5.2: the two sessions' throughputs, then their windows.
    pub sec52: [[f64; 2]; 2],
}

/// Every number the paper's §5 reports that `tables` measures: 30
/// throughput cells for figures 7 and 9, 42 counts for figure 8, 8 cells
/// for figure 10 and 4 for §5.2. The "paper reference" blocks render from
/// here and nowhere else.
pub const PAPER: Paper = Paper {
    fig7: [
        [144.1, 105.1, 94.6, 153.0, 224.6],
        [81.8, 83.0, 79.2, 68.2, 74.5],
        [89.6, 87.8, 80.3, 170.7, 570.7],
    ],
    fig8: [
        (1, "all links", [861, 861, 861], [879, 818, 851]),
        (2, "all links", [762, 713, 707], [722, 688, 709]),
        (3, "all links", [650, 609, 630], [657, 646, 652]),
        (4, "more congested", [952, 925, 938], [842, 819, 831]),
        (4, "less congested", [384, 351, 367], [413, 405, 409]),
        (5, "more congested", [1082, 1082, 1082], [899, 869, 886]),
        (5, "less congested", [112, 112, 112], [302, 225, 271]),
    ],
    fig9: [
        [118.0, 103.7, 88.3, 141.0, 209.2],
        [84.9, 81.7, 74.1, 67.1, 73.1],
        [86.8, 86.1, 74.0, 166.2, 576.4],
    ],
    fig10: [
        ("L2i", [167.6, 39.1, 78.0, 83.2]),
        ("L3i", [161.6, 36.5, 64.2, 67.7]),
    ],
    sec52: [[65.1, 65.9], [19.9, 20.1]],
};

/// Figure 7's or 9's "paper reference" block.
pub fn render_throughput_reference(rows: &[[f64; 5]; 3]) -> String {
    let mut out = String::from("paper reference (3000 s runs):\n");
    for (flow, cells) in ["RLA", "WTCP", "BTCP"].iter().zip(rows) {
        let cells: Vec<String> = cells.iter().map(|v| format!("{v:>5.1}")).collect();
        out.push_str(&format!("  {flow:<4} thrput: {}\n", cells.join(" / ")));
    }
    out
}

/// Figure 8's "paper reference" block.
pub fn render_signal_reference(rows: &[(u8, &str, [u64; 3], [u64; 3])]) -> String {
    let triple = |c: &[u64; 3]| format!("{}/{}/{}", c[0], c[1], c[2]);
    let mut out = String::from("paper reference (worst/best/average):\n");
    for (case, branches, rla, tcp) in rows {
        let group = format!("case {case} {branches}:");
        out.push_str(&format!(
            "  {group:<23}RLA {:<13} TCP {}\n",
            triple(rla),
            triple(tcp)
        ));
    }
    out
}

/// Figure 10's "paper reference" block.
pub fn render_fig10_reference(rows: &[(&str, [f64; 4])]) -> String {
    let mut out = String::from("paper reference:\n");
    for (i, (links, [rla, cwnd, wtcp, btcp])) in rows.iter().enumerate() {
        let case = i + 1;
        out.push_str(&format!(
            "  case {case} ({links}): RLA {rla:.1} pkt/s cwnd {cwnd:.1} | WTCP {wtcp:.1} | BTCP {btcp:.1}\n"
        ));
    }
    out
}

/// §5.2's "paper reference" line.
pub fn render_sessions_reference([pps, cwnd]: &[[f64; 2]; 2]) -> String {
    format!(
        "paper reference: {:.1} / {:.1} pkt/s, windows {:.1} / {:.1}\n",
        pps[0], pps[1], cwnd[0], cwnd[1]
    )
}

/// How one row of [`render_throughput_table`] renders a flow's cell.
type Cell<Row> = fn(&Row) -> String;

/// Render a figure-7/9-style table from one result per case (columns) —
/// the RLA block, then the worst-TCP block, then the best-TCP block.
pub fn render_throughput_table(title: &str, results: &[ScenarioResult]) -> String {
    let mut out = format!("{title}\n{:<26}", "most congested links");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "{:>22}",
            format!("case {}: {}", i + 1, r.case_label)
        ));
    }
    out.push('\n');
    let mut row = |label: &str, cells: Vec<String>| {
        out.push_str(&format!("{label:<26}"));
        for c in cells {
            out.push_str(&format!("{c:>22}"));
        }
        out.push('\n');
    };
    let rla_rows: [(&str, Cell<RlaRow>); 6] = [
        ("RLA thrput (pkt/sec)", |a| {
            format!("{:.1}", a.throughput_pps)
        }),
        ("RLA cwnd", |a| format!("{:.1}", a.cwnd_avg)),
        ("RLA RTT (sec)", |a| format!("{:.3}", a.rtt_avg)),
        ("RLA # cong signals", |a| a.cong_signals.to_string()),
        ("RLA # wnd cut", |a| a.window_cuts.to_string()),
        ("RLA # forced cut", |a| a.forced_cuts.to_string()),
    ];
    for (label, cell) in rla_rows {
        row(label, results.iter().map(|r| cell(&r.rla[0])).collect());
    }
    // A TCP cut counts fast recoveries and timeouts alike; the last row
    // says how many of them were timeouts.
    let tcp_rows: [(&str, Cell<TcpRow>); 5] = [
        ("thrput (pkt/sec)", |t| format!("{:.1}", t.throughput_pps)),
        ("cwnd", |t| format!("{:.1}", t.cwnd_avg)),
        ("RTT (sec)", |t| format!("{:.3}", t.rtt_avg)),
        ("# wnd cut", |t| t.window_cuts.to_string()),
        ("# of which RTO", |t| t.timeouts.to_string()),
    ];
    for (flow, worst) in [("WTCP", true), ("BTCP", false)] {
        for (label, cell) in tcp_rows {
            // A scenario with zero competing TCP flows has no worst/best
            // row; render `n/a` cells rather than refusing to print.
            let cells = results
                .iter()
                .map(|r| if worst { r.worst_tcp() } else { r.best_tcp() })
                .map(|t| t.map_or_else(|| "n/a".to_string(), cell))
                .collect();
            row(&format!("{flow} {label}"), cells);
        }
    }
    out
}

/// Render the figure-8 table: per-branch congestion-signal statistics for
/// the RLA and the competing TCP flows, split into more/less congested
/// groups when the case is unbalanced.
pub fn render_signal_table(title: &str, results: &[ScenarioResult]) -> String {
    let mut out = format!("{title}\n");
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
                Some(s) => [
                    s.worst.to_string(),
                    s.best.to_string(),
                    format!("{:.1}", s.average),
                ],
                None => ["n/a"; 3].map(String::from),
            };
            let [rw, rb, ra] = cells(BranchSignalStats::from_counts(&rla_counts));
            let [tw, tb, ta] = cells(BranchSignalStats::from_counts(&tcp_counts));
            let case = i + 1;
            out.push_str(&format!(
                "{case:<10}{name:<18}{rw:>8}{rb:>8}{ra:>10}  |{tw:>8}{tb:>8}{ta:>10}\n"
            ));
        }
    }
    out
}

/// Render the §5.2 view of a run with overlapping RLA sessions: each
/// session's throughput, window and cuts, how the sessions split their
/// total, and the worst and best competing TCP (`n/a` without one).
pub fn render_sessions_table(title: &str, r: &ScenarioResult) -> String {
    let mut out = format!("{title}\n");
    for (i, s) in r.rla.iter().enumerate() {
        let (n, pps, cwnd, cuts) = (i + 1, s.throughput_pps, s.cwnd_avg, s.window_cuts);
        out.push_str(&format!(
            "  session {n}: throughput {pps:>7.1} pkt/s   avg cwnd {cwnd:>6.1}   wnd cuts {cuts}\n"
        ));
    }
    let total: f64 = r.rla.iter().map(|s| s.throughput_pps).sum();
    let shares: Vec<String> = r
        .rla
        .iter()
        .map(|s| format!("{:.1}%", 100.0 * s.throughput_pps / total))
        .collect();
    out.push_str(&format!("  split: {}\n", shares.join(" / ")));
    let [worst, best] = [r.worst_tcp(), r.best_tcp()]
        .map(|t| t.map_or_else(|| "n/a".to_string(), |t| format!("{:.1}", t.throughput_pps)));
    out.push_str(&format!(
        "  competing TCP: worst {worst}, best {best} pkt/s\n"
    ));
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

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::time::SimDuration;

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
    fn rto_rows_read_timeouts_not_window_cuts() {
        let mut r = fake_result();
        for t in &mut r.tcp {
            t.timeouts = 600 + t.receiver_index as u64;
        }
        let t = render_throughput_table("figure 7", &[r]);
        let cell = |label: &str| {
            let line = t.lines().find(|l| l.starts_with(label)).expect(label);
            line[label.len()..].trim().to_string()
        };
        // WTCP is receiver 0 (80 pkt/s), BTCP receiver 26 (106 pkt/s).
        assert_eq!(cell("WTCP # wnd cut"), "850");
        assert_eq!(cell("WTCP # of which RTO"), "600");
        assert_eq!(cell("BTCP # wnd cut"), "850");
        assert_eq!(cell("BTCP # of which RTO"), "626");
    }

    #[test]
    fn signal_table_groups_branches() {
        let mut r = fake_result();
        r.congested_leaves = vec![0, 1, 2];
        let t = render_signal_table("figure 8", &[r]);
        assert!(t.starts_with("figure 8\n"));
        assert!(t.contains("more congested"));
        assert!(t.contains("less congested"));
    }

    #[test]
    fn sessions_table_splits_the_sessions_total() {
        let mut r = fake_result();
        r.rla.push(r.rla[0].clone());
        r.rla[1].throughput_pps = 3.0 * r.rla[0].throughput_pps;
        let t = render_sessions_table("section 5.2", &r);
        assert!(t.contains("  session 2: throughput   432.3 pkt/s"), "{t}");
        assert!(t.contains("  split: 25.0% / 75.0%\n"), "{t}");
        assert!(
            t.contains("  competing TCP: worst 80.0, best 106.0 pkt/s\n"),
            "{t}"
        );
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

        let t = render_sessions_table("section 5.2", &r);
        assert!(t.contains("144.1"));
        assert!(
            t.contains("competing TCP: worst n/a, best n/a pkt/s"),
            "{t}"
        );

        let t = render_signal_table("figure 8", &[r]);
        assert!(t.contains("all links"));
        assert!(t.contains("n/a"));
    }

    #[test]
    fn paper_reference_blocks_keep_their_published_layout() {
        let fig7 = render_throughput_reference(&PAPER.fig7);
        assert!(fig7.starts_with("paper reference (3000 s runs):\n"));
        assert!(fig7.contains("\n  RLA  thrput: 144.1 / 105.1 /  94.6 / 153.0 / 224.6\n"));
        let fig8 = render_signal_reference(&PAPER.fig8);
        assert!(fig8.contains("\n  case 1 all links:      RLA 861/861/861   TCP 879/818/851\n"));
        // The one RLA triple wider than its column pushes TCP right.
        assert!(fig8.contains("\n  case 5 more congested: RLA 1082/1082/1082 TCP 899/869/886\n"));
        assert_eq!(fig8.lines().count(), 1 + PAPER.fig8.len());
        assert!(render_fig10_reference(&PAPER.fig10)
            .ends_with("\n  case 2 (L3i): RLA 161.6 pkt/s cwnd 36.5 | WTCP 64.2 | BTCP 67.7\n"));
        assert_eq!(
            render_sessions_reference(&PAPER.sec52),
            "paper reference: 65.1 / 65.9 pkt/s, windows 19.9 / 20.1\n"
        );
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
    fn paper_sweep_is_figures_7_to_9_then_10_then_section_5_2_under_the_config() {
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
        let runs: Vec<_> = sweep
            .iter()
            .map(|s| (s.gateway, s.case, s.rla_sessions))
            .collect();
        let mut expected: Vec<_> = sweep_order()
            .into_iter()
            .map(|(gw, case)| (gw, case, 1))
            .collect();
        expected
            .extend(CongestionCase::FIGURE10_CASES.map(|case| (GatewayKind::DropTail, case, 1)));
        expected.push((GatewayKind::DropTail, CongestionCase::Case3AllLeaves, 2));
        assert_eq!(runs, expected);
        for s in &sweep {
            assert_eq!(s.seed, 7);
            assert_eq!(s.duration, cfg.run_duration());
            assert_eq!(s.tcp_cc.name(), "reno");
        }
        assert_eq!(cfg.run_duration().as_secs_f64(), 90.0);
    }

    #[test]
    fn the_sweep_manifest_self_diffs_clean() {
        // Figure 10's second case shares figure 7 case 2's link label and
        // §5.2 shares case 3's: give every run a registry of its own, so a
        // label collision pairs two different registries and drifts.
        let runs: Vec<ScenarioResult> = paper_sweep(&RunConfig::from_vars(|_| None))
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let s = spec.build();
                let mut r = fake_result();
                r.case_label = s.case.label().into();
                r.gateway = s.gateway;
                r.rla = vec![r.rla[0].clone(); s.rla_sessions];
                let mut registry = telemetry::Registry::new();
                registry.record_count("run", i as u64);
                r.registry = registry.snapshot();
                r
            })
            .collect();
        let m = crate::manifest::scenario_manifest("tables", SimDuration::from_secs(60), &runs);
        let d = crate::diff::diff_manifests(&m, &m, &Default::default()).expect("parses");
        assert!(!d.has_drift(), "{}", crate::diff::render_table(&d));
        assert_eq!(d.runs.len(), 13);
    }
}
