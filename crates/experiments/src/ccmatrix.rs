//! The CC-pairing fairness sweep behind `cc_matrix`.
//!
//! The paper's tables fix the background TCP flavor at SACK; with the
//! controller pluggable (`tcp_sack::CcVariant`), the natural regression
//! surface is the full grid: every registered congestion controller ×
//! every §5 congestion case, each cell measuring how fairly the RLA and
//! the competing TCP flows share the soft bottleneck. This module runs
//! the grid, summarizes each cell with Jain's index and the worst
//! pairwise ratio (`analysis::fairness`), and renders one manifest whose
//! runs carry a `tcp_cc` field — `rla_diff` aligns on it (see
//! [`crate::diff`]), so a committed matrix manifest regression-gates the
//! fairness ratios of every pairing at once.

use netsim::time::SimDuration;
use tcp_sack::CcVariant;

use crate::manifest::{scenario_entry, Json};
use crate::metrics::ScenarioResult;
use crate::runner::Pool;
use crate::spec::ScenarioSpec;
use crate::tree::CongestionCase;

/// The sweep grid: which cases and controllers, how long, which seed.
#[derive(Debug, Clone)]
pub struct MatrixConfig {
    /// Congestion cases, one row group each.
    pub cases: Vec<CongestionCase>,
    /// Controllers, one row per case.
    pub variants: Vec<CcVariant>,
    /// Simulated length of every cell.
    pub duration: SimDuration,
    /// RNG seed shared by every cell (same network, different CC).
    pub seed: u64,
}

impl MatrixConfig {
    /// The full grid: every registered controller × the five §5 cases.
    pub fn full(duration: SimDuration, seed: u64) -> Self {
        MatrixConfig {
            cases: CongestionCase::FIGURE7_CASES.to_vec(),
            variants: CcVariant::all().collect(),
            duration,
            seed,
        }
    }
}

/// One completed cell of the grid.
#[derive(Debug, Clone)]
pub struct MatrixCell {
    /// The congestion case this cell ran.
    pub case: CongestionCase,
    /// The background TCP controller it ran against.
    pub cc: CcVariant,
    /// The measured run.
    pub result: ScenarioResult,
}

impl MatrixCell {
    /// Throughputs of every flow crossing the cell's soft bottleneck:
    /// the RLA session(s) first, then the bottleneck TCP flows — the
    /// population the fairness summaries describe.
    pub fn bottleneck_throughputs(&self) -> Vec<f64> {
        let mut xs: Vec<f64> = self.result.rla.iter().map(|r| r.throughput_pps).collect();
        xs.extend(
            self.result
                .bottleneck_tcp()
                .iter()
                .map(|t| t.throughput_pps),
        );
        xs
    }

    /// Jain's index over [`bottleneck_throughputs`].
    ///
    /// [`bottleneck_throughputs`]: MatrixCell::bottleneck_throughputs
    pub fn jain(&self) -> f64 {
        analysis::jain_index(&self.bottleneck_throughputs())
    }

    /// Worst pairwise ratio over [`bottleneck_throughputs`].
    ///
    /// [`bottleneck_throughputs`]: MatrixCell::bottleneck_throughputs
    pub fn worst_pair(&self) -> f64 {
        analysis::worst_pair_ratio(&self.bottleneck_throughputs())
    }

    /// `λ_RLA / λ_WTCP`, the paper's headline fairness ratio.
    pub fn rla_over_wtcp(&self) -> f64 {
        let wtcp = self.result.worst_tcp().map_or(0.0, |t| t.throughput_pps);
        self.result.rla[0].throughput_pps / wtcp.max(1e-9)
    }
}

/// Run every (case × variant) cell of the grid on `pool`. Cells come
/// back in grid order: cases outer, variants inner.
pub fn run_matrix(cfg: &MatrixConfig, pool: &Pool) -> Vec<MatrixCell> {
    let grid: Vec<(CongestionCase, CcVariant)> = cfg
        .cases
        .iter()
        .flat_map(|&case| cfg.variants.iter().map(move |&cc| (case, cc)))
        .collect();
    let scenarios = grid
        .iter()
        .map(|&(case, cc)| {
            ScenarioSpec::paper(case)
                .with_duration(cfg.duration)
                .with_seed(cfg.seed)
                .with_tcp_cc(cc)
                .build()
        })
        .collect();
    grid.into_iter()
        .zip(pool.run(scenarios))
        .map(|((case, cc), result)| MatrixCell { case, cc, result })
        .collect()
}

/// A [`scenario_entry`] with the run's controller recorded as a `tcp_cc`
/// field right after `gateway`. `rla_diff` keys run alignment on this
/// field.
pub fn entry_with_cc(r: &ScenarioResult, cc: CcVariant) -> Json {
    let mut entry = scenario_entry(r);
    if let Json::Obj(ref mut fields) = entry {
        fields.insert(2, ("tcp_cc".to_string(), cc.name().into()));
    }
    entry
}

/// The fairness summary block of one cell.
pub fn fairness_json(cell: &MatrixCell) -> Json {
    Json::obj(vec![
        ("jain", cell.jain().into()),
        (
            "worst_pair_ratio",
            // `+∞` (a starved flow) is not a JSON number; report null so
            // the manifest stays parseable and the starvation is visible.
            if cell.worst_pair().is_finite() {
                cell.worst_pair().into()
            } else {
                Json::Null
            },
        ),
        ("rla_over_wtcp", cell.rla_over_wtcp().into()),
    ])
}

/// The `cc_matrix` manifest: the standard scenario-manifest shape with
/// `tcp_cc` and a per-run `fairness` block appended to every entry.
pub fn matrix_manifest(binary: &str, cfg: &MatrixConfig, cells: &[MatrixCell]) -> Json {
    let runs = cells
        .iter()
        .map(|cell| {
            let mut entry = entry_with_cc(&cell.result, cell.cc);
            if let Json::Obj(ref mut fields) = entry {
                fields.push(("fairness".to_string(), fairness_json(cell)));
            }
            entry
        })
        .collect();
    Json::obj(vec![
        ("binary", binary.into()),
        ("duration_secs", cfg.duration.as_secs_f64().into()),
        ("seed", cfg.seed.into()),
        (
            "tcp_cc_variants",
            Json::Arr(cfg.variants.iter().map(|v| v.name().into()).collect()),
        ),
        ("runs", Json::Arr(runs)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::GatewayKind;

    fn tiny_matrix() -> (MatrixConfig, Vec<MatrixCell>) {
        let cfg = MatrixConfig {
            cases: vec![CongestionCase::Case1RootLink],
            variants: vec![CcVariant::sack(), CcVariant::parse("cubic").unwrap()],
            duration: SimDuration::from_secs(60),
            seed: 1,
        };
        let pool = Pool::new(&crate::cli::RunConfig::from_vars(|_| None));
        let cells = run_matrix(&cfg, &pool);
        (cfg, cells)
    }

    #[test]
    fn matrix_runs_the_grid_in_order_and_summarizes_fairness() {
        let (cfg, cells) = tiny_matrix();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].cc.name(), "sack");
        assert_eq!(cells[1].cc.name(), "cubic");
        for cell in &cells {
            assert_eq!(cell.case, CongestionCase::Case1RootLink);
            assert_eq!(cell.result.gateway, GatewayKind::DropTail);
            let j = cell.jain();
            assert!(
                (0.0..=1.0 + 1e-12).contains(&j),
                "{}: jain {j} out of range",
                cell.cc
            );
            assert!(cell.rla_over_wtcp() > 0.0, "{}", cell.cc);
        }
        let manifest = matrix_manifest("cc_matrix", &cfg, &cells);
        let runs = manifest.get("runs").and_then(Json::as_arr).unwrap();
        assert_eq!(runs.len(), 2);
        for (run, cell) in runs.iter().zip(&cells) {
            assert_eq!(
                run.get("tcp_cc").and_then(Json::as_str),
                Some(cell.cc.name())
            );
            let fairness = run.get("fairness").expect("fairness block");
            assert!(fairness.get("jain").and_then(Json::as_f64).is_some());
        }
        // The manifest round-trips through the JSON parser.
        assert!(Json::parse(&manifest.pretty()).is_ok());
        // The entry layout: tcp_cc sits right after case and gateway.
        let entry = entry_with_cc(&cells[0].result, cells[0].cc);
        let Json::Obj(fields) = &entry else {
            panic!("entry must be an object")
        };
        assert_eq!(fields[2].0, "tcp_cc");
        assert_eq!(fields[2].1, Json::Str("sack".into()));
    }
}
