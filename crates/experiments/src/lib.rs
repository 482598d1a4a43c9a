//! # experiments — regenerating the paper's evaluation
//!
//! Scenario builders, metric collection and renderers for every table and
//! figure in §5 of *Achieving Bounded Fairness for Multicast and TCP
//! Traffic in the Internet*. The claims before it are asserted by tests:
//! §4 (equations 1 and 3, the Proposition, the Lemma, figures 4 and 5 and
//! the growth of the fairness ratio with n) in the `analysis` crate and
//! `tests/analysis_vs_simulator.rs`, and §1's rate-based baselines and
//! §3.1's buffer period and phase effect in
//! `tests/droptail_and_rate_control.rs`, and §5.3's RTT-scaled pthresh
//! against the Equal one in `tests/end_to_end_fairness.rs`. So are the
//! extensions the paper never ran, the TCP flavours beside SACK and
//! receiver churn with background load, in
//! `tests/extensions_earn_their_place.rs`. Every binary in `src/bin/`:
//!
//! | binary          | paper artifact | content |
//! |-----------------|----------------|---------|
//! | `tables`        | figures 7, 8, 9, 10, §5.2, Theorems I/II | one thirteen-run sweep ([`tables::paper_sweep`]), six views: drop-tail table, per-branch signal statistics, RED table, measured ratios vs proved bounds (exit status 1 if one is outside), the unequal-RTT table, two overlapping sessions — each beside the paper's numbers ([`tables::PAPER`]) |
//! | `debug_probe`   | tooling        | one case with the timeline recorder on, RLA sender internals |
//! | `rla_diff`      | tooling        | registry comparison between two run manifests (see [`diff`]) |
//! | `rla_top`       | tooling        | live dashboard over timeline and progress files |
//!
//! Run lengths follow the paper (3000 s) unless `RLA_DURATION_SECS` says
//! otherwise; every binary parses its knobs once, up front, into a
//! [`cli::RunConfig`] — the library itself never reads the environment —
//! and describes its scenarios with [`ScenarioSpec`] (see [`prelude`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod diff;
pub mod events;
pub mod manifest;
pub mod metrics;
pub mod runner;
pub mod scenario;
pub mod spec;
pub mod star;
pub mod tables;
pub mod tree;

pub use events::{BackgroundLoad, EventCommand, ScenarioEvent};
pub use manifest::{emit_scenario_manifest, Json};
pub use metrics::{BranchSignalStats, RlaRow, ScenarioResult, TcpRow};
pub use runner::{run_parallel_with_jobs, Pool};
pub use scenario::{GatewayKind, ScenarioWorld, TreeScenario};
pub use spec::ScenarioSpec;
pub use star::{build_star, BranchSpec, Star};
pub use tree::{build_tree, CongestionCase, TertiaryTree};

/// One-stop imports for experiment binaries.
///
/// ```no_run
/// use experiments::prelude::*;
///
/// let cfg = RunConfig::from_env();
/// let duration = cfg.run_duration();
/// let scenarios = [CongestionCase::Case1RootLink]
///     .iter()
///     .map(|&case| {
///         cfg.spec(case)
///             .with_gateway(GatewayKind::Red)
///             .with_duration(duration)
///             .build()
///     })
///     .collect();
/// let rows = Pool::new(&cfg).run(scenarios);
/// emit_scenario_manifest(&cfg.results_dir, "example", duration, &rows);
/// ```
pub mod prelude {
    pub use crate::cli::{self, RunConfig};
    pub use crate::events::{BackgroundLoad, EventCommand, ScenarioEvent};
    pub use crate::manifest::{emit_scenario_manifest, Json};
    pub use crate::metrics::{BranchSignalStats, RlaRow, ScenarioResult, TcpRow};
    pub use crate::runner::{run_parallel_with_jobs, Pool};
    pub use crate::scenario::{GatewayKind, ScenarioWorld, TreeScenario};
    pub use crate::spec::ScenarioSpec;
    pub use crate::tree::{CongestionCase, TertiaryTree};
    pub use netsim::time::{SimDuration, SimTime};
}
