//! Dynamic-scenario sweep: receiver churn × background load across the
//! five figure-7 congestion cases.
//!
//! For every case the sweep runs four combinations on the *same seed*:
//!
//! | manifest             | churn | background |
//! |----------------------|-------|------------|
//! | `churn_sweep_static` |  off  |    off     |
//! | `churn_sweep_churn`  |  on   |    off     |
//! | `churn_sweep_bg`     |  off  |    on      |
//! | `churn_sweep`        |  on   |    on      |
//!
//! Each combination goes into its own manifest so every manifest has
//! unique `(case, gateway, seed)` labels — `rla_diff` can then self-diff
//! any of them (clean) and compare the static manifest against a dynamic
//! one (which must report drift: dynamic runs add the `net.churn.*`
//! registry block, including the `reconverge_ms` gauge).
//!
//! Knobs: `RLA_CHURN_RATE` (default 0.2 events/s when unset or 0) and
//! `RLA_BG_LOAD` (default 2.0 flows/s when unset or 0) set the sweep's
//! dynamic operating point; `RLA_EVENTS_FILE` appends a fixed schedule to
//! the churn combinations; the usual `RLA_DURATION_SECS` / `RLA_SEED` /
//! `RLA_JOBS` apply.

use experiments::prelude::*;
use telemetry::MetricValue;

/// The sweep's default churn rate when `RLA_CHURN_RATE` is unset/0.
const DEFAULT_CHURN_RATE: f64 = 0.2;
/// The sweep's default background load when `RLA_BG_LOAD` is unset/0.
const DEFAULT_BG_LOAD: f64 = 2.0;

fn main() {
    let cfg = RunConfig::from_env();
    let duration = cfg.scaled_duration(4.0, 120.0);
    let seed = cfg.seed;
    let churn = match cfg.churn_rate {
        r if r > 0.0 => r,
        _ => DEFAULT_CHURN_RATE,
    };
    let bg = match cfg.bg_load {
        r if r > 0.0 => r,
        _ => DEFAULT_BG_LOAD,
    };
    // (manifest stem, churn on, background on)
    let combos = [
        ("churn_sweep_static", false, false),
        ("churn_sweep_churn", true, false),
        ("churn_sweep_bg", false, true),
        ("churn_sweep", true, true),
    ];

    eprintln!(
        "churn sweep: 5 cases x 4 combos, {:.0} s each, churn {churn} ev/s, bg {bg} flows/s...",
        duration.as_secs_f64()
    );

    println!(
        "Dynamic-scenario sweep (drop-tail, seed {seed}, {:.0} s runs)",
        duration.as_secs_f64()
    );
    println!(
        "{:<22} {:>6} {:>8} {:>8} {:>7} {:>7} {:>12}",
        "combo/case", "rla", "wtcp", "btcp", "events", "bgpkts", "reconv_ms"
    );
    // One pool for the four batches: each appends to the same heartbeat
    // file instead of truncating what the previous one wrote.
    let pool = Pool::new(&cfg);
    for (name, with_churn, with_bg) in combos {
        // Each combination is the configuration with its own dynamics; the
        // events file rides with the churn.
        let combo = RunConfig {
            churn_rate: if with_churn { churn } else { 0.0 },
            bg_load: if with_bg { bg } else { 0.0 },
            events: if with_churn {
                cfg.events.clone()
            } else {
                Vec::new()
            },
            ..cfg.clone()
        };
        let scenarios: Vec<TreeScenario> = CongestionCase::FIGURE7_CASES
            .iter()
            .map(|&case| combo.spec(case).with_duration(duration).build())
            .collect();
        let results = pool.run(scenarios);
        for r in &results {
            let gauge = |key: &str| match r.registry.get(key) {
                Some(MetricValue::Gauge(v)) => v,
                _ => 0.0,
            };
            let count = |key: &str| match r.registry.get(key) {
                Some(MetricValue::Counter(v)) => v,
                _ => 0,
            };
            println!(
                "{:<22} {:>6.1} {:>8.1} {:>8.1} {:>7} {:>7} {:>12.1}",
                format!("{name}/{}", r.case_label),
                r.rla[0].throughput_pps,
                r.worst_tcp().map_or(0.0, |t| t.throughput_pps),
                r.best_tcp().map_or(0.0, |t| t.throughput_pps),
                r.events.len(),
                count("net.churn.bg_packets"),
                gauge("net.churn.reconverge_ms"),
            );
        }
        emit_scenario_manifest(&cfg.results_dir, name, duration, &results);
    }
}
