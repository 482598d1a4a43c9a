//! Run manifests: one JSON file per experiment binary under `results/`.
//!
//! A manifest records everything needed to reproduce and verify a run:
//! the scenario parameters, seed, simulated duration, the engine's
//! [`TraceDigest`](netsim::trace::TraceDigest) over the full packet-event
//! stream, and the headline metrics. Regenerating a figure with the same
//! code, seed and duration must reproduce the digests bit-for-bit — the
//! golden-digest regression tests pin the committed manifests this way.
//!
//! The JSON value, emitter and parser are [`telemetry::json`]'s (the
//! workspace's one JSON implementation), re-exported here under the
//! paths manifest readers have always used.
//!
//! Output goes to `<dir>/<name>.manifest.json`; the binaries pass their
//! `RunConfig::results_dir` (`results/` unless `RLA_RESULTS_DIR` is set).

use std::path::Path;

use netsim::time::SimDuration;

pub use telemetry::json::{Json, JsonParseError};

use crate::metrics::ScenarioResult;
use crate::scenario::GatewayKind;

fn gateway_str(g: GatewayKind) -> &'static str {
    match g {
        GatewayKind::DropTail => "drop-tail",
        GatewayKind::Red => "red",
    }
}

/// A registry [`Snapshot`](telemetry::Snapshot) as a JSON object:
/// one key per metric, counters as integers, gauges as floats. Entries
/// arrive sorted by name, so the rendering is stable across runs.
pub fn snapshot_json(s: &telemetry::Snapshot) -> Json {
    Json::Obj(
        s.entries
            .iter()
            .map(|e| {
                let v = match e.value {
                    telemetry::MetricValue::Counter(c) => Json::Int(c),
                    telemetry::MetricValue::Gauge(g) => Json::Num(g),
                };
                (e.name.clone(), v)
            })
            .collect(),
    )
}

/// The manifest entry for one scenario run: parameters, digest, the
/// headline metrics every paper table reports, and the full registry
/// snapshot.
pub fn scenario_entry(r: &ScenarioResult) -> Json {
    let mut fields: Vec<(&str, Json)> = vec![
        ("case", r.case_label.as_str().into()),
        ("gateway", gateway_str(r.gateway).into()),
        ("seed", r.seed.into()),
        ("measured_secs", r.measured_secs.into()),
        ("trace_digest", format!("{:016x}", r.trace_digest).into()),
        ("trace_events", r.trace_events.into()),
        (
            "congested_leaves",
            Json::Arr(r.congested_leaves.iter().map(|&i| i.into()).collect()),
        ),
    ];
    // Recorded only for dynamic runs, so the longstanding static
    // manifests (and the golden files) keep their exact byte layout.
    if !r.events.is_empty() {
        fields.push(("events", crate::events::events_json(&r.events)));
    }
    fields.extend(vec![
        (
            "rla_throughput_pps",
            Json::Arr(r.rla.iter().map(|s| s.throughput_pps.into()).collect()),
        ),
        (
            "wtcp_pps",
            r.worst_tcp()
                .map_or(Json::Null, |t| t.throughput_pps.into()),
        ),
        (
            "btcp_pps",
            r.best_tcp().map_or(Json::Null, |t| t.throughput_pps.into()),
        ),
        ("avg_tcp_pps", r.avg_tcp_throughput().into()),
        ("registry", snapshot_json(&r.registry)),
    ]);
    Json::obj(fields)
}

/// Standard manifest for a binary that ran a batch of tree scenarios.
pub fn scenario_manifest(binary: &str, duration: SimDuration, runs: &[ScenarioResult]) -> Json {
    Json::obj(vec![
        ("binary", binary.into()),
        ("duration_secs", duration.as_secs_f64().into()),
        ("runs", Json::Arr(runs.iter().map(scenario_entry).collect())),
    ])
}

/// Write the standard scenario manifest to `<dir>/<binary>.manifest.json`
/// (creating `dir`); prints the path to stderr (tables go to stdout) and
/// never fails the run over an unwritable results directory.
pub fn emit_scenario_manifest(
    dir: &Path,
    binary: &str,
    duration: SimDuration,
    runs: &[ScenarioResult],
) {
    let path = dir.join(format!("{binary}.manifest.json"));
    let value = scenario_manifest(binary, duration, runs);
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, value.pretty())) {
        Ok(()) => eprintln!("manifest: {}", path.display()),
        Err(e) => eprintln!("manifest: could not write {binary}.manifest.json: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::TcpRow;

    #[test]
    fn scenario_entry_includes_digest_and_metrics() {
        let r = ScenarioResult {
            case_label: "L1".into(),
            gateway: GatewayKind::Red,
            congested_leaves: vec![2],
            measured_secs: 50.0,
            seed: 9,
            trace_digest: 0xdead_beef,
            trace_events: 4,
            registry: {
                let mut reg = telemetry::Registry::new();
                reg.record_count("rla.0.delivered", 42);
                reg.record_gauge("chan.L1.utilization", 0.75);
                reg.snapshot()
            },
            events: vec![],
            rla: vec![],
            tcp: vec![TcpRow {
                receiver_index: 0,
                throughput_pps: 80.0,
                cwnd_avg: 0.0,
                rtt_avg: 0.0,
                window_cuts: 0,
                timeouts: 0,
            }],
        };
        let s = scenario_entry(&r).pretty();
        assert!(s.contains(r#""trace_digest": "00000000deadbeef""#), "{s}");
        assert!(s.contains(r#""gateway": "red""#), "{s}");
        assert!(s.contains(r#""seed": 9"#), "{s}");
        assert!(s.contains(r#""wtcp_pps": 80.0"#), "{s}");
    }
}
