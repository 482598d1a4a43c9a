//! The benchmark driven the way the driver drives it, at test size.

use std::path::Path;
use std::process::Command;

use benchmark::ladder::{rla_session_world, tcp_pair_world, ShimmedWorld};
use benchmark::spec::{benchmark_json, END_TO_END, PER_LAYER, WORKLOADS};
use experiments::manifest::Json;
use netsim::time::SimTime;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repository root")
}

/// One quick driver-mode run; returns the parsed result line and the
/// whole standard output.
fn drive(workload: &str, seed: u64, trace: bool) -> (Json, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .current_dir(repo_root())
        .env_remove("RLA_SHARDS")
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0", "--trace", if trace { "1" } else { "0" }])
        .arg("--quick")
        .output()
        .expect("start the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        out.status.success(),
        "{workload}: {}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().next_back().expect("a result line");
    (Json::parse(last).expect("the last line is JSON"), stdout)
}

fn emitted_names(result: &Json) -> Vec<String> {
    result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("a metrics object")
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(Json::as_f64).is_some(),
                "{name} has no value"
            );
            assert!(
                m.get("unit").and_then(Json::as_str).is_some(),
                "{name} has no unit"
            );
            name.clone()
        })
        .collect()
}

fn assert_result_shape(result: &Json) {
    let keys: Vec<&str> = result
        .as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert!(result.get("attempted").and_then(Json::as_u64) >= Some(1));
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
}

#[test]
fn benchmark_json_is_what_the_crate_declares() {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let committed = Json::parse(&text).expect("valid JSON");
    // Equality of the trees is equality of the name sets in both
    // directions, plus units, directions, bounds and the command.
    assert_eq!(
        committed,
        benchmark_json(),
        "run `benchmark declare > BENCHMARK.json`"
    );
    let keys: Vec<&str> = committed
        .as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
}

#[test]
fn every_workload_emits_exactly_the_declared_end_to_end_metrics() {
    let declared: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    for w in &WORKLOADS {
        let (result, stdout) = drive(w.name, 3, false);
        assert_result_shape(&result);
        assert_eq!(emitted_names(&result), declared, "{}", w.name);
        for (name, m) in result
            .get("metrics")
            .and_then(Json::as_obj)
            .expect("metrics")
        {
            let v = m.get("value").and_then(Json::as_f64).expect("value");
            assert!(v > 0.0 && v.is_finite(), "{}: {name} = {v}", w.name);
        }
        // Both repetitions ran the same member of the seed family, so the
        // second one checked the first one's digest.
        let sim = stdout
            .lines()
            .find_map(|l| l.strip_prefix("sim "))
            .map(|j| Json::parse(j).expect("the sim line is JSON"))
            .expect("a sim line");
        let members = sim.get("members").and_then(Json::as_arr).expect("members");
        assert_eq!(members.len(), 1, "{}", w.name);
        assert_eq!(
            members[0].get("scenario_seed").and_then(Json::as_u64),
            Some(12),
            "{}: --seed 3 names scenario seeds 12..16",
            w.name
        );
    }
}

#[test]
fn a_traced_run_emits_exactly_the_declared_per_layer_metrics_and_a_span_file() {
    let declared: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    // One workload that takes a tracer and the one whose sinks get spans.
    for (workload, spans_expected) in [
        (
            "fig7_case1_seq",
            ["timed", "warmup", "measure", "collect"].as_slice(),
        ),
        (
            "case5_churn_observed",
            ["timed", "run_observed", "pcap_finish", "self_diff"].as_slice(),
        ),
    ] {
        let (result, _) = drive(workload, 4, true);
        assert_result_shape(&result);
        assert_eq!(emitted_names(&result), declared, "{workload}");

        let path = repo_root().join(format!("benchmark/results/{workload}-seed4.trace.jsonl"));
        let text = std::fs::read_to_string(&path).expect("the span file");
        let spans: Vec<Json> = text
            .lines()
            .map(|l| Json::parse(l).expect("one JSON object per line"))
            .collect();
        let named = |n: &str| {
            spans
                .iter()
                .filter(|s| s.get("name").and_then(Json::as_str) == Some(n))
                .collect::<Vec<_>>()
        };
        for name in spans_expected
            .iter()
            .chain(&["L0_calendar", "L4_rla_session"])
        {
            assert!(!named(name).is_empty(), "{workload}: no span {name}");
        }
        // Within a repetition the self times partition the timed region.
        let timed = named("timed")[0];
        let id = timed.get("id").and_then(Json::as_u64).expect("id");
        let duration = timed.get("end_ns").and_then(Json::as_u64).expect("end")
            - timed.get("start_ns").and_then(Json::as_u64).expect("start");
        let mut covered = timed.get("self_ns").and_then(Json::as_u64).expect("self");
        let mut frontier = vec![id];
        while let Some(parent) = frontier.pop() {
            for s in &spans {
                if s.get("parent").and_then(Json::as_u64) == Some(parent) {
                    covered += s.get("self_ns").and_then(Json::as_u64).expect("self");
                    frontier.push(s.get("id").and_then(Json::as_u64).expect("id"));
                }
            }
        }
        assert_eq!(covered, duration, "{workload}: self times do not add up");
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn an_rla_variable_stops_the_harness_before_it_measures_anything() {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .current_dir(repo_root())
        .env("RLA_SHARDS", "2")
        .args(["--workload", "fig7_case1_seq", "--seed", "1"])
        .args(["--seconds", "0", "--trace", "0", "--quick"])
        .output()
        .expect("start the benchmark");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no result may be printed");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("RLA_SHARDS"), "{stderr}");
}

#[test]
fn timing_shims_do_not_change_a_single_packet_event() {
    let digest = |mut w: ShimmedWorld, secs: u64| {
        w.engine.run_until(SimTime::from_secs(secs));
        let d = w.engine.trace_digest();
        assert!(d.events() > 10_000, "the rung must do real work");
        (
            d.value(),
            d.events(),
            w.sender_probe.calls(),
            w.receiver_probe.calls(),
        )
    };
    for cc in ["sack", "reno"] {
        let (shimmed, events, sender_calls, receiver_calls) =
            digest(tcp_pair_world(9, cc, true), 60);
        let (bare, bare_events, no_calls, _) = digest(tcp_pair_world(9, cc, false), 60);
        assert_eq!((shimmed, events), (bare, bare_events), "L3_tcp_pair {cc}");
        assert!(
            sender_calls > 1000 && receiver_calls > 1000,
            "the shims saw the callbacks"
        );
        assert_eq!(no_calls, 0, "a bare world has no shim");
    }
    let (shimmed, events, sender_calls, receiver_calls) = digest(rla_session_world(9, true), 15);
    let (bare, bare_events, ..) = digest(rla_session_world(9, false), 15);
    assert_eq!((shimmed, events), (bare, bare_events), "L4_rla_session");
    assert!(sender_calls > 1000 && receiver_calls > 1000);
}
