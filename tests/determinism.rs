//! Reproducibility: the whole stack is bit-deterministic per seed.

use bounded_fairness::experiments::cli::TelemetryOptions;
use bounded_fairness::experiments::events::canonical_churn_spec;
use bounded_fairness::experiments::manifest::scenario_manifest;
use bounded_fairness::experiments::{
    run_parallel_with_jobs, CongestionCase, GatewayKind, ScenarioSpec,
};
use netsim::time::SimDuration;

fn fingerprint(seed: u64) -> (u64, u64, u64, Vec<u64>, String) {
    let r = ScenarioSpec::paper(CongestionCase::Case5OneLevel2)
        .with_duration(SimDuration::from_secs(80))
        .with_seed(seed)
        .run();
    (
        r.rla[0].cong_signals,
        r.rla[0].window_cuts,
        r.tcp.iter().map(|t| t.window_cuts).sum(),
        r.rla[0].cong_signals_per_receiver.clone(),
        format!(
            "{:.6}|{:.6}",
            r.rla[0].throughput_pps,
            r.avg_tcp_throughput()
        ),
    )
}

#[test]
fn same_seed_same_everything() {
    assert_eq!(fingerprint(1), fingerprint(1));
}

#[test]
fn different_seeds_differ() {
    // Not a strict requirement, but if two seeds produced identical
    // detailed traces the RNG would not be wired through.
    let a = fingerprint(1);
    let b = fingerprint(2);
    assert_ne!(a.4, b.4, "seeds 1 and 2 produced identical throughputs");
}

#[test]
fn trace_digest_identical_sequential_vs_pooled() {
    // The tentpole guarantee: the worker pool returns the same packet
    // event stream — not just the same headline metrics — as running
    // each scenario inline, for any pool size.
    let make = |seed| {
        ScenarioSpec::paper(CongestionCase::Case5OneLevel2)
            .with_duration(SimDuration::from_secs(60))
            .with_seed(seed)
    };
    let sequential: Vec<(u64, u64)> = (1..=3)
        .map(|s| {
            let r = make(s).run();
            (r.trace_digest, r.trace_events)
        })
        .collect();
    assert!(sequential[0].1 > 0, "a 60 s run must trace events");
    assert_ne!(
        sequential[0].0, sequential[1].0,
        "different seeds must give different digests"
    );
    for jobs in [1, 2, 4] {
        let pooled = run_parallel_with_jobs((1..=3).map(|s| make(s).build()).collect(), jobs);
        let got: Vec<(u64, u64)> = pooled
            .iter()
            .map(|r| (r.trace_digest, r.trace_events))
            .collect();
        assert_eq!(got, sequential, "jobs = {jobs} changed the event stream");
    }
}

#[test]
fn trace_digest_stable_under_red() {
    // RED draws from the engine RNG per enqueue; digests must still
    // reproduce exactly.
    let run = || {
        ScenarioSpec::paper(CongestionCase::Case1RootLink)
            .with_gateway(GatewayKind::Red)
            .with_duration(SimDuration::from_secs(60))
            .run()
            .trace_digest
    };
    assert_eq!(run(), run());
}

#[test]
fn determinism_holds_under_red_randomness() {
    // RED consumes RNG draws on a different schedule; determinism must
    // still hold exactly.
    let run = || {
        let r = ScenarioSpec::paper(CongestionCase::Case1RootLink)
            .with_gateway(GatewayKind::Red)
            .with_duration(SimDuration::from_secs(60))
            .run();
        (
            r.rla[0].cong_signals,
            r.rla[0].window_cuts,
            r.tcp[0].window_cuts,
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn with_shards_is_inert_at_every_count() {
    // The engine has one execution domain; `with_shards` survives only for
    // the benchmark harness, whose shard rung asserts equal digests at 1
    // and 2. The whole rendered manifest must not depend on it.
    let render = |shards: usize| {
        let duration = SimDuration::from_secs(8);
        let r = ScenarioSpec::paper(CongestionCase::Case5OneLevel2)
            .with_duration(duration)
            .with_shards(shards)
            .run();
        assert!(r.trace_events > 0);
        scenario_manifest("case5_8s", duration, &[r]).pretty()
    };
    let one = render(1);
    assert_eq!(one, render(2), "with_shards(2) moved the manifest");
    assert_eq!(one, render(4), "with_shards(4) moved the manifest");
}

#[test]
fn a_streamed_timeline_leaves_the_manifest_unchanged() {
    // An observer must not change what it observes: a streamed timeline
    // stops the engine at every 100 ms sampling instant, and the churn
    // runs below must still render the unobserved run's manifest.
    let dir = std::env::temp_dir().join("rla_observer_neutrality");
    let opts = TelemetryOptions {
        sample_period: SimDuration::from_millis(100),
        dir: dir.clone(),
        ..TelemetryOptions::default()
    };
    let red_churn = ScenarioSpec::paper(CongestionCase::Case5OneLevel2)
        .with_gateway(GatewayKind::Red)
        .with_churn_rate(0.2)
        .with_seed(4)
        .with_duration(SimDuration::from_secs(60));
    for (stem, spec) in [("churn", canonical_churn_spec()), ("red_churn", red_churn)] {
        let scenario = spec.build();
        let manifest = |r| scenario_manifest(stem, scenario.duration, &[r]).pretty();
        let plain = manifest(scenario.run());
        let (observed, _) = scenario
            .build()
            .run_with_telemetry_streamed(&scenario, &opts, stem);
        let observed = manifest(observed);
        let moved: Vec<_> = plain
            .lines()
            .zip(observed.lines())
            .filter(|(a, b)| a != b)
            .collect();
        assert!(plain == observed, "{stem}: observing moved {moved:#?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
