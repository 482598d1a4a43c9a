//! Property tests for the domain-partitioned engine's determinism.
//!
//! The contract `with_shards(k)` stands on: the shard count trades
//! wall-clock only. The fine θ-partition — per-region RNG streams, uid
//! tags and digest lanes — is a function of (topology, seed, θ) alone;
//! `with_shards` only picks how the cost-aware merge pass groups those
//! regions into execution domains and how many workers walk them. A
//! scenario's digest must therefore be bit-identical at every shard
//! count — for static paper runs and for dynamic runs whose event
//! stream mutates the agent population mid-flight (churn) or injects
//! Poisson background flows (bgload). A single nanosecond of drift
//! anywhere in the merge pass or the batched boundary exchange fails
//! these properties.

use bounded_fairness::experiments::events::ScenarioEvent;
use bounded_fairness::experiments::{CongestionCase, GatewayKind, ScenarioSpec, TreeScenario};
use netsim::time::SimDuration;
use proptest::prelude::*;

/// Runs one scenario at the given worker count and returns the pair the
/// golden manifests pin: (trace digest, event count).
fn run_with_shards(spec: &ScenarioSpec, shards: usize) -> (u64, u64) {
    let scenario: TreeScenario = spec.clone().with_shards(shards).build();
    let mut world = scenario.build();
    let r = world.run(&scenario);
    (r.trace_digest, r.trace_events)
}

/// Digest at every pinned shard count — including 1, where the merge
/// pass collapses the fine partition to a single domain, and 8, where it
/// leaves most regions uncoalesced; the property asserts these agree.
fn across_shards(spec: &ScenarioSpec) -> Vec<(u64, u64)> {
    [1, 2, 4, 8]
        .iter()
        .map(|&s| run_with_shards(spec, s))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn static_digests_are_identical_across_shard_counts(
        seed in 0u64..1000,
        red in any::<bool>(),
    ) {
        let gateway = if red { GatewayKind::Red } else { GatewayKind::DropTail };
        let spec = ScenarioSpec::paper(CongestionCase::Case5OneLevel2)
            .with_gateway(gateway)
            .with_duration(SimDuration::from_secs(8))
            .with_seed(seed);
        let runs = across_shards(&spec);
        prop_assert_eq!(runs[0], runs[1]);
        prop_assert_eq!(runs[0], runs[2]);
        prop_assert_eq!(runs[0], runs[3]);
    }

    #[test]
    fn churn_digests_are_identical_across_shard_counts(
        seed in 0u64..1000,
        rate in 0.1f64..0.8,
    ) {
        // The pinned degrade keeps the run non-vacuous when the Poisson
        // draw lands zero synthesized membership events; mid-run joins
        // add agents to live domain shards, which is exactly the path a
        // shard-count leak would corrupt.
        let spec = ScenarioSpec::paper(CongestionCase::Case5OneLevel2)
            .with_duration(SimDuration::from_secs(10))
            .with_seed(seed)
            .with_churn_rate(rate)
            .with_event(ScenarioEvent::degrade(5.0, "L4.20", 0.05, None));
        let runs = across_shards(&spec);
        prop_assert_eq!(runs[0], runs[1]);
        prop_assert_eq!(runs[0], runs[2]);
        prop_assert_eq!(runs[0], runs[3]);
    }

    #[test]
    fn bgload_digests_are_identical_across_shard_counts(
        seed in 0u64..1000,
        flows_per_sec in 0.5f64..4.0,
    ) {
        let spec = ScenarioSpec::paper(CongestionCase::Case5OneLevel2)
            .with_duration(SimDuration::from_secs(8))
            .with_seed(seed)
            .with_background_load(flows_per_sec, 60.0);
        let runs = across_shards(&spec);
        prop_assert_eq!(runs[0], runs[1]);
        prop_assert_eq!(runs[0], runs[2]);
        prop_assert_eq!(runs[0], runs[3]);
    }
}
