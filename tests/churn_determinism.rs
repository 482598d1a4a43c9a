//! Property tests for the scenario-event layer's determinism.
//!
//! Two guarantees the dynamic scenarios stand on:
//!
//! 1. **Pool independence** — a churn scenario's trace digest is a pure
//!    function of its spec: the worker-pool size used to run a sweep
//!    (`RLA_JOBS`) must never leak into results, exactly as
//!    the worker pool's contract states for static runs.
//! 2. **FIFO tie-break** — events sharing a timestamp apply in schedule
//!    order. The property is pinned with a schedule that is only *valid*
//!    in FIFO order: a leave and a rejoin of the same leaf at the same
//!    instant. If the executor (or the spec builder's sort) ever
//!    reordered equal timestamps, the join would fire against a
//!    still-live receiver and panic instead of reproducing the digest.

use bounded_fairness::experiments::events::ScenarioEvent;
use bounded_fairness::experiments::{
    run_parallel_with_jobs, CongestionCase, ScenarioSpec, TreeScenario,
};
use netsim::time::SimDuration;
use proptest::prelude::*;

/// A short case-5 drop-tail run with synthesized churn.
fn churn_scenario(seed: u64, rate: f64, extra: Vec<ScenarioEvent>) -> TreeScenario {
    ScenarioSpec::paper(CongestionCase::Case5OneLevel2)
        .with_duration(SimDuration::from_secs(40))
        .with_seed(seed)
        .with_churn_rate(rate)
        .with_events(extra)
        .build()
}

fn digests(results: &[bounded_fairness::experiments::ScenarioResult]) -> Vec<(u64, u64)> {
    results
        .iter()
        .map(|r| (r.trace_digest, r.trace_events))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn churn_digests_are_identical_across_pool_sizes(
        seed in 0u64..100,
        rate in 0.05f64..0.8,
        jobs_a in 1usize..4,
        jobs_b in 1usize..4,
    ) {
        // One pinned link event keeps the property non-vacuous even when
        // the Poisson draw for a low rate lands zero synthesized events
        // (a membership event here could collide with the synthesized
        // leave/rejoin stream; a degrade never does).
        let pinned = vec![ScenarioEvent::degrade(25.0, "L4.20", 0.05, None)];
        let batch = || vec![
            churn_scenario(seed, rate, pinned.clone()),
            churn_scenario(seed.wrapping_add(17), rate, pinned.clone()),
        ];
        let a = run_parallel_with_jobs(batch(), jobs_a);
        let b = run_parallel_with_jobs(batch(), jobs_b);
        prop_assert_eq!(digests(&a), digests(&b));
        prop_assert!(!a[0].events.is_empty(), "schedule went missing");
    }

    #[test]
    fn equal_timestamp_events_apply_in_schedule_order(
        seed in 0u64..100,
        leaf in 0usize..27,
        t_frac in 0.55f64..0.95,
        jobs in 1usize..4,
    ) {
        // Both events at the same instant; only leave-before-join is a
        // valid order. Scheduling them behind an earlier unrelated event
        // exercises the stable sort as well as the executor's drain loop.
        let t = 40.0 * t_frac;
        let extra = vec![
            ScenarioEvent::degrade(21.0, "L2.1", 0.02, None),
            ScenarioEvent::leave(t, 0, leaf),
            ScenarioEvent::join(t, 0, leaf),
        ];
        let batch = || vec![churn_scenario(seed, 0.0, extra.clone())];
        let a = run_parallel_with_jobs(batch(), jobs);
        let b = run_parallel_with_jobs(batch(), 1);
        prop_assert_eq!(digests(&a), digests(&b));
    }
}
