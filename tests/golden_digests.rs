//! Golden-digest regression: every congestion placement pinned by its
//! trace digest ([`PLACEMENTS`]), and six short scenarios pinned to
//! committed manifests under `results/golden/` — the two static paper runs, the
//! two canonical *dynamic* runs (scheduled receiver churn with a link
//! degrade, and Poisson background load) pinning the event-executor's
//! digest determinism, a CUBIC-background run pinning the v2
//! congestion-control surface (signals bookkeeping, registry-built
//! senders, the cubic window math), and a Reno-background run pinning
//! the dup-ack loss detector (Karn sampling, fast retransmit, go-back-N).
//!
//! The digests cover the *entire* packet-event stream (every enqueue,
//! drop, transmission start, arrival and delivery with its timestamp), so
//! any change to the engine, the queues, the transports or the RNG that
//! shifts even one packet by one nanosecond fails these tests. Each
//! scenario's whole rendered manifest — digest, event count, headline
//! metrics and registry — must equal the committed file byte for byte.
//! Behavioural changes are fine —
//! regenerate with
//! `cargo test --test golden_digests -- --ignored regenerate` and commit
//! the new manifests with an explanation.

use std::cell::RefCell;
use std::rc::Rc;

use bounded_fairness::experiments::diff::{diff_manifests, render_table, DiffOptions};
use bounded_fairness::experiments::events::{canonical_bgload_spec, canonical_churn_spec};
use bounded_fairness::experiments::manifest::{scenario_manifest, Json};
use bounded_fairness::experiments::{CongestionCase, GatewayKind, ScenarioResult, ScenarioSpec};
use netsim::time::SimDuration;
use telemetry::{FlightDumpGuard, FlightRecorder};

/// Every committed golden, in regeneration order.
const GOLDENS: [&str; 6] = [
    "case5_droptail_60s",
    "case5_red_60s",
    "case5_droptail_churn_60s",
    "case5_droptail_bgload_60s",
    "case5_droptail_cubic_60s",
    "case5_droptail_reno_60s",
];

/// The static case-5 drop-tail run with `cc` as the background TCP.
fn case5_droptail_with_cc(cc: &str) -> ScenarioSpec {
    ScenarioSpec::paper(CongestionCase::Case5OneLevel2)
        .with_duration(SimDuration::from_secs(60))
        .with_seed(1)
        .with_tcp_cc(bounded_fairness::tcp::CcVariant::parse(cc).expect("a registered variant"))
}

/// The pinned scenario behind each committed golden manifest.
fn scenario_for(name: &str) -> ScenarioSpec {
    match name {
        "case5_droptail_60s" => ScenarioSpec::paper(CongestionCase::Case5OneLevel2)
            .with_duration(SimDuration::from_secs(60))
            .with_seed(1),
        "case5_red_60s" => ScenarioSpec::paper(CongestionCase::Case5OneLevel2)
            .with_gateway(GatewayKind::Red)
            .with_duration(SimDuration::from_secs(60))
            .with_seed(1),
        "case5_droptail_churn_60s" => canonical_churn_spec(),
        "case5_droptail_bgload_60s" => canonical_bgload_spec(),
        "case5_droptail_cubic_60s" => case5_droptail_with_cc("cubic"),
        "case5_droptail_reno_60s" => case5_droptail_with_cc("reno"),
        other => panic!("no pinned scenario named {other:?}"),
    }
}

/// Runs the pinned scenario with a flight recorder installed as the
/// tracer: on a mismatch the last packet events of every channel go to
/// stderr with the failure, turning "the hash changed" into something
/// debuggable. The recorder cannot perturb the result — the digest is
/// computed independently of the tracer slot.
fn run_scenario(name: &str) -> (ScenarioResult, Rc<RefCell<FlightRecorder>>) {
    let scenario = scenario_for(name).build();
    let mut world = scenario.build();
    let recorder = Rc::new(RefCell::new(FlightRecorder::new(
        telemetry::flight::DEFAULT_FLIGHT_DEPTH,
    )));
    world.engine.set_tracer(recorder.clone());
    (world.run(&scenario), recorder)
}

fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("results/golden")
        .join(format!("{name}.manifest.json"))
}

/// The manifest a run of the pinned scenario commits.
fn manifest_of(name: &str, r: &ScenarioResult) -> Json {
    scenario_manifest(name, SimDuration::from_secs(60), std::slice::from_ref(r))
}

/// On drift, diff the fresh run's registry against the committed
/// manifest so the failure names the metrics that moved ("retransmits
/// doubled on chan.L3.4") instead of just "hash mismatch". Degrades to a
/// one-line note when the committed manifest does not parse.
fn registry_diff_report(name: &str, committed: &str, candidate: &Json) -> String {
    let baseline = match Json::parse(committed) {
        Ok(json) => json,
        Err(e) => return format!("(no registry diff: committed {name} manifest: {e})"),
    };
    match diff_manifests(&baseline, candidate, &DiffOptions::default()) {
        Ok(d) if d.has_drift() => format!(
            "registry diff, committed golden -> this run:\n{}",
            render_table(&d)
        ),
        Ok(_) => "registry diff: no metric moved beyond the default threshold \
                  (the drift is in event timing only)"
            .to_string(),
        Err(e) => format!("(no registry diff: {e})"),
    }
}

fn check(name: &str) {
    let committed = std::fs::read_to_string(golden_path(name)).unwrap_or_else(|e| {
        panic!("missing committed golden manifest {name}: {e}; regenerate with `cargo test --test golden_digests -- --ignored regenerate`")
    });
    let (r, recorder) = run_scenario(name);
    // Dumps the ring to stderr iff the mismatch below panics.
    let _flight = FlightDumpGuard::new(name, recorder);
    let candidate = manifest_of(name, &r);
    if candidate.pretty() != committed {
        eprintln!("{}", registry_diff_report(name, &committed, &candidate));
        panic!(
            "{name}: the rendered manifest drifted from the committed golden \
             (this run's trace digest {:016x}, {} events) — the registry diff \
             above says which metrics moved; if the behaviour change is \
             intended, regenerate the goldens",
            r.trace_digest, r.trace_events
        );
    }
}

#[test]
fn case5_droptail_matches_committed_manifest() {
    check("case5_droptail_60s");
}

#[test]
fn case5_red_matches_committed_manifest() {
    check("case5_red_60s");
}

#[test]
fn case5_droptail_churn_matches_committed_manifest() {
    check("case5_droptail_churn_60s");
}

#[test]
fn case5_droptail_bgload_matches_committed_manifest() {
    check("case5_droptail_bgload_60s");
}

#[test]
fn case5_droptail_cubic_matches_committed_manifest() {
    check("case5_droptail_cubic_60s");
}

#[test]
fn case5_droptail_reno_matches_committed_manifest() {
    check("case5_droptail_reno_60s");
}

/// Every congestion placement's 20 s drop-tail seed-1 run, in figure 7
/// then figure 10 order: `(Debug name, trace digest, trace events, case
/// label)`. The goldens above are all case 5; these rows pin the link
/// speeds, receiver set and send overhead each placement derives.
#[rustfmt::skip]
const PLACEMENTS: [(&str, u64, u64, &str); 7] = [
    ("Case1RootLink", 0x46cf70a2a351277c, 1371844, "L1"),
    ("Case2AllLevel3", 0x722300ff7403b1d1, 1337826, "L3i, i=1..9"),
    ("Case3AllLeaves", 0x47152a837daaf267, 1582466, "L4i, i=1..27"),
    ("Case4FiveLeaves", 0x4b3b989cbffab88d, 2446767, "L4i, i=1..5"),
    ("Case5OneLevel2", 0xf12a113b7982d2fa, 2558568, "L21"),
    ("Fig10AllLevel2", 0x98834ade3f2633b3, 1512891, "L2i, i=1..3"),
    ("Fig10AllLevel3", 0xef2701369ea6f7be, 1304139, "L3i, i=1..9"),
];

#[test]
fn every_placement_keeps_its_digest() {
    let cases = CongestionCase::FIGURE7_CASES
        .into_iter()
        .chain(CongestionCase::FIGURE10_CASES);
    let got: Vec<(String, u64, u64, String)> = cases
        .map(|case| {
            let r = ScenarioSpec::paper(case)
                .with_duration(SimDuration::from_secs(20))
                .with_seed(1)
                .run();
            (
                format!("{case:?}"),
                r.trace_digest,
                r.trace_events,
                r.case_label,
            )
        })
        .collect();
    let want: Vec<(String, u64, u64, String)> = PLACEMENTS
        .iter()
        .map(|&(name, digest, events, label)| (name.into(), digest, events, label.into()))
        .collect();
    let rows: String = got
        .iter()
        .map(|(name, digest, events, label)| {
            format!("    ({name:?}, 0x{digest:016x}, {events}, {label:?}),\n")
        })
        .collect();
    assert_eq!(
        got, want,
        "a placement's run drifted; if intended, the table reads:\n{rows}"
    );
}

/// Rewrites the committed goldens from the current code. Run explicitly
/// (`--ignored regenerate`) after an intended behavioural change.
#[test]
#[ignore]
fn regenerate() {
    for name in GOLDENS {
        let (r, _) = run_scenario(name);
        let path = golden_path(name);
        std::fs::write(&path, manifest_of(name, &r).pretty()).expect("write golden");
        eprintln!("wrote {}", path.display());
    }
}
