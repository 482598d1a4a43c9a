//! Ablations of the RLA's design choices (DESIGN.md §6).
//!
//! Each row reruns the case-3 drop-tail scenario (the hardest case:
//! 27 independently congested branches) with one knob changed:
//!
//! * **η** — rule 6's troubled-receiver margin. Too small and mildly
//!   congested receivers stop counting (over-cutting); the paper's
//!   analysis needs `1/η > f(p₁) ≈ 0.03`, hence η = 20.
//! * **forced cut** — rule 3's damping. Without it the randomness can
//!   ignore long runs of signals.
//! * **burst limit** — the fast-recovery guard against a suddenly
//!   widely-open window.
//! * **pthresh policy** — Equal vs the §5.3 RTT-scaled rule on the
//!   unequal-RTT topology.

use experiments::manifest::scenario_entry;
use experiments::prelude::*;
use rla::{PthreshPolicy, RlaConfig};

fn main() {
    let cfg = RunConfig::from_env();
    // A fifth of the paper budget per variant keeps the 8-run sweep
    // inside one paper-run's budget.
    let duration = cfg.scaled_duration(5.0, 120.0);
    let scenario = |case: CongestionCase, rla: RlaConfig| {
        cfg.spec(case)
            .with_rla_config(rla)
            .with_duration(duration)
            .build()
    };
    let base = CongestionCase::Case3AllLeaves;

    let rows: Vec<(String, TreeScenario)> = vec![
        (
            "baseline (eta=20, forced cut on, burst 4)".into(),
            scenario(base, RlaConfig::default()),
        ),
        (
            "eta = 2 (narrow trouble margin)".into(),
            scenario(
                base,
                RlaConfig {
                    eta: 2.0,
                    ..RlaConfig::default()
                },
            ),
        ),
        (
            "eta = 200 (everyone counts)".into(),
            scenario(
                base,
                RlaConfig {
                    eta: 200.0,
                    ..RlaConfig::default()
                },
            ),
        ),
        (
            "forced cut disabled".into(),
            scenario(
                base,
                RlaConfig {
                    forced_cut_enabled: false,
                    ..RlaConfig::default()
                },
            ),
        ),
        (
            "burst limit 1".into(),
            scenario(
                base,
                RlaConfig {
                    max_burst: 1,
                    ..RlaConfig::default()
                },
            ),
        ),
        (
            "burst limit 64 (guard off)".into(),
            scenario(
                base,
                RlaConfig {
                    max_burst: 64,
                    ..RlaConfig::default()
                },
            ),
        ),
        (
            "fig10 topology, Equal policy".into(),
            scenario(
                CongestionCase::Fig10AllLevel3,
                RlaConfig {
                    pthresh_policy: PthreshPolicy::Equal,
                    ..RlaConfig::default()
                },
            ),
        ),
        (
            "fig10 topology, RTT-scaled policy".into(),
            scenario(
                CongestionCase::Fig10AllLevel3,
                RlaConfig {
                    pthresh_policy: PthreshPolicy::paper_rtt_scaled(),
                    ..RlaConfig::default()
                },
            ),
        ),
    ];

    eprintln!(
        "ablation: {} runs of {:.0} s each...",
        rows.len(),
        duration.as_secs_f64()
    );
    let labels: Vec<String> = rows.iter().map(|(l, _)| l.clone()).collect();
    let results = Pool::new(&cfg).run(rows.into_iter().map(|(_, s)| s).collect());

    let runs: Vec<Json> = labels
        .iter()
        .zip(&results)
        .map(|(label, r)| {
            let mut entry = scenario_entry(r);
            if let Json::Obj(fields) = &mut entry {
                fields.insert(0, ("variant".to_string(), label.as_str().into()));
            }
            entry
        })
        .collect();
    let manifest = Json::obj(vec![
        ("binary", "ablation".into()),
        ("duration_secs", duration.as_secs_f64().into()),
        ("runs", Json::Arr(runs)),
    ]);
    emit_manifest(&cfg.results_dir, "ablation", &manifest);

    println!("RLA design ablations (case-3 drop-tail unless noted)");
    println!(
        "{:<44} {:>8} {:>7} {:>8} {:>7} {:>7} {:>8} {:>8}",
        "variant", "RLA", "cwnd", "signals", "cuts", "forced", "WTCP", "ratio"
    );
    for (label, r) in labels.iter().zip(&results) {
        let a = &r.rla[0];
        let w = r.worst_tcp().expect("tcp").throughput_pps;
        println!(
            "{:<44} {:>8.1} {:>7.1} {:>8} {:>7} {:>7} {:>8.1} {:>8.2}",
            label,
            a.throughput_pps,
            a.cwnd_avg,
            a.cong_signals,
            a.window_cuts,
            a.forced_cuts,
            w,
            a.throughput_pps / w
        );
    }
    println!(
        "\nreading guide: η=2 under-counts troubled receivers (more cuts, less\n\
         throughput); disabling the forced cut removes the damping the paper\n\
         added for safety; the RTT-scaled policy matters only when RTTs differ."
    );
}
