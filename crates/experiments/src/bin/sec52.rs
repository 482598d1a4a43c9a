//! §5.2: two overlapping multicast sessions share bandwidth equally.
//!
//! The case-3 topology (all 27 leaf links congested) with **two** RLA
//! sessions from the same sender node to the same receiver set. The paper
//! reports 65.1 / 65.9 pkt/s and average windows 19.9 / 20.1 — the
//! multicast-fairness property of §4.4 realized in the full simulator.

use experiments::prelude::*;

fn main() {
    let cfg = RunConfig::from_env();
    let duration = cfg.run_duration();
    let scenario = cfg
        .spec(CongestionCase::Case3AllLeaves)
        .with_sessions(2)
        .with_duration(duration)
        .build();
    eprintln!(
        "section 5.2: two overlapping RLA sessions, case-3 topology, {:.0} s...",
        duration.as_secs_f64()
    );
    let results = Pool::new(&cfg).run(vec![scenario]);
    emit_scenario_manifest(&cfg.results_dir, "sec52", duration, &results);
    let r = &results[0];

    println!("Section 5.2 — two overlapping multicast sessions (case-3 topology)");
    for (i, s) in r.rla.iter().enumerate() {
        println!(
            "  session {}: throughput {:>7.1} pkt/s   avg cwnd {:>6.1}   wnd cuts {}",
            i + 1,
            s.throughput_pps,
            s.cwnd_avg,
            s.window_cuts
        );
    }
    let (a, b) = (r.rla[0].throughput_pps, r.rla[1].throughput_pps);
    println!(
        "  split: {:.1}% / {:.1}%",
        100.0 * a / (a + b),
        100.0 * b / (a + b)
    );
    println!(
        "  competing TCP: worst {:.1}, best {:.1} pkt/s",
        r.worst_tcp().expect("tcp rows").throughput_pps,
        r.best_tcp().expect("tcp rows").throughput_pps
    );
    println!("paper reference: 65.1 / 65.9 pkt/s, windows 19.9 / 20.1");
}
