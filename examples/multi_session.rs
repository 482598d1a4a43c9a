//! Multicast fairness (§4.4 / §5.2): several RLA sessions from the same
//! sender to the same receivers split the bandwidth evenly.
//!
//! ```text
//! cargo run --release --example multi_session -- [sessions] [secs]
//! ```

use bounded_fairness::experiments::{CongestionCase, ScenarioSpec};
use netsim::time::SimDuration;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let sessions: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(2);
    let secs: f64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(300.0);
    assert!((1..=4).contains(&sessions), "1-4 sessions supported");

    println!("{sessions} overlapping RLA sessions on the case-3 tree, {secs:.0} s...");
    let result = ScenarioSpec::paper(CongestionCase::Case3AllLeaves)
        .with_sessions(sessions)
        .with_duration(SimDuration::from_secs_f64(secs))
        .run();

    let total: f64 = result.rla.iter().map(|r| r.throughput_pps).sum();
    println!(
        "\n{:>9} {:>12} {:>10} {:>8}",
        "session", "pkt/s", "share", "cwnd"
    );
    for (i, r) in result.rla.iter().enumerate() {
        println!(
            "{:>9} {:>12.1} {:>9.1}% {:>8.1}",
            i + 1,
            r.throughput_pps,
            100.0 * r.throughput_pps / total,
            r.cwnd_avg
        );
    }
    let min = result
        .rla
        .iter()
        .map(|r| r.throughput_pps)
        .fold(f64::INFINITY, f64::min);
    let max = result
        .rla
        .iter()
        .map(|r| r.throughput_pps)
        .fold(0.0, f64::max);
    println!(
        "\nmax/min across sessions: {:.2} (1.0 = perfect)",
        max / min
    );
    println!(
        "competing TCP: worst {:.1}, best {:.1} pkt/s",
        result.worst_tcp().expect("tcp").throughput_pps,
        result.best_tcp().expect("tcp").throughput_pps
    );
}
