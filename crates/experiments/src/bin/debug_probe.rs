//! Diagnostic probe: run one scenario with the telemetry timeline
//! recorder always on, write the cwnd/qlen time series to a file, and
//! dump RLA sender internals afterwards. Not part of the paper's
//! artifact set; kept for development triage.
//!
//! This is also the documented way to see the RLA sawtooth:
//!
//! ```text
//! cargo run --release -p experiments --bin debug_probe -- 1 droptail
//! ```
//!
//! writes `results/debug_probe.timeline.jsonl` (period from
//! `RLA_TELEMETRY_SAMPLE_MS`, dir from `RLA_RESULTS_DIR`; see
//! `EXPERIMENTS.md`). The run is 120 s unless `RLA_DURATION_SECS` says
//! otherwise.

use experiments::prelude::*;
use rla::RlaSender;

fn main() {
    let cfg = RunConfig::from_env();
    let args: Vec<String> = std::env::args().collect();
    let case = args
        .get(1)
        .and_then(|s| cli::parse_case(s))
        .unwrap_or(CongestionCase::Case3AllLeaves);
    let gw = args
        .get(2)
        .and_then(|s| cli::parse_gateway(s))
        .unwrap_or(GatewayKind::DropTail);
    let scenario = cfg
        .spec(case)
        .with_gateway(gw)
        .with_duration(cfg.duration_or(SimDuration::from_secs(120)))
        .build();
    let mut world = scenario.build();
    let sender = world.rla_senders[0];

    // The probe exists to look at time series, so the recorder is always
    // on here, configured by RLA_TELEMETRY_SAMPLE_MS/DIR. Samples
    // stream to the file as they are recorded (written per sampling
    // instant), so `rla_top results/debug_probe.timeline.jsonl` — or
    // plain `tail -f` — follows the run live.
    let (r, rec) = world.run_with_telemetry_streamed(&scenario, &cfg.telemetry, "debug_probe");
    // The file `stream_to` opened: `<dir>/<stem>.timeline.jsonl`.
    let path = cfg.telemetry.dir.join("debug_probe.timeline.jsonl");
    println!(
        "timeline: {} ({} series, {} samples, period {:.3}s)",
        path.display(),
        rec.series().len(),
        rec.sample_count(),
        rec.period.as_secs_f64(),
    );

    // Sender-side view.
    {
        let now = world.engine.now();
        let s: &RlaSender = world.engine.agent_as(sender).unwrap();
        println!(
            "t={:>4.0}s cwnd={:>7.2} awnd={:>7.2} n_troubled={:>2} reach_all={:>7} high_seq={:>7} min_last_ack={:>7} delivered={:>7} signals={:>6} rcuts={:>5} fcuts={:>4} tmo={:>4} skip={:>5} rexmc={:>5} rexuc={:>5}",
            now.as_secs_f64(),
            s.cwnd(),
            s.awnd(),
            s.num_trouble_rcvr(now),
            s.max_reach_all(),
            s.stats.data_sent,
            s.min_last_ack(),
            s.stats.delivered,
            s.stats.cong_signals,
            s.stats.randomized_cuts,
            s.stats.forced_cuts,
            s.stats.timeouts,
            s.stats.skipped_rare,
            s.stats.retransmits_multicast,
            s.stats.retransmits_unicast,
        );
        println!("unknown_acks={}", s.stats.unknown_acks);
        for (id, cum, last) in s.receiver_states() {
            println!("  sender view {id}: cum={cum} last_heard={last}");
        }
    }
    // Receiver-side view.
    for (i, &rx) in world.rla_receivers[0].iter().enumerate() {
        let recv: &rla::McastReceiver = world.engine.agent_as(rx).unwrap();
        println!(
            "rcvr {i}: cum_ack={} arrivals={} delivered={} dups={}",
            recv.reassembly.cum_ack(),
            recv.reassembly.stats.arrivals,
            recv.reassembly.stats.delivered,
            recv.reassembly.stats.duplicates
        );
    }
    {
        let s: &RlaSender = world.engine.agent_as(sender).unwrap();
        println!(
            "early_rexmt={} rexmc={} data={}",
            s.stats.early_retransmits, s.stats.retransmits_multicast, s.stats.data_sent
        );
        let mut dups = 0u64;
        let mut arrivals = 0u64;
        for &rx in &world.rla_receivers[0] {
            let recv: &rla::McastReceiver = world.engine.agent_as(rx).unwrap();
            dups += recv.reassembly.stats.duplicates;
            arrivals += recv.reassembly.stats.arrivals;
        }
        println!(
            "receiver dups={} arrivals={} dups/rexmc={:.1}",
            dups,
            arrivals,
            dups as f64 / s.stats.retransmits_multicast.max(1) as f64
        );
        let mut leaf_drops = 0u64;
        for &ch in &world.tree.l4_down {
            leaf_drops += world.engine.world().channel(ch).stats.queue_drops();
        }
        println!("total leaf-channel drops (tcp+rla) = {leaf_drops}");
    }
    // What the calendar dispatched, and the completions it was spared.
    {
        let c = world.engine.event_counts();
        println!(
            "calendar: {} events (arrive={} tx_complete={} timer={} start={}), {} of {} completions settled without one",
            c.dispatched(),
            c.arrive,
            c.tx_complete,
            c.timer,
            c.start,
            c.settled,
            c.settled + c.tx_complete,
        );
    }
    // Any channel that dropped packets.
    for i in 0..world.engine.world().channel_count() {
        let ch = netsim::id::ChannelId::from(i);
        let c = world.engine.world().channel(ch);
        if c.stats.queue_drops() > 0 {
            println!(
                "{ch:?} {}->{}: offered={} tx={} drops={} maxq={}",
                c.from,
                c.to,
                c.stats.offered,
                c.stats.transmitted,
                c.stats.queue_drops(),
                c.stats.max_qlen
            );
        }
    }
    emit_scenario_manifest(
        &cfg.results_dir,
        "debug_probe",
        scenario.duration,
        std::slice::from_ref(&r),
    );
    // A scenario without competing TCP flows has no worst/best row.
    let tcp_pps = |t: Option<&experiments::metrics::TcpRow>| {
        t.map_or("n/a".to_string(), |t| format!("{:.1}", t.throughput_pps))
    };
    println!(
        "RLA {:.1} pkt/s | WTCP {} | BTCP {} | avgTCP {:.1}",
        r.rla[0].throughput_pps,
        tcp_pps(r.worst_tcp()),
        tcp_pps(r.best_tcp()),
        r.avg_tcp_throughput()
    );
}
