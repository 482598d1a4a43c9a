//! §3.1: TCP's macro-effect at a drop-tail gateway.
//!
//! One TCP through a drop-tail bottleneck (buffer 20). The buffer
//! occupancy oscillates between (almost) empty and full — the "buffer
//! period" — and the paper's observations are quantified here:
//!
//! * the buffer period lasts **much longer than 2·RTT**, and
//! * the buffer-full period (during which drops happen) lasts **about
//!   2·RTT or less**.
//!
//! These two facts justify grouping losses within `2·srtt` into one
//! congestion signal (RLA rule 2).

use std::cell::RefCell;
use std::rc::Rc;

use experiments::prelude::*;
use netsim::prelude::*;
use tcp_sack::{TcpConfig, TcpReceiver, TcpSender};
use telemetry::QueueSeriesTracer;

fn main() {
    // 100 pkt/s bottleneck, 50 ms one-way => RTT 0.1 s, BDP 10 < buffer 20.
    let cfg = RunConfig::from_env();
    cfg.refuse_scenario_knobs("buffer_period");
    let mut engine = Engine::new(cfg.seed);
    let a = engine.add_node("src");
    let b = engine.add_node("dst");
    let (down, _) = engine.add_link(
        a,
        b,
        800_000,
        SimDuration::from_millis(50),
        &QueueConfig::paper_droptail(),
    );
    let rx = engine.add_agent(b, Box::new(TcpReceiver::new(40)));
    let tx = engine.add_agent(a, Box::new(TcpSender::new(rx, TcpConfig::default())));
    engine.compute_routes();
    engine.start_agent_at(tx, SimTime::ZERO);

    // The tracer keeps the bottleneck's queue length at every enqueue and
    // transmission start, and every drop there.
    let tracer = Rc::new(RefCell::new(QueueSeriesTracer::new(down)));
    engine.set_tracer(tracer.clone());
    let duration = cfg.capped_duration(600.0).as_secs_f64();
    engine.run_until(SimTime::from_secs_f64(duration));

    let trace = tracer.borrow();
    let samples = &trace.samples;
    let rtt = 0.1 + 20.0 / 100.0 * 0.5; // base RTT + typical queueing
    println!("§3.1 — buffer occupancy at a drop-tail bottleneck (cap 20, RTT ≈ {rtt:.2} s)");
    let window: Vec<(SimTime, usize)> = samples
        .iter()
        .copied()
        .filter(|(t, _)| (30.0..90.0).contains(&t.as_secs_f64()))
        .collect();
    println!(
        "{}",
        experiments::plots::render_queue_series(&window, 100, 10, 20)
    );

    // Segment the trace into buffer periods: low (<= 25% cap) -> full
    // (>= cap-1) -> back to low.
    let cap = 20usize;
    let low = cap / 4;
    let full = cap - 1;
    let mut periods: Vec<f64> = Vec::new();
    let mut full_periods: Vec<f64> = Vec::new();
    let mut period_start: Option<f64> = None;
    let mut full_start: Option<f64> = None;
    let mut reached_full = false;
    for &(t, q) in samples {
        let ts = t.as_secs_f64();
        if ts < 20.0 {
            continue; // skip slow-start transient
        }
        if q >= full && full_start.is_none() {
            full_start = Some(ts);
        }
        if q < full {
            if let Some(fs) = full_start.take() {
                full_periods.push(ts - fs);
                reached_full = true;
            }
        }
        if q <= low {
            if let Some(ps) = period_start {
                if reached_full {
                    periods.push(ts - ps);
                    period_start = Some(ts);
                    reached_full = false;
                }
            } else {
                period_start = Some(ts);
            }
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    println!(
        "buffer periods:      {:>4} observed, mean {:>6.2} s  ({:.1} x 2RTT)",
        periods.len(),
        mean(&periods),
        mean(&periods) / (2.0 * rtt)
    );
    println!(
        "buffer-full periods: {:>4} observed, mean {:>6.2} s  ({:.1} x 2RTT)",
        full_periods.len(),
        mean(&full_periods),
        mean(&full_periods) / (2.0 * rtt)
    );
    println!("drops recorded at the gateway: {}", trace.drops.len());
    let manifest = Json::obj(vec![
        ("binary", "buffer_period".into()),
        ("seed", cfg.seed.into()),
        ("duration_secs", duration.into()),
        (
            "trace_digest",
            format!("{:016x}", engine.trace_digest().value()).into(),
        ),
        ("trace_events", engine.trace_digest().events().into()),
        ("buffer_periods", periods.len().into()),
        ("buffer_period_mean_secs", mean(&periods).into()),
        ("buffer_full_periods", full_periods.len().into()),
        ("buffer_full_mean_secs", mean(&full_periods).into()),
        ("gateway_drops", trace.drops.len().into()),
    ]);
    emit_manifest(&cfg.results_dir, "buffer_period", &manifest);
    println!("\npaper's observation: buffer period >> 2RTT; buffer-full period <~ 2RTT,");
    println!("which is why the RLA groups losses within 2·srtt into one congestion signal.");
}
