//! What the benchmark declares: its workloads and metrics, by name.
//!
//! `BENCHMARK.json` at the repository root is rendered from these tables
//! (`benchmark declare`), and a test keeps the two equal in both
//! directions, so a metric cannot be emitted without being declared or
//! declared without being emitted.

use experiments::manifest::Json;

/// How long one driver run measures, seconds. With three workloads the
/// driver makes 70 runs; at ~40 s each (build check, set-up, the
/// repetitions) plus two builds they fit its 3420 s budget with a margin.
pub const RUN_SECONDS: u64 = 36;

/// One workload: a name and the one-line reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDecl {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why this workload is in the set.
    pub why: &'static str,
}

/// Whether a larger or a smaller value is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// `to / from` oriented so that a value above 1 is a regression.
    pub fn worsening(self, from: f64, to: f64) -> f64 {
        match self {
            Better::Lower => to / from,
            Better::Higher => from / to,
        }
    }
}

/// An end-to-end metric with the share of the parent's median by which
/// it may get worse before a change is rejected.
#[derive(Debug, Clone, Copy)]
pub struct EndToEndDecl {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound, share of the parent's median.
    pub bound: f64,
}

/// A per-layer metric and the end-to-end metric it is predicted to move.
#[derive(Debug, Clone, Copy)]
pub struct LayerDecl {
    /// Metric name; the prefix up to the second dot is the module.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Prediction written down before measuring: which end-to-end metric
    /// on which workload a change to this number should move.
    pub moves: &'static str,
}

/// The workloads, in the order `run` executes them.
pub const WORKLOADS: [WorkloadDecl; 3] = [
    WorkloadDecl {
        name: "fig7_case1_seq",
        why: "fig-7 case 1, drop-tail, 300 s simulated, one domain: calendar, link path and the 27-receiver RLA sender do the work; shard exchange, worker pool and sinks do none",
    },
    WorkloadDecl {
        name: "table_sweep_jobs2",
        why: "the fig-7 and fig-9 tables, 5 cases x {drop-tail, RED} at 60 s through the 2-job pool: what a user waits for; covers RED, every loss pattern and pool balance",
    },
    WorkloadDecl {
        name: "case5_churn_observed",
        why: "case 5, RED, Reno TCP, churn and background load, 60 s, with timeline streaming, spooled pcap and manifest render/parse/self-diff: the observers-on and dynamics path",
    },
];

/// The end-to-end metrics every workload reports with `--trace 0`.
///
/// The bounds are wide because the gating host is: on a quiet hour ten
/// runs of a workload spread 2–4 % on the time metrics, on a busy one
/// 14 %, and a whole set of runs read 15 % slower than the next one
/// (README, "Host noise"). A bound must hold on the busy hour too.
///
/// Failed operations are not a metric here: the result line carries
/// `attempted` and `failed`, and a run with any failure is not `correct`.
pub const END_TO_END: [EndToEndDecl; 6] = [
    EndToEndDecl {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndDecl {
        name: "wall_s_best",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndDecl {
        name: "events_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEndDecl {
        name: "cpu_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndDecl {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEndDecl {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> LayerDecl {
    LayerDecl {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

const EPS_FIG7: &str = "events_per_s on fig7_case1_seq";
const WALL_SWEEP: &str = "wall_s on table_sweep_jobs2";
const WALL_CHURN: &str = "wall_s on case5_churn_observed";
const SHARDS2: &str =
    "none: no workload runs the threaded executor, see README; ROADMAP item 2 is read off this rung";
const CHURN_SINKS: &str = "wall_s and peak_rss_mb on case5_churn_observed; none elsewhere";

/// The per-layer metrics every workload reports with `--trace 1`.
pub const PER_LAYER: [LayerDecl; 57] = [
    layer("netsim.event.sched_pop_ns", "ns", Lower, EPS_FIG7),
    layer("netsim.event.heap_ref_ratio", "x", Higher, EPS_FIG7),
    layer("netsim.arena.insert_remove_ns", "ns", Lower, EPS_FIG7),
    layer("netsim.arena.duplicate_ns", "ns", Lower, EPS_FIG7),
    layer("netsim.queue.droptail_ns", "ns", Lower, EPS_FIG7),
    layer("netsim.queue.red_ns", "ns", Lower, WALL_SWEEP),
    layer("netsim.queue.red_drop_share", "share", Lower, WALL_SWEEP),
    layer("netsim.trace.digest_ns", "ns", Lower, EPS_FIG7),
    layer("netsim.engine.link_ns_per_event", "ns", Lower, EPS_FIG7),
    layer("netsim.engine.fanout_ns_per_event", "ns", Lower, EPS_FIG7),
    layer("netsim.engine.tracer_slot_pct", "%", Lower, WALL_CHURN),
    layer("netsim.engine.events.enqueue", "count", Lower, EPS_FIG7),
    layer("netsim.engine.events.drop", "count", Lower, EPS_FIG7),
    layer("netsim.engine.events.tx_start", "count", Lower, EPS_FIG7),
    layer("netsim.engine.events.arrive", "count", Lower, EPS_FIG7),
    layer("netsim.engine.events.deliver", "count", Lower, EPS_FIG7),
    layer("netsim.shard.regions", "count", Higher, SHARDS2),
    layer("netsim.shard.domains", "count", Higher, SHARDS2),
    layer("netsim.shard.epochs", "count", Lower, SHARDS2),
    layer("netsim.shard.events_per_epoch", "count", Higher, SHARDS2),
    layer("netsim.shard.critical_path_share", "share", Lower, SHARDS2),
    layer("netsim.shard.inline_overhead_pct", "%", Lower, SHARDS2),
    layer("netsim.shard.threaded_speedup", "x", Higher, SHARDS2),
    layer("netsim.shard.cpu_per_wall", "ratio", Lower, SHARDS2),
    layer("transport.cc.sack.on_ack_ns", "ns", Lower, WALL_SWEEP),
    layer("transport.cc.reno.on_ack_ns", "ns", Lower, WALL_CHURN),
    layer(
        "transport.cc.cubic.on_ack_ns",
        "ns",
        Lower,
        "none: no workload runs CUBIC",
    ),
    layer(
        "transport.cc.bbr.on_ack_ns",
        "ns",
        Lower,
        "none: no workload runs BBR",
    ),
    layer(
        "transport.rtt.sample_ns",
        "ns",
        Lower,
        "wall_s on table_sweep_jobs2; below noise on fig7_case1_seq",
    ),
    layer(
        "tcp.sender.callback_ns",
        "ns",
        Lower,
        "events_per_s on fig7_case1_seq (27 TCPs); wall_s on table_sweep_jobs2",
    ),
    layer(
        "tcp.receiver.callback_ns",
        "ns",
        Lower,
        "events_per_s on fig7_case1_seq (27 TCPs); wall_s on table_sweep_jobs2",
    ),
    layer("tcp.reno.callback_ns", "ns", Lower, WALL_CHURN),
    layer(
        "tcp.scoreboard.on_ack_ns",
        "ns",
        Lower,
        "events_per_s on fig7_case1_seq; wall_s on table_sweep_jobs2",
    ),
    layer(
        "tcp.retransmit_share",
        "share",
        Lower,
        "events_per_s on fig7_case1_seq; wall_s on table_sweep_jobs2",
    ),
    layer("rla.sender.callback_ns", "ns", Lower, EPS_FIG7),
    layer("rla.receiver.callback_ns", "ns", Lower, EPS_FIG7),
    layer("rla.sender.acks_per_data_pkt", "count", Lower, EPS_FIG7),
    layer("rla.trouble.signal_ns", "ns", Lower, EPS_FIG7),
    layer("rla.cut_per_signal", "ratio", Lower, EPS_FIG7),
    layer("rla.retransmit_share", "share", Lower, EPS_FIG7),
    layer("telemetry.timeline.on_cost_pct", "%", Lower, CHURN_SINKS),
    layer("telemetry.pcap.on_cost_pct", "%", Lower, CHURN_SINKS),
    layer(
        "telemetry.flight.on_cost_pct",
        "%",
        Lower,
        "none: no workload installs the flight recorder",
    ),
    layer("telemetry.pcap.record_ns", "ns", Lower, CHURN_SINKS),
    layer("telemetry.pcap.finish_s", "s", Lower, CHURN_SINKS),
    layer("telemetry.pcap.bytes_per_record", "B", Lower, CHURN_SINKS),
    layer("telemetry.timeline.sample_ns", "ns", Lower, CHURN_SINKS),
    layer(
        "telemetry.registry.snapshot_us",
        "us",
        Lower,
        "wall_s on table_sweep_jobs2 and case5_churn_observed (once per scenario)",
    ),
    layer(
        "experiments.scenario.build_us",
        "us",
        Lower,
        "setup_s on every workload",
    ),
    layer(
        "experiments.scenario.collect_us",
        "us",
        Lower,
        "wall_s on every workload (once per scenario)",
    ),
    layer(
        "experiments.manifest.render_mb_s",
        "MB/s",
        Higher,
        WALL_CHURN,
    ),
    layer(
        "experiments.manifest.parse_mb_s",
        "MB/s",
        Higher,
        WALL_CHURN,
    ),
    layer("experiments.diff.self_diff_ms", "ms", Lower, WALL_CHURN),
    layer(
        "experiments.runner.pool_efficiency",
        "share",
        Higher,
        "wall_s on table_sweep_jobs2 only",
    ),
    layer(
        "experiments.runner.longest_job_share",
        "share",
        Lower,
        "wall_s on table_sweep_jobs2 only",
    ),
    layer(
        "ladder.reconstructed_share",
        "share",
        Higher,
        "none: reported, says how much of fig-7 case 1 the rungs explain",
    ),
    layer(
        "trace.overhead_pct",
        "%",
        Lower,
        "none: the cost of the traced run itself",
    ),
];

/// The contents of `BENCHMARK.json`: exactly the keys the driver reads.
pub fn benchmark_json() -> Json {
    Json::obj(vec![
        ("command", vec!["bash", "benchmark/run.sh"].into()),
        ("paths", vec!["benchmark"].into()),
        ("run_seconds", RUN_SECONDS.into()),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj(vec![("name", w.name.into()), ("why", w.why.into())]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", m.name.into()),
                            ("unit", m.unit.into()),
                            ("better", m.better.as_str().into()),
                            ("bound", m.bound.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", m.name.into()),
                            ("unit", m.unit.into()),
                            ("better", m.better.as_str().into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn well_formed_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn declarations_stay_inside_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut names: Vec<&str> = Vec::new();
        for w in &WORKLOADS {
            assert!(well_formed_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            names.push(w.name);
        }
        for m in &END_TO_END {
            assert!(
                well_formed_name(m.name) && well_formed_unit(m.unit),
                "{}",
                m.name
            );
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            names.push(m.name);
        }
        for m in &PER_LAYER {
            assert!(
                well_formed_name(m.name) && well_formed_unit(m.unit),
                "{}",
                m.name
            );
            assert!(!m.moves.is_empty(), "{} needs a prediction", m.name);
            names.push(m.name);
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(benchmark_json().pretty().len() <= 64 * 1024);
    }

    #[test]
    fn setup_time_is_declared_with_the_largest_bound() {
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn worsening_is_above_one_for_a_regression_in_either_direction() {
        assert!(Better::Lower.worsening(2.0, 3.0) > 1.0);
        assert!(Better::Higher.worsening(3.0, 2.0) > 1.0);
        assert!(Better::Lower.worsening(3.0, 2.0) < 1.0);
    }
}
