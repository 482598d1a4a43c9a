//! One measured run of one workload: what the driver's
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>` executes.
//!
//! With tracing off the run reports the end-to-end metrics. With tracing
//! on it climbs the ladder, then alternates untraced and traced
//! repetitions of the workload and reports the per-layer metrics; the
//! difference between the two kinds of repetition is the tracing
//! overhead.

use std::path::{Path, PathBuf};
use std::time::Instant;

use experiments::manifest::Json;

use crate::host::peak_rss_mb;
use crate::ladder;
use crate::spans::Spans;
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::Summary;
use crate::workloads::{scenario_seed, Rep, Runner, Scale, Workload, VARIANTS};

/// What to run.
#[derive(Debug, Clone)]
pub struct DriveArgs {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// How long to measure, seconds.
    pub seconds: f64,
    /// Per-layer run (`--trace 1`) instead of end-to-end.
    pub trace: bool,
    /// Full-size or test-size inputs.
    pub scale: Scale,
    /// Root of the checkout (holds `BENCHMARK.json` and `benchmark/`).
    pub root: PathBuf,
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every output checked out.
    pub correct: bool,
    /// Scenario runs attempted.
    pub attempted: u64,
    /// Scenario runs that failed a check.
    pub failed: u64,
    /// Why, one line per failure.
    pub notes: Vec<String>,
    /// The declared metrics, in declaration order: (name, value, unit).
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Five-number summaries behind the medians, by metric name.
    pub detail: Json,
    /// The simulated statistics, which repeat exactly for a seed.
    pub sim: Json,
}

impl Report {
    /// The one JSON object the driver reads from the last line of
    /// standard output.
    pub fn result_line(&self) -> String {
        let metrics = Json::Obj(
            self.metrics
                .iter()
                .map(|&(name, value, unit)| {
                    (
                        name.to_string(),
                        Json::obj(vec![("value", value.into()), ("unit", unit.into())]),
                    )
                })
                .collect(),
        );
        compact(&Json::obj(vec![
            ("correct", self.correct.into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", metrics),
        ]))
    }
}

/// `value` on one line. Floats print with every digit they have.
pub fn compact(value: &Json) -> String {
    fn string(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    fn go(v: &Json, out: &mut String) {
        match v {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Num(x) if x.is_finite() => {
                let s = format!("{x}");
                out.push_str(&s);
                if !s.contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    go(item, out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, item)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    string(k, out);
                    out.push(':');
                    go(item, out);
                }
                out.push('}');
            }
        }
    }
    let mut out = String::new();
    go(value, &mut out);
    out
}

fn summary_json(s: &Summary) -> Json {
    Json::obj(vec![
        ("n", s.n.into()),
        ("min", s.min.into()),
        ("q1", s.q1.into()),
        ("median", s.median.into()),
        ("q3", s.q3.into()),
        ("max", s.max.into()),
    ])
}

/// The simulated statistics of the first repetition of every member of
/// the seed family that ran, in member order.
fn sim_json(workload: Workload, seed: u64, reps: &[Rep]) -> Json {
    let members = (0..VARIANTS)
        .filter_map(|v| reps.iter().find(|r| r.variant == v))
        .map(|r| {
            Json::obj(vec![
                ("scenario_seed", scenario_seed(seed, r.variant).into()),
                (
                    "runs",
                    Json::Arr(r.runs.iter().map(|run| run.json()).collect()),
                ),
            ])
        })
        .collect();
    Json::obj(vec![
        ("workload", workload.name().into()),
        ("seed", seed.into()),
        ("members", Json::Arr(members)),
    ])
}

/// A time per repetition over a run whose repetitions cycle through the
/// seed family.
struct FamilyTime {
    /// Mean over the members of each member's median repetition.
    typical: f64,
    /// Mean over the members of each member's fastest repetition.
    best: f64,
    /// The repetitions with the members' differences taken out: each
    /// divided by its member's median and multiplied by `typical`. What
    /// is left is the host's noise, which `compare` needs.
    noise: Summary,
    /// Each member that ran, with the summary of its repetitions.
    members: Vec<(usize, Summary)>,
}

impl FamilyTime {
    /// Summarise `time` over `reps`, each scaled from its own event count
    /// to `nominal_events`. Members are summarised one by one and then
    /// averaged: their costs differ by up to a quarter on the dynamic
    /// workload, so the median of the pooled repetitions would jump
    /// between clusters from run to run.
    fn of(reps: &[Rep], nominal_events: f64, time: fn(&Rep) -> f64) -> FamilyTime {
        let scaled = |r: &Rep| time(r) * nominal_events / r.events() as f64;
        let members: Vec<(usize, Summary)> = (0..VARIANTS)
            .filter_map(|v| {
                let times: Vec<f64> = reps.iter().filter(|r| r.variant == v).map(scaled).collect();
                (!times.is_empty()).then(|| (v, Summary::of(&times)))
            })
            .collect();
        let mean = |f: fn(&Summary) -> f64| {
            members.iter().map(|(_, s)| f(s)).sum::<f64>() / members.len() as f64
        };
        let typical = mean(|s| s.median);
        let centred: Vec<f64> = reps
            .iter()
            .map(|r| {
                let (_, member) = members
                    .iter()
                    .find(|(v, _)| *v == r.variant)
                    .expect("every repetition belongs to a summarised member");
                scaled(r) / member.median * typical
            })
            .collect();
        FamilyTime {
            typical,
            best: mean(|s| s.min),
            noise: Summary::of(&centred),
            members,
        }
    }
}

/// Set-up constructions timed before each repetition.
const SETUP_SAMPLES_PER_REP: usize = 16;

/// Keep repeating until `seconds` have been measured: stop when the next
/// repetition would end further from the target than stopping now does.
fn keep_going(started: Instant, seconds: f64, last_rep_s: f64) -> bool {
    started.elapsed().as_secs_f64() + last_rep_s / 2.0 < seconds
}

/// Run one workload as the driver asks and report its metrics.
pub fn drive(args: &DriveArgs) -> Result<Report, String> {
    let mut runner = Runner::new(args.workload, args.seed, args.scale, &args.root)
        .map_err(|e| format!("cannot create the scratch directory: {e}"))?;
    let report = if args.trace {
        drive_traced(args, &mut runner)
    } else {
        drive_end_to_end(args, &mut runner)
    }?;
    for note in &report.notes {
        eprintln!("benchmark: failed operation: {note}");
    }
    Ok(report)
}

fn drive_end_to_end(args: &DriveArgs, runner: &mut Runner) -> Result<Report, String> {
    let mut setup: Vec<f64> = Vec::new();

    let mut spans = Spans::new(args.workload.name(), false);
    let mut reps: Vec<Rep> = Vec::new();
    let mut panicked = 0u32;
    let started = Instant::now();
    let mut last_s = 0.0;
    let mut attempts = 0;
    // Two repetitions at least; a member's second repetition is what
    // checks its first one's digest for determinism.
    while reps.len() < 2 || keep_going(started, args.seconds, last_s) {
        let t = Instant::now();
        // At test size there may be time for two repetitions only: make
        // them the same member, so that the digest check is exercised.
        let variant = (attempts / 2) % VARIANTS;
        attempts += 1;
        // One world construction takes well under a millisecond, so
        // set-up is sampled many times — before every repetition rather
        // than in one burst, which a single disturbance of the host
        // would cover whole.
        setup.extend((0..SETUP_SAMPLES_PER_REP).map(|_| runner.sample_setup()));
        match runner.rep(variant, &mut spans) {
            Some(rep) => reps.push(rep),
            None => panicked += 1,
        }
        last_s = t.elapsed().as_secs_f64();
        if panicked >= 3 {
            break;
        }
    }
    if reps.is_empty() {
        return Err(format!(
            "every repetition panicked: {}",
            runner.tally.notes.join("; ")
        ));
    }
    setup.extend(reps.iter().map(|r| r.setup_s));

    let nominal = runner.nominal_events() as f64;
    let wall = FamilyTime::of(&reps, nominal, |r| r.wall_s);
    let cpu = FamilyTime::of(&reps, nominal, |r| r.cpu_s);
    let setup = Summary::of(&setup);
    let value = |name: &str| match name {
        "wall_s" => wall.typical,
        "wall_s_best" => wall.best,
        "events_per_s" => nominal / wall.typical,
        "cpu_s" => cpu.typical,
        "peak_rss_mb" => peak_rss_mb(),
        "setup_s" => setup.median,
        other => unreachable!("end-to-end metric {other} has no measurement"),
    };
    let metrics = END_TO_END
        .iter()
        .map(|m| (m.name, value(m.name), m.unit))
        .collect();
    Ok(Report {
        correct: runner.tally.failed == 0,
        attempted: runner.tally.attempted,
        failed: runner.tally.failed,
        notes: runner.tally.notes.clone(),
        metrics,
        detail: Json::obj(vec![
            ("wall_s", summary_json(&wall.noise)),
            ("cpu_s", summary_json(&cpu.noise)),
            ("setup_s", summary_json(&setup)),
            (
                "wall_s_by_scenario_seed",
                Json::Obj(
                    wall.members
                        .iter()
                        .map(|(v, s)| (scenario_seed(args.seed, *v).to_string(), summary_json(s)))
                        .collect(),
                ),
            ),
            (
                "trace_events",
                Json::Arr(reps.iter().map(|r| r.events().into()).collect()),
            ),
            ("nominal_events", runner.nominal_events().into()),
        ]),
        sim: sim_json(args.workload, args.seed, &reps),
    })
}

fn drive_traced(args: &DriveArgs, runner: &mut Runner) -> Result<Report, String> {
    let mut spans = Spans::new(args.workload.name(), true);
    let mut untraced_spans = Spans::new(args.workload.name(), false);
    let started = Instant::now();

    let scratch = runner.scratch().to_path_buf();
    let mut values: Vec<(&'static str, f64)> =
        ladder::run(args.seed, args.scale, &mut spans, &scratch);

    let (mut untraced, mut traced): (Vec<Rep>, Vec<Rep>) = (Vec::new(), Vec::new());
    let mut notes = Vec::new();
    let mut last_s = 0.0;
    let mut round = 0u32;
    // At test size a pair takes a fraction of a second; 64 pairs are
    // plenty for a median and keep the span file small.
    while round == 0 || (round < 64 && keep_going(started, args.seconds, last_s)) {
        round += 1;
        let t = Instant::now();
        spans.set_rep(round);
        let variant = (round as usize - 1) % VARIANTS;
        let first_new_span = spans.all().len();
        // Whichever repetition of a pair runs first reads a few percent
        // slower on the observed workload; alternate, so that it cancels.
        let traced_first = round.is_multiple_of(2);
        let mut on = None;
        if traced_first {
            on = spans.span("rep", |spans| runner.rep(variant, spans));
        }
        let off = runner.rep(variant, &mut untraced_spans);
        if !traced_first {
            on = spans.span("rep", |spans| runner.rep(variant, spans));
        }
        last_s = t.elapsed().as_secs_f64();
        let (Some(off), Some(on)) = (off, on) else {
            break;
        };
        // The spans inside the timed region must account for the wall
        // time the harness measured around it.
        if let Some(id) =
            (first_new_span..spans.all().len()).find(|&i| spans.all()[i].name == "timed")
        {
            let covered = spans.subtree_self_ns(id) as f64 / 1e9;
            if (covered - on.wall_s).abs() > 0.02 * on.wall_s {
                notes.push(format!(
                    "rep {round}: span self times sum to {covered:.4} s, the rep's wall is {:.4} s",
                    on.wall_s
                ));
            }
        }
        untraced.push(off);
        traced.push(on);
    }
    spans.set_rep(0);
    if traced.is_empty() {
        return Err(format!(
            "the workload's repetition panicked: {}",
            runner.tally.notes.join("; ")
        ));
    }

    let wall = |reps: &[Rep]| Summary::of(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let (off, on) = (wall(&untraced), wall(&traced));
    values.push(("trace.overhead_pct", (on.median / off.median - 1.0) * 100.0));
    let kinds = traced[0].runs.iter().fold([0u64; 5], |acc, r| {
        std::array::from_fn(|i| acc[i] + r.kinds[i])
    });
    for (name, count) in [
        "netsim.engine.events.enqueue",
        "netsim.engine.events.drop",
        "netsim.engine.events.tx_start",
        "netsim.engine.events.arrive",
        "netsim.engine.events.deliver",
    ]
    .into_iter()
    .zip(kinds)
    {
        values.push((name, count as f64));
    }

    let trace_file = trace_path(&args.root, args.workload, args.seed);
    spans
        .write_jsonl(&trace_file)
        .map_err(|e| format!("cannot write {}: {e}", trace_file.display()))?;
    println!(
        "spans: {} ({} spans)",
        trace_file.display(),
        spans.all().len()
    );
    for (name, ns) in spans.self_time_by_name() {
        println!("  self {:>10.3} ms  {name}", ns as f64 / 1e6);
    }

    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    for m in &PER_LAYER {
        let &(_, value) = values
            .iter()
            .find(|(name, _)| *name == m.name)
            .ok_or_else(|| format!("the traced run produced no {}", m.name))?;
        if !value.is_finite() {
            return Err(format!("{} is not a finite number: {value}", m.name));
        }
        metrics.push((m.name, value, m.unit));
    }
    if let Some((stray, _)) = values
        .iter()
        .find(|(name, _)| !PER_LAYER.iter().any(|m| m.name == *name))
    {
        return Err(format!("{stray} is measured but not declared"));
    }

    notes.extend(runner.tally.notes.iter().cloned());
    Ok(Report {
        correct: notes.is_empty(),
        attempted: runner.tally.attempted,
        failed: runner.tally.failed,
        notes,
        metrics,
        detail: Json::obj(vec![
            ("untraced_wall_s", summary_json(&off)),
            ("traced_wall_s", summary_json(&on)),
        ]),
        sim: sim_json(args.workload, args.seed, &traced),
    })
}

/// Where a traced run of `workload` writes its spans.
pub fn trace_path(root: &Path, workload: Workload, seed: u64) -> PathBuf {
    root.join("benchmark/results")
        .join(format!("{}-seed{seed}.trace.jsonl", workload.name()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_json_round_trips_and_keeps_every_digit() {
        let v = Json::obj(vec![
            ("a", 0.1234567890123456.into()),
            ("b", 3.0.into()),
            ("c", 7u64.into()),
            (
                "d",
                Json::Arr(vec![true.into(), Json::Null, "x\"y\n".into()]),
            ),
            ("e", 1.5e-9.into()),
        ]);
        let line = compact(&v);
        assert!(!line.contains('\n'));
        assert!(line.contains("0.1234567890123456"), "{line}");
        assert!(line.contains("\"b\":3.0"), "{line}");
        assert_eq!(Json::parse(&line).expect("valid JSON"), v);
    }

    #[test]
    fn family_members_are_summarised_one_by_one_then_averaged() {
        let rep = |variant: usize, wall_s: f64, events: u64| Rep {
            variant,
            wall_s,
            cpu_s: 0.0,
            setup_s: 0.0,
            runs: vec![crate::workloads::SimRun {
                case: "L1".to_string(),
                gateway: "drop-tail",
                trace_digest: 0,
                trace_events: events,
                rla_over_wtcp: 1.0,
                kinds: [0; 5],
            }],
        };
        // Member 0 costs 1 s, member 1 costs 2 s for twice the events:
        // at a nominal 100 events both cost 1 s, with 10 % of noise.
        let reps = [
            rep(0, 1.0, 100),
            rep(0, 1.1, 100),
            rep(0, 0.9, 100),
            rep(1, 2.0, 200),
            rep(1, 2.2, 200),
            rep(1, 1.8, 200),
        ];
        let t = FamilyTime::of(&reps, 100.0, |r| r.wall_s);
        assert!((t.typical - 1.0).abs() < 1e-12);
        assert!((t.best - 0.9).abs() < 1e-12);
        assert_eq!(t.noise.n, 6);
        assert!((t.noise.min - 0.9).abs() < 1e-12 && (t.noise.max - 1.1).abs() < 1e-12);

        // A member twice as dear shifts the mean, not the noise.
        let dear = [
            rep(0, 1.0, 100),
            rep(0, 1.0, 100),
            rep(1, 2.0, 100),
            rep(1, 2.0, 100),
        ];
        let t = FamilyTime::of(&dear, 100.0, |r| r.wall_s);
        assert!((t.typical - 1.5).abs() < 1e-12);
        assert_eq!(t.noise.spread(), 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let r = Report {
            correct: true,
            attempted: 9,
            failed: 0,
            notes: vec![],
            metrics: vec![("wall_s", 3.25, "s"), ("setup_s", 0.0003, "s")],
            detail: Json::Null,
            sim: Json::Null,
        };
        let parsed = Json::parse(&r.result_line()).expect("valid JSON");
        let keys: Vec<&str> = parsed
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let wall = parsed
            .get("metrics")
            .and_then(|m| m.get("wall_s"))
            .expect("wall_s");
        assert_eq!(wall.get("value").and_then(Json::as_f64), Some(3.25));
        assert_eq!(wall.get("unit").and_then(Json::as_str), Some("s"));
    }
}
