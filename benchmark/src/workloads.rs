//! The workloads. Each repetition builds its scenario through the public
//! experiment API, runs it, checks the outputs and reports how long the
//! run took.
//!
//! `--seed` names a family of [`VARIANTS`] scenario seeds and the
//! repetitions cycle through them, because one scenario seed decides a
//! lot: how many packets are simulated, and on the dynamic workload how
//! many of them the capture records. A run's median over the family
//! moves far less from one `--seed` to the next than one member does.
//!
//! One operation is one scenario run. A run fails if it panics, if its
//! trace digest differs from the first run of the same scenario seed, if
//! its registry violates packet conservation, or if a sink of the
//! observed workload does not read back.

use std::io::{BufRead, Read};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use experiments::cli::{PcapOptions, TelemetryOptions};
use experiments::diff::{diff_manifests, parse_manifest, DiffOptions};
use experiments::manifest::{scenario_manifest, Json};
use experiments::prelude::*;
use netsim::time::SimTime;
use tcp_sack::CcVariant;
use telemetry::{MetricValue, Snapshot, TimelineFormat};

use crate::host::{cpu_seconds, ScratchDir};
use crate::shim::ClassCounter;
use crate::spans::Spans;

/// Full-size runs, or the small ones the tests use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark is declared with.
    Full,
    /// Seconds of simulated time instead of minutes; same code paths.
    Quick,
}

impl Scale {
    /// `full` at full scale, `quick` otherwise.
    pub fn pick<T>(self, full: T, quick: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Quick => quick,
        }
    }
}

/// Which workload a [`Runner`] drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `fig7_case1_seq`
    Fig7Case1Seq,
    /// `table_sweep_jobs2`
    TableSweepJobs2,
    /// `case5_churn_observed`
    Case5ChurnObserved,
}

impl Workload {
    /// Look a workload up by its declared name.
    pub fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "fig7_case1_seq" => Workload::Fig7Case1Seq,
            "table_sweep_jobs2" => Workload::TableSweepJobs2,
            "case5_churn_observed" => Workload::Case5ChurnObserved,
            _ => return None,
        })
    }

    /// The declared name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig7Case1Seq => "fig7_case1_seq",
            Workload::TableSweepJobs2 => "table_sweep_jobs2",
            Workload::Case5ChurnObserved => "case5_churn_observed",
        }
    }
}

/// Sampling period of the observed workload's timeline.
const TIMELINE_PERIOD_MS: u64 = 100;

/// Scenario seeds per `--seed`; repetition `i` runs member `i % VARIANTS`.
pub const VARIANTS: usize = 4;

/// Member `variant` of the family of scenario seeds `--seed` names.
/// Families of different seeds do not overlap.
pub fn scenario_seed(seed: u64, variant: usize) -> u64 {
    seed.wrapping_mul(VARIANTS as u64)
        .wrapping_add(variant as u64)
}

/// The fig-7 case-1 drop-tail scenario every PR pins its sequential
/// throughput on.
pub fn fig7_case1_spec(seed: u64, simulated_secs: u64) -> ScenarioSpec {
    ScenarioSpec::paper(CongestionCase::Case1RootLink)
        .with_gateway(GatewayKind::DropTail)
        .with_duration(SimDuration::from_secs(simulated_secs))
        .with_seed(seed)
        .with_shards(1)
}

/// The case-5 drop-tail scenario on `shards` execution domains.
pub fn case5_spec(seed: u64, simulated_secs: u64, shards: usize) -> ScenarioSpec {
    ScenarioSpec::paper(CongestionCase::Case5OneLevel2)
        .with_gateway(GatewayKind::DropTail)
        .with_duration(SimDuration::from_secs(simulated_secs))
        .with_seed(seed)
        .with_shards(shards)
}

/// The fig-7 and fig-9 tables: five cases under each gateway type.
pub fn table_sweep_specs(seed: u64, simulated_secs: u64) -> Vec<ScenarioSpec> {
    [GatewayKind::DropTail, GatewayKind::Red]
        .into_iter()
        .flat_map(|gateway| {
            CongestionCase::FIGURE7_CASES.into_iter().map(move |case| {
                ScenarioSpec::paper(case)
                    .with_gateway(gateway)
                    .with_duration(SimDuration::from_secs(simulated_secs))
                    .with_seed(seed)
                    .with_shards(1)
            })
        })
        .collect()
}

/// Case 5 under RED with Reno TCPs, receiver churn and background load.
pub fn churn_spec(seed: u64, simulated_secs: u64) -> ScenarioSpec {
    ScenarioSpec::paper(CongestionCase::Case5OneLevel2)
        .with_gateway(GatewayKind::Red)
        .with_tcp_cc(CcVariant::parse("reno").expect("reno is registered"))
        .with_churn_rate(0.2)
        .with_background_load(2.0, 20.0)
        .with_duration(SimDuration::from_secs(simulated_secs))
        .with_seed(seed)
        .with_shards(1)
}

/// The simulated statistics of one scenario run. They repeat exactly for
/// a seed, and a change that only speeds the simulator up must leave
/// them identical.
#[derive(Debug, Clone, PartialEq)]
pub struct SimRun {
    /// The paper's congested-link label.
    pub case: String,
    /// `drop-tail` or `red`.
    pub gateway: &'static str,
    /// Digest of the packet-event stream.
    pub trace_digest: u64,
    /// Events folded into the digest.
    pub trace_events: u64,
    /// RLA throughput over the worst TCP's.
    pub rla_over_wtcp: f64,
    /// Events by kind: enqueue, drop, tx_start, arrive, deliver.
    pub kinds: [u64; 5],
}

impl SimRun {
    fn of(r: &ScenarioResult) -> SimRun {
        let count = |key: &str| match r.registry.get(key) {
            Some(MetricValue::Counter(c)) => c,
            _ => 0,
        };
        SimRun {
            case: r.case_label.clone(),
            gateway: match r.gateway {
                GatewayKind::DropTail => "drop-tail",
                GatewayKind::Red => "red",
            },
            trace_digest: r.trace_digest,
            trace_events: r.trace_events,
            rla_over_wtcp: r.rla[0].throughput_pps
                / r.worst_tcp().map_or(f64::NAN, |t| t.throughput_pps),
            kinds: [
                count("engine.enqueues"),
                count("engine.drops"),
                count("engine.tx_starts"),
                count("engine.arrivals"),
                count("engine.deliveries"),
            ],
        }
    }

    /// The run as a JSON object for the `sim` block.
    pub fn json(&self) -> Json {
        Json::obj(vec![
            ("case", self.case.as_str().into()),
            ("gateway", self.gateway.into()),
            ("trace_digest", format!("{:016x}", self.trace_digest).into()),
            ("trace_events", self.trace_events.into()),
            ("rla_over_wtcp", self.rla_over_wtcp.into()),
        ])
    }
}

/// What one repetition measured.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Which member of the seed family ran.
    pub variant: usize,
    /// Wall seconds of the timed region.
    pub wall_s: f64,
    /// Process CPU seconds (all threads) over the timed region.
    pub cpu_s: f64,
    /// Wall seconds spent constructing the scenario(s) and world(s),
    /// outside the timed region.
    pub setup_s: f64,
    /// One entry per scenario run, in input order.
    pub runs: Vec<SimRun>,
}

impl Rep {
    /// Trace events over all scenario runs of the repetition.
    pub fn events(&self) -> u64 {
        self.runs.iter().map(|r| r.trace_events).sum()
    }
}

/// Operations attempted and failed, with the reason of each failure.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Scenario runs attempted.
    pub attempted: u64,
    /// Scenario runs that failed a check.
    pub failed: u64,
    /// One line per failure.
    pub notes: Vec<String>,
}

impl Tally {
    /// Count one operation; `problem` is why it failed, if it did.
    pub fn record(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            self.notes.push(p);
        }
    }

    /// Count one scenario run against the digest it must reproduce.
    pub fn record_run(&mut self, run: &SimRun, expected_digest: u64, other: Option<String>) {
        let problem = if run.trace_digest != expected_digest {
            Some(format!(
                "{} {}: trace digest {:016x} differs from the reference {:016x}",
                run.case, run.gateway, run.trace_digest, expected_digest
            ))
        } else {
            other
        };
        self.record(problem);
    }
}

/// Packet conservation over a run's registry snapshot: every packet a
/// channel was offered was either accepted or dropped, the engine's
/// digest saw the same drops, and nothing was transmitted that was not
/// accepted first.
fn check_conservation(registry: &Snapshot) -> Result<(), String> {
    let count = |key: &str| match registry.get(key) {
        Some(MetricValue::Counter(c)) => Ok(c),
        _ => Err(format!("registry has no counter {key}")),
    };
    let offered = count("net.offered")?;
    let accepted = count("net.accepted")?;
    let transmitted = count("net.transmitted")?;
    let dropped = count("net.queue_drops")? + count("net.fault_drops")?;
    if offered != accepted + dropped {
        return Err(format!(
            "net.offered {offered} != accepted {accepted} + dropped {dropped}"
        ));
    }
    if count("engine.drops")? != dropped {
        return Err(format!(
            "engine.drops {} != net drops {dropped}",
            count("engine.drops")?
        ));
    }
    // A packet offered to an idle transmitter is accepted without ever
    // being enqueued, and every accepted packet starts transmission at
    // most once; what is left over at the deadline sits in the buffers.
    let (enqueues, tx_starts) = (count("engine.enqueues")?, count("engine.tx_starts")?);
    if !(enqueues <= accepted && transmitted <= tx_starts && tx_starts <= accepted) {
        return Err(format!(
            "expected enqueues {enqueues} <= accepted {accepted} and \
             transmitted {transmitted} <= tx_starts {tx_starts} <= accepted"
        ));
    }
    Ok(())
}

/// Number of records in a classic pcap file and whether their
/// timestamps never go backwards, read sequentially so that checking a
/// capture of hundreds of megabytes costs no memory (`PcapReader` wants
/// the whole file in one slice, which would set the process's peak RSS).
fn walk_pcap(path: &Path) -> Result<(u64, bool), String> {
    let file = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut r = std::io::BufReader::with_capacity(1 << 16, file);
    let mut header = [0u8; 24];
    r.read_exact(&mut header)
        .map_err(|e| format!("pcap global header: {e}"))?;
    let magic = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
    if magic != telemetry::pcap::MAGIC_NANOS {
        return Err(format!("pcap magic {magic:#x} is not the nanosecond magic"));
    }
    let (mut records, mut monotone, mut last) = (0u64, true, (0u32, 0u32));
    let mut rec = [0u8; 16];
    let mut frame = Vec::new();
    loop {
        match r.read_exact(&mut rec) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => break,
            Err(e) => return Err(format!("pcap record header: {e}")),
        }
        let word = |i: usize| u32::from_le_bytes(rec[i..i + 4].try_into().expect("4 bytes"));
        let stamp = (word(0), word(4));
        monotone &= stamp >= last;
        last = stamp;
        // caplen is bounded by the snaplen the harness asked for.
        let caplen = word(8) as usize;
        if caplen > 65_536 {
            return Err(format!(
                "pcap record {records}: caplen {caplen} is implausible"
            ));
        }
        frame.resize(caplen, 0);
        r.read_exact(&mut frame)
            .map_err(|e| format!("pcap record {records} body: {e}"))?;
        records += 1;
    }
    Ok((records, monotone))
}

fn build_world(spec: &ScenarioSpec) -> (TreeScenario, ScenarioWorld) {
    let scenario = spec.build();
    let world = scenario.build();
    (scenario, world)
}

/// Drives one workload: owns its inputs, its reference digests, its
/// scratch directory and its operation tally.
pub struct Runner {
    workload: Workload,
    /// The scenario(s) of one repetition, per member of the seed family.
    specs: Vec<Vec<ScenarioSpec>>,
    simulated: SimDuration,
    nominal_events: u64,
    scratch: ScratchDir,
    /// Per member: the digest each scenario run must reproduce, in input
    /// order, set by the member's first repetition.
    reference: Vec<Option<Vec<u64>>>,
    /// Operations attempted and failed so far.
    pub tally: Tally,
}

impl Runner {
    /// Prepare `workload` for `seed`.
    pub fn new(
        workload: Workload,
        seed: u64,
        scale: Scale,
        root: &Path,
    ) -> std::io::Result<Runner> {
        let secs = match workload {
            Workload::Fig7Case1Seq => scale.pick(300, 20),
            Workload::TableSweepJobs2 | Workload::Case5ChurnObserved => scale.pick(60, 20),
        };
        // Trace events of one repetition, rounded.
        let nominal_events = match workload {
            Workload::Fig7Case1Seq => scale.pick(35_000_000, 1_400_000),
            Workload::TableSweepJobs2 => scale.pick(74_000_000, 18_000_000),
            Workload::Case5ChurnObserved => scale.pick(8_500_000, 1_500_000),
        };
        let specs = (0..VARIANTS)
            .map(|v| {
                let seed = scenario_seed(seed, v);
                match workload {
                    Workload::Fig7Case1Seq => vec![fig7_case1_spec(seed, secs)],
                    Workload::TableSweepJobs2 => table_sweep_specs(seed, secs),
                    Workload::Case5ChurnObserved => vec![churn_spec(seed, secs)],
                }
            })
            .collect();
        Ok(Runner {
            workload,
            specs,
            simulated: SimDuration::from_secs(secs),
            nominal_events,
            scratch: ScratchDir::create(root)?,
            reference: vec![None; VARIANTS],
            tally: Tally::default(),
        })
    }

    /// The size of a repetition the time metrics are quoted for. A
    /// scenario seed decides how many packets are simulated — by ±3 % on
    /// fig-7 case 1, ±10 % on case 5 — and times are scaled from the
    /// repetition's own event count to this one, so that a busier seed
    /// does not read as a slower host.
    pub fn nominal_events(&self) -> u64 {
        self.nominal_events
    }

    /// Where this runner's artefacts go.
    pub fn scratch(&self) -> &Path {
        self.scratch.path()
    }

    /// Construct the workload's scenario(s) and world(s) once, drop
    /// them, and return the wall seconds construction took.
    pub fn sample_setup(&self) -> f64 {
        let t = Instant::now();
        let built: Vec<_> = self.specs[0].iter().map(build_world).collect();
        let s = t.elapsed().as_secs_f64();
        drop(built);
        s
    }

    /// One repetition of family member `variant`. `None` when it
    /// panicked; the failure is tallied either way. With spans enabled
    /// the run is made piecewise, so each phase gets its own span, and
    /// (where the caller builds the world) a counting tracer cross-checks
    /// the registry's event counts.
    pub fn rep(&mut self, variant: usize, spans: &mut Spans) -> Option<Rep> {
        let specs = &self.specs[variant];
        let outcome = catch_unwind(AssertUnwindSafe(|| match self.workload {
            Workload::Fig7Case1Seq => self.rep_single(&specs[0], spans),
            Workload::TableSweepJobs2 => self.rep_sweep(specs, spans),
            Workload::Case5ChurnObserved => self.rep_observed(&specs[0], spans),
        }));
        let (mut rep, problems) = match outcome {
            Ok(x) => x,
            Err(_) => {
                for _ in specs {
                    self.tally.record(Some("the run panicked".to_string()));
                }
                return None;
            }
        };
        rep.variant = variant;
        let reference = self.reference[variant]
            .get_or_insert_with(|| rep.runs.iter().map(|r| r.trace_digest).collect())
            .clone();
        for ((run, expected), problem) in rep.runs.iter().zip(reference).zip(problems) {
            self.tally.record_run(run, expected, problem);
        }
        Some(rep)
    }

    fn rep_single(&self, spec: &ScenarioSpec, spans: &mut Spans) -> (Rep, Vec<Option<String>>) {
        let t = Instant::now();
        let (scenario, mut world) = spans.span("setup", |_| build_world(spec));
        let setup_s = t.elapsed().as_secs_f64();

        let counter = spans.enabled().then(|| {
            let c = std::rc::Rc::new(std::cell::RefCell::new(ClassCounter::new(&[])));
            world.engine.set_tracer(c.clone());
            c
        });

        let cpu0 = cpu_seconds();
        let t = Instant::now();
        let result = spans.span("timed", |spans| {
            if spans.enabled() {
                spans.span("warmup", |_| {
                    world.run_span(SimTime::ZERO + scenario.warmup)
                });
                world.reset_stats();
                spans.span("measure", |_| {
                    world.run_span(SimTime::ZERO + scenario.duration)
                });
                spans.span("collect", |_| world.collect(&scenario))
            } else {
                world.run(&scenario)
            }
        });
        let wall_s = t.elapsed().as_secs_f64();
        let cpu_s = cpu_seconds() - cpu0;

        let run = SimRun::of(&result);
        let mut problem = check_conservation(&result.registry).err();
        if let Some(c) = counter {
            let kinds = c.borrow().kinds;
            if kinds != run.kinds {
                problem = Some(format!(
                    "tracer saw events {kinds:?}, the registry says {:?}",
                    run.kinds
                ));
            }
        }
        let rep = Rep {
            variant: 0,
            wall_s,
            cpu_s,
            setup_s,
            runs: vec![run],
        };
        (rep, vec![problem])
    }

    fn rep_sweep(&self, specs: &[ScenarioSpec], spans: &mut Spans) -> (Rep, Vec<Option<String>>) {
        // The pool builds each world itself, inside the timed region;
        // set-up is priced on a separate construction of the same set.
        let setup_s = spans.span("setup", |_| self.sample_setup());
        let scenarios: Vec<TreeScenario> = specs.iter().map(ScenarioSpec::build).collect();

        let cpu0 = cpu_seconds();
        let t = Instant::now();
        let results = spans.span("timed", |spans| {
            spans.span("pool", |_| run_parallel_with_jobs(scenarios, 2))
        });
        let wall_s = t.elapsed().as_secs_f64();
        let cpu_s = cpu_seconds() - cpu0;

        let problems = results
            .iter()
            .map(|r| check_conservation(&r.registry).err())
            .collect();
        let rep = Rep {
            variant: 0,
            wall_s,
            cpu_s,
            setup_s,
            runs: results.iter().map(SimRun::of).collect(),
        };
        (rep, problems)
    }

    fn rep_observed(&self, spec: &ScenarioSpec, spans: &mut Spans) -> (Rep, Vec<Option<String>>) {
        let dir = self.scratch.path().to_path_buf();
        let t = Instant::now();
        let (scenario, mut world) = spans.span("setup", |_| build_world(spec));
        let setup_s = t.elapsed().as_secs_f64();

        let (pcap, timeline) = sink_options(&dir);
        let manifest_path = dir.join("run.manifest.json");

        let cpu0 = cpu_seconds();
        let t = Instant::now();
        let (result, recorder, records, diff) = spans.span("timed", |spans| {
            let tracer = spans.span("pcap_install", |_| world.install_pcap(&pcap, "capture"));
            let (result, recorder) = spans.span("run_observed", |_| {
                world.run_with_telemetry_streamed(&scenario, &timeline, "flows")
            });
            let records = spans.span("pcap_finish", |_| tracer.borrow_mut().finish());
            let text = spans.span("manifest_render", |_| {
                scenario_manifest("benchmark", self.simulated, std::slice::from_ref(&result))
                    .pretty()
            });
            let parsed = spans.span("manifest_io_parse", |_| {
                std::fs::write(&manifest_path, &text)
                    .and_then(|()| std::fs::read_to_string(&manifest_path))
                    .map_err(|e| e.to_string())
                    .and_then(|t| parse_manifest(&t).map_err(|e| format!("{e:?}")))
            });
            let diff = spans.span("self_diff", |_| {
                parsed.and_then(|m| {
                    diff_manifests(&m, &m, &DiffOptions::default()).map_err(|e| format!("{e:?}"))
                })
            });
            (result, recorder, records, diff)
        });
        let wall_s = t.elapsed().as_secs_f64();
        let cpu_s = cpu_seconds() - cpu0;
        drop(world);

        let run = SimRun::of(&result);
        let problem = spans.span("verify", |_| {
            check_conservation(&result.registry)
                .and_then(|()| {
                    verify_sinks(
                        &dir,
                        &scenario,
                        &run,
                        &recorder,
                        records.map_err(|e| e.to_string()),
                    )
                })
                .and_then(|()| match diff {
                    Ok(d) if !d.has_drift() => Ok(()),
                    Ok(_) => Err("the manifest's self-diff is not clean".to_string()),
                    Err(e) => Err(format!("manifest did not re-parse or diff: {e}")),
                })
                .err()
        });
        // Unlink what the repetition wrote, now: the kernel drops the
        // dirty pages of a deleted file instead of writing them back
        // while the next repetition is being timed, and the next one
        // creates its files afresh rather than truncating 150 MB (which
        // ext4 answers with a forced flush when the file is closed).
        clear_dir(&dir);
        let rep = Rep {
            variant: 0,
            wall_s,
            cpu_s,
            setup_s,
            runs: vec![run],
        };
        (rep, vec![problem])
    }
}

/// How the observed workload (and the ladder's sink rung) configures its
/// sinks: a spooled capture at the default snap length and chunk size, and
/// a JSONL timeline sampled every 100 ms, both written into `dir`.
pub fn sink_options(dir: &Path) -> (PcapOptions, TelemetryOptions) {
    let pcap = PcapOptions {
        enabled: true,
        snaplen: telemetry::pcap::DEFAULT_SNAPLEN,
        dir: dir.to_path_buf(),
        spool_records: Some(telemetry::pcap::DEFAULT_SPOOL_RECORDS),
    };
    let timeline = TelemetryOptions {
        timeline: true,
        sample_period: SimDuration::from_millis(TIMELINE_PERIOD_MS),
        format: TimelineFormat::Jsonl,
        dir: dir.to_path_buf(),
        flight_depth: telemetry::flight::DEFAULT_FLIGHT_DEPTH,
    };
    (pcap, timeline)
}

/// Delete every file in `dir`. Failures are left to the scratch
/// directory's own removal at the end of the run.
pub fn clear_dir(dir: &Path) {
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let _ = std::fs::remove_file(entry.path());
    }
}

/// Read the observed workload's sinks back: the capture holds one record
/// per transmission start, in time order, and the streamed timeline
/// holds one line per sample the run should have taken.
fn verify_sinks(
    dir: &Path,
    scenario: &TreeScenario,
    run: &SimRun,
    recorder: &telemetry::TimelineRecorder,
    finished: Result<u64, String>,
) -> Result<(), String> {
    let tx_starts = run.kinds[2];
    let finished = finished.map_err(|e| format!("pcap finish failed: {e}"))?;
    let (records, monotone) = walk_pcap(&dir.join("capture.pcap"))?;
    if records != tx_starts || finished != tx_starts {
        return Err(format!(
            "pcap holds {records} records (finish said {finished}), the digest counted {tx_starts} tx starts"
        ));
    }
    if !monotone {
        return Err("pcap timestamps go backwards".to_string());
    }

    // One sample per series at the start of the measurement window and
    // at every period boundary after it, the end of the run included.
    let window = scenario.duration.as_nanos() - scenario.warmup.as_nanos();
    let instants = window.div_ceil(TIMELINE_PERIOD_MS * 1_000_000) + 1;
    let expected = instants as usize * recorder.series().len();
    let file = std::fs::File::open(dir.join("flows.timeline.jsonl"))
        .map_err(|e| format!("timeline file: {e}"))?;
    let lines = std::io::BufReader::new(file).lines().count();
    if lines != expected || recorder.sample_count() != expected {
        return Err(format!(
            "timeline has {lines} lines and {} samples, expected {expected}",
            recorder.sample_count()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(digest: u64) -> SimRun {
        SimRun {
            case: "L1".to_string(),
            gateway: "drop-tail",
            trace_digest: digest,
            trace_events: 10,
            rla_over_wtcp: 1.0,
            kinds: [2; 5],
        }
    }

    #[test]
    fn a_perturbed_digest_is_counted_as_a_failed_operation() {
        let mut tally = Tally::default();
        tally.record_run(&run(0xabc), 0xabc, None);
        assert_eq!((tally.attempted, tally.failed), (1, 0));
        tally.record_run(&run(0xabc ^ 1), 0xabc, None);
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert!(
            tally.notes[0].contains("differs from the reference"),
            "{:?}",
            tally.notes
        );
        tally.record_run(&run(0xabc), 0xabc, Some("sink failed".to_string()));
        assert_eq!((tally.attempted, tally.failed), (3, 2));
    }

    #[test]
    fn every_declared_workload_has_a_runner_under_the_same_name() {
        for w in &crate::spec::WORKLOADS {
            assert_eq!(Workload::parse(w.name).map(Workload::name), Some(w.name));
        }
        assert_eq!(Workload::parse("fig7"), None);
    }

    #[test]
    fn a_runner_fails_the_repetition_whose_digest_moved() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/runner-test");
        let mut runner =
            Runner::new(Workload::Fig7Case1Seq, 5, Scale::Quick, &root).expect("scratch dir");
        let mut spans = Spans::new("test", false);
        let first = runner.rep(1, &mut spans).expect("the repetition runs");
        runner.rep(1, &mut spans).expect("and runs again");
        assert_eq!((runner.tally.attempted, runner.tally.failed), (2, 0));
        // Inject the fault: pretend the first repetition had produced
        // another event stream than the one every later one reproduces.
        runner.reference[1] = Some(vec![first.runs[0].trace_digest ^ 1]);
        runner
            .rep(1, &mut spans)
            .expect("the repetition still runs");
        assert_eq!((runner.tally.attempted, runner.tally.failed), (3, 1));
        // Another member of the family has its own reference.
        let other = runner.rep(2, &mut spans).expect("member 2 runs");
        assert_ne!(other.runs[0].trace_digest, first.runs[0].trace_digest);
        assert_eq!((runner.tally.attempted, runner.tally.failed), (4, 1));
        assert!(
            runner.tally.notes[0].contains("trace digest"),
            "{:?}",
            runner.tally.notes
        );
        drop(runner);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn conservation_check_catches_a_lost_packet() {
        let snapshot = |offered: u64| {
            let mut reg = telemetry::Registry::new();
            for (k, v) in [
                ("net.offered", offered),
                ("net.accepted", 8),
                ("net.transmitted", 8),
                ("net.queue_drops", 2),
                ("net.fault_drops", 0),
                ("engine.drops", 2),
                ("engine.enqueues", 5),
                ("engine.tx_starts", 8),
            ] {
                reg.record_count(k, v);
            }
            reg.snapshot()
        };
        assert_eq!(check_conservation(&snapshot(10)), Ok(()));
        let err = check_conservation(&snapshot(11)).expect_err("one packet vanished");
        assert!(err.contains("net.offered"), "{err}");
    }
}
