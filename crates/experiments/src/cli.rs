//! Process-level run configuration for the experiment binaries.
//!
//! Every binary starts with `let cfg = RunConfig::from_env();` — one pass
//! over the process environment, parsed once into a [`RunConfig`] whose
//! values are handed down (scenario specs, the worker
//! [`Pool`](crate::runner::Pool), the manifest emitters). The `main`s
//! stop re-implementing the knobs, and nothing below them reads
//! `RLA_*` behind its caller's back (CI greps for it): a library call
//! behaves the same whatever the environment holds.
//!
//! The knobs are [`KNOWN_ENV_VARS`]; each is documented on the
//! [`RunConfig`] field it fills (see `EXPERIMENTS.md` for the full story).
//! Any other variable in the `RLA_` namespace is rejected with the list of
//! valid knobs, so typos fail loudly; so does an unparsable *value* of a
//! recognized knob, with the knob and the expected form named.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::str::FromStr;
use std::thread;

use netsim::time::SimDuration;
use tcp_sack::CcVariant;
use telemetry::flight::DEFAULT_FLIGHT_DEPTH;
use telemetry::pcap::DEFAULT_SNAPLEN;
use telemetry::TimelineFormat;

use crate::events::ScenarioEvent;
use crate::scenario::GatewayKind;
use crate::spec::ScenarioSpec;
use crate::tree::CongestionCase;

/// Every `RLA_*` environment knob the experiment binaries understand.
/// [`RunConfig::from_env`] rejects anything else in the `RLA_` namespace
/// so a typo (`RLA_DURATION=60`) fails loudly instead of silently running
/// the 3000 s default.
pub const KNOWN_ENV_VARS: [&str; 8] = [
    "RLA_DURATION_SECS",
    "RLA_SEED",
    "RLA_JOBS",
    "RLA_TCP_CC",
    "RLA_RESULTS_DIR",
    "RLA_EVENTS_FILE",
    "RLA_PROGRESS",
    "RLA_PCAP",
];

/// No run is shorter than this, whatever `RLA_DURATION_SECS` or a
/// binary's own default says.
const MIN_DURATION: SimDuration = SimDuration::from_secs(60);

/// A packet capture's options, as
/// [`install_pcap`](crate::scenario::ScenarioWorld::install_pcap) takes
/// them. The [`Pool`](crate::runner::Pool) builds them from the `RLA_PCAP`
/// switch and the results dir; every other field keeps its default outside
/// `benchmark/`, which names them all in a struct literal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcapOptions {
    /// Write a capture file per scenario run.
    pub enabled: bool,
    /// Capture-record snap length in bytes; every synthetic frame fits
    /// [`DEFAULT_SNAPLEN`] (`telemetry::pcap`'s compile-time `FRAME_MAX`
    /// check).
    pub snaplen: u32,
    /// Directory capture files are written to.
    pub dir: PathBuf,
    /// Inert: nothing reads it (ROADMAP item 9 deletes it).
    pub spool_records: Option<usize>,
}

impl Default for PcapOptions {
    fn default() -> Self {
        PcapOptions {
            enabled: false,
            snaplen: DEFAULT_SNAPLEN,
            dir: PathBuf::from("results"),
            spool_records: None,
        }
    }
}

/// How a timeline-recording run samples and where it writes, as
/// [`run_with_telemetry_streamed`](crate::scenario::ScenarioWorld::run_with_telemetry_streamed)
/// takes it. Recording is the caller's decision, never the environment's;
/// an attached timeline changes neither the run's trace digest nor its
/// manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryOptions {
    /// Inert: nothing reads it (ROADMAP item 9 deletes it).
    pub timeline: bool,
    /// Sampling period for the timeline recorder (default 500 ms). A
    /// streamed timeline is written per sampling instant, so a live reader
    /// is at most one period behind the run.
    pub sample_period: SimDuration,
    /// Inert: JSONL is the one timeline format (ROADMAP item 9 deletes it).
    pub format: TimelineFormat,
    /// Directory timeline files are written to.
    pub dir: PathBuf,
    /// Flight-recorder ring depth per channel for callers that install one.
    pub flight_depth: usize,
}

impl Default for TelemetryOptions {
    fn default() -> Self {
        TelemetryOptions {
            timeline: false,
            sample_period: SimDuration::from_millis(500),
            format: TimelineFormat::Jsonl,
            dir: PathBuf::from("results"),
            flight_depth: DEFAULT_FLIGHT_DEPTH,
        }
    }
}

/// The one process-level configuration: every field is the parsed image
/// of one `RLA_*` knob.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// `RLA_DURATION_SECS` — simulated seconds per run, floored at 60;
    /// `None` when unset (see [`run_duration`](Self::run_duration)).
    pub duration: Option<SimDuration>,
    /// `RLA_SEED` — base RNG seed (default 1; sweeps derive per-run seeds
    /// from it).
    pub seed: u64,
    /// `RLA_JOBS` — worker threads for scenario sweeps (floor 1; default:
    /// the machine's available parallelism).
    pub jobs: usize,
    /// `RLA_TCP_CC` — congestion controller for the background TCP flows
    /// (default `sack`, the paper's; any name in the `tcp_sack` registry).
    pub tcp_cc: CcVariant,
    /// `RLA_RESULTS_DIR` — where everything a run writes goes: manifests,
    /// captures, timelines and the `progress.jsonl` heartbeat (default
    /// `results/` in the current directory, the workspace root under
    /// `cargo run`).
    pub results_dir: PathBuf,
    /// `RLA_EVENTS_FILE` — the event schedule read from that path: a JSON
    /// array of event objects (or an object with an `"events"` array — a
    /// manifest's `events` section replays directly). Empty when unset.
    pub events: Vec<ScenarioEvent>,
    /// `RLA_PROGRESS` — the sweep heartbeat (`1`/`on`/`true`;
    /// `0`/`off`/empty for off): per-job lines on stderr, and one JSON
    /// object per completed job (case, seed, events/s, ETA) appended to
    /// `<results_dir>/progress.jsonl`, flushed per line so `rla_top` and
    /// `tail -f` follow it live. Off by default: the heartbeat is for
    /// humans watching long sweeps, and CI logs and test output should
    /// stay diffable.
    pub progress: bool,
    /// `RLA_PCAP` — packet-capture export, a switch (`1`/`on`/`true` or
    /// `0`/`off`/empty): every run the [`Pool`](crate::runner::Pool)
    /// executes streams one capture file into `results_dir`, whose memory
    /// cost is one write buffer
    /// ([`WRITE_BUFFER_BYTES`](telemetry::pcap::WRITE_BUFFER_BYTES))
    /// whatever the run length.
    pub pcap: bool,
}

impl RunConfig {
    /// Parse the process environment — the only place the workspace reads
    /// it. Unrecognized `RLA_*` names and unparsable values panic naming
    /// the knob, so a binary fails fast instead of ignoring an override.
    pub fn from_env() -> Self {
        Self::from_pairs(std::env::vars())
    }

    /// [`from_env`](Self::from_env) over an arbitrary `(name, value)`
    /// listing: rejects unknown `RLA_*` names, then parses the rest.
    fn from_pairs(vars: impl IntoIterator<Item = (String, String)>) -> Self {
        let vars: BTreeMap<String, String> = vars
            .into_iter()
            .filter(|(name, _)| name.starts_with("RLA_"))
            .collect();
        let unknown: Vec<&str> = vars
            .keys()
            .map(String::as_str)
            .filter(|name| !KNOWN_ENV_VARS.contains(name))
            .collect();
        assert!(
            unknown.is_empty(),
            "unrecognized RLA_* environment variable(s): {}. Valid knobs: {}",
            unknown.join(", "),
            KNOWN_ENV_VARS.join(", ")
        );
        Self::from_vars(|name| vars.get(name).cloned())
    }

    /// Parse the knobs from an arbitrary variable source — pure apart from
    /// reading the `RLA_EVENTS_FILE` path, so defaults and rejections are
    /// testable without mutating the process environment.
    pub fn from_vars(get: impl Fn(&str) -> Option<String>) -> Self {
        let duration = get("RLA_DURATION_SECS").map(|v| {
            let secs: f64 = parsed("RLA_DURATION_SECS", &v, "simulated seconds");
            // At 2^64 ns and above `from_secs_f64` saturates to a run that
            // never ends.
            let most = SimDuration::MAX.as_secs_f64();
            assert!(
                secs.is_finite() && secs < most,
                "RLA_DURATION_SECS={v:?}: expected a finite number of simulated seconds \
                 below {most:.4e}"
            );
            SimDuration::from_secs_f64(secs.max(MIN_DURATION.as_secs_f64()))
        });
        let jobs = match get("RLA_JOBS") {
            Some(v) => parsed::<usize>("RLA_JOBS", &v, "a worker count").max(1),
            None => thread::available_parallelism().map_or(1, |n| n.get()),
        };
        let tcp_cc = get("RLA_TCP_CC").map_or_else(CcVariant::sack, |v| {
            // A name missing from the registry fails listing every valid
            // one, so the error stays correct as controllers are added.
            let valid = CcVariant::names().join(", ");
            CcVariant::parse(&v).unwrap_or_else(|| {
                panic!("RLA_TCP_CC={v:?}: unknown congestion controller. Valid names: {valid}")
            })
        });
        let results_dir = get("RLA_RESULTS_DIR").map_or_else(|| "results".into(), PathBuf::from);
        let progress = get("RLA_PROGRESS").is_some_and(|v| {
            switch(&v).unwrap_or_else(|| panic!("RLA_PROGRESS={v:?}: expected 1/on/true or 0/off"))
        });
        let pcap = get("RLA_PCAP").is_some_and(|v| {
            switch(&v).unwrap_or_else(|| {
                panic!(
                    "RLA_PCAP={v:?}: expected a switch, 1/on/true or 0/off \
                     (a snap length is not accepted: every frame fits the default)"
                )
            })
        });

        RunConfig {
            duration,
            seed: get("RLA_SEED").map_or(1, |v| parsed("RLA_SEED", &v, "an unsigned integer seed")),
            jobs,
            tcp_cc,
            results_dir,
            events: get("RLA_EVENTS_FILE").map_or_else(Vec::new, |path| read_events(&path)),
            progress,
            pcap,
        }
    }

    /// Simulated duration with an explicit default: `RLA_DURATION_SECS` if
    /// set, else `default`, floored at 60 s either way.
    pub fn duration_or(&self, default: SimDuration) -> SimDuration {
        self.duration.unwrap_or(default).max(MIN_DURATION)
    }

    /// Simulated duration for paper-table runs: `RLA_DURATION_SECS` if set,
    /// else 3000 s (the paper's length).
    pub fn run_duration(&self) -> SimDuration {
        self.duration_or(SimDuration::from_secs(3000))
    }

    /// The paper scenario for `case` under this config's seed, background
    /// TCP flavor and events file. Every tree-scenario binary builds its
    /// specs from here, so a knob the unknown-name check accepts is a knob
    /// the run honours; duration stays with the binary, whose budget rule
    /// differs.
    pub fn spec(&self, case: CongestionCase) -> ScenarioSpec {
        ScenarioSpec::paper(case)
            .with_seed(self.seed)
            .with_tcp_cc(self.tcp_cc)
            .with_events(self.events.clone())
    }
}

/// Parse `v` as a `T`, or fail naming the knob and the expected form
/// instead of quietly running the default.
fn parsed<T: FromStr>(name: &str, v: &str, what: &str) -> T {
    v.parse()
        .unwrap_or_else(|_| panic!("{name}={v:?}: expected {what}"))
}

/// The on/off spellings the switch knobs share; `None` for anything else,
/// which the caller rejects naming its knob.
fn switch(v: &str) -> Option<bool> {
    match v {
        "1" | "on" | "true" => Some(true),
        "0" | "off" | "" => Some(false),
        _ => None,
    }
}

/// Load an `RLA_EVENTS_FILE` schedule. Malformed files fail loudly with
/// the offending event named.
fn read_events(path: &str) -> Vec<ScenarioEvent> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("RLA_EVENTS_FILE={path:?}: cannot read the file: {e}"));
    let json = crate::manifest::Json::parse(&text)
        .unwrap_or_else(|e| panic!("RLA_EVENTS_FILE={path:?}: invalid JSON: {e}"));
    crate::events::events_from_json(&json)
        .unwrap_or_else(|e| panic!("RLA_EVENTS_FILE={path:?}: {e}"))
}

/// Parse a congestion-case argument (`"1"`, `"2"`, ... as in the paper's
/// table headers); `None` for unrecognized input.
pub fn parse_case(arg: &str) -> Option<CongestionCase> {
    match arg {
        "1" => Some(CongestionCase::Case1RootLink),
        "2" => Some(CongestionCase::Case2AllLevel3),
        "3" => Some(CongestionCase::Case3AllLeaves),
        "4" => Some(CongestionCase::Case4FiveLeaves),
        "5" => Some(CongestionCase::Case5OneLevel2),
        "10.2" | "fig10-l2" => Some(CongestionCase::Fig10AllLevel2),
        "10.3" | "fig10-l3" => Some(CongestionCase::Fig10AllLevel3),
        _ => None,
    }
}

/// Parse a gateway-kind argument (`"red"` / `"droptail"`/`"drop-tail"`);
/// `None` for unrecognized input.
pub fn parse_gateway(arg: &str) -> Option<GatewayKind> {
    match arg {
        "red" => Some(GatewayKind::Red),
        "droptail" | "drop-tail" => Some(GatewayKind::DropTail),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::collections::BTreeSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// A config parsed from exactly these knobs.
    fn config(pairs: &[(&str, &str)]) -> RunConfig {
        RunConfig::from_pairs(pairs.iter().map(|(k, v)| (k.to_string(), v.to_string())))
    }

    #[test]
    fn defaults_leave_every_observer_off() {
        let cfg = config(&[]);
        assert_eq!(cfg.duration, None);
        assert_eq!(cfg.seed, 1);
        assert!(cfg.jobs >= 1);
        assert_eq!(cfg.tcp_cc, CcVariant::sack());
        assert_eq!(cfg.results_dir, PathBuf::from("results"));
        assert!(cfg.events.is_empty());
        // The observability layer must cost nothing unless asked for.
        assert!(!cfg.progress && !cfg.pcap);
    }

    #[test]
    fn every_knob_parses_into_its_field() {
        let cfg = config(&[
            ("RLA_DURATION_SECS", "90"),
            ("RLA_SEED", "42"),
            ("RLA_JOBS", "3"),
            ("RLA_RESULTS_DIR", "/tmp/out"),
            ("RLA_PROGRESS", "on"),
            ("RLA_PCAP", "on"),
            // Other namespaces are none of this module's business.
            ("PATH", "/bin"),
            ("CARGO_TARGET_DIR", "target"),
        ]);
        assert_eq!(cfg.duration, Some(SimDuration::from_secs(90)));
        assert_eq!((cfg.seed, cfg.jobs), (42, 3));
        assert!(cfg.progress && cfg.pcap);
        assert_eq!(cfg.results_dir, PathBuf::from("/tmp/out"));
    }

    #[test]
    fn switches_accept_the_on_and_off_spellings() {
        for on in ["1", "on", "true"] {
            let cfg = config(&[("RLA_PROGRESS", on), ("RLA_PCAP", on)]);
            assert!(cfg.progress && cfg.pcap, "{on:?}");
        }
        for off in ["0", "off", ""] {
            let cfg = config(&[("RLA_PROGRESS", off), ("RLA_PCAP", off)]);
            assert!(!cfg.progress && !cfg.pcap, "{off:?}");
        }
        assert_eq!(config(&[("RLA_JOBS", "0")]).jobs, 1, "floor of one");
    }

    #[test]
    fn durations_have_floors() {
        let unset = config(&[]);
        assert_eq!(unset.run_duration(), SimDuration::from_secs(3000));
        assert_eq!(
            unset.duration_or(SimDuration::from_secs(10)),
            SimDuration::from_secs(60),
            "floor applies to explicit defaults too"
        );
        assert_eq!(
            unset.duration_or(SimDuration::from_secs(120)),
            SimDuration::from_secs(120)
        );
        let short = config(&[("RLA_DURATION_SECS", "10")]);
        assert_eq!(short.run_duration(), SimDuration::from_secs(60));
        assert_eq!(
            short.duration_or(SimDuration::from_secs(120)),
            SimDuration::from_secs(60),
            "the knob overrides a binary's own default"
        );
    }

    #[test]
    fn case_and_gateway_parsing() {
        assert_eq!(parse_case("3"), Some(CongestionCase::Case3AllLeaves));
        assert_eq!(parse_case("x"), None);
        assert_eq!(parse_gateway("red"), Some(GatewayKind::Red));
        assert_eq!(parse_gateway("drop-tail"), Some(GatewayKind::DropTail));
        assert_eq!(parse_gateway("fifo"), None);
    }

    #[test]
    fn the_parser_asks_for_exactly_the_known_knobs() {
        // The list drives the unknown-name rejection and the parser reads
        // by name; a knob in one and not the other is either rejected
        // before it can be read or accepted and then ignored.
        let asked = RefCell::new(BTreeSet::new());
        RunConfig::from_vars(|name| {
            asked.borrow_mut().insert(name.to_string());
            None
        });
        let known: BTreeSet<String> = KNOWN_ENV_VARS.iter().map(|s| s.to_string()).collect();
        assert_eq!(asked.into_inner(), known);
        assert_eq!(known.len(), KNOWN_ENV_VARS.len(), "no duplicate entries");
    }

    #[test]
    fn bad_names_and_values_are_rejected_naming_the_knob() {
        let valid_list = "Valid knobs: RLA_DURATION_SECS, RLA_SEED";
        let rows: &[(&str, &str, &str)] = &[
            // Regression: these used to run the default without a word.
            (
                "RLA_DURATION_SECS",
                "60s",
                "RLA_DURATION_SECS=\"60s\": expected simulated seconds",
            ),
            ("RLA_DURATION_SECS", "inf", "RLA_DURATION_SECS=\"inf\""),
            // Regression: 2^64 ns and above saturated to a run that never
            // ended.
            ("RLA_DURATION_SECS", "1e11", "below 1.8447e10"),
            (
                "RLA_SEED",
                "abc",
                "RLA_SEED=\"abc\": expected an unsigned integer seed",
            ),
            (
                "RLA_JOBS",
                "two",
                "RLA_JOBS=\"two\": expected a worker count",
            ),
            ("RLA_PROGRESS", "maybe", "RLA_PROGRESS=\"maybe\""),
            ("RLA_PCAP", "x", "RLA_PCAP=\"x\""),
            // A snap length used to be accepted; every frame fits the
            // default, so it could only truncate SACK options.
            ("RLA_PCAP", "256", "expected a switch, 1/on/true or 0/off"),
            ("RLA_TCP_CC", "vegas", "sack, reno, cubic, bbr"),
            (
                "RLA_EVENTS_FILE",
                "/nonexistent/events.json",
                "cannot read the file",
            ),
            // A typo in the namespace is caught with the list to pick from.
            ("RLA_DURATION", "60", valid_list),
            // Knobs retired with the code that read them are rejected like
            // any other typo, so a stale script fails loudly instead of
            // running with the override ignored.
            ("RLA_TELEMETRY", "1", valid_list),
            ("RLA_TELEMETRY_FLIGHT_DEPTH", "8", valid_list),
            ("RLA_SHARDS", "2", valid_list),
            ("RLA_BENCH_BASELINE", "x.json", valid_list),
            ("RLA_BENCH_GATE_PCT", "3", valid_list),
            ("RLA_DIFF_THRESHOLD_PCT", "1", valid_list),
            ("RLA_PCAP_SPOOL", "1", valid_list),
            ("RLA_TELEMETRY_FORMAT", "jsonl", valid_list),
            ("RLA_TELEMETRY_SAMPLE_MS", "250", valid_list),
            // Every output lives in the results dir, and the heartbeat
            // file follows `RLA_PROGRESS`.
            ("RLA_PCAP_DIR", "/tmp/caps", valid_list),
            ("RLA_TELEMETRY_DIR", "/tmp/tl", valid_list),
            ("RLA_PROGRESS_FILE", "/tmp/hb.jsonl", valid_list),
        ];
        for &(name, value, expected) in rows {
            let msg = panic_message(|| {
                config(&[(name, value)]);
            });
            assert!(
                msg.contains(expected) && msg.contains(name),
                "{name}={value:?}: {msg}"
            );
        }
    }

    /// The message `f` panics with.
    fn panic_message(f: impl FnOnce()) -> String {
        let err = catch_unwind(AssertUnwindSafe(f)).expect_err("must panic");
        // `assert!` with a literal message panics with a `&str`.
        err.downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("panics carry a message")
    }

    #[test]
    fn the_process_environment_parses() {
        // The suite may run under knobs; whatever is set must be
        // something from_env accepts.
        let cfg = RunConfig::from_env();
        assert!(cfg.run_duration() >= MIN_DURATION);
    }

    #[test]
    fn tcp_cc_parses_every_registry_name() {
        for name in CcVariant::names() {
            assert_eq!(config(&[("RLA_TCP_CC", name)]).tcp_cc.name(), name);
        }
    }

    #[test]
    fn spec_carries_every_scenario_knob() {
        // Every tree-scenario binary's shape: it adds only its own
        // duration rule, so the spec must honour every knob that shapes a
        // run, the events file included.
        let events = vec![
            ScenarioEvent::leave(25.0, 0, 2),
            ScenarioEvent::degrade(30.0, "L2.1", 0.03, Some(800)),
        ];
        let dir = std::env::temp_dir().join("rla_cli_spec_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.json");
        std::fs::write(&path, crate::events::events_json(&events).pretty()).unwrap();
        let cfg = config(&[
            ("RLA_TCP_CC", "reno"),
            ("RLA_SEED", "7"),
            ("RLA_EVENTS_FILE", path.to_str().unwrap()),
        ]);
        let s = cfg
            .spec(CongestionCase::Case1RootLink)
            .with_duration(cfg.run_duration())
            .build();
        assert_eq!(s.tcp_cc.name(), "reno");
        assert_eq!(s.seed, 7);
        assert_eq!(s.duration, SimDuration::from_secs(3000));
        // The events file round-trips through the JSON format and reaches
        // the spec.
        assert_eq!(cfg.events, events);
        assert_eq!(s.events, events);
        // With no knob set, the spec is the static paper scenario.
        let plain = config(&[]).spec(CongestionCase::Case1RootLink).build();
        assert!(plain.events.is_empty() && plain.bg_load.is_none());
    }

    #[test]
    #[should_panic(expected = "torn_events.json\": invalid JSON: unterminated string at byte 33")]
    fn a_torn_events_file_fails_naming_the_path_and_the_byte_offset() {
        let dir = std::env::temp_dir().join("rla_cli_torn_events_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn_events.json");
        // A schedule cut off mid-write.
        std::fs::write(&path, r#"[{"t_secs": 25.0, "command": "rec"#).unwrap();
        config(&[("RLA_EVENTS_FILE", path.to_str().unwrap())]);
    }
}
