//! Shared environment/argument handling for the experiment binaries.
//!
//! Every regenerator binary honours the same knobs; this module is the
//! single place they are parsed so the sixteen `main`s stop re-implementing
//! them:
//!
//! * `RLA_DURATION_SECS` — simulated seconds per run (default 3000, the
//!   paper's length; floor 60).
//! * `RLA_SEED` — base RNG seed (default 1).
//! * `RLA_JOBS` — worker threads for scenario sweeps (default: the
//!   machine's available parallelism).
//! * `RLA_RESULTS_DIR` — where run manifests go (default `results/`;
//!   handled by [`results_dir`]).
//! * `RLA_TELEMETRY`, `RLA_TELEMETRY_SAMPLE_MS`, `RLA_TELEMETRY_FORMAT`,
//!   `RLA_TELEMETRY_DIR`, `RLA_TELEMETRY_FLIGHT_DEPTH` — the
//!   observability knobs, parsed into [`TelemetryOptions`] by
//!   [`telemetry_options`] (see `EXPERIMENTS.md` for the full story).
//! * `RLA_PROGRESS` — per-job heartbeat lines on stderr during sweeps
//!   (`1`/`on`/`true` to enable, `0`/`off`/empty for off; default off so
//!   test output stays clean).
//! * `RLA_PROGRESS_FILE` — path of a JSONL heartbeat file: sweeps append
//!   one JSON object per completed job (case, seed, events/s, ETA),
//!   flushed per line so `rla_top` and `tail -f` follow it live.
//! * `RLA_PCAP`, `RLA_PCAP_DIR`, `RLA_PCAP_SPOOL` — packet-capture
//!   export: `RLA_PCAP=1` (or a snaplen in bytes) makes single-scenario
//!   runs write a classic libpcap file per run into `RLA_PCAP_DIR`
//!   (default: the results dir), parsed into [`PcapOptions`] by
//!   [`pcap_options`].
//!   `RLA_PCAP_SPOOL=1` (or a chunk size in records) bounds the
//!   tracer's in-memory buffer by spilling sorted chunks to disk, so
//!   paper-length (3000 s) exports can't exhaust memory; the merged
//!   output is byte-identical to the unspooled file.
//! * `RLA_TCP_CC` — congestion controller for the background TCP flows
//!   (default `sack`; any name in the `tcp_sack` registry).
//! * `RLA_CHURN_RATE` — receiver leave/rejoin events per second for the
//!   dynamic-scenario binaries (default 0 — static membership).
//! * `RLA_BG_LOAD` — Poisson background short-flow arrivals per second
//!   (default 0 — no cross traffic).
//! * `RLA_EVENTS_FILE` — path to a JSON event schedule applied to each
//!   run (see EXPERIMENTS.md for the format).
//!
//! Any other variable in the `RLA_` namespace is rejected with the list
//! of valid knobs ([`enforce_known_env`]), so typos fail loudly; so does
//! an unparsable *value* of a recognized knob, with the knob and the
//! expected form named.
//!
//! Binaries that run sweeps scale the budget down with
//! [`scaled_duration`]; trace-heavy single runs cap it with
//! [`capped_duration`].

use std::path::PathBuf;
use std::thread;

use netsim::time::SimDuration;
use telemetry::flight::DEFAULT_FLIGHT_DEPTH;
use telemetry::TimelineFormat;

use crate::scenario::GatewayKind;
use crate::tree::CongestionCase;

pub use crate::manifest::results_dir;

/// Every `RLA_*` environment knob the experiment binaries understand.
/// [`enforce_known_env`] rejects anything else in the `RLA_` namespace so
/// a typo (`RLA_DURATION=60`) fails loudly instead of silently running
/// the 3000 s default.
pub const KNOWN_ENV_VARS: [&str; 18] = [
    "RLA_DURATION_SECS",
    "RLA_SEED",
    "RLA_JOBS",
    "RLA_TCP_CC",
    "RLA_RESULTS_DIR",
    "RLA_CHURN_RATE",
    "RLA_BG_LOAD",
    "RLA_EVENTS_FILE",
    "RLA_PROGRESS",
    "RLA_PROGRESS_FILE",
    "RLA_PCAP",
    "RLA_PCAP_DIR",
    "RLA_PCAP_SPOOL",
    "RLA_TELEMETRY",
    "RLA_TELEMETRY_SAMPLE_MS",
    "RLA_TELEMETRY_FORMAT",
    "RLA_TELEMETRY_DIR",
    "RLA_TELEMETRY_FLIGHT_DEPTH",
];

/// The subset of `names` that sit in the `RLA_` namespace without being a
/// recognized knob. Pure; the env-reading wrapper is
/// [`enforce_known_env`].
pub fn unknown_rla_vars_from(names: impl IntoIterator<Item = String>) -> Vec<String> {
    names
        .into_iter()
        .filter(|n| n.starts_with("RLA_") && !KNOWN_ENV_VARS.contains(&n.as_str()))
        .collect()
}

/// Reject unrecognized `RLA_*` environment variables. Called by every
/// knob getter, so each experiment binary fails fast on a typo with the
/// list of valid knobs instead of silently ignoring the override.
pub fn enforce_known_env() {
    let unknown = unknown_rla_vars_from(std::env::vars().map(|(k, _)| k));
    assert!(
        unknown.is_empty(),
        "unrecognized RLA_* environment variable(s): {}. Valid knobs: {}",
        unknown.join(", "),
        KNOWN_ENV_VARS.join(", ")
    );
}

/// Simulated duration for paper-table runs: `RLA_DURATION_SECS` if set,
/// else 3000 s (the paper's length), floored at 60 s.
pub fn run_duration() -> SimDuration {
    duration_or(SimDuration::from_secs(3000))
}

/// Simulated duration with an explicit default: `RLA_DURATION_SECS` if
/// set, else `default`, floored at 60 s either way.
pub fn duration_or(default: SimDuration) -> SimDuration {
    enforce_known_env();
    duration_or_from(|name| std::env::var(name).ok(), default)
}

/// [`duration_or`] over an arbitrary variable source (pure). A value that
/// is not a finite number of seconds (`60s`, `inf`) is rejected with the
/// knob named instead of quietly running the default length.
fn duration_or_from(get: impl Fn(&str) -> Option<String>, default: SimDuration) -> SimDuration {
    let secs = get("RLA_DURATION_SECS").map_or(default.as_secs_f64(), |v| {
        let secs: f64 = v
            .parse()
            .unwrap_or_else(|_| panic!("RLA_DURATION_SECS={v:?}: expected simulated seconds"));
        assert!(
            secs.is_finite(),
            "RLA_DURATION_SECS={v:?}: expected a finite number of simulated seconds"
        );
        secs
    });
    SimDuration::from_secs_f64(secs.max(60.0))
}

/// [`run_duration`] divided by `divisor` with a floor — the budget rule
/// the multi-gateway sweeps use so a 10-run batch stays inside one
/// paper-run's budget.
pub fn scaled_duration(divisor: f64, floor_secs: f64) -> SimDuration {
    SimDuration::from_secs_f64((run_duration().as_secs_f64() / divisor).max(floor_secs))
}

/// [`run_duration`] capped at `cap_secs` — for trace-collecting runs
/// whose memory grows with simulated time.
pub fn capped_duration(cap_secs: f64) -> SimDuration {
    SimDuration::from_secs_f64(run_duration().as_secs_f64().min(cap_secs))
}

/// Base RNG seed, honouring `RLA_SEED`.
pub fn base_seed() -> u64 {
    enforce_known_env();
    base_seed_from(|name| std::env::var(name).ok())
}

/// [`base_seed`] over an arbitrary variable source (pure). A non-integer
/// seed is rejected with the knob named instead of quietly running seed 1.
fn base_seed_from(get: impl Fn(&str) -> Option<String>) -> u64 {
    get("RLA_SEED").map_or(1, |v| {
        v.parse()
            .unwrap_or_else(|_| panic!("RLA_SEED={v:?}: expected an unsigned integer seed"))
    })
}

/// Whether sweep runners print per-job heartbeat lines to stderr
/// (`RLA_PROGRESS=1`/`on`/`true`). Off by default: the heartbeat is for
/// humans watching long sweeps, and CI logs should stay diffable.
pub fn progress_enabled() -> bool {
    enforce_known_env();
    progress_enabled_from(|name| std::env::var(name).ok())
}

/// [`progress_enabled`] over an arbitrary variable source (pure). A value
/// that is neither an on nor an off spelling is rejected with the knob
/// named instead of quietly meaning "off".
fn progress_enabled_from(get: impl Fn(&str) -> Option<String>) -> bool {
    match get("RLA_PROGRESS").as_deref() {
        Some("1" | "on" | "true") => true,
        None | Some("0" | "off" | "") => false,
        Some(v) => panic!("RLA_PROGRESS={v:?}: expected 1/on/true or 0/off"),
    }
}

/// The JSONL heartbeat path from `RLA_PROGRESS_FILE`, if set (pure
/// parse; [`progress_sink`] opens it).
pub fn progress_file_from(get: impl Fn(&str) -> Option<String>) -> Option<PathBuf> {
    get("RLA_PROGRESS_FILE").map(PathBuf::from)
}

/// Open the `RLA_PROGRESS_FILE` heartbeat sink, creating parent
/// directories. `None` when the knob is unset; an unwritable path fails
/// loudly with the knob named — a sweep silently dropping its heartbeat
/// file would defeat the point of asking for one.
pub fn progress_sink() -> Option<std::fs::File> {
    enforce_known_env();
    let path = progress_file_from(|name| std::env::var(name).ok())?;
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).unwrap_or_else(|e| {
                panic!("RLA_PROGRESS_FILE={path:?}: cannot create parent directory: {e}")
            });
        }
    }
    Some(std::fs::File::create(&path).unwrap_or_else(|e| {
        panic!("RLA_PROGRESS_FILE={path:?}: cannot create the heartbeat file: {e}")
    }))
}

/// Parsed `RLA_PCAP*` configuration. Like [`TelemetryOptions`], the
/// defaults mean "off": packet capture costs nothing unless asked for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcapOptions {
    /// Write a capture file per single-scenario run (`RLA_PCAP=1`/`on`,
    /// or a snaplen in bytes which also enables).
    pub enabled: bool,
    /// Capture-record snap length in bytes (`RLA_PCAP=<bytes>`;
    /// default 128, floored at 64 by the writer so the synthetic
    /// headers always survive truncation).
    pub snaplen: u32,
    /// Directory capture files are written to (`RLA_PCAP_DIR`, default:
    /// the results dir).
    pub dir: PathBuf,
    /// Spill-to-disk chunk size in records (`RLA_PCAP_SPOOL=1`/`on` for
    /// the default chunk, or a record count; `None` — the default —
    /// buffers the whole capture in memory). Bounds the tracer's memory
    /// for paper-length exports; the merged file is byte-identical.
    pub spool_records: Option<usize>,
}

impl Default for PcapOptions {
    fn default() -> Self {
        PcapOptions {
            enabled: false,
            snaplen: telemetry::pcap::DEFAULT_SNAPLEN,
            dir: results_dir(),
            spool_records: None,
        }
    }
}

/// Parse the `RLA_PCAP*` knobs from the process environment.
pub fn pcap_options() -> PcapOptions {
    enforce_known_env();
    pcap_options_from(|name| std::env::var(name).ok())
}

/// [`pcap_options`] over an arbitrary variable source (pure, testable).
pub fn pcap_options_from(get: impl Fn(&str) -> Option<String>) -> PcapOptions {
    let mut opts = PcapOptions::default();
    if let Some(v) = get("RLA_PCAP") {
        match v.as_str() {
            "1" | "on" | "true" => opts.enabled = true,
            "0" | "off" | "" => opts.enabled = false,
            other => {
                let snaplen: u32 = other.parse().unwrap_or_else(|_| {
                    panic!("RLA_PCAP={other:?}: expected on|off|1|0 or a snaplen in bytes")
                });
                opts.enabled = true;
                opts.snaplen = snaplen;
            }
        }
    }
    if let Some(v) = get("RLA_PCAP_DIR") {
        opts.dir = PathBuf::from(v);
    }
    if let Some(v) = get("RLA_PCAP_SPOOL") {
        match v.as_str() {
            "1" | "on" | "true" => {
                opts.spool_records = Some(telemetry::pcap::DEFAULT_SPOOL_RECORDS)
            }
            "0" | "off" | "" => opts.spool_records = None,
            other => {
                let records: usize = other.parse().unwrap_or_else(|_| {
                    panic!(
                        "RLA_PCAP_SPOOL={other:?}: expected on|off|1|0 or a chunk size in records"
                    )
                });
                assert!(
                    records > 0,
                    "RLA_PCAP_SPOOL=0 disables spooling; a chunk needs at least one record"
                );
                opts.spool_records = Some(records);
            }
        }
    }
    opts
}

/// Worker count for scenario sweeps: `RLA_JOBS` if set (floor 1),
/// otherwise the machine's available parallelism.
pub fn job_count() -> usize {
    enforce_known_env();
    job_count_from(|name| std::env::var(name).ok())
}

/// [`job_count`] over an arbitrary variable source (pure). A non-integer
/// count is rejected with the knob named instead of quietly using every
/// core.
fn job_count_from(get: impl Fn(&str) -> Option<String>) -> usize {
    match get("RLA_JOBS") {
        Some(v) => v
            .parse::<usize>()
            .unwrap_or_else(|_| panic!("RLA_JOBS={v:?}: expected a worker count"))
            .max(1),
        None => thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

/// Parsed `RLA_TELEMETRY*` configuration. All knobs default to
/// "telemetry off": the observability layer must cost nothing unless
/// asked for (the golden digests and the benchmark's end-to-end workloads
/// both run with this struct at its defaults).
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryOptions {
    /// Record per-flow timelines (`RLA_TELEMETRY=timeline`/`on`/`1`).
    pub timeline: bool,
    /// Sampling period for the timeline recorder
    /// (`RLA_TELEMETRY_SAMPLE_MS`, default 500 ms; 0 is rejected).
    pub sample_period: SimDuration,
    /// Timeline export format (`RLA_TELEMETRY_FORMAT=jsonl|csv`).
    pub format: TimelineFormat,
    /// Directory timeline files are written to (`RLA_TELEMETRY_DIR`,
    /// default: the results dir).
    pub dir: PathBuf,
    /// Flight-recorder ring depth per channel
    /// (`RLA_TELEMETRY_FLIGHT_DEPTH`, default 64).
    pub flight_depth: usize,
}

impl Default for TelemetryOptions {
    fn default() -> Self {
        TelemetryOptions {
            timeline: false,
            sample_period: SimDuration::from_millis(500),
            format: TimelineFormat::Jsonl,
            dir: results_dir(),
            flight_depth: DEFAULT_FLIGHT_DEPTH,
        }
    }
}

/// Parse the `RLA_TELEMETRY*` knobs from the process environment.
/// Unrecognized values fail loudly, like every other knob in this module.
pub fn telemetry_options() -> TelemetryOptions {
    enforce_known_env();
    telemetry_options_from(|name| std::env::var(name).ok())
}

/// [`telemetry_options`] over an arbitrary variable source — pure, so the
/// rejection paths are testable without mutating the process environment
/// (the same split as [`unknown_rla_vars_from`]).
pub fn telemetry_options_from(get: impl Fn(&str) -> Option<String>) -> TelemetryOptions {
    let mut opts = TelemetryOptions::default();
    if let Some(v) = get("RLA_TELEMETRY") {
        opts.timeline = match v.as_str() {
            "timeline" | "on" | "1" => true,
            "off" | "0" | "" => false,
            other => panic!("RLA_TELEMETRY={other:?}: expected timeline|on|1|off|0"),
        };
    }
    if let Some(v) = get("RLA_TELEMETRY_SAMPLE_MS") {
        let ms: u64 = v
            .parse()
            .unwrap_or_else(|_| panic!("RLA_TELEMETRY_SAMPLE_MS={v:?}: expected milliseconds"));
        // 0 would reach TimelineRecorder::new's `!period.is_zero()`
        // assertion and panic without naming the knob; reject it here
        // with the message the other knobs use.
        assert!(
            ms > 0,
            "RLA_TELEMETRY_SAMPLE_MS=0: the sampling period must be at least 1 ms"
        );
        opts.sample_period = SimDuration::from_millis(ms);
    }
    if let Some(v) = get("RLA_TELEMETRY_FORMAT") {
        opts.format = match v.as_str() {
            "jsonl" => TimelineFormat::Jsonl,
            "csv" => TimelineFormat::Csv,
            other => panic!("RLA_TELEMETRY_FORMAT={other:?}: expected jsonl|csv"),
        };
    }
    if let Some(v) = get("RLA_TELEMETRY_DIR") {
        opts.dir = PathBuf::from(v);
    }
    if let Some(v) = get("RLA_TELEMETRY_FLIGHT_DEPTH") {
        let depth: usize = v.parse().unwrap_or_else(|_| {
            panic!("RLA_TELEMETRY_FLIGHT_DEPTH={v:?}: expected a packet count")
        });
        opts.flight_depth = depth.max(1);
    }
    opts
}

/// The TCP congestion controller for the background flows:
/// `RLA_TCP_CC` looked up in the `tcp_sack` registry (default: the
/// paper's SACK).
pub fn tcp_cc() -> tcp_sack::CcVariant {
    enforce_known_env();
    tcp_cc_from(|name| std::env::var(name).ok())
}

/// [`tcp_cc`] over an arbitrary variable source (pure). A name missing
/// from the registry fails loudly listing every valid one, so the error
/// stays correct as controllers are added.
pub fn tcp_cc_from(get: impl Fn(&str) -> Option<String>) -> tcp_sack::CcVariant {
    get("RLA_TCP_CC").map_or_else(tcp_sack::CcVariant::sack, |v| {
        tcp_sack::CcVariant::parse(&v).unwrap_or_else(|| {
            panic!(
                "RLA_TCP_CC={v:?}: unknown congestion controller. Valid names: {}",
                tcp_sack::CcVariant::names().join(", ")
            )
        })
    })
}

/// Receiver churn rate for the dynamic-scenario binaries:
/// `RLA_CHURN_RATE` as leave/rejoin events per second (default 0 —
/// static membership).
pub fn churn_rate() -> f64 {
    enforce_known_env();
    churn_rate_from(|name| std::env::var(name).ok())
}

/// [`churn_rate`] over an arbitrary variable source (pure).
pub fn churn_rate_from(get: impl Fn(&str) -> Option<String>) -> f64 {
    rate_knob(&get, "RLA_CHURN_RATE", "leave/rejoin events per second")
}

/// Background-traffic intensity for the dynamic-scenario binaries:
/// `RLA_BG_LOAD` as Poisson short-flow arrivals per second (default 0 —
/// no cross traffic).
pub fn bg_load() -> f64 {
    enforce_known_env();
    bg_load_from(|name| std::env::var(name).ok())
}

/// [`bg_load`] over an arbitrary variable source (pure).
pub fn bg_load_from(get: impl Fn(&str) -> Option<String>) -> f64 {
    rate_knob(&get, "RLA_BG_LOAD", "flow arrivals per second")
}

/// Shared parser for the non-negative-rate knobs.
fn rate_knob(get: &impl Fn(&str) -> Option<String>, name: &str, what: &str) -> f64 {
    get(name).map_or(0.0, |v| {
        let rate: f64 = v
            .parse()
            .unwrap_or_else(|_| panic!("{name}={v:?}: expected {what}"));
        assert!(
            rate.is_finite() && rate >= 0.0,
            "{name}={v:?}: the rate must be non-negative and finite"
        );
        rate
    })
}

/// The event schedule from `RLA_EVENTS_FILE`, if set: a JSON array of
/// event objects (or an object with an `"events"` array — a manifest's
/// `events` section replays directly). Empty when unset. Malformed files
/// fail loudly with the offending event named.
pub fn events_file() -> Vec<crate::events::ScenarioEvent> {
    enforce_known_env();
    events_file_from(|name| std::env::var(name).ok())
}

/// [`events_file`] over an arbitrary variable source; reads the named
/// path from disk.
pub fn events_file_from(get: impl Fn(&str) -> Option<String>) -> Vec<crate::events::ScenarioEvent> {
    let Some(path) = get("RLA_EVENTS_FILE") else {
        return Vec::new();
    };
    let text = std::fs::read_to_string(&path)
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

    /// A variable source holding exactly one knob.
    fn only(knob: &'static str, value: &'static str) -> impl Fn(&str) -> Option<String> {
        move |name| (name == knob).then(|| value.to_string())
    }

    #[test]
    fn durations_have_floors() {
        // The suite itself may run under RLA_DURATION_SECS (CI pins 60 s),
        // so derive the expectations from the same env the helpers read
        // instead of mutating the process environment.
        let env = std::env::var("RLA_DURATION_SECS")
            .ok()
            .map(|v| v.parse::<f64>().expect("RLA_DURATION_SECS is numeric"));
        let base = env.unwrap_or(3000.0).max(60.0);
        assert_eq!(run_duration(), SimDuration::from_secs_f64(base));
        assert_eq!(
            duration_or(SimDuration::from_secs(10)),
            SimDuration::from_secs_f64(env.unwrap_or(10.0).max(60.0)),
            "floor applies to explicit defaults too"
        );
        assert_eq!(
            scaled_duration(5.0, 120.0),
            SimDuration::from_secs_f64((base / 5.0).max(120.0))
        );
        assert_eq!(
            capped_duration(600.0),
            SimDuration::from_secs_f64(base.min(600.0))
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
    fn seed_and_jobs_defaults() {
        assert_eq!(base_seed_from(|_| None), 1);
        assert!(job_count_from(|_| None) >= 1);
        assert_eq!(base_seed_from(only("RLA_SEED", "42")), 42);
        assert_eq!(job_count_from(only("RLA_JOBS", "3")), 3);
        assert_eq!(job_count_from(only("RLA_JOBS", "0")), 1, "floor of one");
        assert_eq!(
            duration_or_from(
                only("RLA_DURATION_SECS", "90"),
                SimDuration::from_secs(3000)
            ),
            SimDuration::from_secs(90)
        );
    }

    #[test]
    #[should_panic(expected = "RLA_DURATION_SECS=\"60s\": expected simulated seconds")]
    fn unparsable_duration_is_rejected_with_a_named_knob() {
        // Regression: this used to run the 3000 s default without a word.
        duration_or_from(
            only("RLA_DURATION_SECS", "60s"),
            SimDuration::from_secs(3000),
        );
    }

    #[test]
    #[should_panic(expected = "RLA_DURATION_SECS=\"inf\"")]
    fn non_finite_duration_is_rejected() {
        duration_or_from(
            only("RLA_DURATION_SECS", "inf"),
            SimDuration::from_secs(3000),
        );
    }

    #[test]
    #[should_panic(expected = "RLA_SEED=\"abc\": expected an unsigned integer seed")]
    fn unparsable_seed_is_rejected_with_a_named_knob() {
        base_seed_from(only("RLA_SEED", "abc"));
    }

    #[test]
    #[should_panic(expected = "RLA_JOBS=\"two\": expected a worker count")]
    fn unparsable_job_count_is_rejected_with_a_named_knob() {
        job_count_from(only("RLA_JOBS", "two"));
    }

    #[test]
    fn telemetry_defaults_are_off_and_cheap() {
        // The suite may run with telemetry knobs unset (the normal CI
        // environment); defaults must leave everything disabled.
        if std::env::var("RLA_TELEMETRY").is_err() {
            let opts = telemetry_options();
            assert!(!opts.timeline);
            assert_eq!(opts.sample_period, SimDuration::from_millis(500));
            assert_eq!(opts.format, TimelineFormat::Jsonl);
            assert_eq!(opts.flight_depth, DEFAULT_FLIGHT_DEPTH);
        }
    }

    #[test]
    fn telemetry_options_parse_from_a_variable_source() {
        let env = |pairs: &'static [(&'static str, &'static str)]| {
            move |name: &str| {
                pairs
                    .iter()
                    .find(|(k, _)| *k == name)
                    .map(|(_, v)| v.to_string())
            }
        };
        let opts = telemetry_options_from(env(&[
            ("RLA_TELEMETRY", "timeline"),
            ("RLA_TELEMETRY_SAMPLE_MS", "250"),
            ("RLA_TELEMETRY_FORMAT", "csv"),
        ]));
        assert!(opts.timeline);
        assert_eq!(opts.sample_period, SimDuration::from_millis(250));
        assert_eq!(opts.format, TimelineFormat::Csv);
    }

    #[test]
    #[should_panic(expected = "at least 1 ms")]
    fn zero_sample_period_is_rejected_with_a_named_knob() {
        // Regression: RLA_TELEMETRY_SAMPLE_MS=0 used to reach
        // TimelineRecorder::new's bare `!period.is_zero()` assertion.
        telemetry_options_from(|name| (name == "RLA_TELEMETRY_SAMPLE_MS").then(|| "0".to_string()));
    }

    #[test]
    fn churn_and_bg_knobs_parse_with_zero_defaults() {
        let env = |pairs: &'static [(&'static str, &'static str)]| {
            move |name: &str| {
                pairs
                    .iter()
                    .find(|(k, _)| *k == name)
                    .map(|(_, v)| v.to_string())
            }
        };
        assert_eq!(churn_rate_from(env(&[])), 0.0);
        assert_eq!(bg_load_from(env(&[])), 0.0);
        assert_eq!(churn_rate_from(env(&[("RLA_CHURN_RATE", "0.25")])), 0.25);
        assert_eq!(bg_load_from(env(&[("RLA_BG_LOAD", "3")])), 3.0);
        assert!(events_file_from(env(&[])).is_empty());
    }

    #[test]
    fn tcp_cc_parses_registry_names_and_defaults_to_sack() {
        assert_eq!(tcp_cc_from(|_| None), tcp_sack::CcVariant::sack());
        for name in tcp_sack::CcVariant::names() {
            let cc = tcp_cc_from(move |k| (k == "RLA_TCP_CC").then(|| name.to_string()));
            assert_eq!(cc.name(), name);
        }
    }

    #[test]
    #[should_panic(expected = "sack, reno, cubic, bbr")]
    fn unknown_tcp_cc_is_rejected_listing_the_registry() {
        tcp_cc_from(|name| (name == "RLA_TCP_CC").then(|| "vegas".to_string()));
    }

    #[test]
    #[should_panic(expected = "RLA_CHURN_RATE")]
    fn negative_churn_rate_is_rejected_with_a_named_knob() {
        churn_rate_from(|name| (name == "RLA_CHURN_RATE").then(|| "-1".to_string()));
    }

    #[test]
    #[should_panic(expected = "RLA_BG_LOAD")]
    fn non_numeric_bg_load_is_rejected_with_a_named_knob() {
        bg_load_from(|name| (name == "RLA_BG_LOAD").then(|| "heavy".to_string()));
    }

    #[test]
    #[should_panic(expected = "cannot read the file")]
    fn missing_events_file_is_rejected_with_the_path() {
        events_file_from(|name| {
            (name == "RLA_EVENTS_FILE").then(|| "/nonexistent/events.json".to_string())
        });
    }

    #[test]
    fn events_file_round_trips_through_the_json_format() {
        use crate::events::{events_json, ScenarioEvent};
        let events = vec![
            ScenarioEvent::leave(25.0, 0, 2),
            ScenarioEvent::degrade(30.0, "L2.1", 0.03, Some(800)),
        ];
        let dir = std::env::temp_dir().join("rla_cli_events_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.json");
        std::fs::write(&path, events_json(&events).pretty()).unwrap();
        let path_str = path.to_str().unwrap().to_string();
        let loaded =
            events_file_from(move |name| (name == "RLA_EVENTS_FILE").then(|| path_str.clone()));
        assert_eq!(loaded, events);
    }

    #[test]
    fn progress_accepts_the_on_and_off_spellings() {
        let with = |v: &'static str| {
            progress_enabled_from(move |name| (name == "RLA_PROGRESS").then(|| v.to_string()))
        };
        assert!(with("1") && with("on") && with("true"));
        assert!(!with("0") && !with("off") && !with(""));
        assert!(!progress_enabled_from(|_| None));
    }

    #[test]
    #[should_panic(expected = "RLA_PROGRESS=\"yes\"")]
    fn unrecognized_progress_value_is_rejected_with_a_named_knob() {
        progress_enabled_from(|name| (name == "RLA_PROGRESS").then(|| "yes".to_string()));
    }

    #[test]
    fn pcap_options_parse_from_a_variable_source() {
        let off = pcap_options_from(|_| None);
        assert!(!off.enabled);
        assert_eq!(off.snaplen, telemetry::pcap::DEFAULT_SNAPLEN);
        let on = pcap_options_from(|name| (name == "RLA_PCAP").then(|| "on".to_string()));
        assert!(on.enabled);
        let sized = pcap_options_from(|name| match name {
            "RLA_PCAP" => Some("256".to_string()),
            "RLA_PCAP_DIR" => Some("/tmp/caps".to_string()),
            _ => None,
        });
        assert!(sized.enabled, "a snaplen enables capture");
        assert_eq!(sized.snaplen, 256);
        assert_eq!(sized.dir, PathBuf::from("/tmp/caps"));
        // The default respects the knobs-unset CI environment.
        if std::env::var("RLA_PCAP").is_err() {
            assert!(!pcap_options().enabled);
        }
    }

    #[test]
    #[should_panic(expected = "RLA_PCAP=")]
    fn non_numeric_pcap_value_is_rejected_with_a_named_knob() {
        pcap_options_from(|name| (name == "RLA_PCAP").then(|| "yes please".to_string()));
    }

    #[test]
    fn pcap_spool_parses_the_chunk_size_and_defaults_off() {
        assert_eq!(pcap_options_from(|_| None).spool_records, None);
        let on = pcap_options_from(|name| match name {
            "RLA_PCAP" => Some("1".to_string()),
            "RLA_PCAP_SPOOL" => Some("on".to_string()),
            _ => None,
        });
        assert_eq!(
            on.spool_records,
            Some(telemetry::pcap::DEFAULT_SPOOL_RECORDS)
        );
        let sized = pcap_options_from(|name| match name {
            "RLA_PCAP" => Some("1".to_string()),
            "RLA_PCAP_SPOOL" => Some("4096".to_string()),
            _ => None,
        });
        assert_eq!(sized.spool_records, Some(4096));
        let off = pcap_options_from(|name| (name == "RLA_PCAP_SPOOL").then(|| "off".to_string()));
        assert_eq!(off.spool_records, None);
    }

    #[test]
    #[should_panic(expected = "RLA_PCAP_SPOOL=")]
    fn non_numeric_pcap_spool_is_rejected_with_a_named_knob() {
        pcap_options_from(|name| (name == "RLA_PCAP_SPOOL").then(|| "lots".to_string()));
    }

    #[test]
    fn progress_file_parses_and_sink_defaults_to_none() {
        assert_eq!(progress_file_from(|_| None), None);
        assert_eq!(
            progress_file_from(|name| {
                (name == "RLA_PROGRESS_FILE").then(|| "/tmp/hb.jsonl".to_string())
            }),
            Some(PathBuf::from("/tmp/hb.jsonl"))
        );
        if std::env::var("RLA_PROGRESS_FILE").is_err() {
            assert!(progress_sink().is_none());
        }
    }

    #[test]
    fn unknown_rla_vars_are_flagged_and_known_ones_pass() {
        let names = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        // Every documented knob is accepted; other namespaces are ignored.
        let mut ok = names(&KNOWN_ENV_VARS);
        ok.push("PATH".to_string());
        ok.push("CARGO_TARGET_DIR".to_string());
        assert!(unknown_rla_vars_from(ok).is_empty());
        // A typo in the RLA_ namespace is caught.
        assert_eq!(
            unknown_rla_vars_from(names(&["RLA_DURATION", "RLA_SEED", "HOME"])),
            vec!["RLA_DURATION".to_string()]
        );
        // Knobs retired with the tools that set them are rejected like any
        // other typo, so a stale script fails loudly instead of running
        // with the override ignored.
        let retired = [
            "RLA_SHARDS",
            "RLA_BENCH_BASELINE",
            "RLA_BENCH_GATE_PCT",
            "RLA_DIFF_THRESHOLD_PCT",
        ];
        assert_eq!(unknown_rla_vars_from(names(&retired)), names(&retired));
        // The process environment itself must be clean — the getters call
        // enforce_known_env on every read.
        enforce_known_env();
    }
}
