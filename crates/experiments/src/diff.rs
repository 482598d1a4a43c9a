//! Registry diffing between run manifests: the `rla_diff` engine.
//!
//! A drifted golden digest says *that* behaviour changed; the `registry`
//! section of the run manifest says *what* changed. This module loads two
//! manifests (see [`Json::parse`]), aligns their runs by
//! `(case, gateway, seed)` and the legs that tell apart runs sharing them
//! ([`RunDiff::label`]), aligns each run's registry by metric key, and
//! reports added/removed keys plus every metric whose relative change —
//! or absolute change, for metrics with a zero baseline — exceeds a
//! configurable threshold, sorted by magnitude.
//!
//! The `rla_diff` binary wraps this with table/JSON output and the
//! CI-friendly exit codes (0 = within threshold, 1 = drift, 2 = usage or
//! parse error); `tests/golden_digests.rs` runs the same diff on a digest
//! mismatch so the failure names the metrics that moved.

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

use crate::manifest::{Json, JsonParseError};

/// Default drift threshold, percent, when the `--threshold` flag does not
/// override it.
pub const DEFAULT_THRESHOLD_PCT: f64 = 1.0;

/// Thresholds for deciding whether a metric's movement counts as drift.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffOptions {
    /// A metric with a nonzero baseline drifts when its relative change
    /// exceeds this percentage (strictly).
    pub threshold_pct: f64,
    /// Absolute noise floor: changes no larger than this never count,
    /// and a metric with a *zero* baseline (where relative change is
    /// undefined — typically a rarely-incremented counter) drifts exactly
    /// when its absolute change exceeds this.
    pub abs_epsilon: f64,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions {
            threshold_pct: DEFAULT_THRESHOLD_PCT,
            abs_epsilon: 0.0,
        }
    }
}

impl DiffOptions {
    /// Check both knobs are usable: finite and non-negative. A NaN
    /// threshold makes every comparison in [`MetricDelta::exceeds`]
    /// silently false (no drift ever reported, however far the registries
    /// diverge), and a negative one flags unchanged metrics — both are
    /// configuration mistakes worth an error that names the knob, not a
    /// clean-looking diff.
    pub fn validate(&self) -> Result<(), DiffError> {
        let knobs = [
            ("threshold_pct", self.threshold_pct),
            ("abs_epsilon", self.abs_epsilon),
        ];
        for (name, v) in knobs {
            if !v.is_finite() || v < 0.0 {
                return Err(DiffError::Options(format!(
                    "{name}={v}: expected a finite, non-negative number"
                )));
            }
        }
        Ok(())
    }
}

/// What went wrong while loading or aligning manifests.
#[derive(Debug, Clone, PartialEq)]
pub enum DiffError {
    /// The input was not valid JSON.
    Parse(JsonParseError),
    /// The JSON parsed but is not a run manifest with registries.
    Schema(String),
    /// The [`DiffOptions`] thresholds are unusable (negative or
    /// non-finite) — see [`DiffOptions::validate`].
    Options(String),
}

impl fmt::Display for DiffError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiffError::Parse(e) => write!(f, "invalid JSON: {e}"),
            DiffError::Schema(msg) => write!(f, "not a run manifest: {msg}"),
            DiffError::Options(msg) => write!(f, "unusable thresholds: {msg}"),
        }
    }
}

impl std::error::Error for DiffError {}

impl From<JsonParseError> for DiffError {
    fn from(e: JsonParseError) -> Self {
        DiffError::Parse(e)
    }
}

/// One metric present in both registries whose value moved.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// The registry key (`chan.L3.4.retransmits`, `net.offered`, ...).
    pub key: String,
    /// Value in the baseline manifest.
    pub baseline: f64,
    /// Value in the candidate manifest.
    pub candidate: f64,
    /// `candidate - baseline`, signed.
    pub delta: f64,
    /// Signed relative change in percent (`100 * delta / |baseline|`);
    /// `None` when the baseline is zero.
    pub rel_pct: Option<f64>,
}

impl MetricDelta {
    fn new(key: &str, baseline: f64, candidate: f64) -> Self {
        let delta = candidate - baseline;
        let rel_pct = (baseline != 0.0).then(|| 100.0 * delta / baseline.abs());
        MetricDelta {
            key: key.to_string(),
            baseline,
            candidate,
            delta,
            rel_pct,
        }
    }

    /// Whether this movement exceeds the thresholds (see [`DiffOptions`]).
    pub fn exceeds(&self, opts: &DiffOptions) -> bool {
        if self.delta.abs() <= opts.abs_epsilon {
            return false;
        }
        match self.rel_pct {
            Some(rel) => rel.abs() > opts.threshold_pct,
            None => true, // zero baseline: already above the absolute floor
        }
    }

    /// Sort key: relative magnitude first (zero-baseline changes rank
    /// above any finite percentage), absolute magnitude as tiebreak.
    fn magnitude(&self) -> (f64, f64) {
        (
            self.rel_pct.map_or(f64::INFINITY, f64::abs),
            self.delta.abs(),
        )
    }
}

/// The diff of one aligned pair of runs.
#[derive(Debug, Clone, PartialEq)]
pub struct RunDiff {
    /// `case <label> / <gateway> / seed <n>` — the alignment key — with a
    /// `<cc>` leg before the seed when the run records its TCP flavour, an
    /// `<n> sessions` leg when it has more than one RLA session, and a
    /// `#<k>` suffix on the k-th run of a manifest to repeat a key.
    pub label: String,
    /// Keys only in the candidate's registry.
    pub added: Vec<String>,
    /// Keys only in the baseline's registry.
    pub removed: Vec<String>,
    /// Metrics over threshold, sorted by magnitude, largest first.
    pub drifted: Vec<MetricDelta>,
    /// Metrics that moved but stayed within threshold.
    pub within: usize,
    /// Metrics bit-identical in both registries.
    pub unchanged: usize,
}

impl RunDiff {
    /// Whether anything in this run counts as drift.
    pub fn has_drift(&self) -> bool {
        !self.added.is_empty() || !self.removed.is_empty() || !self.drifted.is_empty()
    }
}

/// The full comparison of two manifests.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestDiff {
    /// The thresholds the comparison used.
    pub options: DiffOptions,
    /// One entry per run present in both manifests, in baseline order.
    pub runs: Vec<RunDiff>,
    /// Alignment keys of runs only the baseline has.
    pub baseline_only_runs: Vec<String>,
    /// Alignment keys of runs only the candidate has.
    pub candidate_only_runs: Vec<String>,
}

impl ManifestDiff {
    /// Whether the candidate drifted from the baseline anywhere: a metric
    /// over threshold, a registry key appearing/disappearing, or a run
    /// present on only one side.
    pub fn has_drift(&self) -> bool {
        !self.baseline_only_runs.is_empty()
            || !self.candidate_only_runs.is_empty()
            || self.runs.iter().any(RunDiff::has_drift)
    }
}

/// Parse a manifest file's text ([`Json::parse`] with the error wrapped).
pub fn parse_manifest(text: &str) -> Result<Json, DiffError> {
    Ok(Json::parse(text)?)
}

/// The runs of a manifest. Scenario manifests carry a `runs` array;
/// anything else (e.g. an analysis-only manifest) is a schema error.
fn manifest_runs(manifest: &Json) -> Result<&[Json], DiffError> {
    manifest
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or_else(|| DiffError::Schema("no \"runs\" array (analysis-only manifest?)".into()))
}

/// The alignment key of one run: case, gateway, seed — plus the session
/// count when the run has more than one, so `tables`' §5.2 run does not
/// pair with figure 7's case 3. Positional when the fields are missing.
fn run_label(run: &Json, index: usize) -> String {
    match (
        run.get("case").and_then(Json::as_str),
        run.get("gateway").and_then(Json::as_str),
        run.get("seed").and_then(Json::as_u64),
    ) {
        (Some(case), Some(gw), Some(seed)) => {
            let mut legs = vec![format!("case {case}"), gw.to_string()];
            let sessions = run
                .get("rla_throughput_pps")
                .and_then(Json::as_arr)
                .map_or(0, <[Json]>::len);
            if sessions > 1 {
                legs.push(format!("{sessions} sessions"));
            }
            legs.push(format!("seed {seed}"));
            legs.join(" / ")
        }
        _ => format!("run[{index}]"),
    }
}

/// Every run's [`run_label`], in manifest order. A label that repeats —
/// figure 10's second case names the same links as figure 7's case 2 —
/// gets its occurrence number (`#2`, `#3`, …), so a manifest's runs pair
/// with themselves and two sweeps of one layout pair run by run.
fn run_labels(runs: &[Json]) -> Vec<String> {
    let mut seen: BTreeMap<String, usize> = BTreeMap::new();
    runs.iter()
        .enumerate()
        .map(|(i, run)| {
            let label = run_label(run, i);
            let n = seen.entry(label.clone()).or_default();
            *n += 1;
            match *n {
                1 => label,
                n => format!("{label} #{n}"),
            }
        })
        .collect()
}

/// A run's registry as `key -> numeric value`. Missing registry section
/// (pre-telemetry manifests) or non-numeric entries are schema errors.
fn run_registry(run: &Json, label: &str) -> Result<BTreeMap<String, f64>, DiffError> {
    let fields = run
        .get("registry")
        .and_then(Json::as_obj)
        .ok_or_else(|| DiffError::Schema(format!("{label}: no \"registry\" object")))?;
    let mut map = BTreeMap::new();
    for (key, value) in fields {
        let v = value.as_f64().ok_or_else(|| {
            DiffError::Schema(format!("{label}: registry entry {key:?} is not a number"))
        })?;
        map.insert(key.clone(), v);
    }
    Ok(map)
}

/// Diff two registries (already extracted as key→value maps).
pub fn diff_registries(
    label: &str,
    baseline: &BTreeMap<String, f64>,
    candidate: &BTreeMap<String, f64>,
    opts: &DiffOptions,
) -> RunDiff {
    let added = candidate
        .keys()
        .filter(|k| !baseline.contains_key(*k))
        .cloned()
        .collect();
    let removed = baseline
        .keys()
        .filter(|k| !candidate.contains_key(*k))
        .cloned()
        .collect();
    let mut drifted = Vec::new();
    let mut within = 0;
    let mut unchanged = 0;
    for (key, &b) in baseline {
        let Some(&c) = candidate.get(key) else {
            continue;
        };
        if b == c {
            unchanged += 1;
            continue;
        }
        let delta = MetricDelta::new(key, b, c);
        if delta.exceeds(opts) {
            drifted.push(delta);
        } else {
            within += 1;
        }
    }
    drifted.sort_by(|a, b| {
        b.magnitude()
            .partial_cmp(&a.magnitude())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.key.cmp(&b.key))
    });
    RunDiff {
        label: label.to_string(),
        added,
        removed,
        drifted,
        within,
        unchanged,
    }
}

/// Compare two parsed manifests' registry sections. Runs are aligned by
/// label ([`RunDiff::label`]); a run present on only one side is reported
/// (and counts as drift) rather than erroring, so comparing manifests
/// from different sweeps degrades gracefully.
pub fn diff_manifests(
    baseline: &Json,
    candidate: &Json,
    opts: &DiffOptions,
) -> Result<ManifestDiff, DiffError> {
    opts.validate()?;
    let base_runs = manifest_runs(baseline)?;
    let cand_runs = manifest_runs(candidate)?;
    let cand_labels = run_labels(cand_runs);
    let cand_by_label: BTreeMap<&String, &Json> = cand_labels.iter().zip(cand_runs).collect();

    let mut runs = Vec::new();
    let mut baseline_only = Vec::new();
    let mut matched = Vec::new();
    for (label, run) in run_labels(base_runs).into_iter().zip(base_runs) {
        match cand_by_label.get(&label) {
            Some(cand_run) => {
                let b = run_registry(run, &label)?;
                let c = run_registry(cand_run, &label)?;
                runs.push(diff_registries(&label, &b, &c, opts));
                matched.push(label);
            }
            None => baseline_only.push(label),
        }
    }
    let candidate_only = cand_labels
        .into_iter()
        .filter(|l| !matched.contains(l))
        .collect();

    Ok(ManifestDiff {
        options: opts.clone(),
        runs,
        baseline_only_runs: baseline_only,
        candidate_only_runs: candidate_only,
    })
}

/// Shortest round-trippable rendering of a value (counters print without
/// a decimal point).
fn fmt_num(v: f64) -> String {
    format!("{v}")
}

/// Signed percentage cell, `-` when the baseline was zero.
fn fmt_rel(rel: Option<f64>) -> String {
    match rel {
        Some(r) => format!("{r:+.2}%"),
        None => "-".to_string(),
    }
}

/// Human-readable table of the diff, one block per run, in the plain
/// fixed-width style of the paper tables (`tables.rs`).
pub fn render_table(diff: &ManifestDiff) -> String {
    let mut out = String::new();
    for label in &diff.baseline_only_runs {
        let _ = writeln!(out, "{label}: only in baseline");
    }
    for label in &diff.candidate_only_runs {
        let _ = writeln!(out, "{label}: only in candidate");
    }
    for run in &diff.runs {
        let _ = writeln!(
            out,
            "{}: {} drifted, {} added, {} removed ({} within threshold, {} unchanged)",
            run.label,
            run.drifted.len(),
            run.added.len(),
            run.removed.len(),
            run.within,
            run.unchanged,
        );
        if !run.drifted.is_empty() {
            let _ = writeln!(
                out,
                "  {:<40}{:>16}{:>16}{:>14}{:>11}",
                "metric", "baseline", "candidate", "delta", "rel"
            );
            for d in &run.drifted {
                let _ = writeln!(
                    out,
                    "  {:<40}{:>16}{:>16}{:>14}{:>11}",
                    d.key,
                    fmt_num(d.baseline),
                    fmt_num(d.candidate),
                    format!("{:+}", d.delta),
                    fmt_rel(d.rel_pct),
                );
            }
        }
        for key in &run.added {
            let _ = writeln!(out, "  {key:<40} added in candidate");
        }
        for key in &run.removed {
            let _ = writeln!(out, "  {key:<40} removed in candidate");
        }
    }
    out
}

/// Machine-readable form of the diff, rendered by the binary's `--json`
/// mode: stable key order, one object per run.
pub fn to_json(diff: &ManifestDiff) -> Json {
    let runs = diff
        .runs
        .iter()
        .map(|run| {
            let drifted = run
                .drifted
                .iter()
                .map(|d| {
                    Json::obj(vec![
                        ("key", d.key.as_str().into()),
                        ("baseline", Json::Num(d.baseline)),
                        ("candidate", Json::Num(d.candidate)),
                        ("delta", Json::Num(d.delta)),
                        ("rel_pct", d.rel_pct.map_or(Json::Null, Json::Num)),
                    ])
                })
                .collect();
            Json::obj(vec![
                ("run", run.label.as_str().into()),
                ("drifted", Json::Arr(drifted)),
                (
                    "added",
                    Json::Arr(run.added.iter().map(|k| k.as_str().into()).collect()),
                ),
                (
                    "removed",
                    Json::Arr(run.removed.iter().map(|k| k.as_str().into()).collect()),
                ),
                ("within_threshold", run.within.into()),
                ("unchanged", run.unchanged.into()),
            ])
        })
        .collect();
    Json::obj(vec![
        ("threshold_pct", Json::Num(diff.options.threshold_pct)),
        ("abs_epsilon", Json::Num(diff.options.abs_epsilon)),
        ("drift", diff.has_drift().into()),
        ("runs", Json::Arr(runs)),
        (
            "baseline_only_runs",
            Json::Arr(
                diff.baseline_only_runs
                    .iter()
                    .map(|l| l.as_str().into())
                    .collect(),
            ),
        ),
        (
            "candidate_only_runs",
            Json::Arr(
                diff.candidate_only_runs
                    .iter()
                    .map(|l| l.as_str().into())
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest(registry: Vec<(&str, Json)>) -> Json {
        Json::obj(vec![
            ("binary", "test".into()),
            (
                "runs",
                Json::arr(vec![Json::obj(vec![
                    ("case", "L1".into()),
                    ("gateway", "red".into()),
                    ("seed", 1u64.into()),
                    ("registry", Json::obj(registry)),
                ])]),
            ),
        ])
    }

    fn the_run(diff: &ManifestDiff) -> &RunDiff {
        assert_eq!(diff.runs.len(), 1);
        &diff.runs[0]
    }

    #[test]
    fn identical_manifests_have_no_drift() {
        let m = manifest(vec![("net.offered", 100u64.into()), ("u", Json::Num(0.5))]);
        let d = diff_manifests(&m, &m, &DiffOptions::default()).unwrap();
        assert!(!d.has_drift());
        assert_eq!(the_run(&d).unchanged, 2);
        assert!(render_table(&d).contains("0 drifted"));
    }

    #[test]
    fn added_and_removed_keys_are_drift() {
        let b = manifest(vec![("net.offered", 100u64.into()), ("old", 1u64.into())]);
        let c = manifest(vec![("net.offered", 100u64.into()), ("new", 1u64.into())]);
        let d = diff_manifests(&b, &c, &DiffOptions::default()).unwrap();
        assert!(d.has_drift());
        let run = the_run(&d);
        assert_eq!(run.added, vec!["new".to_string()]);
        assert_eq!(run.removed, vec!["old".to_string()]);
        assert!(run.drifted.is_empty());
        let table = render_table(&d);
        assert!(table.contains("new") && table.contains("added"), "{table}");
    }

    #[test]
    fn negative_and_non_finite_thresholds_are_rejected_by_name() {
        let m = manifest(vec![("net.offered", 100u64.into())]);
        for (opts, knob) in [
            (
                DiffOptions {
                    threshold_pct: -1.0,
                    abs_epsilon: 0.0,
                },
                "threshold_pct=-1",
            ),
            (
                DiffOptions {
                    threshold_pct: f64::NAN,
                    abs_epsilon: 0.0,
                },
                "threshold_pct=NaN",
            ),
            (
                DiffOptions {
                    threshold_pct: 1.0,
                    abs_epsilon: f64::INFINITY,
                },
                "abs_epsilon=inf",
            ),
            (
                DiffOptions {
                    threshold_pct: 1.0,
                    abs_epsilon: -0.5,
                },
                "abs_epsilon=-0.5",
            ),
        ] {
            let err = diff_manifests(&m, &m, &opts).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains(knob), "{msg:?} should name {knob:?}");
            assert!(matches!(err, DiffError::Options(_)), "{err:?}");
        }
        // Zero for either knob is a legal (maximally sensitive) setting.
        let opts = DiffOptions {
            threshold_pct: 0.0,
            abs_epsilon: 0.0,
        };
        assert!(diff_manifests(&m, &m, &opts).is_ok());
    }

    #[test]
    fn threshold_boundary_is_strict() {
        // 100 -> 101 is exactly 1%; at threshold 1.0 that is *not* drift,
        // anything beyond is.
        let b = manifest(vec![("a", 100u64.into()), ("g", Json::Num(200.0))]);
        let c = manifest(vec![("a", 101u64.into()), ("g", Json::Num(197.9))]);
        let opts = DiffOptions {
            threshold_pct: 1.0,
            abs_epsilon: 0.0,
        };
        let d = diff_manifests(&b, &c, &opts).unwrap();
        let run = the_run(&d);
        assert_eq!(run.drifted.len(), 1, "{:?}", run.drifted);
        assert_eq!(run.drifted[0].key, "g");
        assert_eq!(run.within, 1);
        // Tighten the threshold and the 1% change drifts too.
        let opts = DiffOptions {
            threshold_pct: 0.5,
            abs_epsilon: 0.0,
        };
        let d = diff_manifests(&b, &c, &opts).unwrap();
        assert_eq!(the_run(&d).drifted.len(), 2);
    }

    #[test]
    fn zero_baseline_counters_use_the_absolute_threshold() {
        let b = manifest(vec![("timeouts", 0u64.into()), ("drops", 0u64.into())]);
        let c = manifest(vec![("timeouts", 2u64.into()), ("drops", 1u64.into())]);
        // Default: any change from a zero baseline is drift.
        let d = diff_manifests(&b, &c, &DiffOptions::default()).unwrap();
        let run = the_run(&d);
        assert_eq!(run.drifted.len(), 2);
        assert!(run.drifted[0].rel_pct.is_none());
        // Zero-baseline movements outrank finite relative changes.
        assert_eq!(run.drifted[0].key, "timeouts", "larger |delta| first");
        // An absolute floor of 1 keeps the +1 but flags the +2.
        let opts = DiffOptions {
            threshold_pct: 1.0,
            abs_epsilon: 1.0,
        };
        let d = diff_manifests(&b, &c, &opts).unwrap();
        let run = the_run(&d);
        assert_eq!(run.drifted.len(), 1);
        assert_eq!(run.drifted[0].key, "timeouts");
        assert_eq!(run.within, 1);
    }

    #[test]
    fn drifted_metrics_sort_by_relative_magnitude() {
        let b = manifest(vec![
            ("small", 10u64.into()),
            ("big", 1000u64.into()),
            ("fresh", 0u64.into()),
        ]);
        let c = manifest(vec![
            ("small", 20u64.into()), // +100%
            ("big", 1500u64.into()), // +50%
            ("fresh", 3u64.into()),  // zero baseline: first
        ]);
        let d = diff_manifests(&b, &c, &DiffOptions::default()).unwrap();
        let keys: Vec<&str> = the_run(&d).drifted.iter().map(|m| m.key.as_str()).collect();
        assert_eq!(keys, vec!["fresh", "small", "big"]);
    }

    #[test]
    fn unmatched_runs_are_reported_not_fatal() {
        let b = manifest(vec![("a", 1u64.into())]);
        let mut c = manifest(vec![("a", 1u64.into())]);
        // Change the candidate's gateway so the runs no longer align.
        let Json::Obj(fields) = &mut c else { panic!() };
        let Json::Arr(runs) = &mut fields[1].1 else {
            panic!()
        };
        let Json::Obj(run) = &mut runs[0] else {
            panic!()
        };
        run[1].1 = "drop-tail".into();
        let d = diff_manifests(&b, &c, &DiffOptions::default()).unwrap();
        assert!(d.has_drift());
        assert_eq!(d.runs.len(), 0);
        assert_eq!(d.baseline_only_runs, vec!["case L1 / red / seed 1"]);
        assert_eq!(d.candidate_only_runs, vec!["case L1 / drop-tail / seed 1"]);
    }

    #[test]
    fn multi_session_and_repeated_runs_do_not_collide() {
        // `tables` runs case 3 once with one session (figure 7) and once
        // with two (§5.2), and figure 10's second case under figure 7
        // case 2's link label.
        let run = |case: &str, sessions: usize, v: u64| {
            Json::obj(vec![
                ("case", case.into()),
                ("gateway", "drop-tail".into()),
                ("seed", 1u64.into()),
                (
                    "rla_throughput_pps",
                    Json::arr(vec![Json::Num(50.0); sessions]),
                ),
                ("registry", Json::obj(vec![("net.offered", v.into())])),
            ])
        };
        let m = Json::obj(vec![(
            "runs",
            Json::arr(vec![
                run("L3i, i=1..9", 1, 100),
                run("L4i, i=1..27", 1, 200),
                run("L3i, i=1..9", 1, 300),
                run("L4i, i=1..27", 2, 400),
            ]),
        )]);
        let d = diff_manifests(&m, &m, &DiffOptions::default()).unwrap();
        assert!(!d.has_drift(), "{}", render_table(&d));
        let labels: Vec<&str> = d.runs.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(
            labels,
            [
                // One-session labels are the ones every golden carries.
                "case L3i, i=1..9 / drop-tail / seed 1",
                "case L4i, i=1..27 / drop-tail / seed 1",
                "case L3i, i=1..9 / drop-tail / seed 1 #2",
                "case L4i, i=1..27 / drop-tail / 2 sessions / seed 1",
            ]
        );
    }

    #[test]
    fn schema_errors_name_the_problem() {
        let no_runs = Json::obj(vec![("binary", "example".into())]);
        let good = manifest(vec![]);
        assert!(matches!(
            diff_manifests(&no_runs, &good, &DiffOptions::default()),
            Err(DiffError::Schema(msg)) if msg.contains("runs")
        ));
        let no_registry = Json::obj(vec![(
            "runs",
            Json::arr(vec![Json::obj(vec![("case", "L1".into())])]),
        )]);
        assert!(matches!(
            diff_manifests(&no_registry, &no_registry, &DiffOptions::default()),
            Err(DiffError::Schema(msg)) if msg.contains("registry")
        ));
    }

    #[test]
    fn json_output_carries_the_verdict() {
        let b = manifest(vec![("a", 100u64.into())]);
        let c = manifest(vec![("a", 250u64.into())]);
        let d = diff_manifests(&b, &c, &DiffOptions::default()).unwrap();
        let j = to_json(&d);
        assert_eq!(j.get("drift"), Some(&Json::Bool(true)));
        let runs = j.get("runs").and_then(Json::as_arr).unwrap();
        let drifted = runs[0].get("drifted").and_then(Json::as_arr).unwrap();
        assert_eq!(drifted.len(), 1);
        assert_eq!(drifted[0].get("key").and_then(Json::as_str), Some("a"));
        assert_eq!(
            drifted[0].get("rel_pct").and_then(Json::as_f64),
            Some(150.0)
        );
        // The rendered JSON parses back.
        assert!(Json::parse(&j.pretty()).is_ok());
    }
}
