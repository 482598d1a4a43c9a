//! `rla_diff` — compare the `registry` sections of two run manifests.
//!
//! ```text
//! rla_diff <baseline.manifest.json> <candidate.manifest.json>
//!          [--threshold PCT] [--abs VALUE] [--json]
//! ```
//!
//! Runs are aligned by `(case, gateway, seed)` plus the legs that tell
//! apart runs sharing them (TCP flavour, session count, repeat number),
//! registries by metric key;
//! every metric whose relative change (absolute change, for zero-baseline
//! counters) exceeds the threshold is reported, largest movement first.
//! The threshold comes from `--threshold`, else 1%.
//!
//! Exit codes are CI-friendly: 0 = registries match within threshold,
//! 1 = drift (the report says what moved), 2 = usage or parse error.
//! `--json` swaps the human table for a machine-readable object on
//! stdout; the verdict and exit code are the same either way.

use std::process::ExitCode;

use experiments::cli::RunConfig;
use experiments::diff::{diff_manifests, parse_manifest, render_table, to_json, DiffOptions};

const USAGE: &str = "usage: rla_diff <baseline.manifest.json> <candidate.manifest.json> \
                     [--threshold PCT] [--abs VALUE] [--json]";

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("rla_diff: {msg}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

struct Args {
    baseline: String,
    candidate: String,
    threshold: Option<f64>,
    abs_epsilon: Option<f64>,
    json: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut paths = Vec::new();
    let mut threshold = None;
    let mut abs_epsilon = None;
    let mut json = false;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--threshold" | "--abs" => {
                let value = it
                    .next()
                    .ok_or_else(|| format!("{arg} needs a numeric value"))?;
                let parsed: f64 = value
                    .parse()
                    .map_err(|_| format!("{arg} {value:?}: expected a number"))?;
                if !parsed.is_finite() || parsed < 0.0 {
                    return Err(format!("{arg} {value:?}: expected a non-negative number"));
                }
                if arg == "--threshold" {
                    threshold = Some(parsed);
                } else {
                    abs_epsilon = Some(parsed);
                }
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
            path => paths.push(path.to_string()),
        }
    }
    let [baseline, candidate] = <[String; 2]>::try_from(paths)
        .map_err(|got| format!("expected exactly two manifest paths, got {}", got.len()))?;
    Ok(Args {
        baseline,
        candidate,
        threshold,
        abs_epsilon,
        json,
    })
}

fn run() -> Result<ExitCode, String> {
    // The tool reads no `RLA_*` knob, but a stale one (a retired
    // threshold variable, a typo) must fail loudly, not be ignored.
    let _ = RunConfig::from_env();
    let args = parse_args(&std::env::args().skip(1).collect::<Vec<_>>())?;
    let mut opts = DiffOptions::default();
    if let Some(pct) = args.threshold {
        opts.threshold_pct = pct;
    }
    if let Some(eps) = args.abs_epsilon {
        opts.abs_epsilon = eps;
    }

    let load = |path: &str| -> Result<experiments::Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        parse_manifest(&text).map_err(|e| format!("{path}: {e}"))
    };
    let baseline = load(&args.baseline)?;
    let candidate = load(&args.candidate)?;

    let diff = diff_manifests(&baseline, &candidate, &opts)
        .map_err(|e| format!("{} vs {}: {e}", args.baseline, args.candidate))?;

    if args.json {
        print!("{}", to_json(&diff).pretty());
    } else if diff.has_drift() {
        print!("{}", render_table(&diff));
    } else {
        let metrics: usize = diff.runs.iter().map(|r| r.within + r.unchanged).sum();
        println!(
            "registries match within {}% across {} run(s), {} metric(s)",
            opts.threshold_pct,
            diff.runs.len(),
            metrics
        );
    }
    Ok(ExitCode::from(u8::from(diff.has_drift())))
}
