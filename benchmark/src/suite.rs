//! The whole benchmark from one command: `run` measures every workload
//! end to end and then traced and writes a result file; `selfcheck`
//! repeats the end-to-end set over several seeds, twice, and checks the
//! run-to-run spread and the A/A drift against each metric's bound.
//!
//! Every measurement runs in a child process of its own (this same
//! executable in driver mode), one at a time, so `peak_rss_mb` belongs
//! to one workload and the host never has more than the workload's own
//! two threads busy.

use std::path::{Path, PathBuf};
use std::process::Command;

use experiments::manifest::Json;

use crate::host::{fingerprint, warn_if_loaded};
use crate::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::Summary;
use crate::workloads::Scale;

/// What `run` and `selfcheck` share.
#[derive(Debug, Clone)]
pub struct SuiteArgs {
    /// Root of the checkout.
    pub root: PathBuf,
    /// First seed.
    pub seed: u64,
    /// Seconds each child measures.
    pub seconds: u64,
    /// Full-size or test-size inputs.
    pub scale: Scale,
}

/// What one child run printed.
#[derive(Debug, Clone, PartialEq)]
pub struct ChildOutput {
    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub result: Json,
    /// The `detail` line.
    pub detail: Json,
    /// The `sim` line.
    pub sim: Json,
}

impl ChildOutput {
    /// Parse a child's standard output.
    pub fn parse(stdout: &str) -> Result<ChildOutput, String> {
        let tagged = |tag: &str| {
            stdout
                .lines()
                .rev()
                .find_map(|l| l.strip_prefix(tag))
                .ok_or_else(|| format!("no `{}` line", tag.trim()))
                .and_then(|j| Json::parse(j).map_err(|e| format!("`{}` line: {e}", tag.trim())))
        };
        let last = stdout
            .lines()
            .next_back()
            .ok_or("the child printed nothing")?;
        Ok(ChildOutput {
            result: Json::parse(last).map_err(|e| format!("result line: {e}"))?,
            detail: tagged("detail ")?,
            sim: tagged("sim ")?,
        })
    }

    /// The value of metric `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.result
            .get("metrics")?
            .get(name)?
            .get("value")?
            .as_f64()
    }

    fn count(&self, key: &str) -> u64 {
        self.result.get(key).and_then(Json::as_u64).unwrap_or(0)
    }

    /// Whether the child found every output correct.
    pub fn correct(&self) -> bool {
        self.result.get("correct") == Some(&Json::Bool(true))
    }
}

fn run_child(
    args: &SuiteArgs,
    workload: &str,
    seed: u64,
    trace: bool,
) -> Result<ChildOutput, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.current_dir(&args.root)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.scale == Scale::Quick {
        cmd.arg("--quick");
    }
    // stderr is inherited: warnings and failure notes reach the user.
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{workload} (seed {seed}, trace {}) exited with {}:\n{stdout}",
            u8::from(trace),
            out.status
        ));
    }
    ChildOutput::parse(&stdout).map_err(|e| format!("{workload}: {e}"))
}

fn print_metrics(out: &ChildOutput, names: impl Iterator<Item = (&'static str, &'static str)>) {
    for (name, unit) in names {
        match out.metric(name) {
            Some(v) => println!("  {name:<42} {v:>16.6} {unit}"),
            None => println!("  {name:<42} {:>16} {unit}", "missing"),
        }
    }
}

/// Measure every workload end to end, then traced; print every metric by
/// name with its unit and write `benchmark/results/<label>.json`.
/// Returns whether every output was correct.
pub fn run(args: &SuiteArgs, label: &str) -> Result<bool, String> {
    warn_if_loaded();
    let host = fingerprint();
    println!("host: {}", crate::drive::compact(&host));
    let mut all_correct = true;
    let mut end_to_end = Vec::new();
    for w in &WORKLOADS {
        println!("== {} (end to end, seed {})", w.name, args.seed);
        let out = run_child(args, w.name, args.seed, false)?;
        print_metrics(&out, END_TO_END.iter().map(|m| (m.name, m.unit)));
        println!(
            "  operations: {} attempted, {} failed; sim {}",
            out.count("attempted"),
            out.count("failed"),
            crate::drive::compact(&out.sim)
        );
        all_correct &= out.correct();
        end_to_end.push(out);
    }
    let mut entries = Vec::new();
    for (w, e2e) in WORKLOADS.iter().zip(end_to_end) {
        println!("== {} (traced, seed {})", w.name, args.seed);
        let traced = run_child(args, w.name, args.seed, true)?;
        print_metrics(&traced, PER_LAYER.iter().map(|m| (m.name, m.unit)));
        all_correct &= traced.correct();
        entries.push(Json::obj(vec![
            ("name", w.name.into()),
            ("correct", (e2e.correct() && traced.correct()).into()),
            ("attempted", e2e.count("attempted").into()),
            ("failed", e2e.count("failed").into()),
            (
                "end_to_end",
                e2e.result.get("metrics").cloned().unwrap_or(Json::Null),
            ),
            ("detail", e2e.detail),
            ("sim", e2e.sim),
            (
                "per_layer",
                traced.result.get("metrics").cloned().unwrap_or(Json::Null),
            ),
            ("traced_detail", traced.detail),
        ]));
    }
    let file = Json::obj(vec![
        ("label", label.into()),
        ("seed", args.seed.into()),
        ("quick", (args.scale == Scale::Quick).into()),
        ("run_seconds", args.seconds.into()),
        ("host", host),
        ("workloads", Json::Arr(entries)),
    ]);
    let path = write_result(&args.root, label, &file)?;
    println!("results: {}", path.display());
    Ok(all_correct)
}

fn write_result(root: &Path, label: &str, value: &Json) -> Result<PathBuf, String> {
    let dir = root.join("benchmark/results");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{label}.json"));
    std::fs::write(&path, value.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// One set of end-to-end runs: per workload, `runs` seeds.
fn selfcheck_set(args: &SuiteArgs, runs: u64, set: &str) -> Result<Vec<Vec<ChildOutput>>, String> {
    WORKLOADS
        .iter()
        .map(|w| {
            (0..runs)
                .map(|k| {
                    let seed = args.seed + k;
                    let out = run_child(args, w.name, seed, false)?;
                    println!(
                        "set {set} {} seed {seed}: wall_s {:.4} correct {}",
                        w.name,
                        out.metric("wall_s").unwrap_or(f64::NAN),
                        out.correct()
                    );
                    Ok(out)
                })
                .collect()
        })
        .collect()
}

/// The acceptance procedure of the benchmark itself: the end-to-end set
/// over `runs` seeds, twice on the same build. Each metric's spread
/// (quartile distance over median, `setup_s` excepted) and the drift of
/// the second set's median from the first's must stay within the
/// metric's bound, nothing may fail, and the sim blocks of the two sets
/// must be identical. Writes `benchmark/results/selfcheck.json` and
/// returns whether all of that held.
pub fn selfcheck(args: &SuiteArgs, runs: u64) -> Result<bool, String> {
    warn_if_loaded();
    let host = fingerprint();
    let a = selfcheck_set(args, runs, "A")?;
    let b = selfcheck_set(args, runs, "B")?;

    let mut ok = true;
    let mut entries = Vec::new();
    println!(
        "{:<24} {:<13} {:>6} {:>9} {:>9} {:>12} {:>12} {:>8}",
        "workload", "metric", "bound", "spread A", "spread B", "median A", "median B", "A/A"
    );
    for ((w, runs_a), runs_b) in WORKLOADS.iter().zip(&a).zip(&b) {
        let failed: u64 = runs_a.iter().chain(runs_b).map(|o| o.count("failed")).sum();
        let sims_equal = runs_a
            .iter()
            .map(|o| &o.sim)
            .eq(runs_b.iter().map(|o| &o.sim));
        if failed > 0 || !sims_equal {
            eprintln!(
                "benchmark: {}: {failed} failed operations, sim blocks identical: {sims_equal}",
                w.name
            );
            ok = false;
        }
        let mut metrics = Vec::new();
        for m in &END_TO_END {
            let values = |runs: &[ChildOutput]| -> Result<Summary, String> {
                runs.iter()
                    .map(|o| {
                        o.metric(m.name)
                            .ok_or_else(|| format!("{}: no {}", w.name, m.name))
                    })
                    .collect::<Result<Vec<f64>, String>>()
                    .map(|v| Summary::of(&v))
            };
            let (sa, sb) = (values(runs_a)?, values(runs_b)?);
            let drift = m.better.worsening(sa.median, sb.median) - 1.0;
            let spread_ok = m.name == "setup_s" || sa.spread().max(sb.spread()) <= m.bound;
            let within = spread_ok && drift <= m.bound;
            ok &= within;
            println!(
                "{:<24} {:<13} {:>5.1}% {:>8.2}% {:>8.2}% {:>12.5} {:>12.5} {:>+7.2}%{}",
                w.name,
                m.name,
                m.bound * 100.0,
                sa.spread() * 100.0,
                sb.spread() * 100.0,
                sa.median,
                sb.median,
                drift * 100.0,
                if within {
                    ""
                } else {
                    "  <-- outside the bound"
                }
            );
            metrics.push((
                m.name,
                Json::obj(vec![
                    ("unit", m.unit.into()),
                    ("bound", m.bound.into()),
                    ("median_a", sa.median.into()),
                    ("median_b", sb.median.into()),
                    ("spread_a", sa.spread().into()),
                    ("spread_b", sb.spread().into()),
                    ("aa_worsening", drift.into()),
                    ("within_bound", within.into()),
                ]),
            ));
        }
        entries.push(Json::obj(vec![
            ("name", w.name.into()),
            ("failed", failed.into()),
            ("sim_identical", sims_equal.into()),
            ("metrics", Json::obj(metrics)),
        ]));
    }
    let file = Json::obj(vec![
        ("first_seed", args.seed.into()),
        ("runs_per_set", runs.into()),
        ("quick", (args.scale == Scale::Quick).into()),
        ("run_seconds", args.seconds.into()),
        ("host", host),
        ("accepted", ok.into()),
        ("workloads", Json::Arr(entries)),
    ]);
    let path = write_result(&args.root, "selfcheck", &file)?;
    println!("results: {}", path.display());
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_output_is_read_from_the_tagged_and_the_last_line() {
        let stdout = "noise\nsim {\"seed\":1}\ndetail {\"wall_s\":{\"n\":3}}\n{\"correct\":true,\"attempted\":4,\"failed\":0,\"metrics\":{\"wall_s\":{\"value\":1.5,\"unit\":\"s\"}}}\n";
        let out = ChildOutput::parse(stdout).expect("parses");
        assert!(out.correct());
        assert_eq!(out.metric("wall_s"), Some(1.5));
        assert_eq!(out.metric("absent"), None);
        assert_eq!(out.count("attempted"), 4);
        assert_eq!(out.sim.get("seed").and_then(Json::as_u64), Some(1));
        assert!(ChildOutput::parse("sim {}\n{}").is_err(), "no detail line");
    }
}
