//! Command line of the benchmark. See `README.md` for the full story.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! benchmark [run] [--quick] [--seed N] [--label L] [--seconds S]
//! benchmark selfcheck [--quick] [--seed N] [--runs R] [--seconds S]
//! benchmark compare <a.json> <b.json>
//! benchmark declare
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use benchmark::drive::{compact, drive, DriveArgs};
use benchmark::spec::{benchmark_json, RUN_SECONDS};
use benchmark::suite::{self, SuiteArgs};
use benchmark::workloads::{Scale, Workload};
use experiments::manifest::Json;

/// Flags after the subcommand, each at most once.
struct Flags {
    values: Vec<(String, String)>,
    quick: bool,
    positional: Vec<String>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut f = Flags {
            values: Vec::new(),
            quick: false,
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--quick" => f.quick = true,
                "--workload" | "--seed" | "--seconds" | "--trace" | "--label" | "--runs" => {
                    let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
                    f.values.push((a.clone(), v.clone()));
                }
                flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
                _ => f.positional.push(a.clone()),
            }
        }
        Ok(f)
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(k, _)| k == flag)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{flag} {v}: expected a number")),
        }
    }

    fn scale(&self) -> Scale {
        if self.quick {
            Scale::Quick
        } else {
            Scale::Full
        }
    }
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn real_main() -> Result<bool, String> {
    if let Some(var) = benchmark::host::rla_env_var(std::env::vars().map(|(k, _)| k)) {
        return Err(format!(
            "{var} is set: the experiment layer reads RLA_* knobs behind the harness's back; unset it"
        ));
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "selfcheck" | "compare" | "declare")) => (c, &args[1..]),
        _ => ("run", &args[..]),
    };
    let flags = Flags::parse(rest)?;
    let root = PathBuf::from(".");
    if matches!(command, "run" | "selfcheck") && !root.join("BENCHMARK.json").is_file() {
        return Err(
            "no BENCHMARK.json in the current directory: run from the repository root (benchmark/run.sh does)"
                .to_string(),
        );
    }

    if let Some(name) = flags.get("--workload") {
        let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?;
        let report = drive(&DriveArgs {
            workload,
            seed: flags.number("--seed", 1)?,
            seconds: flags.number("--seconds", RUN_SECONDS as f64)?,
            trace: flags.number::<u8>("--trace", 0)? != 0,
            scale: flags.scale(),
            root,
        })?;
        for &(name, value, unit) in &report.metrics {
            println!("{name:<42} {value:>16.6} {unit}");
        }
        println!("sim {}", compact(&report.sim));
        println!("detail {}", compact(&report.detail));
        println!("{}", report.result_line());
        // A wrong output is reported in the result line, not by the
        // exit code: the run itself completed.
        return Ok(true);
    }

    let suite_args = SuiteArgs {
        root,
        seed: flags.number("--seed", 1)?,
        seconds: flags.number("--seconds", RUN_SECONDS)?,
        scale: flags.scale(),
    };
    match command {
        "run" => suite::run(&suite_args, flags.get("--label").unwrap_or("latest")),
        "selfcheck" => suite::selfcheck(&suite_args, flags.number("--runs", 10)?),
        "compare" => match flags.positional.as_slice() {
            [a, b] => benchmark::compare::compare(&read_json(a)?, &read_json(b)?),
            _ => Err("usage: compare <a.json> <b.json>".to_string()),
        },
        _ => {
            print!("{}", benchmark_json().pretty());
            Ok(true)
        }
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
