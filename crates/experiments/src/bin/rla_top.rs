//! `rla_top` — a live operator dashboard for running experiments.
//!
//! Tails `.timeline.jsonl` files (the `debug_probe` stream, or any
//! caller of `run_with_telemetry_streamed`) and the `progress.jsonl`
//! sweep heartbeat (a sweep under `RLA_PROGRESS=1` writes it), folding
//! every appended line into a [`telemetry::Dashboard`]: per-flow
//! cwnd/ssthresh/srtt and per-channel qlen/red_avg with sparklines over
//! the recent window, plus per-job sweep progress and an ETA. Rendering
//! is hand-rolled ANSI with a double-buffered diff redraw
//! ([`telemetry::DiffScreen`]) — no curses dependency, no flicker.
//!
//! ```text
//! # terminal 1: a streaming run
//! cargo run --release -p experiments --bin debug_probe -- 5 red
//! # terminal 2: watch it live
//! cargo run --release -p experiments --bin rla_top
//! ```
//!
//! Usage: `rla_top [--once] [--interval-ms N] [PATH...]`
//!
//! * `PATH...` — explicit JSONL files to follow. Default: every
//!   `*.timeline.jsonl` in the results dir (`RLA_RESULTS_DIR`), plus its
//!   `progress.jsonl` — the one knob a sweep and its watcher share.
//! * `--once` — headless snapshot: read whatever the files hold now,
//!   print one plain-text frame to stdout (no escape codes) and exit.
//!   This is what CI and the tests drive.
//! * `--interval-ms N` — polling period in live mode (default 250 ms).
//!
//! Files that do not exist yet are fine — the tailer reports them as
//! empty and picks them up when they appear, so `rla_top` can be
//! started before the run it watches.

use std::io::Write;
use std::path::PathBuf;
use std::time::Duration;

use experiments::cli::RunConfig;
use experiments::runner::PROGRESS_FILE;
use telemetry::json::Json;
use telemetry::{Dashboard, DiffScreen, JsonlTail};

fn usage() -> ! {
    eprintln!("usage: rla_top [--once] [--interval-ms N] [PATH...]");
    std::process::exit(2);
}

/// The default watch set: every timeline file in the results dir plus
/// its heartbeat file.
fn default_paths(cfg: &RunConfig) -> Vec<PathBuf> {
    let mut paths = Vec::new();
    if let Ok(entries) = std::fs::read_dir(&cfg.results_dir) {
        for entry in entries.flatten() {
            let p = entry.path();
            if p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.ends_with(".timeline.jsonl"))
            {
                paths.push(p);
            }
        }
    }
    paths.sort();
    paths.push(cfg.results_dir.join(PROGRESS_FILE));
    paths
}

fn main() {
    let cfg = RunConfig::from_env();
    let mut once = false;
    let mut interval = Duration::from_millis(250);
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--once" => once = true,
            "--interval-ms" => {
                let ms: u64 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                interval = Duration::from_millis(ms.max(10));
            }
            "--help" | "-h" => usage(),
            flag if flag.starts_with('-') => usage(),
            path => paths.push(PathBuf::from(path)),
        }
    }
    if paths.is_empty() {
        paths = default_paths(&cfg);
    }

    let mut tails: Vec<JsonlTail> = paths.iter().map(|p| JsonlTail::new(p.clone())).collect();
    let mut dash = Dashboard::new();

    if once {
        poll_into(&mut tails, &mut dash);
        print!("{}", dash.render());
        return;
    }

    let mut screen = DiffScreen::new();
    // Restore the cursor on ctrl-C: the painter hides it on first frame.
    // (No signal-handler dependency — a plain best-effort hook.)
    let restored = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    {
        let restored = restored.clone();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !restored.swap(true, std::sync::atomic::Ordering::SeqCst) {
                let _ = std::io::stdout().write_all(DiffScreen::restore().as_bytes());
            }
            prev(info);
        }));
    }
    loop {
        poll_into(&mut tails, &mut dash);
        let mut frame = dash.render();
        frame.push_str(&format!(
            "watching {} file(s) · {} · ctrl-C to quit\n",
            tails.len(),
            paths
                .first()
                .map(|p| p.display().to_string())
                .unwrap_or_else(|| "(no paths)".into()),
        ));
        let ansi = screen.paint(&frame);
        if !ansi.is_empty() {
            let mut out = std::io::stdout().lock();
            let _ = out.write_all(ansi.as_bytes());
            let _ = out.flush();
        }
        std::thread::sleep(interval);
    }
}

/// Drain every tail and fold the parsed records into the dashboard.
fn poll_into(tails: &mut [JsonlTail], dash: &mut Dashboard) {
    for tail in tails {
        let lines = match tail.poll() {
            Ok(lines) => lines,
            Err(_) => continue, // transient I/O: try again next tick
        };
        for line in lines {
            // Torn or foreign lines are skipped, not fatal.
            if let Ok(record) = Json::parse(&line) {
                dash.observe(&record);
            }
        }
    }
}
