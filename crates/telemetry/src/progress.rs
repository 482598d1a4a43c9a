//! Sweep progress reporting for parallel experiment runners.
//!
//! One [`SweepProgress`] serves a whole batch while the sweep's heartbeat
//! is on: the worker pool lends it by reference to its scoped worker
//! threads, and each worker calls [`job_finished_with`] as it completes a
//! scenario. The reporter prints one line per completion — job count,
//! per-job event rate, wall time, and an ETA extrapolated from overall
//! throughput so far — to **stderr**, keeping stdout clean for the result
//! tables the binaries emit.
//!
//! Besides the human-facing stderr line, its machine-readable *sink*
//! receives one JSON object per completed job — case, seed, events, event
//! rate, ETA — flushed per line so a live consumer (`rla_top`, `tail -f`)
//! sees each heartbeat as it happens. `experiments::runner::Pool` opens
//! `<results dir>/progress.jsonl` as the sink.
//!
//! The job counter is an atomic; the locks are around the single
//! `eprintln!` (line-buffered anyway) and the sink write, so contention is
//! negligible next to the seconds-long jobs it reports on.
//!
//! [`job_finished_with`]: SweepProgress::job_finished_with

use std::io::Write;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::json::escape_into;

/// Structured identity of a sweep job, carried into the JSONL heartbeat
/// sink alongside the display label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobMeta<'a> {
    /// The congestion case (or other sweep axis) label.
    pub case: &'a str,
    /// The run's RNG seed.
    pub seed: u64,
}

/// Thread-safe progress/heartbeat reporter for a fixed-size batch of
/// jobs. See the module docs.
#[derive(Debug)]
pub struct SweepProgress {
    total: usize,
    done: AtomicUsize,
    started: Instant,
    sink: Mutex<std::fs::File>,
}

impl SweepProgress {
    /// A reporter for `total` jobs whose JSON heartbeats are appended to
    /// `sink`, one line each, flushed per line.
    pub fn new(total: usize, sink: std::fs::File) -> Self {
        SweepProgress {
            total,
            done: AtomicUsize::new(0),
            started: Instant::now(),
            sink: Mutex::new(sink),
        }
    }

    /// Record a completed job: print the heartbeat line and append the
    /// JSON heartbeat. `events` is the job's trace-event count, `wall` its
    /// wall-clock duration.
    pub fn job_finished_with(&self, label: &str, meta: JobMeta<'_>, events: u64, wall: Duration) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        let beat = Beat {
            label,
            meta,
            events,
            wall,
            done,
            total: self.total,
            elapsed: self.started.elapsed(),
        };
        let pace = beat.pace();
        eprintln!("{}", beat.line(pace));
        let line = beat.json(pace);
        let mut f = self.sink.lock().expect("progress sink poisoned");
        // Ignore write errors: a dead sink must not kill a sweep hours in;
        // the stderr heartbeat still reports.
        let _ = f.write_all(line.as_bytes()).and_then(|()| f.flush());
    }
}

/// One completed job, `done` of `total`, `elapsed` into the batch:
/// rendered as the stderr line or the JSONL object (separated from the
/// printing so both are testable).
struct Beat<'a> {
    label: &'a str,
    meta: JobMeta<'a>,
    events: u64,
    wall: Duration,
    done: usize,
    total: usize,
    elapsed: Duration,
}

impl Beat<'_> {
    /// What both forms report: the job's events per wall second (0 for a
    /// zero-length job) and the seconds left in the batch from the mean
    /// job time so far (`None` once the last job is in).
    fn pace(&self) -> (f64, Option<f64>) {
        let wall = self.wall.as_secs_f64();
        let rate = if wall > 0.0 {
            self.events as f64 / wall
        } else {
            0.0
        };
        let left = self.total.saturating_sub(self.done);
        let per_job = self.elapsed.as_secs_f64() / self.done.max(1) as f64;
        (rate, (left > 0).then_some(per_job * left as f64))
    }

    /// The human-facing stderr line.
    fn line(&self, (rate, eta): (f64, Option<f64>)) -> String {
        let eta = eta.map_or_else(String::new, |s| format!(", eta {s:.0}s"));
        format!(
            "[sweep {}/{}] {}: {} events in {:.2}s ({:.2}M ev/s{eta})",
            self.done,
            self.total,
            self.label,
            self.events,
            self.wall.as_secs_f64(),
            rate / 1e6,
        )
    }

    /// The JSONL object: one line, trailing newline included.
    fn json(&self, (rate, eta): (f64, Option<f64>)) -> String {
        let quoted = |s: &str| {
            let mut out = String::new();
            escape_into(s, &mut out);
            out
        };
        let eta = eta.map_or_else(|| "null".to_string(), |s| format!("{s:.1}"));
        format!(
            "{{\"job\":{},\"total\":{},\"case\":{},\"seed\":{},\"label\":{},\"events\":{},\
             \"wall_secs\":{:.6},\"ev_per_s\":{rate:.1},\"eta_secs\":{eta}}}\n",
            self.done,
            self.total,
            quoted(self.meta.case),
            self.meta.seed,
            quoted(self.label),
            self.events,
            self.wall.as_secs_f64(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const META: JobMeta<'static> = JobMeta {
        case: "L21",
        seed: 3,
    };

    /// The stderr line and the JSONL object for job `done` of `total`,
    /// `events` over `wall_s` seconds, `elapsed_s` seconds into the batch.
    fn render(
        label: &str,
        events: u64,
        wall_s: u64,
        done: usize,
        total: usize,
        elapsed_s: u64,
    ) -> (String, String) {
        let beat = Beat {
            label,
            meta: META,
            events,
            wall: Duration::from_secs(wall_s),
            done,
            total,
            elapsed: Duration::from_secs(elapsed_s),
        };
        (beat.line(beat.pace()), beat.json(beat.pace()))
    }

    /// A reporter for `total` jobs writing to a fresh `progress.jsonl` in
    /// a directory of its own, and that file's path.
    fn reporter(name: &str, total: usize) -> (SweepProgress, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("rla_progress_{name}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("progress.jsonl");
        let file = std::fs::File::create(&path).unwrap();
        (SweepProgress::new(total, file), path)
    }

    #[test]
    fn line_includes_rate_and_eta() {
        let (line, _) = render("fig7/case-1", 2_000_000, 2, 1, 4, 2);
        assert!(line.contains("[sweep 1/4] fig7/case-1"), "{line}");
        assert!(line.contains("(1.00M ev/s"), "{line}");
        assert!(line.contains("eta 6s"), "{line}");
    }

    #[test]
    fn last_job_has_no_eta() {
        let (line, _) = render("x", 10, 1, 2, 2, 2);
        assert!(!line.contains("eta"), "{line}");
    }

    #[test]
    fn zero_wall_time_does_not_divide_by_zero() {
        let (line, json) = render("x", 10, 0, 1, 1, 0);
        assert!(line.contains("0.00M ev/s"), "{line}");
        assert!(json.contains("\"ev_per_s\":0.0"), "{json}");
    }

    #[test]
    fn json_heartbeat_carries_case_seed_rate_and_eta() {
        let (_, json) = render("L21 Red seed 3", 2_000_000, 2, 1, 4, 2);
        assert!(json.ends_with("}\n"), "one line per job: {json:?}");
        assert!(json.contains("\"job\":1,\"total\":4"), "{json}");
        assert!(json.contains("\"case\":\"L21\",\"seed\":3"), "{json}");
        assert!(json.contains("\"events\":2000000"), "{json}");
        assert!(json.contains("\"ev_per_s\":1000000.0"), "{json}");
        assert!(json.contains("\"eta_secs\":6.0"), "{json}");
        // Final job: eta is null, not a number.
        let (_, last) = render("x", 1, 1, 4, 4, 8);
        assert!(last.contains("\"eta_secs\":null"), "{last}");
    }

    #[test]
    fn json_heartbeat_escapes_labels() {
        let (_, json) = render("odd \"label\"\\x", 1, 1, 1, 1, 1);
        assert!(json.contains(r#""label":"odd \"label\"\\x""#), "{json}");
    }

    #[test]
    fn sink_receives_one_line_per_job() {
        let (p, path) = reporter("sink", 2);
        p.job_finished_with(
            "a Red seed 1",
            JobMeta { case: "a", seed: 1 },
            100,
            Duration::from_millis(10),
        );
        // Flushed per line: readable immediately, mid-sweep.
        let mid = std::fs::read_to_string(&path).unwrap();
        assert_eq!(mid.lines().count(), 1, "{mid:?}");
        p.job_finished_with(
            "b",
            JobMeta { case: "b", seed: 2 },
            200,
            Duration::from_millis(10),
        );
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2, "{text:?}");
        assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn concurrent_updates_are_consistent() {
        // The pool's shape: one reporter lent to scoped workers.
        let (p, path) = reporter("concurrent", 64);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..8 {
                        p.job_finished_with("j", META, 5, Duration::from_millis(1));
                    }
                });
            }
        });
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
        let mut jobs: Vec<usize> = text
            .lines()
            .map(|l| {
                let rest = l.strip_prefix("{\"job\":").expect("job first");
                rest[..rest.find(',').expect("field separator")]
                    .parse()
                    .expect("job number")
            })
            .collect();
        jobs.sort_unstable();
        assert_eq!(jobs, (1..=64).collect::<Vec<_>>(), "each job counted once");
    }
}
