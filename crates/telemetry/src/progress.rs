//! Sweep progress reporting for parallel experiment runners.
//!
//! A [`SweepProgress`] is shared (via `Arc`) between the worker threads
//! of a sweep. Each worker calls [`job_finished`] as it completes a
//! scenario; the reporter prints one line per completion — job count,
//! per-job event rate, wall time, and an ETA extrapolated from overall
//! throughput so far — to **stderr**, keeping stdout clean for the
//! result tables the binaries emit.
//!
//! Besides the human-facing stderr line, an optional machine-readable
//! *sink* ([`with_sink`]) appends one JSON object per completed job —
//! case, seed, events, event rate, ETA — flushed per line so a live
//! consumer (`rla_top`, `tail -f`) sees each heartbeat as it happens.
//! `experiments::runner::Pool` wires the `RLA_PROGRESS_FILE` file here.
//!
//! All state is atomics; the locks are around the single `eprintln!`
//! (line-buffered anyway) and the sink write, so contention is
//! negligible next to the seconds-long jobs it reports on.
//!
//! [`job_finished`]: SweepProgress::job_finished
//! [`with_sink`]: SweepProgress::with_sink

use std::io::Write;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
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
    events: AtomicU64,
    started: Instant,
    enabled: bool,
    sink: Option<Mutex<std::fs::File>>,
}

impl SweepProgress {
    /// A reporter for `total` jobs. When `enabled` is false every call
    /// is a no-op (counters still advance, nothing is printed).
    pub fn new(total: usize, enabled: bool) -> Self {
        SweepProgress {
            total,
            done: AtomicUsize::new(0),
            events: AtomicU64::new(0),
            started: Instant::now(),
            enabled,
            sink: None,
        }
    }

    /// Attach a JSONL heartbeat sink: one JSON object per completed job,
    /// appended and flushed per line. Independent of `enabled` — the
    /// stderr heartbeat is for humans, the sink for machines.
    pub fn with_sink(mut self, sink: std::fs::File) -> Self {
        self.sink = Some(Mutex::new(sink));
        self
    }

    /// Jobs completed so far.
    pub fn completed(&self) -> usize {
        self.done.load(Ordering::Relaxed)
    }

    /// Trace events processed so far, across all completed jobs.
    pub fn events(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }

    /// Record a completed job: print the heartbeat line (when enabled)
    /// and append the JSON heartbeat (when a sink is attached). `events`
    /// is the job's trace-event count, `wall` its wall-clock duration.
    pub fn job_finished(&self, label: &str, events: u64, wall: Duration) {
        self.job_finished_with(label, None, events, wall);
    }

    /// [`job_finished`](Self::job_finished) with the job's structured
    /// identity for the JSONL sink.
    pub fn job_finished_with(
        &self,
        label: &str,
        meta: Option<JobMeta<'_>>,
        events: u64,
        wall: Duration,
    ) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        self.events.fetch_add(events, Ordering::Relaxed);
        let elapsed = self.started.elapsed();
        if self.enabled {
            eprintln!("{}", self.render_line(label, events, wall, done, elapsed));
        }
        if let Some(sink) = &self.sink {
            let line = self.render_json(label, meta, events, wall, done, elapsed);
            let mut f = sink.lock().expect("progress sink poisoned");
            // Ignore write errors: a dead sink must not kill a sweep
            // hours in; the stderr heartbeat still reports.
            let _ = f.write_all(line.as_bytes()).and_then(|()| f.flush());
        }
    }

    /// The heartbeat line for one completed job (separated from the
    /// printing so it is testable).
    fn render_line(
        &self,
        label: &str,
        events: u64,
        wall: Duration,
        done: usize,
        elapsed: Duration,
    ) -> String {
        let rate = if wall.as_secs_f64() > 0.0 {
            events as f64 / wall.as_secs_f64()
        } else {
            0.0
        };
        let eta = if done > 0 && done < self.total {
            let per_job = elapsed.as_secs_f64() / done as f64;
            format!(", eta {:.0}s", per_job * (self.total - done) as f64)
        } else {
            String::new()
        };
        format!(
            "[sweep {done}/{}] {label}: {events} events in {:.2}s ({:.2}M ev/s{eta})",
            self.total,
            wall.as_secs_f64(),
            rate / 1e6,
        )
    }

    /// The JSONL heartbeat object for one completed job (one line,
    /// trailing newline included; testable like `render_line`).
    fn render_json(
        &self,
        label: &str,
        meta: Option<JobMeta<'_>>,
        events: u64,
        wall: Duration,
        done: usize,
        elapsed: Duration,
    ) -> String {
        use std::fmt::Write as _;
        let rate = if wall.as_secs_f64() > 0.0 {
            events as f64 / wall.as_secs_f64()
        } else {
            0.0
        };
        let mut out = String::new();
        let _ = write!(out, "{{\"job\":{done},\"total\":{}", self.total);
        if let Some(m) = meta {
            out.push_str(",\"case\":");
            escape_into(m.case, &mut out);
            let _ = write!(out, ",\"seed\":{}", m.seed);
        }
        out.push_str(",\"label\":");
        escape_into(label, &mut out);
        let _ = write!(
            out,
            ",\"events\":{events},\"wall_secs\":{:.6},\"ev_per_s\":{:.1}",
            wall.as_secs_f64(),
            rate
        );
        if done < self.total {
            let per_job = elapsed.as_secs_f64() / done.max(1) as f64;
            let _ = write!(
                out,
                ",\"eta_secs\":{:.1}",
                per_job * (self.total - done) as f64
            );
        } else {
            out.push_str(",\"eta_secs\":null");
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_advance_even_when_disabled() {
        let p = SweepProgress::new(3, false);
        p.job_finished("a", 100, Duration::from_secs(1));
        p.job_finished("b", 200, Duration::from_secs(1));
        assert_eq!(p.completed(), 2);
        assert_eq!(p.events(), 300);
    }

    #[test]
    fn line_includes_rate_and_eta() {
        let p = SweepProgress::new(4, false);
        let line = p.render_line(
            "fig7/case-1",
            2_000_000,
            Duration::from_secs(2),
            1,
            Duration::from_secs(2),
        );
        assert!(line.contains("[sweep 1/4] fig7/case-1"), "{line}");
        assert!(line.contains("(1.00M ev/s"), "{line}");
        assert!(line.contains("eta 6s"), "{line}");
    }

    #[test]
    fn last_job_has_no_eta() {
        let p = SweepProgress::new(2, false);
        let line = p.render_line("x", 10, Duration::from_secs(1), 2, Duration::from_secs(2));
        assert!(!line.contains("eta"), "{line}");
    }

    #[test]
    fn zero_wall_time_does_not_divide_by_zero() {
        let p = SweepProgress::new(1, false);
        let line = p.render_line("x", 10, Duration::ZERO, 1, Duration::ZERO);
        assert!(line.contains("0.00M ev/s"), "{line}");
        let json = p.render_json("x", None, 10, Duration::ZERO, 1, Duration::ZERO);
        assert!(json.contains("\"ev_per_s\":0.0"), "{json}");
    }

    #[test]
    fn json_heartbeat_carries_case_seed_rate_and_eta() {
        let p = SweepProgress::new(4, false);
        let json = p.render_json(
            "L21 Red seed 3",
            Some(JobMeta {
                case: "L21",
                seed: 3,
            }),
            2_000_000,
            Duration::from_secs(2),
            1,
            Duration::from_secs(2),
        );
        assert!(json.ends_with("}\n"), "one line per job: {json:?}");
        assert!(json.contains("\"job\":1,\"total\":4"), "{json}");
        assert!(json.contains("\"case\":\"L21\",\"seed\":3"), "{json}");
        assert!(json.contains("\"events\":2000000"), "{json}");
        assert!(json.contains("\"ev_per_s\":1000000.0"), "{json}");
        assert!(json.contains("\"eta_secs\":6.0"), "{json}");
        // Final job: eta is null, not a number.
        let last = p.render_json(
            "x",
            None,
            1,
            Duration::from_secs(1),
            4,
            Duration::from_secs(8),
        );
        assert!(last.contains("\"eta_secs\":null"), "{last}");
        assert!(
            !last.contains("\"case\""),
            "meta omitted when unknown: {last}"
        );
    }

    #[test]
    fn json_heartbeat_escapes_labels() {
        let p = SweepProgress::new(1, false);
        let json = p.render_json(
            "odd \"label\"\\x",
            None,
            1,
            Duration::from_secs(1),
            1,
            Duration::from_secs(1),
        );
        assert!(json.contains(r#""label":"odd \"label\"\\x""#), "{json}");
    }

    #[test]
    fn sink_receives_one_line_per_job() {
        let dir = std::env::temp_dir().join("rla_progress_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("heartbeat.jsonl");
        let file = std::fs::File::create(&path).unwrap();
        let p = SweepProgress::new(2, false).with_sink(file);
        p.job_finished_with(
            "a Red seed 1",
            Some(JobMeta { case: "a", seed: 1 }),
            100,
            Duration::from_millis(10),
        );
        // Flushed per line: readable immediately, mid-sweep.
        let mid = std::fs::read_to_string(&path).unwrap();
        assert_eq!(mid.lines().count(), 1, "{mid:?}");
        p.job_finished("b", 200, Duration::from_millis(10));
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2, "{text:?}");
        assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    #[test]
    fn concurrent_updates_are_consistent() {
        use std::sync::Arc;
        let p = Arc::new(SweepProgress::new(64, false));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let p = Arc::clone(&p);
                std::thread::spawn(move || {
                    for _ in 0..8 {
                        p.job_finished("j", 5, Duration::from_millis(1));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(p.completed(), 64);
        assert_eq!(p.events(), 320);
    }
}
