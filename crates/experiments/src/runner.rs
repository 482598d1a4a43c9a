//! Execution helpers for the experiment binaries.
//!
//! Independent runs execute on a fixed-size worker [`Pool`] (the engine
//! itself is single-threaded for determinism). Because every scenario is
//! a pure function of its parameters and seed, the pool's scheduling
//! cannot affect results: [`Pool::run`] returns bit-identical
//! [`ScenarioResult`]s — including trace digests — for any job count,
//! in input order.
//!
//! What a pool reports comes from the caller's [`RunConfig`], never from
//! the environment. With `progress` on, each completed job prints a
//! heartbeat line to stderr (events processed, per-job event rate, ETA
//! for the batch) via [`telemetry::SweepProgress`] — stdout stays reserved
//! for the result tables — and appends a JSON heartbeat (case, seed, event
//! rate, ETA) to `<results_dir>/progress.jsonl`, flushed per line, which
//! is what `rla_top` follows during a sweep. With `pcap.enabled`, every
//! run streams a capture named by its position in the process's sweep
//! order (`NNN_<case>_<gateway>_seed<N>.pcap`), so runs that differ only in
//! what the name does not spell — the TCP flavour, an RLA setting, an
//! event schedule — never share a file.

use std::collections::VecDeque;
use std::fs::File;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::Instant;

use telemetry::{JobMeta, SweepProgress};

use crate::cli::{PcapOptions, RunConfig};
use crate::metrics::ScenarioResult;
use crate::scenario::TreeScenario;

/// The heartbeat file a pool with `progress` on writes in the results dir.
pub const PROGRESS_FILE: &str = "progress.jsonl";

/// The process's sweep runner: worker count, heartbeat and capture
/// settings, fixed once and shared by every batch the binary runs.
#[derive(Debug)]
pub struct Pool {
    jobs: usize,
    /// The open `progress.jsonl` while the heartbeat is on. Every batch
    /// writes through a clone of this one handle (one shared file offset),
    /// so a binary that sweeps more than once appends instead of
    /// truncating what `rla_top` is following.
    sink: Option<File>,
    pcap: PcapOptions,
    /// Scenarios taken by [`run`](Self::run) so far, over every batch:
    /// the next batch's first capture position.
    taken: AtomicUsize,
}

impl Pool {
    /// The pool `cfg` describes. With the heartbeat on, creates
    /// (truncating) `<results_dir>/progress.jsonl`, the directory included
    /// — build one pool per process. An unwritable path fails loudly with
    /// the knob named: a sweep silently dropping its heartbeat file would
    /// defeat the point of asking for one.
    pub fn new(cfg: &RunConfig) -> Self {
        let sink = cfg.progress.then(|| {
            let path = cfg.results_dir.join(PROGRESS_FILE);
            std::fs::create_dir_all(&cfg.results_dir)
                .and_then(|()| File::create(&path))
                .unwrap_or_else(|e| panic!("RLA_PROGRESS: cannot create {}: {e}", path.display()))
        });
        Pool {
            jobs: cfg.jobs,
            sink,
            pcap: cfg.pcap.clone(),
            taken: AtomicUsize::new(0),
        }
    }

    /// Run scenarios on the pool's workers and return the results in
    /// input order.
    ///
    /// Panics propagate *after* every other scenario has finished, with
    /// the index and label of each failed scenario, so one bad
    /// configuration in a sweep doesn't discard the rest of the batch's
    /// work.
    pub fn run(&self, scenarios: Vec<TreeScenario>) -> Vec<ScenarioResult> {
        let n = scenarios.len();
        if n == 0 {
            return Vec::new();
        }
        let jobs = self.jobs.max(1).min(n);
        // Batch offset + input index: a capture's name is the same at
        // every job count.
        let first = self.taken.fetch_add(n, Ordering::Relaxed);

        // Labels survive for panic reporting even when the run is consumed.
        let labels: Vec<String> = scenarios
            .iter()
            .map(|s| format!("{} {:?} seed {}", s.case.label(), s.gateway, s.seed))
            .collect();
        // Structured identity for the JSONL heartbeat sink.
        let metas: Vec<(String, u64)> =
            scenarios.iter().map(|s| (s.case.label(), s.seed)).collect();

        let queue: Mutex<VecDeque<(usize, TreeScenario)>> =
            Mutex::new(scenarios.into_iter().enumerate().collect());
        let slots: Vec<Mutex<Option<thread::Result<ScenarioResult>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        let progress = self.sink.as_ref().map(|sink| {
            let sink = sink.try_clone().unwrap_or_else(|e| {
                panic!("RLA_PROGRESS: cannot share the {PROGRESS_FILE} handle: {e}")
            });
            SweepProgress::new(n, sink)
        });

        thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(|| loop {
                    let next = queue.lock().expect("work queue poisoned").pop_front();
                    let Some((idx, scenario)) = next else { break };
                    // One panicking scenario must not tear down the pool:
                    // isolate it and keep draining the queue.
                    let started = Instant::now();
                    let outcome =
                        catch_unwind(AssertUnwindSafe(|| self.run_one(&scenario, first + idx)));
                    if let (Ok(r), Some(progress)) = (&outcome, &progress) {
                        let (case, seed) = &metas[idx];
                        progress.job_finished_with(
                            &labels[idx],
                            JobMeta { case, seed: *seed },
                            r.trace_events,
                            started.elapsed(),
                        );
                    }
                    *slots[idx].lock().expect("result slot poisoned") = Some(outcome);
                });
            }
        });

        let mut results = Vec::with_capacity(n);
        let mut failures = Vec::new();
        for (idx, slot) in slots.into_iter().enumerate() {
            match slot.into_inner().expect("result slot poisoned") {
                Some(Ok(result)) => results.push(result),
                Some(Err(payload)) => {
                    let msg = payload
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .or_else(|| payload.downcast_ref::<&str>().copied())
                        .unwrap_or("non-string panic payload");
                    failures.push(format!("scenario {idx} ({}): {msg}", labels[idx]));
                }
                None => failures.push(format!(
                    "scenario {idx} ({}): worker died before running it",
                    labels[idx]
                )),
            }
        }
        assert!(
            failures.is_empty(),
            "{} of {n} scenarios panicked:\n  {}",
            failures.len(),
            failures.join("\n  ")
        );
        results
    }

    /// One job: the run, streamed to the pool's `position`-th capture file
    /// when captures are on — tracers observe and never feed back, so the
    /// result (and every digest) is identical with capture on or off. A
    /// write error surfaces here, after the run, naming knob and file.
    fn run_one(&self, scenario: &TreeScenario, position: usize) -> ScenarioResult {
        if !self.pcap.enabled {
            return scenario.run();
        }
        // `Debug` names are filesystem-safe, unlike the paper-style labels.
        let stem = format!(
            "{position:03}_{:?}_{:?}_seed{}",
            scenario.case, scenario.gateway, scenario.seed
        );
        let mut world = scenario.build();
        let tracer = world.install_pcap(&self.pcap, &stem);
        let result = world.run(scenario);
        let mut tracer = tracer.borrow_mut();
        tracer
            .finish()
            .unwrap_or_else(|e| panic!("RLA_PCAP: cannot write {}: {e}", tracer.path().display()));
        result
    }
}

/// A quiet pool of `jobs` workers — no heartbeat, no capture. Used by
/// tests to prove results are independent of the pool size, and by the
/// benchmark, which times the pool itself.
pub fn run_parallel_with_jobs(scenarios: Vec<TreeScenario>, jobs: usize) -> Vec<ScenarioResult> {
    let quiet = Pool {
        jobs,
        sink: None,
        pcap: PcapOptions::default(),
        taken: AtomicUsize::new(0),
    };
    quiet.run(scenarios)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ScenarioSpec;
    use crate::tree::CongestionCase;
    use netsim::time::SimDuration;

    fn make() -> ScenarioSpec {
        ScenarioSpec::paper(CongestionCase::Case5OneLevel2)
            .with_duration(SimDuration::from_secs(60))
    }

    #[test]
    fn parallel_matches_sequential() {
        let seq = make().run();
        let par = run_parallel_with_jobs(vec![make().build(), make().build()], 2);
        // Determinism: same scenario -> identical numbers, in any thread.
        assert_eq!(seq.rla[0].cong_signals, par[0].rla[0].cong_signals);
        assert_eq!(par[0].rla[0].cong_signals, par[1].rla[0].cong_signals);
        assert_eq!(seq.rla[0].window_cuts, par[1].rla[0].window_cuts);
        // And the full event streams, not just headline counters.
        assert_eq!(seq.trace_digest, par[0].trace_digest);
        assert_eq!(par[0].trace_digest, par[1].trace_digest);
        assert_eq!(seq.trace_events, par[0].trace_events);
    }

    #[test]
    fn pool_preserves_input_order() {
        // Different seeds give different digests; order must survive a
        // pool smaller than the batch.
        let batch: Vec<_> = (1..=5).map(|s| make().with_seed(s).build()).collect();
        let expected: Vec<u64> = batch.iter().map(|s| s.seed).collect();
        let results = run_parallel_with_jobs(batch, 2);
        let got: Vec<u64> = results.iter().map(|r| r.seed).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn panicking_scenario_reports_and_spares_the_rest() {
        let dir = std::env::temp_dir().join(format!("rla_pool_panic_{}", std::process::id()));
        let cfg = RunConfig {
            jobs: 2,
            progress: true,
            results_dir: dir.clone(),
            ..RunConfig::from_vars(|_| None)
        };
        let run = |seed: u64| {
            ScenarioSpec::paper(CongestionCase::Case1RootLink)
                .with_duration(SimDuration::from_secs(3))
                .with_seed(seed)
                .build()
        };
        // warmup >= duration trips the scenario's own assertion.
        let mut bad = run(2);
        bad.warmup = bad.duration;
        let err = catch_unwind(AssertUnwindSafe(|| {
            Pool::new(&cfg).run(vec![run(1), bad, run(3)])
        }))
        .expect_err("the bad scenario must surface");
        let msg = err
            .downcast_ref::<String>()
            .expect("assert! panics with String");
        assert!(msg.contains("1 of 3 scenarios panicked"), "{msg}");
        assert!(msg.contains("scenario 1 (L1 DropTail seed 2)"), "{msg}");
        // The heartbeat file holds one whole JSON line per run that
        // finished, and none for the one that did not.
        let text = std::fs::read_to_string(dir.join(PROGRESS_FILE)).expect("heartbeat file");
        let mut seeds: Vec<u64> = text
            .lines()
            .map(|l| {
                let hb = crate::manifest::Json::parse(l).expect("one JSON object per line");
                hb.get("seed").and_then(|s| s.as_u64()).expect("seed")
            })
            .collect();
        seeds.sort_unstable();
        assert_eq!(seeds, [1, 3], "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn runs_that_share_a_stem_get_a_capture_each() {
        // Regression: captures were named `<case>_<gateway>_seed<N>`, so
        // runs sharing (case, seed) under different TCP flavours wrote one
        // file — two workers at once. Position-prefixed names keep them
        // apart.
        let dir = std::env::temp_dir().join(format!("rla_pool_pcap_{}", std::process::id()));
        let mut cfg = RunConfig::from_vars(|_| None);
        cfg.jobs = 2;
        cfg.pcap.enabled = true;
        cfg.pcap.dir = dir.clone();
        let flavour = |cc: &str| {
            ScenarioSpec::paper(CongestionCase::Case1RootLink)
                .with_duration(SimDuration::from_secs(3))
                .with_tcp_cc(tcp_sack::CcVariant::parse(cc).expect("registered"))
                .build()
        };
        let pool = Pool::new(&cfg);
        let mut results = pool.run(vec![flavour("sack"), flavour("reno")]);
        // A later batch from the same pool numbers on from the last.
        results.extend(pool.run(vec![flavour("sack")]));
        assert_eq!(std::fs::read_dir(&dir).expect("capture dir").count(), 3);
        let records: Vec<u64> = (0..3)
            .map(|i| {
                let path = dir.join(format!("{i:03}_Case1RootLink_DropTail_seed1.pcap"));
                let bytes = std::fs::read(path).expect("one capture per position");
                let reader = telemetry::PcapReader::new(&bytes).expect("global header");
                reader.records().expect("every record parses").len() as u64
            })
            .collect();
        let tx_starts: Vec<u64> = results
            .iter()
            .map(|r| match r.registry.get("engine.tx_starts") {
                Some(telemetry::MetricValue::Counter(v)) => v,
                other => panic!("engine.tx_starts missing: {other:?}"),
            })
            .collect();
        assert_eq!(records, tx_starts, "each capture holds its own run");
        assert_ne!(records[0], records[1], "the two flavours really differ");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_batch_appends_to_the_one_heartbeat_file() {
        // Regression: the sink used to be re-created (truncated) by each
        // batch, so a binary that sweeps twice kept only the last batch.
        let dir = std::env::temp_dir().join(format!("rla_pool_sink_{}", std::process::id()));
        // The pool creates a results dir that does not exist yet.
        let results_dir = dir.join("nested");
        let cfg = RunConfig {
            jobs: 2,
            progress: true,
            results_dir: results_dir.clone(),
            ..RunConfig::from_vars(|_| None)
        };
        let pool = Pool::new(&cfg);
        let batch = |seeds: std::ops::RangeInclusive<u64>| -> Vec<TreeScenario> {
            seeds
                .map(|s| {
                    ScenarioSpec::paper(CongestionCase::Case1RootLink)
                        .with_duration(SimDuration::from_secs(3))
                        .with_seed(s)
                        .build()
                })
                .collect()
        };
        assert_eq!(pool.run(batch(1..=2)).len(), 2);
        assert_eq!(pool.run(batch(3..=5)).len(), 3);
        let text =
            std::fs::read_to_string(results_dir.join("progress.jsonl")).expect("heartbeat file");
        let seeds: Vec<u64> = text
            .lines()
            .map(|l| {
                let hb = crate::manifest::Json::parse(l).expect("one JSON object per line");
                hb.get("seed").and_then(|s| s.as_u64()).expect("seed")
            })
            .collect();
        assert_eq!(seeds.len(), 2 + 3, "{text}");
        assert!(seeds[..2].iter().all(|s| (1..=2).contains(s)), "{text}");
        assert!(seeds[2..].iter().all(|s| (3..=5).contains(s)), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
