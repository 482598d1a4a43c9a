//! Harness-level spans: one per call into a layer, recorded from the
//! benchmark's side of the public API.
//!
//! Spans are kept in memory and written out when the run ends. A
//! disabled recorder does nothing, so the end-to-end runs carry no
//! tracing; the traced run enables it and the difference between the two
//! is reported as `trace.overhead_pct`.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One finished (or still open) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What ran.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created; 0 while open.
    pub end_ns: u64,
    /// Index of the span this one ran inside.
    pub parent: Option<usize>,
    /// Repetition number the span belongs to (0 outside any rep).
    pub rep: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The in-memory span recorder.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    workload: String,
    rep: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder for `workload`; records only when `enabled`.
    pub fn new(workload: &str, enabled: bool) -> Spans {
        Spans {
            enabled,
            epoch: Instant::now(),
            workload: workload.to_string(),
            rep: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tag spans opened from here on with repetition `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    /// Run `f` inside a span called `name`, child of the innermost open
    /// span. The recorder is handed on so `f` can open children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// Every span recorded so far, in opening order.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// A span's self time: its duration minus what its direct children
    /// cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::duration_ns)
            .sum();
        self.spans[id].duration_ns().saturating_sub(children)
    }

    /// Sum of the self times of span `id` and everything beneath it.
    pub fn subtree_self_ns(&self, id: usize) -> u64 {
        let mut total = 0;
        let mut stack = vec![id];
        while let Some(s) = stack.pop() {
            total += self.self_ns(s);
            stack.extend(
                self.spans
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| c.parent == Some(s))
                    .map(|(i, _)| i),
            );
        }
        total
    }

    /// Total self time per span name, nanoseconds, largest first.
    pub fn self_time_by_name(&self) -> Vec<(&'static str, u64)> {
        let mut by_name: Vec<(&'static str, u64)> = Vec::new();
        for (id, s) in self.spans.iter().enumerate() {
            let ns = self.self_ns(id);
            match by_name.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, total)) => *total += ns,
                None => by_name.push((s.name, ns)),
            }
        }
        by_name.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        by_name
    }

    /// Write one JSON object per span to `path`, creating its directory.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"parent\":{parent},\"workload\":\"{}\",\"rep\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                self.self_ns(id),
                self.workload,
                s.rep
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(us: u64) {
        let t = Instant::now();
        while (t.elapsed().as_micros() as u64) < us {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn disabled_recorder_records_nothing_but_still_runs_the_work() {
        let mut s = Spans::new("w", false);
        let v = s.span("outer", |s| s.span("inner", |_| 7));
        assert_eq!(v, 7);
        assert!(s.all().is_empty());
    }

    #[test]
    fn children_nest_and_self_times_add_up_to_the_root() {
        let mut s = Spans::new("w", true);
        s.set_rep(3);
        s.span("rep", |s| {
            spin(200);
            s.span("run", |s| {
                spin(300);
                s.span("collect", |_| spin(100));
            });
            s.span("verify", |_| spin(100));
        });
        let all = s.all();
        assert_eq!(
            all.iter().map(|x| x.name).collect::<Vec<_>>(),
            ["rep", "run", "collect", "verify"]
        );
        assert_eq!(all[0].parent, None);
        assert_eq!(all[1].parent, Some(0));
        assert_eq!(all[2].parent, Some(1));
        assert_eq!(all[3].parent, Some(0));
        assert!(all.iter().all(|x| x.rep == 3));
        // Self times partition the root's duration exactly.
        assert_eq!(s.subtree_self_ns(0), all[0].duration_ns());
        assert!(s.self_ns(0) >= 200_000);
        assert!(s.self_ns(1) >= 300_000);
        let by_name = s.self_time_by_name();
        assert_eq!(by_name.len(), 4);
        assert_eq!(
            by_name.iter().map(|(_, ns)| ns).sum::<u64>(),
            all[0].duration_ns()
        );
    }

    #[test]
    fn span_file_has_one_parsable_line_per_span() {
        let mut s = Spans::new("fig7_case1_seq", true);
        s.span("rep", |s| s.span("run", |_| spin(50)));
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/span-test/x.trace.jsonl");
        s.write_jsonl(&path).expect("write");
        let text = std::fs::read_to_string(&path).expect("read");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let second = experiments::manifest::Json::parse(lines[1]).expect("valid JSON");
        assert_eq!(second.get("name").and_then(|j| j.as_str()), Some("run"));
        assert_eq!(second.get("parent").and_then(|j| j.as_u64()), Some(0));
        assert_eq!(
            second.get("workload").and_then(|j| j.as_str()),
            Some("fig7_case1_seq")
        );
        let _ = std::fs::remove_dir_all(path.parent().expect("dir"));
    }
}
