//! The `rla_top` dashboard: model + hand-rolled ANSI rendering.
//!
//! Deliberately dependency-free (no ratatui/crossterm — the repo vendors
//! nothing it can write in a few hundred lines): a [`Dashboard`] folds
//! tailed JSONL records ([`Json`] objects) into per-series state,
//! [`Dashboard::render`] produces one plain-text frame (what `--once` prints and what tests
//! assert on), and [`DiffScreen`] turns successive frames into minimal
//! ANSI escape output — clear once, then repaint only the lines that
//! changed (double-buffered diff redraw), so a 4 Hz refresh over a slow
//! terminal stays cheap and flicker-free.
//!
//! Two record shapes are understood, distinguished by their keys:
//!
//! * timeline samples (`series` key) from `.timeline.jsonl` — per-flow
//!   cwnd/ssthresh/srtt and per-channel qlen/red_avg, with a sparkline
//!   over the recent window of the headline value;
//! * sweep heartbeats (`job` + `total` keys) from a sweep's
//!   `progress.jsonl` — per-job progress bar and ETA.

use std::collections::VecDeque;

use crate::json::Json;

/// Unicode eighth-blocks, the classic sparkline ramp.
const SPARK: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// How many recent samples each series keeps for its sparkline.
pub const HISTORY: usize = 48;

/// Render `values` as a sparkline scaled to the window's own `[min,max]`
/// range (a flat series renders as a flat low line).
pub fn sparkline(values: &[f64]) -> String {
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in &finite {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    finite
        .iter()
        .map(|&v| {
            let idx = if hi > lo {
                (((v - lo) / (hi - lo)) * 7.0).round() as usize
            } else {
                0
            };
            SPARK[idx.min(7)]
        })
        .collect()
}

/// Rolling state of one timeline series.
#[derive(Debug)]
struct SeriesRow {
    name: String,
    kind: String,
    /// Latest sample time, seconds.
    t: f64,
    /// Latest field values in arrival order (cwnd/ssthresh/rtt or
    /// qlen/red_avg).
    last: Vec<(&'static str, f64)>,
    /// Recent headline values (cwnd for flows, qlen for channels).
    history: VecDeque<f64>,
}

/// Sweep heartbeat state (latest job record wins).
#[derive(Debug, Default)]
struct JobsRow {
    done: f64,
    total: f64,
    label: String,
    ev_per_s: f64,
    eta_secs: Option<f64>,
}

/// Folds tailed records into renderable state. See the module docs.
#[derive(Debug, Default)]
pub struct Dashboard {
    flows: Vec<SeriesRow>,
    channels: Vec<SeriesRow>,
    jobs: Option<JobsRow>,
    records: u64,
}

impl Dashboard {
    /// An empty dashboard.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records folded in so far (timeline + heartbeat).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Fold one parsed JSONL record in; unknown shapes (and values that
    /// are not objects) are ignored.
    pub fn observe(&mut self, record: &Json) {
        if record.get("series").is_some() {
            self.observe_timeline(record);
            self.records += 1;
        } else if record.get("job").is_some() && record.get("total").is_some() {
            self.observe_progress(record);
            self.records += 1;
        }
    }

    fn observe_timeline(&mut self, record: &Json) {
        let Some(name) = record.get("series").and_then(Json::as_str) else {
            return;
        };
        let kind = record.get("kind").and_then(Json::as_str).unwrap_or("?");
        let t = record.get("t").and_then(Json::as_f64).unwrap_or(0.0);
        let is_channel = kind == "channel";
        let (rows, headline, fields): (_, _, &[&'static str]) = if is_channel {
            (&mut self.channels, "qlen", &["qlen", "red_avg"])
        } else {
            (
                &mut self.flows,
                "cwnd",
                &["cwnd", "ssthresh", "awnd", "rtt"],
            )
        };
        let row = match rows.iter_mut().position(|r| r.name == name) {
            Some(i) => &mut rows[i],
            None => {
                rows.push(SeriesRow {
                    name: name.to_string(),
                    kind: kind.to_string(),
                    t: 0.0,
                    last: Vec::new(),
                    history: VecDeque::with_capacity(HISTORY),
                });
                rows.last_mut().expect("just pushed")
            }
        };
        row.t = t;
        row.last.clear();
        for &f in fields {
            if let Some(v) = record.get(f).and_then(Json::as_f64) {
                row.last.push((f, v));
            }
        }
        if let Some(v) = record.get(headline).and_then(Json::as_f64) {
            if row.history.len() == HISTORY {
                row.history.pop_front();
            }
            row.history.push_back(v);
        }
    }

    fn observe_progress(&mut self, record: &Json) {
        let num = |k: &str| record.get(k).and_then(Json::as_f64);
        let jobs = self.jobs.get_or_insert_with(JobsRow::default);
        if let Some(v) = num("job") {
            // Out-of-order appends from racing workers: keep the max.
            jobs.done = jobs.done.max(v);
        }
        if let Some(v) = num("total") {
            jobs.total = v;
        }
        if let Some(l) = record.get("label").and_then(Json::as_str) {
            jobs.label = l.to_string();
        }
        if let Some(v) = num("ev_per_s") {
            jobs.ev_per_s = v;
        }
        jobs.eta_secs = num("eta_secs");
    }

    /// Render one plain-text frame (no escape codes): what `--once`
    /// prints. Always non-empty — with no data yet it says so, so a CI
    /// smoke check has something to assert on.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let t = self
            .flows
            .iter()
            .chain(&self.channels)
            .map(|r| r.t)
            .fold(0.0f64, f64::max);
        out.push_str(&format!(
            "rla_top — t={t:.1}s · {} flow(s), {} channel(s), {} record(s)\n",
            self.flows.len(),
            self.channels.len(),
            self.records,
        ));
        if self.flows.is_empty() && self.channels.is_empty() && self.jobs.is_none() {
            out.push_str("  (waiting for timeline/heartbeat data)\n");
            return out;
        }
        let name_w = self
            .flows
            .iter()
            .chain(&self.channels)
            .map(|r| r.name.len())
            .max()
            .unwrap_or(8)
            .max(8);
        if !self.flows.is_empty() {
            out.push_str("flows:\n");
            for r in &self.flows {
                out.push_str(&render_series(r, name_w));
            }
        }
        if !self.channels.is_empty() {
            out.push_str("channels:\n");
            for r in &self.channels {
                out.push_str(&render_series(r, name_w));
            }
        }
        if let Some(j) = &self.jobs {
            let eta = match j.eta_secs {
                Some(e) => format!(" · eta {e:.0}s"),
                None => String::new(),
            };
            out.push_str(&format!(
                "sweep: {} {:.0}/{:.0} · {:.2}M ev/s{} · last {}\n",
                progress_bar(j.done, j.total, 20),
                j.done,
                j.total,
                j.ev_per_s / 1e6,
                eta,
                j.label,
            ));
        }
        out
    }
}

/// One series line: name, kind, latest fields, sparkline.
fn render_series(r: &SeriesRow, name_w: usize) -> String {
    let mut line = format!("  {:<name_w$}  [{:<7}]", r.name, r.kind);
    for (k, v) in &r.last {
        let rendered = match *k {
            "rtt" => format!("{:.0}ms", v * 1e3),
            "qlen" => format!("{v:.0}"),
            _ => format!("{v:.2}"),
        };
        line.push_str(&format!(" {k} {rendered:>7}"));
    }
    let hist: Vec<f64> = r.history.iter().copied().collect();
    if !hist.is_empty() {
        line.push_str("  ");
        line.push_str(&sparkline(&hist));
    }
    line.push('\n');
    line
}

/// A fixed-width `[####----]` bar; safe for `total == 0`.
fn progress_bar(done: f64, total: f64, width: usize) -> String {
    let frac = if total > 0.0 {
        (done / total).clamp(0.0, 1.0)
    } else {
        0.0
    };
    let filled = (frac * width as f64).round() as usize;
    let mut s = String::with_capacity(width + 2);
    s.push('[');
    for i in 0..width {
        s.push(if i < filled { '#' } else { '-' });
    }
    s.push(']');
    s
}

/// Double-buffered terminal painter: turns successive plain frames into
/// minimal ANSI output. The first frame clears the screen and homes the
/// cursor; every later frame repaints only the lines that differ from
/// the previous one (and blanks lines the new frame no longer has).
#[derive(Debug, Default)]
pub struct DiffScreen {
    prev: Vec<String>,
}

impl DiffScreen {
    /// A fresh painter (next paint clears the screen).
    pub fn new() -> Self {
        Self::default()
    }

    /// The ANSI byte string that brings the terminal from the previous
    /// frame to `frame`. Empty when nothing changed.
    pub fn paint(&mut self, frame: &str) -> String {
        let lines: Vec<String> = frame.lines().map(str::to_string).collect();
        let mut out = String::new();
        if self.prev.is_empty() {
            out.push_str("\x1b[2J\x1b[H\x1b[?25l"); // clear, home, hide cursor
            for (i, l) in lines.iter().enumerate() {
                out.push_str(&format!("\x1b[{};1H{l}", i + 1));
            }
        } else {
            for (i, l) in lines.iter().enumerate() {
                if self.prev.get(i) != Some(l) {
                    // Move, erase the stale line, write the new one.
                    out.push_str(&format!("\x1b[{};1H\x1b[2K{l}", i + 1));
                }
            }
            for i in lines.len()..self.prev.len() {
                out.push_str(&format!("\x1b[{};1H\x1b[2K", i + 1));
            }
        }
        self.prev = lines;
        out
    }

    /// The escape string restoring the cursor on exit.
    pub fn restore() -> &'static str {
        "\x1b[?25h\n"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(line: &str) -> Json {
        Json::parse(line).expect("test record parses")
    }

    #[test]
    fn sparkline_scales_to_window() {
        assert_eq!(sparkline(&[0.0, 3.5, 7.0]), "▁▅█");
        assert_eq!(sparkline(&[5.0, 5.0]), "▁▁", "flat series stays low");
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[f64::NAN, 1.0]), "▁", "non-finite dropped");
    }

    #[test]
    fn empty_dashboard_renders_a_non_empty_frame() {
        let d = Dashboard::new();
        let frame = d.render();
        assert!(!frame.trim().is_empty());
        assert!(frame.contains("waiting"), "{frame}");
    }

    #[test]
    fn timeline_records_become_flow_and_channel_rows() {
        let mut d = Dashboard::new();
        d.observe(&rec(
            r#"{"t":10.5,"series":"rla.0","kind":"rla","cwnd":12.25,"awnd":11.0,"rtt":0.245}"#,
        ));
        d.observe(&rec(
            r#"{"t":10.5,"series":"chan.L21","kind":"channel","qlen":14,"red_avg":6.25}"#,
        ));
        d.observe(&rec(
            r#"{"t":11.0,"series":"rla.0","kind":"rla","cwnd":13.0,"awnd":11.5,"rtt":0.250}"#,
        ));
        let frame = d.render();
        assert!(frame.contains("t=11.0s"), "{frame}");
        assert!(frame.contains("flows:"), "{frame}");
        assert!(frame.contains("rla.0"), "{frame}");
        assert!(frame.contains("cwnd   13.00"), "{frame}");
        assert!(frame.contains("rtt   250ms"), "{frame}");
        assert!(frame.contains("channels:"), "{frame}");
        assert!(frame.contains("qlen      14"), "{frame}");
        assert!(
            frame.contains('▁') || frame.contains('█'),
            "sparkline: {frame}"
        );
        assert_eq!(d.records(), 3);
    }

    #[test]
    fn heartbeats_render_progress_and_eta() {
        let mut d = Dashboard::new();
        d.observe(&rec(
            r#"{"job":3,"total":20,"case":"L21","seed":1,"label":"L21 Red seed 1","events":100,"wall_secs":2.0,"ev_per_s":1950000.0,"eta_secs":42.5}"#,
        ));
        let frame = d.render();
        assert!(frame.contains("sweep: "), "{frame}");
        assert!(frame.contains("3/20"), "{frame}");
        assert!(frame.contains("1.95M ev/s"), "{frame}");
        assert!(
            frame.contains("eta 43s") || frame.contains("eta 42s"),
            "{frame}"
        );
        assert!(frame.contains("L21 Red seed 1"), "{frame}");
        // The final heartbeat has a null eta: line renders without one.
        d.observe(&rec(
            r#"{"job":20,"total":20,"label":"done","events":1,"wall_secs":1.0,"ev_per_s":1.0,"eta_secs":null}"#,
        ));
        assert!(!d.render().contains("eta"), "{}", d.render());
    }

    #[test]
    fn foreign_shapes_are_ignored() {
        let mut d = Dashboard::new();
        for line in [r#"[1,2]"#, r#"{"unrelated":1}"#, r#"{"job":1}"#, "7"] {
            d.observe(&rec(line));
        }
        assert_eq!(d.records(), 0);
    }

    #[test]
    fn history_is_bounded() {
        let mut d = Dashboard::new();
        for i in 0..(HISTORY + 10) {
            d.observe(&rec(&format!(
                r#"{{"t":{i},"series":"rla.0","kind":"rla","cwnd":{i}}}"#
            )));
        }
        let spark_len = d.flows[0].history.len();
        assert_eq!(spark_len, HISTORY);
    }

    #[test]
    fn diff_screen_repaints_only_changed_lines() {
        let mut s = DiffScreen::new();
        let first = s.paint("a\nb\nc\n");
        assert!(first.starts_with("\x1b[2J"), "first frame clears");
        assert!(first.contains("\x1b[2;1Hb"), "absolute addressing");
        // Same frame: nothing to do.
        assert_eq!(s.paint("a\nb\nc\n"), "");
        // One line changed: exactly one repaint, with erase.
        let third = s.paint("a\nB\nc\n");
        assert_eq!(third, "\x1b[2;1H\x1b[2KB");
        // Shrinking frame blanks the orphaned line.
        let fourth = s.paint("a\nB\n");
        assert_eq!(fourth, "\x1b[3;1H\x1b[2K");
    }
}
