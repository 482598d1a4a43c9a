//! Per-flow timeline recording: sampled time series of transport and
//! queue state.
//!
//! A [`TimelineRecorder`] holds one series per flow (cwnd / ssthresh /
//! awnd / smoothed RTT) and per watched channel (queue length / RED
//! average). A recorder attached to a `ScenarioWorld` is sampled by its
//! `run_span`, which stops at each sampling instant and pushes one sample
//! per series; the recorder never touches the engine, so it cannot
//! perturb a trace digest.
//!
//! Export is line-oriented: JSONL (one self-describing object per
//! sample) or CSV (one wide row per sample, empty cells for fields a
//! series does not have). Both formats share the column set, so a plot
//! script can consume either.
//!
//! Two export modes:
//!
//! * buffered — [`TimelineRecorder::render`] renders everything held
//!   at the end of the run;
//! * streaming — [`TimelineRecorder::stream_to`] opens the file up
//!   front and writes each sampling instant's lines in one `write` call
//!   when the first sample of a later instant arrives (the last instant at
//!   [`TimelineRecorder::finish_stream`]), so `tail -f` and the `rla_top`
//!   dashboard see whole lines at most one sampling period behind the
//!   run. Samples recorded in chronological order stream byte-identical
//!   to the buffered render.
//!
//! [`QueueSeriesTracer`] is the event-driven counterpart on the engine's
//! tracer slot: it keeps one channel's queue length at every *change*
//! (enqueue or transmission start) rather than per sampling instant — the
//! exact series the §3.1 buffer-period analysis segments.

use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

use netsim::id::ChannelId;
use netsim::time::{SimDuration, SimTime};
use netsim::trace::{TraceEvent, TraceKinds, Tracer};

use crate::json::escape_into;

/// Export format for timeline files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimelineFormat {
    /// One JSON object per line (`.jsonl`).
    Jsonl,
    /// Comma-separated values with a header row (`.csv`).
    Csv,
}

impl TimelineFormat {
    /// The file extension for this format.
    pub fn extension(&self) -> &'static str {
        match self {
            TimelineFormat::Jsonl => "jsonl",
            TimelineFormat::Csv => "csv",
        }
    }
}

/// One sample of a transport flow's state.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FlowSample {
    /// Congestion window, packets.
    pub cwnd: f64,
    /// Slow-start threshold, packets (window-based TCP only).
    pub ssthresh: Option<f64>,
    /// Moving average of the window (the RLA's forced-cut horizon).
    pub awnd: Option<f64>,
    /// Smoothed RTT estimate, seconds.
    pub rtt: Option<f64>,
}

/// One sample of a channel buffer's state.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ChannelSample {
    /// Instantaneous queue length, packets.
    pub qlen: usize,
    /// RED's average queue estimate, if the gateway runs RED.
    pub red_avg: Option<f64>,
}

/// A sampled value: either a flow or a channel observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Sample {
    /// Transport-flow state.
    Flow(FlowSample),
    /// Channel-buffer state.
    Channel(ChannelSample),
}

/// One named time series.
#[derive(Debug, Clone)]
pub struct TimelineSeries {
    /// Series name (`rla.0`, `tcp.3`, `chan.L1`).
    pub name: String,
    /// Kind tag (`rla`, `tcp-sack`, `reno`, `channel`).
    pub kind: &'static str,
    /// `(time, sample)` pairs in sampling order.
    pub samples: Vec<(SimTime, Sample)>,
}

/// Handle to a series inside a [`TimelineRecorder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesId(usize);

/// Live-export state of a streaming recorder (see
/// [`TimelineRecorder::stream_to`]).
#[derive(Debug)]
struct TimelineStream {
    /// Holds the lines of `instant`, flushed when a later one begins.
    out: BufWriter<std::fs::File>,
    /// The time stamp of the samples `out` holds.
    instant: SimTime,
    /// One rendered line, reused for every sample.
    line: String,
    format: TimelineFormat,
    path: PathBuf,
    /// First I/O error, sticky — recording must not panic mid-run on a
    /// full disk; the error surfaces from `finish_stream`.
    error: Option<io::Error>,
}

/// Collects sampled series; see the module docs for the driving contract.
#[derive(Debug)]
pub struct TimelineRecorder {
    /// Sampling period (simulated time between ticks).
    pub period: SimDuration,
    series: Vec<TimelineSeries>,
    stream: Option<TimelineStream>,
}

impl TimelineRecorder {
    /// A recorder sampling every `period` of simulated time.
    pub fn new(period: SimDuration) -> Self {
        assert!(!period.is_zero(), "sampling period must be positive");
        TimelineRecorder {
            period,
            series: Vec::new(),
            stream: None,
        }
    }

    /// Switch the recorder to streaming export: open
    /// `<dir>/<stem>.timeline.<ext>` now (creating `dir`), write the CSV
    /// header if applicable, and from here on write each sampling
    /// instant's lines once the next instant's first sample is recorded
    /// — so a live `tail -f` (or `rla_top`) follows the run a sampling
    /// period behind instead of waiting for its end. Returns the path
    /// opened.
    pub fn stream_to(
        &mut self,
        dir: &Path,
        stem: &str,
        format: TimelineFormat,
    ) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{stem}.timeline.{}", format.extension()));
        let mut out = std::fs::File::create(&path)?;
        if format == TimelineFormat::Csv {
            out.write_all(CSV_HEADER.as_bytes())?;
            out.flush()?;
        }
        self.stream = Some(TimelineStream {
            out: BufWriter::new(out),
            instant: SimTime::ZERO,
            line: String::new(),
            format,
            path: path.clone(),
            error: None,
        });
        Ok(path)
    }

    /// Finish a streaming export: write the last instant's lines and
    /// close the file, surfacing any I/O error recording swallowed. A
    /// recorder dropped without it still writes them, but cannot report
    /// an error. `Ok(None)` when the recorder was not streaming. The
    /// in-memory series survive, so `render` still works afterwards.
    pub fn finish_stream(&mut self) -> io::Result<Option<PathBuf>> {
        let Some(mut s) = self.stream.take() else {
            return Ok(None);
        };
        if let Some(e) = s.error.take() {
            return Err(e);
        }
        s.out.flush()?;
        Ok(Some(s.path))
    }

    /// Buffer one rendered sample line in the stream, if active, after
    /// writing out the previous instant's lines if `t` begins a new one.
    fn stream_sample(&mut self, series_index: usize, t: SimTime, sample: &Sample) {
        let Some(stream) = self.stream.as_mut() else {
            return;
        };
        if stream.error.is_some() {
            return;
        }
        // The previous instant goes out in one `write` (one wider than the
        // buffer's 8 KiB in several), and the buffer only ever holds whole
        // lines, so a concurrent reader never sees a torn line tail.
        let written = if t == stream.instant {
            Ok(())
        } else {
            stream.instant = t;
            stream.out.flush()
        };
        let s = &self.series[series_index];
        stream.line.clear();
        match stream.format {
            TimelineFormat::Jsonl => render_jsonl(&mut stream.line, t, &s.name, s.kind, sample),
            TimelineFormat::Csv => render_csv(&mut stream.line, t, &s.name, s.kind, sample),
        }
        if let Err(e) = written.and_then(|()| stream.out.write_all(stream.line.as_bytes())) {
            stream.error = Some(e);
        }
    }

    /// Register a flow series.
    pub fn add_flow(&mut self, name: impl Into<String>, kind: &'static str) -> SeriesId {
        self.series.push(TimelineSeries {
            name: name.into(),
            kind,
            samples: Vec::new(),
        });
        SeriesId(self.series.len() - 1)
    }

    /// Register a channel series.
    pub fn add_channel(&mut self, name: impl Into<String>) -> SeriesId {
        self.add_flow(name, "channel")
    }

    /// Record one flow sample.
    pub fn record_flow(&mut self, id: SeriesId, now: SimTime, sample: FlowSample) {
        let sample = Sample::Flow(sample);
        self.series[id.0].samples.push((now, sample));
        self.stream_sample(id.0, now, &sample);
    }

    /// Record one channel sample.
    pub fn record_channel(&mut self, id: SeriesId, now: SimTime, sample: ChannelSample) {
        let sample = Sample::Channel(sample);
        self.series[id.0].samples.push((now, sample));
        self.stream_sample(id.0, now, &sample);
    }

    /// The registered series.
    pub fn series(&self) -> &[TimelineSeries] {
        &self.series
    }

    /// Total samples across all series.
    pub fn sample_count(&self) -> usize {
        self.series.iter().map(|s| s.samples.len()).sum()
    }

    /// Render every series into one string in `format`, interleaved by
    /// time (series order breaks ties), so the file reads chronologically.
    pub fn render(&self, format: TimelineFormat) -> String {
        let mut rows: Vec<(SimTime, usize, usize)> = Vec::with_capacity(self.sample_count());
        for (si, s) in self.series.iter().enumerate() {
            for (pi, (t, _)) in s.samples.iter().enumerate() {
                rows.push((*t, si, pi));
            }
        }
        rows.sort_by_key(|&(t, si, pi)| (t, si, pi));

        let mut out = String::new();
        if format == TimelineFormat::Csv {
            out.push_str(CSV_HEADER);
        }
        for (t, si, pi) in rows {
            let s = &self.series[si];
            let (_, sample) = &s.samples[pi];
            match format {
                TimelineFormat::Jsonl => render_jsonl(&mut out, t, &s.name, s.kind, sample),
                TimelineFormat::Csv => render_csv(&mut out, t, &s.name, s.kind, sample),
            }
        }
        out
    }
}

/// The CSV column header shared by buffered and streaming export.
const CSV_HEADER: &str = "t_secs,series,kind,cwnd,ssthresh,awnd,rtt_secs,qlen,red_avg\n";

/// A [`Tracer`] that keeps one watched channel's queue length at every
/// *change* — enqueue and transmission start, the two transitions that
/// alter occupancy — and the `(time, uid)` of every drop there.
#[derive(Debug)]
pub struct QueueSeriesTracer {
    channel: ChannelId,
    /// `(time, qlen)` after every occupancy change at the watched channel.
    pub samples: Vec<(SimTime, usize)>,
    /// `(time, uid)` of every drop at the watched channel.
    pub drops: Vec<(SimTime, u64)>,
}

impl QueueSeriesTracer {
    /// Watch `channel`.
    pub fn new(channel: ChannelId) -> Self {
        QueueSeriesTracer {
            channel,
            samples: Vec::new(),
            drops: Vec::new(),
        }
    }
}

impl Tracer for QueueSeriesTracer {
    fn wants(&self) -> TraceKinds {
        TraceKinds::ENQUEUE | TraceKinds::DROP | TraceKinds::TX_START
    }

    fn trace(&mut self, now: SimTime, event: &TraceEvent<'_>) {
        match event {
            TraceEvent::Enqueue { channel, qlen, .. }
            | TraceEvent::TxStart { channel, qlen, .. }
                if *channel == self.channel =>
            {
                self.samples.push((now, *qlen));
            }
            TraceEvent::Drop {
                channel, packet, ..
            } if *channel == self.channel => {
                self.drops.push((now, packet.uid));
            }
            _ => {}
        }
    }
}

/// Render a finite float the shortest way that parses back exactly;
/// non-finite values become `null` (JSONL) — callers handle CSV.
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// RFC-4180 CSV field: wrapped in double quotes with inner quotes doubled
/// when the value contains a comma, quote or line break; verbatim
/// otherwise. Series names come from topology labels, so they are not
/// guaranteed comma-free.
fn csv_field(s: &str) -> std::borrow::Cow<'_, str> {
    if !s.contains([',', '"', '\n', '\r']) {
        return std::borrow::Cow::Borrowed(s);
    }
    let mut quoted = String::with_capacity(s.len() + 2);
    quoted.push('"');
    for c in s.chars() {
        if c == '"' {
            quoted.push('"');
        }
        quoted.push(c);
    }
    quoted.push('"');
    std::borrow::Cow::Owned(quoted)
}

fn render_jsonl(out: &mut String, t: SimTime, name: &str, kind: &str, sample: &Sample) {
    use std::fmt::Write as _;
    let _ = write!(out, "{{\"t\":{},\"series\":", fmt_f64(t.as_secs_f64()));
    escape_into(name, out);
    out.push_str(",\"kind\":");
    escape_into(kind, out);
    match sample {
        Sample::Flow(f) => {
            let _ = write!(out, ",\"cwnd\":{}", fmt_f64(f.cwnd));
            if let Some(v) = f.ssthresh {
                let _ = write!(out, ",\"ssthresh\":{}", fmt_f64(v));
            }
            if let Some(v) = f.awnd {
                let _ = write!(out, ",\"awnd\":{}", fmt_f64(v));
            }
            if let Some(v) = f.rtt {
                let _ = write!(out, ",\"rtt\":{}", fmt_f64(v));
            }
        }
        Sample::Channel(c) => {
            let _ = write!(out, ",\"qlen\":{}", c.qlen);
            if let Some(v) = c.red_avg {
                let _ = write!(out, ",\"red_avg\":{}", fmt_f64(v));
            }
        }
    }
    out.push_str("}\n");
}

fn render_csv(out: &mut String, t: SimTime, name: &str, kind: &str, sample: &Sample) {
    use std::fmt::Write as _;
    let opt = |v: Option<f64>| v.map(fmt_f64).unwrap_or_default();
    match sample {
        Sample::Flow(f) => {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},,",
                fmt_f64(t.as_secs_f64()),
                csv_field(name),
                csv_field(kind),
                fmt_f64(f.cwnd),
                opt(f.ssthresh),
                opt(f.awnd),
                opt(f.rtt),
            );
        }
        Sample::Channel(c) => {
            let _ = writeln!(
                out,
                "{},{},{},,,,,{},{}",
                fmt_f64(t.as_secs_f64()),
                csv_field(name),
                csv_field(kind),
                c.qlen,
                opt(c.red_avg),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder_with_data() -> TimelineRecorder {
        let mut r = TimelineRecorder::new(SimDuration::from_millis(500));
        let f = r.add_flow("rla.0", "rla");
        let c = r.add_channel("chan.L1");
        r.record_flow(
            f,
            SimTime::from_secs(1),
            FlowSample {
                cwnd: 10.5,
                ssthresh: None,
                awnd: Some(9.0),
                rtt: Some(0.25),
            },
        );
        r.record_channel(
            c,
            SimTime::from_secs(1),
            ChannelSample {
                qlen: 7,
                red_avg: Some(3.25),
            },
        );
        r.record_flow(
            f,
            SimTime::from_secs(2),
            FlowSample {
                cwnd: 11.5,
                ssthresh: Some(16.0),
                awnd: None,
                rtt: None,
            },
        );
        r
    }

    #[test]
    fn jsonl_renders_one_object_per_sample_in_time_order() {
        let r = recorder_with_data();
        let out = r.render(TimelineFormat::Jsonl);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"series\":\"rla.0\""), "{}", lines[0]);
        assert!(lines[0].contains("\"cwnd\":10.5"), "{}", lines[0]);
        assert!(lines[0].contains("\"awnd\":9"), "{}", lines[0]);
        assert!(!lines[0].contains("ssthresh"), "absent fields omitted");
        assert!(lines[1].contains("\"qlen\":7"), "{}", lines[1]);
        assert!(lines[1].contains("\"red_avg\":3.25"), "{}", lines[1]);
        assert!(lines[2].contains("\"ssthresh\":16"), "{}", lines[2]);
    }

    #[test]
    fn csv_has_header_and_stable_column_count() {
        let r = recorder_with_data();
        let out = r.render(TimelineFormat::Csv);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4, "header + 3 rows");
        let cols = lines[0].split(',').count();
        for line in &lines {
            assert_eq!(line.split(',').count(), cols, "ragged row: {line}");
        }
        assert!(lines[2].ends_with("7,3.25"), "{}", lines[2]);
    }

    #[test]
    fn sample_count_sums_series() {
        assert_eq!(recorder_with_data().sample_count(), 3);
    }

    #[test]
    fn csv_quotes_series_names_per_rfc_4180() {
        let mut r = TimelineRecorder::new(SimDuration::from_millis(500));
        let c = r.add_channel("chan.\"left\",L1");
        r.record_channel(
            c,
            SimTime::from_secs(1),
            ChannelSample {
                qlen: 4,
                red_avg: None,
            },
        );
        let out = r.render(TimelineFormat::Csv);
        let row = out.lines().nth(1).expect("data row");
        // The name is quoted with inner quotes doubled, so the embedded
        // comma does not split the row.
        assert!(
            row.contains(r#""chan.""left"",L1""#),
            "unquoted series name: {row}"
        );
        // Outside quoted fields the row still has the 9-column shape.
        let unquoted_commas = {
            let mut depth_in_quotes = false;
            row.chars()
                .filter(|&ch| {
                    if ch == '"' {
                        depth_in_quotes = !depth_in_quotes;
                    }
                    ch == ',' && !depth_in_quotes
                })
                .count()
        };
        assert_eq!(unquoted_commas, 8, "{row}");
        // Plain names stay unquoted.
        assert_eq!(csv_field("chan.L1"), "chan.L1");
    }

    #[test]
    fn jsonl_escapes_series_names() {
        let mut r = TimelineRecorder::new(SimDuration::from_millis(500));
        let c = r.add_channel("chan.\"x\"\\y");
        r.record_channel(c, SimTime::from_secs(1), ChannelSample::default());
        let out = r.render(TimelineFormat::Jsonl);
        assert!(
            out.contains(r#""series":"chan.\"x\"\\y""#),
            "unescaped name: {out}"
        );
    }

    #[test]
    #[should_panic(expected = "period")]
    fn zero_period_is_rejected() {
        TimelineRecorder::new(SimDuration::ZERO);
    }

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("rla_timeline_tests").join(name);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn streaming_is_readable_mid_run_an_instant_at_a_time() {
        let dir = temp_dir("midrun");
        let period = SimDuration::from_millis(500);
        let mut r = TimelineRecorder::new(period);
        // An unstreamed twin renders what the file should hold.
        let mut twin = TimelineRecorder::new(period);
        let series = |rec: &mut TimelineRecorder| {
            [
                rec.add_flow("rla.0", "rla"),
                rec.add_flow("tcp.0", "reno"),
                rec.add_channel("chan.L1"),
            ]
        };
        let ids = series(&mut r);
        assert_eq!(series(&mut twin), ids);
        // Sample `i` of instant `k`, the same for both recorders.
        let record = |rec: &mut TimelineRecorder, k: u64, i: usize| {
            let t = SimTime::ZERO + period * k;
            if i == 2 {
                let sample = ChannelSample {
                    qlen: k as usize,
                    red_avg: None,
                };
                rec.record_channel(ids[i], t, sample);
            } else {
                let sample = FlowSample {
                    cwnd: k as f64 + i as f64 / 4.0,
                    ..Default::default()
                };
                rec.record_flow(ids[i], t, sample);
            }
        };
        let path = r.stream_to(&dir, "live", TimelineFormat::Jsonl).unwrap();
        let on_disk = || std::fs::read_to_string(&path).unwrap();

        // Nothing recorded yet: file exists and is empty.
        assert_eq!(on_disk(), "");

        // The defining property: after any sample of instant k, the file
        // holds exactly the lines of the instants before k — whole lines,
        // written once the next instant begins, never one by one.
        for k in 0..4 {
            let before_k = twin.render(TimelineFormat::Jsonl);
            for i in 0..ids.len() {
                record(&mut r, k, i);
                record(&mut twin, k, i);
                assert_eq!(on_disk(), before_k, "instant {k}, sample {i}");
            }
        }
        let finished = r.finish_stream().unwrap().expect("was streaming");
        assert_eq!(finished, path);
        // `finish_stream` adds the last instant: chronologically-recorded
        // samples stream byte-identical to the buffered render.
        assert_eq!(on_disk(), r.render(TimelineFormat::Jsonl));
        assert_eq!(on_disk().lines().count(), 4 * ids.len());
    }

    #[test]
    fn streaming_csv_writes_header_up_front() {
        let dir = temp_dir("csvhdr");
        let mut r = TimelineRecorder::new(SimDuration::from_millis(500));
        let c = r.add_channel("chan.L1");
        let path = r.stream_to(&dir, "live", TimelineFormat::Csv).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), CSV_HEADER);
        r.record_channel(
            c,
            SimTime::from_secs(1),
            ChannelSample {
                qlen: 3,
                red_avg: None,
            },
        );
        r.finish_stream().unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            r.render(TimelineFormat::Csv)
        );
    }

    #[test]
    fn finish_stream_without_streaming_is_a_noop() {
        let mut r = recorder_with_data();
        assert!(r.finish_stream().unwrap().is_none());
    }

    #[test]
    fn queue_series_tracer_records_changes_and_drops() {
        use netsim::id::AgentId;
        use netsim::packet::{Dest, Packet};
        use netsim::queue::DropReason;
        use netsim::wire::Segment;
        let p = Packet {
            uid: 9,
            src: AgentId(0),
            dest: Dest::Agent(AgentId(1)),
            size_bytes: 1000,
            segment: Segment::Raw,
            sent_at: SimTime::ZERO,
        };
        let mut t = QueueSeriesTracer::new(ChannelId(5));
        t.trace(
            SimTime::from_secs(1),
            &TraceEvent::Enqueue {
                channel: ChannelId(5),
                packet: &p,
                qlen: 3,
            },
        );
        // Other channels are ignored.
        t.trace(
            SimTime::from_secs(2),
            &TraceEvent::Enqueue {
                channel: ChannelId(6),
                packet: &p,
                qlen: 9,
            },
        );
        t.trace(
            SimTime::from_secs(3),
            &TraceEvent::TxStart {
                channel: ChannelId(5),
                packet: &p,
                qlen: 2,
            },
        );
        t.trace(
            SimTime::from_secs(4),
            &TraceEvent::Drop {
                channel: ChannelId(5),
                packet: &p,
                reason: DropReason::BufferOverflow,
                qlen: 20,
            },
        );
        assert_eq!(
            t.samples,
            vec![(SimTime::from_secs(1), 3), (SimTime::from_secs(3), 2)],
            "drops are not samples"
        );
        assert_eq!(t.drops, vec![(SimTime::from_secs(4), 9)]);
        // The slot wakes it for the three kinds acted on above, no others.
        assert_eq!(
            t.wants(),
            TraceKinds::ENQUEUE | TraceKinds::DROP | TraceKinds::TX_START
        );
    }
}
