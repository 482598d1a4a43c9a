//! Per-flow timeline recording: sampled time series of transport and
//! queue state.
//!
//! A [`TimelineRecorder`] names one series per flow (cwnd / ssthresh /
//! awnd / smoothed RTT) and per watched channel (queue length / RED
//! average). A recorder attached to a `ScenarioWorld` is sampled by its
//! `run_span`, which stops at each sampling instant and records one sample
//! per series; the recorder never touches the engine, so it cannot
//! perturb a trace digest.
//!
//! A timeline is a JSONL stream and nothing more: one self-describing
//! object per sample, written to the file [`TimelineRecorder::stream_to`]
//! opened. The recorder keeps no copy of what it wrote — only the series'
//! names and kinds and a sample count — so recording into a recorder with
//! no open stream panics rather than drop the sample. Each sampling
//! instant's lines go out in one `write` call when the first sample of a
//! later instant arrives (the last instant at
//! [`TimelineRecorder::finish_stream`]), so `tail -f` and the `rla_top`
//! dashboard see whole lines at most one sampling period behind the run.
//!
//! [`QueueSeriesTracer`] is the event-driven counterpart on the engine's
//! tracer slot: it keeps one channel's queue length at every *change*
//! (enqueue or transmission start) rather than per sampling instant — the
//! exact series the §3.1 buffer-period analysis segments.

use std::fmt::Write as _;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

use netsim::id::ChannelId;
use netsim::time::{SimDuration, SimTime};
use netsim::trace::{TraceEvent, TraceKinds, Tracer};

use crate::json::escape_into;

/// The timeline file format: JSONL is the only one. Inert — the frozen
/// `benchmark/` names it in `stream_to` calls and a `TelemetryOptions`
/// literal; ROADMAP item 9 deletes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimelineFormat {
    /// One JSON object per line (`.jsonl`).
    Jsonl,
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

/// One named time series. Its samples live only in the stream.
#[derive(Debug, Clone)]
pub struct TimelineSeries {
    /// Series name (`rla.0`, `tcp.3`, `chan.L1`).
    pub name: String,
    /// Kind tag (`rla`, `tcp-sack`, `reno`, `channel`).
    pub kind: &'static str,
}

/// Handle to a series inside a [`TimelineRecorder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesId(usize);

/// The open timeline file (see [`TimelineRecorder::stream_to`]).
#[derive(Debug)]
struct TimelineStream {
    /// Holds the lines of `instant`, flushed when a later one begins.
    out: BufWriter<std::fs::File>,
    /// The time stamp of the samples `out` holds.
    instant: SimTime,
    /// One rendered line, reused for every sample.
    line: String,
    path: PathBuf,
    /// First I/O error, sticky — recording must not panic mid-run on a
    /// full disk; the error surfaces from `finish_stream`.
    error: Option<io::Error>,
}

/// Streams sampled series; see the module docs for the driving contract.
#[derive(Debug)]
pub struct TimelineRecorder {
    /// Sampling period (simulated time between ticks).
    pub period: SimDuration,
    series: Vec<TimelineSeries>,
    samples: usize,
    stream: Option<TimelineStream>,
}

impl TimelineRecorder {
    /// A recorder sampling every `period` of simulated time. It records
    /// nothing until [`stream_to`](Self::stream_to) opens its file.
    pub fn new(period: SimDuration) -> Self {
        assert!(!period.is_zero(), "sampling period must be positive");
        TimelineRecorder {
            period,
            series: Vec::new(),
            samples: 0,
            stream: None,
        }
    }

    /// Open `<dir>/<stem>.timeline.jsonl` now (creating `dir`); from here
    /// on each sampling instant's lines are written once the next
    /// instant's first sample is recorded — so a live `tail -f` (or
    /// `rla_top`) follows the run a sampling period behind instead of
    /// waiting for its end. `_format` is inert: JSONL is the one format.
    /// Returns the path opened.
    pub fn stream_to(
        &mut self,
        dir: &Path,
        stem: &str,
        _format: TimelineFormat,
    ) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{stem}.timeline.jsonl"));
        self.stream = Some(TimelineStream {
            out: BufWriter::new(std::fs::File::create(&path)?),
            instant: SimTime::ZERO,
            line: String::new(),
            path: path.clone(),
            error: None,
        });
        Ok(path)
    }

    /// Finish the stream: write the last instant's lines and close the
    /// file, surfacing any I/O error recording swallowed. A recorder
    /// dropped without it still writes them, but cannot report an error.
    /// `Ok(None)` when no stream was open. Recording afterwards panics.
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

    /// Register a flow series.
    pub fn add_flow(&mut self, name: impl Into<String>, kind: &'static str) -> SeriesId {
        self.series.push(TimelineSeries {
            name: name.into(),
            kind,
        });
        SeriesId(self.series.len() - 1)
    }

    /// Register a channel series.
    pub fn add_channel(&mut self, name: impl Into<String>) -> SeriesId {
        self.add_flow(name, "channel")
    }

    /// Record one flow sample.
    pub fn record_flow(&mut self, id: SeriesId, now: SimTime, sample: FlowSample) {
        self.record(id, now, |out| {
            push_field(out, "cwnd", sample.cwnd);
            for (key, v) in [
                ("ssthresh", sample.ssthresh),
                ("awnd", sample.awnd),
                ("rtt", sample.rtt),
            ] {
                if let Some(v) = v {
                    push_field(out, key, v);
                }
            }
        });
    }

    /// Record one channel sample.
    pub fn record_channel(&mut self, id: SeriesId, now: SimTime, sample: ChannelSample) {
        self.record(id, now, |out| {
            let _ = write!(out, ",\"qlen\":{}", sample.qlen);
            if let Some(v) = sample.red_avg {
                push_field(out, "red_avg", v);
            }
        });
    }

    /// Write one sample's line — the common head, then `fields` — after
    /// writing out the previous instant's lines if `t` begins a new one.
    fn record(&mut self, id: SeriesId, t: SimTime, fields: impl FnOnce(&mut String)) {
        let s = &self.series[id.0];
        let Some(stream) = self.stream.as_mut() else {
            panic!(
                "timeline series {:?} sampled at {t} with no stream open: a recorder keeps \
                 no samples, so it must stream (`stream_to`) before it records",
                s.name
            );
        };
        self.samples += 1;
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
        let line = &mut stream.line;
        line.clear();
        line.push_str("{\"t\":");
        push_f64(line, t.as_secs_f64());
        line.push_str(",\"series\":");
        escape_into(&s.name, line);
        line.push_str(",\"kind\":");
        escape_into(s.kind, line);
        fields(line);
        line.push_str("}\n");
        if let Err(e) = written.and_then(|()| stream.out.write_all(line.as_bytes())) {
            stream.error = Some(e);
        }
    }

    /// The registered series.
    pub fn series(&self) -> &[TimelineSeries] {
        &self.series
    }

    /// Total samples recorded across all series.
    pub fn sample_count(&self) -> usize {
        self.samples
    }
}

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

/// Append a finite float the shortest way that parses back exactly;
/// non-finite values become `null`.
fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Append `,"key":v`.
fn push_field(out: &mut String, key: &str, v: f64) {
    let _ = write!(out, ",\"{key}\":");
    push_f64(out, v);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("rla_timeline_tests").join(name);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// What a recorder streaming into `name`'s temp dir writes while
    /// `record` drives it.
    fn streamed(name: &str, record: impl FnOnce(&mut TimelineRecorder)) -> String {
        let mut r = TimelineRecorder::new(SimDuration::from_millis(500));
        let path = r
            .stream_to(&temp_dir(name), "t", TimelineFormat::Jsonl)
            .unwrap();
        record(&mut r);
        r.finish_stream().unwrap();
        std::fs::read_to_string(path).unwrap()
    }

    fn record_three(r: &mut TimelineRecorder) {
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
    }

    #[test]
    fn jsonl_streams_one_object_per_sample_in_time_order() {
        let out = streamed("render", record_three);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(
            lines,
            [
                r#"{"t":1,"series":"rla.0","kind":"rla","cwnd":10.5,"awnd":9,"rtt":0.25}"#,
                r#"{"t":1,"series":"chan.L1","kind":"channel","qlen":7,"red_avg":3.25}"#,
                r#"{"t":2,"series":"rla.0","kind":"rla","cwnd":11.5,"ssthresh":16}"#,
            ],
            "absent fields are omitted"
        );
    }

    #[test]
    fn sample_count_sums_series() {
        let mut count = 0;
        streamed("count", |r| {
            record_three(r);
            count = r.sample_count();
        });
        assert_eq!(count, 3);
    }

    #[test]
    fn jsonl_escapes_series_names() {
        let out = streamed("escape", |r| {
            let c = r.add_channel("chan.\"x\"\\y");
            r.record_channel(c, SimTime::from_secs(1), ChannelSample::default());
        });
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

    #[test]
    #[should_panic(expected = "sampled at 1.000000s with no stream open")]
    fn a_sample_without_a_stream_panics_instead_of_vanishing() {
        let mut r = TimelineRecorder::new(SimDuration::from_millis(500));
        let c = r.add_channel("chan.L1");
        r.record_channel(c, SimTime::from_secs(1), ChannelSample::default());
    }

    #[test]
    fn streaming_is_readable_mid_run_an_instant_at_a_time() {
        let period = SimDuration::from_millis(500);
        let ids = |rec: &mut TimelineRecorder| {
            [
                rec.add_flow("rla.0", "rla"),
                rec.add_flow("tcp.0", "reno"),
                rec.add_channel("chan.L1"),
            ]
        };
        // Sample `i` of instant `k`.
        let record = |rec: &mut TimelineRecorder, ids: &[SeriesId; 3], k: u64, i: usize| {
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
        // The whole file, for the prefixes the live one must show.
        let whole = streamed("midrun_whole", |r| {
            let ids = ids(r);
            for k in 0..4 {
                for i in 0..ids.len() {
                    record(r, &ids, k, i);
                }
            }
        });
        let whole: Vec<&str> = whole.lines().collect();
        assert_eq!(whole.len(), 4 * 3);

        let mut r = TimelineRecorder::new(period);
        let ids = ids(&mut r);
        let path = r
            .stream_to(&temp_dir("midrun"), "live", TimelineFormat::Jsonl)
            .unwrap();
        let on_disk = || std::fs::read_to_string(&path).unwrap();
        let lines_before = |k: usize| whole[..k * ids.len()].iter().map(|l| format!("{l}\n"));

        // Nothing recorded yet: file exists and is empty.
        assert_eq!(on_disk(), "");

        // The defining property: after any sample of instant k, the file
        // holds exactly the lines of the instants before k — whole lines,
        // written once the next instant begins, never one by one.
        for k in 0..4 {
            for i in 0..ids.len() {
                record(&mut r, &ids, k, i);
                let want: String = lines_before(k as usize).collect();
                assert_eq!(on_disk(), want, "instant {k}, sample {i}");
            }
        }
        let finished = r.finish_stream().unwrap().expect("was streaming");
        assert_eq!(finished, path);
        // `finish_stream` adds the last instant.
        assert_eq!(on_disk(), lines_before(4).collect::<String>());
    }

    #[test]
    fn finish_stream_without_streaming_is_a_noop() {
        let mut r = TimelineRecorder::new(SimDuration::from_millis(500));
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
