//! # telemetry — the simulator's observability layer
//!
//! The paper's entire evaluation is read off instrumentation: cwnd
//! sawtooths (figures 4/5), queue-occupancy "buffer periods" (§3.1),
//! per-receiver congestion-signal counts (figure 8). This crate is the
//! one place that instrumentation lives, instead of each experiment
//! binary hand-rolling its own collection over raw
//! [`Tracer`](netsim::trace::Tracer) callbacks:
//!
//! * [`registry`] — a counter/gauge registry written through plain
//!   `&mut` (no interior mutability, no atomics on the hot path).
//!   Snapshots ([`Snapshot`]) are sorted, ready for a run manifest.
//! * [`timeline`] — a per-flow time-series recorder
//!   ([`TimelineRecorder`]): sampled cwnd/ssthresh/awnd, smoothed RTT,
//!   queue length and RED average at a configurable period, streamed to a
//!   JSONL file as it is sampled (the recorder keeps no copy).
//! * [`flight`] — a crash [`FlightRecorder`]: a fixed-depth ring of the
//!   last N channel events (enqueue, drop, transmission start) per
//!   channel, dumped when a run panics or a
//!   golden-digest gate trips, so a divergence is debuggable instead of
//!   opaque.
//! * [`progress`] — a thread-safe sweep heartbeat ([`SweepProgress`])
//!   for worker pools: per-job event rate and an ETA, written line-wise
//!   to stderr so tables on stdout stay clean, and as JSONL for machine
//!   consumers (a sweep's `progress.jsonl`).
//! * [`pcap`] — a classic-libpcap exporter ([`PcapTracer`]): every
//!   `TxStart` trace event becomes a capture record with synthetic
//!   Ethernet/IPv4/TCP-or-UDP framing carrying the real sequence and
//!   ack numbers, so a simulated run opens in Wireshark/tcpdump. A
//!   hand-rolled [`PcapReader`] validates exports in tests.
//! * [`json`] — the workspace's one JSON value, emitter and parser
//!   ([`json::Json`]): run manifests, event schedules and the JSONL
//!   streams above are all written and read back through it.
//! * [`tail`] + [`dash`] — the pieces of the `rla_top` live dashboard:
//!   an incremental JSONL file tailer, and a [`Dashboard`] model folding
//!   the parsed lines into sparkline frames painted by a diffing ANSI
//!   [`DiffScreen`].
//!
//! Observers attach in two ways. Packet events reach the engine's one
//! tracer slot (`Engine::set_tracer`: [`PcapTracer`], [`FlightRecorder`],
//! [`QueueSeriesTracer`]); periodic state reaches a [`TimelineRecorder`]
//! attached to the scenario world, whose one run loop samples it. There
//! is no common observer trait: each sink would implement only half of
//! one.
//!
//! Everything here is strictly *observer-side*: nothing in this crate
//! feeds back into simulation behaviour, so enabling or disabling
//! telemetry can never change a trace digest or a run manifest.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dash;
pub mod flight;
pub mod json;
pub mod pcap;
pub mod progress;
pub mod registry;
pub mod tail;
pub mod timeline;

pub use dash::{Dashboard, DiffScreen};
pub use flight::{FlightDumpGuard, FlightEvent, FlightRecorder};
pub use pcap::{PcapReader, PcapTracer, PcapWriter};
pub use progress::{JobMeta, SweepProgress};
pub use registry::{MetricValue, Registry, Snapshot};
pub use tail::JsonlTail;
pub use timeline::{
    ChannelSample, FlowSample, QueueSeriesTracer, TimelineFormat, TimelineRecorder, TimelineSeries,
};
