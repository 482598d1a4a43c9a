//! Classic-libpcap export of the engine's packet-event stream.
//!
//! NS-2/NS-3 workflows lean on trace files inspected with tcptrace and
//! Wireshark; this module gives the reproduction the same ecosystem
//! leverage. A [`PcapTracer`] observes [`TraceEvent::TxStart`] — one
//! record per transmission start, so the file's packet count equals the
//! run digest's `tx_starts` counter — and a [`PcapWriter`] serializes
//! each simulated packet as a *synthetic* Ethernet/IPv4 frame:
//!
//! * TCP segments ([`Segment::TcpData`]/[`Segment::TcpAck`]) become IPv4
//!   protocol 6 with the real sequence/ack numbers in the TCP header and
//!   SACK blocks encoded as a genuine RFC 2018 TCP option, so tcptrace
//!   sees the actual scoreboard.
//! * Multicast and rate-based segments become IPv4 protocol 17 (UDP)
//!   with a small fixed payload carrying the kind tag and the
//!   sequence/ack numbers (see [`RLA_PAYLOAD_LEN`]).
//!
//! Addresses and ports are derived deterministically from the simulator
//! ids (see [`agent_ip`]/[`group_ip`]); sequence numbers stay in the
//! paper's *packet* units. Timestamps use the nanosecond-resolution pcap
//! magic (`0xa1b23c4d`) so a [`SimTime`] round-trips exactly.
//!
//! The hand-rolled [`PcapReader`] exists for tests and CI validation
//! only — it parses exactly what the writer emits (plus the classic
//! microsecond magic) and is not a general pcap implementation.
//!
//! The capture is a stream: the tracer slot delivers callbacks in
//! simulated-time order (the [`Tracer`] contract, enforced by
//! `Engine::run_until`), so each record is framed and written when its
//! event is dispatched. Memory is one [`WRITE_BUFFER_BYTES`] buffer
//! whatever the run length, and a run that dies mid-way leaves a capture
//! that ends — possibly mid-record — where the run did, which is why
//! [`PcapReader`] reports truncation as an error with its byte offset
//! instead of panicking.
//!
//! Like every tracer, the pcap path is observer-only: the engine's trace
//! digest is computed independently, so enabling export can never change
//! a golden digest.

use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

use netsim::id::{AgentId, GroupId};
use netsim::packet::{Dest, Packet};
use netsim::time::SimTime;
use netsim::trace::{TraceEvent, Tracer};
use netsim::wire::Segment;

/// Nanosecond-resolution libpcap magic (the classic layout with `ts_usec`
/// holding nanoseconds), written little-endian.
pub const MAGIC_NANOS: u32 = 0xa1b2_3c4d;
/// Microsecond-resolution libpcap magic; accepted by the reader.
pub const MAGIC_MICROS: u32 = 0xa1b2_c3d4;
/// LINKTYPE_ETHERNET.
pub const LINKTYPE_ETHERNET: u32 = 1;
/// Default snapshot length: every synthetic frame we emit fits (headers
/// plus the small RLA payload; the simulated bulk payload bytes are
/// *not* materialized — they exist only in `orig_len`).
pub const DEFAULT_SNAPLEN: u32 = 128;
/// Inert: nothing in the workspace reads it (the frozen `benchmark/`
/// names it in a struct literal; ROADMAP item 1(a) deletes it).
pub const DEFAULT_SPOOL_RECORDS: usize = 65_536;
/// Capacity of a capture file's write buffer — all the memory a capture
/// holds, whatever the run length (~80 records per `write` call).
pub const WRITE_BUFFER_BYTES: usize = 8 * 1024;
/// Bytes of synthetic payload carried by the UDP framing (kind tag,
/// flags, and the 64-bit sequence or cumulative-ack number).
pub const RLA_PAYLOAD_LEN: usize = 12;

const ETH_HEADER_LEN: usize = 14;
const IPV4_HEADER_LEN: usize = 20;
const UDP_HEADER_LEN: usize = 8;
const TCP_BASE_HEADER_LEN: usize = 20;

/// Writes one classic libpcap file. Whether records are buffered is up
/// to `W`; [`flush`] and [`finish`] report what a buffered `W`'s own drop
/// would swallow.
///
/// [`flush`]: PcapWriter::flush
/// [`finish`]: PcapWriter::finish
#[derive(Debug)]
pub struct PcapWriter<W: Write> {
    out: W,
    snaplen: u32,
    records: u64,
}

impl PcapWriter<BufWriter<std::fs::File>> {
    /// Create `path` (truncating) and write the global header, creating
    /// parent directories as needed.
    pub fn create(path: &Path, snaplen: u32) -> io::Result<Self> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = std::fs::File::create(path)?;
        PcapWriter::new(BufWriter::with_capacity(WRITE_BUFFER_BYTES, file), snaplen)
    }
}

impl<W: Write> PcapWriter<W> {
    /// Wrap `out` and write the 24-byte global header. `snaplen` is
    /// floored at 64 so a record always captures at least the synthetic
    /// link/network headers.
    pub fn new(mut out: W, snaplen: u32) -> io::Result<Self> {
        let snaplen = snaplen.max(64);
        out.write_all(&MAGIC_NANOS.to_le_bytes())?;
        out.write_all(&2u16.to_le_bytes())?; // version major
        out.write_all(&4u16.to_le_bytes())?; // version minor
        out.write_all(&0i32.to_le_bytes())?; // thiszone
        out.write_all(&0u32.to_le_bytes())?; // sigfigs
        out.write_all(&snaplen.to_le_bytes())?;
        out.write_all(&LINKTYPE_ETHERNET.to_le_bytes())?;
        Ok(PcapWriter {
            out,
            snaplen,
            records: 0,
        })
    }

    /// The configured snapshot length.
    pub fn snaplen(&self) -> u32 {
        self.snaplen
    }

    /// Records written so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Serialize one packet as a record stamped `now`.
    pub fn record(&mut self, now: SimTime, packet: &Packet) -> io::Result<()> {
        self.out
            .write_all(&record_bytes(self.snaplen, now, packet))?;
        self.records += 1;
        Ok(())
    }

    /// Push everything recorded so far through to the underlying writer.
    pub fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }

    /// Flush and return the underlying writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.flush()?;
        Ok(self.out)
    }
}

/// Build the on-disk bytes of one pcap record (16-byte record header +
/// truncated frame) without writing it — what [`PcapWriter::record`]
/// appends.
pub fn record_bytes(snaplen: u32, now: SimTime, packet: &Packet) -> Vec<u8> {
    let frame = build_frame(packet);
    let caplen = (frame.len() as u32).min(snaplen.max(64));
    // On the wire the packet occupies its full simulated size; the
    // frame we materialize holds only headers + the tiny synthetic
    // payload, so orig_len ≥ caplen always.
    let orig_len = (ETH_HEADER_LEN as u32 + packet.size_bytes).max(frame.len() as u32);
    let nanos = now.as_nanos();
    let mut b = Vec::with_capacity(16 + caplen as usize);
    b.extend_from_slice(&((nanos / 1_000_000_000) as u32).to_le_bytes());
    b.extend_from_slice(&((nanos % 1_000_000_000) as u32).to_le_bytes());
    b.extend_from_slice(&caplen.to_le_bytes());
    b.extend_from_slice(&orig_len.to_le_bytes());
    b.extend_from_slice(&frame[..caplen as usize]);
    b
}

/// Deterministic IPv4 address for a unicast endpoint: `10.0.h.l` from the
/// agent id (h/l = id's high/low byte). Collision-free up to 65536 agents,
/// far above any scenario here.
pub fn agent_ip(a: AgentId) -> [u8; 4] {
    let i = a.index() as u16;
    [10, 0, (i >> 8) as u8, (i & 0xff) as u8]
}

/// Deterministic IPv4 multicast group address: `239.0.h.l` from the group
/// id (administratively-scoped block).
pub fn group_ip(g: GroupId) -> [u8; 4] {
    let i = g.index() as u16;
    [239, 0, (i >> 8) as u8, (i & 0xff) as u8]
}

/// Locally-administered MAC for an agent: `02:52:4c:41:h:l` (`52 4c 41` =
/// "RLA").
fn agent_mac(a: AgentId) -> [u8; 6] {
    let i = a.index() as u16;
    [0x02, 0x52, 0x4c, 0x41, (i >> 8) as u8, (i & 0xff) as u8]
}

/// Standard IPv4-multicast MAC mapping `01:00:5e` + low 23 bits.
fn group_mac(g: GroupId) -> [u8; 6] {
    let ip = group_ip(g);
    [0x01, 0x00, 0x5e, ip[1] & 0x7f, ip[2], ip[3]]
}

/// Ports: data flows use `10000 + src` → `20000 + dst-entity`; feedback
/// reverses the derivation so a (src ip, src port, dst ip, dst port)
/// 4-tuple groups each flow's two directions together in Wireshark.
fn port_for(a: AgentId, base: u16) -> u16 {
    base.wrapping_add((a.index() % 10000) as u16)
}

fn group_port(g: GroupId) -> u16 {
    20000u16.wrapping_add((g.index() % 10000) as u16)
}

/// One's-complement checksum over `data` (padded with a zero byte if odd).
fn inet_checksum(seed: u32, data: &[u8]) -> u16 {
    let mut sum = seed;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

/// The L4 view of a segment: protocol, ports, header+payload bytes.
struct L4 {
    protocol: u8,
    bytes: Vec<u8>,
}

/// Build the synthetic TCP header (with a SACK option when the ack
/// carries blocks). Sequence/ack numbers are the simulator's *packet*
/// units, truncated to u32 as on a real wire.
fn tcp_l4(packet: &Packet) -> L4 {
    let (sport, dport, seq, ack, flags, sack) = match &packet.segment {
        Segment::TcpData(d) => {
            let dst = match packet.dest {
                Dest::Agent(a) => a,
                Dest::Group(_) => AgentId(0),
            };
            (
                port_for(packet.src, 10000),
                port_for(dst, 20000),
                d.seq as u32,
                0u32,
                0x18u8, // PSH|ACK
                None,
            )
        }
        Segment::TcpAck(a) => {
            let dst = match packet.dest {
                Dest::Agent(x) => x,
                Dest::Group(_) => AgentId(0),
            };
            (
                port_for(packet.src, 20000),
                port_for(dst, 10000),
                0u32,
                a.cum_ack as u32,
                0x10u8, // ACK
                Some(a.sack),
            )
        }
        _ => unreachable!("tcp_l4 is only called for TCP segments"),
    };

    // RFC 2018 SACK option: NOP NOP [kind=5, len, (start,end) pairs].
    let mut options: Vec<u8> = Vec::new();
    if let Some(list) = sack {
        let blocks = list.as_slice();
        if !blocks.is_empty() {
            options.push(1); // NOP
            options.push(1); // NOP
            options.push(5); // SACK
            options.push(2 + 8 * blocks.len() as u8);
            for b in blocks {
                options.extend_from_slice(&(b.start as u32).to_be_bytes());
                options.extend_from_slice(&(b.end as u32).to_be_bytes());
            }
        }
    }
    debug_assert!(
        options.len().is_multiple_of(4),
        "TCP options must be 32-bit padded"
    );

    let header_len = TCP_BASE_HEADER_LEN + options.len();
    let mut b = Vec::with_capacity(header_len);
    b.extend_from_slice(&sport.to_be_bytes());
    b.extend_from_slice(&dport.to_be_bytes());
    b.extend_from_slice(&seq.to_be_bytes());
    b.extend_from_slice(&ack.to_be_bytes());
    b.push(((header_len / 4) as u8) << 4); // data offset
    b.push(flags);
    b.extend_from_slice(&0xffffu16.to_be_bytes()); // window
    b.extend_from_slice(&[0, 0]); // checksum, patched below
    b.extend_from_slice(&[0, 0]); // urgent pointer
    b.extend_from_slice(&options);
    L4 {
        protocol: 6,
        bytes: b,
    }
}

/// UDP framing for the multicast/rate/raw segments: an 8-byte UDP header
/// plus the [`RLA_PAYLOAD_LEN`]-byte synthetic payload
/// `[kind, flags, reserved u16, seq_or_ack u64]` (big-endian).
fn udp_l4(packet: &Packet) -> L4 {
    let (sport, dport, kind, flags, number) = match &packet.segment {
        Segment::McastData(d) => {
            let g = match packet.dest {
                Dest::Group(g) => group_port(g),
                Dest::Agent(a) => port_for(a, 20000),
            };
            (
                port_for(packet.src, 10000),
                g,
                1u8,
                u8::from(d.retransmit),
                d.seq,
            )
        }
        Segment::McastAck(a) => (
            port_for(a.receiver, 20000),
            port_for(
                match packet.dest {
                    Dest::Agent(x) => x,
                    Dest::Group(_) => AgentId(0),
                },
                10000,
            ),
            2u8,
            u8::from(a.urgent_rexmit),
            a.cum_ack,
        ),
        Segment::RateData(d) => {
            let g = match packet.dest {
                Dest::Group(g) => group_port(g),
                Dest::Agent(a) => port_for(a, 20000),
            };
            (port_for(packet.src, 10000), g, 3u8, 0u8, d.seq)
        }
        Segment::RateFeedback(f) => (
            port_for(f.receiver, 20000),
            port_for(
                match packet.dest {
                    Dest::Agent(x) => x,
                    Dest::Group(_) => AgentId(0),
                },
                10000,
            ),
            4u8,
            0u8,
            f.highest_seq,
        ),
        Segment::Raw => (
            port_for(packet.src, 10000),
            match packet.dest {
                Dest::Agent(a) => port_for(a, 20000),
                Dest::Group(g) => group_port(g),
            },
            0u8,
            0u8,
            0u64,
        ),
        Segment::TcpData(_) | Segment::TcpAck(_) => {
            unreachable!("TCP segments take the TCP framing")
        }
    };

    let len = UDP_HEADER_LEN + RLA_PAYLOAD_LEN;
    let mut b = Vec::with_capacity(len);
    b.extend_from_slice(&sport.to_be_bytes());
    b.extend_from_slice(&dport.to_be_bytes());
    b.extend_from_slice(&(len as u16).to_be_bytes());
    b.extend_from_slice(&[0, 0]); // checksum 0 = unused (legal over IPv4)
    b.push(kind);
    b.push(flags);
    b.extend_from_slice(&[0, 0]); // reserved
    b.extend_from_slice(&number.to_be_bytes());
    L4 {
        protocol: 17,
        bytes: b,
    }
}

/// Serialize the full synthetic Ethernet frame for one packet.
fn build_frame(packet: &Packet) -> Vec<u8> {
    let l4 = match packet.segment {
        Segment::TcpData(_) | Segment::TcpAck(_) => tcp_l4(packet),
        _ => udp_l4(packet),
    };
    let (dst_mac, dst_ip) = match packet.dest {
        Dest::Agent(a) => (agent_mac(a), agent_ip(a)),
        Dest::Group(g) => (group_mac(g), group_ip(g)),
    };
    // Feedback segments also name their receiver internally, but the
    // packet's `src` field carries the same agent — one derivation rule.
    let src_ip = agent_ip(packet.src);

    let total_len = (IPV4_HEADER_LEN + l4.bytes.len()).max(packet.size_bytes as usize);
    let total_len = total_len.min(65535) as u16;
    let mut frame = Vec::with_capacity(ETH_HEADER_LEN + IPV4_HEADER_LEN + l4.bytes.len());
    // Ethernet II.
    frame.extend_from_slice(&dst_mac);
    frame.extend_from_slice(&agent_mac(packet.src));
    frame.extend_from_slice(&0x0800u16.to_be_bytes());
    // IPv4.
    let ip_start = frame.len();
    frame.push(0x45); // version 4, IHL 5
    frame.push(0); // DSCP/ECN
    frame.extend_from_slice(&total_len.to_be_bytes());
    frame.extend_from_slice(&((packet.uid & 0xffff) as u16).to_be_bytes());
    frame.extend_from_slice(&[0x40, 0]); // DF, no fragments
    frame.push(64); // TTL
    frame.push(l4.protocol);
    frame.extend_from_slice(&[0, 0]); // checksum, patched below
    frame.extend_from_slice(&src_ip);
    frame.extend_from_slice(&dst_ip);
    let csum = inet_checksum(0, &frame[ip_start..ip_start + IPV4_HEADER_LEN]);
    frame[ip_start + 10..ip_start + 12].copy_from_slice(&csum.to_be_bytes());
    // L4 (TCP checksum left zero: the synthetic payload is truncated, so
    // a pseudo-header checksum could not validate anyway).
    frame.extend_from_slice(&l4.bytes);
    frame
}

/// A [`Tracer`] that writes one pcap record per [`TraceEvent::TxStart`] —
/// the moment a packet starts serializing onto a link, so the record
/// count equals the run digest's `tx_starts` counter — as the callback
/// arrives: the slot's time order (module docs) makes the file
/// chronological with nothing held back but [`WRITE_BUFFER_BYTES`].
///
/// Tracing has no `Result` channel, so the first write error is latched:
/// nothing more is written and [`finish`] returns it, after the run,
/// where the caller can name the file. A tracer dropped without `finish`
/// (a panicking scenario) still flushes what it had traced — the buffer's
/// own drop does that — but cannot report an error.
///
/// [`finish`]: PcapTracer::finish
#[derive(Debug)]
pub struct PcapTracer {
    writer: PcapWriter<BufWriter<std::fs::File>>,
    path: PathBuf,
    /// The first write error; latched, see the type docs.
    error: Option<io::Error>,
}

impl PcapTracer {
    /// Create (truncating) the capture file at `path` and write its
    /// global header; an unwritable path fails here, before the run.
    pub fn create(path: &Path, snaplen: u32) -> io::Result<Self> {
        Ok(PcapTracer {
            writer: PcapWriter::create(path, snaplen)?,
            path: path.to_path_buf(),
            error: None,
        })
    }

    /// The capture file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records written so far.
    pub fn records(&self) -> u64 {
        self.writer.records()
    }

    /// Flush the capture and return its record count, or the write error
    /// that cut it short. Calling it again is harmless: it flushes
    /// whatever was traced since and reports the same outcome.
    pub fn finish(&mut self) -> io::Result<u64> {
        if self.error.is_none() {
            self.error = self.writer.flush().err();
        }
        match &self.error {
            // `io::Error` is not `Clone`; the latch keeps the original.
            Some(e) => Err(io::Error::new(e.kind(), e.to_string())),
            None => Ok(self.records()),
        }
    }
}

impl Tracer for PcapTracer {
    fn trace(&mut self, now: SimTime, event: &TraceEvent<'_>) {
        if let TraceEvent::TxStart { packet, .. } = event {
            if self.error.is_none() {
                self.error = self.writer.record(now, packet).err();
            }
        }
    }
}

// ---------------------------------------------------------------------
// Reader (tests/CI validation only).
// ---------------------------------------------------------------------

/// The parsed global header of a capture file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PcapHeader {
    /// Timestamp resolution: nanoseconds (`true`) or microseconds.
    pub nanos: bool,
    /// Snapshot length from the global header.
    pub snaplen: u32,
    /// Link type (expected [`LINKTYPE_ETHERNET`]).
    pub linktype: u32,
}

/// One parsed record: the pcap framing plus the fields of our synthetic
/// encapsulation that tests assert on.
#[derive(Debug, Clone, PartialEq)]
pub struct PcapRecord {
    /// Timestamp in nanoseconds since the start of the run.
    pub ts_nanos: u64,
    /// Captured bytes.
    pub caplen: u32,
    /// Original (simulated) frame length.
    pub orig_len: u32,
    /// Parsed synthetic headers; `None` when `caplen` truncated them.
    pub net: Option<NetInfo>,
}

/// The decoded synthetic Ethernet/IPv4/L4 headers of one record.
#[derive(Debug, Clone, PartialEq)]
pub struct NetInfo {
    /// IPv4 source address.
    pub src_ip: [u8; 4],
    /// IPv4 destination address.
    pub dst_ip: [u8; 4],
    /// IPv4 protocol (6 = TCP, 17 = UDP).
    pub protocol: u8,
    /// IPv4 total length field.
    pub ip_total_len: u16,
    /// TCP: the raw 32-bit sequence number; UDP: the low 32 bits of the
    /// synthetic payload's sequence/ack field.
    pub seq: u32,
    /// TCP: the raw 32-bit ack number; UDP: 0 for data kinds, the number
    /// for feedback kinds.
    pub ack: u32,
    /// UDP synthetic payload kind tag (0 raw, 1 mc-data, 2 mc-ack,
    /// 3 rate-data, 4 rate-fb); 255 for TCP records.
    pub kind: u8,
    /// Full 64-bit sequence/ack number (UDP payload); for TCP, the
    /// 32-bit field widened.
    pub number: u64,
}

/// Minimal reader for the writer's output. See the module docs: this is
/// a test fixture, not a general pcap parser.
#[derive(Debug)]
pub struct PcapReader<'a> {
    data: &'a [u8],
    pos: usize,
    /// The parsed global header.
    pub header: PcapHeader,
}

impl<'a> PcapReader<'a> {
    /// Parse the global header of `data`.
    pub fn new(data: &'a [u8]) -> Result<Self, String> {
        if data.len() < 24 {
            return Err(format!("truncated global header: {} bytes", data.len()));
        }
        let magic = u32::from_le_bytes(data[0..4].try_into().unwrap());
        let nanos = match magic {
            MAGIC_NANOS => true,
            MAGIC_MICROS => false,
            other => return Err(format!("unknown pcap magic {other:#010x}")),
        };
        let version = (
            u16::from_le_bytes(data[4..6].try_into().unwrap()),
            u16::from_le_bytes(data[6..8].try_into().unwrap()),
        );
        if version != (2, 4) {
            return Err(format!("unsupported pcap version {version:?}"));
        }
        let snaplen = u32::from_le_bytes(data[16..20].try_into().unwrap());
        let linktype = u32::from_le_bytes(data[20..24].try_into().unwrap());
        Ok(PcapReader {
            data,
            pos: 24,
            header: PcapHeader {
                nanos,
                snaplen,
                linktype,
            },
        })
    }

    /// Parse the next record; `Ok(None)` at a clean end of file.
    pub fn next_record(&mut self) -> Result<Option<PcapRecord>, String> {
        if self.pos == self.data.len() {
            return Ok(None);
        }
        if self.data.len() - self.pos < 16 {
            return Err(format!(
                "truncated record header at byte {} ({} bytes left)",
                self.pos,
                self.data.len() - self.pos
            ));
        }
        let u32_at = |p: usize| u32::from_le_bytes(self.data[p..p + 4].try_into().unwrap());
        let ts_sec = u32_at(self.pos) as u64;
        let ts_frac = u32_at(self.pos + 4) as u64;
        let caplen = u32_at(self.pos + 8);
        let orig_len = u32_at(self.pos + 12);
        if caplen > self.header.snaplen {
            return Err(format!(
                "record at byte {}: caplen {caplen} exceeds snaplen {}",
                self.pos, self.header.snaplen
            ));
        }
        if caplen > orig_len {
            return Err(format!(
                "record at byte {}: caplen {caplen} exceeds orig_len {orig_len}",
                self.pos
            ));
        }
        let body_start = self.pos + 16;
        let body_end = body_start + caplen as usize;
        if body_end > self.data.len() {
            return Err(format!(
                "record at byte {}: body of {caplen} bytes overruns the file",
                self.pos
            ));
        }
        let frame = &self.data[body_start..body_end];
        self.pos = body_end;
        let ts_nanos = ts_sec * 1_000_000_000
            + if self.header.nanos {
                ts_frac
            } else {
                ts_frac * 1000
            };
        Ok(Some(PcapRecord {
            ts_nanos,
            caplen,
            orig_len,
            net: parse_frame(frame),
        }))
    }

    /// Parse every remaining record.
    pub fn records(mut self) -> Result<Vec<PcapRecord>, String> {
        let mut out = Vec::new();
        while let Some(r) = self.next_record()? {
            out.push(r);
        }
        Ok(out)
    }
}

/// Decode the synthetic headers; `None` when the capture is too short
/// (snaplen truncation) or not our encapsulation.
fn parse_frame(frame: &[u8]) -> Option<NetInfo> {
    if frame.len() < ETH_HEADER_LEN + IPV4_HEADER_LEN {
        return None;
    }
    let ethertype = u16::from_be_bytes([frame[12], frame[13]]);
    if ethertype != 0x0800 {
        return None;
    }
    let ip = &frame[ETH_HEADER_LEN..];
    if ip[0] != 0x45 {
        return None;
    }
    let ip_total_len = u16::from_be_bytes([ip[2], ip[3]]);
    let protocol = ip[9];
    let src_ip = [ip[12], ip[13], ip[14], ip[15]];
    let dst_ip = [ip[16], ip[17], ip[18], ip[19]];
    let l4 = &ip[IPV4_HEADER_LEN..];
    let (seq, ack, kind, number) = match protocol {
        6 if l4.len() >= TCP_BASE_HEADER_LEN => {
            let seq = u32::from_be_bytes(l4[4..8].try_into().unwrap());
            let ack = u32::from_be_bytes(l4[8..12].try_into().unwrap());
            let flags = l4[13];
            // Data segments carry seq, pure acks carry ack; widen the
            // meaningful one.
            let number = if flags & 0x08 != 0 {
                u64::from(seq)
            } else {
                u64::from(ack)
            };
            (seq, ack, 255u8, number)
        }
        17 if l4.len() >= UDP_HEADER_LEN + RLA_PAYLOAD_LEN => {
            let p = &l4[UDP_HEADER_LEN..];
            let kind = p[0];
            let number = u64::from_be_bytes(p[4..12].try_into().unwrap());
            let (seq, ack) = match kind {
                2 | 4 => (0u32, number as u32),
                _ => (number as u32, 0u32),
            };
            (seq, ack, kind, number)
        }
        _ => return None,
    };
    Some(NetInfo {
        src_ip,
        dst_ip,
        protocol,
        ip_total_len,
        seq,
        ack,
        kind,
        number,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::wire::{McastAck, McastData, SackBlock, SackList, TcpAck, TcpData};

    fn tcp_data(seq: u64) -> Packet {
        Packet {
            uid: seq,
            src: AgentId(3),
            dest: Dest::Agent(AgentId(7)),
            size_bytes: 1000,
            segment: Segment::TcpData(TcpData {
                seq,
                retransmit: false,
                timestamp: SimTime::ZERO,
            }),
            sent_at: SimTime::ZERO,
        }
    }

    fn tcp_ack(cum_ack: u64, sack: SackList) -> Packet {
        Packet {
            uid: 100 + cum_ack,
            src: AgentId(7),
            dest: Dest::Agent(AgentId(3)),
            size_bytes: 40,
            segment: Segment::TcpAck(TcpAck {
                cum_ack,
                sack,
                echo_timestamp: SimTime::ZERO,
            }),
            sent_at: SimTime::ZERO,
        }
    }

    fn mc_data(seq: u64) -> Packet {
        Packet {
            uid: 200 + seq,
            src: AgentId(1),
            dest: Dest::Group(GroupId(0)),
            size_bytes: 1000,
            segment: Segment::McastData(McastData {
                seq,
                retransmit: false,
                timestamp: SimTime::ZERO,
            }),
            sent_at: SimTime::ZERO,
        }
    }

    fn write_all(packets: &[(u64, Packet)], snaplen: u32) -> Vec<u8> {
        let mut w = PcapWriter::new(Vec::new(), snaplen).unwrap();
        for (nanos, p) in packets {
            w.record(SimTime::from_nanos(*nanos), p).unwrap();
        }
        w.finish().unwrap()
    }

    fn tx_start(t: &mut PcapTracer, nanos: u64, p: &Packet) {
        t.trace(
            SimTime::from_nanos(nanos),
            &TraceEvent::TxStart {
                channel: netsim::id::ChannelId(0),
                packet: p,
                qlen: 0,
            },
        );
    }

    fn unit_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("rla_pcap_unit");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn global_header_layout() {
        let bytes = write_all(&[], DEFAULT_SNAPLEN);
        assert_eq!(bytes.len(), 24);
        assert_eq!(
            u32::from_le_bytes(bytes[0..4].try_into().unwrap()),
            MAGIC_NANOS
        );
        let r = PcapReader::new(&bytes).unwrap();
        assert!(r.header.nanos);
        assert_eq!(r.header.snaplen, DEFAULT_SNAPLEN);
        assert_eq!(r.header.linktype, LINKTYPE_ETHERNET);
    }

    #[test]
    fn tcp_record_round_trips_seq_ack_and_addresses() {
        let mut sack = SackList::new();
        sack.push(SackBlock { start: 9, end: 12 });
        let bytes = write_all(
            &[
                (1_500_000_007, tcp_data(5)),
                (1_600_000_000, tcp_ack(6, sack)),
            ],
            DEFAULT_SNAPLEN,
        );
        let recs = PcapReader::new(&bytes).unwrap().records().unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].ts_nanos, 1_500_000_007, "nanosecond timestamps");
        let d = recs[0].net.as_ref().unwrap();
        assert_eq!(d.protocol, 6);
        assert_eq!(d.seq, 5);
        assert_eq!(d.src_ip, [10, 0, 0, 3]);
        assert_eq!(d.dst_ip, [10, 0, 0, 7]);
        assert_eq!(
            d.ip_total_len, 1000,
            "total length reflects the simulated size"
        );
        let a = recs[1].net.as_ref().unwrap();
        assert_eq!(a.ack, 6);
        assert_eq!(a.src_ip, [10, 0, 0, 7], "ack flows receiver -> sender");
        // orig_len counts the simulated 1000 B + Ethernet, not the
        // materialized frame.
        assert_eq!(recs[0].orig_len, 1014);
        assert!(recs[0].caplen < recs[0].orig_len);
    }

    #[test]
    fn sack_blocks_become_a_tcp_option() {
        let mut sack = SackList::new();
        sack.push(SackBlock { start: 9, end: 12 });
        sack.push(SackBlock { start: 14, end: 15 });
        let bytes = write_all(&[(0, tcp_ack(6, sack))], DEFAULT_SNAPLEN);
        // Find the option bytes: Ethernet(14) + IP(20) + TCP base(20).
        let body = &bytes[24 + 16 + 34 + 20..];
        assert_eq!(&body[..4], &[1, 1, 5, 2 + 16], "NOP NOP SACK len");
        assert_eq!(u32::from_be_bytes(body[4..8].try_into().unwrap()), 9);
        assert_eq!(u32::from_be_bytes(body[8..12].try_into().unwrap()), 12);
        // Data offset advertises base + 20 option bytes = 10 words.
        let tcp = &bytes[24 + 16 + 34..];
        assert_eq!(tcp[12] >> 4, 10);
    }

    #[test]
    fn multicast_data_maps_to_group_udp() {
        let bytes = write_all(&[(7, mc_data(42))], DEFAULT_SNAPLEN);
        let recs = PcapReader::new(&bytes).unwrap().records().unwrap();
        let n = recs[0].net.as_ref().unwrap();
        assert_eq!(n.protocol, 17);
        assert_eq!(n.dst_ip, [239, 0, 0, 0]);
        assert_eq!(n.kind, 1);
        assert_eq!(n.number, 42);
        // Multicast MAC prefix 01:00:5e.
        let frame = &bytes[24 + 16..];
        assert_eq!(&frame[..3], &[0x01, 0x00, 0x5e]);
    }

    #[test]
    fn mcast_ack_carries_cum_ack_above_u32() {
        let p = Packet {
            uid: 1,
            src: AgentId(9),
            dest: Dest::Agent(AgentId(1)),
            size_bytes: 40,
            segment: Segment::McastAck(McastAck {
                receiver: AgentId(9),
                cum_ack: u64::from(u32::MAX) + 17,
                sack: SackList::new(),
                echo_timestamp: SimTime::ZERO,
                urgent_rexmit: true,
            }),
            sent_at: SimTime::ZERO,
        };
        let bytes = write_all(&[(0, p)], DEFAULT_SNAPLEN);
        let recs = PcapReader::new(&bytes).unwrap().records().unwrap();
        let n = recs[0].net.as_ref().unwrap();
        assert_eq!(n.kind, 2);
        assert_eq!(
            n.number,
            u64::from(u32::MAX) + 17,
            "full 64-bit ack survives"
        );
    }

    #[test]
    fn snaplen_truncates_but_orig_len_survives() {
        let bytes = write_all(&[(0, tcp_data(1))], 64);
        let recs = PcapReader::new(&bytes).unwrap().records().unwrap();
        assert_eq!(recs[0].caplen, 54, "frame is 54 B, under the 64 B floor");
        assert_eq!(recs[0].orig_len, 1014);
        // A pathological snaplen is floored at 64.
        let w = PcapWriter::new(Vec::new(), 1).unwrap();
        assert_eq!(w.snaplen(), 64);
    }

    #[test]
    fn ipv4_header_checksum_validates() {
        let bytes = write_all(&[(0, mc_data(3))], DEFAULT_SNAPLEN);
        let ip = &bytes[24 + 16 + ETH_HEADER_LEN..][..IPV4_HEADER_LEN];
        assert_eq!(inet_checksum(0, ip), 0, "checksum over the header is zero");
    }

    #[test]
    fn tracer_records_only_tx_starts() {
        use netsim::id::{ChannelId, NodeId};
        use netsim::queue::DropReason;
        let path = unit_path("tracer.pcap");
        let mut t = PcapTracer::create(&path, DEFAULT_SNAPLEN).unwrap();
        let p = tcp_data(0);
        t.trace(
            SimTime::from_secs(1),
            &TraceEvent::Enqueue {
                channel: ChannelId(0),
                packet: &p,
                qlen: 1,
            },
        );
        tx_start(&mut t, 1_000_000_000, &p);
        t.trace(
            SimTime::from_secs(2),
            &TraceEvent::Drop {
                channel: ChannelId(0),
                packet: &p,
                reason: DropReason::BufferOverflow,
                qlen: 0,
            },
        );
        t.trace(
            SimTime::from_secs(2),
            &TraceEvent::Arrive {
                node: NodeId(1),
                packet: &p,
            },
        );
        assert_eq!(t.finish().unwrap(), 1);
        let bytes = std::fs::read(&path).unwrap();
        let recs = PcapReader::new(&bytes).unwrap().records().unwrap();
        assert_eq!(recs.len(), 1, "only the TxStart became a record");
    }

    #[test]
    fn records_land_in_callback_order_as_they_are_traced() {
        let path = unit_path("stream.pcap");
        let mut t = PcapTracer::create(&path, DEFAULT_SNAPLEN).unwrap();
        // Three instants, the middle one shared by three transmissions:
        // nothing reorders them, the file is the callback sequence.
        let stamps = [1_000u64, 2_000, 2_000, 2_000, 3_000];
        for (i, nanos) in stamps.iter().enumerate() {
            tx_start(&mut t, *nanos, &tcp_data(10 - i as u64));
        }
        assert_eq!(t.records(), 5);
        assert_eq!(t.finish().unwrap(), 5);
        let bytes = std::fs::read(&path).unwrap();
        let recs = PcapReader::new(&bytes).unwrap().records().unwrap();
        let got: Vec<(u64, u32)> = recs
            .iter()
            .map(|r| (r.ts_nanos, r.net.as_ref().unwrap().seq))
            .collect();
        let want: Vec<(u64, u32)> = stamps.iter().copied().zip((6..=10).rev()).collect();
        assert_eq!(got, want);
        // A second finish changes nothing and says the same.
        assert_eq!(t.finish().unwrap(), 5);
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
    }

    #[test]
    fn a_tracer_dropped_without_finish_leaves_what_it_traced() {
        // A scenario that panics mid-run never reaches `finish`; the
        // capture must still hold every record traced before the unwind.
        let path = unit_path("dropped.pcap");
        let mut t = PcapTracer::create(&path, DEFAULT_SNAPLEN).unwrap();
        for i in 0..300 {
            tx_start(&mut t, i * 1_000, &tcp_data(i));
        }
        drop(t);
        let bytes = std::fs::read(&path).unwrap();
        let recs = PcapReader::new(&bytes).unwrap().records().unwrap();
        assert_eq!(recs.len(), 300, "more than one buffer's worth survives");
        assert_eq!(recs[299].net.as_ref().unwrap().seq, 299);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_write_error_is_latched_and_returned_by_finish() {
        // /dev/full opens for writing and fails every write with ENOSPC.
        let mut t = PcapTracer::create(Path::new("/dev/full"), DEFAULT_SNAPLEN).unwrap();
        // Enough records to overflow the write buffer mid-run: `trace`
        // must absorb the failure, not panic inside the event loop.
        for i in 0..300 {
            tx_start(&mut t, i * 1_000, &tcp_data(i));
        }
        let written = t.records();
        assert!(written < 300, "writing stops at the first error");
        let err = t.finish().expect_err("the latched error surfaces");
        assert_eq!(err.kind(), io::ErrorKind::StorageFull, "{err}");
        assert!(t.finish().is_err(), "and stays latched");
        tx_start(&mut t, 1_000_000, &tcp_data(300));
        assert_eq!(t.records(), written, "nothing is written after it");
        // A short capture fails at the flush instead.
        let mut t = PcapTracer::create(Path::new("/dev/full"), DEFAULT_SNAPLEN).unwrap();
        tx_start(&mut t, 0, &tcp_data(0));
        assert!(t.finish().is_err());
    }

    #[test]
    fn reader_rejects_garbage_and_truncation() {
        assert!(PcapReader::new(&[0u8; 10]).is_err(), "short header");
        let mut bad = write_all(&[], DEFAULT_SNAPLEN);
        bad[0] = 0xde;
        assert!(PcapReader::new(&bad).is_err(), "bad magic");
        let mut trunc = write_all(&[(0, tcp_data(1))], DEFAULT_SNAPLEN);
        trunc.truncate(trunc.len() - 5);
        let r = PcapReader::new(&trunc).unwrap().records();
        assert!(r.is_err(), "truncated body must error, not loop");
    }
}
