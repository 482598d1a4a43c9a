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
//! event is dispatched — framed once, by the module's one framer, in a
//! [`FRAME_MAX`]` + 16`-byte stack buffer, with no allocation per record.
//! Memory is one [`WRITE_BUFFER_BYTES`] buffer whatever the run length,
//! handed to the file in one `write` call each time it fills, and a run
//! that dies mid-way leaves a capture that ends — possibly mid-record —
//! where the run did, which is why
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
use netsim::trace::{TraceEvent, TraceKinds, Tracer};
use netsim::wire::{Segment, MAX_SACK_BLOCKS};

/// Nanosecond-resolution libpcap magic (the classic layout with `ts_usec`
/// holding nanoseconds), written little-endian.
pub const MAGIC_NANOS: u32 = 0xa1b2_3c4d;
/// Microsecond-resolution libpcap magic; accepted by the reader.
pub const MAGIC_MICROS: u32 = 0xa1b2_c3d4;
/// LINKTYPE_ETHERNET.
pub const LINKTYPE_ETHERNET: u32 = 1;
/// Default snapshot length: every synthetic frame we emit fits
/// ([`FRAME_MAX`], checked at compile time; the simulated bulk payload
/// bytes are *not* materialized — they exist only in `orig_len`).
pub const DEFAULT_SNAPLEN: u32 = 128;
/// Inert: nothing in the workspace reads it (the frozen `benchmark/`
/// names it in a struct literal; ROADMAP item 4(b) deletes it).
pub const DEFAULT_SPOOL_RECORDS: usize = 65_536;
/// Capacity of a capture file's write buffer — all the memory a capture
/// holds, whatever the run length. The file grows one full buffer per
/// `write` call: ≈ 3 400 records of the case-5 mix's 76.7 B, so a 60 s
/// case-5 capture (≈ 240 MB) costs ≈ 900 calls, not the ≈ 29 000 of an
/// 8 KiB buffer (DESIGN.md §10 has the measurement).
pub const WRITE_BUFFER_BYTES: usize = 256 * 1024;
/// Bytes of synthetic payload carried by the UDP framing (kind tag,
/// flags, and the 64-bit sequence or cumulative-ack number).
pub const RLA_PAYLOAD_LEN: usize = 12;

const RECORD_HEADER_LEN: usize = 16;
const ETH_HEADER_LEN: usize = 14;
const IPV4_HEADER_LEN: usize = 20;
const UDP_HEADER_LEN: usize = 8;
const TCP_BASE_HEADER_LEN: usize = 20;
/// The RFC 2018 SACK option at its longest: NOP NOP kind len, then eight
/// bytes per block.
const SACK_OPTION_MAX: usize = 4 + 8 * MAX_SACK_BLOCKS;
/// Where the L4 header starts in a record: the offsets before it are fixed.
const L4_OFFSET: usize = RECORD_HEADER_LEN + ETH_HEADER_LEN + IPV4_HEADER_LEN;

/// The longest synthetic frame: Ethernet II + IPv4 + a TCP ack whose SACK
/// option carries [`MAX_SACK_BLOCKS`] blocks (the UDP kinds are a fixed
/// 54 bytes). The one variable-length part of a frame is that option, so
/// this bounds every frame and sizes the framer's buffer.
pub const FRAME_MAX: usize =
    ETH_HEADER_LEN + IPV4_HEADER_LEN + TCP_BASE_HEADER_LEN + SACK_OPTION_MAX;
const RECORD_MAX: usize = RECORD_HEADER_LEN + FRAME_MAX;

// The TCP data offset is four bits of 32-bit words: a longer header would
// wrap the nibble and every such record be a malformed segment, silently.
const _: () = assert!(TCP_BASE_HEADER_LEN + SACK_OPTION_MAX <= 60);
const _: () = assert!(FRAME_MAX <= DEFAULT_SNAPLEN as usize);

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

    /// Serialize one packet as a record stamped `now`: framed once, on the
    /// stack, and handed to `W` in one `write_all` — no allocation per
    /// record (`tests/pcap_alloc.rs` counts).
    pub fn record(&mut self, now: SimTime, packet: &Packet) -> io::Result<()> {
        let mut buf = [0u8; RECORD_MAX];
        let len = frame_record(&mut buf, self.snaplen, now, packet);
        self.out.write_all(&buf[..len])?;
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

/// The on-disk bytes of one pcap record (16-byte record header +
/// truncated frame) without writing it — exactly what
/// [`PcapWriter::record`] appends: both are the one framer.
pub fn record_bytes(snaplen: u32, now: SimTime, packet: &Packet) -> Vec<u8> {
    let mut buf = [0u8; RECORD_MAX];
    let len = frame_record(&mut buf, snaplen, now, packet);
    buf[..len].to_vec()
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

/// The unicast peer of a TCP or feedback segment (agent 0 stands in for
/// the group destination those kinds never have).
fn peer(dest: Dest) -> AgentId {
    match dest {
        Dest::Agent(a) => a,
        Dest::Group(_) => AgentId(0),
    }
}

/// Destination port of a data segment that may be multicast.
fn data_port(dest: Dest) -> u16 {
    match dest {
        Dest::Agent(a) => port_for(a, 20000),
        Dest::Group(g) => group_port(g),
    }
}

/// Sequential writes into a stretch of the record buffer.
struct Put<'a> {
    buf: &'a mut [u8],
    at: usize,
}

impl Put<'_> {
    fn put<const N: usize>(&mut self, bytes: [u8; N]) {
        self.buf[self.at..self.at + N].copy_from_slice(&bytes);
        self.at += N;
    }
}

/// Write the synthetic TCP header (with a SACK option when the ack
/// carries blocks) at the start of `l4` and return its length.
/// Sequence/ack numbers are the simulator's *packet* units, truncated to
/// u32 as on a real wire.
fn tcp_l4(l4: &mut [u8], packet: &Packet) -> usize {
    let (sport, dport, seq, ack, flags, sack) = match &packet.segment {
        Segment::TcpData(d) => (
            port_for(packet.src, 10000),
            port_for(peer(packet.dest), 20000),
            d.seq as u32,
            0u32,
            0x18u8, // PSH|ACK
            &[][..],
        ),
        Segment::TcpAck(a) => (
            port_for(packet.src, 20000),
            port_for(peer(packet.dest), 10000),
            0u32,
            a.cum_ack as u32,
            0x10u8, // ACK
            a.sack.as_slice(),
        ),
        _ => unreachable!("tcp_l4 is only called for TCP segments"),
    };
    // RFC 2018 SACK option: NOP NOP [kind=5, len, (start,end) pairs] — a
    // multiple of four bytes, as TCP options must be.
    let option_len = if sack.is_empty() {
        0
    } else {
        4 + 8 * sack.len()
    };
    let header_len = TCP_BASE_HEADER_LEN + option_len;
    let mut w = Put { buf: l4, at: 0 };
    w.put(sport.to_be_bytes());
    w.put(dport.to_be_bytes());
    w.put(seq.to_be_bytes());
    w.put(ack.to_be_bytes());
    w.put([((header_len / 4) as u8) << 4, flags]); // data offset
    w.put(0xffffu16.to_be_bytes()); // window
    w.put([0; 4]); // checksum (left zero, see `frame_record`), urgent pointer
    if !sack.is_empty() {
        w.put([1, 1, 5, 2 + 8 * sack.len() as u8]);
        for b in sack {
            w.put((b.start as u32).to_be_bytes());
            w.put((b.end as u32).to_be_bytes());
        }
    }
    debug_assert_eq!(w.at, header_len);
    header_len
}

/// UDP framing for the multicast/rate/raw segments: an 8-byte UDP header
/// plus the [`RLA_PAYLOAD_LEN`]-byte synthetic payload
/// `[kind, flags, reserved u16, seq_or_ack u64]` (big-endian), written at
/// the start of `l4`; returns the length.
fn udp_l4(l4: &mut [u8], packet: &Packet) -> usize {
    let data_sport = port_for(packet.src, 10000);
    let feedback_dport = port_for(peer(packet.dest), 10000);
    let (sport, dport, kind, flags, number) = match &packet.segment {
        Segment::McastData(d) => (
            data_sport,
            data_port(packet.dest),
            1u8,
            u8::from(d.retransmit),
            d.seq,
        ),
        Segment::McastAck(a) => (
            port_for(a.receiver, 20000),
            feedback_dport,
            2u8,
            u8::from(a.urgent_rexmit),
            a.cum_ack,
        ),
        Segment::RateData(d) => (data_sport, data_port(packet.dest), 3u8, 0u8, d.seq),
        Segment::RateFeedback(f) => (
            port_for(f.receiver, 20000),
            feedback_dport,
            4u8,
            0u8,
            f.highest_seq,
        ),
        Segment::Raw => (data_sport, data_port(packet.dest), 0u8, 0u8, 0u64),
        Segment::TcpData(_) | Segment::TcpAck(_) => {
            unreachable!("TCP segments take the TCP framing")
        }
    };
    let len = UDP_HEADER_LEN + RLA_PAYLOAD_LEN;
    let mut w = Put { buf: l4, at: 0 };
    w.put(sport.to_be_bytes());
    w.put(dport.to_be_bytes());
    w.put((len as u16).to_be_bytes());
    w.put([0, 0]); // checksum 0 = unused (legal over IPv4)
    w.put([kind, flags, 0, 0]); // .., reserved
    w.put(number.to_be_bytes());
    debug_assert_eq!(w.at, len);
    len
}

/// The one framer: write a whole record — the 16-byte record header and
/// the synthetic Ethernet II / IPv4 / L4 frame — for `packet` stamped
/// `now` into `buf`, each field at its final offset, and return the
/// record's length once the frame is cut to `snaplen` (floored at 64).
/// Everything ahead of the L4 header has a fixed offset, so the L4 goes in
/// first and tells the headers before it its protocol and length.
fn frame_record(buf: &mut [u8; RECORD_MAX], snaplen: u32, now: SimTime, packet: &Packet) -> usize {
    let (head, l4) = buf.split_at_mut(L4_OFFSET);
    // (TCP checksum left zero: the synthetic payload is truncated, so a
    // pseudo-header checksum could not validate anyway.)
    let (protocol, l4_len) = match packet.segment {
        Segment::TcpData(_) | Segment::TcpAck(_) => (6, tcp_l4(l4, packet)),
        _ => (17, udp_l4(l4, packet)),
    };
    let frame_len = (ETH_HEADER_LEN + IPV4_HEADER_LEN + l4_len) as u32;
    let caplen = frame_len.min(snaplen.max(64));
    // On the wire the packet occupies its full simulated size; the
    // frame we materialize holds only headers + the tiny synthetic
    // payload, so orig_len ≥ caplen always.
    let orig_len = (ETH_HEADER_LEN as u32 + packet.size_bytes).max(frame_len);
    let nanos = now.as_nanos();
    let (dst_mac, dst_ip) = match packet.dest {
        Dest::Agent(a) => (agent_mac(a), agent_ip(a)),
        Dest::Group(g) => (group_mac(g), group_ip(g)),
    };
    // Feedback segments also name their receiver internally, but the
    // packet's `src` field carries the same agent — one derivation rule.
    let src_ip = agent_ip(packet.src);
    let total_len = (IPV4_HEADER_LEN + l4_len).max(packet.size_bytes as usize);

    let mut w = Put { buf: head, at: 0 };
    // Record header.
    w.put(((nanos / 1_000_000_000) as u32).to_le_bytes());
    w.put(((nanos % 1_000_000_000) as u32).to_le_bytes());
    w.put(caplen.to_le_bytes());
    w.put(orig_len.to_le_bytes());
    // Ethernet II.
    w.put(dst_mac);
    w.put(agent_mac(packet.src));
    w.put(0x0800u16.to_be_bytes());
    // IPv4.
    w.put([0x45, 0]); // version 4, IHL 5; DSCP/ECN
    w.put((total_len.min(65535) as u16).to_be_bytes());
    w.put(((packet.uid & 0xffff) as u16).to_be_bytes());
    w.put([0x40, 0]); // DF, no fragments
    w.put([64, protocol]); // TTL
    w.put([0, 0]); // checksum, patched below
    w.put(src_ip);
    w.put(dst_ip);
    debug_assert_eq!(w.at, L4_OFFSET);
    let ip = &mut head[RECORD_HEADER_LEN + ETH_HEADER_LEN..];
    let csum = inet_checksum(0, ip);
    ip[10..12].copy_from_slice(&csum.to_be_bytes());
    RECORD_HEADER_LEN + caplen as usize
}

/// A [`Tracer`] that writes one pcap record per [`TraceEvent::TxStart`] —
/// the moment a packet starts serializing onto a link, so the record
/// count equals the run digest's `tx_starts` counter — as the callback
/// arrives: the slot's time order (module docs) makes the file
/// chronological with nothing held back but one [`WRITE_BUFFER_BYTES`]
/// block, so the file grows a block at a time and its last partial block
/// lands at [`finish`].
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
    fn wants(&self) -> TraceKinds {
        TraceKinds::TX_START
    }

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
    use netsim::wire::{
        McastAck, McastData, RateData, RateFeedback, SackBlock, SackList, TcpAck, TcpData,
        MAX_SACK_BLOCKS,
    };

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

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// One row per byte-level behaviour of the framing: `(what, snaplen,
    /// stamp in ns, packet, record)`. The hex is what `record_bytes`
    /// returned *before* the framing was rewritten in place (PR 20) —
    /// rendered by the parent commit's three-`Vec` framer, never edited
    /// since — split at the record / Ethernet / IPv4 / L4 / TCP-option
    /// boundaries.
    fn pinned_records() -> Vec<(&'static str, u32, u64, Packet, &'static str)> {
        fn pkt(uid: u64, src: u32, dest: Dest, size_bytes: u32, segment: Segment) -> Packet {
            Packet {
                uid,
                src: AgentId(src),
                dest,
                size_bytes,
                segment,
                sent_at: SimTime::from_nanos(77),
            }
        }
        let t = SimTime::from_nanos(99);
        let agent = |i: u32| Dest::Agent(AgentId(i));
        let group = |i: u32| Dest::Group(GroupId(i));
        // Block edges above `u32::MAX` too: they truncate like seq/ack.
        let sack = |n: usize| -> SackList {
            (0..n as u64)
                .map(|i| SackBlock {
                    start: 0x1_0000_0010 + 0x100 * i,
                    end: 0x1_0000_0020 + 0x100 * i,
                })
                .collect()
        };
        let tcp_data = |seq| {
            Segment::TcpData(TcpData {
                seq,
                retransmit: true,
                timestamp: t,
            })
        };
        let tcp_ack = |cum_ack, blocks| {
            Segment::TcpAck(TcpAck {
                cum_ack,
                sack: sack(blocks),
                echo_timestamp: t,
            })
        };
        let mc_data = |seq, retransmit| {
            Segment::McastData(McastData {
                seq,
                retransmit,
                timestamp: t,
            })
        };
        let mc_ack = |receiver, blocks, urgent_rexmit| {
            Segment::McastAck(McastAck {
                receiver: AgentId(receiver),
                cum_ack: 0x2_0000_0005,
                sack: sack(blocks),
                echo_timestamp: t,
                urgent_rexmit,
            })
        };
        let rate_data = |seq| Segment::RateData(RateData { seq, timestamp: t });
        let rate_fb = |receiver| {
            Segment::RateFeedback(RateFeedback {
                receiver: AgentId(receiver),
                highest_seq: 0x3_0000_0009,
                lost: 4,
                received: 96,
                avg_loss_rate: 0.04,
            })
        };
        let wide = 0x1_0000_0007; // a seq / cum_ack above u32::MAX
        vec![
            // TCP data: 54 B frame, under even the snaplen floor.
            (
                "tcp-data",
                128,
                1_500_000_007,
                pkt(5, 3, agent(7), 1000, tcp_data(5)),
                concat!(
                    "010000000765cd1d36000000f6030000",
                    "02524c41000702524c4100030800",
                    "450003e800054000400623020a0000030a000007",
                    "27134e2700000005000000005018ffff00000000"
                ),
            ),
            (
                "tcp-data @64",
                64,
                1_500_000_007,
                pkt(5, 3, agent(7), 1000, tcp_data(5)),
                concat!(
                    "010000000765cd1d36000000f6030000",
                    "02524c41000702524c4100030800",
                    "450003e800054000400623020a0000030a000007",
                    "27134e2700000005000000005018ffff00000000"
                ),
            ),
            (
                "tcp-data, group dest, wide seq",
                128,
                0,
                pkt(6, 3, group(0x0203), 1000, tcp_data(wide)),
                concat!(
                    "000000000000000036000000f6030000",
                    "01005e00020302524c4100030800",
                    "450003e80006400040063c040a000003ef000203",
                    "27134e2000000007000000005018ffff00000000"
                ),
            ),
            // Ids >= 256 (both address bytes) and >= 10000 (port modulus);
            // a uid above 0xffff truncates into the IP id.
            (
                "tcp-data, wide ids and uid",
                128,
                2_000_000_000,
                pkt(0x1_2345_6789, 12345, agent(0x0abc), 576, tcp_data(9)),
                concat!(
                    "0200000000000000360000004e020000",
                    "02524c410abc02524c4130390800",
                    "45000240678940004006823a0a0030390a000abc",
                    "303958dc00000009000000005018ffff00000000"
                ),
            ),
            // size_bytes under the headers, and past the 16-bit total length.
            (
                "tcp-data, size 10",
                128,
                1,
                pkt(7, 1, agent(2), 10, tcp_data(1)),
                concat!(
                    "00000000010000003600000036000000",
                    "02524c41000202524c4100010800",
                    "4500002800074000400626c70a0000010a000002",
                    "27114e2200000001000000005018ffff00000000"
                ),
            ),
            (
                "tcp-data, size 70000",
                128,
                1,
                pkt(8, 1, agent(2), 70_000, tcp_data(1)),
                concat!(
                    "0000000001000000360000007e110100",
                    "02524c41000202524c4100010800",
                    "4500ffff00084000400626ee0a0000010a000002",
                    "27114e2200000001000000005018ffff00000000"
                ),
            ),
            // TCP acks: the SACK option is the one variable-length part.
            (
                "tcp-ack, no sack",
                128,
                3,
                pkt(9, 7, agent(3), 40, tcp_ack(wide, 0)),
                concat!(
                    "00000000030000003600000036000000",
                    "02524c41000302524c4100070800",
                    "4500002800094000400626be0a0000070a000003",
                    "4e27271300000000000000075010ffff00000000"
                ),
            ),
            (
                "tcp-ack, 1 block",
                128,
                3,
                pkt(10, 7, agent(3), 40, tcp_ack(wide, 1)),
                concat!(
                    "00000000030000004200000042000000",
                    "02524c41000302524c4100070800",
                    "45000034000a4000400626b10a0000070a000003",
                    "4e27271300000000000000078010ffff00000000",
                    "0101050a0000001000000020"
                ),
            ),
            (
                "tcp-ack, 1 block @64",
                64,
                3,
                pkt(10, 7, agent(3), 40, tcp_ack(wide, 1)),
                concat!(
                    "00000000030000004000000042000000",
                    "02524c41000302524c4100070800",
                    "45000034000a4000400626b10a0000070a000003",
                    "4e27271300000000000000078010ffff00000000",
                    "0101050a000000100000"
                ),
            ),
            (
                "tcp-ack, 2 blocks",
                128,
                3,
                pkt(11, 7, agent(3), 40, tcp_ack(6, 2)),
                concat!(
                    "00000000030000004a0000004a000000",
                    "02524c41000302524c4100070800",
                    "4500003c000b4000400626a80a0000070a000003",
                    "4e2727130000000000000006a010ffff00000000",
                    "0101051200000010000000200000011000000120"
                ),
            ),
            (
                "tcp-ack, max blocks",
                128,
                3,
                pkt(12, 0x0107, agent(0x0203), 40, tcp_ack(6, MAX_SACK_BLOCKS)),
                concat!(
                    "00000000030000005200000052000000",
                    "02524c41020302524c4101070800",
                    "45000044000c40004006239f0a0001070a000203",
                    "4f2729130000000000000006c010ffff00000000",
                    "0101051a000000100000002000000110000001200000021000000220"
                ),
            ),
            (
                "tcp-ack, max blocks @64",
                64,
                3,
                pkt(12, 0x0107, agent(0x0203), 40, tcp_ack(6, MAX_SACK_BLOCKS)),
                concat!(
                    "00000000030000004000000052000000",
                    "02524c41020302524c4101070800",
                    "45000044000c40004006239f0a0001070a000203",
                    "4f2729130000000000000006c010ffff00000000",
                    "0101051a000000100000"
                ),
            ),
            // `record_bytes` floors the snaplen itself.
            (
                "tcp-ack, max blocks @0",
                0,
                3,
                pkt(12, 0x0107, agent(0x0203), 40, tcp_ack(6, MAX_SACK_BLOCKS)),
                concat!(
                    "00000000030000004000000052000000",
                    "02524c41020302524c4101070800",
                    "45000044000c40004006239f0a0001070a000203",
                    "4f2729130000000000000006c010ffff00000000",
                    "0101051a000000100000"
                ),
            ),
            (
                "tcp-ack, group dest, size 10",
                128,
                3,
                pkt(13, 7, group(1), 10, tcp_ack(6, MAX_SACK_BLOCKS)),
                concat!(
                    "00000000030000005200000052000000",
                    "01005e00000102524c4100070800",
                    "45000044000d40004006419f0a000007ef000001",
                    "4e2727100000000000000006c010ffff00000000",
                    "0101051a000000100000002000000110000001200000021000000220"
                ),
            ),
            // The UDP kinds: 54 B frames.
            (
                "mc-data",
                128,
                4,
                pkt(14, 1, group(0), 1000, mc_data(42, false)),
                concat!(
                    "000000000400000036000000f6030000",
                    "01005e00000002524c4100010800",
                    "450003e8000e400040113df60a000001ef000000",
                    "27114e200014000001000000000000000000002a"
                ),
            ),
            (
                "mc-data @64",
                64,
                4,
                pkt(14, 1, group(0), 1000, mc_data(42, false)),
                concat!(
                    "000000000400000036000000f6030000",
                    "01005e00000002524c4100010800",
                    "450003e8000e400040113df60a000001ef000000",
                    "27114e200014000001000000000000000000002a"
                ),
            ),
            (
                "mc-data, unicast rexmit, wide",
                128,
                4,
                pkt(0xf_ffff, 0x0101, agent(12345), 1000, mc_data(wide, true)),
                concat!(
                    "000000000400000036000000f6030000",
                    "02524c41303902524c4101010800",
                    "450003e8ffff40004011f1cb0a0001010a003039",
                    "2811574900140000010100000000000100000007"
                ),
            ),
            (
                "mc-data, wide group",
                128,
                4,
                pkt(15, 1, group(0x0203), 10, mc_data(1, false)),
                concat!(
                    "00000000040000003600000036000000",
                    "01005e00020302524c4100010800",
                    "45000028000f400040113fb20a000001ef000203",
                    "2711502300140000010000000000000000000001"
                ),
            ),
            // A McastAck's SACK list never reaches the wire.
            (
                "mc-ack, no sack",
                128,
                5,
                pkt(16, 9, agent(1), 40, mc_ack(9, 0, false)),
                concat!(
                    "00000000050000003600000036000000",
                    "02524c41000102524c4100090800",
                    "4500002800104000401126ac0a0000090a000001",
                    "4e29271100140000020000000000000200000005"
                ),
            ),
            (
                "mc-ack, max blocks",
                128,
                5,
                pkt(16, 9, agent(1), 40, mc_ack(9, MAX_SACK_BLOCKS, false)),
                concat!(
                    "00000000050000003600000036000000",
                    "02524c41000102524c4100090800",
                    "4500002800104000401126ac0a0000090a000001",
                    "4e29271100140000020000000000000200000005"
                ),
            ),
            // The source port is the named receiver's, not `src`'s.
            (
                "mc-ack, urgent, group dest",
                128,
                5,
                pkt(17, 9, group(2), 40, mc_ack(0x0309, 1, true)),
                concat!(
                    "00000000050000003600000036000000",
                    "01005e00000202524c4100090800",
                    "4500002800114000401141a90a000009ef000002",
                    "5129271000140000020100000000000200000005"
                ),
            ),
            (
                "rate-data, group",
                128,
                6,
                pkt(18, 2, group(1), 500, rate_data(wide)),
                concat!(
                    "00000000060000003600000002020000",
                    "01005e00000102524c4100020800",
                    "450001f40012400040113fe40a000002ef000001",
                    "27124e2100140000030000000000000100000007"
                ),
            ),
            (
                "rate-data, unicast",
                128,
                6,
                pkt(19, 2, agent(0x0405), 500, rate_data(3)),
                concat!(
                    "00000000060000003600000002020000",
                    "02524c41040502524c4100020800",
                    "450001f400134000401120e00a0000020a000405",
                    "2712522500140000030000000000000000000003"
                ),
            ),
            (
                "rate-fb",
                128,
                7,
                pkt(20, 5, agent(2), 64, rate_fb(5)),
                concat!(
                    "0000000007000000360000004e000000",
                    "02524c41000202524c4100050800",
                    "4500004000144000401126930a0000050a000002",
                    "4e25271200140000040000000000000300000009"
                ),
            ),
            (
                "rate-fb, group dest @64",
                64,
                7,
                pkt(21, 5, group(3), 64, rate_fb(0x0105)),
                concat!(
                    "0000000007000000360000004e000000",
                    "01005e00000302524c4100050800",
                    "4500004000154000401141900a000005ef000003",
                    "4f25271000140000040000000000000300000009"
                ),
            ),
            (
                "raw",
                128,
                8,
                pkt(22, 4, agent(6), 1500, Segment::Raw),
                concat!(
                    "000000000800000036000000ea050000",
                    "02524c41000602524c4100040800",
                    "450005dc00164000401120f20a0000040a000006",
                    "27144e2600140000000000000000000000000000"
                ),
            ),
            (
                "raw, group, size 0",
                128,
                8,
                pkt(23, 4, group(0x0100), 0, Segment::Raw),
                concat!(
                    "00000000080000003600000036000000",
                    "01005e00010002524c4100040800",
                    "4500002800174000401140aa0a000004ef000100",
                    "27144f2000140000000000000000000000000000"
                ),
            ),
            // The seconds field is 32 bits wide: a stamp past it wraps.
            (
                "raw, stamp u64::MAX @64",
                64,
                u64::MAX,
                pkt(24, 4, agent(6), 1500, Segment::Raw),
                concat!(
                    "09fa824bffe54a2a36000000ea050000",
                    "02524c41000602524c4100040800",
                    "450005dc00184000401120f00a0000040a000006",
                    "27144e2600140000000000000000000000000000"
                ),
            ),
        ]
    }

    #[test]
    fn every_segment_kind_frames_to_its_pinned_bytes() {
        let rows = pinned_records();
        for (what, snaplen, nanos, packet, want) in &rows {
            let got = record_bytes(*snaplen, SimTime::from_nanos(*nanos), packet);
            assert_eq!(hex(&got), *want, "{what}");
        }
        // Every kind is in the table, and so is a truncated record.
        let kinds: std::collections::BTreeSet<_> =
            rows.iter().map(|r| r.3.segment.kind_str()).collect();
        assert_eq!(kinds.len(), 7, "{kinds:?}");
        let want = |what: &str| rows.iter().find(|r| r.0 == what).unwrap().4;
        assert_eq!(want("tcp-ack, max blocks").len(), 2 * (16 + 82));
        assert_eq!(want("tcp-ack, max blocks @64").len(), 2 * (16 + 64));
        assert_eq!(
            want("mc-ack, no sack"),
            want("mc-ack, max blocks"),
            "a McastAck's bytes ignore its SACK list"
        );
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

    /// The shortest record: a TCP data segment, 54 B of frame like every
    /// UDP kind (`tcp_data` frames to it).
    const SHORTEST_RECORD: usize =
        RECORD_HEADER_LEN + ETH_HEADER_LEN + IPV4_HEADER_LEN + TCP_BASE_HEADER_LEN;

    /// Enough `tcp_data` records to fill the write buffer twice, so a
    /// test tracing them sees the buffer reach the file mid-run.
    fn two_buffers_of_records() -> u64 {
        let shortest = record_bytes(DEFAULT_SNAPLEN, SimTime::ZERO, &tcp_data(0)).len();
        assert_eq!(shortest, SHORTEST_RECORD);
        (2 * WRITE_BUFFER_BYTES).div_ceil(SHORTEST_RECORD) as u64
    }

    #[test]
    fn a_tracer_dropped_without_finish_leaves_what_it_traced() {
        // A scenario that panics mid-run never reaches `finish`; the
        // capture must still hold every record traced before the unwind.
        let path = unit_path("dropped.pcap");
        let mut t = PcapTracer::create(&path, DEFAULT_SNAPLEN).unwrap();
        let n = two_buffers_of_records();
        for i in 0..n {
            tx_start(&mut t, i * 1_000, &tcp_data(i));
        }
        drop(t);
        let bytes = std::fs::read(&path).unwrap();
        let recs = PcapReader::new(&bytes).unwrap().records().unwrap();
        assert_eq!(
            recs.len() as u64,
            n,
            "more than one buffer's worth survives"
        );
        assert_eq!(recs.last().unwrap().net.as_ref().unwrap().seq, n as u32 - 1);
    }

    #[test]
    fn the_capture_reaches_its_file_a_buffer_at_a_time() {
        // One `write` call per full buffer, not per record: nothing a
        // digest can see, so the file's growth is what is pinned.
        let path = unit_path("blocks.pcap");
        let mut t = PcapTracer::create(&path, DEFAULT_SNAPLEN).unwrap();
        let on_disk = || std::fs::metadata(&path).unwrap().len() as usize;
        let widest: SackList = (0..MAX_SACK_BLOCKS as u64)
            .map(|i| SackBlock {
                start: 10 * i + 3,
                end: 10 * i + 5,
            })
            .collect();
        // The shortest record and the longest in turn, so buffers end at
        // varied offsets.
        let packets = [tcp_data(1), tcp_ack(2, widest)];
        let trace = |t: &mut PcapTracer, i: usize| {
            let p = &packets[i % 2];
            tx_start(t, i as u64, p);
            record_bytes(DEFAULT_SNAPLEN, SimTime::ZERO, p).len()
        };
        let mut traced = 24; // the global header
        let mut i = 0;
        while traced + RECORD_MAX <= WRITE_BUFFER_BYTES {
            traced += trace(&mut t, i);
            i += 1;
        }
        assert_eq!(on_disk(), 0, "less than a buffer's worth stays buffered");
        let mut growths = Vec::new();
        let mut last = 0;
        for i in i..i + 3 * WRITE_BUFFER_BYTES / SHORTEST_RECORD {
            traced += trace(&mut t, i);
            let now = on_disk();
            if now != last {
                growths.push(now - last);
                last = now;
            }
        }
        assert!(growths.len() >= 3, "{growths:?}");
        assert!(
            growths
                .iter()
                .all(|&g| g >= WRITE_BUFFER_BYTES - RECORD_MAX),
            "the file grew by less than a buffer: {growths:?}"
        );
        t.finish().unwrap();
        assert_eq!(on_disk(), traced, "finish writes the rest");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_write_error_is_latched_and_returned_by_finish() {
        // /dev/full opens for writing and fails every write with ENOSPC.
        let mut t = PcapTracer::create(Path::new("/dev/full"), DEFAULT_SNAPLEN).unwrap();
        // Enough records to overflow the write buffer mid-run: `trace`
        // must absorb the failure, not panic inside the event loop.
        let n = two_buffers_of_records();
        for i in 0..n {
            tx_start(&mut t, i * 1_000, &tcp_data(i));
        }
        let written = t.records();
        assert!(written < n, "writing stops at the first error");
        let err = t.finish().expect_err("the latched error surfaces");
        assert_eq!(err.kind(), io::ErrorKind::StorageFull, "{err}");
        assert!(t.finish().is_err(), "and stays latched");
        tx_start(&mut t, 1_000_000, &tcp_data(n));
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
