//! Pcap-export validation: a fixed-seed scenario exported to a capture
//! file must (a) hash to the committed golden byte digest, (b) round-trip
//! through the reader with exactly one record per `TxStart` trace event,
//! nondecreasing timestamps, and sequence/ack numbers consistent with a
//! transmission scoreboard, and (c) never emit a record whose `caplen`
//! exceeds the snap length, for arbitrary packets (property test).
//!
//! The capture is streamed, so a run that is killed leaves a *truncated*
//! file; (d) pins the reader on that and on garbage: a cut capture yields
//! its whole records and then one error naming the byte offset, and no
//! input — arbitrary bytes, one flipped byte — can make it panic.
//!
//! The capture is an *observer*: the run's trace digest is computed
//! independently of the tracer slot, so these tests double as proof that
//! `RLA_PCAP` cannot perturb results.

use std::collections::HashMap;

use bounded_fairness::experiments::cli::PcapOptions;
use bounded_fairness::experiments::{CongestionCase, GatewayKind, ScenarioSpec};
use netsim::id::{AgentId, GroupId};
use netsim::packet::{Dest, Packet};
use netsim::time::{SimDuration, SimTime};
use netsim::wire::{
    McastAck, McastData, RateData, RateFeedback, SackBlock, SackList, Segment, TcpAck, TcpData,
    MAX_SACK_BLOCKS,
};
use proptest::prelude::*;
use telemetry::pcap::{record_bytes, PcapRecord, DEFAULT_SNAPLEN, FRAME_MAX};
use telemetry::{PcapReader, PcapWriter};

/// FNV-1a over the whole capture file — the same digest family the trace
/// digests use, applied to bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The pinned export: case 5, RED, seed 1, 20 s, default snaplen.
/// Returns the capture bytes and the engine's independent `tx_starts`
/// count.
fn export_case5(dir: &std::path::Path) -> (Vec<u8>, u64) {
    std::fs::create_dir_all(dir).expect("create capture dir");
    let scenario = ScenarioSpec::paper(CongestionCase::Case5OneLevel2)
        .with_gateway(GatewayKind::Red)
        .with_duration(SimDuration::from_secs(20))
        .with_seed(1)
        .build();
    let mut world = scenario.build();
    let opts = PcapOptions {
        enabled: true,
        dir: dir.to_path_buf(),
        ..PcapOptions::default()
    };
    let tracer = world.install_pcap(&opts, "case5_red_20s");
    world.run(&scenario);
    let written = tracer.borrow_mut().finish().expect("flush capture");
    let tx_starts = world.engine.trace_digest().tx_starts;
    assert_eq!(
        written, tx_starts,
        "the tracer must write exactly one record per TxStart"
    );
    let path = tracer.borrow().path().to_path_buf();
    (std::fs::read(path).expect("read capture"), tx_starts)
}

#[test]
fn case5_export_matches_the_golden_byte_digest() {
    let dir = std::env::temp_dir().join("rla_pcap_golden_test");
    let (bytes, _) = export_case5(&dir);
    // Pinned from the first generation; covers the global header, every
    // record header and every synthetic frame byte. Drift means the
    // engine's packet schedule or the pcap framing changed — if
    // intended, update the constant alongside the trace-digest goldens.
    // (Re-pinned when the cost-aware merge pass collapsed the default run
    // to a single execution domain: per-region event streams and trace
    // digests are unchanged, but same-instant records from different
    // regions now interleave in global time-key order instead of the
    // old per-epoch domain grouping.)
    assert_eq!(
        format!("{:016x}", fnv1a(&bytes)),
        "0d81d890fa7a175d",
        "capture byte digest drifted ({} bytes)",
        bytes.len()
    );
}

#[test]
fn case5_export_round_trips_with_a_consistent_scoreboard() {
    let dir = std::env::temp_dir().join("rla_pcap_roundtrip_test");
    let (bytes, tx_starts) = export_case5(&dir);
    let reader = PcapReader::new(&bytes).expect("valid global header");
    assert!(reader.header.nanos, "SimTime is nanosecond-resolution");
    let snaplen = reader.header.snaplen;
    let records = reader.records().expect("every record parses");
    assert_eq!(records.len() as u64, tx_starts, "count == TxStart count");
    assert!(tx_starts > 0, "a 20 s case-5 run transmits packets");

    // Timestamps are the TxStart times of a single engine run: they must
    // never go backwards.
    let mut last = 0u64;
    // Scoreboard: highest data sequence transmitted so far, per flow.
    // TCP keys on the (src, dst) address pair (acks ack the reversed
    // pair); multicast keys on the sender, since group data fans out to
    // every receiver. An ack can only acknowledge data that has started
    // transmission somewhere, so ack <= scoreboard max + 1 at all times.
    let mut tcp_max: HashMap<([u8; 4], [u8; 4]), u64> = HashMap::new();
    let mut mc_max = 0u64;
    let mut data_records = 0u64;
    let mut ack_records = 0u64;
    for r in &records {
        assert!(r.ts_nanos >= last, "timestamps must be nondecreasing");
        last = r.ts_nanos;
        assert!(r.caplen <= snaplen);
        assert!(r.caplen <= r.orig_len);
        let Some(net) = &r.net else {
            panic!("default snaplen keeps every synthetic header parseable");
        };
        match (net.protocol, net.kind) {
            // TCP (kind 255): data carries seq, pure acks carry ack.
            (6, _) if is_tcp_data(r) => {
                let m = tcp_max.entry((net.src_ip, net.dst_ip)).or_insert(0);
                *m = (*m).max(net.number);
                data_records += 1;
            }
            (6, _) => {
                let data_flow = (net.dst_ip, net.src_ip);
                let max = tcp_max.get(&data_flow).copied().unwrap_or(0);
                assert!(
                    net.number <= max + 1,
                    "tcp ack {} outruns the scoreboard {max} for {data_flow:?}",
                    net.number
                );
                ack_records += 1;
            }
            // RLA multicast data / ack (UDP kinds 1 / 2).
            (17, 1) => {
                mc_max = mc_max.max(net.number);
                data_records += 1;
            }
            (17, 2) => {
                assert!(
                    net.number <= mc_max + 1,
                    "mcast ack {} outruns the scoreboard {mc_max}",
                    net.number
                );
                ack_records += 1;
            }
            (17, 0) | (17, 3) | (17, 4) => {}
            other => panic!("unexpected protocol/kind {other:?}"),
        }
    }
    assert!(data_records > 0, "the run carries data segments");
    assert!(ack_records > 0, "the run carries acknowledgements");
}

/// A TCP record is a data segment iff its IPv4 total length reflects a
/// data-sized packet (1000 B simulated vs 40 B acks).
fn is_tcp_data(r: &PcapRecord) -> bool {
    r.net.as_ref().is_some_and(|n| n.ip_total_len >= 500)
}

/// An arbitrary packet spanning every segment kind the writer frames,
/// with ids on both sides of 256 (one address byte or two) and acks that
/// carry 0..=[`MAX_SACK_BLOCKS`] SACK blocks — the option is the one
/// variable-length part of a frame. (The vendored proptest has no
/// `prop_map`, so this implements [`Strategy`] directly.)
#[derive(Debug, Clone, Copy)]
struct ArbPacket;

impl Strategy for ArbPacket {
    type Value = Packet;

    fn generate(&self, rng: &mut rand::rngs::StdRng) -> Packet {
        use rand::Rng;
        let seq = rng.gen_range(0u64..1 << 40);
        let agent = rng.gen_range(0u32..600);
        let size_bytes = rng.gen_range(40u32..2000);
        let kind = rng.gen_range(0u32..8);
        let retransmit = rng.gen::<bool>();
        let sack: SackList = (0..rng.gen_range(0..=MAX_SACK_BLOCKS))
            .map(|_| {
                let start = rng.gen_range(0u64..1 << 40);
                SackBlock {
                    start,
                    end: start + rng.gen_range(1u64..100),
                }
            })
            .collect();
        let src = AgentId(agent);
        let peer = AgentId(agent + 1);
        let (dest, segment) = match kind {
            0 => (Dest::Agent(peer), Segment::Raw),
            1 => (
                Dest::Agent(peer),
                Segment::TcpData(TcpData {
                    seq,
                    retransmit,
                    timestamp: SimTime::ZERO,
                }),
            ),
            2 => (
                Dest::Agent(peer),
                Segment::TcpAck(TcpAck {
                    cum_ack: seq,
                    sack,
                    echo_timestamp: SimTime::ZERO,
                }),
            ),
            3 => (
                Dest::Group(GroupId(2)),
                Segment::McastData(McastData {
                    seq,
                    retransmit,
                    timestamp: SimTime::ZERO,
                }),
            ),
            4 => (
                Dest::Agent(peer),
                Segment::McastAck(McastAck {
                    receiver: src,
                    cum_ack: seq,
                    sack,
                    echo_timestamp: SimTime::ZERO,
                    urgent_rexmit: retransmit,
                }),
            ),
            5 | 6 => (
                if kind == 5 {
                    Dest::Group(GroupId(agent))
                } else {
                    Dest::Agent(peer)
                },
                Segment::RateData(RateData {
                    seq,
                    timestamp: SimTime::ZERO,
                }),
            ),
            _ => (
                Dest::Agent(peer),
                Segment::RateFeedback(RateFeedback {
                    receiver: src,
                    highest_seq: seq,
                    lost: 1,
                    received: 9,
                    avg_loss_rate: 0.1,
                }),
            ),
        };
        Packet {
            uid: seq ^ 0x5a5a,
            src,
            dest,
            size_bytes,
            segment,
            sent_at: SimTime::ZERO,
        }
    }
}

/// The capture of `packets` in timestamp order, and that order.
fn capture_of(mut packets: Vec<(u64, Packet)>, snaplen: u32) -> (Vec<u8>, Vec<(u64, Packet)>) {
    packets.sort_by_key(|(t, _)| *t);
    let mut w = PcapWriter::new(Vec::new(), snaplen).unwrap();
    for (nanos, p) in &packets {
        w.record(SimTime::from_nanos(*nanos), p).unwrap();
    }
    (w.finish().unwrap(), packets)
}

/// Everything the reader makes of `bytes`: the records it yields, then
/// how it stopped — `None` at a clean end of file, the error otherwise.
fn read_all(bytes: &[u8]) -> (Vec<PcapRecord>, Option<String>) {
    let mut records = Vec::new();
    let mut reader = match PcapReader::new(bytes) {
        Ok(reader) => reader,
        Err(e) => return (records, Some(e)),
    };
    loop {
        // Every `Some` consumes at least a record header, so this ends.
        match reader.next_record() {
            Ok(Some(r)) => records.push(r),
            Ok(None) => return (records, None),
            Err(e) => return (records, Some(e)),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever the packet and snap length, `caplen` never exceeds the
    /// (floored) snaplen or the original length, the reader accepts the
    /// writer's output with exact nanosecond timestamps, what the writer
    /// appended is `record_bytes` to the byte, and no frame outgrows
    /// [`FRAME_MAX`] — the framer's fixed buffer.
    #[test]
    fn caplen_is_bounded_by_snaplen(
        packets in proptest::collection::vec((0u64..1u64 << 50, ArbPacket), 1..20),
        snaplen in 0u32..300,
    ) {
        let (bytes, sorted) = capture_of(packets, snaplen);
        let reader = PcapReader::new(&bytes).unwrap();
        let effective = reader.header.snaplen;
        prop_assert!(effective >= 64, "writer floors the snaplen");
        let records = reader.records().map_err(TestCaseError::fail)?;
        prop_assert_eq!(records.len(), sorted.len());
        let mut at = 24;
        for (r, (nanos, p)) in records.iter().zip(&sorted) {
            prop_assert!(r.caplen <= effective);
            prop_assert!(r.caplen <= r.orig_len);
            prop_assert_eq!(r.ts_nanos, *nanos);
            prop_assert!(u64::from(r.orig_len) >= 14 + u64::from(p.size_bytes));
            let appended = &bytes[at..at + 16 + r.caplen as usize];
            at += appended.len();
            let stamp = SimTime::from_nanos(*nanos);
            prop_assert_eq!(appended, &record_bytes(snaplen, stamp, p)[..]);
            prop_assert!(record_bytes(u32::MAX, stamp, p).len() <= 16 + FRAME_MAX);
        }
        prop_assert_eq!(at, bytes.len());
    }

    /// A capture cut at any offset — what a killed run leaves behind —
    /// reads as its whole records, then a clean end if the cut fell on a
    /// record boundary, else one error naming the byte the torn record
    /// starts at.
    #[test]
    fn a_cut_capture_yields_its_whole_records_then_one_error(
        packets in proptest::collection::vec((0u64..1u64 << 50, ArbPacket), 1..20),
        cut in (any::<bool>(), any::<usize>()),
    ) {
        let (bytes, _) = capture_of(packets, DEFAULT_SNAPLEN);
        let (whole, end) = read_all(&bytes);
        prop_assert_eq!(end, None);
        // Record i occupies starts[i]..starts[i + 1].
        let mut starts = vec![24usize];
        for r in &whole {
            starts.push(starts.last().unwrap() + 16 + r.caplen as usize);
        }
        prop_assert_eq!(*starts.last().unwrap(), bytes.len());

        // Half the cuts fall on a record boundary, where a byte offset
        // rarely would: a shorter capture, but a well-formed one.
        let cut = match cut {
            (true, n) => starts[n % starts.len()],
            (false, n) => n % (bytes.len() + 1),
        };
        let (records, end) = read_all(&bytes[..cut]);
        if cut < 24 {
            prop_assert!(records.is_empty());
            prop_assert!(end.is_some_and(|e| e.contains("global header")));
        } else {
            let kept = starts.iter().rposition(|&s| s <= cut).unwrap();
            prop_assert_eq!(&records[..], &whole[..kept]);
            match end {
                None => prop_assert_eq!(starts[kept], cut, "clean end off a boundary"),
                Some(e) => {
                    prop_assert!(starts[kept] < cut, "error on a boundary: {}", e);
                    let at = format!("at byte {}", starts[kept]);
                    prop_assert!(e.contains(&at), "{} does not say {}", e, at);
                }
            }
        }
    }

    /// One flipped byte anywhere in a valid capture yields records or an
    /// error, never a panic.
    #[test]
    fn a_flipped_byte_never_panics_the_reader(
        packets in proptest::collection::vec((0u64..1u64 << 50, ArbPacket), 1..20),
        at in any::<usize>(),
        mask in 1u32..256,
    ) {
        let (mut bytes, _) = capture_of(packets, DEFAULT_SNAPLEN);
        let at = at % bytes.len();
        bytes[at] ^= mask as u8;
        read_all(&bytes);
    }

    /// Arbitrary bytes — bare, or behind a well-formed global header so
    /// the record parser is reached — never panic the reader.
    #[test]
    fn arbitrary_bytes_never_panic_the_reader(
        header in (any::<bool>(), any::<u32>()),
        noise in proptest::collection::vec(any::<u8>(), 0..600),
    ) {
        let (with_header, snaplen) = header;
        let mut bytes = Vec::new();
        if with_header {
            bytes = PcapWriter::new(bytes, snaplen).unwrap().finish().unwrap();
        }
        bytes.extend_from_slice(&noise);
        let (records, _) = read_all(&bytes);
        prop_assert!(records.len() <= bytes.len() / 16);
    }
}
