//! The capture allocates nothing per record.
//!
//! No digest, golden or round-trip test notices a `Vec` creeping back into
//! the framing — the bytes stay right, and each record costs five times
//! what it should — so this binary counts allocations instead. It is a test
//! target of its own so that its counting `#[global_allocator]` touches
//! nothing else, and it counts per thread because the test harness
//! allocates on threads of its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use netsim::id::{AgentId, ChannelId, GroupId};
use netsim::packet::{Dest, Packet};
use netsim::time::SimTime;
use netsim::trace::{TraceEvent, Tracer};
use netsim::wire::{
    McastAck, McastData, RateData, RateFeedback, SackBlock, SackList, Segment, TcpAck, TcpData,
    MAX_SACK_BLOCKS,
};
use telemetry::pcap::DEFAULT_SNAPLEN;
use telemetry::{PcapTracer, PcapWriter};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every request goes to `System` unchanged. The counter is a
// `const`-initialised thread-local `Cell<u64>`: reading it neither
// allocates nor registers a destructor, so it is safe to touch from inside
// the allocator (and `try_with` covers a thread that is being torn down).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations (and reallocations) this thread made while `f` ran.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// One packet of each segment kind, and a TCP ack with the longest SACK
/// option — the longest frame there is.
fn one_of_each_kind() -> Vec<Packet> {
    let t = SimTime::from_nanos(5);
    let sack: SackList = (0..MAX_SACK_BLOCKS as u64)
        .map(|i| SackBlock {
            start: 10 * i + 3,
            end: 10 * i + 5,
        })
        .collect();
    let tcp_ack = |sack| {
        Segment::TcpAck(TcpAck {
            cum_ack: 2,
            sack,
            echo_timestamp: t,
        })
    };
    let unicast = Dest::Agent(AgentId(300));
    let group = Dest::Group(GroupId(1));
    let segments = [
        (unicast, Segment::Raw),
        (
            unicast,
            Segment::TcpData(TcpData {
                seq: 7,
                retransmit: false,
                timestamp: t,
            }),
        ),
        (unicast, tcp_ack(SackList::new())),
        (unicast, tcp_ack(sack)),
        (
            group,
            Segment::McastData(McastData {
                seq: 7,
                retransmit: true,
                timestamp: t,
            }),
        ),
        (
            unicast,
            Segment::McastAck(McastAck {
                receiver: AgentId(4),
                ack: TcpAck {
                    cum_ack: 2,
                    sack,
                    echo_timestamp: t,
                },
            }),
        ),
        (
            group,
            Segment::RateData(RateData {
                seq: 7,
                timestamp: t,
            }),
        ),
        (
            unicast,
            Segment::RateFeedback(RateFeedback {
                receiver: AgentId(4),
                highest_seq: 7,
                lost: 1,
                received: 9,
                avg_loss_rate: 0.1,
            }),
        ),
    ];
    let packets: Vec<Packet> = segments
        .iter()
        .enumerate()
        .map(|(i, &(dest, segment))| Packet {
            uid: i as u64,
            src: AgentId(4),
            dest,
            size_bytes: 1000,
            segment,
            sent_at: t,
        })
        .collect();
    let kinds: std::collections::BTreeSet<_> =
        packets.iter().map(|p| p.segment.kind_str()).collect();
    assert_eq!(kinds.len(), 7, "a segment kind is missing: {kinds:?}");
    packets
}

#[test]
fn the_counter_counts() {
    assert_eq!(allocations_in(|| drop(std::hint::black_box(vec![1u8]))), 1);
    assert_eq!(allocations_in(|| ()), 0);
}

#[test]
fn ten_thousand_records_allocate_nothing() {
    let packets = one_of_each_kind();
    let mut writer = PcapWriter::new(std::io::sink(), DEFAULT_SNAPLEN).unwrap();
    let allocations = allocations_in(|| {
        for (i, p) in packets.iter().cycle().take(10_000).enumerate() {
            writer.record(SimTime::from_nanos(i as u64), p).unwrap();
        }
    });
    assert_eq!(writer.records(), 10_000);
    assert_eq!(allocations, 0, "PcapWriter::record allocated");
}

#[test]
fn a_tracer_allocates_the_same_for_ten_transmissions_as_for_ten_thousand() {
    let packets = one_of_each_kind();
    let dir = std::env::temp_dir().join("rla_pcap_alloc");
    std::fs::create_dir_all(&dir).unwrap();
    let capture = |tx_starts: usize| {
        let path = dir.join(format!("{tx_starts}.pcap"));
        let allocations = allocations_in(|| {
            let mut tracer = PcapTracer::create(&path, DEFAULT_SNAPLEN).unwrap();
            for (i, packet) in packets.iter().cycle().take(tx_starts).enumerate() {
                tracer.trace(
                    SimTime::from_nanos(i as u64),
                    &TraceEvent::TxStart {
                        channel: ChannelId(0),
                        packet,
                        qlen: 0,
                    },
                );
            }
            assert_eq!(tracer.finish().unwrap(), tx_starts as u64);
        });
        std::fs::remove_file(&path).unwrap();
        allocations
    };
    let (few, many) = (capture(10), capture(10_000));
    assert!(few > 0, "creating a capture file allocates its buffer");
    assert_eq!(few, many, "PcapTracer::trace allocated per record");
}
