//! Packets: the unit of everything the simulator moves around.

use crate::id::{AgentId, GroupId};
use crate::time::SimTime;
use crate::wire::Segment;

/// Destination of a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dest {
    /// Unicast to a specific transport endpoint. The engine routes toward
    /// the node the agent is attached to.
    Agent(AgentId),
    /// Multicast to every member of a group, replicated along the group's
    /// source-based tree.
    Group(GroupId),
}

/// A packet in flight.
///
/// Packets are plain values; the engine moves them through queues and
/// events by value. `uid` is globally unique within a run and is what drop
/// traces and loss detection key on. Since [`Segment`] is `Copy`, a packet
/// is a flat `Copy` value too: arena replication and trace snapshots are
/// pure `memcpy`, and freeing a slot runs no drop glue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Packet {
    /// Globally unique packet id (assigned by the engine at send time).
    pub uid: u64,
    /// The sending transport endpoint.
    pub src: AgentId,
    /// Where the packet is headed.
    pub dest: Dest,
    /// Total size on the wire, in bytes (headers included).
    pub size_bytes: u32,
    /// Transport payload.
    pub segment: Segment,
    /// When the packet entered the network at its source.
    pub sent_at: SimTime,
}

impl Packet {
    /// Transmission time of this packet over a link of `bandwidth_bps`
    /// bits per second, in nanoseconds.
    pub fn tx_nanos(&self, bandwidth_bps: u64) -> u64 {
        tx_nanos(self.size_bytes, bandwidth_bps)
    }
}

/// Transmission time of `size_bytes` over `bandwidth_bps`, in nanoseconds.
///
/// Sizes whose bit-nanoseconds fit 64 bits (up to 2.3 GB) divide in 64
/// bits — this runs once per transmission; the rest take the 128-bit path
/// so that no byte count or rate overflows.
pub fn tx_nanos(size_bytes: u32, bandwidth_bps: u64) -> u64 {
    assert!(bandwidth_bps > 0, "zero-bandwidth channel");
    const BIT_NS_PER_BYTE: u64 = 8 * 1_000_000_000;
    match (size_bytes as u64).checked_mul(BIT_NS_PER_BYTE) {
        Some(bit_ns) => bit_ns.div_ceil(bandwidth_bps),
        None => {
            (size_bytes as u128 * BIT_NS_PER_BYTE as u128).div_ceil(bandwidth_bps as u128) as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_time_exact() {
        // 1000 B = 8000 bits at 1 Mbps -> 8 ms.
        assert_eq!(tx_nanos(1000, 1_000_000), 8_000_000);
        // 40 B at 100 Mbps -> 3.2 us.
        assert_eq!(tx_nanos(40, 100_000_000), 3_200);
    }

    #[test]
    fn tx_time_rounds_up() {
        // 1 bit at 3 bps -> ceil(1e9/3) ns.
        assert_eq!(tx_nanos(1, 3), 8_000_000_000u64.div_ceil(3));
    }

    #[test]
    fn tx_time_no_overflow_at_terabit() {
        let n = tx_nanos(u32::MAX, 1_000_000_000_000);
        assert!(n > 0);
    }

    #[test]
    #[should_panic(expected = "zero-bandwidth")]
    fn zero_bandwidth_panics() {
        tx_nanos(100, 0);
    }
}
