//! Directed channels: one direction of a full-duplex link.
//!
//! A full-duplex link between two nodes is modelled as two independent
//! [`Channel`]s, each with its own transmitter and buffer, so that reverse
//! ACK traffic is simulated through real queues rather than assumed free.
//!
//! A channel is FIFO only because service takes time: every transmission
//! lasts at least a nanosecond, so no two packets leave one channel at the
//! same instant.

use crate::arena::PacketHandle;
use crate::fault::FaultInjector;
use crate::id::{ChannelId, NodeId};
use crate::queue::{QueueConfig, QueueDiscipline};
use crate::stats::ChannelStats;
use crate::time::{SimDuration, SimTime};

/// The transmission in progress on a channel. Its completion has a
/// calendar position — `(end, key)`, reserved when the transmission
/// started — but not necessarily a calendar event: the event is filed only
/// once a packet is waiting behind it, and a completion that never gets
/// one is *settled* by the engine the next time anything looks at the
/// channel. The packet's downstream arrival was filed when the
/// transmission started.
#[derive(Debug, Clone, Copy)]
pub struct InService {
    /// When serialization finishes.
    pub end: SimTime,
    /// The completion's reserved calendar key.
    pub key: u64,
    /// Size of the packet being serialized.
    pub size_bytes: u32,
    /// `true` once a `TxComplete` event sits in the calendar at
    /// `(end, key)`.
    pub filed: bool,
}

/// A unidirectional transmission channel with a finite buffer.
#[derive(Debug)]
pub struct Channel {
    /// This channel's id.
    pub id: ChannelId,
    /// Upstream endpoint (packets enter here).
    pub from: NodeId,
    /// Downstream endpoint (packets arrive here after transmission and
    /// propagation).
    pub to: NodeId,
    /// Transmission rate in bits per second.
    pub bandwidth_bps: u64,
    /// One-way propagation delay.
    pub prop_delay: SimDuration,
    /// The output buffer discipline (drop-tail or RED).
    pub queue: Box<dyn QueueDiscipline>,
    /// The packet being serialized, if any.
    pub in_service: Option<InService>,
    /// Optional random packet discard.
    pub fault: Option<FaultInjector>,
    /// Collected statistics.
    pub stats: ChannelStats,
    /// The bandwidth the channel was constructed with; [`Channel::restore`]
    /// returns to this value whatever overrides a degrade applied.
    pub base_bandwidth_bps: u64,
    /// `true` while a [`Channel::degrade`] override is in effect.
    pub degraded: bool,
}

impl Channel {
    /// Build a channel from `from` to `to`.
    pub fn new(
        id: ChannelId,
        from: NodeId,
        to: NodeId,
        bandwidth_bps: u64,
        prop_delay: SimDuration,
        queue_cfg: &QueueConfig,
    ) -> Self {
        assert!(bandwidth_bps > 0, "channel bandwidth must be positive");
        Channel {
            id,
            from,
            to,
            bandwidth_bps,
            prop_delay,
            queue: queue_cfg.build(),
            in_service: None,
            fault: None,
            stats: ChannelStats::default(),
            base_bandwidth_bps: bandwidth_bps,
            degraded: false,
        }
    }

    /// Service time of one `size_bytes` packet on this channel: at least
    /// a nanosecond, so an empty packet cannot leave in the same instant as
    /// its predecessor.
    pub fn service_time(&self, size_bytes: u32) -> SimDuration {
        SimDuration::from_nanos(crate::packet::tx_nanos(size_bytes, self.bandwidth_bps).max(1))
    }

    /// The transmission in service ends, at its recorded `end`: close the
    /// books on it and pull the next packet out of the buffer, if any.
    pub(crate) fn finish_tx(&mut self) -> Option<PacketHandle> {
        let tx = self.in_service.take().expect("no transmission in service");
        self.stats.record_tx_end(tx.end);
        self.stats.transmitted += 1;
        self.stats.bytes_transmitted += tx.size_bytes as u64;
        self.queue.dequeue(tx.end)
    }

    /// Run a completion that was never filed: exactly what its event would
    /// have done on finding the buffer empty. The `dequeue` is not
    /// optional — RED arms its idle clock in it, also when an early drop
    /// onto the empty buffer disarmed it mid-service.
    pub(crate) fn settle(&mut self) {
        let next = self.finish_tx();
        debug_assert!(
            next.is_none(),
            "an unfiled completion with a packet waiting"
        );
    }

    /// Degrade the channel in place: inject `loss` (a probability in
    /// `0.0..=1.0`; `0.0` installs no fault injector, so a pure bandwidth
    /// override perturbs no RNG draws) and optionally cap the bandwidth at
    /// `bandwidth_bps`. Degrading an already-degraded channel replaces the
    /// previous override — the eventual [`Channel::restore`] still returns
    /// to the construction-time bandwidth. Drops caused by the injected
    /// loss accumulate in [`ChannelStats::fault_drops`] across repeated
    /// degrade/restore cycles.
    pub fn degrade(&mut self, loss: f64, bandwidth_bps: Option<u64>) {
        assert!(
            (0.0..=1.0).contains(&loss),
            "injected loss rate {loss} outside 0.0..=1.0"
        );
        self.fault = (loss > 0.0).then(|| FaultInjector::new(loss));
        if let Some(bw) = bandwidth_bps {
            assert!(bw > 0, "degraded bandwidth must be positive");
            self.bandwidth_bps = bw;
        }
        self.degraded = true;
    }

    /// Undo a [`Channel::degrade`]: remove the fault injector and return
    /// the bandwidth to its construction-time value. Panics when the
    /// channel is not degraded — a restore with no matching degrade is a
    /// schedule bug, not a no-op.
    pub fn restore(&mut self) {
        assert!(
            self.degraded,
            "restore on a channel that is not degraded — degrade it first"
        );
        self.fault = None;
        self.bandwidth_bps = self.base_bandwidth_bps;
        self.degraded = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_time_matches_bandwidth() {
        let ch = Channel::new(
            ChannelId(0),
            NodeId(0),
            NodeId(1),
            800_000, // 100 kB/s
            SimDuration::from_millis(5),
            &QueueConfig::paper_droptail(),
        );
        // 1000 B = 8000 bits at 800 kbps -> 10 ms.
        assert_eq!(ch.service_time(1000), SimDuration::from_millis(10));
    }

    #[test]
    fn service_always_takes_time() {
        let ch = Channel::new(
            ChannelId(0),
            NodeId(0),
            NodeId(1),
            u64::MAX,
            SimDuration::ZERO,
            &QueueConfig::paper_droptail(),
        );
        assert_eq!(ch.service_time(0), SimDuration::from_nanos(1));
        assert_eq!(ch.service_time(1), SimDuration::from_nanos(1));
    }

    #[test]
    fn degrade_and_restore_round_trip_bandwidth_and_fault() {
        let mut ch = Channel::new(
            ChannelId(0),
            NodeId(0),
            NodeId(1),
            800_000,
            SimDuration::from_millis(5),
            &QueueConfig::paper_droptail(),
        );
        ch.degrade(0.05, Some(400_000));
        assert!(ch.degraded);
        assert!(ch.fault.is_some());
        assert_eq!(ch.bandwidth_bps, 400_000);
        // Re-degrading replaces the override; restore still returns to the
        // construction-time bandwidth.
        ch.degrade(0.5, Some(200_000));
        assert_eq!(ch.bandwidth_bps, 200_000);
        ch.restore();
        assert!(!ch.degraded);
        assert!(ch.fault.is_none());
        assert_eq!(ch.bandwidth_bps, 800_000);
    }

    #[test]
    fn zero_loss_degrade_installs_no_fault_injector() {
        let mut ch = Channel::new(
            ChannelId(0),
            NodeId(0),
            NodeId(1),
            800_000,
            SimDuration::ZERO,
            &QueueConfig::paper_droptail(),
        );
        ch.degrade(0.0, Some(100_000));
        assert!(ch.fault.is_none(), "0% loss must not perturb the RNG");
        assert_eq!(ch.bandwidth_bps, 100_000);
        ch.restore();
        assert_eq!(ch.bandwidth_bps, 800_000);
    }

    #[test]
    fn full_loss_degrade_is_accepted() {
        let mut ch = Channel::new(
            ChannelId(0),
            NodeId(0),
            NodeId(1),
            800_000,
            SimDuration::ZERO,
            &QueueConfig::paper_droptail(),
        );
        ch.degrade(1.0, None);
        assert!(ch.fault.is_some());
        assert_eq!(ch.bandwidth_bps, 800_000);
    }

    #[test]
    #[should_panic(expected = "not degraded")]
    fn restore_without_degrade_panics() {
        let mut ch = Channel::new(
            ChannelId(0),
            NodeId(0),
            NodeId(1),
            800_000,
            SimDuration::ZERO,
            &QueueConfig::paper_droptail(),
        );
        ch.restore();
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn zero_bandwidth_rejected() {
        Channel::new(
            ChannelId(0),
            NodeId(0),
            NodeId(1),
            0,
            SimDuration::ZERO,
            &QueueConfig::paper_droptail(),
        );
    }
}
