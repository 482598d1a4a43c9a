//! Per-flow sender statistics shared by the window-based senders.
//!
//! [`SenderStats`] (moved here from `tcp_sack::sender`, which re-exports
//! it) is the windowed counter block every unicast sender keeps, fed
//! through the [`netsim::stats`] accumulators ([`TimeWeighted`],
//! [`Running`]) and exported through [`SenderStats::export`].

use netsim::stats::{Running, TimeWeighted};
use netsim::time::SimTime;
use telemetry::Registry;

/// Sender-side statistics for the paper's tables.
#[derive(Debug, Clone)]
pub struct SenderStats {
    /// Packets newly delivered (cumulative-ack progress) since the last
    /// reset — the throughput numerator.
    pub delivered: u64,
    /// Data packets transmitted (including retransmissions).
    pub data_sent: u64,
    /// Retransmissions.
    pub retransmits: u64,
    /// Fast-recovery window cuts (the paper's "# wnd cut" less timeouts).
    pub window_cuts: u64,
    /// Retransmission timeouts.
    pub timeouts: u64,
    /// Time-weighted average congestion window.
    pub cwnd_avg: TimeWeighted,
    /// RTT samples.
    pub rtt: Running,
    /// When the statistics window began.
    pub since: SimTime,
}

impl SenderStats {
    /// A zeroed statistics window starting at `now` with the window
    /// average seeded at `cwnd`.
    pub fn new(now: SimTime, cwnd: f64) -> Self {
        SenderStats {
            delivered: 0,
            data_sent: 0,
            retransmits: 0,
            window_cuts: 0,
            timeouts: 0,
            cwnd_avg: TimeWeighted::new(now, cwnd),
            rtt: Running::new(),
            since: now,
        }
    }

    /// All congestion-window reductions (fast recovery plus timeouts).
    pub fn total_cuts(&self) -> u64 {
        self.window_cuts + self.timeouts
    }

    /// Throughput in packets per second over `[since, now]`.
    pub fn throughput_pps(&self, now: SimTime) -> f64 {
        let span = now.saturating_since(self.since).as_secs_f64();
        if span == 0.0 {
            0.0
        } else {
            self.delivered as f64 / span
        }
    }

    /// Write every reportable number into `reg` under `prefix.<metric>`
    /// (e.g. `tcp.3.delivered`), closing the time averages at `now`.
    pub fn export(&self, reg: &mut Registry, prefix: &str, now: SimTime) {
        reg.record_count(format!("{prefix}.delivered"), self.delivered);
        reg.record_count(format!("{prefix}.data_sent"), self.data_sent);
        reg.record_count(format!("{prefix}.retransmits"), self.retransmits);
        reg.record_count(format!("{prefix}.window_cuts"), self.window_cuts);
        reg.record_count(format!("{prefix}.timeouts"), self.timeouts);
        reg.record_gauge(format!("{prefix}.throughput_pps"), self.throughput_pps(now));
        reg.record_gauge(format!("{prefix}.cwnd_avg"), self.cwnd_avg.average(now));
        reg.record_gauge(format!("{prefix}.rtt_avg"), self.rtt.mean());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_over_the_window() {
        let mut s = SenderStats::new(SimTime::from_secs(100), 1.0);
        s.delivered = 500;
        assert_eq!(s.throughput_pps(SimTime::from_secs(110)), 50.0);
        // Zero-width window reports zero, not a division error.
        assert_eq!(s.throughput_pps(SimTime::from_secs(100)), 0.0);
    }
}
