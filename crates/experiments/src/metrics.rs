//! Result rows collected from a scenario run.

use crate::events::ScenarioEvent;
use crate::scenario::GatewayKind;

/// The RLA sender's row of figure 7/9/10.
#[derive(Debug, Clone)]
pub struct RlaRow {
    /// Average throughput over the measurement window, pkt/s.
    pub throughput_pps: f64,
    /// Time-weighted average congestion window, packets.
    pub cwnd_avg: f64,
    /// Mean RTT of packets delivered to all receivers without
    /// retransmission, seconds.
    pub rtt_avg: f64,
    /// Congestion signals detected from all receivers.
    pub cong_signals: u64,
    /// Congestion signals per receiver (figure 8).
    pub cong_signals_per_receiver: Vec<u64>,
    /// Window cuts taken (randomized + forced).
    pub window_cuts: u64,
    /// Forced cuts alone.
    pub forced_cuts: u64,
    /// Per-receiver ack timeouts.
    pub timeouts: u64,
    /// Retransmissions (multicast + unicast).
    pub retransmits: u64,
}

/// One competing TCP connection's row.
#[derive(Debug, Clone)]
pub struct TcpRow {
    /// Index of the receiver node this connection terminates at.
    pub receiver_index: usize,
    /// Average throughput, pkt/s.
    pub throughput_pps: f64,
    /// Time-weighted average congestion window, packets.
    pub cwnd_avg: f64,
    /// Mean RTT sample, seconds.
    pub rtt_avg: f64,
    /// Window cuts (fast recovery + timeouts) — TCP's congestion signals.
    pub window_cuts: u64,
    /// Timeouts alone.
    pub timeouts: u64,
}

/// Everything measured from one scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// The paper's congested-link label.
    pub case_label: String,
    /// Gateway type used.
    pub gateway: GatewayKind,
    /// Receiver indices on congested branches (empty = all equal).
    pub congested_leaves: Vec<usize>,
    /// Length of the measurement window, seconds.
    pub measured_secs: f64,
    /// Simulation seed the run used.
    pub seed: u64,
    /// Order-sensitive digest of the full packet-event stream (see
    /// `netsim::trace::TraceDigest`). Two runs with the same digest
    /// enqueued, dropped, transmitted and delivered exactly the same
    /// packets at the same instants.
    pub trace_digest: u64,
    /// Number of trace events folded into `trace_digest`.
    pub trace_events: u64,
    /// The scheduled event sequence the run executed (empty for static
    /// scenarios). Recorded in the manifest so a dynamic run is fully
    /// described by its entry.
    pub events: Vec<ScenarioEvent>,
    /// RLA sessions, in creation order.
    pub rla: Vec<RlaRow>,
    /// TCP connections, in receiver order.
    pub tcp: Vec<TcpRow>,
    /// Snapshot of the run's metric registry: every per-flow counter
    /// block plus network-wide channel aggregates, each written by its
    /// block's `export`. Serialized into the
    /// run manifest's `registry` section.
    pub registry: telemetry::Snapshot,
}

impl ScenarioResult {
    /// The worst-performing competing TCP connection (the paper's WTCP).
    pub fn worst_tcp(&self) -> Option<&TcpRow> {
        self.tcp
            .iter()
            .min_by(|a, b| a.throughput_pps.total_cmp(&b.throughput_pps))
    }

    /// The best-performing competing TCP connection (BTCP).
    pub fn best_tcp(&self) -> Option<&TcpRow> {
        self.tcp
            .iter()
            .max_by(|a, b| a.throughput_pps.total_cmp(&b.throughput_pps))
    }

    /// Mean TCP throughput over all connections.
    pub fn avg_tcp_throughput(&self) -> f64 {
        if self.tcp.is_empty() {
            return 0.0;
        }
        self.tcp.iter().map(|t| t.throughput_pps).sum::<f64>() / self.tcp.len() as f64
    }

    /// The TCP flows on congested branches — the soft-bottleneck
    /// competitors the fairness definition compares against. When every
    /// branch is equally congested this is all of them.
    pub fn bottleneck_tcp(&self) -> Vec<&TcpRow> {
        if self.congested_leaves.is_empty() {
            self.tcp.iter().collect()
        } else {
            self.tcp
                .iter()
                .filter(|t| self.congested_leaves.contains(&t.receiver_index))
                .collect()
        }
    }

    /// Mean throughput of the soft-bottleneck TCP flows.
    pub fn bottleneck_tcp_throughput(&self) -> f64 {
        let rows = self.bottleneck_tcp();
        if rows.is_empty() {
            return 0.0;
        }
        rows.iter().map(|t| t.throughput_pps).sum::<f64>() / rows.len() as f64
    }
}

/// Worst / best / average of a set of per-branch counts (figure 8's rows).
#[derive(Debug, Clone, Copy)]
pub struct BranchSignalStats {
    /// Largest per-branch count.
    pub worst: u64,
    /// Smallest per-branch count.
    pub best: u64,
    /// Mean per-branch count.
    pub average: f64,
}

impl BranchSignalStats {
    /// Summarize a nonempty slice of per-branch counts.
    pub fn from_counts(counts: &[u64]) -> Option<Self> {
        if counts.is_empty() {
            return None;
        }
        Some(BranchSignalStats {
            worst: *counts.iter().max().expect("nonempty"),
            best: *counts.iter().min().expect("nonempty"),
            average: counts.iter().sum::<u64>() as f64 / counts.len() as f64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result_with_tcp(tputs: &[f64]) -> ScenarioResult {
        ScenarioResult {
            case_label: "test".into(),
            gateway: GatewayKind::DropTail,
            congested_leaves: vec![],
            measured_secs: 1.0,
            seed: 1,
            trace_digest: 0,
            trace_events: 0,
            events: vec![],
            registry: telemetry::Snapshot::default(),
            rla: vec![],
            tcp: tputs
                .iter()
                .enumerate()
                .map(|(i, &t)| TcpRow {
                    receiver_index: i,
                    throughput_pps: t,
                    cwnd_avg: 0.0,
                    rtt_avg: 0.0,
                    window_cuts: 0,
                    timeouts: 0,
                })
                .collect(),
        }
    }

    #[test]
    fn worst_best_avg() {
        let r = result_with_tcp(&[80.0, 120.0, 100.0]);
        assert_eq!(r.worst_tcp().unwrap().throughput_pps, 80.0);
        assert_eq!(r.best_tcp().unwrap().throughput_pps, 120.0);
        assert!((r.avg_tcp_throughput() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn bottleneck_filter() {
        let mut r = result_with_tcp(&[80.0, 120.0, 100.0]);
        r.congested_leaves = vec![1];
        assert_eq!(r.bottleneck_tcp().len(), 1);
        assert_eq!(r.bottleneck_tcp_throughput(), 120.0);
        r.congested_leaves.clear();
        assert_eq!(r.bottleneck_tcp().len(), 3);
    }

    #[test]
    fn branch_stats() {
        let s = BranchSignalStats::from_counts(&[861, 820, 840]).unwrap();
        assert_eq!(s.worst, 861);
        assert_eq!(s.best, 820);
        assert!((s.average - 840.333).abs() < 0.001);
        assert!(BranchSignalStats::from_counts(&[]).is_none());
    }
}
