//! RLA sender configuration.

use netsim::time::SimDuration;
use transport::defaults;

/// How the window-cut probability threshold `pthresh` is derived for a
/// congestion signal from receiver `i` (paper §3.3 rule 3 and §5.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PthreshPolicy {
    /// The restricted-topology rule: `pthresh = 1 / num_trouble_rcvr`.
    Equal,
    /// The generalized rule for unequal round-trip times (§5.3):
    /// `pthresh = (srtt_i / srtt_max)^exponent / num_trouble_rcvr`.
    /// The paper uses `exponent = 2` because TCP throughput scales as
    /// `RTT^-k` with `1 <= k < 2`.
    RttScaled {
        /// The exponent `k` of `f(x) = x^k`.
        exponent: f64,
    },
}

impl PthreshPolicy {
    /// The paper's generalized policy, `f(x) = x^2`.
    pub fn paper_rtt_scaled() -> Self {
        PthreshPolicy::RttScaled { exponent: 2.0 }
    }

    /// Compute `pthresh` for a signal from a receiver with smoothed RTT
    /// `srtt`, given the largest per-receiver RTT `srtt_max` and the
    /// current troubled-receiver count `n` (>= 1).
    pub fn pthresh(&self, srtt: f64, srtt_max: f64, n: usize) -> f64 {
        let n = n.max(1) as f64;
        match *self {
            PthreshPolicy::Equal => 1.0 / n,
            PthreshPolicy::RttScaled { exponent } => {
                if srtt_max <= 0.0 {
                    return 1.0 / n;
                }
                let x = (srtt / srtt_max).clamp(0.0, 1.0);
                x.powf(exponent) / n
            }
        }
    }
}

/// What to do about a receiver that persistently gates the whole session
/// (§4.3: "If this is not desirable, the RLA can implement an option to
/// drop this slow receiver").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SlowReceiverPolicy {
    /// The paper's default: the session waits for every receiver.
    Keep,
    /// Eject a receiver that has been the *unique* slowest, lagging the
    /// next-slowest by at least `lag_packets`, continuously for
    /// `patience`. An ejected receiver keeps getting the multicast data
    /// but no longer gates the window, feeds congestion signals, or
    /// receives repairs.
    Eject {
        /// Minimum cumulative-ack gap to the second-slowest receiver.
        lag_packets: u64,
        /// How long the gap must persist.
        patience: SimDuration,
    },
}

/// Parameters of an RLA multicast session.
///
/// Defaults follow the paper: η = 20, all retransmissions multicast
/// (`rexmit_threshold = 0`), 1000-byte packets. The window bounds and the
/// dup-threshold are not settings: the sender reads them from
/// [`transport::defaults`].
#[derive(Debug, Clone)]
pub struct RlaConfig {
    /// Data packet size on the wire, bytes.
    pub packet_size: u32,
    /// Receiver acknowledgment size, bytes.
    pub ack_size: u32,
    /// The η constant of rule 6: a receiver is troubled while its average
    /// congestion-signal interval is below `η * min_congestion_interval`.
    pub eta: f64,
    /// EWMA gain for the per-receiver congestion-interval average.
    pub interval_gain: f64,
    /// If more than this many receivers request a retransmission it is
    /// multicast, otherwise unicast to each requester (footnote 8). The
    /// paper's simulations use 0: everything multicast.
    pub rexmit_threshold: usize,
    /// Window-cut probability policy.
    pub pthresh_policy: PthreshPolicy,
    /// Policy for a receiver that persistently gates the session (§4.3).
    pub slow_receiver_policy: SlowReceiverPolicy,
    /// Lower bound on per-receiver retransmission timeouts.
    pub min_rto: SimDuration,
    /// Upper bound on per-receiver retransmission timeouts.
    pub max_rto: SimDuration,
}

impl Default for RlaConfig {
    fn default() -> Self {
        RlaConfig {
            packet_size: defaults::PACKET_SIZE,
            ack_size: defaults::ACK_SIZE,
            eta: 20.0,
            interval_gain: 0.125,
            rexmit_threshold: 0,
            pthresh_policy: PthreshPolicy::Equal,
            slow_receiver_policy: SlowReceiverPolicy::Keep,
            min_rto: defaults::MIN_RTO,
            max_rto: defaults::MAX_RTO,
        }
    }
}

impl RlaConfig {
    /// Validate invariants; called by the sender constructor.
    pub fn validate(&self) {
        assert!(self.packet_size > 0, "packet size must be positive");
        assert!(self.eta >= 1.0, "eta must be at least 1");
        assert!(
            self.interval_gain > 0.0 && self.interval_gain <= 1.0,
            "interval gain must be in (0, 1]"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        let cfg = RlaConfig::default();
        cfg.validate();
        assert_eq!(cfg.slow_receiver_policy, SlowReceiverPolicy::Keep);
    }

    #[test]
    fn equal_policy_is_inverse_count() {
        let p = PthreshPolicy::Equal;
        assert_eq!(p.pthresh(0.1, 0.3, 4), 0.25);
        assert_eq!(p.pthresh(0.1, 0.3, 0), 1.0, "count clamps at 1");
    }

    #[test]
    fn rtt_scaled_policy_squashes_near_receivers() {
        let p = PthreshPolicy::paper_rtt_scaled();
        // Equal RTTs degenerate to the Equal policy.
        assert!((p.pthresh(0.2, 0.2, 5) - 0.2).abs() < 1e-12);
        // Half the max RTT -> a quarter of the cut probability.
        assert!((p.pthresh(0.1, 0.2, 5) - 0.25 / 5.0).abs() < 1e-12);
        // Degenerate max RTT falls back to Equal.
        assert_eq!(p.pthresh(0.1, 0.0, 5), 0.2);
    }

    #[test]
    #[should_panic(expected = "eta")]
    fn bad_eta_rejected() {
        RlaConfig {
            eta: 0.5,
            ..Default::default()
        }
        .validate();
    }
}
