//! RLA sender configuration.

use transport::defaults;

/// The exponent `k` of the RTT-scaled rule's `f(x) = x^k`. The paper uses
/// 2 because TCP throughput scales as `RTT^-k` with `1 <= k < 2`.
const RTT_EXPONENT: f64 = 2.0;

/// How the window-cut probability threshold `pthresh` is derived for a
/// congestion signal from receiver `i` (paper §3.3 rule 3 and §5.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PthreshPolicy {
    /// The restricted-topology rule: `pthresh = 1 / num_trouble_rcvr`.
    Equal,
    /// The generalized rule for unequal round-trip times (§5.3):
    /// `pthresh = (srtt_i / srtt_max)^2 / num_trouble_rcvr`.
    RttScaled,
}

impl PthreshPolicy {
    /// Compute `pthresh` for a signal from a receiver with smoothed RTT
    /// `srtt`, given the largest per-receiver RTT `srtt_max` and the
    /// current troubled-receiver count `n` (>= 1).
    pub fn pthresh(&self, srtt: f64, srtt_max: f64, n: usize) -> f64 {
        let n = n.max(1) as f64;
        match *self {
            PthreshPolicy::Equal => 1.0 / n,
            PthreshPolicy::RttScaled => {
                if srtt_max <= 0.0 {
                    return 1.0 / n;
                }
                let x = (srtt / srtt_max).clamp(0.0, 1.0);
                x.powf(RTT_EXPONENT) / n
            }
        }
    }
}

/// Parameters of an RLA multicast session.
///
/// Defaults follow the paper: η = 20, all retransmissions multicast
/// (`rexmit_threshold = 0`), 1000-byte packets. The window bounds, the
/// dup-threshold and the RTO clamp are not settings: the sender and its
/// loss recovery read them from [`transport::defaults`]. Nor is §4.3's
/// slow receiver: the session waits for every receiver, and a receiver
/// leaves the control loop only through [`crate::RlaSender::remove_receiver`].
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
    }

    #[test]
    fn equal_policy_is_inverse_count() {
        let p = PthreshPolicy::Equal;
        assert_eq!(p.pthresh(0.1, 0.3, 4), 0.25);
        assert_eq!(p.pthresh(0.1, 0.3, 0), 1.0, "count clamps at 1");
    }

    #[test]
    fn rtt_scaled_policy_squashes_near_receivers() {
        let p = PthreshPolicy::RttScaled;
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
