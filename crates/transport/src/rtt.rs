//! Round-trip time estimation and the retransmission timeout.
//!
//! Jacobson's estimator (`srtt`, `rttvar`) with exponential backoff, as in
//! RFC 6298 and the NS2 agents the paper simulated against. One
//! implementation shared by the TCP senders, the RLA's per-receiver
//! estimators and the baselines.

use netsim::time::SimDuration;

/// RTT estimator and RTO computation.
#[derive(Debug, Clone)]
pub struct RttEstimator {
    srtt: Option<SimDuration>,
    /// The raw most-recent accepted sample (Karn-ambiguous ones excluded).
    last_sample: Option<SimDuration>,
    rttvar: SimDuration,
    min_rto: SimDuration,
    max_rto: SimDuration,
    /// Current backoff multiplier (doubles per timeout, resets on new ack).
    backoff: u32,
}

impl RttEstimator {
    /// A fresh estimator with the given RTO clamp.
    pub fn new(min_rto: SimDuration, max_rto: SimDuration) -> Self {
        RttEstimator {
            srtt: None,
            last_sample: None,
            rttvar: SimDuration::ZERO,
            min_rto,
            max_rto,
            backoff: 0,
        }
    }

    /// Fold in a new RTT sample (and clear any timeout backoff, since a
    /// sample implies forward progress).
    pub fn sample(&mut self, rtt: SimDuration) {
        self.last_sample = Some(rtt);
        match self.srtt {
            None => {
                self.srtt = Some(rtt);
                self.rttvar = rtt / 2;
            }
            Some(srtt) => {
                let err = if rtt > srtt { rtt - srtt } else { srtt - rtt };
                // rttvar <- 3/4 rttvar + 1/4 |err| ; srtt <- 7/8 srtt + 1/8 rtt
                self.rttvar =
                    SimDuration::from_nanos((self.rttvar.as_nanos() / 4) * 3 + err.as_nanos() / 4);
                self.srtt = Some(SimDuration::from_nanos(
                    (srtt.as_nanos() / 8) * 7 + rtt.as_nanos() / 8,
                ));
            }
        }
        self.backoff = 0;
    }

    /// Karn's algorithm: fold in the sample only when the acknowledged
    /// segment was never retransmitted — an ack for a retransmitted
    /// segment is ambiguous (it may answer either transmission), so it
    /// must neither update the estimate nor clear the timeout backoff.
    /// Returns whether the sample was taken.
    pub fn karn_sample(&mut self, rtt: SimDuration, retransmitted: bool) -> bool {
        if retransmitted {
            return false;
        }
        self.sample(rtt);
        true
    }

    /// The smoothed round-trip time, if any sample has been taken.
    ///
    /// `None` before the first measurement — callers must not invent a
    /// default here; reporting an SRTT that was never measured is exactly
    /// the bug the raw accessors exist to avoid.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt
    }

    /// The raw, unsmoothed most-recent RTT sample, if any has been
    /// accepted. Karn-ambiguous samples (rejected by
    /// [`RttEstimator::karn_sample`]) do not appear here: an ambiguous
    /// measurement is as wrong for a min-RTT filter as it is for the
    /// smoother. This is the accessor BBR's min-RTT filter feeds on —
    /// smoothing would hide exactly the queue-drain minima it looks for.
    pub fn last_sample(&self) -> Option<SimDuration> {
        self.last_sample
    }

    /// The current retransmission timeout (backoff included, clamped).
    pub fn rto(&self) -> SimDuration {
        let base = match self.srtt {
            None => SimDuration::from_secs(3), // RFC 6298 initial RTO
            Some(srtt) => srtt.saturating_add(self.rttvar * 4),
        };
        let factor = 1u64 << self.backoff.min(16);
        let backed = SimDuration::from_nanos(base.as_nanos().saturating_mul(factor));
        backed.clamp(self.min_rto, self.max_rto)
    }

    /// A retransmission timer expired: double the RTO.
    pub fn on_timeout(&mut self) {
        self.backoff = (self.backoff + 1).min(16);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn est() -> RttEstimator {
        RttEstimator::new(SimDuration::from_millis(200), SimDuration::from_secs(64))
    }

    #[test]
    fn first_sample_initializes() {
        let mut e = est();
        assert_eq!(e.srtt(), None);
        e.sample(SimDuration::from_millis(100));
        assert_eq!(e.srtt(), Some(SimDuration::from_millis(100)));
        // rto = srtt + 4*rttvar = 100 + 4*50 = 300 ms.
        assert_eq!(e.rto(), SimDuration::from_millis(300));
    }

    #[test]
    fn no_estimate_is_reported_before_any_measurement() {
        // Regression: a fresh estimator must answer `None` for both the
        // smoothed and the raw views — not an NS2-style default the
        // caller could mistake for a measurement.
        let e = est();
        assert_eq!(e.srtt(), None);
        assert_eq!(e.last_sample(), None);
    }

    #[test]
    fn last_sample_is_raw_and_karn_filtered() {
        let mut e = est();
        e.sample(SimDuration::from_millis(100));
        e.sample(SimDuration::from_millis(60));
        // The smoother has barely moved, the raw view is exactly 60 ms.
        assert_eq!(e.last_sample(), Some(SimDuration::from_millis(60)));
        assert!(e.srtt().unwrap() > SimDuration::from_millis(90));
        // A Karn-ambiguous sample must not leak into the raw view either.
        assert!(!e.karn_sample(SimDuration::from_secs(5), true));
        assert_eq!(e.last_sample(), Some(SimDuration::from_millis(60)));
    }

    #[test]
    fn smoothing_converges_to_constant_rtt() {
        let mut e = est();
        for _ in 0..100 {
            e.sample(SimDuration::from_millis(80));
        }
        let srtt = e.srtt().unwrap().as_secs_f64();
        assert!((srtt - 0.080).abs() < 0.001, "srtt = {srtt}");
        // With zero variance the RTO pins at the minimum.
        assert_eq!(e.rto(), SimDuration::from_millis(200));
    }

    #[test]
    fn backoff_doubles_and_sample_resets() {
        let mut e = est();
        e.sample(SimDuration::from_millis(100));
        let base = e.rto();
        e.on_timeout();
        assert_eq!(e.rto().as_nanos(), base.as_nanos() * 2);
        e.on_timeout();
        assert_eq!(e.rto().as_nanos(), base.as_nanos() * 4);
        e.sample(SimDuration::from_millis(100));
        assert!(e.rto() <= base, "backoff must clear on a new sample");
    }

    #[test]
    fn rto_clamped_at_max() {
        let mut e = est();
        e.sample(SimDuration::from_secs(1));
        for _ in 0..20 {
            e.on_timeout();
        }
        assert_eq!(e.rto(), SimDuration::from_secs(64));
    }

    #[test]
    fn initial_rto_without_samples() {
        assert_eq!(est().rto(), SimDuration::from_secs(3));
    }

    #[test]
    fn karn_skips_retransmitted_segments() {
        let mut e = est();
        e.sample(SimDuration::from_millis(100));
        let srtt = e.srtt();
        let rto = e.rto();
        // A wildly different RTT measured off a retransmitted segment must
        // leave the estimate untouched.
        assert!(!e.karn_sample(SimDuration::from_secs(5), true));
        assert_eq!(e.srtt(), srtt);
        assert_eq!(e.rto(), rto);
        // A clean segment's sample is folded in normally.
        assert!(e.karn_sample(SimDuration::from_millis(100), false));
        assert_eq!(e.srtt(), srtt);
    }

    #[test]
    fn karn_preserves_timeout_backoff() {
        let mut e = est();
        e.sample(SimDuration::from_millis(100));
        e.on_timeout();
        let backed = e.rto();
        // An ambiguous sample must not clear the backoff...
        assert!(!e.karn_sample(SimDuration::from_millis(100), true));
        assert_eq!(e.rto(), backed);
        // ...but an unambiguous one does.
        assert!(e.karn_sample(SimDuration::from_millis(100), false));
        assert!(e.rto() < backed);
    }

    #[test]
    fn backoff_factor_caps_at_two_to_the_sixteen() {
        // A huge max_rto exposes the raw backoff factor: after 16 timeouts
        // the multiplier must stop doubling (no shift overflow, no runaway
        // RTO) no matter how many more timeouts fire.
        let mut e = RttEstimator::new(SimDuration::from_millis(1), SimDuration::from_secs(100_000));
        e.sample(SimDuration::from_millis(100));
        let base = e.rto();
        for _ in 0..16 {
            e.on_timeout();
        }
        let capped = e.rto();
        assert_eq!(capped.as_nanos(), base.as_nanos() * (1 << 16));
        for _ in 0..100 {
            e.on_timeout();
        }
        assert_eq!(e.rto(), capped, "backoff factor must saturate");
    }

    proptest! {
        /// From any starting sample, repeated constant samples converge the
        /// smoothed RTT to that constant (within the estimator's integer
        /// truncation) and the RTO stays within its clamp.
        #[test]
        fn srtt_converges_under_constant_samples(
            initial_ns in 1u64..10_000_000_000,
            constant_ns in 1u64..10_000_000_000,
        ) {
            let mut e = est();
            e.sample(SimDuration::from_nanos(initial_ns));
            for _ in 0..256 {
                e.sample(SimDuration::from_nanos(constant_ns));
            }
            let srtt = e.srtt().unwrap().as_nanos();
            // 7/8-smoothing decays the initial error below a nanosecond in
            // well under 256 steps; what remains is the /8 truncation.
            let diff = srtt.abs_diff(constant_ns);
            prop_assert!(diff <= 64, "srtt {srtt} vs constant {constant_ns}");
            let rto = e.rto();
            prop_assert!(rto >= SimDuration::from_millis(200));
            prop_assert!(rto <= SimDuration::from_secs(64));
        }
    }
}
