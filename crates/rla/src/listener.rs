//! Random listening as one pure state machine (paper §3.3, rules 2–3).
//!
//! The [`Listener`] turns a receiver's loss events into window decisions:
//!
//! * rule 2 — losses within `2·srtt_i` of the start of receiver `i`'s
//!   congestion period are one congestion signal;
//! * rule 6 — a signal from a receiver that is not troubled (η rule, see
//!   [`TroubleTracker`]) is skipped;
//! * rule 3 — a troubled signal forces a cut when none has happened for
//!   `2·awnd` session round trips, and otherwise cuts with probability
//!   `pthresh` (the random-listening draw).
//!
//! It reads no clock and owns no generator: the caller passes `now`, the
//! round-trip times, `awnd` and the random source, and applies the
//! returned [`Decision`] to its window — [`crate::RlaSender`] with the
//! engine's clock and generator, a test with a manual clock.

use rand::Rng;

use netsim::time::{SimDuration, SimTime};
use transport::CongestionEpoch;

use crate::config::{PthreshPolicy, RlaConfig};
use crate::trouble::TroubleTracker;

/// What one loss event from one receiver did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Decision {
    /// The loss fell inside the receiver's current congestion period: no
    /// new signal.
    SamePeriod,
    /// A new signal from a receiver that is not troubled: skipped.
    Rare,
    /// A troubled signal after more than `2·awnd·srtt_max` without a cut:
    /// the window is cut without a draw.
    Forced,
    /// The random-listening draw for a troubled signal.
    Randomized {
        /// The troubled-receiver count the draw used (at least 1).
        n: usize,
        /// The cut probability.
        pthresh: f64,
        /// The uniform draw in `[0, 1)`.
        draw: f64,
        /// Whether the window is cut (`draw <= pthresh`).
        cut: bool,
    },
}

impl Decision {
    /// Whether the window is cut.
    pub fn cuts(&self) -> bool {
        matches!(
            self,
            Decision::Forced | Decision::Randomized { cut: true, .. }
        )
    }
}

/// Rules 2–3 over a session's receivers.
#[derive(Debug)]
pub struct Listener {
    /// Each receiver's current congestion period (rule 2).
    periods: Vec<CongestionEpoch>,
    trouble: TroubleTracker,
    /// When the window was last cut (the forced-cut horizon's origin).
    last_cut: CongestionEpoch,
    policy: PthreshPolicy,
}

impl Listener {
    /// A listener for `receivers` receivers with `cfg`'s η, EWMA gain and
    /// pthresh policy; the forced-cut horizon starts at `now`.
    pub fn new(receivers: usize, now: SimTime, cfg: &RlaConfig) -> Self {
        let mut last_cut = CongestionEpoch::new();
        last_cut.mark(now);
        Listener {
            periods: vec![CongestionEpoch::new(); receivers],
            trouble: TroubleTracker::new(receivers, cfg.eta, cfg.interval_gain),
            last_cut,
            policy: cfg.pthresh_policy,
        }
    }

    /// Track one more receiver (a mid-session join).
    pub fn add_receiver(&mut self) {
        self.periods.push(CongestionEpoch::new());
        self.trouble.add_receiver();
    }

    /// Forget receiver `idx`'s signal history: it stops counting as
    /// troubled at once.
    pub fn deactivate(&mut self, idx: usize) {
        self.trouble.deactivate(idx);
    }

    /// The dynamic `num_trouble_rcvr` at `now`.
    pub fn troubled_count(&self, now: SimTime) -> usize {
        self.trouble.troubled_count(now)
    }

    /// One loss event from receiver `idx` at `now`, whose smoothed RTT is
    /// `srtt_i`; `srtt_max` is the session's largest smoothed RTT in
    /// seconds (0 before any sample) and `awnd` the moving-average window.
    /// `rng` is drawn from only for a [`Decision::Randomized`].
    pub fn on_loss(
        &mut self,
        idx: usize,
        now: SimTime,
        srtt_i: SimDuration,
        srtt_max: f64,
        awnd: f64,
        rng: &mut impl Rng,
    ) -> Decision {
        if !self.periods[idx].note_loss(now, srtt_i.mul_f64(2.0)) {
            return Decision::SamePeriod;
        }
        self.trouble.record_signal(idx, now);
        if !self.trouble.is_troubled(idx, now) {
            return Decision::Rare;
        }
        // Growth is clocked by acked-by-all progress, so "2·awnd round
        // trips" means the session's (slowest) RTT: a near receiver's own
        // srtt (30 ms against 230 ms in figure 10) would force cuts every
        // fraction of a window period and collapse the window.
        let session_srtt = if srtt_max > 0.0 {
            SimDuration::from_secs_f64(srtt_max)
        } else {
            srtt_i
        };
        let horizon = session_srtt.mul_f64(2.0 * awnd.max(1.0));
        if self.last_cut.elapsed_exceeds(now, horizon) {
            self.last_cut.mark(now);
            return Decision::Forced;
        }
        let n = self.trouble.troubled_count(now).max(1);
        let pthresh = self.policy.pthresh(srtt_i.as_secs_f64(), srtt_max, n);
        let draw: f64 = rng.gen();
        let cut = draw <= pthresh;
        if cut {
            self.last_cut.mark(now);
        }
        Decision::Randomized {
            n,
            pthresh,
            draw,
            cut,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const RTT: SimDuration = SimDuration::from_millis(100);

    fn ms(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn listener(receivers: usize) -> Listener {
        Listener::new(receivers, SimTime::ZERO, &RlaConfig::default())
    }

    /// A loss from `idx` at `at`, every receiver at `RTT` and a window
    /// average large enough that no cut is ever forced.
    fn loss(l: &mut Listener, idx: usize, at: SimTime, rng: &mut StdRng) -> Decision {
        l.on_loss(idx, at, RTT, RTT.as_secs_f64(), 1e6, rng)
    }

    #[test]
    fn losses_within_two_srtt_are_one_signal() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut l = listener(1);
        assert_ne!(loss(&mut l, 0, ms(1000), &mut rng), Decision::SamePeriod);
        assert_eq!(loss(&mut l, 0, ms(1100), &mut rng), Decision::SamePeriod);
        // 2·srtt after the period's start the period is still open ...
        assert_eq!(loss(&mut l, 0, ms(1200), &mut rng), Decision::SamePeriod);
        // ... and the next loss past it opens a new one.
        assert_ne!(loss(&mut l, 0, ms(1201), &mut rng), Decision::SamePeriod);
        assert_eq!(loss(&mut l, 0, ms(1300), &mut rng), Decision::SamePeriod);
    }

    #[test]
    fn a_receiver_fifty_times_rarer_than_the_busiest_is_skipped() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut l = listener(2);
        for k in 0..=200 {
            assert_ne!(
                loss(&mut l, 0, ms(1000 * k), &mut rng),
                Decision::SamePeriod
            );
            if k % 50 == 0 {
                let at = ms(1000 * k + 500);
                let rare = loss(&mut l, 1, at, &mut rng);
                if k >= 50 {
                    assert_eq!(rare, Decision::Rare, "signal at {at}");
                }
            }
        }
        assert_eq!(l.troubled_count(ms(200_500)), 1);
    }

    #[test]
    fn a_troubled_signal_past_the_horizon_forces_a_cut_and_restarts_it() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut l = listener(1);
        // awnd 10 at srtt_max 0.3 s: the horizon is 6 s, whatever the
        // signalling receiver's own srtt.
        let mut at = |ms: SimTime| l.on_loss(0, ms, RTT, 0.3, 10.0, &mut rng);
        assert_eq!(at(ms(6001)), Decision::Forced);
        // 6.3 s after the listener started, but 0.3 s after the forced cut.
        assert!(matches!(at(ms(6300)), Decision::Randomized { .. }));
    }

    #[test]
    fn a_signal_at_the_horizon_is_not_forced() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut l = listener(1);
        let d = l.on_loss(0, ms(6000), RTT, 0.3, 10.0, &mut rng);
        assert!(matches!(d, Decision::Randomized { .. }), "{d:?}");
    }

    #[test]
    fn cuts_are_one_per_n_signals() {
        // n receivers signalling in turn, each once a second; after one
        // round every receiver is troubled, and 10⁴ draws put the cut
        // share within 4σ of 1/n.
        for n in [1u64, 3, 9, 27] {
            let mut rng = StdRng::seed_from_u64(n);
            let mut l = listener(n as usize);
            let (mut draws, mut cuts) = (0u32, 0u32);
            for k in 0.. {
                let at = ms(1000 * k / n);
                let decision = loss(&mut l, (k % n) as usize, at, &mut rng);
                if k < n {
                    continue;
                }
                let Decision::Randomized {
                    n: counted, cut, ..
                } = decision
                else {
                    panic!("n = {n}: signal at {at} was {decision:?}");
                };
                assert_eq!(counted as u64, n, "troubled count at {at}");
                draws += 1;
                cuts += u32::from(cut);
                if draws == 10_000 {
                    break;
                }
            }
            let p = 1.0 / n as f64;
            let sigma = (p * (1.0 - p) / f64::from(draws)).sqrt();
            let share = f64::from(cuts) / f64::from(draws);
            assert!(
                (share - p).abs() <= 4.0 * sigma,
                "n = {n}: cut share {share:.4}, want {p:.4} ± {:.4}",
                4.0 * sigma
            );
        }
    }

    #[test]
    fn rtt_scaled_pthresh_is_the_square_of_the_rtt_ratio_over_n() {
        let cfg = RlaConfig {
            pthresh_policy: PthreshPolicy::RttScaled,
            ..RlaConfig::default()
        };
        let mut l = Listener::new(2, SimTime::ZERO, &cfg);
        let mut rng = StdRng::seed_from_u64(4);
        let near = SimDuration::from_millis(50);
        let mut last = Decision::SamePeriod;
        for k in 1..=20 {
            l.on_loss(1, ms(1000 * k), RTT, 0.2, 1e6, &mut rng);
            last = l.on_loss(0, ms(1000 * k + 500), near, 0.2, 1e6, &mut rng);
        }
        let Decision::Randomized { n, pthresh, .. } = last else {
            panic!("near receiver's signal was {last:?}");
        };
        assert_eq!(n, 2);
        // (0.05 / 0.2)² / 2
        assert!((pthresh - 0.0625 / 2.0).abs() < 1e-12, "{pthresh}");
    }
}
