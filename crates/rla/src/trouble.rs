//! Troubled-receiver accounting (paper §3.3, rule 6).
//!
//! The RLA sender reduces its window with probability `1/n` per congestion
//! signal, where `n = num_trouble_rcvr` is a *dynamic* count of receivers
//! reporting losses frequently. A congested receiver counts as troubled
//! only if its congestion probability exceeds
//! `1 / (η * min_congestion_interval)` — equivalently, if its average
//! congestion-signal interval is below `η` times the smallest average
//! interval among all receivers. The proof of the Proposition (§4.2) needs
//! every troubled receiver's congestion probability to be at least
//! `p_max / η`; with `η = 20` that leaves margin over the bound
//! `f(p_1) ≈ 0.03` required for the upper bound of equation (2).
//!
//! To make the count *adaptive* (receivers whose congestion ended must age
//! out), the interval estimate of a receiver is taken as
//! `max(EWMA, time since its last signal)`: a silent receiver's estimated
//! interval grows with its silence, and it eventually leaves the set.

use netsim::time::SimTime;

/// Per-receiver congestion-signal history.
#[derive(Debug, Clone, Default)]
pub struct CongestionHistory {
    /// Congestion signals detected from this receiver (total).
    pub signals: u64,
    /// Time of the most recent signal.
    pub last_signal: Option<SimTime>,
    /// EWMA of the interval between consecutive signals, seconds.
    pub interval_ewma: Option<f64>,
}

impl CongestionHistory {
    /// Best current estimate of this receiver's congestion-signal interval:
    /// the EWMA, but never less than the time it has now been silent.
    pub fn interval_estimate(&self, now: SimTime) -> Option<f64> {
        let last = self.last_signal?;
        let gap = now.saturating_since(last).as_secs_f64();
        Some(match self.interval_ewma {
            Some(ewma) => ewma.max(gap),
            None => gap,
        })
    }
}

/// The dynamic troubled-receiver tracker.
#[derive(Debug)]
pub struct TroubleTracker {
    eta: f64,
    gain: f64,
    histories: Vec<CongestionHistory>,
}

impl TroubleTracker {
    /// Track `n` receivers with the given η and EWMA gain.
    pub fn new(n: usize, eta: f64, gain: f64) -> Self {
        TroubleTracker {
            eta,
            gain,
            histories: vec![CongestionHistory::default(); n],
        }
    }

    /// Record a congestion signal from receiver `idx` at `now`.
    pub fn record_signal(&mut self, idx: usize, now: SimTime) {
        let h = &mut self.histories[idx];
        if let Some(last) = h.last_signal {
            let interval = now.saturating_since(last).as_secs_f64();
            h.interval_ewma = Some(match h.interval_ewma {
                Some(ewma) => ewma + self.gain * (interval - ewma),
                None => interval,
            });
        }
        h.last_signal = Some(now);
        h.signals += 1;
    }

    /// The receiver's history (for statistics).
    pub fn history(&self, idx: usize) -> &CongestionHistory {
        &self.histories[idx]
    }

    /// The smallest interval estimate among receivers with an established
    /// EWMA (>= 2 signals); falls back to single-signal receivers when no
    /// EWMA exists yet.
    pub fn min_congestion_interval(&self, now: SimTime) -> Option<f64> {
        let with_ewma = self
            .histories
            .iter()
            .filter(|h| h.interval_ewma.is_some())
            .filter_map(|h| h.interval_estimate(now))
            .fold(f64::INFINITY, f64::min);
        if with_ewma.is_finite() {
            return Some(with_ewma);
        }
        let any = self
            .histories
            .iter()
            .filter_map(|h| h.interval_estimate(now))
            .fold(f64::INFINITY, f64::min);
        any.is_finite().then_some(any)
    }

    /// Is receiver `idx` currently troubled?
    pub fn is_troubled(&self, idx: usize, now: SimTime) -> bool {
        let Some(est) = self.histories[idx].interval_estimate(now) else {
            return false; // never congested
        };
        match self.min_congestion_interval(now) {
            Some(min) => est <= self.eta * min.max(f64::MIN_POSITIVE),
            None => false,
        }
    }

    /// The dynamic `num_trouble_rcvr`.
    pub fn troubled_count(&self, now: SimTime) -> usize {
        let Some(min) = self.min_congestion_interval(now) else {
            return 0;
        };
        let bound = self.eta * min.max(f64::MIN_POSITIVE);
        self.histories
            .iter()
            .filter(|h| h.interval_estimate(now).is_some_and(|e| e <= bound))
            .count()
    }

    /// Forget a receiver's history entirely (used when a receiver leaves
    /// the sender's control loop): it immediately stops counting as
    /// troubled and contributes nothing to `min_congestion_interval`.
    pub fn deactivate(&mut self, idx: usize) {
        self.histories[idx] = CongestionHistory::default();
    }

    /// Track one more receiver (a mid-session join): it starts with an
    /// empty history, so it is not troubled until it signals. Returns the
    /// new receiver's index.
    pub fn add_receiver(&mut self) -> usize {
        self.histories.push(CongestionHistory::default());
        self.histories.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    /// Feed receiver `idx` one signal every `period` seconds over `span`.
    fn feed(tr: &mut TroubleTracker, idx: usize, period: f64, span: f64) {
        let mut at = 0.0;
        while at <= span {
            tr.record_signal(idx, t(at));
            at += period;
        }
    }

    #[test]
    fn untracked_receiver_is_not_troubled() {
        let tr = TroubleTracker::new(3, 20.0, 0.125);
        assert!(!tr.is_troubled(0, t(10.0)));
        assert_eq!(tr.troubled_count(t(10.0)), 0);
    }

    #[test]
    fn equally_congested_receivers_all_troubled() {
        let mut tr = TroubleTracker::new(3, 20.0, 0.125);
        for idx in 0..3 {
            feed(&mut tr, idx, 1.0, 30.0);
        }
        assert_eq!(tr.troubled_count(t(30.0)), 3);
        let min = tr.min_congestion_interval(t(30.0)).unwrap();
        assert!((min - 1.0).abs() < 0.05, "min interval ~1s, got {min}");
    }

    #[test]
    fn mildly_congested_receiver_stays_within_eta() {
        let mut tr = TroubleTracker::new(2, 20.0, 0.125);
        feed(&mut tr, 0, 1.0, 60.0); // heavy congestion: 1 Hz
        feed(&mut tr, 1, 15.0, 60.0); // mild: every 15 s < 20 * 1 s
        assert!(tr.is_troubled(0, t(60.0)));
        assert!(tr.is_troubled(1, t(60.0)));
        assert_eq!(tr.troubled_count(t(60.0)), 2);
    }

    #[test]
    fn rare_loss_receiver_excluded() {
        let mut tr = TroubleTracker::new(2, 20.0, 0.125);
        feed(&mut tr, 0, 1.0, 120.0); // heavy congestion
        feed(&mut tr, 1, 50.0, 120.0); // rare: every 50 s > 20 * 1 s
        assert!(tr.is_troubled(0, t(120.0)));
        assert!(!tr.is_troubled(1, t(120.0)), "rare loss must not count");
        assert_eq!(tr.troubled_count(t(120.0)), 1);
    }

    #[test]
    fn silent_receiver_ages_out() {
        let mut tr = TroubleTracker::new(2, 20.0, 0.125);
        feed(&mut tr, 0, 1.0, 100.0);
        feed(&mut tr, 1, 1.0, 50.0); // stops being congested at t=50
        assert!(tr.is_troubled(1, t(51.0)), "recently congested");
        // After a silence of more than eta * min_interval = 20 s, receiver
        // 1 must have aged out.
        for at in 100..200 {
            tr.record_signal(0, t(at as f64));
        }
        assert!(
            !tr.is_troubled(1, t(200.0)),
            "silent receiver still counted"
        );
        assert_eq!(tr.troubled_count(t(200.0)), 1);
    }

    #[test]
    fn single_signal_receiver_is_provisionally_troubled() {
        let mut tr = TroubleTracker::new(2, 20.0, 0.125);
        feed(&mut tr, 0, 1.0, 30.0);
        tr.record_signal(1, t(30.0));
        // Right after its first signal the gap is ~0 <= eta * min.
        assert!(tr.is_troubled(1, t(30.5)));
        // But if it never signals again it ages out.
        for at in 31..120 {
            tr.record_signal(0, t(at as f64));
        }
        assert!(!tr.is_troubled(1, t(120.0)));
    }

    #[test]
    fn deactivated_receiver_vanishes() {
        let mut tr = TroubleTracker::new(2, 20.0, 0.125);
        feed(&mut tr, 0, 1.0, 30.0);
        feed(&mut tr, 1, 1.0, 30.0);
        assert_eq!(tr.troubled_count(t(30.0)), 2);
        tr.deactivate(1);
        assert_eq!(tr.troubled_count(t(30.0)), 1);
        assert!(!tr.is_troubled(1, t(30.0)));
    }

    #[test]
    fn ewma_tracks_changing_interval() {
        let mut tr = TroubleTracker::new(1, 20.0, 0.5);
        // Intervals of 2 s, then 4 s: EWMA must move toward 4.
        for at in [0.0, 2.0, 4.0, 6.0, 10.0, 14.0, 18.0, 22.0] {
            tr.record_signal(0, t(at));
        }
        let ewma = tr.history(0).interval_ewma.unwrap();
        assert!(ewma > 3.0 && ewma < 4.1, "ewma = {ewma}");
    }

    #[test]
    fn interval_estimate_grows_with_silence() {
        let mut tr = TroubleTracker::new(1, 20.0, 0.125);
        feed(&mut tr, 0, 1.0, 10.0);
        let e1 = tr.history(0).interval_estimate(t(11.0)).unwrap();
        let e2 = tr.history(0).interval_estimate(t(100.0)).unwrap();
        assert!(e2 > e1 && e2 > 80.0);
    }
}
