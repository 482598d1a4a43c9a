//! CUBIC congestion control (RFC 8312).
//!
//! CUBIC replaces AIMD's linear probe with a cubic function of the time
//! since the last congestion event, anchored at the window where that
//! loss occurred (`W_max`): concave growth back toward `W_max`, a plateau
//! around it, then convex probing beyond. Two standard refinements ride
//! along:
//!
//! * **fast convergence** — when a flow's loss arrives *below* its
//!   previous `W_max`, another flow is claiming bandwidth; the anchor is
//!   pulled down an extra notch so the releasing flow converges faster;
//! * **TCP-friendly region** — the window never grows slower than an
//!   AIMD flow with CUBIC's β would, so short-RTT paths keep at least
//!   Reno-equivalent throughput.
//!
//! Loss detection is the sender's job, exactly as for [`crate::SackCc`]:
//! the scoreboard declares losses, and each loss *window* (until the
//! cumulative ack passes the recovery point) costs one multiplicative
//! decrease — here by β = 0.7 instead of 0.5, via
//! [`WindowState::cut_by`].
//!
//! Between congestion events the per-ack increment is clamped at zero,
//! so the window is monotone non-decreasing from one loss (or timeout)
//! to the next — a property the transport proptests pin down.

use netsim::time::SimTime;

use crate::cc::{AckEvent, AckOutcome, CcSignals, CongestionControl};
use crate::window::WindowState;

/// RFC 8312 multiplicative-decrease factor β.
pub const CUBIC_BETA: f64 = 0.7;

/// RFC 8312 cubic scaling constant `C` (units: packets / s³).
pub const CUBIC_C: f64 = 0.4;

/// RFC 8312 CUBIC over the shared [`WindowState`].
#[derive(Debug, Clone, Default)]
pub struct CubicCc {
    /// While `Some(p)`: in fast recovery until the cumulative ack reaches
    /// `p` (same one-decrease-per-loss-window rule as SACK).
    recovery_point: Option<u64>,
    /// Window at the last congestion event — the cubic anchor.
    w_max: f64,
    /// When the current congestion-avoidance epoch started (first ack
    /// after a loss); `None` forces re-anchoring on the next ack.
    epoch_start: Option<SimTime>,
    /// Time (s) for the cubic to climb back to `w_max` from the cut.
    k: f64,
    /// Congestion-avoidance acks seen this epoch (drives the
    /// TCP-friendly AIMD estimate without needing a separate window).
    epoch_acks: u64,
}

impl CubicCc {
    /// A fresh CUBIC policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// One multiplicative decrease: move the anchor (with fast
    /// convergence), cut by β, reset the epoch.
    fn congestion_event(&mut self, win: &mut WindowState, high_seq: u64) {
        let cwnd = win.cwnd();
        // Fast convergence: a loss below the previous anchor means the
        // bandwidth shrank — release more than one cycle's worth.
        self.w_max = if cwnd < self.w_max {
            cwnd * (2.0 - CUBIC_BETA) / 2.0
        } else {
            cwnd
        };
        win.cut_by(CUBIC_BETA);
        self.epoch_start = None;
        self.epoch_acks = 0;
        self.recovery_point = Some(high_seq);
    }

    /// The cubic window at `t` seconds into the epoch.
    fn w_cubic(&self, t: f64) -> f64 {
        CUBIC_C * (t - self.k).powi(3) + self.w_max
    }
}

impl CongestionControl for CubicCc {
    fn on_ack(&mut self, win: &mut WindowState, ev: &AckEvent, signals: &CcSignals) -> AckOutcome {
        if let Some(point) = self.recovery_point {
            if ev.cum_ack >= point {
                self.recovery_point = None;
            }
        }

        let mut out = AckOutcome::default();
        if self.recovery_point.is_some() {
            return out;
        }
        if ev.newly_lost > 0 {
            self.congestion_event(win, ev.high_seq);
            out.cuts = 1;
            return out;
        }
        if win.in_slow_start() {
            for _ in 0..ev.newly_acked {
                win.open();
            }
            return out;
        }

        // Congestion avoidance: pull the window toward the cubic target.
        let cwnd = win.cwnd();
        let epoch_start = *self.epoch_start.get_or_insert_with(|| {
            // Re-anchor: after a timeout or a slow-start overshoot the
            // window may already exceed the old anchor.
            if cwnd >= self.w_max {
                self.w_max = cwnd;
                self.k = 0.0;
            } else {
                self.k = (self.w_max * (1.0 - CUBIC_BETA) / CUBIC_C).cbrt();
            }
            ev.ack_time
        });
        let t = ev.ack_time.saturating_since(epoch_start).as_secs_f64();
        let rtt = signals.min_rtt().map_or(0.0, |r| r.as_secs_f64());
        // Target one RTT ahead, per RFC 8312 §4.1.
        let mut target = self.w_cubic(t + rtt);
        // TCP-friendly region (§4.2): at least what AIMD with β = 0.7
        // would have reached after this epoch's acks.
        self.epoch_acks += ev.newly_acked;
        if cwnd > 0.0 {
            let w_est = self.w_max * CUBIC_BETA
                + (3.0 * (1.0 - CUBIC_BETA) / (1.0 + CUBIC_BETA)) * (self.epoch_acks as f64 / cwnd);
            target = target.max(w_est);
        }
        // Per-ack increment, never negative: the window is monotone
        // non-decreasing between congestion events.
        let increment = ((target - cwnd) / cwnd).max(0.0);
        win.set(cwnd + increment);
        out
    }

    fn on_loss(&mut self, win: &mut WindowState, high_seq: u64, _now: SimTime) -> bool {
        if self.recovery_point.is_some() {
            return false;
        }
        self.congestion_event(win, high_seq);
        true
    }

    fn on_timeout(&mut self, win: &mut WindowState, _now: SimTime) {
        self.w_max = win.cwnd();
        win.collapse();
        self.epoch_start = None;
        self.epoch_acks = 0;
        self.recovery_point = None;
    }

    fn allowed_window(&self, win: &WindowState, _signals: &CcSignals) -> u64 {
        win.allowed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::time::SimDuration;

    fn win(cwnd: f64) -> WindowState {
        // ssthresh below cwnd: start in congestion avoidance.
        WindowState::new(cwnd, cwnd / 2.0, 10_000.0)
    }

    fn ack_at(cum_ack: u64, secs_f64: f64) -> AckEvent {
        AckEvent {
            ack_time: SimTime::from_secs_f64(secs_f64),
            rtt_sample: Some(SimDuration::from_millis(100)),
            ..AckEvent::loss_only(cum_ack, 1, 0, cum_ack + 50)
        }
    }

    #[test]
    fn loss_cuts_by_beta_and_enters_recovery() {
        let mut w = win(100.0);
        let mut cc = CubicCc::new();
        let mut ev = ack_at(10, 1.0);
        ev.newly_lost = 2;
        let out = cc.on_ack(&mut w, &ev, &CcSignals::new());
        assert_eq!(out.cuts, 1);
        assert!(
            (w.cwnd() - 70.0).abs() < 1e-9,
            "cut by 0.7, got {}",
            w.cwnd()
        );
        assert!(cc.recovery_point.is_some());
        // Another loss inside the same window: no second cut.
        let mut ev2 = ack_at(20, 1.1);
        ev2.newly_lost = 1;
        assert_eq!(cc.on_ack(&mut w, &ev2, &CcSignals::new()).cuts, 0);
        assert!((w.cwnd() - 70.0).abs() < 1e-9);
    }

    #[test]
    fn window_climbs_back_toward_w_max() {
        let mut w = win(100.0);
        let mut cc = CubicCc::new();
        let s = CcSignals::new();
        cc.on_loss(&mut w, 60, SimTime::from_secs(1));
        let cut = w.cwnd();
        // Recovery exits at cum_ack 60; then the cubic climbs.
        let mut seq = 60;
        for i in 0..2_000 {
            seq += 1;
            cc.on_ack(&mut w, &ack_at(seq, 1.0 + i as f64 * 0.01), &s);
        }
        assert!(w.cwnd() > cut, "cubic must grow after the cut");
        assert!(
            w.cwnd() > 100.0,
            "20 s of growth passes the old anchor, got {}",
            w.cwnd()
        );
    }

    #[test]
    fn growth_is_monotone_between_losses() {
        let mut w = win(50.0);
        let mut cc = CubicCc::new();
        let s = CcSignals::new();
        let mut last = w.cwnd();
        for i in 0..500 {
            cc.on_ack(&mut w, &ack_at(i, i as f64 * 0.05), &s);
            assert!(w.cwnd() >= last, "cwnd shrank without a loss at ack {i}");
            last = w.cwnd();
        }
    }

    #[test]
    fn fast_convergence_lowers_the_anchor() {
        let mut w = win(100.0);
        let mut cc = CubicCc::new();
        cc.on_loss(&mut w, 10, SimTime::from_secs(1));
        assert_eq!(cc.w_max, 100.0, "first loss anchors at cwnd");
        // Second loss arrives below the anchor (cwnd = 70 < 100):
        // fast convergence pulls it under the current window.
        cc.recovery_point = None;
        cc.on_loss(&mut w, 20, SimTime::from_secs(2));
        assert!((cc.w_max - 70.0 * (2.0 - CUBIC_BETA) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn timeout_collapses_and_reanchors() {
        let mut w = win(80.0);
        let mut cc = CubicCc::new();
        cc.on_timeout(&mut w, SimTime::from_secs(3));
        assert_eq!(w.cwnd(), 1.0);
        assert_eq!(cc.w_max, 80.0);
        assert!(cc.recovery_point.is_none());
        assert!(w.in_slow_start(), "restart in slow start");
    }

    #[test]
    fn slow_start_opens_like_aimd() {
        let mut w = WindowState::new(2.0, 32.0, 10_000.0);
        let mut cc = CubicCc::new();
        let s = CcSignals::new();
        cc.on_ack(&mut w, &ack_at(1, 0.1), &s);
        assert_eq!(w.cwnd(), 3.0, "slow start still +1 per ack");
    }
}
