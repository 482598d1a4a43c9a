//! Loss recovery by time: one machine for TCP and the RLA, whose
//! throughput ratio the paper bounds (DESIGN.md §4, §6 deviations 4–5).
//!
//! A [`Recovery`] serves one TCP flow or one RLA receiver slot. It owns
//! the flow's [`RttEstimator`] (clamped to [`defaults::MIN_RTO`] and
//! [`defaults::MAX_RTO`]), the silence clock and the RTO timer's
//! generation. It reads the clock, each ack's RTT sample and cumulative
//! advance, the scoreboard's [`HeadHole`] and whether the window is
//! exhausted, and returns a [`Verdict`] for the sender to apply; it
//! touches no engine. What differs between the senders is a [`Row`]:
//! [`TCP`] or [`RLA`].

use netsim::time::{SimDuration, SimTime};

use crate::defaults;

/// The srtt the age rules and the RLA's listener use before the first
/// sample.
const UNMEASURED_SRTT: SimDuration = SimDuration::from_millis(100);

/// The oldest unacknowledged packet, as `Scoreboard::head_hole` reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeadHole {
    /// Its sequence number.
    pub seq: u64,
    /// When it was last sent.
    pub sent_at: SimTime,
    /// A higher packet has been SACKed: a real gap, not the newest data.
    pub evidence: bool,
    /// A retransmission of it is in flight.
    pub retransmitted: bool,
}

/// What a timeout marks lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mark {
    /// Only the head: one retransmission per timeout.
    Head,
    /// Everything outstanding.
    All,
}

/// A sender's recovery rules; an age rule set to `None` is off.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    /// One timer, armed at start, on each cumulative advance and after a
    /// timeout with data outstanding. Otherwise the sender's scan times
    /// out a flow silent for an RTO whose oldest packet is older than one.
    pub armed: bool,
    /// What a timeout marks lost.
    pub timeout_marks: Mark,
    /// Scan: a retransmitted head older than this many srtt is lost again.
    pub lost_rexmit_srtts: Option<f64>,
    /// Scan, window exhausted: a head with SACK evidence above it, not
    /// retransmitted, older than this many srtt is lost.
    pub early_srtts: Option<f64>,
    /// Unarmed rows, on an ack that advances the cumulative ack with the
    /// window exhausted: a head not retransmitted and older than this
    /// many RTOs is lost (the partial-ack continuation).
    pub partial_ack_rtos: Option<f64>,
}

/// TCP's row: an armed timer that marks everything.
pub const TCP: Row = Row {
    armed: true,
    timeout_marks: Mark::All,
    lost_rexmit_srtts: None,
    early_srtts: None,
    partial_ack_rtos: None,
};

/// The RLA's row, per receiver: deviations 4 and 5 and the partial-ack
/// continuation.
pub const RLA: Row = Row {
    armed: false,
    timeout_marks: Mark::Head,
    lost_rexmit_srtts: Some(1.5),
    early_srtts: Some(1.0),
    partial_ack_rtos: Some(1.0),
};

/// A timer to set: fire `token` after `delay`. Later arms make it stale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arm {
    /// The token to hand back to [`Recovery::on_timer`].
    pub token: u64,
    /// The RTO at arm time.
    pub delay: SimDuration,
}

/// What the sender must do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Nothing.
    Hold,
    /// Set the timer.
    Arm(Arm),
    /// Mark the head lost now: an early repair.
    RepairHead,
    /// The RTO expired and has backed off: mark, then set the next timer
    /// (armed rows).
    Timeout(Mark, Option<Arm>),
}

/// `age` is past `mult` times `base` (never when the rule is off).
fn past(age: SimDuration, base: SimDuration, mult: Option<f64>) -> bool {
    mult.is_some_and(|m| age > base.mul_f64(m))
}

/// Jacobson/Karels RTT estimation (RFC 6298) with Karn's rule and capped
/// exponential RTO backoff, as in the NS2 agents the paper simulated
/// against.
#[derive(Debug, Clone)]
pub struct RttEstimator {
    srtt: Option<SimDuration>,
    rttvar: SimDuration,
    min_rto: SimDuration,
    max_rto: SimDuration,
    /// RTO doublings since the last sample, at most 16.
    backoff: u32,
}

impl RttEstimator {
    /// A fresh estimator whose RTO is clamped to `[min_rto, max_rto]`.
    pub fn new(min_rto: SimDuration, max_rto: SimDuration) -> Self {
        RttEstimator {
            srtt: None,
            rttvar: SimDuration::ZERO,
            min_rto,
            max_rto,
            backoff: 0,
        }
    }

    /// Fold in a sample and clear the backoff (a sample is progress).
    pub fn sample(&mut self, rtt: SimDuration) {
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

    /// Karn's rule: an ack covering a retransmitted segment may answer
    /// either copy, so its sample neither moves the estimate nor clears
    /// the backoff. Returns whether the sample was taken.
    pub fn karn_sample(&mut self, rtt: SimDuration, retransmitted: bool) -> bool {
        if !retransmitted {
            self.sample(rtt);
        }
        !retransmitted
    }

    /// The smoothed RTT; `None` before the first sample, never a guess.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt
    }

    /// `srtt + 4·rttvar` (3 s before a sample, RFC 6298), doubled per
    /// backoff and clamped.
    pub fn rto(&self) -> SimDuration {
        let base = match self.srtt {
            None => SimDuration::from_secs(3),
            Some(srtt) => srtt.saturating_add(self.rttvar * 4),
        };
        let backed = base.as_nanos().saturating_mul(1 << self.backoff.min(16));
        SimDuration::from_nanos(backed).clamp(self.min_rto, self.max_rto)
    }

    /// A retransmission timer expired: double the RTO.
    pub fn on_timeout(&mut self) {
        self.backoff = (self.backoff + 1).min(16);
    }
}

/// The loss-recovery state of one TCP flow or one RLA receiver slot.
#[derive(Debug, Clone)]
pub struct Recovery {
    row: &'static Row,
    rtt: RttEstimator,
    /// When the flow was last heard from, or last timed out.
    last_heard: SimTime,
    /// The armed timer's generation; other tokens are stale.
    generation: u64,
}

impl Recovery {
    /// A flow under `row`, whose silence clock starts at `now`.
    pub fn new(row: &'static Row, now: SimTime) -> Self {
        let rtt = RttEstimator::new(defaults::MIN_RTO, defaults::MAX_RTO);
        Recovery {
            row,
            rtt,
            last_heard: now,
            generation: 0,
        }
    }

    /// The smoothed RTT, if any sample has been taken.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.rtt.srtt()
    }

    /// The srtt the age rules use: 100 ms before the first sample.
    pub fn rule_srtt(&self) -> SimDuration {
        self.rtt.srtt().unwrap_or(UNMEASURED_SRTT)
    }

    /// When the flow was last heard from, or last timed out.
    pub fn last_heard(&self) -> SimTime {
        self.last_heard
    }

    fn arm(&mut self) -> Arm {
        self.generation += 1;
        let (token, delay) = (self.generation, self.rtt.rto());
        Arm { token, delay }
    }

    /// The flow starts: an armed row's first timer.
    pub fn on_start(&mut self) -> Option<Arm> {
        self.row.armed.then(|| self.arm())
    }

    /// An ack arrived at `now` measuring `rtt`: restart the silence clock
    /// and take the sample unless it is Karn-`ambiguous` (returns whether
    /// it was taken).
    pub fn on_ack(&mut self, now: SimTime, rtt: SimDuration, ambiguous: bool) -> bool {
        self.last_heard = now;
        self.rtt.karn_sample(rtt, ambiguous)
    }

    /// The same ack once the sender applied its loss report: the
    /// cumulative ack moved by `advanced`. `head` reads the scoreboard's
    /// head, and is called only when a rule needs it.
    pub fn after_ack(
        &mut self,
        now: SimTime,
        advanced: u64,
        window_exhausted: bool,
        head: impl FnOnce() -> Option<HeadHole>,
    ) -> Verdict {
        if advanced == 0 {
            return Verdict::Hold;
        }
        if self.row.armed {
            return Verdict::Arm(self.arm());
        }
        let rule = self.row.partial_ack_rtos;
        match window_exhausted.then(head).flatten() {
            Some(h)
                if !h.retransmitted
                    && past(now.saturating_since(h.sent_at), self.rtt.rto(), rule) =>
            {
                Verdict::RepairHead
            }
            _ => Verdict::Hold,
        }
    }

    /// An armed timer fired with `token`. A stale token, or an `idle`
    /// flow with nothing outstanding, does nothing and arms nothing.
    pub fn on_timer(&mut self, token: u64, idle: bool) -> Verdict {
        if !self.row.armed || token != self.generation || idle {
            return Verdict::Hold;
        }
        self.rtt.on_timeout();
        Verdict::Timeout(self.row.timeout_marks, Some(self.arm()))
    }

    /// The periodic scan at `now`, given the scoreboard's `head` and its
    /// `oldest` packet's send time. The age rules come first; the RTO is
    /// checked only when neither fires.
    pub fn on_scan(
        &mut self,
        now: SimTime,
        head: Option<HeadHole>,
        oldest: Option<SimTime>,
        window_exhausted: bool,
    ) -> Verdict {
        if self.row.armed {
            return Verdict::Hold;
        }
        if let Some(h) = head {
            let (age, srtt) = (now.saturating_since(h.sent_at), self.rule_srtt());
            let lost_rexmit = h.retransmitted && past(age, srtt, self.row.lost_rexmit_srtts);
            let early = window_exhausted
                && !h.retransmitted
                && h.evidence
                && past(age, srtt, self.row.early_srtts);
            if lost_rexmit || early {
                return Verdict::RepairHead;
            }
        }
        let rto = self.rtt.rto();
        let silent = now.saturating_since(self.last_heard) > rto;
        if !silent || oldest.is_none_or(|t| now.saturating_since(t) <= rto) {
            return Verdict::Hold;
        }
        self.rtt.on_timeout();
        self.last_heard = now;
        Verdict::Timeout(self.row.timeout_marks, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    fn at(n: u64) -> SimTime {
        SimTime::from_millis(n)
    }

    fn head(sent_ms: u64, evidence: bool, retransmitted: bool) -> Option<HeadHole> {
        Some(HeadHole {
            seq: 7,
            sent_at: at(sent_ms),
            evidence,
            retransmitted,
        })
    }

    /// An RLA slot that has heard one 100 ms sample at t = 0: srtt 100 ms,
    /// RTO 300 ms.
    fn rla() -> Recovery {
        let mut r = Recovery::new(&RLA, SimTime::ZERO);
        assert!(r.on_ack(SimTime::ZERO, ms(100), false));
        assert_eq!(r.rtt.rto(), ms(300));
        r
    }

    #[test]
    fn a_lost_retransmission_is_repaired_after_one_and_a_half_srtt() {
        let mut r = rla();
        // The window need not be exhausted; the RTO has not expired.
        assert_eq!(
            r.on_scan(at(150), head(0, false, true), Some(at(0)), false),
            Verdict::Hold
        );
        assert_eq!(
            r.on_scan(at(151), head(0, false, true), Some(at(0)), false),
            Verdict::RepairHead
        );
        // TCP's row has no such rule: its lost retransmission waits for
        // the armed timer.
        let mut t = Recovery::new(&TCP, SimTime::ZERO);
        assert_eq!(
            t.on_scan(at(10_000), head(0, false, true), Some(at(0)), true),
            Verdict::Hold
        );
    }

    #[test]
    fn a_window_edge_hole_is_repaired_early_only_with_the_window_exhausted() {
        let mut r = rla();
        let edge = head(0, true, false);
        assert_eq!(r.on_scan(at(100), edge, Some(at(0)), true), Verdict::Hold);
        assert_eq!(r.on_scan(at(101), edge, Some(at(0)), false), Verdict::Hold);
        assert_eq!(
            r.on_scan(at(101), edge, Some(at(0)), true),
            Verdict::RepairHead
        );
        // No SACK above it: the newest data, not a hole.
        assert_eq!(
            r.on_scan(at(101), head(0, false, false), Some(at(0)), true),
            Verdict::Hold
        );
    }

    #[test]
    fn the_partial_ack_continuation_repairs_a_head_older_than_one_rto() {
        let mut r = rla();
        let stale = head(0, false, false);
        assert_eq!(
            r.after_ack(at(301), 0, true, || stale),
            Verdict::Hold,
            "no advance"
        );
        assert_eq!(
            r.after_ack(at(301), 1, false, || stale),
            Verdict::Hold,
            "window open"
        );
        assert_eq!(
            r.after_ack(at(300), 1, true, || stale),
            Verdict::Hold,
            "not past the RTO"
        );
        assert_eq!(
            r.after_ack(at(301), 1, true, || head(0, false, true)),
            Verdict::Hold,
            "already retransmitted"
        );
        assert_eq!(r.after_ack(at(301), 1, true, || stale), Verdict::RepairHead);
        assert_eq!(r.after_ack(at(301), 1, true, || None), Verdict::Hold);
    }

    #[test]
    fn an_idle_tcp_flow_times_out_to_nothing_and_stays_unarmed() {
        let mut t = Recovery::new(&TCP, SimTime::ZERO);
        let first = t.on_start().expect("an armed clock arms at start");
        assert_eq!(
            first,
            Arm {
                token: 1,
                delay: SimDuration::from_secs(3)
            }
        );
        assert_eq!(t.on_timer(first.token, true), Verdict::Hold);
        assert_eq!(t.rtt.rto(), SimDuration::from_secs(3), "no backoff");
        // Nothing was re-armed: the next arm is generation 2.
        assert_eq!(
            t.after_ack(at(10), 1, false, || None),
            Verdict::Arm(Arm {
                token: 2,
                delay: SimDuration::from_secs(3)
            })
        );
    }

    #[test]
    fn a_stale_token_does_nothing() {
        let mut t = Recovery::new(&TCP, SimTime::ZERO);
        let first = t.on_start().unwrap();
        let Verdict::Arm(second) = t.after_ack(at(10), 1, false, || None) else {
            panic!("an advance re-arms");
        };
        assert_eq!(t.on_timer(first.token, false), Verdict::Hold);
        assert!(matches!(
            t.on_timer(second.token, false),
            Verdict::Timeout(..)
        ));
    }

    #[test]
    fn backoff_doubles_to_max_rto_and_stays_there() {
        let mut t = Recovery::new(&TCP, SimTime::ZERO);
        t.on_ack(SimTime::ZERO, SimDuration::from_secs(1), false);
        let mut token = t.on_start().unwrap().token;
        let mut delays = Vec::new();
        for _ in 0..8 {
            let Verdict::Timeout(Mark::All, Some(next)) = t.on_timer(token, false) else {
                panic!("an outstanding flow times out");
            };
            delays.push(next.delay.as_secs_f64());
            token = next.token;
        }
        // RTO 3 s (1 s + 4·0.5 s), doubled per timeout, clamped at 64 s.
        assert_eq!(delays, [6.0, 12.0, 24.0, 48.0, 64.0, 64.0, 64.0, 64.0]);
        assert_eq!(t.rtt.rto(), defaults::MAX_RTO);
        // A sample clears the backoff.
        t.on_ack(at(1), SimDuration::from_secs(1), false);
        assert!(t.rtt.rto() < defaults::MAX_RTO);
    }

    #[test]
    fn the_scanned_rto_needs_silence_and_an_old_head_and_restarts_the_silence_clock() {
        let mut r = rla();
        // Heard at 0; RTO 300 ms. A young head holds off the timeout.
        assert_eq!(
            r.on_scan(at(400), None, Some(at(200)), false),
            Verdict::Hold
        );
        // Recently heard holds it off too.
        r.on_ack(at(200), ms(100), false);
        assert_eq!(r.rtt.rto(), ms(250));
        assert_eq!(r.on_scan(at(400), None, Some(at(0)), false), Verdict::Hold);
        assert_eq!(
            r.on_scan(at(500), None, Some(at(0)), false),
            Verdict::Timeout(Mark::Head, None)
        );
        assert_eq!(r.last_heard(), at(500));
        // The silence clock restarted and the RTO doubled: nothing again
        // until 500 ms of silence.
        assert_eq!(
            r.on_scan(at(1_000), None, Some(at(0)), false),
            Verdict::Hold
        );
        assert!(matches!(
            r.on_scan(at(1_001), None, Some(at(0)), false),
            Verdict::Timeout(..)
        ));
    }

    #[test]
    fn unmeasured_flows_judge_age_against_100_ms() {
        let mut r = Recovery::new(&RLA, SimTime::ZERO);
        assert_eq!(r.rule_srtt(), UNMEASURED_SRTT);
        assert_eq!(
            r.on_scan(at(150), head(0, false, true), None, false),
            Verdict::Hold
        );
        assert_eq!(
            r.on_scan(at(151), head(0, false, true), None, false),
            Verdict::RepairHead
        );
    }

    /// TCP's row, one flow: start, an advance, a duplicate ack, a stale
    /// firing, two timeouts with backoff, an advance, an idle timeout.
    #[test]
    fn tcp_row_verdicts_are_pinned() {
        let mut t = Recovery::new(&TCP, SimTime::ZERO);
        let mut seen = vec![Verdict::Arm(t.on_start().unwrap())];
        t.on_ack(at(100), ms(100), false);
        seen.push(t.after_ack(at(100), 2, true, || head(50, true, false)));
        seen.push(t.after_ack(at(110), 0, true, || head(50, true, false)));
        seen.push(t.on_scan(at(5_000), head(0, true, true), Some(at(0)), true));
        seen.push(t.on_timer(1, false));
        seen.push(t.on_timer(2, false));
        seen.push(t.on_timer(3, false));
        assert!(!t.on_ack(at(2_000), ms(100), true), "Karn withholds it");
        seen.push(t.after_ack(at(2_000), 1, false, || None));
        seen.push(t.on_timer(5, true));
        let arm = |token, delay| Arm { token, delay };
        assert_eq!(
            seen,
            [
                Verdict::Arm(arm(1, SimDuration::from_secs(3))),
                Verdict::Arm(arm(2, ms(300))),
                Verdict::Hold,
                Verdict::Hold,
                Verdict::Hold,
                Verdict::Timeout(Mark::All, Some(arm(3, ms(600)))),
                Verdict::Timeout(Mark::All, Some(arm(4, ms(1_200)))),
                Verdict::Arm(arm(5, ms(1_200))),
                Verdict::Hold,
            ]
        );
    }

    /// The RLA's row, one receiver slot: every verdict in the order the
    /// sender meets them, with no timer ever armed.
    #[test]
    fn rla_row_verdicts_are_pinned() {
        let mut r = Recovery::new(&RLA, SimTime::ZERO);
        let mut seen = vec![];
        assert_eq!(r.on_start(), None);
        r.on_ack(at(100), ms(100), false);
        seen.push(r.after_ack(at(100), 3, true, || head(90, false, false)));
        seen.push(r.on_scan(at(200), head(90, true, false), Some(at(90)), true));
        seen.push(r.on_scan(at(300), head(200, false, true), Some(at(90)), false));
        seen.push(r.on_scan(at(351), head(200, false, true), Some(at(90)), false));
        seen.push(r.after_ack(at(500), 1, true, || head(150, false, false)));
        seen.push(r.on_timer(1, false));
        seen.push(r.on_scan(at(500), head(450, false, false), Some(at(150)), false));
        seen.push(r.on_scan(at(600), None, None, true));
        seen.push(r.on_scan(at(800), None, None, true));
        assert_eq!(
            seen,
            [
                Verdict::Hold,
                Verdict::RepairHead,
                Verdict::Hold,
                Verdict::RepairHead,
                Verdict::RepairHead,
                Verdict::Hold,
                Verdict::Timeout(Mark::Head, None),
                Verdict::Hold,
                Verdict::Hold,
            ]
        );
    }

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
