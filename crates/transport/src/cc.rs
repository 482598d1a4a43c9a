//! The pluggable congestion-control seam (v2: rate-aware).
//!
//! A [`CongestionControl`] policy decides how the shared
//! [`WindowState`] reacts to acknowledgments, loss signals and timeouts;
//! the sender owns loss *detection* (scoreboard, dup-ack counting,
//! timers) and transmission, and feeds the policy one [`AckEvent`] per
//! acknowledgment.
//!
//! The v2 surface extends the original loss-based seam with everything a
//! rate-based controller needs:
//!
//! * [`AckEvent`] carries an RTT sample, the in-flight count, the ack
//!   arrival time and an optional [`RateSample`] (BBR-style delivery-rate
//!   accounting: bytes newly acked, send/ack timestamps, app-limited
//!   flag);
//! * [`CcSignals`] is a sender-owned state view folding those samples
//!   into a windowed minimum RTT and a windowed maximum delivery rate
//!   (the [`crate::minrtt`] filters) plus the cumulative delivered count;
//! * the trait gains [`CongestionControl::pacing_rate`], and
//!   `allowed_window` sees the signals.
//!
//! Four policies implement the trait:
//!
//! * [`SackCc`] — the paper's NS2 `Sack1` behaviour: scoreboard-declared
//!   losses, one window halving per loss window (fast recovery until the
//!   cumulative ack passes the recovery point). This is the policy the
//!   golden trace digests certify bit-for-bit against the pre-refactor
//!   `TcpSender`. It ignores every v2 signal.
//! * [`RenoCc`] — TCP Reno without a SACK scoreboard: third-duplicate-ack
//!   fast retransmit, window inflation by one packet per further dup ack,
//!   and NewReno-style partial-ack retransmission during recovery. Also
//!   signal-blind.
//! * [`crate::CubicCc`] — RFC 8312 cubic window growth (its own module).
//! * [`crate::BbrV1Cc`] — the BBRv1 state machine (its own module), the
//!   first consumer of the rate signals and of pacing.

use netsim::time::{SimDuration, SimTime};

use crate::minrtt::{BandwidthFilter, MinRttFilter};
use crate::window::WindowState;

/// How long the minimum-RTT filter remembers a sample (BBRv1's 10 s).
pub const MIN_RTT_WINDOW: SimDuration = SimDuration::from_secs(10);

/// How long the bandwidth filter remembers a delivery-rate sample
/// (roughly ten round trips at the paper's ~200 ms path RTTs).
pub const BANDWIDTH_WINDOW: SimDuration = SimDuration::from_secs(2);

/// One delivery-rate sample, recorded per acknowledged packet
/// (BBR-style: compare the delivery counter now against its value when
/// the packet left, over the send→ack interval).
#[derive(Debug, Clone, Copy)]
pub struct RateSample {
    /// Bytes newly acknowledged by this ack.
    pub newly_acked_bytes: u64,
    /// When the most recently acked packet was (last) transmitted.
    pub sent_at: SimTime,
    /// Value of the sender's cumulative delivered counter (packets) when
    /// that packet was transmitted.
    pub delivered_at_send: u64,
    /// The sender had no data to send when the packet left — the sample
    /// measures the application, not the path, and must not raise the
    /// bandwidth estimate.
    pub app_limited: bool,
}

/// What one acknowledgment told the sender, policy-independent.
#[derive(Debug, Clone, Copy)]
pub struct AckEvent {
    /// The cumulative ack after processing this acknowledgment.
    pub cum_ack: u64,
    /// How far the cumulative ack advanced (0 for a duplicate ack).
    pub newly_acked: u64,
    /// Packets *first known delivered* by this acknowledgment: the
    /// cumulative advance plus newly SACKed packets, minus any of the
    /// advance a prior SACK block already reported. This is what feeds
    /// the delivery-rate accounting — counting a hole-fill's whole
    /// cumulative jump again would attribute packets delivered over many
    /// round trips to one, spiking the bandwidth estimate. Senders
    /// without selective acks pass `newly_acked`.
    pub newly_delivered: u64,
    /// Packets newly declared lost by the sender's loss detector (SACK
    /// scoreboard); senders without one pass 0 and let the policy count
    /// duplicate acks itself.
    pub newly_lost: u64,
    /// The next unsent sequence number (the recovery point on a cut).
    pub high_seq: u64,
    /// When the acknowledgment arrived (simulation clock).
    pub ack_time: SimTime,
    /// The RTT measured off this ack, when unambiguous (`None` for
    /// duplicate acks and Karn-excluded retransmissions).
    pub rtt_sample: Option<SimDuration>,
    /// Packets in flight *after* processing this acknowledgment.
    pub in_flight: u64,
    /// Delivery-rate accounting for the newly acked data, when the sender
    /// tracks it (`None` for duplicate acks).
    pub rate: Option<RateSample>,
}

impl AckEvent {
    /// A v1-shaped event: the four loss-based fields, every rate-aware
    /// signal absent. Loss-based policies behave identically on it.
    pub fn loss_only(cum_ack: u64, newly_acked: u64, newly_lost: u64, high_seq: u64) -> Self {
        AckEvent {
            cum_ack,
            newly_acked,
            newly_delivered: newly_acked,
            newly_lost,
            high_seq,
            ack_time: SimTime::ZERO,
            rtt_sample: None,
            in_flight: 0,
            rate: None,
        }
    }
}

/// What the policy decided on one acknowledgment.
#[derive(Debug, Clone, Copy, Default)]
pub struct AckOutcome {
    /// Window cuts taken (0 or 1; counted into the sender's statistics).
    pub cuts: u64,
    /// A sequence the sender must retransmit now (fast retransmit or a
    /// NewReno partial-ack repair). Scoreboard-driven senders retransmit
    /// from the scoreboard instead and always see `None`.
    pub retransmit: Option<u64>,
}

/// Path signals the sender accumulates for its policy: windowed min-RTT,
/// windowed max delivery rate, cumulative delivered packets.
///
/// The sender owns one of these per connection and folds every
/// [`AckEvent`] in via [`CcSignals::on_ack`] *before* handing the event
/// to the policy, so the policy always sees estimates that include the
/// current ack. Updating the view is pure bookkeeping — policies that
/// ignore it (SACK, Reno) are bit-identical to their v1 behaviour.
#[derive(Debug, Clone)]
pub struct CcSignals {
    min_rtt: MinRttFilter,
    bw: BandwidthFilter,
    delivered: u64,
}

impl Default for CcSignals {
    fn default() -> Self {
        Self::new()
    }
}

impl CcSignals {
    /// A fresh view with the default filter windows
    /// ([`MIN_RTT_WINDOW`], [`BANDWIDTH_WINDOW`]).
    pub fn new() -> Self {
        CcSignals {
            min_rtt: MinRttFilter::new(MIN_RTT_WINDOW),
            bw: BandwidthFilter::new(BANDWIDTH_WINDOW),
            delivered: 0,
        }
    }

    /// Fold one acknowledgment into the filters.
    pub fn on_ack(&mut self, ev: &AckEvent) {
        self.delivered += ev.newly_delivered;
        if let Some(rtt) = ev.rtt_sample {
            self.min_rtt.update(ev.ack_time, rtt);
        }
        if let Some(rate) = &ev.rate {
            let interval = ev.ack_time.saturating_since(rate.sent_at);
            if !interval.is_zero() {
                let delivered = self.delivered.saturating_sub(rate.delivered_at_send);
                let pps = delivered as f64 / interval.as_secs_f64();
                // An app-limited sample measures the sender, not the path:
                // it may confirm a higher estimate but never set one.
                if !rate.app_limited || Some(pps) > self.bw.current() {
                    self.bw.update(ev.ack_time, pps);
                }
            }
        }
    }

    /// The windowed minimum round-trip time, if any sample exists.
    pub fn min_rtt(&self) -> Option<SimDuration> {
        self.min_rtt.current()
    }

    /// When the sample defining the current minimum RTT was taken.
    pub fn min_rtt_stamp(&self) -> Option<SimTime> {
        self.min_rtt.stamp()
    }

    /// The windowed maximum delivery rate (pkt/s), if any sample exists.
    pub fn bandwidth_pps(&self) -> Option<f64> {
        self.bw.current()
    }

    /// Cumulative packets known delivered (cumulative-ack advances plus
    /// first-time SACK reports).
    pub fn delivered(&self) -> u64 {
        self.delivered
    }
}

/// A congestion-control policy over the shared [`WindowState`].
pub trait CongestionControl: std::fmt::Debug + Send + 'static {
    /// React to one acknowledgment: grow the window, enter or leave
    /// recovery, request a fast retransmission. `signals` already
    /// includes this event's samples.
    fn on_ack(&mut self, win: &mut WindowState, ev: &AckEvent, signals: &CcSignals) -> AckOutcome;

    /// React to one congestion signal detected outside the ack path
    /// (e.g. an aged-out head hole): halve the window unless the loss
    /// falls inside the current recovery. Returns whether a cut was taken.
    fn on_loss(&mut self, win: &mut WindowState, high_seq: u64, now: SimTime) -> bool;

    /// React to a retransmission timeout: collapse the window and leave
    /// any recovery in progress.
    fn on_timeout(&mut self, win: &mut WindowState, now: SimTime);

    /// Packets the policy currently allows in flight (Reno inflates the
    /// window during fast recovery; SACK uses the window as-is).
    fn allowed_window(&self, win: &WindowState, signals: &CcSignals) -> u64;

    /// The rate (pkt/s) the sender should pace transmissions at, or
    /// `None` to send ack-clocked bursts up to the window (the classic
    /// loss-based behaviour, and the default).
    fn pacing_rate(&self, signals: &CcSignals) -> Option<f64> {
        let _ = signals;
        None
    }
}

/// The paper's TCP SACK policy: the sender's scoreboard declares losses;
/// each *loss window* (losses until the cumulative ack passes the recovery
/// point) costs exactly one halving.
#[derive(Debug, Clone, Default)]
pub struct SackCc {
    /// While `Some(p)`: in fast recovery until the cumulative ack reaches
    /// `p`; further losses inside the window are the same congestion
    /// signal (one cut per loss window).
    recovery_point: Option<u64>,
}

impl SackCc {
    /// A fresh policy, not in recovery.
    pub fn new() -> Self {
        SackCc {
            recovery_point: None,
        }
    }
}

impl CongestionControl for SackCc {
    fn on_ack(&mut self, win: &mut WindowState, ev: &AckEvent, _signals: &CcSignals) -> AckOutcome {
        if let Some(point) = self.recovery_point {
            if ev.cum_ack >= point {
                self.recovery_point = None;
            }
        }

        let mut out = AckOutcome::default();
        if self.recovery_point.is_none() {
            if ev.newly_lost > 0 {
                // A fresh loss window: one congestion signal, one cut.
                win.cut();
                self.recovery_point = Some(ev.high_seq);
                out.cuts = 1;
            } else {
                for _ in 0..ev.newly_acked {
                    win.open();
                }
            }
        }
        out
    }

    fn on_loss(&mut self, win: &mut WindowState, high_seq: u64, _now: SimTime) -> bool {
        if self.recovery_point.is_some() {
            return false; // same loss window, already paid for
        }
        win.cut();
        self.recovery_point = Some(high_seq);
        true
    }

    fn on_timeout(&mut self, win: &mut WindowState, _now: SimTime) {
        win.collapse();
        self.recovery_point = None;
    }

    fn allowed_window(&self, win: &WindowState, _signals: &CcSignals) -> u64 {
        win.allowed()
    }
}

/// TCP Reno without selective acknowledgments: losses are inferred from
/// duplicate cumulative acks. The third duplicate triggers fast
/// retransmit and a halving; further duplicates inflate the usable window
/// by one packet each (they prove packets have left the network); a
/// partial ack during recovery retransmits the next hole (NewReno)
/// without another halving; the ack that covers the recovery point
/// deflates the window back to `ssthresh`.
#[derive(Debug, Clone)]
pub struct RenoCc {
    dupack_threshold: u64,
    /// Consecutive duplicate acks seen (doubles as the window inflation
    /// during fast recovery).
    dup_count: u64,
    /// While `Some(p)`: in fast recovery until the cumulative ack reaches
    /// `p`.
    recovery_point: Option<u64>,
}

impl RenoCc {
    /// A Reno policy declaring loss after `dupack_threshold` duplicate
    /// acknowledgments (3 in the RFCs and the paper).
    pub fn new(dupack_threshold: u64) -> Self {
        assert!(dupack_threshold >= 1, "dup threshold must be positive");
        RenoCc {
            dupack_threshold,
            dup_count: 0,
            recovery_point: None,
        }
    }
}

impl CongestionControl for RenoCc {
    fn on_ack(&mut self, win: &mut WindowState, ev: &AckEvent, _signals: &CcSignals) -> AckOutcome {
        let mut out = AckOutcome::default();
        if ev.newly_acked == 0 {
            // Duplicate ack: the receiver holds something above a hole.
            self.dup_count += 1;
            if self.recovery_point.is_none() && self.dup_count == self.dupack_threshold {
                win.cut();
                self.recovery_point = Some(ev.high_seq);
                out.cuts = 1;
                out.retransmit = Some(ev.cum_ack);
            }
            // Above the threshold each further duplicate inflates the
            // usable window via `allowed_window` — no state change needed
            // beyond the count itself.
        } else {
            match self.recovery_point {
                Some(point) if ev.cum_ack < point => {
                    // NewReno partial ack: the front hole was repaired but
                    // another loss from the same window follows it.
                    // Retransmit it immediately; the halving was already
                    // paid for. Deflate the dup-ack inflation — the acks
                    // that drove it belonged to the repaired hole.
                    self.dup_count = 0;
                    out.retransmit = Some(ev.cum_ack);
                }
                Some(_) => {
                    // Full ack: recovery complete; deflate to ssthresh.
                    self.recovery_point = None;
                    self.dup_count = 0;
                    win.set(win.ssthresh());
                }
                None => {
                    self.dup_count = 0;
                    for _ in 0..ev.newly_acked {
                        win.open();
                    }
                }
            }
        }
        out
    }

    fn on_loss(&mut self, win: &mut WindowState, high_seq: u64, _now: SimTime) -> bool {
        if self.recovery_point.is_some() {
            return false;
        }
        win.cut();
        self.recovery_point = Some(high_seq);
        true
    }

    fn on_timeout(&mut self, win: &mut WindowState, _now: SimTime) {
        win.collapse();
        self.recovery_point = None;
        self.dup_count = 0;
    }

    fn allowed_window(&self, win: &WindowState, _signals: &CcSignals) -> u64 {
        let inflation = if self.recovery_point.is_some() {
            self.dup_count
        } else {
            0
        };
        win.allowed() + inflation
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn win() -> WindowState {
        WindowState::new(10.0, 64.0, 10_000.0)
    }

    fn sig() -> CcSignals {
        CcSignals::new()
    }

    fn ack(cum_ack: u64, newly_acked: u64, newly_lost: u64, high_seq: u64) -> AckEvent {
        AckEvent::loss_only(cum_ack, newly_acked, newly_lost, high_seq)
    }

    #[test]
    fn sack_cuts_once_per_loss_window() {
        let mut w = win();
        let s = sig();
        let mut cc = SackCc::new();
        // First loss: cut, enter recovery until high_seq = 20.
        let out = cc.on_ack(&mut w, &ack(5, 0, 2, 20), &s);
        assert_eq!(out.cuts, 1);
        assert_eq!(w.cwnd(), 5.0);
        assert!(cc.recovery_point.is_some());
        // More losses inside the same window: no further cut.
        let out = cc.on_ack(&mut w, &ack(8, 3, 1, 22), &s);
        assert_eq!(out.cuts, 0);
        assert_eq!(w.cwnd(), 5.0);
        // The ack crossing the recovery point exits recovery and grows.
        let out = cc.on_ack(&mut w, &ack(21, 13, 0, 25), &s);
        assert_eq!(out.cuts, 0);
        assert!(cc.recovery_point.is_none());
        assert!(w.cwnd() > 5.0);
    }

    #[test]
    fn sack_external_loss_respects_recovery() {
        let mut w = win();
        let mut cc = SackCc::new();
        assert!(cc.on_loss(&mut w, 30, SimTime::ZERO));
        assert_eq!(w.cwnd(), 5.0);
        assert!(!cc.on_loss(&mut w, 31, SimTime::ZERO), "same loss window");
        assert_eq!(w.cwnd(), 5.0);
    }

    #[test]
    fn sack_timeout_collapses_and_clears_recovery() {
        let mut w = win();
        let s = sig();
        let mut cc = SackCc::new();
        cc.on_loss(&mut w, 30, SimTime::ZERO);
        cc.on_timeout(&mut w, SimTime::ZERO);
        assert_eq!(w.cwnd(), 1.0);
        assert!(cc.recovery_point.is_none());
        assert_eq!(cc.allowed_window(&w, &s), 1);
    }

    #[test]
    fn reno_fast_retransmit_on_third_dup() {
        let mut w = win();
        let s = sig();
        let mut cc = RenoCc::new(3);
        assert_eq!(cc.on_ack(&mut w, &ack(5, 0, 0, 20), &s).cuts, 0);
        assert_eq!(cc.on_ack(&mut w, &ack(5, 0, 0, 20), &s).cuts, 0);
        assert_eq!(w.cwnd(), 10.0, "two dups are reordering, not loss");
        let out = cc.on_ack(&mut w, &ack(5, 0, 0, 20), &s);
        assert_eq!(out.cuts, 1);
        assert_eq!(out.retransmit, Some(5), "retransmit the hole");
        assert_eq!(w.cwnd(), 5.0);
        assert!(cc.recovery_point.is_some());
    }

    #[test]
    fn reno_inflates_during_recovery_and_deflates_on_exit() {
        let mut w = win();
        let s = sig();
        let mut cc = RenoCc::new(3);
        for _ in 0..3 {
            cc.on_ack(&mut w, &ack(5, 0, 0, 20), &s);
        }
        assert_eq!(cc.allowed_window(&w, &s), 5 + 3);
        // Two more dups inflate further.
        cc.on_ack(&mut w, &ack(5, 0, 0, 20), &s);
        cc.on_ack(&mut w, &ack(5, 0, 0, 20), &s);
        assert_eq!(cc.allowed_window(&w, &s), 5 + 5);
        // The full ack deflates to ssthresh exactly.
        cc.on_ack(&mut w, &ack(20, 15, 0, 20), &s);
        assert!(cc.recovery_point.is_none());
        assert_eq!(w.cwnd(), 5.0);
        assert_eq!(cc.allowed_window(&w, &s), 5);
    }

    #[test]
    fn reno_partial_ack_retransmits_without_second_cut() {
        let mut w = win();
        let s = sig();
        let mut cc = RenoCc::new(3);
        for _ in 0..3 {
            cc.on_ack(&mut w, &ack(5, 0, 0, 20), &s);
        }
        assert_eq!(w.cwnd(), 5.0);
        // Partial ack: cum advances to 9, still short of the recovery
        // point 20 — NewReno repairs the next hole, no further halving.
        let out = cc.on_ack(&mut w, &ack(9, 4, 0, 20), &s);
        assert_eq!(out.cuts, 0);
        assert_eq!(out.retransmit, Some(9));
        assert_eq!(w.cwnd(), 5.0);
        assert!(cc.recovery_point.is_some());
    }

    #[test]
    fn reno_dups_below_threshold_then_progress_reset_the_count() {
        let mut w = win();
        let s = sig();
        let mut cc = RenoCc::new(3);
        cc.on_ack(&mut w, &ack(5, 0, 0, 20), &s);
        cc.on_ack(&mut w, &ack(5, 0, 0, 20), &s);
        // Reordering resolved: the count must reset, no cut later.
        cc.on_ack(&mut w, &ack(6, 1, 0, 20), &s);
        let out = cc.on_ack(&mut w, &ack(6, 0, 0, 20), &s);
        assert_eq!(out.cuts, 0);
        assert!(cc.recovery_point.is_none());
    }

    #[test]
    fn reno_timeout_resets_everything() {
        let mut w = win();
        let s = sig();
        let mut cc = RenoCc::new(3);
        for _ in 0..4 {
            cc.on_ack(&mut w, &ack(5, 0, 0, 20), &s);
        }
        cc.on_timeout(&mut w, SimTime::ZERO);
        assert_eq!(w.cwnd(), 1.0);
        assert!(cc.recovery_point.is_none());
        assert_eq!(cc.allowed_window(&w, &s), 1, "inflation cleared");
    }

    #[test]
    fn loss_based_policies_default_to_unpaced() {
        let s = sig();
        assert_eq!(SackCc::new().pacing_rate(&s), None);
        assert_eq!(RenoCc::new(3).pacing_rate(&s), None);
    }

    fn rated(
        cum_ack: u64,
        ack_ms: u64,
        rtt_ms: u64,
        sent_ms: u64,
        delivered_at_send: u64,
        app_limited: bool,
    ) -> AckEvent {
        AckEvent {
            cum_ack,
            newly_acked: 1,
            newly_delivered: 1,
            newly_lost: 0,
            high_seq: cum_ack + 10,
            ack_time: SimTime::from_millis(ack_ms),
            rtt_sample: Some(SimDuration::from_millis(rtt_ms)),
            in_flight: 10,
            rate: Some(RateSample {
                newly_acked_bytes: 1000,
                sent_at: SimTime::from_millis(sent_ms),
                delivered_at_send,
                app_limited,
            }),
        }
    }

    #[test]
    fn signals_fold_rtt_and_delivery_rate() {
        let mut s = CcSignals::new();
        assert_eq!(s.min_rtt(), None);
        assert_eq!(s.bandwidth_pps(), None);
        // One packet delivered over a 100 ms send→ack interval: 10 pkt/s.
        s.on_ack(&rated(1, 100, 100, 0, 0, false));
        assert_eq!(s.delivered(), 1);
        assert_eq!(s.min_rtt(), Some(SimDuration::from_millis(100)));
        assert!((s.bandwidth_pps().unwrap() - 10.0).abs() < 1e-9);
        // A shorter RTT lowers the windowed min.
        s.on_ack(&rated(2, 200, 80, 100, 1, false));
        assert_eq!(s.min_rtt(), Some(SimDuration::from_millis(80)));
    }

    #[test]
    fn hole_fill_does_not_spike_the_bandwidth_estimate() {
        let mut s = CcSignals::new();
        // Ten packets SACKed above a hole over the preceding round trips:
        // each ack advances the delivered counter at SACK time.
        for i in 0..10 {
            let mut ev = AckEvent::loss_only(0, 0, 0, 20);
            ev.newly_delivered = 1;
            ev.ack_time = SimTime::from_millis(100 * (i + 1));
            s.on_ack(&ev);
        }
        assert_eq!(s.delivered(), 10);
        // The retransmit fills the hole: cum_ack leaps 11 packets, but
        // only the retransmitted packet is a first-time delivery. The
        // rate sample must see 1 pkt / 100 ms, not 11 — attributing the
        // whole jump to one RTT is the spike that made BBR flood
        // shallow buffers.
        s.on_ack(&AckEvent {
            cum_ack: 11,
            newly_acked: 11,
            newly_delivered: 1,
            newly_lost: 0,
            high_seq: 20,
            ack_time: SimTime::from_millis(1100),
            rtt_sample: Some(SimDuration::from_millis(100)),
            in_flight: 9,
            rate: Some(RateSample {
                newly_acked_bytes: 11_000,
                sent_at: SimTime::from_millis(1000),
                delivered_at_send: 10,
                app_limited: false,
            }),
        });
        assert_eq!(s.delivered(), 11);
        assert!((s.bandwidth_pps().unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn app_limited_samples_cannot_raise_the_estimate() {
        let mut s = CcSignals::new();
        s.on_ack(&rated(1, 100, 100, 0, 0, false));
        let bw = s.bandwidth_pps().unwrap();
        // Same interval, app-limited: the (identical) rate is not *higher*
        // than the estimate, so it must be discarded.
        s.on_ack(&rated(2, 200, 100, 100, 1, true));
        assert_eq!(s.bandwidth_pps(), Some(bw));
        // An app-limited sample *above* the estimate still counts: the
        // path proved it can move at least that fast.
        s.on_ack(&rated(4, 250, 100, 200, 2, true));
        assert!(s.bandwidth_pps().unwrap() > bw);
    }

    #[test]
    fn zero_length_rate_interval_is_ignored() {
        let mut s = CcSignals::new();
        s.on_ack(&rated(1, 100, 100, 100, 0, false));
        assert_eq!(s.bandwidth_pps(), None, "no division by zero sample");
        assert_eq!(s.delivered(), 1, "delivery count still advances");
    }
}
