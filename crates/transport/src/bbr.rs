//! BBRv1 congestion control (Cardwell et al., "BBR: Congestion-Based
//! Congestion Control").
//!
//! BBR is the first policy in this crate that is *rate-based*: instead of
//! reacting to loss it builds an explicit model of the path — the
//! bottleneck bandwidth (windowed max of delivery-rate samples) and the
//! round-trip propagation delay (windowed min RTT), both read from
//! [`CcSignals`] — and steers towards the Kleinrock point where
//! `inflight = BDP = bandwidth × min_rtt`.
//!
//! The classic four-state machine drives the gains:
//!
//! ```text
//!             bw plateau                 inflight <= BDP
//! Startup ------------------> Drain ------------------------> ProbeBw
//!    ^   (3 rounds < 25% growth)                                |  ^
//!    |                                                          v  |
//!    |       min-RTT sample stale for 10 s (from any state)     |  |
//!    +------------------ ProbeRtt <-----------------------------+  |
//!      (pipe not full)      |       (cwnd = 4 for 200 ms)          |
//!                           +--------------------------------------+
//!                                       (pipe full)
//! ```
//!
//! * **Startup** doubles the delivery rate every round (gain 2/ln 2 ≈
//!   2.885) until the bandwidth filter plateaus (< 25% growth for three
//!   rounds), then
//! * **Drain** inverts the gain to empty the queue Startup built, until
//!   inflight falls to one BDP, then
//! * **ProbeBw** cycles eight pacing-gain phases
//!   `[1.25, 0.75, 1, 1, 1, 1, 1, 1]`, one windowed-min RTT each,
//!   probing for new bandwidth and draining what the probe queued;
//! * **ProbeRtt** interrupts whenever the min-RTT sample has not been
//!   refreshed for 10 s: cwnd drops to 4 packets for 200 ms so the queue
//!   empties and the propagation delay can be re-measured.
//!
//! Packet loss is *not* a primary signal: `on_loss` returns `false` (no
//! AIMD cut), and only a retransmission timeout collapses the window.
//! Pacing is where BBR bites: [`BbrV1Cc::pacing_rate`] returns
//! `pacing_gain × bandwidth`, which `tcp_sack`'s send loop enforces
//! between ack clocks.

use netsim::time::{SimDuration, SimTime};

use crate::cc::{AckEvent, AckOutcome, CcSignals, CongestionControl, MIN_RTT_WINDOW};
use crate::window::WindowState;

/// Startup pacing/cwnd gain: `2 / ln 2`, doubling per round trip.
pub const BBR_STARTUP_GAIN: f64 = 2.885;

/// Cwnd gain while probing bandwidth (two BDPs absorbs delayed acks and
/// the probe phase's own queue).
pub const BBR_CWND_GAIN: f64 = 2.0;

/// The ProbeBw pacing-gain cycle: probe a quarter above the estimate,
/// drain the same quarter, then cruise six phases at the estimate.
pub const BBR_PROBE_BW_GAINS: [f64; 8] = [1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];

/// Floor on the congestion window (packets) — keeps ProbeRtt and early
/// startup from stalling the ack clock.
pub const BBR_MIN_CWND: f64 = 4.0;

/// How long ProbeRtt holds the window at the floor.
pub const BBR_PROBE_RTT_DURATION: SimDuration = SimDuration::from_millis(200);

/// The four BBRv1 states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BbrState {
    Startup,
    Drain,
    ProbeBw,
    ProbeRtt,
}

/// BBRv1 over the shared [`WindowState`] and [`CcSignals`].
#[derive(Debug, Clone)]
pub struct BbrV1Cc {
    state: BbrState,
    pacing_gain: f64,
    cwnd_gain: f64,
    /// Bandwidth estimate at the last full-pipe check (pkt/s).
    full_bw: f64,
    /// Consecutive rounds without 25% bandwidth growth.
    full_bw_count: u32,
    /// Startup saw the bandwidth plateau: the pipe is full.
    filled_pipe: bool,
    /// Round-trip counting: the round ends when the delivered counter
    /// passes the value it will have once everything now in flight is
    /// acked.
    next_round_delivered: u64,
    round_start: bool,
    /// ProbeBw gain-cycle position and the time the phase started.
    cycle_index: usize,
    cycle_stamp: SimTime,
    /// BBR's own min-RTT bookkeeping for ProbeRtt scheduling: the
    /// windowed filter in [`CcSignals`] forgets by *raising* the min, so
    /// staleness (nothing at or below the tracked min for 10 s) is
    /// tracked here.
    min_rtt: Option<SimDuration>,
    min_rtt_stamp: SimTime,
    /// The tracked min went unrefreshed for [`MIN_RTT_WINDOW`] as of the
    /// current ack (computed before the stamp refresh, so the ProbeRtt
    /// entry check sees it).
    min_rtt_expired: bool,
    /// ProbeRtt dwell deadline once inflight has reached the floor.
    probe_rtt_done_at: Option<SimTime>,
    /// Window to restore when ProbeRtt ends.
    prior_cwnd: f64,
}

impl Default for BbrV1Cc {
    fn default() -> Self {
        Self::new()
    }
}

impl BbrV1Cc {
    /// A fresh policy in Startup.
    pub fn new() -> Self {
        BbrV1Cc {
            state: BbrState::Startup,
            pacing_gain: BBR_STARTUP_GAIN,
            cwnd_gain: BBR_STARTUP_GAIN,
            full_bw: 0.0,
            full_bw_count: 0,
            filled_pipe: false,
            next_round_delivered: 0,
            round_start: false,
            cycle_index: 0,
            cycle_stamp: SimTime::ZERO,
            min_rtt: None,
            min_rtt_stamp: SimTime::ZERO,
            min_rtt_expired: false,
            probe_rtt_done_at: None,
            prior_cwnd: BBR_MIN_CWND,
        }
    }

    /// The current pacing gain (exposed for the pacing-bound proptest).
    pub fn pacing_gain(&self) -> f64 {
        self.pacing_gain
    }

    /// The current cwnd gain (exposed for the pacing-bound proptest).
    pub fn cwnd_gain(&self) -> f64 {
        self.cwnd_gain
    }

    /// Whether Startup has declared the pipe full.
    pub fn filled_pipe(&self) -> bool {
        self.filled_pipe
    }

    /// Short state name for debugging and telemetry.
    pub fn state_name(&self) -> &'static str {
        match self.state {
            BbrState::Startup => "startup",
            BbrState::Drain => "drain",
            BbrState::ProbeBw => "probe_bw",
            BbrState::ProbeRtt => "probe_rtt",
        }
    }

    /// Bandwidth-delay product in packets, once both estimates exist.
    fn bdp(&self, signals: &CcSignals) -> Option<f64> {
        let bw = signals.bandwidth_pps()?;
        let rtt = self.min_rtt.or(signals.min_rtt())?;
        Some(bw * rtt.as_secs_f64())
    }

    /// The windowed-min RTT as a phase length (fallback before samples).
    fn phase_len(&self) -> SimDuration {
        self.min_rtt.unwrap_or(SimDuration::from_millis(100))
    }

    fn update_round(&mut self, ev: &AckEvent, signals: &CcSignals) {
        if signals.delivered() >= self.next_round_delivered {
            self.next_round_delivered = signals.delivered() + ev.in_flight;
            self.round_start = true;
        } else {
            self.round_start = false;
        }
    }

    fn update_min_rtt(&mut self, ev: &AckEvent) {
        self.min_rtt_expired = self.min_rtt.is_some()
            && ev.ack_time.saturating_since(self.min_rtt_stamp) > MIN_RTT_WINDOW;
        if let Some(rtt) = ev.rtt_sample {
            if self.min_rtt_expired || self.min_rtt.is_none_or(|m| rtt <= m) {
                self.min_rtt = Some(rtt);
                self.min_rtt_stamp = ev.ack_time;
            }
        }
    }

    /// Once per round in Startup: has the bandwidth stopped growing?
    fn check_full_pipe(&mut self, signals: &CcSignals) {
        if self.filled_pipe || !self.round_start {
            return;
        }
        let Some(bw) = signals.bandwidth_pps() else {
            return;
        };
        if bw >= self.full_bw * 1.25 {
            self.full_bw = bw;
            self.full_bw_count = 0;
            return;
        }
        self.full_bw_count += 1;
        if self.full_bw_count >= 3 {
            self.filled_pipe = true;
        }
    }

    fn enter_probe_bw(&mut self, now: SimTime) {
        self.state = BbrState::ProbeBw;
        // Start in a cruise phase: the drain that just finished already
        // emptied Startup's queue, so probing immediately would re-queue.
        self.cycle_index = 2;
        self.cycle_stamp = now;
        self.pacing_gain = BBR_PROBE_BW_GAINS[self.cycle_index];
        self.cwnd_gain = BBR_CWND_GAIN;
    }

    fn update_state(&mut self, win: &mut WindowState, ev: &AckEvent, signals: &CcSignals) {
        let now = ev.ack_time;

        // ProbeRtt pre-empts every other state.
        if self.state != BbrState::ProbeRtt && self.min_rtt_expired {
            self.state = BbrState::ProbeRtt;
            self.pacing_gain = 1.0;
            self.cwnd_gain = 1.0;
            self.prior_cwnd = win.cwnd();
            self.probe_rtt_done_at = None;
        }

        match self.state {
            BbrState::Startup => {
                self.check_full_pipe(signals);
                if self.filled_pipe {
                    self.state = BbrState::Drain;
                    self.pacing_gain = 1.0 / BBR_STARTUP_GAIN;
                    self.cwnd_gain = BBR_STARTUP_GAIN;
                }
            }
            BbrState::Drain => {
                if let Some(bdp) = self.bdp(signals) {
                    if (ev.in_flight as f64) <= bdp {
                        self.enter_probe_bw(now);
                    }
                }
            }
            BbrState::ProbeBw => {
                // Advance the gain cycle once per windowed-min RTT.
                if now.saturating_since(self.cycle_stamp) >= self.phase_len() {
                    self.cycle_index = (self.cycle_index + 1) % BBR_PROBE_BW_GAINS.len();
                    self.cycle_stamp = now;
                    self.pacing_gain = BBR_PROBE_BW_GAINS[self.cycle_index];
                }
            }
            BbrState::ProbeRtt => {
                if self.probe_rtt_done_at.is_none() && ev.in_flight as f64 <= BBR_MIN_CWND {
                    // The queue is drained; dwell at the floor.
                    self.probe_rtt_done_at = Some(now + BBR_PROBE_RTT_DURATION);
                }
                if let Some(done) = self.probe_rtt_done_at {
                    if now >= done {
                        // Fresh propagation-delay measurement secured.
                        self.min_rtt_stamp = now;
                        win.set(self.prior_cwnd);
                        if self.filled_pipe {
                            self.enter_probe_bw(now);
                        } else {
                            self.state = BbrState::Startup;
                            self.pacing_gain = BBR_STARTUP_GAIN;
                            self.cwnd_gain = BBR_STARTUP_GAIN;
                        }
                    }
                }
            }
        }
    }

    fn set_cwnd(&mut self, win: &mut WindowState, ev: &AckEvent, signals: &CcSignals) {
        if self.state == BbrState::ProbeRtt {
            win.set(BBR_MIN_CWND);
            return;
        }
        match self.bdp(signals) {
            Some(bdp) => {
                win.set((self.cwnd_gain * bdp).max(BBR_MIN_CWND));
            }
            None => {
                // No model yet: grow like slow start so samples arrive.
                win.set(win.cwnd() + ev.newly_acked as f64);
            }
        }
    }
}

impl CongestionControl for BbrV1Cc {
    fn on_ack(&mut self, win: &mut WindowState, ev: &AckEvent, signals: &CcSignals) -> AckOutcome {
        self.update_round(ev, signals);
        self.update_min_rtt(ev);
        self.update_state(win, ev, signals);
        self.set_cwnd(win, ev, signals);
        AckOutcome::default()
    }

    fn on_loss(&mut self, _win: &mut WindowState, _high_seq: u64, _now: SimTime) -> bool {
        // Loss is not a primary signal in BBRv1: the model, not the loss,
        // sets the rate. (Recovery conservation is below this seam.)
        false
    }

    fn on_timeout(&mut self, win: &mut WindowState, _now: SimTime) {
        // An RTO means the model failed badly: restart conservatively.
        self.prior_cwnd = win.cwnd().max(self.prior_cwnd);
        win.collapse();
    }

    fn allowed_window(&self, win: &WindowState, _signals: &CcSignals) -> u64 {
        win.allowed()
    }

    fn pacing_rate(&self, signals: &CcSignals) -> Option<f64> {
        signals.bandwidth_pps().map(|bw| self.pacing_gain * bw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::RateSample;

    fn win() -> WindowState {
        WindowState::new(4.0, f64::INFINITY, 10_000.0)
    }

    /// Drive one ack through signals and policy, BBR-shaped.
    fn drive(
        cc: &mut BbrV1Cc,
        w: &mut WindowState,
        s: &mut CcSignals,
        cum_ack: u64,
        ack_ms: u64,
        rtt_ms: u64,
        in_flight: u64,
    ) {
        let ev = AckEvent {
            cum_ack,
            newly_acked: 1,
            newly_delivered: 1,
            newly_lost: 0,
            high_seq: cum_ack + in_flight,
            ack_time: SimTime::from_millis(ack_ms),
            rtt_sample: Some(SimDuration::from_millis(rtt_ms)),
            in_flight,
            rate: Some(RateSample {
                newly_acked_bytes: 1000,
                sent_at: SimTime::from_millis(ack_ms.saturating_sub(rtt_ms)),
                delivered_at_send: s.delivered().saturating_sub(in_flight.min(s.delivered())),
                app_limited: false,
            }),
        };
        s.on_ack(&ev);
        cc.on_ack(w, &ev, s);
    }

    #[test]
    fn starts_in_startup_with_startup_gains() {
        let cc = BbrV1Cc::new();
        assert_eq!(cc.state_name(), "startup");
        assert_eq!(cc.pacing_gain(), BBR_STARTUP_GAIN);
        assert_eq!(cc.cwnd_gain(), BBR_STARTUP_GAIN);
        assert_eq!(cc.pacing_rate(&CcSignals::new()), None, "no model yet");
    }

    #[test]
    fn plateau_drives_startup_to_drain_to_probe_bw() {
        let mut cc = BbrV1Cc::new();
        let mut w = win();
        let mut s = CcSignals::new();
        // A constant-bandwidth path: 10 pkt per 100 ms round → the filter
        // plateaus and Startup must exit within a few rounds.
        let mut t = 100;
        let mut seq = 0;
        for _round in 0..8 {
            for _ in 0..10 {
                seq += 1;
                drive(&mut cc, &mut w, &mut s, seq, t, 100, 10);
                t += 10;
            }
        }
        assert!(cc.filled_pipe(), "constant bw must plateau the filter");
        assert_ne!(cc.state_name(), "startup");
        // Drain ends once inflight <= BDP; with BDP ≈ 10 pkt an inflight
        // of 5 gets there immediately.
        seq += 1;
        drive(&mut cc, &mut w, &mut s, seq, t, 100, 5);
        assert_eq!(cc.state_name(), "probe_bw");
        assert_eq!(cc.cwnd_gain(), BBR_CWND_GAIN);
        let bw = s.bandwidth_pps().unwrap();
        let rate = cc.pacing_rate(&s).unwrap();
        assert!(rate <= bw * 1.25 + 1e-9, "probe gain tops at 1.25");
    }

    #[test]
    fn stale_min_rtt_triggers_probe_rtt_and_restores_cwnd() {
        let mut cc = BbrV1Cc::new();
        let mut w = win();
        let mut s = CcSignals::new();
        drive(&mut cc, &mut w, &mut s, 1, 100, 100, 10);
        let cwnd_before = w.cwnd();
        // 11 s later, every sample above the tracked min: stale → ProbeRtt.
        drive(&mut cc, &mut w, &mut s, 2, 11_200, 150, 10);
        assert_eq!(cc.state_name(), "probe_rtt");
        assert_eq!(w.cwnd(), BBR_MIN_CWND);
        // Inflight at the floor starts the 200 ms dwell; after it expires
        // the window is restored and the machine leaves ProbeRtt.
        drive(&mut cc, &mut w, &mut s, 3, 11_300, 150, 2);
        drive(&mut cc, &mut w, &mut s, 4, 11_600, 150, 2);
        assert_ne!(cc.state_name(), "probe_rtt");
        assert!(w.cwnd() >= cwnd_before.min(BBR_MIN_CWND));
    }

    #[test]
    fn pacing_rate_is_gain_times_bandwidth() {
        let mut cc = BbrV1Cc::new();
        let mut w = win();
        let mut s = CcSignals::new();
        drive(&mut cc, &mut w, &mut s, 1, 100, 100, 10);
        let bw = s.bandwidth_pps().unwrap();
        let rate = cc.pacing_rate(&s).unwrap();
        assert!((rate - cc.pacing_gain() * bw).abs() < 1e-9);
        assert!(rate <= bw * cc.cwnd_gain() + 1e-9);
    }

    #[test]
    fn loss_is_ignored_but_timeout_collapses() {
        let mut cc = BbrV1Cc::new();
        let mut w = win();
        let mut s = CcSignals::new();
        drive(&mut cc, &mut w, &mut s, 1, 100, 100, 10);
        let cwnd = w.cwnd();
        assert!(!cc.on_loss(&mut w, 50, SimTime::from_millis(200)));
        assert_eq!(w.cwnd(), cwnd, "loss must not cut the window");
        cc.on_timeout(&mut w, SimTime::from_millis(300));
        assert_eq!(w.cwnd(), 1.0, "an RTO still collapses");
    }

    #[test]
    fn probe_bw_cycles_through_all_gains() {
        let mut cc = BbrV1Cc::new();
        let mut w = win();
        let mut s = CcSignals::new();
        let mut t = 100;
        let mut seq = 0;
        for _ in 0..80 {
            seq += 1;
            drive(&mut cc, &mut w, &mut s, seq, t, 100, 10);
            t += 10;
        }
        // Force drain exit, then walk the cycle: every gain must appear.
        seq += 1;
        drive(&mut cc, &mut w, &mut s, seq, t, 100, 5);
        assert_eq!(cc.state_name(), "probe_bw");
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..200 {
            seq += 1;
            t += 60;
            drive(&mut cc, &mut w, &mut s, seq, t, 100, 10);
            seen.insert((cc.pacing_gain() * 100.0) as i64);
        }
        assert!(seen.contains(&125), "probe phase must occur");
        assert!(seen.contains(&75), "drain phase must occur");
        assert!(seen.contains(&100), "cruise phases must occur");
    }
}
