//! The TCP sender: slow start, congestion avoidance, fast
//! retransmit/recovery and timeout recovery — one agent for every
//! registered variant.
//!
//! In its default form ([`TcpSender::new`]) this models the NS2 `Sack1`
//! agent the paper simulated against, at the level of detail its analysis
//! uses (§4.1): window +1 per RTT without loss, one halving per loss
//! window, cwnd = 1 on timeout.
//!
//! The sender owns everything policy-independent: the send loop, the
//! ack/timeout skeleton, timers, statistics and the telemetry probe. The
//! two things a variant chooses are plugged in — a loss detector (SACK
//! scoreboard or duplicate-ack counting, see `loss.rs`) and a
//! [`CongestionControl`] policy from the shared `transport` crate, fed
//! one [`AckEvent`] per acknowledgment. A variant is a row of
//! [`crate::CC_REGISTRY`] naming that pair; the golden trace digests
//! certify the wiring bit-for-bit.
//!
//! ## Rate signals and pacing (CC API v2)
//!
//! Alongside the scoreboard the sender keeps BBR-style delivery-rate
//! bookkeeping: every transmission records its send time and the value of
//! the delivered counter at that moment, and every cumulative-ack advance
//! turns that into a [`transport::RateSample`] folded (with the RTT
//! sample) into the connection's [`CcSignals`]. Policies that ignore the
//! signals (SACK, Reno) behave exactly as before — the bookkeeping emits
//! no events.
//!
//! When the policy returns a pacing rate ([`CongestionControl::pacing_rate`],
//! BBR), the send loop stops releasing back-to-back packets: each
//! transmission pushes `next_send_at` one inter-packet gap into the
//! future, and when the gate is closed the loop parks a
//! [`PacingTimer`] instead of sending. Unpaced policies never arm it, so
//! their event streams are untouched.

use std::any::Any;

use netsim::agent::Agent;
use netsim::engine::Context;
use netsim::id::AgentId;
use netsim::packet::{Dest, Packet};
use netsim::time::{SimDuration, SimTime};
use netsim::wire::{Segment, TcpAck, TcpData};

use transport::{
    AckEvent, CcSignals, CongestionControl, PacingTimer, RexmitTimer, RttEstimator, SackCc,
    WindowState,
};

use crate::config::TcpConfig;
use crate::loss::LossDetector;

pub use transport::stats::SenderStats;

/// A TCP sender with infinite data (the paper's persistent source).
pub struct TcpSender {
    cfg: TcpConfig,
    receiver: AgentId,
    win: WindowState,
    /// The pluggable reaction policy (SACK by default).
    cc: Box<dyn CongestionControl>,
    /// Next sequence the window will release (the dup-ack detector
    /// rewinds it on timeout).
    high_seq: u64,
    /// How losses are detected (SACK scoreboard by default).
    loss: LossDetector,
    rtt: RttEstimator,
    timer: RexmitTimer,
    /// Path signals (windowed min-RTT, bandwidth filter, delivered count)
    /// accumulated for the policy.
    signals: CcSignals,
    /// Pacing release timer and gate (only armed by pacing policies).
    pacer: PacingTimer,
    next_send_at: SimTime,
    /// Collected statistics.
    pub stats: SenderStats,
}

impl TcpSender {
    /// A sender that will stream to `receiver` under the paper's SACK
    /// policy.
    pub fn new(receiver: AgentId, cfg: TcpConfig) -> Self {
        Self::with_parts(
            receiver,
            cfg,
            LossDetector::scoreboard(),
            Box::new(SackCc::new()),
        )
    }

    /// A sender running an explicit (loss detector, policy) pair — what a
    /// [`crate::CC_REGISTRY`] row builds.
    pub(crate) fn with_parts(
        receiver: AgentId,
        cfg: TcpConfig,
        loss: LossDetector,
        cc: Box<dyn CongestionControl>,
    ) -> Self {
        cfg.validate();
        let win = WindowState::new(cfg.initial_cwnd, cfg.initial_ssthresh, cfg.max_cwnd);
        let cwnd = win.cwnd();
        TcpSender {
            rtt: RttEstimator::new(cfg.min_rto, cfg.max_rto),
            cfg,
            receiver,
            win,
            cc,
            high_seq: 0,
            loss,
            timer: RexmitTimer::new(),
            signals: CcSignals::new(),
            pacer: PacingTimer::new(),
            next_send_at: SimTime::ZERO,
            stats: SenderStats::new(SimTime::ZERO, cwnd),
        }
    }

    /// Current congestion window, packets.
    pub fn cwnd(&self) -> f64 {
        self.win.cwnd()
    }

    /// Current slow-start threshold, packets.
    pub fn ssthresh(&self) -> f64 {
        self.win.ssthresh()
    }

    /// Smoothed RTT estimate.
    pub fn srtt(&self) -> Option<netsim::time::SimDuration> {
        self.rtt.srtt()
    }

    /// Timeline series-kind tag: `"tcp-sack"`, or `"reno"` for the
    /// dup-ack detector.
    pub fn probe_kind(&self) -> &'static str {
        self.loss.probe_kind()
    }

    /// The flow's current state, as a timeline sample.
    pub fn flow_sample(&self) -> telemetry::FlowSample {
        telemetry::FlowSample {
            cwnd: self.cwnd(),
            ssthresh: Some(self.ssthresh()),
            awnd: None,
            rtt: self.srtt().map(|d| d.as_secs_f64()),
        }
    }

    /// Discard statistics collected so far and start a fresh window at
    /// `now` (end-of-warmup reset; the paper discards the first 100 s).
    pub fn reset_stats(&mut self, now: SimTime) {
        self.stats = SenderStats::new(now, self.win.cwnd());
    }

    /// Transmit whatever the window (and, for pacing policies, the
    /// pacing gate) currently allows: retransmissions of declared-lost
    /// packets first, then new data.
    fn try_send(&mut self, ctx: &mut Context<'_>) {
        let allowed = self.cc.allowed_window(&self.win, &self.signals);
        let pace = self.cc.pacing_rate(&self.signals).filter(|r| *r > 0.0);
        loop {
            if self.loss.in_flight(self.high_seq) >= allowed {
                break;
            }
            let lost = self.loss.next_lost();
            // Receiver-buffer bound (§3.3 rule 5 analogue for TCP): don't
            // run more than max_cwnd past the cumulative ack.
            if lost.is_none() && self.high_seq >= self.loss.cum_ack() + self.cfg.max_cwnd as u64 {
                break;
            }
            if let Some(rate) = pace {
                // The gate is closed: park the pacing timer and let it
                // call back instead of bursting.
                let now = ctx.now();
                if now < self.next_send_at {
                    self.pacer.arm_at(ctx, self.next_send_at);
                    break;
                }
                // Charge one inter-packet gap, carrying over any credit
                // (ack clocks may lag the ideal schedule).
                let gap = SimDuration::from_secs_f64(1.0 / rate);
                self.next_send_at = self.next_send_at.max(now) + gap;
            }
            let seq = match lost {
                Some(seq) => seq,
                None => {
                    self.high_seq += 1;
                    self.high_seq - 1
                }
            };
            self.transmit(ctx, seq);
        }
    }

    fn transmit(&mut self, ctx: &mut Context<'_>, seq: u64) {
        let now = ctx.now();
        let retransmit = self.loss.on_send(seq, now, self.signals.delivered());
        self.stats.data_sent += 1;
        if retransmit {
            self.stats.retransmits += 1;
        }
        ctx.send(
            Dest::Agent(self.receiver),
            self.cfg.packet_size,
            Segment::TcpData(TcpData {
                seq,
                retransmit,
                timestamp: now,
            }),
        );
    }

    /// Feed the RTT measured off an ack to the estimator and `stats.rtt`
    /// unless the detector flagged it Karn-ambiguous; returns the sample
    /// when it was taken.
    fn take_rtt_sample(&mut self, rtt: SimDuration, ambiguous: bool) -> Option<SimDuration> {
        let taken = self.rtt.karn_sample(rtt, ambiguous);
        if taken {
            self.stats.rtt.push(rtt.as_secs_f64());
        }
        taken.then_some(rtt)
    }

    fn on_ack(&mut self, ack: &TcpAck, ctx: &mut Context<'_>) {
        let now = ctx.now();
        let report = self.loss.on_ack(ack, &self.cfg);
        let rtt_sample = self.take_rtt_sample(
            now.saturating_since(ack.echo_timestamp),
            report.rtt_ambiguous,
        );
        self.stats.delivered += report.advanced;
        // After a go-back-N rewind the receiver's buffered data can carry
        // the cumulative ack past the send loop's position.
        let cum_ack = self.loss.cum_ack();
        self.high_seq = self.high_seq.max(cum_ack);

        let ev = AckEvent {
            cum_ack,
            newly_acked: report.advanced,
            newly_delivered: report.newly_delivered,
            newly_lost: report.newly_lost,
            high_seq: self.high_seq,
            ack_time: now,
            rtt_sample,
            in_flight: self.loss.in_flight(self.high_seq),
            rate: report.rate,
        };
        self.signals.on_ack(&ev);
        let out = self.cc.on_ack(&mut self.win, &ev, &self.signals);
        self.stats.window_cuts += out.cuts;
        self.stats.cwnd_avg.set(now, self.win.cwnd());
        if let Some(seq) = out.retransmit {
            debug_assert!(
                matches!(self.loss, LossDetector::DupAck { .. }),
                "scoreboard-driven senders retransmit from the scoreboard"
            );
            self.transmit(ctx, seq);
        }

        if report.advanced > 0 {
            // Forward progress: restart the timer.
            self.timer.arm(ctx, self.rtt.rto());
        }
        self.try_send(ctx);
    }

    fn on_timeout(&mut self, ctx: &mut Context<'_>) {
        let now = ctx.now();
        if self.loss.is_idle(self.high_seq) {
            return; // nothing outstanding; idle
        }
        self.rtt.on_timeout();
        self.cc.on_timeout(&mut self.win, now);
        self.stats.cwnd_avg.set(now, self.win.cwnd());
        self.high_seq = self.loss.on_timeout(self.high_seq);
        self.stats.timeouts += 1;
        self.timer.arm(ctx, self.rtt.rto());
        self.try_send(ctx);
    }
}

impl Agent for TcpSender {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.stats = SenderStats::new(ctx.now(), self.win.cwnd());
        self.try_send(ctx);
        self.timer.arm(ctx, self.rtt.rto());
    }

    fn on_packet(&mut self, packet: Packet, ctx: &mut Context<'_>) {
        match packet.segment {
            Segment::TcpAck(ack) => self.on_ack(&ack, ctx),
            other => debug_assert!(false, "TCP sender got {}", other.kind_str()),
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
        if PacingTimer::matches(token) {
            // The pacing gate re-opened: resume the send loop.
            if self.pacer.is_current(token) {
                self.try_send(ctx);
            }
            return;
        }
        if !self.timer.is_current(token) {
            return; // superseded timer
        }
        self.on_timeout(ctx);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::engine::Engine;
    use netsim::queue::QueueConfig;
    use netsim::time::SimDuration;

    use crate::receiver::TcpReceiver;
    use crate::variants::CcVariant;

    /// One TCP flow of the named variant over a 2-node link; returns
    /// (engine, sender id, receiver id).
    fn one_flow(
        cc: &str,
        bandwidth_bps: u64,
        delay: SimDuration,
        qcfg: &QueueConfig,
    ) -> (Engine, AgentId, AgentId) {
        let mut e = Engine::new(3);
        let a = e.add_node("a");
        let b = e.add_node("b");
        e.add_link(a, b, bandwidth_bps, delay, qcfg);
        let rx = e.add_agent(b, Box::new(TcpReceiver::new(40)));
        let variant = CcVariant::parse(cc).expect("a registered variant");
        let tx = e.add_agent(a, variant.build_sender(rx, TcpConfig::default()));
        e.compute_routes();
        e.start_agent_at(tx, SimTime::ZERO);
        (e, tx, rx)
    }

    #[test]
    fn fills_an_uncongested_pipe() {
        // 8 Mbps, 10 ms: BDP = 20 packets, capacity 1000 pkt/s. The
        // window-based variants should saturate the link over 30 s (CUBIC
        // ramps a little slower); BBR must model the bottleneck and pace
        // close to it. None may time out on a clean path.
        for (cc, floor) in [
            ("sack", 28_000),
            ("reno", 28_000),
            ("cubic", 27_000),
            ("bbr", 18_000),
        ] {
            let (mut e, tx, rx) = one_flow(
                cc,
                8_000_000,
                SimDuration::from_millis(10),
                &QueueConfig::DropTail { limit: 100 },
            );
            e.run_until(SimTime::from_secs(30));
            let rx: &TcpReceiver = e.agent_as(rx).unwrap();
            assert!(
                rx.stats.delivered > floor && rx.stats.delivered <= 30_030,
                "{cc} delivered {}",
                rx.stats.delivered
            );
            let tx: &TcpSender = e.agent_as(tx).unwrap();
            assert_eq!(tx.stats.timeouts, 0, "{cc}: no timeouts on a clean path");
        }
    }

    #[test]
    fn congestion_causes_cuts_not_collapse() {
        // Tight buffer: overflow losses must trigger fast recovery, and
        // the connection must keep running (sawtooth, not stall).
        let (mut e, tx, rx) = one_flow(
            "sack",
            800_000, // 100 pkt/s
            SimDuration::from_millis(50),
            &QueueConfig::DropTail { limit: 10 },
        );
        e.run_until(SimTime::from_secs(60));
        let txs: &TcpSender = e.agent_as(tx).unwrap();
        assert!(txs.stats.window_cuts > 5, "cuts: {}", txs.stats.window_cuts);
        let rx: &TcpReceiver = e.agent_as(rx).unwrap();
        let rate = rx.stats.delivered as f64 / 60.0;
        assert!(
            rate > 80.0 && rate <= 101.0,
            "goodput {rate} pkt/s should stay near 100"
        );
    }

    #[test]
    fn reno_congestion_causes_fast_retransmits_not_stalls() {
        let (mut e, tx, rx) = one_flow(
            "reno",
            800_000, // 100 pkt/s
            SimDuration::from_millis(50),
            &QueueConfig::DropTail { limit: 10 },
        );
        e.run_until(SimTime::from_secs(60));
        let txs: &TcpSender = e.agent_as(tx).unwrap();
        assert!(txs.stats.window_cuts > 5, "cuts: {}", txs.stats.window_cuts);
        assert!(
            txs.stats.window_cuts > txs.stats.timeouts,
            "losses should mostly be repaired by fast retransmit \
             ({} cuts vs {} timeouts)",
            txs.stats.window_cuts,
            txs.stats.timeouts
        );
        let rx: &TcpReceiver = e.agent_as(rx).unwrap();
        let rate = rx.stats.delivered as f64 / 60.0;
        assert!(
            rate > 70.0 && rate <= 101.0,
            "goodput {rate} pkt/s should stay near 100"
        );
    }

    #[test]
    fn recovers_from_total_blackout_via_timeout() {
        use netsim::fault::FaultInjector;
        for cc in CcVariant::names() {
            let (mut e, tx, _rx) = one_flow(
                cc,
                8_000_000,
                SimDuration::from_millis(10),
                &QueueConfig::paper_droptail(),
            );
            let stats = |e: &Engine| e.agent_as::<TcpSender>(tx).unwrap().stats.clone();
            // Black out the forward channel for a while.
            let ch = e.world().node(netsim::id::NodeId(0)).out_channels[0];
            e.run_until(SimTime::from_secs(2));
            e.set_fault(ch, FaultInjector::new(1.0));
            e.run_until(SimTime::from_secs(6));
            assert!(
                stats(&e).timeouts >= 1,
                "{cc}: blackout must cause timeouts"
            );
            // Heal the path; the flow must resume.
            e.world_mut().channel_mut(ch).fault = None;
            let before = stats(&e).delivered;
            e.run_until(SimTime::from_secs(12));
            let after = stats(&e).delivered;
            assert!(
                after > before + 1000,
                "{cc}: flow must resume after the path heals ({before} -> {after})"
            );
        }
    }

    #[test]
    fn window_halves_once_per_loss_window() {
        // Statistical sanity: with sustained congestion, window cuts must
        // be far fewer than retransmissions grouped into loss windows.
        let (mut e, tx, _) = one_flow(
            "sack",
            800_000,
            SimDuration::from_millis(20),
            &QueueConfig::DropTail { limit: 5 },
        );
        e.run_until(SimTime::from_secs(60));
        let t: &TcpSender = e.agent_as(tx).unwrap();
        assert!(t.stats.retransmits > 0);
        assert!(
            t.stats.total_cuts() <= t.stats.retransmits,
            "cuts {} must not exceed loss events {}",
            t.stats.total_cuts(),
            t.stats.retransmits
        );
    }

    #[test]
    fn reno_and_sack_reach_comparable_goodput() {
        // Reno can only repair one loss per round trip where SACK repairs
        // a whole burst, but on a mild single-loss-dominated path the two
        // must land in the same ballpark: large divergence either way
        // means one of them is ignoring losses or stalling.
        let delivered = |cc: &str| {
            let (mut e, _tx, rx) = one_flow(
                cc,
                800_000,
                SimDuration::from_millis(50),
                &QueueConfig::DropTail { limit: 5 },
            );
            e.run_until(SimTime::from_secs(60));
            e.agent_as::<TcpReceiver>(rx).unwrap().stats.delivered
        };
        let (reno, sack) = (delivered("reno"), delivered("sack"));
        assert!(reno > 2_000, "Reno must keep moving (delivered {reno})");
        let ratio = (reno as f64 / sack as f64).max(sack as f64 / reno as f64);
        assert!(
            ratio < 1.5,
            "Reno ({reno}) and SACK ({sack}) should be comparable"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        for cc in CcVariant::names() {
            let run = || {
                let (mut e, tx, _) = one_flow(
                    cc,
                    800_000,
                    SimDuration::from_millis(20),
                    &QueueConfig::DropTail { limit: 8 },
                );
                e.run_until(SimTime::from_secs(30));
                let t: &TcpSender = e.agent_as(tx).unwrap();
                (t.stats.delivered, t.stats.window_cuts, t.stats.timeouts)
            };
            assert_eq!(run(), run(), "{cc}");
        }
    }

    #[test]
    fn karn_withholds_rtt_samples_covering_a_retransmission() {
        use netsim::wire::SackList;
        let mut s = TcpSender::with_parts(
            AgentId(0),
            TcpConfig::default(),
            LossDetector::dup_ack(),
            Box::new(transport::RenoCc::new(3)),
        );
        let ack = |s: &mut TcpSender, cum_ack: u64| {
            let report = s.loss.on_ack(
                &TcpAck {
                    cum_ack,
                    sack: SackList::default(),
                    echo_timestamp: SimTime::ZERO,
                },
                &s.cfg,
            );
            let taken = s.take_rtt_sample(SimDuration::from_millis(40), report.rtt_ambiguous);
            (report.advanced, taken.is_some())
        };
        for seq in 0..5 {
            assert!(!s.loss.on_send(seq, SimTime::ZERO, 0), "{seq} is new data");
        }
        assert!(s.loss.on_send(2, SimTime::from_millis(5), 0), "a resend");

        // [2, 4) holds the retransmitted segment — either copy may have
        // triggered the ack — and a duplicate ack measures nothing new.
        assert_eq!(ack(&mut s, 2), (2, true));
        assert_eq!(ack(&mut s, 2), (0, false));
        assert_eq!(ack(&mut s, 4), (2, false));
        assert_eq!(s.stats.rtt.count(), 1, "withheld samples stay out of stats");
        assert_eq!(s.srtt(), Some(SimDuration::from_millis(40)));
        // The ambiguity set is pruned with the cumulative ack.
        assert_eq!(ack(&mut s, 5), (1, true));
        assert_eq!(s.stats.rtt.count(), 2);
    }

    #[test]
    fn two_flows_share_a_bottleneck_roughly_equally() {
        let mut e = Engine::new(11);
        let a = e.add_node("a");
        let b = e.add_node("b");
        // 200 pkt/s bottleneck shared by two identical flows.
        e.add_link(
            a,
            b,
            1_600_000,
            SimDuration::from_millis(20),
            &QueueConfig::paper_droptail(),
        );
        let rx1 = e.add_agent(b, Box::new(TcpReceiver::new(40)));
        let rx2 = e.add_agent(b, Box::new(TcpReceiver::new(40)));
        let tx1 = e.add_agent(a, Box::new(TcpSender::new(rx1, TcpConfig::default())));
        let tx2 = e.add_agent(a, Box::new(TcpSender::new(rx2, TcpConfig::default())));
        e.compute_routes();
        e.start_agent_at(tx1, SimTime::ZERO);
        e.start_agent_at(tx2, SimTime::from_millis(37));
        e.run_until(SimTime::from_secs(120));
        let d1 = e.agent_as::<TcpReceiver>(rx1).unwrap().stats.delivered as f64;
        let d2 = e.agent_as::<TcpReceiver>(rx2).unwrap().stats.delivered as f64;
        let ratio = d1.max(d2) / d1.min(d2);
        assert!(
            ratio < 2.0,
            "equal flows should share within 2x ({d1} vs {d2})"
        );
        assert!(d1 + d2 > 0.85 * 200.0 * 120.0, "link underutilized");
    }
}
