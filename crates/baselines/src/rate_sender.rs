//! The rate-based multicast framework shared by the LTRC and MBFC
//! baselines.
//!
//! The paper's introduction describes the common shape of 1997-era
//! rate-based proposals: the sender transmits at a rate, receivers report
//! loss measurements, and every update interval the sender halves the rate
//! if the loss reports indicate congestion, otherwise increases it
//! linearly (~one packet per RTT). The proposals differ only in *how*
//! congestion is inferred from the reports — that policy is the
//! [`RateController`] trait; LTRC and MBFC implement it.

use std::any::Any;

use netsim::agent::Agent;
use netsim::engine::Context;
use netsim::id::{AgentId, GroupId};
use netsim::packet::{Dest, Packet};
use netsim::stats::{Ewma, TimeWeighted};
use netsim::time::{SimDuration, SimTime};
use netsim::wire::{RateData, RateFeedback, Segment};

/// Timer token: transmit the next data packet.
const SEND_TOKEN: u64 = 1;
/// Timer token: run the controller update.
const UPDATE_TOKEN: u64 = 2;
/// Timer token (receiver): emit the periodic loss report.
const REPORT_TOKEN: u64 = 3;

/// The most recent loss report from one receiver, as seen by the sender.
#[derive(Debug, Clone, Copy)]
pub struct ReceiverReport {
    /// The reporting receiver.
    pub receiver: AgentId,
    /// EWMA loss rate reported by the receiver.
    pub avg_loss_rate: f64,
    /// Loss rate over the receiver's last report interval alone.
    pub interval_loss_rate: f64,
    /// When the report arrived at the sender.
    pub updated_at: SimTime,
}

/// A congestion-inference policy for a rate-based multicast sender.
pub trait RateController: std::fmt::Debug + Send + 'static {
    /// Decide the new rate (pkt/s) given the current rate and the latest
    /// per-receiver reports. Called once per update interval.
    fn update(&mut self, now: SimTime, rate: f64, reports: &[ReceiverReport]) -> f64;

    /// Number of rate reductions taken so far (for the comparison tables).
    fn reductions(&self) -> u64;
}

/// Configuration shared by rate-based senders.
#[derive(Debug, Clone)]
pub struct RateConfig {
    /// Data packet size, bytes.
    pub packet_size: u32,
    /// Initial transmission rate, pkt/s.
    pub initial_rate: f64,
    /// Rate floor, pkt/s (never shut off completely).
    pub min_rate: f64,
    /// Rate ceiling, pkt/s.
    pub max_rate: f64,
    /// Controller update period.
    pub update_interval: SimDuration,
}

impl Default for RateConfig {
    fn default() -> Self {
        RateConfig {
            packet_size: 1000,
            initial_rate: 10.0,
            min_rate: 1.0,
            max_rate: 100_000.0,
            update_interval: SimDuration::from_millis(500),
        }
    }
}

/// Sender statistics.
#[derive(Debug, Clone)]
pub struct RateSenderStats {
    /// Data packets sent since the last reset.
    pub data_sent: u64,
    /// Time-weighted average rate, pkt/s.
    pub rate_avg: TimeWeighted,
    /// When the statistics window began.
    pub since: SimTime,
}

/// A multicast sender transmitting at a controlled rate.
pub struct RateSender<C: RateController> {
    cfg: RateConfig,
    group: GroupId,
    controller: C,
    rate: f64,
    reports: Vec<ReceiverReport>,
    next_seq: u64,
    /// Collected statistics.
    pub stats: RateSenderStats,
}

impl<C: RateController> RateSender<C> {
    /// A sender for `group` driven by `controller`.
    pub fn new(group: GroupId, cfg: RateConfig, controller: C) -> Self {
        assert!(cfg.initial_rate > 0.0, "initial rate must be positive");
        assert!(
            cfg.min_rate > 0.0 && cfg.min_rate <= cfg.max_rate,
            "rate bounds must satisfy 0 < min <= max"
        );
        let rate = cfg.initial_rate;
        RateSender {
            group,
            controller,
            rate,
            reports: Vec::new(),
            next_seq: 0,
            stats: RateSenderStats {
                data_sent: 0,
                rate_avg: TimeWeighted::new(SimTime::ZERO, rate),
                since: SimTime::ZERO,
            },
            cfg,
        }
    }

    /// Current transmission rate, pkt/s.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The controller (for inspecting policy-specific counters).
    pub fn controller(&self) -> &C {
        &self.controller
    }

    /// Discard statistics and start a fresh window at `now`.
    pub fn reset_stats(&mut self, now: SimTime) {
        self.stats = RateSenderStats {
            data_sent: 0,
            rate_avg: TimeWeighted::new(now, self.rate),
            since: now,
        };
    }

    fn interval(&self) -> SimDuration {
        SimDuration::from_secs_f64(1.0 / self.rate)
    }

    fn send_one(&mut self, ctx: &mut Context<'_>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stats.data_sent += 1;
        ctx.send(
            Dest::Group(self.group),
            self.cfg.packet_size,
            Segment::RateData(RateData {
                seq,
                timestamp: ctx.now(),
            }),
        );
    }
}

impl<C: RateController> Agent for RateSender<C> {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.stats.rate_avg = TimeWeighted::new(ctx.now(), self.rate);
        self.stats.since = ctx.now();
        self.send_one(ctx);
        ctx.set_timer(self.interval(), SEND_TOKEN);
        ctx.set_timer(self.cfg.update_interval, UPDATE_TOKEN);
    }

    fn on_packet(&mut self, packet: Packet, ctx: &mut Context<'_>) {
        let Segment::RateFeedback(fb) = packet.segment else {
            debug_assert!(false, "rate sender got {}", packet.segment.kind_str());
            return;
        };
        let report = ReceiverReport {
            receiver: fb.receiver,
            avg_loss_rate: fb.avg_loss_rate,
            interval_loss_rate: if fb.lost + fb.received == 0 {
                0.0
            } else {
                fb.lost as f64 / (fb.lost + fb.received) as f64
            },
            updated_at: ctx.now(),
        };
        match self.reports.iter_mut().find(|r| r.receiver == fb.receiver) {
            Some(slot) => *slot = report,
            None => self.reports.push(report),
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
        match token {
            SEND_TOKEN => {
                self.send_one(ctx);
                ctx.set_timer(self.interval(), SEND_TOKEN);
            }
            UPDATE_TOKEN => {
                let now = ctx.now();
                let new_rate = self
                    .controller
                    .update(now, self.rate, &self.reports)
                    .clamp(self.cfg.min_rate, self.cfg.max_rate);
                self.rate = new_rate;
                self.stats.rate_avg.set(now, new_rate);
                ctx.set_timer(self.cfg.update_interval, UPDATE_TOKEN);
            }
            other => debug_assert!(false, "unknown timer token {other}"),
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Receiver statistics.
#[derive(Debug, Default, Clone)]
pub struct RateReceiverStats {
    /// Data packets received.
    pub received: u64,
    /// Losses inferred from sequence gaps.
    pub lost: u64,
}

/// A rate-based multicast receiver: counts sequence gaps as losses and
/// reports periodically.
#[derive(Debug)]
pub struct RateReceiver {
    /// Next expected sequence number.
    expected: u64,
    /// Losses in the current report interval.
    interval_lost: u64,
    /// Receptions in the current report interval.
    interval_received: u64,
    /// EWMA of the per-interval loss rate.
    loss_ewma: Ewma,
    /// Learned from the first data packet.
    sender: Option<AgentId>,
    report_interval: SimDuration,
    feedback_size: u32,
    /// Running statistics.
    pub stats: RateReceiverStats,
}

impl RateReceiver {
    /// A receiver reporting every `report_interval` with the given EWMA
    /// gain on its loss rate.
    pub fn new(report_interval: SimDuration, loss_gain: f64) -> Self {
        RateReceiver {
            expected: 0,
            interval_lost: 0,
            interval_received: 0,
            loss_ewma: Ewma::new(loss_gain),
            sender: None,
            report_interval,
            feedback_size: 40,
            stats: RateReceiverStats::default(),
        }
    }

    /// Zero the statistics (end-of-warmup reset).
    pub fn reset_stats(&mut self) {
        self.stats = RateReceiverStats::default();
    }
}

impl Agent for RateReceiver {
    fn on_packet(&mut self, packet: Packet, ctx: &mut Context<'_>) {
        let Segment::RateData(data) = packet.segment else {
            debug_assert!(false, "rate receiver got {}", packet.segment.kind_str());
            return;
        };
        if self.sender.is_none() {
            self.sender = Some(packet.src);
            ctx.set_timer(self.report_interval, REPORT_TOKEN);
        }
        if data.seq >= self.expected {
            let gap = data.seq - self.expected;
            self.interval_lost += gap;
            self.stats.lost += gap;
            self.expected = data.seq + 1;
        }
        self.interval_received += 1;
        self.stats.received += 1;
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
        debug_assert_eq!(token, REPORT_TOKEN);
        let total = self.interval_lost + self.interval_received;
        let rate = if total == 0 {
            0.0
        } else {
            self.interval_lost as f64 / total as f64
        };
        self.loss_ewma.push(rate);
        if let Some(sender) = self.sender {
            ctx.send(
                Dest::Agent(sender),
                self.feedback_size,
                Segment::RateFeedback(RateFeedback {
                    receiver: ctx.agent,
                    highest_seq: self.expected,
                    lost: self.interval_lost,
                    received: self.interval_received,
                    avg_loss_rate: self.loss_ewma.value_or(0.0),
                }),
            );
        }
        self.interval_lost = 0;
        self.interval_received = 0;
        ctx.set_timer(self.report_interval, REPORT_TOKEN);
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

    /// A controller that never changes the rate.
    #[derive(Debug)]
    pub struct FixedRate;
    impl RateController for FixedRate {
        fn update(&mut self, _now: SimTime, rate: f64, _reports: &[ReceiverReport]) -> f64 {
            rate
        }
        fn reductions(&self) -> u64 {
            0
        }
    }

    #[test]
    fn sender_paces_at_configured_rate() {
        use netsim::queue::QueueConfig;
        let mut e = netsim::engine::Engine::new(1);
        let a = e.add_node("a");
        let b = e.add_node("b");
        e.add_link(
            a,
            b,
            100_000_000,
            SimDuration::from_millis(5),
            &QueueConfig::paper_droptail(),
        );
        let g = e.new_group();
        let rx = e.add_agent(
            b,
            Box::new(RateReceiver::new(SimDuration::from_millis(500), 0.25)),
        );
        e.join_group(g, rx);
        let cfg = RateConfig {
            initial_rate: 50.0,
            ..Default::default()
        };
        let tx = e.add_agent(a, Box::new(RateSender::new(g, cfg, FixedRate)));
        e.compute_routes();
        e.build_group_tree(g, a);
        e.start_agent_at(tx, SimTime::ZERO);
        e.run_until(SimTime::from_secs(10));
        let rxa: &RateReceiver = e.agent_as(rx).unwrap();
        let got = rxa.stats.received;
        assert!(
            (495..=505).contains(&got),
            "expected ~500 packets at 50 pkt/s over 10 s, got {got}"
        );
        assert_eq!(rxa.stats.lost, 0);
    }

    #[test]
    fn receiver_counts_gaps_as_losses() {
        let mut r = RateReceiver::new(SimDuration::from_secs(1), 0.25);
        // Feed sequences 0, 1, 4, 5 directly through the accounting.
        for seq in [0u64, 1, 4, 5] {
            if seq >= r.expected {
                let gap = seq - r.expected;
                r.interval_lost += gap;
                r.stats.lost += gap;
                r.expected = seq + 1;
            }
            r.interval_received += 1;
            r.stats.received += 1;
        }
        assert_eq!(r.stats.lost, 2);
        assert_eq!(r.stats.received, 4);
    }
}
