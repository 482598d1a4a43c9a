//! The Random Listening Algorithm sender (paper §3.3).
//!
//! One multicast sender, N SACK receivers. The sender keeps a scoreboard
//! per receiver and hands each receiver's loss events to a
//! [`Listener`], which groups them into congestion signals (one per
//! `2·srtt_i`) and, on each signal from a *troubled* receiver, decides to
//! halve the window **with probability `pthresh`** (the random listening
//! step), forcing a cut if none has happened for `2·awnd` round trips.
//! The window grows by `1/cwnd` each time a packet has been acknowledged
//! by *all* receivers.
//!
//! Skeleton, following the paper's numbered rules:
//!
//! 1. loss detection — SACK scoreboard, dup-threshold 3 ([`tcp_sack::Scoreboard`]);
//! 2. congestion detection — losses within `2·srtt_i` of `cperiod_start_i`
//!    are one signal ([`Listener`]);
//! 3. window adjustment on congestion — forced-cut / randomized-cut
//!    ([`Listener`]);
//! 4. window growth — `cwnd += 1/cwnd` per packet acked by all;
//! 5. window bounds — base moves with `max_reach_all`, top never beyond
//!    `min_last_ack +` receiver buffer; both read one fold, the smallest
//!    cumulative ack of the receivers still in the control loop;
//! 6. troubled-receiver count — [`crate::trouble::TroubleTracker`].
//!
//! Loss by time — the RTO, deviation 5's early and lost-retransmission
//! repairs and the partial-ack continuation — is one
//! [`transport::Recovery`] per receiver under [`recovery::RLA`]'s row;
//! the sender applies its verdicts in one place (`RlaSender::recover`).

use std::any::Any;
use std::collections::{BTreeSet, VecDeque};

use netsim::agent::{Agent, Port};
use netsim::id::{AgentId, GroupId};
use netsim::packet::{Dest, Packet};
use netsim::stats::{Running, TimeWeighted};
use netsim::time::{SimDuration, SimTime};
use netsim::wire::{McastAck, McastData, Segment};

use tcp_sack::scoreboard::Scoreboard;
use transport::recovery::{self, Mark, Recovery, Verdict};
use transport::{defaults, WindowState};

use crate::config::RlaConfig;
use crate::listener::{Decision, Listener};

/// Timer token of the periodic timeout scan.
const SCAN_TOKEN: u64 = 1;

/// Period of the timeout scan.
const SCAN_INTERVAL: SimDuration = SimDuration::from_millis(100);

/// Most new packets released per ack event: the paper's fast-recovery
/// guard against a "suddenly widely-open window".
const MAX_BURST: u32 = 4;

/// EWMA gain of `awnd`, the moving average of the window that sets the
/// forced-cut horizon.
const AWND_GAIN: f64 = 0.02;

/// Per-receiver sender-side state.
#[derive(Debug)]
struct ReceiverState {
    id: AgentId,
    scoreboard: Scoreboard,
    /// Loss by time: the RTT estimator, the silence clock and the age
    /// rules.
    recovery: Recovery,
    /// Left the control loop through [`RlaSender::remove_receiver`]: no
    /// longer gates the window, feeds signals or is owed repairs.
    detached: bool,
}

impl ReceiverState {
    /// `true` while this receiver is in the control loop and lacks `seq`.
    fn lacks(&self, seq: u64) -> bool {
        !self.detached && !self.scoreboard.is_received(seq)
    }
}

/// Bookkeeping for RTT-of-packet measurement (only packets delivered to
/// all receivers without any retransmission count, as in the paper's
/// tables).
#[derive(Debug, Clone, Copy)]
struct SentRecord {
    first_sent: SimTime,
    retransmitted: bool,
}

/// Statistics the paper's tables report for the RLA sender.
#[derive(Debug, Clone)]
pub struct RlaStats {
    /// Packets acknowledged by all receivers since the last reset (the
    /// session throughput numerator).
    pub delivered: u64,
    /// Data packets multicast (original transmissions).
    pub data_sent: u64,
    /// Multicast retransmissions.
    pub retransmits_multicast: u64,
    /// Unicast retransmissions.
    pub retransmits_unicast: u64,
    /// Congestion signals detected, total over receivers ("# cong signals").
    pub cong_signals: u64,
    /// Congestion signals per receiver (figure 8's per-branch counts).
    pub cong_signals_per_receiver: Vec<u64>,
    /// Randomized window cuts.
    pub randomized_cuts: u64,
    /// Forced window cuts ("# forced cut"; the paper observes ~0).
    pub forced_cuts: u64,
    /// Per-receiver ack timeouts.
    pub timeouts: u64,
    /// Congestion signals ignored because the receiver was not troubled.
    pub skipped_rare: u64,
    /// Acks whose receiver id was not in the group (indicates miswiring).
    pub unknown_acks: u64,
    /// Early repairs, made without an RTO: window-edge holes, lost
    /// retransmissions and the partial-ack continuation's heads.
    pub early_retransmits: u64,
    /// Time-weighted average congestion window.
    pub cwnd_avg: TimeWeighted,
    /// Per-packet round-trip times (send until acked by all receivers, for
    /// packets never retransmitted).
    pub rtt: Running,
    /// When the statistics window began.
    pub since: SimTime,
}

impl RlaStats {
    fn new(now: SimTime, cwnd: f64, n: usize) -> Self {
        RlaStats {
            delivered: 0,
            data_sent: 0,
            retransmits_multicast: 0,
            retransmits_unicast: 0,
            cong_signals: 0,
            cong_signals_per_receiver: vec![0; n],
            randomized_cuts: 0,
            forced_cuts: 0,
            timeouts: 0,
            skipped_rare: 0,
            unknown_acks: 0,
            early_retransmits: 0,
            cwnd_avg: TimeWeighted::new(now, cwnd),
            rtt: Running::new(),
            since: now,
        }
    }

    /// Total window cuts (randomized + forced), the paper's "# wnd cut".
    pub fn window_cuts(&self) -> u64 {
        self.randomized_cuts + self.forced_cuts
    }

    /// Session throughput in packets per second over `[since, now]`.
    pub fn throughput_pps(&self, now: SimTime) -> f64 {
        let span = now.saturating_since(self.since).as_secs_f64();
        if span == 0.0 {
            0.0
        } else {
            self.delivered as f64 / span
        }
    }

    /// Write every reportable number into `reg` under `prefix.<metric>`
    /// (e.g. `rla.0.cong_signals`), closing the time averages at `now`.
    pub fn export(&self, reg: &mut telemetry::Registry, prefix: &str, now: SimTime) {
        reg.record_count(format!("{prefix}.delivered"), self.delivered);
        reg.record_count(format!("{prefix}.data_sent"), self.data_sent);
        reg.record_count(
            format!("{prefix}.retransmits_multicast"),
            self.retransmits_multicast,
        );
        reg.record_count(
            format!("{prefix}.retransmits_unicast"),
            self.retransmits_unicast,
        );
        reg.record_count(format!("{prefix}.cong_signals"), self.cong_signals);
        reg.record_count(format!("{prefix}.randomized_cuts"), self.randomized_cuts);
        reg.record_count(format!("{prefix}.forced_cuts"), self.forced_cuts);
        reg.record_count(format!("{prefix}.timeouts"), self.timeouts);
        reg.record_count(format!("{prefix}.skipped_rare"), self.skipped_rare);
        reg.record_count(format!("{prefix}.unknown_acks"), self.unknown_acks);
        reg.record_count(
            format!("{prefix}.early_retransmits"),
            self.early_retransmits,
        );
        reg.record_gauge(format!("{prefix}.throughput_pps"), self.throughput_pps(now));
        reg.record_gauge(format!("{prefix}.cwnd_avg"), self.cwnd_avg.average(now));
        reg.record_gauge(format!("{prefix}.rtt_avg"), self.rtt.mean());
    }
}

/// The RLA multicast sender.
pub struct RlaSender {
    cfg: RlaConfig,
    group: GroupId,
    receivers: Vec<ReceiverState>,
    /// `receivers` index of each tracked agent, at [`AgentId::index`]. A
    /// detached receiver keeps its entry, so its in-flight acks still
    /// resolve and are dropped.
    index_of: Vec<Option<usize>>,
    listener: Listener,

    win: WindowState,
    /// Moving average of the window size (forced-cut horizon).
    awnd: f64,
    /// Next new sequence number.
    high_seq: u64,
    /// All packets `seq < reach_all` are held by every receiver still in
    /// the control loop (`max_reach_all` in the paper): after each ack it
    /// is the smallest such cumulative ack, capped at `high_seq`.
    reach_all: u64,
    /// Sequences declared lost by at least one receiver, awaiting the
    /// everyone-has-spoken retransmission decision (footnote 8).
    pending_rexmit: BTreeSet<u64>,
    /// First-transmission times for RTT bookkeeping: entry `i` holds
    /// sequence `reach_all + i`, so the log covers `[reach_all, high_seq)`.
    sent_log: VecDeque<SentRecord>,

    /// Collected statistics.
    pub stats: RlaStats,
}

impl RlaSender {
    /// A sender that will multicast to `group` (member agents must join
    /// the group and the tree must be built before the sender starts).
    pub fn new(group: GroupId, cfg: RlaConfig) -> Self {
        cfg.validate();
        let win = WindowState::new(
            defaults::INITIAL_CWND,
            defaults::INITIAL_SSTHRESH,
            defaults::MAX_CWND,
        );
        let cwnd = win.cwnd();
        RlaSender {
            listener: Listener::new(0, SimTime::ZERO, &cfg),
            group,
            receivers: Vec::new(),
            index_of: Vec::new(),
            win,
            awnd: cwnd,
            high_seq: 0,
            reach_all: 0,
            pending_rexmit: BTreeSet::new(),
            sent_log: VecDeque::new(),
            stats: RlaStats::new(SimTime::ZERO, cwnd, 0),
            cfg,
        }
    }

    /// Current congestion window, packets.
    pub fn cwnd(&self) -> f64 {
        self.win.cwnd()
    }

    /// Moving average of the window size.
    pub fn awnd(&self) -> f64 {
        self.awnd
    }

    /// Timeline series-kind tag.
    pub fn probe_kind(&self) -> &'static str {
        "rla"
    }

    /// The session's current state, as a timeline sample.
    pub fn flow_sample(&self) -> telemetry::FlowSample {
        let srtt = self.srtt_max();
        telemetry::FlowSample {
            cwnd: self.cwnd(),
            ssthresh: None,
            awnd: Some(self.awnd()),
            rtt: (srtt > 0.0).then_some(srtt),
        }
    }

    /// Current troubled-receiver count.
    pub fn num_trouble_rcvr(&self, now: SimTime) -> usize {
        self.listener.troubled_count(now)
    }

    /// The highest packet acknowledged by all receivers.
    pub fn max_reach_all(&self) -> u64 {
        self.reach_all
    }

    /// Smallest cumulative ack over the receivers still in the control
    /// loop (`min_last_ack`); 0 once every receiver has detached.
    pub fn min_last_ack(&self) -> u64 {
        self.smallest_cum_ack().unwrap_or(0)
    }

    /// Rule 5's one fold: the smallest cumulative ack of the receivers
    /// still in the control loop, `None` when there is none.
    fn smallest_cum_ack(&self) -> Option<u64> {
        self.receivers
            .iter()
            .filter(|r| !r.detached)
            .map(|r| r.scoreboard.cum_ack())
            .min()
    }

    /// Sender-side per-receiver view: (receiver id, cumulative ack, time
    /// of the last ack heard or the last timeout). Diagnostic.
    pub fn receiver_states(&self) -> Vec<(AgentId, u64, SimTime)> {
        self.receivers
            .iter()
            .map(|r| (r.id, r.scoreboard.cum_ack(), r.recovery.last_heard()))
            .collect()
    }

    /// Discard statistics and start a fresh window at `now` (warmup reset).
    pub fn reset_stats(&mut self, now: SimTime) {
        self.stats = RlaStats::new(now, self.win.cwnd(), self.receivers.len());
    }

    /// The next new sequence number the sender will transmit. A receiver
    /// joining mid-session starts its cumulative ack here
    /// ([`crate::receiver::McastReceiver::joining_at`]).
    pub fn next_seq(&self) -> u64 {
        self.high_seq
    }

    /// The `receivers` index of `id`, if the sender tracks it.
    fn receiver_index(&self, id: AgentId) -> Option<usize> {
        self.index_of.get(id.index()).copied().flatten()
    }

    /// Resolve `id`'s acks to `receivers[idx]` from now on.
    fn track(&mut self, id: AgentId, idx: usize) {
        if self.index_of.len() <= id.index() {
            self.index_of.resize(id.index() + 1, None);
        }
        self.index_of[id.index()] = Some(idx);
    }

    /// Number of receivers the sender tracks (including detached ones).
    /// Zero until [`RlaSender::start`] is handed the group's members.
    pub fn receiver_count(&self) -> usize {
        self.receivers.len()
    }

    /// Attach a receiver that joined the multicast group mid-session. The
    /// caller must already have added `id` to the group and rebuilt the
    /// distribution tree; the new receiver's scoreboard is pre-advanced to
    /// [`RlaSender::next_seq`], so only packets sent from now on gate the
    /// window or trigger repairs for it. Panics when the sender has not
    /// started yet (pre-start joiners are simply picked up by `start`)
    /// or when `id` is already tracked.
    pub fn add_receiver(&mut self, id: AgentId, now: SimTime) {
        assert!(
            !self.receivers.is_empty(),
            "add_receiver before the sender started — a pre-start joiner is \
             picked up by start from the group's members"
        );
        assert!(
            self.receiver_index(id).is_none(),
            "receiver {id} is already tracked by this sender"
        );
        let mut scoreboard = Scoreboard::new();
        let _ = scoreboard.on_ack(self.high_seq, &[], defaults::DUPACK_THRESHOLD);
        let idx = self.receivers.len();
        self.receivers.push(ReceiverState {
            id,
            scoreboard,
            recovery: Recovery::new(&recovery::RLA, now),
            detached: false,
        });
        self.track(id, idx);
        self.listener.add_receiver();
        self.stats.cong_signals_per_receiver.push(0);
    }

    /// Take `id` out of the control loop: it stops gating the window,
    /// feeding the troubled count, or being owed repairs. This is the one
    /// way a receiver leaves. A receiver that left the multicast group
    /// mid-session goes this way, and so does one the caller chooses to
    /// drop as too slow (§4.3): one still in the group keeps getting the
    /// multicast data. Returns `false` when `id` is unknown or already
    /// detached.
    pub fn remove_receiver(&mut self, id: AgentId) -> bool {
        let Some(idx) = self.receiver_index(id) else {
            return false;
        };
        if self.receivers[idx].detached {
            return false;
        }
        self.detach(idx);
        true
    }

    // ------------------------------------------------------------------
    // Window management
    // ------------------------------------------------------------------

    /// Fold a just-applied window change into `awnd` (the forced-cut
    /// horizon tracks *every* adjustment) and the time-weighted average.
    fn after_window_change(&mut self, now: SimTime, cwnd: f64) {
        self.awnd += AWND_GAIN * (cwnd - self.awnd);
        self.stats.cwnd_avg.set(now, cwnd);
    }

    /// Rule 4: growth per packet acknowledged by all receivers.
    fn open_cwnd(&mut self, now: SimTime) {
        let cwnd = self.win.open();
        self.after_window_change(now, cwnd);
    }

    /// The largest smoothed RTT among receivers, in seconds — the
    /// session's effective RTT (drives the RTT-scaled pthresh policy and
    /// the telemetry timeline). Zero until the first RTT sample.
    pub fn srtt_max(&self) -> f64 {
        self.receivers
            .iter()
            .filter(|r| !r.detached)
            .filter_map(|r| r.recovery.srtt())
            .map(|d| d.as_secs_f64())
            .fold(0.0, f64::max)
    }

    /// Rules 2–3: hand a loss event from receiver `idx` to the listener
    /// and apply its decision to the window and the statistics.
    fn on_loss(&mut self, idx: usize, port: &mut impl Port) {
        let now = port.now();
        let srtt = self.receivers[idx].recovery.rule_srtt();
        let (srtt_max, awnd) = (self.srtt_max(), self.awnd);
        let decision = self
            .listener
            .on_loss(idx, now, srtt, srtt_max, awnd, port.rng());
        match decision {
            Decision::SamePeriod => return,
            Decision::Rare => self.stats.skipped_rare += 1,
            Decision::Forced => self.stats.forced_cuts += 1,
            Decision::Randomized { cut, .. } => self.stats.randomized_cuts += u64::from(cut),
        }
        self.stats.cong_signals += 1;
        self.stats.cong_signals_per_receiver[idx] += 1;
        if decision.cuts() {
            let cwnd = self.win.cut();
            self.after_window_change(now, cwnd);
        }
    }

    // ------------------------------------------------------------------
    // Transmission
    // ------------------------------------------------------------------

    /// Packets currently believed to be in the network: the worst
    /// receiver's unsacked, undeclared count (the SACK "pipe").
    fn pipe(&self) -> u64 {
        self.receivers
            .iter()
            .filter(|r| !r.detached)
            .map(|r| r.scoreboard.in_flight())
            .max()
            .unwrap_or(0)
    }

    /// Rule 5's send gate plus the burst limiter: release new packets while
    /// the pipe has room under `cwnd` and the slowest receiver's buffer
    /// (`min_last_ack + MAX_CWND`) allows. Using pipe accounting rather
    /// than freezing on `max_reach_all` keeps the ack clock running while
    /// a hole is being repaired, exactly as TCP SACK's fast recovery does —
    /// otherwise every loss anywhere in the group would idle the session
    /// for a repair round-trip.
    fn try_send(&mut self, port: &mut impl Port) {
        let mut burst = 0;
        let mut pipe = self.pipe();
        let allowed = self.win.allowed();
        // A send moves no cumulative ack, so the buffer's top is fixed here.
        let buffer_top = self.min_last_ack() + defaults::MAX_CWND as u64;
        while burst < MAX_BURST {
            if pipe >= allowed || self.high_seq >= buffer_top {
                break;
            }
            let seq = self.high_seq;
            self.high_seq += 1;
            self.transmit_multicast(port, seq, false);
            pipe += 1;
            burst += 1;
        }
    }

    fn transmit_multicast(&mut self, port: &mut impl Port, seq: u64, retransmit: bool) {
        let now = port.now();
        for r in &mut self.receivers {
            if r.lacks(seq) {
                r.scoreboard.on_send(seq, now);
            }
        }
        if retransmit {
            self.sent_record(seq).retransmitted = true;
            self.stats.retransmits_multicast += 1;
        } else {
            self.sent_log.push_back(SentRecord {
                first_sent: now,
                retransmitted: false,
            });
            self.stats.data_sent += 1;
        }
        port.send(
            Dest::Group(self.group),
            self.cfg.packet_size,
            Segment::McastData(McastData {
                seq,
                retransmit,
                timestamp: now,
            }),
        );
    }

    /// The log entry of `seq`, which some receiver still lacks.
    fn sent_record(&mut self, seq: u64) -> &mut SentRecord {
        &mut self.sent_log[(seq - self.reach_all) as usize]
    }

    fn transmit_unicast(&mut self, port: &mut impl Port, seq: u64, idx: usize) {
        let now = port.now();
        self.receivers[idx].scoreboard.on_send(seq, now);
        self.sent_record(seq).retransmitted = true;
        self.stats.retransmits_unicast += 1;
        let dest = Dest::Agent(self.receivers[idx].id);
        port.send(
            dest,
            self.cfg.packet_size,
            Segment::McastData(McastData {
                seq,
                retransmit: true,
                timestamp: now,
            }),
        );
    }

    /// Footnote 8: a lost packet is retransmitted by multicast if more
    /// than `rexmit_threshold` receivers request it, by unicast otherwise.
    /// The multicast branch fires as soon as the requester count crosses
    /// the threshold — at that point hearing from more receivers cannot
    /// change the decision, and with 27 branches the extra half-RTT of
    /// waiting would freeze `max_reach_all` (and therefore the send
    /// window) on every loss. The unicast branch still waits until every
    /// receiver has spoken, since the final requester set determines who
    /// gets a copy.
    fn service_retransmissions(&mut self, port: &mut impl Port) {
        let pending: Vec<u64> = self.pending_rexmit.iter().copied().collect();
        for seq in pending {
            let (requesters, in_flight) = self.requesters(seq);
            if requesters.len() > self.cfg.rexmit_threshold {
                self.pending_rexmit.remove(&seq);
                self.transmit_multicast(port, seq, true);
            } else if !in_flight {
                self.pending_rexmit.remove(&seq);
                for idx in requesters {
                    self.transmit_unicast(port, seq, idx);
                }
            }
            // Otherwise: keep waiting for the remaining acks.
        }
    }

    /// The active receivers that declared `seq` lost, and whether it is
    /// still in flight toward some other active receiver that lacks it.
    fn requesters(&self, seq: u64) -> (Vec<usize>, bool) {
        let mut requesters = Vec::new();
        let mut in_flight = false;
        for (idx, r) in self.receivers.iter().enumerate() {
            if !r.lacks(seq) {
                continue;
            }
            if r.scoreboard.is_lost(seq) {
                requesters.push(idx);
            } else {
                in_flight = true;
            }
        }
        (requesters, in_flight)
    }

    /// Advance `max_reach_all` to the smallest cumulative ack (capped at
    /// `high_seq`) and apply rule 4 for each packet that has now been
    /// acknowledged by everyone.
    fn advance_reach_all(&mut self, port: &mut impl Port) {
        let now = port.now();
        let top = self
            .smallest_cum_ack()
            .map_or(self.high_seq, |cum| cum.min(self.high_seq));
        debug_assert!(
            top == self.high_seq || self.receivers.iter().any(|r| r.lacks(top)),
            "every receiver in the control loop holds {top}, past its cumulative ack"
        );
        while self.reach_all < top {
            self.reach_all += 1;
            self.stats.delivered += 1;
            self.open_cwnd(now);
            let rec = self
                .sent_log
                .pop_front()
                .expect("sent_log covers reach_all");
            if !rec.retransmitted {
                self.stats
                    .rtt
                    .push(now.saturating_since(rec.first_sent).as_secs_f64());
            }
        }
    }

    // ------------------------------------------------------------------
    // Input processing
    // ------------------------------------------------------------------

    fn on_ack(&mut self, McastAck { receiver, ack }: McastAck, port: &mut impl Port) {
        let now = port.now();
        let Some(idx) = self.receiver_index(receiver) else {
            self.stats.unknown_acks += 1;
            debug_assert!(false, "ack from unknown receiver {receiver}");
            return;
        };

        {
            let r = &mut self.receivers[idx];
            if r.detached {
                return; // no longer part of the control loop
            }
            r.recovery
                .on_ack(now, now.saturating_since(ack.echo_timestamp), false);
        }

        let prior_cum = self.receivers[idx].scoreboard.cum_ack();
        let newly_lost = self.receivers[idx].scoreboard.on_ack(
            ack.cum_ack,
            &ack.sack,
            defaults::DUPACK_THRESHOLD,
        );

        if newly_lost > 0 {
            for seq in self.receivers[idx].scoreboard.lost_unretransmitted() {
                self.pending_rexmit.insert(seq);
            }
            self.on_loss(idx, port);
        }

        // The partial-ack continuation (the recovery row's ack-side rule)
        // reads the window after this ack's loss report was applied.
        let window_exhausted = self.pipe() >= self.win.allowed();
        let r = &mut self.receivers[idx];
        let advanced = r.scoreboard.cum_ack() - prior_cum;
        let verdict = r
            .recovery
            .after_ack(now, advanced, window_exhausted, || r.scoreboard.head_hole());
        self.recover(idx, verdict, port);

        self.advance_reach_all(port);
        self.service_retransmissions(port);
        self.try_send(port);
    }

    /// The one exit from the control loop, behind
    /// [`RlaSender::remove_receiver`]: drop `idx` without forgetting its
    /// identity (in-flight acks from it still resolve through `index_of`
    /// and hit `on_ack`'s detached early return). `reach_all` moves up to
    /// the fold without it on the next ack.
    fn detach(&mut self, idx: usize) {
        self.receivers[idx].detached = true;
        self.listener.deactivate(idx);
        // Repairs owed only to the detached receiver are cancelled; shared
        // ones stay pending for the remaining requesters.
        let pending: Vec<u64> = self.pending_rexmit.iter().copied().collect();
        for seq in pending {
            let (requesters, in_flight) = self.requesters(seq);
            if requesters.is_empty() && !in_flight {
                self.pending_rexmit.remove(&seq);
            }
        }
    }

    /// Apply receiver `idx`'s recovery verdict: mark what it names lost
    /// (an early repair marks the head it judged), count it, queue the
    /// repair and tell the listener, even when a timeout marked nothing.
    fn recover(&mut self, idx: usize, verdict: Verdict, port: &mut impl Port) {
        let board = &mut self.receivers[idx].scoreboard;
        match verdict {
            Verdict::Hold | Verdict::Arm(_) => return,
            Verdict::RepairHead => self.stats.early_retransmits += 1,
            Verdict::Timeout(..) => self.stats.timeouts += 1,
        }
        if let Verdict::Timeout(Mark::All, _) = verdict {
            board.mark_all_lost();
            self.pending_rexmit.extend(board.lost_unretransmitted());
        } else {
            self.pending_rexmit.extend(board.mark_head_lost());
        }
        self.on_loss(idx, port);
    }

    /// The periodic scan: each receiver's recovery machine judges its
    /// head hole and its silence. The window's state is read once, before
    /// any receiver's repair can cut it.
    fn scan_timeouts(&mut self, port: &mut impl Port) {
        let now = port.now();
        let window_exhausted = self.pipe() >= self.win.allowed();
        for idx in 0..self.receivers.len() {
            let r = &mut self.receivers[idx];
            if r.detached {
                continue;
            }
            let verdict = r.recovery.on_scan(
                now,
                r.scoreboard.head_hole(),
                r.scoreboard.oldest_sent_at(),
                window_exhausted,
            );
            self.recover(idx, verdict, port);
        }
        self.service_retransmissions(port);
        self.try_send(port);
    }

    /// Open the session to `members`, the group's receivers: send the
    /// first window and arm the timeout scan.
    pub fn start(&mut self, members: &[AgentId], port: &mut impl Port) {
        let now = port.now();
        assert!(
            !members.is_empty(),
            "RLA sender started with an empty group"
        );
        self.receivers = members
            .iter()
            .map(|&id| ReceiverState {
                id,
                scoreboard: Scoreboard::new(),
                recovery: Recovery::new(&recovery::RLA, now),
                detached: false,
            })
            .collect();
        self.index_of.clear();
        for (i, &id) in members.iter().enumerate() {
            self.track(id, i);
        }
        self.listener = Listener::new(members.len(), now, &self.cfg);
        self.stats = RlaStats::new(now, self.win.cwnd(), members.len());
        self.try_send(port);
        port.set_timer(SCAN_INTERVAL, SCAN_TOKEN);
    }

    /// A segment arrived for the sender: a receiver's ack.
    pub fn receive(&mut self, segment: Segment, port: &mut impl Port) {
        match segment {
            Segment::McastAck(ack) => self.on_ack(ack, port),
            other => debug_assert!(false, "RLA sender got {}", other.kind_str()),
        }
    }

    /// The timeout scan's timer fired: run the scan and re-arm it.
    pub fn fire_timer(&mut self, token: u64, port: &mut impl Port) {
        debug_assert_eq!(token, SCAN_TOKEN);
        self.scan_timeouts(port);
        port.set_timer(SCAN_INTERVAL, SCAN_TOKEN);
    }
}

impl Agent for RlaSender {
    fn on_start(&mut self, ctx: &mut netsim::engine::Context<'_>) {
        let members = ctx.group_members(self.group).to_vec();
        self.start(&members, ctx);
    }
    fn on_packet(&mut self, packet: Packet, ctx: &mut netsim::engine::Context<'_>) {
        self.receive(packet.segment, ctx);
    }
    fn on_timer(&mut self, token: u64, ctx: &mut netsim::engine::Context<'_>) {
        self.fire_timer(token, ctx);
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
    use netsim::id::NodeId;
    use netsim::queue::QueueConfig;
    use netsim::topology::{kary_tree, LinkSpec};

    use crate::receiver::McastReceiver;

    /// A small multicast session over a 3-ary tree of the given depth.
    /// Returns (engine, sender agent, receiver agents, leaf access links).
    fn session(
        seed: u64,
        depth: usize,
        leaf_bw: u64,
        cfg: RlaConfig,
    ) -> (Engine, AgentId, Vec<AgentId>) {
        let mut e = Engine::new(seed);
        let spec_fast = LinkSpec::new(
            100_000_000,
            netsim::time::SimDuration::from_millis(5),
            QueueConfig::paper_droptail(),
        );
        let spec_leaf = LinkSpec::new(
            leaf_bw,
            netsim::time::SimDuration::from_millis(5),
            QueueConfig::paper_droptail(),
        );
        let mut specs = vec![spec_fast; depth.saturating_sub(1)];
        specs.push(spec_leaf);
        let tree = kary_tree(&mut e, 3, &specs);
        let group = e.new_group();
        let receivers: Vec<AgentId> = tree
            .leaves()
            .iter()
            .map(|&leaf| {
                let r = e.add_agent(leaf, Box::new(McastReceiver::new(40)));
                e.join_group(group, r);
                r
            })
            .collect();
        let sender = e.add_agent(tree.root, Box::new(RlaSender::new(group, cfg)));
        e.compute_routes();
        e.build_group_tree(group, tree.root);
        e.start_agent_at(sender, SimTime::ZERO);
        (e, sender, receivers)
    }

    #[test]
    fn delivers_in_order_to_every_receiver() {
        let (mut e, sender, receivers) = session(5, 2, 100_000_000, RlaConfig::default());
        e.run_until(SimTime::from_secs(10));
        let s: &RlaSender = e.agent_as(sender).unwrap();
        let delivered = s.stats.delivered;
        assert!(delivered > 1000, "delivered {delivered}");
        for &r in &receivers {
            let rx: &McastReceiver = e.agent_as(r).unwrap();
            assert!(
                rx.reassembly.cum_ack() >= delivered,
                "receiver behind reach_all"
            );
        }
    }

    #[test]
    fn window_tracks_slowest_path_capacity() {
        // Leaf links at 800 kbps (100 pkt/s): the session must settle near
        // the bottleneck rate, not collapse and not overshoot.
        let (mut e, sender, _) = session(7, 2, 800_000, RlaConfig::default());
        e.run_until(SimTime::from_secs(100));
        let s: &RlaSender = e.agent_as(sender).unwrap();
        let rate = s.stats.throughput_pps(e.now());
        assert!(
            rate > 60.0 && rate <= 105.0,
            "throughput {rate} pkt/s should sit near the 100 pkt/s bottleneck"
        );
        assert!(s.stats.window_cuts() > 0, "congestion must cause cuts");
    }

    #[test]
    fn recovers_all_losses_on_a_faulty_branch() {
        use netsim::fault::FaultInjector;
        let (mut e, sender, receivers) = session(13, 2, 100_000_000, RlaConfig::default());
        // 5% random loss on one leaf's access link (data only).
        let leaf_node = e.world().agent_node(receivers[0]);
        let parent_ch = (0..e.world().channel_count())
            .map(netsim::id::ChannelId::from)
            .find(|&c| e.world().channel(c).to == leaf_node)
            .unwrap();
        e.set_fault(parent_ch, FaultInjector::new(0.05).data_only());
        e.run_until(SimTime::from_secs(30));
        let s: &RlaSender = e.agent_as(sender).unwrap();
        assert!(
            s.stats.retransmits_multicast + s.stats.retransmits_unicast > 0,
            "losses must be repaired"
        );
        // Reliability: every receiver's in-order prefix reaches reach_all.
        let reach = s.max_reach_all();
        assert!(reach > 100);
        for &r in &receivers {
            let rx: &McastReceiver = e.agent_as(r).unwrap();
            assert!(rx.reassembly.cum_ack() >= reach);
        }
    }

    #[test]
    fn unicast_retransmission_when_threshold_high() {
        use netsim::fault::FaultInjector;
        let cfg = RlaConfig {
            rexmit_threshold: 100, // force unicast repairs
            ..RlaConfig::default()
        };
        let (mut e, sender, receivers) = session(17, 2, 100_000_000, cfg);
        let leaf_node = e.world().agent_node(receivers[0]);
        let parent_ch = (0..e.world().channel_count())
            .map(netsim::id::ChannelId::from)
            .find(|&c| e.world().channel(c).to == leaf_node)
            .unwrap();
        e.set_fault(parent_ch, FaultInjector::new(0.05).data_only());
        e.run_until(SimTime::from_secs(30));
        let s: &RlaSender = e.agent_as(sender).unwrap();
        assert!(s.stats.retransmits_unicast > 0, "repairs must be unicast");
        assert_eq!(s.stats.retransmits_multicast, 0);
    }

    #[test]
    fn stalls_when_one_receiver_goes_dark_but_survives() {
        use netsim::fault::FaultInjector;
        let (mut e, sender, receivers) = session(19, 1, 100_000_000, RlaConfig::default());
        e.run_until(SimTime::from_secs(5));
        // Black out one receiver's branch entirely.
        let leaf_node = e.world().agent_node(receivers[0]);
        let parent_ch = (0..e.world().channel_count())
            .map(netsim::id::ChannelId::from)
            .find(|&c| e.world().channel(c).to == leaf_node)
            .unwrap();
        e.set_fault(parent_ch, FaultInjector::new(1.0));
        e.run_until(SimTime::from_secs(20));
        // The session is flow-controlled by the dead receiver (no drop
        // option implemented), but must not crash or spin; reach_all
        // freezes while timeouts accumulate.
        let s: &RlaSender = e.agent_as(sender).unwrap();
        assert!(s.stats.timeouts > 0);
        // Heal and verify progress resumes.
        let frozen = s.max_reach_all();
        e.world_mut().channel_mut(parent_ch).fault = None;
        e.run_until(SimTime::from_secs(40));
        let s: &RlaSender = e.agent_as(sender).unwrap();
        assert!(
            s.max_reach_all() > frozen + 100,
            "session must resume after the branch heals"
        );
    }

    #[test]
    fn dropping_a_dark_receiver_unfreezes_the_session() {
        // What §4.3's drop option buys, taken through the one exit.
        use netsim::fault::FaultInjector;
        let (mut e, sender, receivers) = session(19, 1, 100_000_000, RlaConfig::default());
        e.run_until(SimTime::from_secs(5));
        let leaf_node = e.world().agent_node(receivers[0]);
        let parent_ch = (0..e.world().channel_count())
            .map(netsim::id::ChannelId::from)
            .find(|&c| e.world().channel(c).to == leaf_node)
            .unwrap();
        e.set_fault(parent_ch, FaultInjector::new(1.0));
        e.run_until(SimTime::from_secs(10));
        let frozen = e.agent_as::<RlaSender>(sender).unwrap().max_reach_all();
        e.run_until(SimTime::from_secs(20));
        {
            let s: &mut RlaSender = e.agent_as_mut(sender).unwrap();
            assert_eq!(
                s.max_reach_all(),
                frozen,
                "a dark branch freezes the session"
            );
            assert!(s.remove_receiver(receivers[0]));
        }
        e.run_until(SimTime::from_secs(25));
        let s: &RlaSender = e.agent_as(sender).unwrap();
        assert!(
            s.max_reach_all() > frozen + 2000,
            "session must resume while the branch is still dark \
             (reach_all {} vs frozen {frozen})",
            s.max_reach_all()
        );
        for &r in &receivers[1..] {
            let rx: &McastReceiver = e.agent_as(r).unwrap();
            assert!(rx.reassembly.cum_ack() >= s.max_reach_all());
        }
    }

    #[test]
    fn mid_session_leave_and_join_keep_the_session_consistent() {
        let (mut e, sender, receivers) = session(29, 2, 100_000_000, RlaConfig::default());
        e.run_until(SimTime::from_secs(5));
        let group = GroupId::from(0usize);
        let root = e.world().agent_node(sender);
        // Receiver 0 leaves: group membership, tree, then sender state.
        assert!(e.leave_group(group, receivers[0]));
        e.build_group_tree(group, root);
        {
            let s: &mut RlaSender = e.agent_as_mut(sender).unwrap();
            assert_eq!(s.max_reach_all(), s.min_last_ack());
            assert!(s.remove_receiver(receivers[0]));
            assert!(!s.remove_receiver(receivers[0]), "double leave is a no-op");
            assert!(s.max_reach_all() <= s.min_last_ack());
        }
        e.run_until(SimTime::from_secs(10));
        // A fresh receiver joins at the same leaf mid-session.
        let leaf = e.world().agent_node(receivers[0]);
        let now = e.now();
        let next = {
            let s: &RlaSender = e.agent_as(sender).unwrap();
            s.next_seq()
        };
        let joiner = e.add_agent(leaf, Box::new(McastReceiver::joining_at(next, 40)));
        e.join_group(group, joiner);
        e.build_group_tree(group, root);
        {
            let s: &mut RlaSender = e.agent_as_mut(sender).unwrap();
            assert_eq!(s.max_reach_all(), s.min_last_ack());
            s.add_receiver(joiner, now);
            assert_eq!(s.max_reach_all(), s.min_last_ack());
        }
        e.run_until(SimTime::from_secs(30));
        let s: &RlaSender = e.agent_as(sender).unwrap();
        assert_eq!(s.max_reach_all(), s.min_last_ack());
        assert!(
            s.max_reach_all() > next + 500,
            "session must keep moving after churn (reach_all {} vs join seq {next})",
            s.max_reach_all()
        );
        let rx: &McastReceiver = e.agent_as(joiner).unwrap();
        assert!(
            rx.reassembly.cum_ack() >= s.max_reach_all(),
            "joiner's in-order prefix must reach reach_all"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let (mut e, sender, _) = session(23, 2, 800_000, RlaConfig::default());
            e.run_until(SimTime::from_secs(50));
            let s: &RlaSender = e.agent_as(sender).unwrap();
            (
                s.stats.delivered,
                s.stats.cong_signals,
                s.stats.window_cuts(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "empty group")]
    fn empty_group_rejected_at_start() {
        let mut e = Engine::new(1);
        let n = e.add_node("n");
        let _other = e.add_node("m");
        let g = e.new_group();
        let s = e.add_agent(n, Box::new(RlaSender::new(g, RlaConfig::default())));
        e.compute_routes();
        let _ = NodeId(0);
        e.start_agent_at(s, SimTime::ZERO);
        e.run_until(SimTime::from_secs(1));
    }
}
