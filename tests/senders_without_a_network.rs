//! The shipped senders on a manual clock, with no network.
//!
//! `RlaSender` and `TcpSender` act on the world only through a [`Port`]:
//! a clock, a random stream, a send and a timer. A [`ManualPort`] plays
//! the engine's part — a settable clock, a seeded `StdRng`, the sends it
//! was handed and the timers it armed — and for the RLA a toy wire
//! carries each data packet to three [`Reassembly`]s and their acks back,
//! each after one fixed one-way delay. No `Engine` is built.

use std::collections::VecDeque;

use bounded_fairness::netsim::agent::Port;
use bounded_fairness::netsim::id::{AgentId, GroupId};
use bounded_fairness::netsim::packet::Dest;
use bounded_fairness::netsim::time::{SimDuration, SimTime};
use bounded_fairness::netsim::wire::{McastAck, McastData, SackList, Segment, TcpAck, TcpData};
use bounded_fairness::rla::{RlaConfig, RlaSender};
use bounded_fairness::tcp::{Reassembly, TcpConfig, TcpSender};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The toy wire's delay, each way.
const ONE_WAY: SimDuration = SimDuration::from_millis(50);

/// How long the RLA sessions run before the wire drains.
const RUN: SimTime = SimTime::from_secs(20);

/// The engine's part, played by hand.
struct ManualPort {
    now: SimTime,
    rng: StdRng,
    /// Every send not yet taken, in order.
    sent: Vec<(Dest, Segment)>,
    /// Armed timers not yet fired: (due instant, token).
    timers: Vec<(SimTime, u64)>,
}

impl ManualPort {
    fn new(seed: u64) -> Self {
        ManualPort {
            now: SimTime::ZERO,
            rng: StdRng::seed_from_u64(seed),
            sent: Vec::new(),
            timers: Vec::new(),
        }
    }

    /// The earliest armed timer: its index in `timers` and due instant.
    fn next_timer(&self) -> Option<(usize, SimTime)> {
        let (i, &(at, _)) = self.timers.iter().enumerate().min_by_key(|(_, t)| t.0)?;
        Some((i, at))
    }

    /// The TCP data segments sent since the last call: (seq, retransmit).
    fn take_tcp_data(&mut self) -> Vec<(u64, bool)> {
        self.sent
            .drain(..)
            .map(|(_, segment)| match segment {
                Segment::TcpData(TcpData {
                    seq, retransmit, ..
                }) => (seq, retransmit),
                other => panic!("a TCP sender sent {}", other.kind_str()),
            })
            .collect()
    }
}

impl Port for ManualPort {
    fn now(&self) -> SimTime {
        self.now
    }
    fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }
    fn send(&mut self, dest: Dest, _size_bytes: u32, segment: Segment) {
        self.sent.push((dest, segment));
    }
    fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.timers.push((self.now + delay, token));
    }
}

/// What the wire carries.
enum Hop {
    /// A data packet toward receiver `to`.
    Data { to: usize, data: McastData },
    /// An ack toward the sender.
    Ack(McastAck),
}

/// One `RlaSender`, three receivers and the wire between them.
struct Session {
    port: ManualPort,
    sender: RlaSender,
    ids: Vec<AgentId>,
    receivers: Vec<Reassembly>,
    /// In flight, by arrival: one delay keeps send order arrival order.
    wire: VecDeque<(SimTime, Hop)>,
    /// Receiver `i` loses every `drop_every[i]`-th data packet reaching
    /// it; 0 loses none.
    drop_every: Vec<u64>,
    arrivals: Vec<u64>,
    /// (receiver, seq, first sent) of every data packet the wire lost.
    dropped: Vec<(usize, u64, SimTime)>,
    /// Once closed, the sender's sends no longer enter the wire.
    open: bool,
}

impl Session {
    /// Start a session whose receiver `i` drops every `drop_every[i]`-th
    /// data packet.
    fn start(drop_every: &[u64]) -> Self {
        let ids: Vec<AgentId> = (1..=drop_every.len()).map(AgentId::from).collect();
        let mut s = Session {
            port: ManualPort::new(1),
            sender: RlaSender::new(GroupId::from(0usize), RlaConfig::default()),
            receivers: ids.iter().map(|_| Reassembly::default()).collect(),
            ids,
            wire: VecDeque::new(),
            drop_every: drop_every.to_vec(),
            arrivals: vec![0; drop_every.len()],
            dropped: Vec::new(),
            open: true,
        };
        s.sender.start(&s.ids, &mut s.port);
        s.pump();
        s
    }

    /// Put the sender's sends on the wire, or discard them once closed.
    fn pump(&mut self) {
        let arrive = self.port.now + ONE_WAY;
        for (dest, segment) in std::mem::take(&mut self.port.sent) {
            let Segment::McastData(data) = segment else {
                panic!("the RLA sender sent {}", segment.kind_str());
            };
            if !self.open {
                continue;
            }
            let to: Vec<usize> = match dest {
                Dest::Group(_) => (0..self.ids.len()).collect(),
                Dest::Agent(id) => vec![self.ids.iter().position(|&r| r == id).unwrap()],
            };
            for to in to {
                self.wire.push_back((arrive, Hop::Data { to, data }));
            }
        }
    }

    /// Run the next event — the wire's head first on a tie — if one is
    /// due by `deadline`.
    fn step(&mut self, deadline: SimTime) -> bool {
        let hop_at = self.wire.front().map(|&(at, _)| at);
        let timer = self.port.next_timer();
        let Some(at) = hop_at.into_iter().chain(timer.map(|t| t.1)).min() else {
            return false;
        };
        if at > deadline {
            return false;
        }
        self.port.now = at;
        if hop_at == Some(at) {
            let (_, hop) = self.wire.pop_front().expect("a hop is due");
            self.deliver(hop);
        } else {
            let (i, _) = timer.expect("a timer is due");
            let (_, token) = self.port.timers.remove(i);
            self.sender.fire_timer(token, &mut self.port);
        }
        self.pump();
        true
    }

    fn deliver(&mut self, hop: Hop) {
        match hop {
            Hop::Data { to, data } => {
                self.arrivals[to] += 1;
                let k = self.drop_every[to];
                if k > 0 && self.arrivals[to].is_multiple_of(k) {
                    self.dropped.push((to, data.seq, data.timestamp));
                    return;
                }
                let ack = McastAck {
                    receiver: self.ids[to],
                    ack: self.receivers[to].accept(data.seq, data.timestamp),
                };
                self.wire
                    .push_back((self.port.now + ONE_WAY, Hop::Ack(ack)));
            }
            Hop::Ack(ack) => self.sender.receive(Segment::McastAck(ack), &mut self.port),
        }
    }

    /// Run until `RUN`, then close the wire to new sends and carry what
    /// is in flight to its end.
    fn run_and_drain(&mut self) {
        while self.step(RUN) {}
        self.open = false;
        while !self.wire.is_empty() {
            self.step(SimTime::MAX);
        }
    }
}

#[test]
fn rla_on_a_loss_free_wire_never_cuts_and_every_receiver_reaches_max_reach_all() {
    let mut s = Session::start(&[0, 0, 0]);
    s.run_and_drain();
    let stats = &s.sender.stats;
    assert_eq!(stats.window_cuts(), 0, "no loss, no cut");
    assert_eq!(stats.timeouts, 0, "no loss, no timeout");
    assert_eq!(stats.cong_signals, 0);
    let reach = s.sender.max_reach_all();
    assert!(
        reach > 10_000,
        "the session must move (max_reach_all {reach})"
    );
    for (i, r) in s.receivers.iter().enumerate() {
        assert_eq!(r.cum_ack(), reach, "receiver {i}");
    }
}

#[test]
fn rla_repairs_every_loss_of_one_lossy_receiver_and_hears_only_it() {
    let mut s = Session::start(&[40, 0, 0]);
    s.run_and_drain();
    assert!(s.dropped.len() > 20, "only {} drops", s.dropped.len());
    let reach = s.sender.max_reach_all();
    assert!(
        reach > 1_000,
        "the session must move (max_reach_all {reach})"
    );
    for (i, r) in s.receivers.iter().enumerate() {
        assert!(r.cum_ack() >= reach, "receiver {i} is behind max_reach_all");
    }
    // A loss a second before the wire closed has had ten round trips to
    // be repaired.
    let held = s.receivers[0].cum_ack();
    let settled = RUN - SimDuration::from_secs(1);
    for &(_, seq, sent) in s.dropped.iter().filter(|d| d.2 < settled) {
        assert!(seq < held, "seq {seq}, lost at {sent:?}, never repaired");
    }
    let stats = &s.sender.stats;
    assert!(stats.retransmits_multicast + stats.retransmits_unicast > 0);
    let signals = &stats.cong_signals_per_receiver;
    assert!(signals[0] > 0, "the lossy receiver signals: {signals:?}");
    assert_eq!(signals[1..], [0, 0], "loss-free receivers never signal");
}

#[test]
fn tcp_timeout_without_an_ack_resets_the_window_and_resends_seq_0() {
    let mut port = ManualPort::new(1);
    let mut tcp = TcpSender::new(AgentId::from(1usize), TcpConfig::default());
    tcp.start(&mut port);
    assert_eq!(port.take_tcp_data(), [(0, false)]);
    let (due, token) = port
        .timers
        .pop()
        .expect("start arms the retransmission timer");

    port.now = due;
    tcp.fire_timer(token, &mut port);
    assert_eq!(tcp.stats.timeouts, 1);
    assert_eq!(tcp.cwnd(), 1.0);
    assert_eq!(port.take_tcp_data(), [(0, true)]);
    let (rearmed, _) = port.timers.pop().expect("a timeout re-arms");
    assert!(
        rearmed.saturating_since(due) > due.saturating_since(SimTime::ZERO),
        "the re-armed timeout backs off"
    );
}

#[test]
fn tcp_ignores_a_stale_timer_token() {
    let mut port = ManualPort::new(1);
    let mut tcp = TcpSender::new(AgentId::from(1usize), TcpConfig::default());
    tcp.start(&mut port);
    assert_eq!(port.take_tcp_data(), [(0, false)]);
    let (due, stale) = port.timers.pop().unwrap();

    // Forward progress re-arms the timer, so the first token goes stale.
    port.now = SimTime::from_millis(100);
    let ack = TcpAck {
        cum_ack: 1,
        sack: SackList::default(),
        echo_timestamp: SimTime::ZERO,
    };
    tcp.receive(Segment::TcpAck(ack), &mut port);
    assert_eq!(port.take_tcp_data(), [(1, false), (2, false)]);
    assert_eq!(port.timers.len(), 1);
    let cwnd = tcp.cwnd();

    port.now = due;
    tcp.fire_timer(stale, &mut port);
    assert_eq!(tcp.stats.timeouts, 0);
    assert_eq!(tcp.cwnd(), cwnd);
    assert!(port.sent.is_empty(), "a stale token sends nothing");
    assert_eq!(port.timers.len(), 1, "a stale token arms nothing");
}
