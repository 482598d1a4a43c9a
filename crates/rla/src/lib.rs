//! # rla — the Random Listening Algorithm
//!
//! The primary contribution of *Achieving Bounded Fairness for Multicast
//! and TCP Traffic in the Internet* (Wang & Schwartz, SIGCOMM 1998):
//! window-based multicast congestion control that shares bandwidth with TCP
//! within **provable bounds** ("essential fairness") without locating the
//! session's bottleneck branches.
//!
//! ## The idea
//!
//! A multicast sender hears congestion signals from *every* congested
//! receiver. Reacting to each one would drive throughput to zero as the
//! group grows; reacting only to the worst receiver requires identifying
//! it, which loss information alone cannot do quickly. The RLA instead
//! **listens at random**: on each congestion signal it halves its window
//! with probability `1/n`, where `n` is the number of receivers currently
//! reporting losses frequently. On average it reacts once per `n` signals —
//! as if listening to one representative receiver — and the paper proves
//! the resulting throughput is bounded between `a·λ_TCP` and `b·λ_TCP`
//! (Theorem I: `a = 1/3`, `b = √(3n)` with RED gateways; Theorem II:
//! `a = 1/4`, `b = 2n` with drop-tail gateways and phase effects removed).
//!
//! ## Crate contents
//!
//! * [`RlaSender`] / [`McastReceiver`] — the protocol agents (§3.3's six
//!   rules: the window, its bounds and the multicast/unicast
//!   retransmission policy, with rules 2–3 delegated to the listener).
//!   Rule 5's base (`max_reach_all`) and top (`min_last_ack` plus the
//!   receiver buffer) come from one fold, the smallest cumulative ack of
//!   the receivers still in the control loop: a receiver holds every
//!   packet below its cumulative ack and never the one at it.
//!   Loss by time is not the sender's decision either: each receiver slot
//!   runs a `transport::Recovery` under `transport::recovery::RLA`'s row
//!   (the scanned head-only timeout and the early repairs of DESIGN.md §6
//!   deviations 4 and 5), the same machine TCP runs under its own row.
//!   The receiver is TCP's receive side, `tcp_sack::Reassembly`, sending
//!   the TCP SACK ack with its own identity attached
//!   (`netsim::wire::McastAck`).
//! * [`Listener`] — random listening as a pure state machine: rule 2's
//!   congestion periods, rule 3's forced and randomized cuts, and the
//!   troubled-receiver count, returning one [`Decision`] per loss event.
//!   It reads no clock and owns no generator, so it runs without a network.
//! * [`TroubleTracker`] — rule 6's dynamic `num_trouble_rcvr` with
//!   `η = 20`.
//! * [`PthreshPolicy`] — the restricted-topology rule `1/n` and the
//!   generalized `(rtt_i/rtt_max)²/n` for unequal round-trip times (§5.3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod listener;
pub mod receiver;
pub mod sender;
pub mod trouble;

pub use config::{PthreshPolicy, RlaConfig};
pub use listener::{Decision, Listener};
pub use receiver::McastReceiver;
pub use sender::{RlaSender, RlaStats};
pub use trouble::{CongestionHistory, TroubleTracker};
