//! # tcp-sack — TCP SACK agents for the `netsim` simulator
//!
//! The unicast baseline of the reproduction: the paper measures the Random
//! Listening Algorithm's fairness *against TCP SACK connections*, so every
//! experiment runs these agents as background traffic.
//!
//! The sender ([`TcpSender`]) implements the congestion-control behaviour
//! the paper's §4.1 analysis assumes:
//!
//! * slow start (+1 per ack below `ssthresh`),
//! * congestion avoidance (+1/cwnd per ack),
//! * SACK-scoreboard loss detection (a hole is lost once three higher
//!   packets are SACKed),
//! * **one window halving per loss window** (fast recovery), and
//! * `cwnd = 1` with exponential backoff on a retransmission timeout.
//!
//! The receiver ([`TcpReceiver`]) acknowledges every data packet with a
//! cumulative ack plus up to three RFC 2018 SACK blocks.
//!
//! Beyond the paper's SACK baseline the crate carries a small zoo of
//! alternative senders — Reno ([`RenoSender`]), CUBIC and BBRv1 (riding
//! [`TcpSender::with_cc`] with the `transport` policies) — selected
//! declaratively through the string-keyed registry in [`variants`]
//! ([`CcVariant`]), so fairness sweeps can pit the RLA against modern
//! competitors without new wiring per algorithm.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod receiver;
pub mod reno;
pub mod scoreboard;
pub mod sender;
pub mod variants;

pub use config::TcpConfig;
pub use receiver::{ReceiverStats, TcpReceiver};
pub use reno::RenoSender;
pub use scoreboard::Scoreboard;
pub use sender::{SenderStats, TcpSender};
pub use variants::{CcEntry, CcVariant, CC_REGISTRY};
