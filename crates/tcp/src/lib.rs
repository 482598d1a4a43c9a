//! # tcp-sack — TCP SACK agents for the `netsim` simulator
//!
//! The unicast baseline of the reproduction: the paper measures the Random
//! Listening Algorithm's fairness *against TCP SACK connections*, so every
//! experiment runs these agents as background traffic.
//!
//! The sender ([`TcpSender`]), in its default form, implements the
//! congestion-control behaviour the paper's §4.1 analysis assumes:
//!
//! * slow start (+1 per ack below `ssthresh`),
//! * congestion avoidance (+1/cwnd per ack),
//! * SACK-scoreboard loss detection (a hole is lost once three higher
//!   packets are SACKed),
//! * **one window halving per loss window** (fast recovery), and
//! * `cwnd = 1` with exponential backoff on a retransmission timeout.
//!
//! When a packet is lost *by time* is decided by `transport::Recovery`
//! under `transport::recovery::TCP`'s row, the machine the RLA runs under
//! its own row.
//!
//! The receiver ([`TcpReceiver`]) acknowledges every data packet with a
//! cumulative ack plus up to three RFC 2018 SACK blocks, built by
//! [`Reassembly`] — the receive side the RLA's multicast receiver shares,
//! sending the same ack with its identity attached.
//!
//! Beyond the paper's SACK baseline the crate carries a small zoo of
//! alternative variants — Reno, CUBIC and BBRv1. There is one sender
//! agent: a variant is a row of the string-keyed registry in [`variants`]
//! ([`CcVariant`]) naming a loss detector (SACK scoreboard, or Reno's
//! duplicate-ack counting with Karn's rule and go-back-N) and a
//! `transport` congestion-control policy, so fairness sweeps can pit the
//! RLA against modern competitors without new wiring per algorithm.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
mod loss;
pub mod receiver;
pub mod scoreboard;
pub mod sender;
pub mod variants;

pub use config::TcpConfig;
pub use receiver::{Reassembly, ReceiverStats, TcpReceiver};
pub use scoreboard::Scoreboard;
pub use sender::{SenderStats, TcpSender};
pub use variants::{CcEntry, CcVariant, CC_REGISTRY};

/// The `"reno"` variant's sender type. Exists only because `benchmark/`
/// names it; leaves with the benchmark PR that drops it.
pub type RenoSender = TcpSender;
