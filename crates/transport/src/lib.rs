//! # transport — shared congestion-control machinery
//!
//! The paper's fairness results rest on the RLA mimicking TCP's window
//! dynamics (§4.1): both grow by `+1` per ack in slow start and `+1/cwnd`
//! in congestion avoidance, both halve on a congestion signal, and both
//! coalesce the losses of one window into a single signal. Before this
//! crate existed the TCP SACK sender, the RLA sender and the rate-based
//! baselines each re-implemented that machinery; now they share it:
//!
//! * [`WindowState`] — cwnd/ssthresh with the exact growth and halving
//!   arithmetic of the NS2 agents the paper simulated against (plus
//!   [`WindowState::cut_by`] for CUBIC's β = 0.7 decrease);
//! * [`CongestionControl`] — the pluggable policy seam, v2: rate-aware
//!   (`on_ack` / `on_loss` / `on_timeout` / `allowed_window` /
//!   `pacing_rate` over a [`CcSignals`] view), with [`SackCc`] (one
//!   halving per loss window, the paper's `Sack1`), [`RenoCc`] (dup-ack
//!   counting, NewReno-style recovery), [`CubicCc`] (RFC 8312) and
//!   [`BbrV1Cc`] (delivery-rate model, pacing) as the implementations;
//! * [`CcSignals`] — the windowed path estimates ([`minrtt`]'s
//!   [`MinRttFilter`] and [`BandwidthFilter`]) a sender accumulates for
//!   its policy;
//! * [`CongestionEpoch`] — the `2·srtt` loss-coalescing window (rule 2)
//!   and the hold-off timers of the rate-based baselines;
//! * [`RttEstimator`] — Jacobson/Karn RTT estimation and the RTO, with
//!   the raw [`RttEstimator::last_sample`] view the min-RTT filter
//!   feeds on;
//! * [`RexmitTimer`] / [`PacingTimer`] — generation-tokened timer
//!   management over the engine's timer facility, in disjoint token
//!   spaces so one agent can run both;
//! * [`SenderStats`] — the per-flow statistics block feeding
//!   [`netsim::stats`] accumulators, shared by every unicast sender;
//! * [`defaults`] — the single source of truth for the paper's NS2
//!   parameter defaults (initial window, ssthresh, RTO clamp, sizes).
//!
//! The declarative controller selector (`CcVariant`) moved to
//! `tcp_sack::variants`: a row pairs a policy from this crate with one of
//! the sender's loss detectors, and the sender lives there — this crate
//! only defines the policies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bbr;
pub mod cc;
pub mod cubic;
pub mod defaults;
pub mod epoch;
pub mod minrtt;
pub mod rtt;
pub mod stats;
pub mod timer;
pub mod window;

pub use bbr::BbrV1Cc;
pub use cc::{AckEvent, AckOutcome, CcSignals, CongestionControl, RateSample, RenoCc, SackCc};
pub use cubic::CubicCc;
pub use epoch::CongestionEpoch;
pub use minrtt::{BandwidthFilter, MinRttFilter};
pub use rtt::RttEstimator;
pub use stats::SenderStats;
pub use timer::{PacingTimer, RexmitTimer};
pub use window::WindowState;
