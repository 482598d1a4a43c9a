//! # analysis — the paper's §4 mathematics, executable
//!
//! Closed forms, bounds and Monte-Carlo models from *Achieving Bounded
//! Fairness for Multicast and TCP Traffic in the Internet* (§4):
//!
//! * [`mod@pa_window`] — equation (1), the proportional-average TCP window
//!   `√(2(1−p))/√p`, with a Monte-Carlo twin of the window process.
//! * [`proposition`] — equation (3) and its n-receiver generalization,
//!   the Proposition's bounds (equation 2), the common-loss case, and the
//!   correlation Lemma.
//! * [`particle`] — §4.4's Markov particle model of two competing RLA
//!   sessions: the drift field of figure 4 and the stationary density of
//!   figure 5.
//! * [`fairness`] — essential/absolute fairness definitions, Jain's
//!   index, and Theorem I/II bound checks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fairness;
pub mod pa_window;
pub mod particle;
pub mod proposition;

pub use fairness::{jain_index, FairnessBounds, FairnessCheck};
pub use pa_window::{mahdavi_floyd_pps, pa_window, simulate_tcp_window};
pub use particle::{cut_distribution, drift_field, drift_x, simulate_particle, ParticleStats};
pub use proposition::{
    eq3_two_receivers, proposition_bounds, rla_window_common, rla_window_independent,
    simulate_rla_window, PropositionBounds,
};
