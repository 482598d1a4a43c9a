//! Wall-clock benchmark of the bounded-fairness simulator.
//!
//! Four paper-shaped workloads are measured end to end, and a ladder of
//! rungs prices each layer from outside, around public calls only: no
//! file of the repository knows this crate exists. `BENCHMARK.json` at
//! the repository root declares what is measured (see [`spec`]);
//! `README.md` beside this crate says why.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod drive;
pub mod host;
pub mod ladder;
pub mod shim;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod suite;
pub mod workloads;
