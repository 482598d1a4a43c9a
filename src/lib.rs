//! # bounded-fairness
//!
//! A full reproduction of **“Achieving Bounded Fairness for Multicast and
//! TCP Traffic in the Internet”** (Wang & Schwartz, SIGCOMM 1998): the
//! **Random Listening Algorithm (RLA)** for window-based multicast
//! congestion control, the deterministic network simulator it runs on,
//! the TCP SACK agents it competes with, the rate-based baselines it was
//! proposed against, and the paper's §4 analysis as executable code.
//!
//! This crate is a facade: each subsystem lives in its own crate and is
//! re-exported here.
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`netsim`] | `netsim` | discrete-event engine, drop-tail + RED gateways, multicast trees, tracing, fault injection |
//! | [`tcp`] | `tcp-sack` | TCP SACK sender/receiver (slow start, SACK fast recovery, RTO) |
//! | [`rla`] | `rla` | the paper's contribution: random listening, troubled-receiver counting, forced cuts, repair policy |
//! | [`baselines`] | `baselines` | LTRC and MBFC rate controllers |
//! | [`analysis`] | `analysis` | PA windows, Proposition/Theorem bounds, the two-session particle model |
//! | [`experiments`] | `experiments` | scenario builders + binaries regenerating every §5 table |
//!
//! ## Quickstart
//!
//! ```
//! use bounded_fairness::prelude::*;
//!
//! // A 9-receiver multicast session competing with one TCP per leaf,
//! // through drop-tail gateways — a miniature of the paper's figure 7.
//! let mut engine = Engine::new(7);
//! let queue = QueueConfig::paper_droptail();
//! let root = engine.add_node("S");
//! let group = engine.new_group();
//! let mut tcp_pairs = Vec::new();
//! for i in 0..9 {
//!     let leaf = engine.add_node(format!("R{i}"));
//!     // 200 pkt/s leaf links: fair share 100 pkt/s per session.
//!     engine.add_link(root, leaf, 1_600_000, SimDuration::from_millis(40), &queue);
//!     let mrx = engine.add_agent(leaf, Box::new(McastReceiver::new(40)));
//!     engine.join_group(group, mrx);
//!     let trx = engine.add_agent(leaf, Box::new(TcpReceiver::new(40)));
//!     let ttx = engine.add_agent(root, Box::new(TcpSender::new(trx, TcpConfig::default())));
//!     tcp_pairs.push((ttx, trx));
//! }
//! let rla_tx = engine.add_agent(root, Box::new(RlaSender::new(group, RlaConfig::default())));
//! engine.compute_routes();
//! engine.build_group_tree(group, root);
//! for (i, &(ttx, _)) in tcp_pairs.iter().enumerate() {
//!     engine.start_agent_at(ttx, SimTime::from_millis(137 * i as u64));
//! }
//! engine.start_agent_at(rla_tx, SimTime::from_secs(2));
//! engine.run_until(SimTime::from_secs(60));
//!
//! let rla = engine.agent_as::<RlaSender>(rla_tx).unwrap();
//! assert!(rla.stats.delivered > 0);
//! ```
//!
//! ## Reproducing the paper
//!
//! Every §5 table has a regenerator binary in the `experiments` crate, and
//! every earlier claim a test — see `DESIGN.md` for the index and
//! `EXPERIMENTS.md` for paper-vs-measured numbers:
//!
//! ```text
//! cargo run --release -p experiments --bin tables   # figs. 7-10, §5.2 + Theorems I/II
//! RLA_DURATION_SECS=300 RLA_SEED=1 cargo run --release -p experiments --bin tables  # results/tables.txt
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use analysis;
pub use baselines;
pub use experiments;
pub use netsim;
pub use rla;
pub use tcp_sack as tcp;

/// Everything needed for typical simulations, in one import.
pub mod prelude {
    pub use analysis::{FairnessBounds, FairnessCheck};
    pub use netsim::prelude::*;
    pub use rla::{McastReceiver, PthreshPolicy, RlaConfig, RlaSender};
    pub use tcp_sack::{TcpConfig, TcpReceiver, TcpSender};
}
