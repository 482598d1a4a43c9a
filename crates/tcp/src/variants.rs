//! The congestion-controller registry: one string-keyed factory table.
//!
//! Earlier revisions selected a controller through a closed enum in the
//! experiment layer, which meant every new algorithm touched a match in
//! `spec.rs`, another in `cli.rs`, and a hand-maintained error string.
//! The registry inverts that: [`CC_REGISTRY`] is the single table, a
//! [`CcVariant`] is a handle into it, and registering a new algorithm is
//! one new [`CcEntry`] row — parsing, listing, error messages and sender
//! construction all derive from the table.
//!
//! Every variant runs the one sender agent ([`TcpSender`]); a row only
//! names what differs — which loss detector the sender runs (SACK
//! scoreboard or duplicate-ack counting) and which `transport` policy
//! reacts to what it reports.

use netsim::agent::Agent;
use netsim::id::AgentId;

use transport::{defaults, BbrV1Cc, CongestionControl, CubicCc, RenoCc, SackCc};

use crate::config::TcpConfig;
use crate::loss::LossDetector;
use crate::sender::TcpSender;

/// One row of the registry: a named (loss detector, policy) pair.
pub struct CcEntry {
    /// The variant's short name, as written into manifests and accepted
    /// by `RLA_TCP_CC`.
    pub name: &'static str,
    /// One-line description for tables and error messages.
    pub summary: &'static str,
    /// How the sender detects losses.
    loss: fn() -> LossDetector,
    /// The congestion-control policy, fresh per sender.
    cc: fn() -> Box<dyn CongestionControl>,
}

/// Every registered congestion controller. Adding an algorithm is one
/// row here (plus its policy implementation in `transport`).
pub static CC_REGISTRY: &[CcEntry] = &[
    CcEntry {
        name: "sack",
        summary: "TCP SACK (paper's Sack1): scoreboard loss detection, one halving per loss window",
        loss: LossDetector::scoreboard,
        cc: || Box::new(SackCc::new()),
    },
    CcEntry {
        name: "reno",
        summary: "TCP Reno: dup-ack counting, NewReno recovery, go-back-N on timeout",
        loss: LossDetector::dup_ack,
        cc: || Box::new(RenoCc::new(defaults::DUPACK_THRESHOLD)),
    },
    CcEntry {
        name: "cubic",
        summary: "CUBIC (RFC 8312): cubic window growth, fast convergence, TCP-friendly region",
        loss: LossDetector::scoreboard,
        cc: || Box::new(CubicCc::new()),
    },
    CcEntry {
        name: "bbr",
        summary: "BBRv1: delivery-rate model, startup/drain/probe-bw/probe-rtt, paced sending",
        loss: LossDetector::scoreboard,
        cc: || Box::new(BbrV1Cc::new()),
    },
];

/// A handle to one registry row — the declarative controller selector
/// the experiment layer threads through `ScenarioSpec`.
#[derive(Clone, Copy)]
pub struct CcVariant(&'static CcEntry);

impl CcVariant {
    /// The default variant (the paper's TCP SACK).
    pub fn sack() -> Self {
        Self::parse("sack").expect("sack is always registered")
    }

    /// Look up a variant by name; `None` lists nothing — callers wanting
    /// an error message should cite [`CcVariant::names`].
    pub fn parse(s: &str) -> Option<Self> {
        CC_REGISTRY.iter().find(|e| e.name == s).map(CcVariant)
    }

    /// Every registered variant, in registry order.
    pub fn all() -> impl Iterator<Item = CcVariant> {
        CC_REGISTRY.iter().map(CcVariant)
    }

    /// Every registered name, in registry order (for error messages and
    /// option listings).
    pub fn names() -> Vec<&'static str> {
        CC_REGISTRY.iter().map(|e| e.name).collect()
    }

    /// The variant's short name, as written into manifests.
    pub fn name(&self) -> &'static str {
        self.0.name
    }

    /// The variant's one-line description.
    pub fn summary(&self) -> &'static str {
        self.0.summary
    }

    /// Build this variant's sender, streaming to `receiver`.
    pub fn build_sender(&self, receiver: AgentId, cfg: TcpConfig) -> Box<dyn Agent> {
        let (loss, cc) = ((self.0.loss)(), (self.0.cc)());
        Box::new(TcpSender::with_parts(receiver, cfg, loss, cc))
    }
}

impl PartialEq for CcVariant {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self.0, other.0)
    }
}

impl Eq for CcVariant {}

impl std::fmt::Debug for CcVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("CcVariant").field(&self.0.name).finish()
    }
}

impl std::fmt::Display for CcVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.0.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_through_parse() {
        for v in CcVariant::all() {
            let back = CcVariant::parse(v.name()).expect("registered name must parse");
            assert_eq!(back, v);
            assert_eq!(back.name(), v.name());
        }
        assert_eq!(CcVariant::parse("vegas"), None);
        assert_eq!(CcVariant::parse(""), None);
    }

    #[test]
    fn registry_holds_the_expected_zoo() {
        assert_eq!(CcVariant::names(), vec!["sack", "reno", "cubic", "bbr"]);
        assert_eq!(CcVariant::sack().name(), "sack");
    }

    #[test]
    fn names_are_unique() {
        let mut names = CcVariant::names();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CC_REGISTRY.len(), "duplicate registry name");
    }

    #[test]
    fn summaries_are_nonempty() {
        for v in CcVariant::all() {
            assert!(!v.summary().is_empty(), "{} needs a summary", v.name());
        }
    }

    #[test]
    fn every_variant_builds_a_sender() {
        // The rows must construct without panicking (a bad TcpConfig
        // would trip `validate`), all as the one sender agent, and only
        // Reno runs the dup-ack detector.
        for v in CcVariant::all() {
            let agent = v.build_sender(AgentId(0), TcpConfig::default());
            let sender = agent
                .as_any()
                .downcast_ref::<TcpSender>()
                .unwrap_or_else(|| panic!("{v} must build a TcpSender"));
            let expected = if v.name() == "reno" {
                "reno"
            } else {
                "tcp-sack"
            };
            assert_eq!(sender.probe_kind(), expected, "{v}");
        }
    }
}
