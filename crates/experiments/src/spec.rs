//! Declarative scenario construction: [`ScenarioSpec`].
//!
//! The experiment binaries used to hand-mutate [`TreeScenario`] fields
//! (`s.rla_sessions = 2`, `s.rla_config = cfg`), which silently bypassed
//! the invariants `TreeScenario::paper` establishes — most visibly the
//! case-dependent pthresh policy. `ScenarioSpec` is an order-independent
//! builder: overrides are recorded, and [`ScenarioSpec::build`] applies
//! them in one fixed sequence on top of the paper defaults, so
//! `.with_seed(7).with_duration(d)` and `.with_duration(d).with_seed(7)`
//! produce byte-identical scenarios.

use netsim::time::SimDuration;

use rla::RlaConfig;
use tcp_sack::CcVariant;

use crate::events::{synth_churn, BackgroundLoad, EventCommand, ScenarioEvent};
use crate::metrics::ScenarioResult;
use crate::scenario::{GatewayKind, TreeScenario};
use crate::tree::CongestionCase;

/// A declarative description of one tree-scenario run.
///
/// Construct with [`ScenarioSpec::paper`], layer overrides with the
/// `with_*` methods, then [`build`](ScenarioSpec::build) a
/// [`TreeScenario`] or [`run`](ScenarioSpec::run) it directly.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    case: CongestionCase,
    gateway: GatewayKind,
    sessions: usize,
    seed: Option<u64>,
    duration: Option<SimDuration>,
    rla_config: Option<RlaConfig>,
    tcp_cc: Option<CcVariant>,
    events: Vec<ScenarioEvent>,
    churn_rate: f64,
    bg_load: Option<BackgroundLoad>,
    shards: Option<usize>,
}

impl ScenarioSpec {
    /// Paper defaults for `case`: drop-tail gateways, one RLA session,
    /// 3000 s / 100 s warmup, seed 1, case-appropriate pthresh policy.
    pub fn paper(case: CongestionCase) -> Self {
        ScenarioSpec {
            case,
            gateway: GatewayKind::DropTail,
            sessions: 1,
            seed: None,
            duration: None,
            rla_config: None,
            tcp_cc: None,
            events: Vec::new(),
            churn_rate: 0.0,
            bg_load: None,
            shards: None,
        }
    }

    /// Gateway type on every link (default: drop-tail).
    pub fn with_gateway(mut self, gateway: GatewayKind) -> Self {
        self.gateway = gateway;
        self
    }

    /// Number of overlapping RLA sessions (default 1; §5.2 uses 2).
    pub fn with_sessions(mut self, sessions: usize) -> Self {
        assert!(sessions >= 1, "need at least one RLA session");
        self.sessions = sessions;
        self
    }

    /// Override the RNG seed (default: the paper's seed 1).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Override the simulated run length; warmup rescales with it
    /// (see [`TreeScenario::with_duration`]).
    pub fn with_duration(mut self, duration: SimDuration) -> Self {
        self.duration = Some(duration);
        self
    }

    /// Replace the RLA sender configuration wholesale (ablations).
    ///
    /// Omitting this keeps the paper's case-dependent default — notably
    /// the RTT-scaled pthresh policy for the figure-10 cases — so only
    /// set it when the experiment really sweeps the RLA parameters.
    pub fn with_rla_config(mut self, config: RlaConfig) -> Self {
        self.rla_config = Some(config);
        self
    }

    /// Which congestion controller the background TCP flows run
    /// (default: the paper's SACK).
    pub fn with_tcp_cc(mut self, cc: CcVariant) -> Self {
        self.tcp_cc = Some(cc);
        self
    }

    /// Replace the scheduled event list (default: none — a static run).
    /// Event times must fall strictly inside the run; [`build`] rejects
    /// out-of-range events with a clear error.
    ///
    /// [`build`]: ScenarioSpec::build
    pub fn with_events(mut self, events: Vec<ScenarioEvent>) -> Self {
        self.events = events;
        self
    }

    /// Append one scheduled event (see [`with_events`]).
    ///
    /// [`with_events`]: ScenarioSpec::with_events
    pub fn with_event(mut self, event: ScenarioEvent) -> Self {
        self.events.push(event);
        self
    }

    /// Synthesize receiver churn at `rate_hz` leave/rejoin events per
    /// second (default 0 — no churn). The schedule is drawn from a salted
    /// RNG seeded by the scenario seed, so it is deterministic and does
    /// not perturb the engine RNG stream. See [`synth_churn`].
    pub fn with_churn_rate(mut self, rate_hz: f64) -> Self {
        assert!(
            rate_hz >= 0.0 && rate_hz.is_finite(),
            "churn rate must be non-negative and finite (got {rate_hz})"
        );
        self.churn_rate = rate_hz;
        self
    }

    /// Add Poisson short-flow background traffic sharing the scenario's
    /// bottleneck links: `flows_per_sec` arrivals averaging
    /// `mean_flow_packets` packets (default: none).
    pub fn with_background_load(mut self, flows_per_sec: f64, mean_flow_packets: f64) -> Self {
        self.bg_load = Some(BackgroundLoad {
            flows_per_sec,
            mean_flow_packets,
        });
        self
    }

    /// Override the target execution-domain and worker count for the
    /// partitioned engine (default 1). Results are identical at every
    /// value — see [`TreeScenario::with_shards`].
    pub fn with_shards(mut self, shards: usize) -> Self {
        assert!(shards >= 1, "at least one worker is required");
        self.shards = Some(shards);
        self
    }

    /// The congestion case this spec describes.
    pub fn case(&self) -> CongestionCase {
        self.case
    }

    /// The gateway kind this spec describes.
    pub fn gateway(&self) -> GatewayKind {
        self.gateway
    }

    /// Materialize the [`TreeScenario`]. Overrides are applied in a fixed
    /// order, so the builder-call order never matters.
    pub fn build(&self) -> TreeScenario {
        let mut s = TreeScenario::paper(self.case, self.gateway);
        if let Some(d) = self.duration {
            s = s.with_duration(d);
        }
        if let Some(seed) = self.seed {
            s = s.with_seed(seed);
        }
        s.rla_sessions = self.sessions;
        if let Some(cfg) = &self.rla_config {
            s.rla_config = cfg.clone();
        }
        if let Some(cc) = self.tcp_cc {
            s = s.with_tcp_cc(cc);
        }
        let mut events = self.events.clone();
        if self.churn_rate > 0.0 {
            events.extend(synth_churn(self.churn_rate, s.seed, s.warmup, s.duration));
        }
        for ev in &events {
            validate_event(ev, s.duration, self.sessions);
        }
        // Stable sort: equal timestamps keep schedule order, pinning the
        // FIFO tie-break the executor relies on.
        events.sort_by_key(|ev| ev.at);
        s.events = events;
        s.bg_load = self.bg_load.clone();
        if let Some(shards) = self.shards {
            s = s.with_shards(shards);
        }
        s
    }

    /// Build, run and measure in one step.
    pub fn run(&self) -> ScenarioResult {
        self.build().run()
    }
}

/// Reject a malformed scheduled event at build time with an error that
/// names the offending field, mirroring the named-knob style of [`cli`].
///
/// [`cli`]: crate::cli
fn validate_event(ev: &ScenarioEvent, duration: SimDuration, sessions: usize) {
    let t = ev.at.as_secs_f64();
    assert!(
        ev.at > SimDuration::ZERO && ev.at < duration,
        "scenario event at {t}s is outside the run: event times must satisfy \
         0 < t < duration ({}s) — call with_duration before scheduling, or move the event",
        duration.as_secs_f64()
    );
    let check_leaf = |leaf: usize| {
        assert!(
            leaf < 27,
            "scenario event at {t}s names leaf {leaf}: the tertiary tree has leaves 0..27"
        );
    };
    let check_session = |session: usize| {
        assert!(
            session < sessions,
            "scenario event at {t}s names session {session}: \
             this spec runs {sessions} session(s)"
        );
    };
    match &ev.command {
        EventCommand::ReceiverJoin { session, leaf }
        | EventCommand::ReceiverLeave { session, leaf } => {
            check_session(*session);
            check_leaf(*leaf);
        }
        EventCommand::LinkDegrade {
            link,
            loss,
            bandwidth_pps,
        } => {
            assert!(
                !link.is_empty(),
                "scenario event at {t}s: LinkDegrade needs a link label (e.g. \"L2.1\")"
            );
            assert!(
                (0.0..=1.0).contains(loss),
                "scenario event at {t}s: injected loss rate {loss} outside 0.0..=1.0"
            );
            if let Some(bw) = bandwidth_pps {
                assert!(
                    *bw > 0,
                    "scenario event at {t}s: degraded bandwidth must be positive"
                );
            }
        }
        EventCommand::LinkRestore { link } => {
            assert!(
                !link.is_empty(),
                "scenario event at {t}s: LinkRestore needs a link label (e.g. \"L2.1\")"
            );
        }
        EventCommand::StartBackgroundFlow { leaf, packets } => {
            check_leaf(*leaf);
            assert!(
                *packets > 0,
                "scenario event at {t}s: a background burst must carry packets"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rla::PthreshPolicy;

    #[test]
    fn builder_order_does_not_matter() {
        let d = SimDuration::from_secs(90);
        let a = ScenarioSpec::paper(CongestionCase::Case5OneLevel2)
            .with_seed(7)
            .with_duration(d)
            .with_gateway(GatewayKind::Red)
            .build();
        let b = ScenarioSpec::paper(CongestionCase::Case5OneLevel2)
            .with_gateway(GatewayKind::Red)
            .with_duration(d)
            .with_seed(7)
            .build();
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.duration, b.duration);
        assert_eq!(a.warmup, b.warmup);
        assert_eq!(a.gateway, b.gateway);
    }

    #[test]
    fn matches_hand_built_tree_scenario() {
        let d = SimDuration::from_secs(60);
        let via_spec = ScenarioSpec::paper(CongestionCase::Case5OneLevel2)
            .with_duration(d)
            .with_seed(1)
            .build();
        let by_hand = TreeScenario::paper(CongestionCase::Case5OneLevel2, GatewayKind::DropTail)
            .with_duration(d)
            .with_seed(1);
        assert_eq!(via_spec.seed, by_hand.seed);
        assert_eq!(via_spec.duration, by_hand.duration);
        assert_eq!(via_spec.warmup, by_hand.warmup);
        assert_eq!(via_spec.rla_sessions, by_hand.rla_sessions);
    }

    #[test]
    fn paper_pthresh_policy_survives_other_overrides() {
        let s = ScenarioSpec::paper(CongestionCase::Case1RootLink)
            .with_sessions(2)
            .with_duration(SimDuration::from_secs(60))
            .build();
        assert_eq!(s.rla_sessions, 2);
        assert_eq!(s.rla_config.pthresh_policy, PthreshPolicy::Equal);
        let g3 = ScenarioSpec::paper(CongestionCase::Fig10AllLevel2).build();
        assert_ne!(g3.rla_config.pthresh_policy, PthreshPolicy::Equal);
    }

    #[test]
    fn events_are_sorted_with_a_stable_tie_break() {
        let s = ScenarioSpec::paper(CongestionCase::Case5OneLevel2)
            .with_duration(SimDuration::from_secs(60))
            .with_event(ScenarioEvent::leave(30.0, 0, 1))
            .with_event(ScenarioEvent::leave(10.0, 0, 0))
            .with_event(ScenarioEvent::leave(30.0, 0, 2))
            .build();
        assert_eq!(
            s.events,
            vec![
                ScenarioEvent::leave(10.0, 0, 0),
                // Equal timestamps keep their schedule order (FIFO).
                ScenarioEvent::leave(30.0, 0, 1),
                ScenarioEvent::leave(30.0, 0, 2),
            ]
        );
    }

    #[test]
    fn churn_rate_synthesizes_a_deterministic_schedule() {
        let spec = ScenarioSpec::paper(CongestionCase::Case5OneLevel2)
            .with_duration(SimDuration::from_secs(120))
            .with_churn_rate(0.5);
        let a = spec.build();
        let b = spec.build();
        assert!(!a.events.is_empty(), "0.5 Hz over 100 s should churn");
        assert_eq!(a.events, b.events);
        let other_seed = ScenarioSpec::paper(CongestionCase::Case5OneLevel2)
            .with_duration(SimDuration::from_secs(120))
            .with_seed(9)
            .with_churn_rate(0.5)
            .build();
        assert_ne!(a.events, other_seed.events, "churn must track the seed");
    }

    #[test]
    #[should_panic(expected = "outside the run")]
    fn event_after_the_run_ends_is_rejected_at_build_time() {
        ScenarioSpec::paper(CongestionCase::Case5OneLevel2)
            .with_duration(SimDuration::from_secs(60))
            .with_event(ScenarioEvent::leave(60.0, 0, 0))
            .build();
    }

    #[test]
    #[should_panic(expected = "outside the run")]
    fn event_at_time_zero_is_rejected_at_build_time() {
        ScenarioSpec::paper(CongestionCase::Case5OneLevel2)
            .with_duration(SimDuration::from_secs(60))
            .with_event(ScenarioEvent::join(0.0, 0, 0))
            .build();
    }

    #[test]
    #[should_panic(expected = "loss rate")]
    fn degrade_with_out_of_range_loss_is_rejected_at_build_time() {
        ScenarioSpec::paper(CongestionCase::Case5OneLevel2)
            .with_duration(SimDuration::from_secs(60))
            .with_event(ScenarioEvent::degrade(30.0, "L2.1", 1.5, None))
            .build();
    }

    #[test]
    #[should_panic(expected = "session 3")]
    fn event_naming_a_missing_session_is_rejected_at_build_time() {
        ScenarioSpec::paper(CongestionCase::Case5OneLevel2)
            .with_duration(SimDuration::from_secs(60))
            .with_event(ScenarioEvent::leave(30.0, 3, 0))
            .build();
    }

    #[test]
    fn rla_config_override_replaces_wholesale() {
        let cfg = RlaConfig {
            eta: 0.42,
            ..RlaConfig::default()
        };
        let s = ScenarioSpec::paper(CongestionCase::Case2AllLevel3)
            .with_rla_config(cfg.clone())
            .build();
        assert_eq!(s.rla_config.eta, cfg.eta);
        assert_eq!(s.rla_config.pthresh_policy, cfg.pthresh_policy);
    }
}
