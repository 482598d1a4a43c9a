//! Declarative scenario construction: [`ScenarioSpec`].
//!
//! Hand-mutating [`TreeScenario`] fields (`s.rla_sessions = 2`,
//! `s.rla_config = cfg`, `s.events = ...`) silently bypasses the
//! invariants a paper scenario needs — most visibly the case-dependent
//! pthresh policy, the warmup that scales with the duration, and the
//! validated, time-ordered event schedule. `ScenarioSpec` is the one
//! builder, and an order-independent one: overrides are recorded, and
//! [`ScenarioSpec::build`] applies them in one fixed sequence on top of
//! the paper defaults, so `.with_seed(7).with_duration(d)` and
//! `.with_duration(d).with_seed(7)` produce byte-identical scenarios.

use netsim::time::SimDuration;

use rla::{PthreshPolicy, RlaConfig};
use tcp_sack::CcVariant;

use crate::events::{synth_churn, BackgroundLoad, EventCommand, ScenarioEvent};
use crate::metrics::ScenarioResult;
use crate::scenario::{GatewayKind, TreeScenario};
use crate::tree::{parse_link_label, CongestionCase, LEAVES};

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
    seed: u64,
    duration: SimDuration,
    /// `None` keeps the case-dependent paper default.
    rla_config: Option<RlaConfig>,
    tcp_cc: CcVariant,
    events: Vec<ScenarioEvent>,
    churn_rate: f64,
    bg_load: Option<BackgroundLoad>,
}

impl ScenarioSpec {
    /// Paper defaults for `case`: drop-tail gateways, one RLA session,
    /// 3000 s / 100 s warmup, seed 1, case-appropriate pthresh policy.
    pub fn paper(case: CongestionCase) -> Self {
        ScenarioSpec {
            case,
            gateway: GatewayKind::DropTail,
            sessions: 1,
            seed: 1,
            duration: SimDuration::from_secs(3000),
            rla_config: None,
            tcp_cc: CcVariant::sack(),
            events: Vec::new(),
            churn_rate: 0.0,
            bg_load: None,
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
        self.seed = seed;
        self
    }

    /// Override the simulated run length (tests, benches, sweeps). The
    /// warmup shrinks proportionally but never below 20 s — unless that
    /// floor would reach the end of the run, in which case a third of the
    /// duration is discarded instead so very short runs stay valid.
    pub fn with_duration(mut self, duration: SimDuration) -> Self {
        self.duration = duration;
        self
    }

    /// Replace the RLA sender configuration wholesale.
    ///
    /// Omitting this keeps the paper's case-dependent default — notably
    /// the RTT-scaled pthresh policy for the figure-10 cases — so only
    /// set it when the experiment really changes the RLA parameters.
    pub fn with_rla_config(mut self, config: RlaConfig) -> Self {
        self.rla_config = Some(config);
        self
    }

    /// Which congestion controller the background TCP flows run
    /// (default: the paper's SACK).
    pub fn with_tcp_cc(mut self, cc: CcVariant) -> Self {
        self.tcp_cc = cc;
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

    /// Inert: the engine runs one execution domain whatever `shards` is
    /// (at least 1). Only `benchmark/` calls it; ROADMAP item 9 deletes
    /// it.
    pub fn with_shards(self, shards: usize) -> Self {
        assert!(shards >= 1, "at least one worker is required");
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

    /// Materialize the [`TreeScenario`]: derive the warmup from the
    /// duration, fill the case-dependent RLA default, and validate and
    /// time-order the event schedule. Nothing here depends on the order
    /// the `with_*` calls were made in.
    pub fn build(&self) -> TreeScenario {
        // The paper discards the first 100 s of 3000; a shorter run keeps
        // that proportion down to the 20 s floor.
        let secs = self.duration.as_secs_f64();
        let mut warmup = (secs / 30.0).clamp(20.0, 100.0);
        if warmup >= secs {
            warmup = secs / 3.0;
        }
        let warmup = SimDuration::from_secs_f64(warmup);
        let rla_config = self.rla_config.clone().unwrap_or_else(|| RlaConfig {
            pthresh_policy: if self.case.g3_receivers {
                PthreshPolicy::RttScaled
            } else {
                PthreshPolicy::Equal
            },
            ..RlaConfig::default()
        });
        let mut events = self.events.clone();
        if self.churn_rate > 0.0 {
            let churn = synth_churn(self.churn_rate, self.seed, warmup, self.duration);
            events.extend(churn);
        }
        for ev in &events {
            validate_event(ev, self.duration, self.sessions);
        }
        // Stable sort: equal timestamps keep schedule order, pinning the
        // FIFO tie-break the executor relies on.
        events.sort_by_key(|ev| ev.at);
        TreeScenario {
            case: self.case,
            gateway: self.gateway,
            rla_sessions: self.sessions,
            seed: self.seed,
            duration: self.duration,
            warmup,
            rla_config,
            tcp_cc: self.tcp_cc,
            events,
            bg_load: self.bg_load.clone(),
        }
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
            leaf < LEAVES,
            "scenario event at {t}s names leaf {leaf}: the tertiary tree has leaves 0..{LEAVES}"
        );
    };
    let check_link = |link: &str| {
        assert!(
            parse_link_label(link).is_some(),
            "scenario event at {t}s names unknown link {link:?}: the tertiary tree's links \
             are L1, L2.1..L2.3, L3.1..L3.9 and L4.1..L4.27"
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
            check_link(link);
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
        EventCommand::LinkRestore { link } => check_link(link),
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
    fn short_durations_keep_warmup_inside_the_run() {
        let at = |secs: u64| {
            ScenarioSpec::paper(CongestionCase::Case1RootLink)
                .with_duration(SimDuration::from_secs(secs))
                .build()
        };
        // Regression: durations ≤ 20 s used to clamp warmup to 20 s and
        // trip the world builder's `warmup < duration` assertion.
        for secs in [5u64, 10, 20, 21, 60, 120, 3000] {
            let s = at(secs);
            assert!(
                s.warmup < s.duration,
                "duration {secs}s got warmup {:?}",
                s.warmup
            );
        }
        // The longstanding values are unchanged (golden digests depend on
        // the 60 s case), and an unset duration is the paper's 3000/100.
        assert_eq!(at(60).warmup, SimDuration::from_secs(20));
        assert_eq!(at(3000).warmup, SimDuration::from_secs(100));
        let paper = ScenarioSpec::paper(CongestionCase::Case1RootLink).build();
        assert_eq!(paper.duration, SimDuration::from_secs(3000));
        assert_eq!(paper.warmup, SimDuration::from_secs(100));
        // And a short run actually builds and starts.
        let _ = at(15).build();
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
    fn link_events_resolve_their_label_at_build_time() {
        let spec = ScenarioSpec::paper(CongestionCase::Case5OneLevel2)
            .with_duration(SimDuration::from_secs(60));
        let build = |link: &str| {
            let spec = spec
                .clone()
                .with_event(ScenarioEvent::degrade(30.0, link, 0.1, None));
            std::panic::catch_unwind(move || spec.build()).map_err(|e| {
                e.downcast_ref::<String>()
                    .cloned()
                    .expect("a formatted message")
            })
        };
        let mut valid = vec!["L1".to_string()];
        for (level, links) in [(2, 3), (3, 9), (4, 27)] {
            valid.extend((1..=links).map(|i| format!("L{level}.{i}")));
        }
        assert_eq!(valid.len(), 40);
        for link in &valid {
            assert!(build(link).is_ok(), "{link} was refused");
        }
        for link in [
            "L1.1", "L2.0", "L2.4", "L4.28", "L5.1", "L2.x", "L2", "L2.01", "",
        ] {
            let err = build(link).expect_err(link);
            assert!(
                err.contains(&format!("at 30s names unknown link {link:?}")),
                "{err}"
            );
        }
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
