//! The timed scenario-event layer: receiver churn, link degradation and
//! background-traffic commands executed mid-run.
//!
//! A [`ScenarioEvent`] is a `(time, command)` pair attached to a
//! [`ScenarioSpec`]. The scenario runner
//! executes the schedule through the digest-preserving `run_until`
//! stepping loop (see `ScenarioWorld::run_span`): the engine is advanced
//! to each event's timestamp, the command is applied between events, and
//! stepping never perturbs the packet-event stream — so a run with an
//! *empty* schedule is bit-identical to a run that never heard of events,
//! and a run with a fixed schedule is bit-identical across repetitions
//! and worker-pool sizes.
//!
//! Equal timestamps are serviced in schedule order (FIFO): the sort
//! applied by the spec builder is stable, and the executor drains
//! same-time events in sequence, mirroring the engine calendar's own
//! FIFO tie-break.
//!
//! Schedules come from three places: explicit `with_event(s)` calls, the
//! seed-driven churn synthesizer ([`synth_churn`], through
//! `ScenarioSpec::with_churn_rate`), and a JSON events file (knob `RLA_EVENTS_FILE`, format in
//! EXPERIMENTS.md, parsed by [`events_from_json`]).

use netsim::time::SimDuration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::manifest::Json;
use crate::scenario::GatewayKind;
use crate::spec::ScenarioSpec;
use crate::tree::CongestionCase;

/// A command the scenario runner applies at a scheduled time.
#[derive(Debug, Clone, PartialEq)]
pub enum EventCommand {
    /// A fresh RLA receiver joins `session`'s multicast group at leaf
    /// `leaf` (0-based, `0..27`). It enters the session at the sender's
    /// current sequence and starts feeding acks, the troubled-receiver
    /// count and `min_last_ack` from there.
    ReceiverJoin {
        /// RLA session index.
        session: usize,
        /// Leaf index `0..27`.
        leaf: usize,
    },
    /// The active receiver at `leaf` leaves `session`'s group: it is
    /// pruned from the distribution tree and detached from the sender's
    /// control loop (not an ejection — see `RlaSender::remove_receiver`).
    ReceiverLeave {
        /// RLA session index.
        session: usize,
        /// Leaf index `0..27`.
        leaf: usize,
    },
    /// Degrade the downstream link named by `link` (paper-style label:
    /// `L1`, `L2.1`, `L4.12`): inject random loss and optionally cap the
    /// bandwidth. Degrading an already-degraded link replaces the
    /// override.
    LinkDegrade {
        /// Link label, e.g. `"L2.1"`.
        link: String,
        /// Injected loss probability, `0.0..=1.0` (0 installs no fault
        /// injector — a pure bandwidth override).
        loss: f64,
        /// Bandwidth override in packets/second (1000-byte packets);
        /// `None` keeps the configured bandwidth.
        bandwidth_pps: Option<u64>,
    },
    /// Undo a previous [`EventCommand::LinkDegrade`] on `link`. Restoring
    /// a link that is not degraded is rejected with a clear error.
    LinkRestore {
        /// Link label, e.g. `"L2.1"`.
        link: String,
    },
    /// Fire a one-shot burst of background packets from the root toward
    /// leaf `leaf` — a short flow arriving at a chosen instant.
    StartBackgroundFlow {
        /// Leaf index `0..27` the burst is routed to.
        leaf: usize,
        /// Burst length in 1000-byte packets.
        packets: u32,
    },
}

/// One scheduled command. Times are offsets from simulation start and
/// must fall strictly inside the run (`0 < at < duration`).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioEvent {
    /// When the command fires, from simulation start.
    pub at: SimDuration,
    /// What happens.
    pub command: EventCommand,
}

impl ScenarioEvent {
    /// A receiver join at `secs` seconds.
    pub fn join(secs: f64, session: usize, leaf: usize) -> Self {
        ScenarioEvent {
            at: SimDuration::from_secs_f64(secs),
            command: EventCommand::ReceiverJoin { session, leaf },
        }
    }

    /// A receiver leave at `secs` seconds.
    pub fn leave(secs: f64, session: usize, leaf: usize) -> Self {
        ScenarioEvent {
            at: SimDuration::from_secs_f64(secs),
            command: EventCommand::ReceiverLeave { session, leaf },
        }
    }

    /// A link degrade at `secs` seconds.
    pub fn degrade(secs: f64, link: &str, loss: f64, bandwidth_pps: Option<u64>) -> Self {
        ScenarioEvent {
            at: SimDuration::from_secs_f64(secs),
            command: EventCommand::LinkDegrade {
                link: link.to_string(),
                loss,
                bandwidth_pps,
            },
        }
    }

    /// A link restore at `secs` seconds.
    pub fn restore(secs: f64, link: &str) -> Self {
        ScenarioEvent {
            at: SimDuration::from_secs_f64(secs),
            command: EventCommand::LinkRestore {
                link: link.to_string(),
            },
        }
    }

    /// A one-shot background burst at `secs` seconds.
    pub fn background_burst(secs: f64, leaf: usize, packets: u32) -> Self {
        ScenarioEvent {
            at: SimDuration::from_secs_f64(secs),
            command: EventCommand::StartBackgroundFlow { leaf, packets },
        }
    }
}

/// Aggregate Poisson background load sharing the scenario's links
/// (`ScenarioSpec::with_background_load`); materialized as a
/// [`PoissonFlowSource`](baselines::PoissonFlowSource) at the tree root
/// spraying short flows at every leaf.
#[derive(Debug, Clone, PartialEq)]
pub struct BackgroundLoad {
    /// Mean flow arrivals per second.
    pub flows_per_sec: f64,
    /// Mean flow length, packets.
    pub mean_flow_packets: f64,
}

// ---------------------------------------------------------------------
// JSON events-file format
// ---------------------------------------------------------------------

fn command_json(c: &EventCommand) -> Vec<(&'static str, Json)> {
    match c {
        EventCommand::ReceiverJoin { session, leaf } => vec![
            ("command", "receiver_join".into()),
            ("session", (*session).into()),
            ("leaf", (*leaf).into()),
        ],
        EventCommand::ReceiverLeave { session, leaf } => vec![
            ("command", "receiver_leave".into()),
            ("session", (*session).into()),
            ("leaf", (*leaf).into()),
        ],
        EventCommand::LinkDegrade {
            link,
            loss,
            bandwidth_pps,
        } => {
            let mut f = vec![
                ("command", "link_degrade".into()),
                ("link", link.as_str().into()),
                ("loss", (*loss).into()),
            ];
            if let Some(bw) = bandwidth_pps {
                f.push(("bandwidth_pps", (*bw).into()));
            }
            f
        }
        EventCommand::LinkRestore { link } => vec![
            ("command", "link_restore".into()),
            ("link", link.as_str().into()),
        ],
        EventCommand::StartBackgroundFlow { leaf, packets } => vec![
            ("command", "background_burst".into()),
            ("leaf", (*leaf).into()),
            ("packets", u64::from(*packets).into()),
        ],
    }
}

/// One event as a JSON object (`{"t_secs": ..., "command": ..., ...}`).
pub fn event_json(ev: &ScenarioEvent) -> Json {
    let mut fields: Vec<(&str, Json)> = vec![("t_secs", ev.at.as_secs_f64().into())];
    fields.extend(command_json(&ev.command));
    Json::obj(fields)
}

/// A schedule as a JSON array — the manifest's `events` field and the
/// `RLA_EVENTS_FILE` format.
pub fn events_json(events: &[ScenarioEvent]) -> Json {
    Json::Arr(events.iter().map(event_json).collect())
}

fn field_f64(obj: &Json, key: &str, i: usize) -> Result<f64, String> {
    obj.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("event {i}: missing numeric field {key:?}"))
}

fn field_usize(obj: &Json, key: &str, i: usize) -> Result<usize, String> {
    obj.get(key)
        .and_then(Json::as_u64)
        .map(|v| v as usize)
        .ok_or_else(|| format!("event {i}: missing integer field {key:?}"))
}

fn field_u32(obj: &Json, key: &str, i: usize) -> Result<u32, String> {
    let v = field_usize(obj, key, i)?;
    u32::try_from(v).map_err(|_| format!("event {i}: field {key:?} = {v} is above {}", u32::MAX))
}

/// An optional field that, when present, must be an unsigned integer.
fn field_opt_u64(obj: &Json, key: &str, i: usize) -> Result<Option<u64>, String> {
    obj.get(key)
        .map(|v| {
            v.as_u64()
                .ok_or_else(|| format!("event {i}: field {key:?} must be an unsigned integer"))
        })
        .transpose()
}

fn field_str(obj: &Json, key: &str, i: usize) -> Result<String, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("event {i}: missing string field {key:?}"))
}

/// Parse a schedule from JSON: either a bare array of event objects or an
/// object with an `"events"` array (both shapes are accepted so a manifest
/// `events` section can be replayed directly).
pub fn events_from_json(json: &Json) -> Result<Vec<ScenarioEvent>, String> {
    let items = json
        .as_arr()
        .or_else(|| json.get("events").and_then(Json::as_arr))
        .ok_or("expected a JSON array of events or an object with an \"events\" array")?;
    let mut out = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let t = field_f64(item, "t_secs", i)?;
        if !(t.is_finite() && t >= 0.0) {
            return Err(format!(
                "event {i}: t_secs {t} must be a non-negative number"
            ));
        }
        let at = SimDuration::from_secs_f64(t);
        let kind = field_str(item, "command", i)?;
        let command = match kind.as_str() {
            "receiver_join" => EventCommand::ReceiverJoin {
                session: field_usize(item, "session", i)?,
                leaf: field_usize(item, "leaf", i)?,
            },
            "receiver_leave" => EventCommand::ReceiverLeave {
                session: field_usize(item, "session", i)?,
                leaf: field_usize(item, "leaf", i)?,
            },
            "link_degrade" => EventCommand::LinkDegrade {
                link: field_str(item, "link", i)?,
                loss: field_f64(item, "loss", i)?,
                bandwidth_pps: field_opt_u64(item, "bandwidth_pps", i)?,
            },
            "link_restore" => EventCommand::LinkRestore {
                link: field_str(item, "link", i)?,
            },
            "background_burst" => EventCommand::StartBackgroundFlow {
                leaf: field_usize(item, "leaf", i)?,
                packets: field_u32(item, "packets", i)?,
            },
            other => {
                return Err(format!(
                    "event {i}: unknown command {other:?} (expected receiver_join, \
                     receiver_leave, link_degrade, link_restore or background_burst)"
                ))
            }
        };
        out.push(ScenarioEvent { at, command });
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Seed-driven churn synthesis
// ---------------------------------------------------------------------

/// Salt so the churn stream never aliases the engine RNG stream, which is
/// seeded with the bare scenario seed.
const CHURN_SEED_SALT: u64 = 0x6368_7572_6e5f_7631; // "churn_v1"

/// Synthesize a deterministic churn schedule for session 0: leave/rejoin
/// events at exponential intervals of mean `1/rate_hz`, confined to
/// `(warmup, duration)` so the warmup statistics window stays clean and
/// the sender is guaranteed to have started. The schedule is a pure
/// function of `(rate_hz, seed, warmup, duration)` — it draws from its
/// own salted RNG, never the engine's, so adding churn to a scenario only
/// changes the run through the events themselves.
///
/// At most half of the 27 leaves are ever away at once; a departed leaf
/// is preferred for the next event (rejoin) with probability one half.
pub fn synth_churn(
    rate_hz: f64,
    seed: u64,
    warmup: SimDuration,
    duration: SimDuration,
) -> Vec<ScenarioEvent> {
    assert!(
        rate_hz > 0.0 && rate_hz.is_finite(),
        "churn rate must be positive and finite (got {rate_hz})"
    );
    let mut rng = StdRng::seed_from_u64(seed ^ CHURN_SEED_SALT);
    let leaves = 27usize;
    let max_away = leaves / 2;
    let mut away: Vec<usize> = Vec::new();
    let mut events = Vec::new();
    let margin = SimDuration::from_secs(1);
    let end = if duration > margin {
        SimDuration::from_nanos(duration.as_nanos() - margin.as_nanos())
    } else {
        SimDuration::ZERO
    };
    let mut t = warmup;
    loop {
        let u: f64 = rng.gen::<f64>().max(1e-12);
        t += SimDuration::from_secs_f64(-u.ln() / rate_hz);
        if t >= end {
            break;
        }
        let rejoin = !away.is_empty() && (away.len() >= max_away || rng.gen_bool(0.5));
        let secs = t.as_secs_f64();
        if rejoin {
            let leaf = away.swap_remove(rng.gen_range(0..away.len()));
            events.push(ScenarioEvent::join(secs, 0, leaf));
        } else {
            // Pick a leaf that is currently present.
            let leaf = loop {
                let l = rng.gen_range(0..leaves);
                if !away.contains(&l) {
                    break l;
                }
            };
            away.push(leaf);
            events.push(ScenarioEvent::leave(secs, 0, leaf));
        }
    }
    events
}

// ---------------------------------------------------------------------
// Canonical dynamic scenarios (golden-pinned)
// ---------------------------------------------------------------------

/// The first golden dynamic scenario: case-5 drop-tail, 60 s, seed 1
/// (same base as the static golden), with a pinned literal schedule — a
/// leave, a degrade of the congested L2.1 with injected loss and a
/// bandwidth cap, a rejoin, and the restore.
pub fn canonical_churn_spec() -> ScenarioSpec {
    ScenarioSpec::paper(CongestionCase::Case5OneLevel2)
        .with_gateway(GatewayKind::DropTail)
        .with_duration(SimDuration::from_secs(60))
        .with_seed(1)
        .with_events(vec![
            ScenarioEvent::leave(25.0, 0, 2),
            ScenarioEvent::degrade(30.0, "L2.1", 0.03, Some(800)),
            ScenarioEvent::join(40.0, 0, 2),
            ScenarioEvent::restore(45.0, "L2.1"),
        ])
}

/// The second golden dynamic scenario: the same base run under Poisson
/// background load plus one scheduled burst.
pub fn canonical_bgload_spec() -> ScenarioSpec {
    ScenarioSpec::paper(CongestionCase::Case5OneLevel2)
        .with_gateway(GatewayKind::DropTail)
        .with_duration(SimDuration::from_secs(60))
        .with_seed(1)
        .with_background_load(2.0, 20.0)
        .with_events(vec![ScenarioEvent::background_burst(30.0, 5, 15)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips_every_command() {
        let events = vec![
            ScenarioEvent::join(10.0, 0, 3),
            ScenarioEvent::leave(12.5, 1, 26),
            ScenarioEvent::degrade(15.0, "L2.1", 0.05, Some(500)),
            ScenarioEvent::degrade(16.0, "L1", 0.0, None),
            ScenarioEvent::restore(20.0, "L2.1"),
            ScenarioEvent::background_burst(22.0, 7, 40),
        ];
        let text = events_json(&events).pretty();
        let back = events_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, events);
    }

    #[test]
    fn object_wrapper_with_events_array_is_accepted() {
        let obj = Json::obj(vec![(
            "events",
            events_json(&[ScenarioEvent::restore(5.0, "L1")]),
        )]);
        let back = events_from_json(&obj).unwrap();
        assert_eq!(back, vec![ScenarioEvent::restore(5.0, "L1")]);
    }

    #[test]
    fn parse_errors_name_the_event_and_field() {
        let bad = Json::parse(r#"[{"t_secs": 5.0, "command": "link_degrade"}]"#).unwrap();
        let err = events_from_json(&bad).unwrap_err();
        assert!(err.contains("event 0") && err.contains("link"), "{err}");
        let unknown = Json::parse(r#"[{"t_secs": 5.0, "command": "reboot"}]"#).unwrap();
        let err = events_from_json(&unknown).unwrap_err();
        assert!(err.contains("unknown command"), "{err}");
    }

    #[test]
    fn a_burst_longer_than_u32_is_refused_not_wrapped() {
        let big = Json::parse(
            r#"[{"t_secs": 5.0, "command": "background_burst", "leaf": 1, "packets": 4294967301}]"#,
        )
        .unwrap();
        let err = events_from_json(&big).unwrap_err();
        assert!(
            err.contains("event 0") && err.contains("\"packets\" = 4294967301"),
            "{err}"
        );
    }

    #[test]
    fn a_bandwidth_that_is_not_an_unsigned_integer_is_refused_not_dropped() {
        for bw in ["1.5", "-5", "\"fast\""] {
            let text = format!(
                r#"[{{"t_secs": 1.0, "command": "link_restore", "link": "L1"}},
                    {{"t_secs": 5.0, "command": "link_degrade", "link": "L1", "loss": 0.0,
                      "bandwidth_pps": {bw}}}]"#
            );
            let err = events_from_json(&Json::parse(&text).unwrap()).unwrap_err();
            assert!(
                err.contains("event 1") && err.contains("\"bandwidth_pps\""),
                "{bw}: {err}"
            );
        }
    }

    /// `"key": value` members an event object may carry: hostile ones (out
    /// of range, wrong type, signed zero) among valid ones.
    const MEMBERS: [&str; 16] = [
        r#""t_secs": 1e308"#,
        r#""t_secs": -0.0"#,
        r#""t_secs": "25""#,
        r#""t_secs": 5"#,
        r#""command": "receiver_leave""#,
        r#""command": "link_degrade""#,
        r#""command": "background_burst""#,
        r#""command": 7"#,
        r#""packets": 18446744073709551615"#,
        r#""packets": 15"#,
        r#""leaf": 1.5"#,
        r#""leaf": 3"#,
        r#""session": 0"#,
        r#""link": "L2.1""#,
        r#""loss": 0.03"#,
        r#""bandwidth_pps": -5"#,
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        #[test]
        fn the_loader_never_panics_and_names_the_event_it_refuses(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..64),
            events in proptest::collection::vec(
                proptest::collection::vec(0usize..MEMBERS.len(), 0..8),
                0..6,
            ),
        ) {
            if let Ok(json) = Json::parse(&String::from_utf8_lossy(&bytes)) {
                let _ = events_from_json(&json);
            }
            let objects: Vec<String> = events
                .iter()
                .map(|members| {
                    let members: Vec<&str> = members.iter().map(|&m| MEMBERS[m]).collect();
                    format!("{{{}}}", members.join(", "))
                })
                .collect();
            let text = format!("[{}]", objects.join(", "));
            match events_from_json(&Json::parse(&text).expect("well-formed JSON")) {
                Ok(parsed) => proptest::prop_assert_eq!(parsed.len(), events.len()),
                Err(e) => {
                    let index = e
                        .strip_prefix("event ")
                        .and_then(|rest| rest.split(':').next())
                        .and_then(|i| i.parse::<usize>().ok());
                    proptest::prop_assert!(
                        index.is_some_and(|i| i < events.len()),
                        "{} -> {}", text, e
                    );
                }
            }
        }
    }

    #[test]
    fn synth_churn_is_deterministic_and_windowed() {
        let w = SimDuration::from_secs(20);
        let d = SimDuration::from_secs(120);
        let a = synth_churn(0.5, 7, w, d);
        let b = synth_churn(0.5, 7, w, d);
        assert_eq!(a, b, "same inputs must give the same schedule");
        assert_ne!(a, synth_churn(0.5, 8, w, d), "seed must matter");
        assert!(!a.is_empty(), "0.5 Hz over 100 s should produce events");
        for ev in &a {
            assert!(
                ev.at > w && ev.at < d,
                "event at {:?} outside window",
                ev.at
            );
            assert!(matches!(
                ev.command,
                EventCommand::ReceiverJoin { session: 0, .. }
                    | EventCommand::ReceiverLeave { session: 0, .. }
            ));
        }
        // Leave/join balance: a leaf never leaves twice without rejoining.
        let mut away = std::collections::BTreeSet::new();
        for ev in &a {
            match ev.command {
                EventCommand::ReceiverLeave { leaf, .. } => {
                    assert!(away.insert(leaf), "double leave of leaf {leaf}");
                }
                EventCommand::ReceiverJoin { leaf, .. } => {
                    assert!(away.remove(&leaf), "join of a present leaf {leaf}");
                }
                _ => unreachable!(),
            }
            assert!(away.len() <= 13, "too many leaves away at once");
        }
    }

    #[test]
    fn canonical_specs_build() {
        let churn = canonical_churn_spec().build();
        assert_eq!(churn.events.len(), 4);
        assert!(churn.bg_load.is_none());
        let bg = canonical_bgload_spec().build();
        assert_eq!(bg.events.len(), 1);
        assert!(bg.bg_load.is_some());
    }
}
