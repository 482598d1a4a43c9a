//! The pacing release timer, generation-tokened.
//!
//! A [`Port`]'s `set_timer` cannot cancel a pending timer, so
//! a sender re-arms by bumping a generation counter and using it as the
//! timer token: when a timer fires with a stale token it has been
//! superseded by a later re-arm and is ignored. The retransmission timer
//! of [`crate::Recovery`] keeps its generation the same way, and both
//! deliver through the same `Agent::on_timer(token)` entry point, so the
//! pacing tokens carry a high tag bit ([`PACING_TOKEN_BIT`]) that keeps
//! the two token spaces disjoint: the sender routes on the bit, then
//! validates the generation.

use netsim::agent::Port;
use netsim::time::SimTime;

/// Tag bit marking a timer token as a pacing token. Generation counters
/// are far below `2^63`, so the bit is unambiguous.
pub const PACING_TOKEN_BIT: u64 = 1 << 63;

/// A re-armable pacing timer: wakes the sender when the pacing gate
/// opens. Its tokens carry [`PACING_TOKEN_BIT`] so they cannot collide
/// with a retransmission timer sharing the agent's `on_timer`.
#[derive(Debug, Clone, Default)]
pub struct PacingTimer {
    generation: u64,
}

impl PacingTimer {
    /// A timer that has never been armed.
    pub fn new() -> Self {
        PacingTimer { generation: 0 }
    }

    /// (Re)arm the timer to fire at the absolute instant `at` (at once if
    /// it has passed), through the port's relative `set_timer`. Any
    /// previously armed firing becomes stale.
    pub fn arm_at(&mut self, port: &mut impl Port, at: SimTime) {
        self.generation += 1;
        let delay = at.saturating_since(port.now());
        port.set_timer(delay, PACING_TOKEN_BIT | self.generation);
    }

    /// Whether `token` belongs to the pacing token space at all (route on
    /// this first, then check [`PacingTimer::is_current`]).
    pub fn matches(token: u64) -> bool {
        token & PACING_TOKEN_BIT != 0
    }

    /// Whether a firing with `token` is the current arm.
    pub fn is_current(&self, token: u64) -> bool {
        token == PACING_TOKEN_BIT | self.generation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::{self, Recovery, Verdict};
    use netsim::agent::Agent;
    use netsim::engine::{Context, Engine};
    use netsim::packet::Packet;
    use std::any::Any;

    /// An agent running a retransmission and a pacing timer side by side:
    /// the token spaces must stay disjoint and each generation protocol
    /// must work through the shared `on_timer`.
    struct DualTimer {
        recovery: Recovery,
        pacer: PacingTimer,
        timeouts: u64,
        pacing_current: u64,
        pacing_stale: u64,
    }

    impl Agent for DualTimer {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            let arm = self.recovery.on_start().expect("TCP's row arms a timer");
            ctx.set_timer(arm.delay, arm.token);
            self.pacer.arm_at(ctx, SimTime::from_millis(100));
            // Supersede the pacing arm: only the second may be current.
            self.pacer.arm_at(ctx, SimTime::from_millis(150));
        }

        fn on_packet(&mut self, _packet: Packet, _ctx: &mut Context<'_>) {}

        fn on_timer(&mut self, token: u64, _ctx: &mut Context<'_>) {
            if PacingTimer::matches(token) {
                if self.pacer.is_current(token) {
                    self.pacing_current += 1;
                } else {
                    self.pacing_stale += 1;
                }
            } else if let Verdict::Timeout { .. } = self.recovery.on_timer(token, false) {
                self.timeouts += 1;
            }
        }

        fn as_any(&self) -> &dyn Any {
            self
        }

        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn pacing_and_rexmit_tokens_stay_disjoint() {
        let mut e = Engine::new(1);
        let n = e.add_node("n");
        let a = e.add_agent(
            n,
            Box::new(DualTimer {
                recovery: Recovery::new(&recovery::TCP, SimTime::ZERO),
                pacer: PacingTimer::new(),
                timeouts: 0,
                pacing_current: 0,
                pacing_stale: 0,
            }),
        );
        e.compute_routes();
        e.start_agent_at(a, SimTime::ZERO);
        // The first RTO (3 s, no sample) fires once; its re-arm (6 s)
        // does not fire before the run ends.
        e.run_until(SimTime::from_secs(5));
        let agent: &DualTimer = e.agent_as(a).unwrap();
        assert_eq!(agent.timeouts, 1, "the rexmit arm must fire current");
        assert_eq!(agent.pacing_stale, 1, "first pacing arm must be stale");
        assert_eq!(agent.pacing_current, 1, "second pacing arm is current");
    }
}
