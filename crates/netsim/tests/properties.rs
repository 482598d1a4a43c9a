//! Property-based tests of the simulator's core data structures.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use netsim::agent::{Agent, Sink};
use netsim::arena::{PacketArena, PacketHandle};
use netsim::engine::{Context, Engine};
use netsim::event::{
    boundary_key, boundary_lane, Calendar, EventKind, HeapCalendar, HORIZON_NS, SLOT_NS,
};
use netsim::id::{AgentId, ChannelId};
use netsim::packet::{Dest, Packet};
use netsim::queue::{DropTail, Enqueue, QueueConfig, QueueDiscipline, Red, RedConfig};
use netsim::stats::{Running, TimeWeighted};
use netsim::time::{SimDuration, SimTime};
use netsim::wire::Segment;

fn pkt(arena: &mut PacketArena, uid: u64) -> PacketHandle {
    arena.insert(Packet {
        uid,
        src: AgentId(0),
        dest: Dest::Agent(AgentId(1)),
        size_bytes: 1000,
        segment: Segment::Raw,
        sent_at: SimTime::ZERO,
    })
}

proptest! {
    /// Pops come out sorted by time; equal times pop in key order, which
    /// within one epoch is insertion order.
    #[test]
    fn calendar_total_order(times in proptest::collection::vec(0u64..1000, 1..200)) {
        let mut cal = Calendar::new();
        for (i, &t) in times.iter().enumerate() {
            cal.schedule(SimTime::from_nanos(t), EventKind::Timer {
                agent: AgentId(0),
                token: i as u64,
            });
        }
        let mut last: Option<(SimTime, u64)> = None;
        while let Some(e) = cal.pop() {
            let EventKind::Timer { token, .. } = e.kind else { unreachable!() };
            if let Some((lt, ltok)) = last {
                prop_assert!(e.at >= lt, "time went backwards");
                if e.at == lt {
                    prop_assert!(token > ltok, "FIFO violated at equal times");
                }
            }
            last = Some((e.at, token));
        }
    }

    /// Drop-tail conserves packets: everything offered is either inside,
    /// dequeued, or was rejected; never more resident than the limit.
    #[test]
    fn droptail_conservation(
        limit in 1usize..64,
        ops in proptest::collection::vec(any::<bool>(), 1..500),
    ) {
        let mut arena = PacketArena::new();
        let mut q = DropTail::new(limit);
        let mut rng = StdRng::seed_from_u64(0);
        let mut offered = 0u64;
        let mut accepted = 0u64;
        let mut dropped = 0u64;
        let mut dequeued = 0u64;
        for (i, &is_enqueue) in ops.iter().enumerate() {
            if is_enqueue {
                offered += 1;
                match q.enqueue(pkt(&mut arena, i as u64), SimTime::ZERO, &mut rng) {
                    Enqueue::Accepted => accepted += 1,
                    Enqueue::Dropped(h, _) => { arena.remove(h); dropped += 1; }
                }
            } else if let Some(h) = q.dequeue(SimTime::ZERO) {
                arena.remove(h);
                dequeued += 1;
            }
            prop_assert!(q.len() <= limit, "resident beyond capacity");
            prop_assert_eq!(arena.len(), q.len(), "arena population must match the queue");
        }
        prop_assert_eq!(offered, accepted + dropped);
        prop_assert_eq!(accepted, dequeued + q.len() as u64);
    }

    /// Drop-tail is FIFO: dequeue order equals accepted-enqueue order.
    #[test]
    fn droptail_fifo(count in 1usize..100, limit in 1usize..100) {
        let mut arena = PacketArena::new();
        let mut q = DropTail::new(limit);
        let mut rng = StdRng::seed_from_u64(0);
        let mut accepted = Vec::new();
        for i in 0..count {
            match q.enqueue(pkt(&mut arena, i as u64), SimTime::ZERO, &mut rng) {
                Enqueue::Accepted => accepted.push(i as u64),
                Enqueue::Dropped(h, _) => { arena.remove(h); }
            }
        }
        let mut out = Vec::new();
        while let Some(h) = q.dequeue(SimTime::ZERO) {
            out.push(arena.remove(h).uid);
        }
        prop_assert_eq!(out, accepted);
    }

    /// RED never exceeds its physical buffer and also conserves packets.
    #[test]
    fn red_conservation(
        limit in 2usize..64,
        seed in 0u64..100,
        n in 1u64..500,
    ) {
        let cfg = RedConfig { limit, ..RedConfig::paper() };
        let mut arena = PacketArena::new();
        let mut q = Red::new(cfg);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut accepted = 0u64;
        let mut dropped = 0u64;
        for i in 0..n {
            match q.enqueue(pkt(&mut arena, i), SimTime::from_nanos(i * 100_000), &mut rng) {
                Enqueue::Accepted => accepted += 1,
                Enqueue::Dropped(h, _) => { arena.remove(h); dropped += 1; }
            }
            prop_assert!(q.len() <= limit);
            if i % 3 == 0 {
                if let Some(h) = q.dequeue(SimTime::from_nanos(i * 100_000)) {
                    arena.remove(h);
                    accepted -= 1;
                }
            }
        }
        prop_assert_eq!(accepted as usize, q.len());
        prop_assert_eq!(n, accepted + dropped + (n - accepted - dropped));
    }

    /// The Running accumulator matches a direct computation.
    #[test]
    fn running_matches_naive(xs in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut r = Running::new();
        for &x in &xs {
            r.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        prop_assert!((r.mean() - mean).abs() <= 1e-6 * (1.0 + mean.abs()));
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(r.min(), min);
        prop_assert_eq!(r.max(), max);
    }

    /// A time-weighted average always lies between the signal's extremes.
    #[test]
    fn time_weighted_average_bounded(
        changes in proptest::collection::vec((1u64..1000, 0.0f64..100.0), 1..50),
    ) {
        let mut w = TimeWeighted::new(SimTime::ZERO, 50.0);
        let mut lo: f64 = 50.0;
        let mut hi: f64 = 50.0;
        let mut t = 0u64;
        for &(dt, v) in &changes {
            t += dt;
            w.set(SimTime::from_nanos(t), v);
            lo = lo.min(v);
            hi = hi.max(v);
        }
        let avg = w.average(SimTime::from_nanos(t + 1));
        prop_assert!(avg >= lo - 1e-9 && avg <= hi + 1e-9, "avg {} not in [{}, {}]", avg, lo, hi);
    }

    /// Transmission time scales linearly in size and inversely in rate.
    #[test]
    fn tx_time_scaling(size in 1u32..100_000, bps in 1_000u64..10_000_000_000) {
        let t1 = netsim::packet::tx_nanos(size, bps);
        let t2 = netsim::packet::tx_nanos(size, bps * 2);
        // Halving time when doubling rate (within rounding).
        prop_assert!(t2 <= t1 / 2 + 1);
        let d = SimDuration::from_nanos(t1);
        prop_assert!(d.as_secs_f64() > 0.0);
    }

    /// The 64-bit fast path of `tx_nanos` and its 128-bit fallback are the
    /// same function: both equal the 128-bit formula on any size and rate.
    #[test]
    fn tx_nanos_paths_agree(size in any::<u32>(), bps in 1u64..u64::MAX) {
        let wide = |bps: u64| (size as u128 * 8_000_000_000).div_ceil(bps as u128) as u64;
        prop_assert_eq!(netsim::packet::tx_nanos(size, bps), wide(bps));
        // Rates on and next to `8 * size`, where the quotient is exactly
        // one second: exact division, and the round-up on both sides of it.
        let near = 8 * (size as u64).max(1) + bps % 3 - 1;
        prop_assert_eq!(netsim::packet::tx_nanos(size, near), wide(near));
    }

    /// The timer wheel dispatches in exactly the reference heap's
    /// `(time, key)` order under interleaved schedule/pop traffic —
    /// including same-timestamp runs that straddle the wheel/overflow
    /// boundary (`tie_time` around the wheel's horizon, scheduled both
    /// before and after the cursor has advanced past other events).
    #[test]
    fn wheel_matches_heap_under_interleaving(
        times in proptest::collection::vec(0u64..4 * HORIZON_NS, 1..200),
        tie_time in HORIZON_NS / 2..2 * HORIZON_NS,
        pop_every in 1usize..8,
    ) {
        let mut wheel = Calendar::new();
        let mut heap = HeapCalendar::new();
        let schedule_both = |w: &mut Calendar, h: &mut HeapCalendar, t: u64, tok: u64| {
            let kind = EventKind::Timer { agent: AgentId(0), token: tok };
            w.schedule(SimTime::from_nanos(t), kind);
            h.schedule(SimTime::from_nanos(t), kind);
        };
        let mut tok = 0u64;
        for (i, &t) in times.iter().enumerate() {
            schedule_both(&mut wheel, &mut heap, t, tok);
            tok += 1;
            // A burst at one shared timestamp: FIFO among them must hold
            // even when some are scheduled after intervening pops.
            schedule_both(&mut wheel, &mut heap, tie_time, tok);
            tok += 1;
            if i % pop_every == 0 {
                let (a, b) = (wheel.pop(), heap.pop());
                match (a, b) {
                    (Some(a), Some(b)) => prop_assert_eq!((a.at, a.key), (b.at, b.key)),
                    (None, None) => {}
                    _ => prop_assert!(false, "wheel and heap disagree on emptiness"),
                }
            }
        }
        loop {
            match (wheel.pop(), heap.pop()) {
                (None, None) => break,
                (Some(a), Some(b)) => prop_assert_eq!((a.at, a.key), (b.at, b.key)),
                _ => prop_assert!(false, "wheel and heap disagree on event count"),
            }
        }
        prop_assert!(wheel.is_empty());
    }

    /// Chopping a run into arbitrary `run_until` deadlines — including
    /// deadlines right at the wheel's top-level rollover — must not change
    /// the trace digest: `pop_before`'s bounded refill cannot leak
    /// scheduling-order differences.
    #[test]
    fn digest_invariant_under_deadline_chunking(
        offsets in proptest::collection::vec(0u64..500_000_000, 1..20),
        raw_deadlines in proptest::collection::vec(0u64..5 * HORIZON_NS / 2, 0..6),
    ) {
        let mut deadlines = raw_deadlines;
        // Send times cluster around the top-level rollover boundaries so
        // the overflow migration path is exercised, not just the wheel.
        const ROLLOVER: u64 = HORIZON_NS;
        let fire_at: Vec<u64> = offsets
            .iter()
            .enumerate()
            .map(|(i, &off)| match i % 3 {
                0 => off,                       // near zero
                1 => ROLLOVER - 250_000_000 + off, // straddling 1st rollover
                _ => 2 * ROLLOVER - 250_000_000 + off, // straddling 2nd
            })
            .collect();
        let end = 2 * ROLLOVER + 11_000_000_000;
        deadlines.push(ROLLOVER); // always test the exact boundary
        deadlines.sort_unstable();
        let reference = run_timer_scenario(&fire_at, &[], end);
        let chunked = run_timer_scenario(&fire_at, &deadlines, end);
        prop_assert_eq!(reference, chunked, "deadline chunking changed the digest");
        prop_assert!(reference.1 > 0, "scenario produced no packet events");
    }
}

/// A time on, next to, or within a ring slot of a power-of-two boundary — a
/// ring slot's or the horizon's half the time, else any power up to 2^45 ns
/// ≈ 9.8 h, which covers every level of any wheel geometry. The boundary
/// is that far past `base`, or (`absolute`) the next multiple of the power
/// above `base`; the time is never before `base`.
fn boundary_time(base: u64, draw: u64, absolute: bool) -> u64 {
    let pow = match draw % 4 {
        0 => SLOT_NS,
        1 => HORIZON_NS,
        _ => 1 << ((draw >> 2) % 46),
    };
    let boundary = if absolute {
        (base / pow + 1) * pow
    } else {
        base + pow
    };
    let offset = match (draw >> 8) % 6 {
        near @ 0..=2 => SLOT_NS + near - 1,
        _ => (draw >> 12) % (2 * SLOT_NS),
    };
    (boundary + offset).saturating_sub(SLOT_NS).max(base)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The model test: the wheel against [`HeapCalendar`] through the whole
    /// scheduling API in arbitrary interleavings — schedules at `now` and
    /// on either side of every boundary, boundary arrivals with arbitrary
    /// (epoch, region, channel) landing just after `now` (below the cursor,
    /// out of key order), keys reserved now and filed later (below the
    /// cursor, or at the very instant being popped), epoch advances, pops,
    /// and bounded pops with deadlines on slot, level and horizon
    /// boundaries. Every pop agrees on `(at, key)` and the lengths agree
    /// after every step.
    #[test]
    fn wheel_matches_heap_model(
        ops in proptest::collection::vec((0u8..14, any::<u64>()), 1..400),
    ) {
        let mut wheel = Calendar::new();
        let mut heap = HeapCalendar::new();
        let (mut now, mut epoch) = (0u64, 0u64);
        // The key of the last pop at `now`, and the reservations not yet
        // filed: (instant, key).
        let mut now_key = 0u64;
        let mut reserved: Vec<(u64, u64)> = Vec::new();
        let kind = EventKind::Timer { agent: AgentId(0), token: 0 };
        for &(op, draw) in &ops {
            let popped = match op {
                0..=3 => {
                    let at = match op {
                        0 => SimTime::from_nanos(now),
                        1 => SimTime::from_nanos(now + draw % (4 * SLOT_NS)),
                        2 if draw % 64 == 0 => SimTime::MAX,
                        _ => SimTime::from_nanos(boundary_time(now, draw, op == 3)),
                    };
                    wheel.schedule(at, kind);
                    heap.schedule(at, kind);
                    (None, None)
                }
                4 | 5 => {
                    let after = if op == 4 { draw % SLOT_NS } else { boundary_time(0, draw, false) };
                    let at = SimTime::from_nanos(now + 1 + after);
                    let (region, channel) = ((draw >> 40) as u32 % (1 << 14), (draw >> 16) as u32 % (1 << 21));
                    // The transmission may end in a later epoch than it starts in.
                    let key = boundary_key(epoch + draw % 3, boundary_lane(region, ChannelId(channel)).unwrap());
                    wheel.schedule_keyed(at, key, kind);
                    heap.schedule_keyed(at, key, kind);
                    (None, None)
                }
                6 => {
                    epoch += 1;
                    wheel.set_epoch(epoch);
                    heap.set_epoch(epoch);
                    (None, None)
                }
                7 | 8 => {
                    let deadline = SimTime::from_nanos(boundary_time(now, draw, op == 7));
                    (wheel.pop_before(deadline), heap.pop_before(deadline))
                }
                // Reserve a completion's key for an instant at `now` (a
                // one-in-four draw), within the slot, or across a boundary.
                9 => {
                    let at = match draw % 4 {
                        0 => now,
                        1 => now + (draw >> 2) % SLOT_NS,
                        _ => boundary_time(now, draw >> 2, false),
                    };
                    let (a, b) = (wheel.reserve_key(), heap.reserve_key());
                    prop_assert_eq!(a, b);
                    reserved.push((at, a));
                    (None, None)
                }
                // File one — if the calendar has not passed its position,
                // the engine's own "already fired?" rule.
                10 if !reserved.is_empty() => {
                    let (at, key) = reserved.swap_remove(draw as usize % reserved.len());
                    if (at, key) > (now, now_key) {
                        wheel.schedule_keyed(SimTime::from_nanos(at), key, kind);
                        heap.schedule_keyed(SimTime::from_nanos(at), key, kind);
                    }
                    (None, None)
                }
                _ => (wheel.pop(), heap.pop()),
            };
            match popped {
                (Some(a), Some(b)) => {
                    prop_assert_eq!((a.at, a.key), (b.at, b.key));
                    // Stay clear of the sentinel: `now + delay` must not wrap.
                    now = a.at.as_nanos().min(u64::MAX >> 1);
                    now_key = a.key;
                }
                (None, None) => {}
                (a, b) => prop_assert!(false, "wheel popped {a:?}, the heap {b:?}"),
            }
            prop_assert_eq!(wheel.len(), heap.len());
        }
        while let (a, Some(b)) = (wheel.pop(), heap.pop()) {
            prop_assert_eq!(a.map(|a| (a.at, a.key)), Some((b.at, b.key)));
        }
        prop_assert!(wheel.is_empty(), "the wheel outlived the heap");
    }
}

/// An agent that sends one packet to `dest` at each requested instant.
struct TimerSender {
    dest: Dest,
    fire_at: Vec<u64>,
}

impl Agent for TimerSender {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for &t in &self.fire_at {
            ctx.set_timer(SimTime::from_nanos(t).saturating_since(ctx.now()), t);
        }
    }
    fn on_timer(&mut self, _token: u64, ctx: &mut Context<'_>) {
        ctx.send(self.dest, 1000, Segment::Raw);
    }
    fn on_packet(&mut self, _packet: Packet, _ctx: &mut Context<'_>) {}
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Run a two-node scenario whose sender fires at `fire_at` (ns), stepping
/// the engine through `deadlines` before finishing at `end`. Returns the
/// `(digest, event count)` pair.
fn run_timer_scenario(fire_at: &[u64], deadlines: &[u64], end: u64) -> (u64, u64) {
    let mut e = Engine::new(1);
    let a = e.add_node("a");
    let b = e.add_node("b");
    e.add_link(
        a,
        b,
        8_000_000,
        SimDuration::from_millis(10),
        &QueueConfig::DropTail { limit: 4 },
    );
    let sink = e.add_agent(b, Box::new(Sink::default()));
    let sender = e.add_agent(
        a,
        Box::new(TimerSender {
            dest: Dest::Agent(sink),
            fire_at: fire_at.to_vec(),
        }),
    );
    e.compute_routes();
    e.start_agent_at(sender, SimTime::ZERO);
    for &d in deadlines {
        e.run_until(SimTime::from_nanos(d.min(end)));
    }
    e.run_until(SimTime::from_nanos(end));
    (e.trace_digest().value(), e.trace_digest().events())
}
