//! The event calendar: a sliding ring of slots with a binary-heap
//! overflow.
//!
//! The calendar dispatches events in strict `(time, key)` order; the key
//! is one packed word, and which kind of event carries which key is the
//! whole ordering contract:
//!
//! | event                                   | key                                                     |
//! |-----------------------------------------|---------------------------------------------------------|
//! | timer, start, agent injection           | `(epoch, 0, seq)` — [`Calendar::schedule`]              |
//! | transmission completion                 | `(epoch, 0, seq)` reserved when transmission *starts*   |
//! | arrival after an intra-region hop       | `(epoch, 0, seq)` reserved at the same *start*, next    |
//! | arrival after a cross-region link hop   | `(epoch of the transmission's end, 1, region, channel)` |
//!
//! `seq` is a monotone schedule counter, so same-instant local events fire
//! in insertion (FIFO) order, exactly the classic behaviour. A
//! transmission completion takes its `seq` from that counter when the
//! transmission starts ([`Calendar::reserve_key`]) but is filed
//! ([`Calendar::schedule_keyed`]) only once a packet is waiting behind it —
//! possibly epochs later, possibly never; when it is filed it pops exactly
//! where a `schedule` at the start would have put it, and every other local
//! key of the run is the same either way. Every hop's arrival is filed when
//! its transmission starts, the instant it will fire being known then.
//!
//! A cross-region arrival's key is a pure function of the message
//! ([`boundary_key`]): it places the arrival, at its instant, after every
//! event scheduled up to the closing barrier of the epoch in which the
//! transmission ends and before everything scheduled later — precisely the
//! position a barrier-batched *(arrival time, source region, channel)*
//! flush of that epoch would have given it, although the arrival is filed
//! when the transmission *starts*, with no buffering or sorting at any
//! barrier. A channel serves one packet at a time and service takes at
//! least a nanosecond, so two arrivals off one channel never share an
//! instant and the channel id is as good as a send counter. Because the key
//! is a total order independent of insertion sequence, dispatch order does
//! not depend on when the arrival is filed (see `DESIGN.md` §9).
//!
//! # Layout
//!
//! *The ring* is 4096 slots of 2^16 ns — 65.5 µs, 3–8 events on average at
//! the tree's rates — indexed `(t >> 16) % 4096` and valid for the 2^28 ns
//! (268 ms) ahead of the cursor `cur`'s slot: a sliding window, so every
//! service time and every hop, the 100 ms one included, is filed straight
//! into its slot, once. Only timers reach past it; they wait in a binary
//! heap under the same `(time, key)` order — 0.01–3.6 % of schedules over
//! the ten fig-7/9 runs (60 s, seed 4), the most in cases 2 and 3. A slot
//! is a chain of nodes in one slab, not a buffer of its own, so memory
//! follows the peak pending count rather than the slot count; one `u64`
//! summarises which of the 64 occupancy words is non-zero.
//!
//! # Dispatch
//!
//! `cur` splits time: every pending event at `t < cur` sits sorted in the
//! flat `ready` buffer, served by a head index; the rest are in a slot that
//! starts at or after `cur`, or in the overflow. Refilling `ready` drains
//! the occupied slot that starts first into it, sorting if it held more
//! than one event. The overflow migrates into the ring when its head
//! precedes every occupied slot, and heads inside the slot being drained
//! are swept into the same drain. Events scheduled below `cur` (an agent
//! scheduling at `now`, a boundary arrival landing inside a drained slot)
//! are merge-inserted into `ready` at their `(time, key)` position. The
//! order is [`HeapCalendar`]'s throughout — the model test and the digest
//! goldens pin exactly that.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::arena::PacketHandle;
use crate::id::{AgentId, ChannelId, NodeId};
use crate::time::SimTime;

/// What happens when an event fires.
#[derive(Debug, Clone, Copy)]
pub enum EventKind {
    /// A channel finished serializing the packet it was transmitting; what
    /// was in service is recorded on the channel
    /// ([`InService`](crate::link::InService)).
    TxComplete {
        /// The transmitting channel.
        channel: ChannelId,
    },
    /// A packet arrives at a node (after propagation, or injected locally
    /// by an agent on that node).
    Arrive {
        /// The node the packet arrives at.
        node: NodeId,
        /// The arriving packet.
        packet: PacketHandle,
    },
    /// An agent timer expires.
    Timer {
        /// The agent whose timer fires.
        agent: AgentId,
        /// Opaque token the agent registered; stale timers are the agent's
        /// responsibility to ignore.
        token: u64,
    },
    /// An agent's `on_start` hook.
    Start {
        /// The agent to start.
        agent: AgentId,
    },
}

/// Bit layout of the packed `u64` tie-break key. The epoch occupies the
/// high 28 bits, the phase bit sits at 35, and the low 35 bits are
/// phase-specific — a per-epoch schedule counter for locals, a
/// *(region, channel)* pair for boundary arrivals. Cross-phase
/// comparisons resolve on the shared `(epoch, phase)` prefix, so the low
/// layouts never meet. Keeping the key in one word keeps [`Event`] at its
/// pre-partitioning 32 bytes — the ring's slot sorts and copies are on
/// the engine's hottest path.
const KEY_EPOCH_SHIFT: u32 = 36;
/// Epochs the key's high bits can tell apart.
pub(crate) const MAX_EPOCHS: u64 = 1 << (64 - KEY_EPOCH_SHIFT);
/// Phase bit: 0 = locally scheduled, 1 = boundary arrival of that epoch.
const KEY_PHASE_BIT: u64 = 1 << 35;
/// Bits for the boundary key's channel id.
const KEY_CHANNEL_BITS: u32 = 21;
/// Regions a boundary key can tell apart.
pub const MAX_REGIONS: usize = (KEY_PHASE_BIT >> KEY_CHANNEL_BITS) as usize;
/// Channels a boundary key can tell apart.
pub const MAX_CHANNELS: usize = 1 << KEY_CHANNEL_BITS;

/// Same-instant tie-break key for a locally scheduled event: epoch, phase
/// bit 0, then the calendar's schedule counter *within that epoch*.
/// Within one epoch this is pure insertion (FIFO) order; the counter may
/// reset across epochs because the epoch bits already separate them.
pub fn local_key(epoch: u64, seq: u64) -> u64 {
    debug_assert!(epoch < MAX_EPOCHS, "epoch overflows the key");
    assert!(
        seq < KEY_PHASE_BIT,
        "calendar key overflow: 2^35 events scheduled within one θ-grid epoch \
         (or one unpartitioned run)"
    );
    (epoch << KEY_EPOCH_SHIFT) | seq
}

/// The static low half of a cross-region channel's arrival keys: phase
/// bit 1, the source region, the channel id. Computed once per channel
/// when the topology is built, which is where a topology too wide for the
/// key is refused.
pub fn boundary_lane(region: u32, channel: ChannelId) -> Result<u64, String> {
    if region as usize >= MAX_REGIONS {
        return Err(format!(
            "region {region} does not fit the calendar key: a partitioned topology \
             holds at most {MAX_REGIONS} regions"
        ));
    }
    if channel.index() >= MAX_CHANNELS {
        return Err(format!(
            "channel {} does not fit the calendar key: a partitioned topology \
             holds at most {MAX_CHANNELS} channels",
            channel.index()
        ));
    }
    Ok(KEY_PHASE_BIT | ((region as u64) << KEY_CHANNEL_BITS) | channel.index() as u64)
}

/// Same-instant tie-break key for a cross-region arrival: the epoch in
/// which its transmission ends, then the channel's [`boundary_lane`] —
/// after every local event of that epoch, before everything later, and
/// among that epoch's arrivals by *(source region, channel)*. A pure
/// function of the message — independent of when it is filed.
#[inline]
pub fn boundary_key(epoch: u64, lane: u64) -> u64 {
    debug_assert!(epoch < MAX_EPOCHS, "epoch overflows the key");
    debug_assert!(lane & KEY_PHASE_BIT != 0 && lane < 2 * KEY_PHASE_BIT);
    (epoch << KEY_EPOCH_SHIFT) | lane
}

/// A scheduled event.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// When the event fires.
    pub at: SimTime,
    /// Total-order tie-break within the same instant: [`local_key`] for
    /// ordinary schedules, [`boundary_key`] for cross-region arrivals.
    pub key: u64,
    /// The action.
    pub kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.key == other.key
    }
}
impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, key) pops
        // first.
        (other.at, other.key).cmp(&(self.at, self.key))
    }
}

/// log2 of the ring's slot width in ns, and of its slot count.
const SLOT_BITS: u32 = 16;
const RING_BITS: u32 = 12;
/// Slots in the ring, and the occupancy words they take: one bit each of
/// the `u64` summary.
const RING: usize = 1 << RING_BITS;
const WORDS: usize = RING / 64;
const _: () = assert!(WORDS == 64);
/// Width of a ring slot, in ns: pops are sorted one such slot at a time.
pub const SLOT_NS: u64 = 1 << SLOT_BITS;
/// Width of the ring's window, in ns: an event this far past the cursor's
/// slot or further waits in the overflow heap.
pub const HORIZON_NS: u64 = SLOT_NS << RING_BITS;
/// End of a slot's chain, and of the free chain.
const NIL: u32 = u32::MAX;

/// A filed event and the next node of its slot's chain.
#[derive(Debug, Clone, Copy)]
struct Node {
    event: Event,
    next: u32,
}

/// The future event list: a sliding ring of slots + overflow heap.
#[derive(Debug)]
pub struct Calendar {
    /// One node per filed event, reused through the `free` chain.
    nodes: Vec<Node>,
    free: u32,
    /// Head of each ring slot's chain.
    heads: [u32; RING],
    /// One occupancy bit per slot, same index.
    occupied: [u64; WORDS],
    /// Bit `w` is set iff `occupied[w] != 0`.
    occupied_words: u64,
    /// Events past the ring's window, min-ordered by `(time, key)`.
    overflow: BinaryHeap<Event>,
    /// `ready[head..]`: the events already extracted, in `(time, key)` order.
    ready: Vec<Event>,
    head: usize,
    /// The drain cursor, in ns: a multiple of `SLOT_NS`, never past the start
    /// of an occupied slot. Every pending event below it is in `ready`.
    cur: u64,
    /// Schedule counter within the current epoch (low bits of local
    /// keys); resets when the epoch advances — the epoch bits already
    /// separate the instants' tie groups across epochs.
    next_seq: u64,
    /// The θ-grid epoch currently being executed (high bits of every
    /// locally scheduled event's key). Zero for an unpartitioned run; the
    /// engine's run loop advances it at each grid barrier.
    epoch: u64,
    len: usize,
    /// Ring links so far: filings, direct or on leaving the overflow.
    #[cfg(test)]
    links: u64,
}

impl Default for Calendar {
    fn default() -> Self {
        Calendar {
            nodes: Vec::new(),
            free: NIL,
            heads: [NIL; RING],
            occupied: [0; WORDS],
            occupied_words: 0,
            overflow: BinaryHeap::new(),
            ready: Vec::new(),
            head: 0,
            cur: 0,
            next_seq: 0,
            epoch: 0,
            len: 0,
            #[cfg(test)]
            links: 0,
        }
    }
}

impl Calendar {
    /// An empty calendar.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the θ-grid epoch stamped onto subsequently scheduled events'
    /// keys, resetting the per-epoch schedule counter when it actually
    /// advances (a `run_until` stopping mid-epoch re-enters the same
    /// epoch; its counter must continue, not restart). An unpartitioned
    /// run never calls this: its keys are the bare schedule counter.
    pub fn set_epoch(&mut self, epoch: u64) {
        debug_assert!(epoch >= self.epoch, "epoch ran backwards");
        assert!(
            epoch < MAX_EPOCHS,
            "calendar key overflow: more than 2^28 θ-grid epochs \
             (simulated duration / lookahead is too large)"
        );
        if epoch != self.epoch {
            self.epoch = epoch;
            self.next_seq = 0;
        }
    }

    /// The θ-grid epoch currently stamped onto scheduled events' keys.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Schedule `kind` to fire at `at`, tie-broken by insertion order
    /// within the current epoch.
    pub fn schedule(&mut self, at: SimTime, kind: EventKind) {
        let key = self.reserve_key();
        self.insert(Event { at, key, kind });
    }

    /// Take the key [`schedule`](Self::schedule) would assign right now
    /// without filing anything. An event later filed under it with
    /// [`schedule_keyed`](Self::schedule_keyed) pops exactly where a
    /// `schedule` at this point would have put it, and every key assigned
    /// afterwards is the same whether or not that ever happens.
    pub fn reserve_key(&mut self) -> u64 {
        let key = local_key(self.epoch, self.next_seq);
        self.next_seq += 1;
        key
    }

    /// File `kind` at `at` under an explicit key: a reserved local key, or
    /// a cross-region arrival's [`boundary_key`]. The key alone fixes the
    /// same-instant dispatch position, whatever the insertion sequence;
    /// `(at, key)` must not precede an event already popped.
    pub fn schedule_keyed(&mut self, at: SimTime, key: u64, kind: EventKind) {
        self.insert(Event { at, key, kind });
    }

    fn insert(&mut self, e: Event) {
        self.len += 1;
        if e.at.as_nanos() < self.cur {
            // The slot covering `at` is already drained: merge into `ready`
            // where the heap would have popped it — by the full key, since
            // a boundary arrival's can precede same-instant events in there.
            let pos = self.ready[self.head..].partition_point(|x| (x.at, x.key) <= (e.at, e.key));
            self.ready.insert(self.head + pos, e);
        } else {
            self.file(e);
        }
    }

    /// File an event at `t >= cur` in its ring slot while `t` is within
    /// `RING` slots of the cursor's, else in the overflow.
    fn file(&mut self, event: Event) {
        let slot = event.at.as_nanos() >> SLOT_BITS;
        debug_assert!(slot >= self.cur >> SLOT_BITS, "filing below the cursor");
        if slot - (self.cur >> SLOT_BITS) >= RING as u64 {
            return self.overflow.push(event);
        }
        let idx = slot as usize % RING;
        let mut n = self.free;
        if n == NIL {
            assert!(self.nodes.len() < NIL as usize, "2^32 pending events");
            n = self.nodes.len() as u32;
            self.nodes.push(Node { event, next: NIL });
        } else {
            self.free = self.nodes[n as usize].next;
            self.nodes[n as usize].event = event;
        }
        #[cfg(test)]
        {
            self.links += 1;
        }
        self.nodes[n as usize].next = self.heads[idx];
        self.heads[idx] = n;
        self.occupied[idx / 64] |= 1 << (idx % 64);
        self.occupied_words |= 1 << (idx / 64);
    }

    /// Pop the overflow's head if it fires at or before `last`.
    fn overflow_through(&mut self, last: u64) -> Option<Event> {
        let due = self.overflow.peek()?.at.as_nanos() <= last;
        due.then(|| self.overflow.pop()).flatten()
    }

    /// The ring slot to drain next, `(index, start in ns)`: the occupied
    /// slot that starts first. No occupied slot starts before the cursor,
    /// so the ring is searched one lap from the cursor's slot.
    fn earliest_slot(&self) -> Option<(usize, u64)> {
        let c = (self.cur >> SLOT_BITS) as usize % RING;
        let here = self.occupied[c / 64] >> (c % 64);
        let idx = if here != 0 {
            c + here.trailing_zeros() as usize
        } else {
            // The words in lap order after the cursor's; the last is the
            // cursor's own again, where only bits below `c` remain.
            let lap = self.occupied_words.rotate_right(c as u32 / 64 + 1);
            if lap == 0 {
                return None;
            }
            let w = (c / 64 + 1 + lap.trailing_zeros() as usize) % WORDS;
            w * 64 + self.occupied[w].trailing_zeros() as usize
        };
        let ahead = (idx.wrapping_sub(c) % RING) as u64;
        Some((idx, ((self.cur >> SLOT_BITS) + ahead) << SLOT_BITS))
    }

    /// Move events into `ready` until it can serve the next event, without
    /// committing the cursor past `deadline`'s slot. Returns `false` when
    /// nothing is pending at or before `deadline`.
    fn refill(&mut self, deadline: SimTime) -> bool {
        loop {
            if let Some(front) = self.ready.get(self.head) {
                return front.at <= deadline;
            }
            let best = self.earliest_slot();
            // Migrate the overflow when its head precedes (or ties) every
            // occupied slot — it may belong in that slot: jump the cursor to
            // the head's slot (no ring event lies below it) and file
            // everything now within the ring's window.
            if let Some(head) = self.overflow.peek() {
                let t = head.at.as_nanos();
                if best.is_none_or(|(_, start)| t <= start) {
                    if head.at > deadline {
                        return false;
                    }
                    self.cur = self.cur.max(t & !(SLOT_NS - 1));
                    while let Some(e) =
                        self.overflow_through(self.cur.saturating_add(HORIZON_NS - 1))
                    {
                        self.file(e);
                    }
                    continue;
                }
            }
            let Some((idx, start)) = best.filter(|&(_, s)| SimTime::from_nanos(s) <= deadline)
            else {
                return false; // nothing pending, or not by the deadline: don't commit
            };
            debug_assert!(start >= self.cur & !(SLOT_NS - 1), "slot behind the cursor");
            self.occupied[idx / 64] &= !(1 << (idx % 64));
            if self.occupied[idx / 64] == 0 {
                self.occupied_words &= !(1 << (idx / 64));
            }
            // Drain: the slot is wholly behind the new cursor (saturating
            // only at `SimTime::MAX`); its chain goes onto the free one.
            let first = std::mem::replace(&mut self.heads[idx], NIL);
            let mut n = first;
            self.cur = start.saturating_add(SLOT_NS);
            self.ready.clear();
            self.head = 0;
            loop {
                let node = &mut self.nodes[n as usize];
                self.ready.push(node.event);
                if node.next == NIL {
                    node.next = std::mem::replace(&mut self.free, first);
                    break;
                }
                n = node.next;
            }
            // Sweep overflow events strictly *inside* this slot's window
            // into the same drain: the migration check only catches a head
            // at or before the slot's *start*, and one left behind would be
            // stranded below the cursor.
            while let Some(e) = self.overflow_through(self.cur - 1) {
                self.ready.push(e);
            }
            if self.ready.len() > 1 {
                self.ready.sort_unstable_by_key(|e| (e.at, e.key));
            }
        }
    }

    /// Remove and return the next event if it fires at or before
    /// `deadline`, in `(time, key)` order.
    pub fn pop_before(&mut self, deadline: SimTime) -> Option<Event> {
        self.refill(deadline).then(|| {
            self.len -= 1;
            self.head += 1;
            self.ready[self.head - 1]
        })
    }

    /// Remove and return the next event in `(time, key)` order.
    pub fn pop(&mut self) -> Option<Event> {
        self.pop_before(SimTime::MAX)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The previous binary-heap calendar, kept as the *reference model*:
/// the same `(time, key)` order by construction, with none of the ring's
/// geometry. Property tests drive both through the whole scheduling API
/// and require identical pops; the benchmark prices the ring against it.
#[derive(Debug, Default)]
pub struct HeapCalendar {
    heap: BinaryHeap<Event>,
    next_seq: u64,
    epoch: u64,
}

impl HeapCalendar {
    /// An empty calendar.
    pub fn new() -> Self {
        Self::default()
    }

    /// See [`Calendar::set_epoch`].
    pub fn set_epoch(&mut self, epoch: u64) {
        if epoch != self.epoch {
            self.epoch = epoch;
            self.next_seq = 0;
        }
    }

    /// Schedule `kind` to fire at `at`.
    pub fn schedule(&mut self, at: SimTime, kind: EventKind) {
        let key = self.reserve_key();
        self.heap.push(Event { at, key, kind });
    }

    /// See [`Calendar::reserve_key`].
    pub fn reserve_key(&mut self) -> u64 {
        let key = local_key(self.epoch, self.next_seq);
        self.next_seq += 1;
        key
    }

    /// See [`Calendar::schedule_keyed`].
    pub fn schedule_keyed(&mut self, at: SimTime, key: u64, kind: EventKind) {
        self.heap.push(Event { at, key, kind });
    }

    /// Remove and return the next event in `(time, key)` order.
    pub fn pop(&mut self) -> Option<Event> {
        self.heap.pop()
    }

    /// Remove and return the next event if it fires at or before
    /// `deadline` (API parity with [`Calendar`]).
    pub fn pop_before(&mut self, deadline: SimTime) -> Option<Event> {
        let due = self.heap.peek()?.at <= deadline;
        due.then(|| self.heap.pop()).flatten()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer(agent: u32, token: u64) -> EventKind {
        EventKind::Timer {
            agent: AgentId(agent),
            token,
        }
    }

    fn token_of(e: &Event) -> u64 {
        match e.kind {
            EventKind::Timer { token, .. } => token,
            _ => unreachable!(),
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_secs(3), timer(0, 3));
        cal.schedule(SimTime::from_secs(1), timer(0, 1));
        cal.schedule(SimTime::from_secs(2), timer(0, 2));
        let order: Vec<u64> = std::iter::from_fn(|| cal.pop())
            .map(|e| token_of(&e))
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn same_time_is_fifo() {
        let mut cal = Calendar::new();
        let t = SimTime::from_secs(1);
        for token in 0..100 {
            cal.schedule(t, timer(0, token));
        }
        let order: Vec<u64> = std::iter::from_fn(|| cal.pop())
            .map(|e| token_of(&e))
            .collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn len_tracks_schedule_and_pop() {
        let mut cal = Calendar::new();
        assert!(cal.is_empty());
        cal.schedule(SimTime::from_secs(5), timer(0, 0));
        assert_eq!(cal.len(), 1);
        let e = cal.pop().unwrap();
        assert_eq!(e.at, SimTime::from_secs(5));
        assert!(cal.pop().is_none());
    }

    #[test]
    fn matches_heap_reference_on_mixed_schedule() {
        // Times spanning the ring and the overflow, with repeats.
        let times: Vec<u64> = (0..500)
            .map(|i: u64| (i.wrapping_mul(0x9e37_79b9_7f4a_7c15)) % (1 << 38))
            .chain((0..50).map(|i| i % 7)) // clustered near zero
            .chain(std::iter::repeat_n(123_456_789, 20)) // heavy tie
            .collect();
        let mut wheel = Calendar::new();
        let mut heap = HeapCalendar::new();
        for (i, &t) in times.iter().enumerate() {
            wheel.schedule(SimTime::from_nanos(t), timer(0, i as u64));
            heap.schedule(SimTime::from_nanos(t), timer(0, i as u64));
        }
        loop {
            let (a, b) = (wheel.pop(), heap.pop());
            match (a, b) {
                (None, None) => break,
                (Some(a), Some(b)) => {
                    assert_eq!((a.at, a.key), (b.at, b.key));
                }
                _ => panic!("wheel and heap disagree on event count"),
            }
        }
    }

    #[test]
    fn interleaved_schedule_and_pop_preserves_order() {
        // Schedule while draining, including events at the exact time of
        // the event just popped (the "agent schedules at now" pattern).
        let mut cal = Calendar::new();
        for i in 0..10u64 {
            cal.schedule(SimTime::from_nanos(i * 100), timer(0, i));
        }
        let mut seen = Vec::new();
        let mut extra = 100u64;
        while let Some(e) = cal.pop() {
            seen.push((e.at, e.key));
            if extra < 105 {
                // At `now` — lands below the cursor, merged into ready.
                cal.schedule(e.at, timer(0, extra));
                // Slightly later.
                cal.schedule(
                    e.at + crate::time::SimDuration::from_nanos(37),
                    timer(0, extra + 50),
                );
                extra += 1;
            }
        }
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        assert_eq!(seen, sorted, "dispatch order must be (time, key)");
        assert_eq!(seen.len(), 20);
    }

    /// File a boundary arrival the way the engine does: under the key of
    /// `(epoch, region, channel)`.
    fn arrive(cal: &mut Calendar, at: SimTime, epoch: u64, region: u32, channel: u32, token: u64) {
        let lane = boundary_lane(region, ChannelId(channel)).unwrap();
        cal.schedule_keyed(at, boundary_key(epoch, lane), timer(0, token));
    }

    #[test]
    fn boundary_keys_order_by_epoch_phase_region_and_channel() {
        // Locals of epoch k < boundary arrivals of epoch k (ordered by
        // (region, channel) regardless of insertion sequence) < locals of
        // epoch k+1 — all at the same instant.
        let t = SimTime::from_nanos(5_000);
        let mut cal = Calendar::new();
        cal.set_epoch(1);
        cal.schedule(t, timer(0, 10));
        // An arrival whose transmission ends an epoch later, filed first of
        // all: the key carries the later epoch.
        arrive(&mut cal, t, 2, 0, 0, 40);
        cal.schedule(t, timer(0, 11));
        // Epoch-1 arrivals inserted out of canonical order.
        arrive(&mut cal, t, 1, 7, 0, 22);
        arrive(&mut cal, t, 1, 3, 9, 21);
        arrive(&mut cal, t, 1, 3, 4, 20);
        cal.set_epoch(2);
        cal.schedule(t, timer(0, 30)); // epoch-2 local
        let order: Vec<u64> = std::iter::from_fn(|| cal.pop())
            .map(|e| token_of(&e))
            .collect();
        assert_eq!(order, vec![10, 11, 20, 21, 22, 30, 40]);
    }

    #[test]
    fn boundary_arrival_below_the_cursor_merges_at_its_key_position() {
        // Draining a slot can advance the cursor past an arrival's
        // instant; the merge into `ready` must honour the full key, not
        // just the time — a second arrival from a lower region lands
        // *before* the first even though it is inserted later.
        let mut cal = Calendar::new();
        cal.set_epoch(1);
        cal.schedule(SimTime::from_nanos(10_000), timer(0, 1));
        cal.schedule(SimTime::from_nanos(10_050), timer(0, 2));
        // Both share a ring slot: popping the first drains the second
        // into `ready` and commits the cursor past 10_050.
        assert_eq!(token_of(&cal.pop().unwrap()), 1);
        arrive(&mut cal, SimTime::from_nanos(10_050), 1, 5, 0, 4);
        arrive(&mut cal, SimTime::from_nanos(10_050), 1, 2, 0, 3);
        let order: Vec<u64> = std::iter::from_fn(|| cal.pop())
            .map(|e| token_of(&e))
            .collect();
        assert_eq!(order, vec![2, 3, 4]);
    }

    #[test]
    fn a_reserved_key_pops_where_schedule_would_have_put_it() {
        // Reserve between two schedules at one instant, file after both —
        // and after the cursor has passed the instant: the late filing
        // still pops second.
        let t = SimTime::from_nanos(10_050);
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_nanos(10_000), timer(0, 0));
        cal.schedule(t, timer(0, 1));
        let key = cal.reserve_key();
        cal.schedule(t, timer(0, 3));
        assert_eq!(token_of(&cal.pop().unwrap()), 0);
        assert_eq!(token_of(&cal.pop().unwrap()), 1);
        cal.schedule_keyed(t, key, timer(0, 2));
        assert_eq!(cal.len(), 2);
        assert_eq!(token_of(&cal.pop().unwrap()), 2);
        assert_eq!(token_of(&cal.pop().unwrap()), 3);
    }

    #[test]
    fn a_topology_too_wide_for_the_key_is_refused_with_the_limit() {
        assert!(boundary_lane(MAX_REGIONS as u32 - 1, ChannelId(MAX_CHANNELS as u32 - 1)).is_ok());
        let e = boundary_lane(MAX_REGIONS as u32, ChannelId(0)).unwrap_err();
        assert!(
            e.contains("region 16384") && e.contains("at most 16384 regions"),
            "{e}"
        );
        let e = boundary_lane(0, ChannelId(MAX_CHANNELS as u32)).unwrap_err();
        assert!(
            e.contains("channel 2097152") && e.contains("at most 2097152 channels"),
            "{e}"
        );
    }

    #[test]
    fn far_future_sentinel_stays_in_overflow() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::MAX, timer(0, 99));
        cal.schedule(SimTime::from_nanos(5), timer(0, 1));
        // A bounded pop must not chase the sentinel.
        let e = cal.pop_before(SimTime::from_secs(1)).unwrap();
        assert_eq!(token_of(&e), 1);
        assert!(cal.pop_before(SimTime::from_secs(1)).is_none());
        // Scheduling after the bounded pop still dispatches in order.
        cal.schedule(SimTime::from_nanos(7), timer(0, 2));
        assert_eq!(token_of(&cal.pop_before(SimTime::from_secs(1)).unwrap()), 2);
        assert_eq!(cal.len(), 1);
        // The sentinel is still reachable with an unbounded pop.
        assert_eq!(token_of(&cal.pop().unwrap()), 99);
        assert!(cal.is_empty());
    }

    #[test]
    fn overflow_head_inside_a_draining_slot_is_swept_into_it() {
        // Regression: an overflow event strictly *inside* the earliest
        // ring slot's window (`slot_start < t < slot_start + SLOT_NS`)
        // used to sit out that slot's drain — the migration check only
        // compares against the slot *start* — leaving it stranded below
        // the cursor and misfiled on the next migration.
        let top = HORIZON_NS;
        let mut cal = Calendar::new();
        // Beyond the horizon from t=0: lives in the overflow heap.
        cal.schedule(SimTime::from_nanos(2 * top + 500), timer(0, 4));
        // Stepping stones that walk the cursor up to exactly `2 * top`
        // without a migration window ever covering the overflow event.
        cal.schedule(SimTime::from_nanos(top + 2048), timer(0, 1));
        assert_eq!(token_of(&cal.pop().unwrap()), 1);
        cal.schedule(SimTime::from_nanos(2 * top - 1000), timer(0, 2));
        assert_eq!(token_of(&cal.pop().unwrap()), 2); // cur lands on 2*top

        // Same ring slot as the overflow event, 100ns earlier: its drain
        // commits the cursor past the overflow head.
        cal.schedule(SimTime::from_nanos(2 * top + 400), timer(0, 3));
        assert_eq!(token_of(&cal.pop().unwrap()), 3);
        assert_eq!(token_of(&cal.pop().unwrap()), 4); // swept, in order
        assert!(cal.is_empty());
    }

    #[test]
    fn tree_delay_mix_is_linked_at_most_once() {
        // The benchmark's calendar rung — pop at `t`, schedule at `t + d`,
        // 512 pending — on the tree's delays. Each event is linked into
        // the ring at most once, directly or on leaving the overflow, and
        // only a schedule past `HORIZON_NS` reaches the heap.
        let mut cal = Calendar::new();
        for i in 0..512 {
            cal.schedule(SimTime::from_nanos(i * 195_313), timer(0, i));
        }
        let (events, linked) = (200_000, cal.links);
        let (mut spilled, mut x) = (0, 0x9e37_79b9_7f4a_7c15u64);
        for i in 0..events {
            let now = cal.pop().unwrap().at.as_nanos();
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let delay = match x % 100 {
                0..=24 => 357_143,    // 1000 bytes at 2800 pkt/s
                25..=44 => 80_000,    // 1000 bytes at 100 Mb/s
                45..=49 => 3_200,     // a 40-byte ack at 100 Mb/s
                50..=79 => 5_000_000, // the 5 ms hop
                80..=91 => 100_000_000,
                92..=96 => 0,                                 // same-instant follow-up
                _ => 200_000_000 + (x >> 8) % 29_800_000_000, // timers, 0.2–30 s
            };
            let before = cal.overflow.len();
            cal.schedule(SimTime::from_nanos(now + delay), timer(0, i));
            if cal.overflow.len() > before {
                assert!(
                    delay >= HORIZON_NS,
                    "a {delay} ns schedule reached the heap"
                );
                spilled += 1;
            }
        }
        assert!(spilled > 0, "no timer went past the ring");
        let links = cal.links - linked;
        assert!(links <= events, "{links} ring links for {events} events");
    }

    #[test]
    fn pop_before_respects_deadline_exactly() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_nanos(1000), timer(0, 1));
        assert!(cal.pop_before(SimTime::from_nanos(999)).is_none());
        assert!(cal.pop_before(SimTime::from_nanos(1000)).is_some());
    }
}
