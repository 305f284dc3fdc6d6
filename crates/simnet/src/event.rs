//! The event queue driving the discrete-event loop.
//!
//! Scheduling order is the total order on `(at, seq)`: time first, then the
//! tie-break key. Storage is a hierarchical timing wheel
//! ([`crate::wheel::TimerWheel`]), whose unit tests hold it to the
//! pre-wheel binary heap on random and workload-shaped schedules.
//!
//! The wheel orders 8-byte handles ([`TimerId`]); payloads live in a slab
//! beside it. A handle names a slab slot and the slot's generation when
//! it was filled. Popping or cancelling an event empties its slot and
//! bumps the generation, so a cancelled event costs nothing after the
//! cancel: its payload is gone at once, and its dead handle is dropped
//! unseen when it reaches the front of the wheel.

use crate::link::ArrivalId;
use crate::node::{NodeId, TimerToken};
use crate::rng::mix64;
use crate::time::SimTime;
use crate::trace::SpanCtx;
use crate::wheel::TimerWheel;

/// What happens when an event fires.
///
/// Every event carries the span context active when it was scheduled, so
/// trace causality survives message hops and timer re-arms. The context is
/// `None` whenever tracing is disabled (the default).
#[derive(Debug)]
pub(crate) enum EventKind<M> {
    /// Deliver `msg` to node `to`. The sender is read off `arrival`, the
    /// link reservation the message arrives under, when it is released.
    Deliver {
        to: NodeId,
        arrival: ArrivalId,
        msg: M,
        span: Option<SpanCtx>,
    },
    /// Fire a timer on `node`.
    Timer {
        node: NodeId,
        token: TimerToken,
        span: Option<SpanCtx>,
    },
}

/// One slab slot: a queued event, or `None` while the slot is free.
#[derive(Debug)]
struct Slot<M> {
    /// Bumped whenever the payload leaves (popped or cancelled), so every
    /// handle minted for an earlier occupant is dead. It wraps after 2^32
    /// reuses of one slot; a dead handle would have to stay queued across
    /// all of them to be mistaken for a live one.
    generation: u32,
    payload: Option<EventKind<M>>,
}

/// In-memory footprint of one scheduled event carrying an `M`-typed
/// message: what every slot of the event slab pays (a wheel entry is a
/// fixed 24 bytes, whatever `M` is). Message crates pin this with a
/// `const` assertion so an accidentally fattened message enum fails to
/// compile instead of silently halving the slab's cache density.
pub const fn event_footprint<M>() -> usize {
    std::mem::size_of::<Slot<M>>()
}

/// Names one scheduled event: what the wheel orders, and what
/// [`Context::schedule`](crate::Context::schedule) returns for
/// [`Context::cancel`](crate::Context::cancel). A slab slot index (low 32
/// bits) and the slot's generation when the event was queued (high 32
/// bits).
///
/// An id outlives its event harmlessly: once the event has fired or been
/// cancelled, cancelling it again is a no-op, even after its slab slot has
/// been reused by a later event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerId(u64);

impl TimerId {
    fn new(index: u32, generation: u32) -> Self {
        TimerId(u64::from(generation) << 32 | u64::from(index))
    }

    fn index(self) -> usize {
        (self.0 & 0xFFFF_FFFF) as usize
    }

    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// Earliest-first queue of scheduled events.
#[derive(Debug)]
pub(crate) struct EventQueue<M> {
    /// Ids of live and cancelled events, ordered by `(at, seq)`.
    wheel: TimerWheel<TimerId>,
    /// Payloads, indexed by [`TimerId::index`].
    slots: Vec<Slot<M>>,
    /// Indices of the empty `slots`, reused last-freed first.
    free: Vec<u32>,
    next_seq: u64,
    /// Schedule-perturbation key (see
    /// [`World::set_tie_perturbation`](crate::World::set_tie_perturbation)).
    /// `None` means FIFO tie-breaks.
    perturbation: Option<u64>,
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        EventQueue {
            wheel: TimerWheel::new(),
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            perturbation: None,
        }
    }
}

/// The tie-break key of FIFO position `fifo`: the position itself, or
/// under a perturbation key its bijective scramble.
fn tie_key(perturbation: Option<u64>, fifo: u64) -> u64 {
    match perturbation {
        Some(pert) => mix64(fifo ^ pert),
        None => fifo,
    }
}

/// The perturbation keys the determinism harness sweeps
/// (`tests/determinism_perturbation.rs`), for the queue's and the wheel's
/// unit tests.
#[cfg(test)]
pub(crate) const PERTURBATION_KEYS: [u64; 4] = [
    0x9E37_79B9_7F4A_7C15,
    0xD1B5_4A32_D192_ED03,
    0xA5A5_A5A5_A5A5_A5A5,
    0x0123_4567_89AB_CDEF,
];

impl<M> EventQueue<M> {
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Sets (or clears) the tie-break perturbation key for subsequently
    /// pushed events. Because `mix64` is a bijection, scrambled tie-break
    /// keys remain unique, so the schedule stays a total order.
    pub fn set_perturbation(&mut self, key: Option<u64>) {
        self.perturbation = key;
    }

    pub fn perturbation(&self) -> Option<u64> {
        self.perturbation
    }

    /// Stores `kind` in a free slab slot and returns its handle.
    fn insert(&mut self, kind: EventKind<M>) -> TimerId {
        if let Some(index) = self.free.pop() {
            let slot = &mut self.slots[index as usize];
            slot.payload = Some(kind);
            return TimerId::new(index, slot.generation);
        }
        let index = u32::try_from(self.slots.len()).expect("slab indices fit in u32");
        self.slots.push(Slot {
            generation: 0,
            payload: Some(kind),
        });
        TimerId::new(index, 0)
    }

    /// Whether `handle` still names its event (not yet popped or
    /// cancelled).
    fn is_live(&self, handle: TimerId) -> bool {
        self.slots[handle.index()].generation == handle.generation()
    }

    /// Takes the payload `handle` names and frees its slot; `None` if the
    /// handle is dead.
    fn take(&mut self, handle: TimerId) -> Option<EventKind<M>> {
        if !self.is_live(handle) {
            return None;
        }
        let slot = &mut self.slots[handle.index()];
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(handle.index() as u32);
        slot.payload.take()
    }

    pub fn push(&mut self, at: SimTime, kind: EventKind<M>) -> TimerId {
        let seq = tie_key(self.perturbation, self.next_seq);
        self.next_seq += 1;
        let handle = self.insert(kind);
        self.wheel.push(at, seq, handle);
        handle
    }

    /// Cancels the event `id` names: its payload is dropped and its slot
    /// freed now, and its handle is dropped unseen when it reaches the
    /// front of the wheel. Returns whether a pending event was cancelled;
    /// once the event has popped or been cancelled, this is a no-op.
    pub fn cancel(&mut self, id: TimerId) -> bool {
        self.take(id).is_some()
    }

    /// Pops the earliest live event as `(at, seq, kind)`, dropping the
    /// dead handles ahead of it. `seq` is the tie-break key: the
    /// scheduling sequence number (FIFO among ties) or, under a
    /// perturbation key, a bijective scramble of it, so ties pop in a
    /// seeded permutation while distinct-timestamp ordering is untouched.
    pub fn pop(&mut self) -> Option<(SimTime, u64, EventKind<M>)> {
        loop {
            let (at, seq, handle) = self.wheel.pop()?;
            if let Some(kind) = self.take(handle) {
                return Some((at, seq, kind));
            }
        }
    }

    /// Time of the earliest live event, dropping the dead handles ahead
    /// of it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        loop {
            let (at, &handle) = self.wheel.peek()?;
            if self.is_live(handle) {
                return Some(at);
            }
            self.wheel.pop();
        }
    }

    /// Live events. A cancelled event is not counted, though its dead
    /// handle may still be on the wheel.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Queued `Deliver` events, counted by a walk over the slab.
    pub fn deliveries(&self) -> usize {
        let deliver = |slot: &Slot<M>| matches!(slot.payload, Some(EventKind::Deliver { .. }));
        self.slots.iter().filter(|&slot| deliver(slot)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deliver(to: u32) -> EventKind<u8> {
        EventKind::Deliver {
            to: NodeId::from_raw(to),
            arrival: ArrivalId::UNUSED,
            msg: 0,
            span: None,
        }
    }

    fn timer(token: u64) -> EventKind<u8> {
        EventKind::Timer {
            node: NodeId::from_raw(0),
            token: TimerToken::new(token),
            span: None,
        }
    }

    /// Pops everything as `(at, seq, token)`, deliveries reading as token
    /// `u64::MAX`.
    fn drain(q: &mut EventQueue<u8>) -> Vec<(SimTime, u64, u64)> {
        std::iter::from_fn(|| q.pop())
            .map(|(at, seq, kind)| match kind {
                EventKind::Timer { token, .. } => (at, seq, token.get()),
                EventKind::Deliver { .. } => (at, seq, u64::MAX),
            })
            .collect()
    }

    #[test]
    fn a_cancelled_timer_never_dispatches_and_is_not_pending() {
        let ms = SimTime::from_millis;
        let mut q = EventQueue::new();
        let first = q.push(ms(1), timer(1));
        let middle = q.push(ms(2), timer(2));
        q.push(ms(3), timer(3));
        assert_eq!(q.len(), 3);
        assert!(q.cancel(middle));
        assert_eq!(q.len(), 2);
        // The front one too: the peek must look past its dead handle.
        assert!(q.cancel(first));
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(ms(3)));
        let tokens: Vec<u64> = drain(&mut q).iter().map(|p| p.2).collect();
        assert_eq!(tokens, [3]);
        assert!(q.is_empty());
        // A queue holding only dead handles peeks and pops as empty.
        let last = q.push(ms(4), timer(4));
        assert!(q.cancel(last));
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancelling_a_fired_or_cancelled_timer_is_a_no_op_even_in_a_reused_slot() {
        let ms = SimTime::from_millis;
        let mut q = EventQueue::new();
        let fired = q.push(ms(1), timer(1));
        assert_eq!(drain(&mut q).len(), 1);
        let reuser = q.push(ms(2), timer(2));
        assert_eq!(reuser.index(), fired.index(), "the slot is reused");
        assert!(!q.cancel(fired));
        assert_eq!(q.len(), 1);
        assert_eq!(drain(&mut q), [(ms(2), 1, 2)]);

        // A cancelled timer's slot is reused while its dead handle is still
        // on the wheel, ahead of the new occupant: the handle must stay
        // dead, not fire the occupant early.
        let cancelled = q.push(ms(3), timer(3));
        assert!(q.cancel(cancelled));
        assert!(!q.cancel(cancelled));
        let occupant = q.push(ms(4), timer(4));
        assert_eq!(occupant.index(), cancelled.index(), "the slot is reused");
        assert!(!q.cancel(cancelled));
        assert_eq!(q.len(), 1);
        assert_eq!(drain(&mut q), [(ms(4), 3, 4)]);
    }

    #[test]
    fn cancelling_one_of_several_ties_leaves_the_others_order() {
        let ms = SimTime::from_millis;
        // Eight timers tie at 2 ms between two plain deliveries; the one
        // at `cancel`, if any, is cancelled before anything pops.
        let run = |key: Option<u64>, cancel: Option<usize>| {
            let mut q = EventQueue::new();
            q.set_perturbation(key);
            q.push(ms(1), deliver(0));
            let ids: Vec<TimerId> = (0..8).map(|i| q.push(ms(2), timer(i))).collect();
            q.push(ms(3), deliver(1));
            if let Some(i) = cancel {
                assert!(q.cancel(ids[i]));
            }
            drain(&mut q)
        };
        for key in std::iter::once(None).chain(PERTURBATION_KEYS.map(Some)) {
            let all = run(key, None);
            for cancelled in [0, 3, 7] {
                let mut want = all.clone();
                want.retain(|&(_, _, token)| token != cancelled as u64);
                assert_eq!(run(key, Some(cancelled)), want, "key {key:?}");
            }
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(5), deliver(1));
        q.push(SimTime::from_millis(1), deliver(2));
        q.push(SimTime::from_millis(3), deliver(3));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(at, _, _)| at.as_nanos() / 1_000_000)
            .collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn simultaneous_events_keep_fifo_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(1);
        for i in 0..10 {
            q.push(t, deliver(i));
        }
        let seqs: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, seq, _)| seq)
            .collect();
        assert_eq!(seqs, (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn perturbed_ties_pop_in_a_seeded_permutation() {
        let run = |key: Option<u64>| {
            let mut q = EventQueue::new();
            q.set_perturbation(key);
            let t = SimTime::from_millis(1);
            for i in 0..10 {
                q.push(t, deliver(i));
            }
            std::iter::from_fn(|| q.pop())
                .map(|(_, _, kind)| match kind {
                    EventKind::Deliver { to, .. } => to.index() as u64,
                    EventKind::Timer { .. } => unreachable!(),
                })
                .collect::<Vec<u64>>()
        };
        let fifo = run(None);
        assert_eq!(fifo, (0..10).collect::<Vec<u64>>());
        let scrambled = run(Some(0xA5A5));
        assert_eq!(scrambled, run(Some(0xA5A5)), "same key, same permutation");
        assert_ne!(scrambled, fifo, "this key should reorder the ties");
        let mut sorted = scrambled.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, fifo, "scramble must be a permutation");
    }

    #[test]
    fn perturbation_leaves_distinct_timestamps_ordered() {
        let mut q = EventQueue::new();
        q.set_perturbation(Some(7));
        q.push(SimTime::from_millis(5), deliver(1));
        q.push(SimTime::from_millis(1), deliver(2));
        q.push(SimTime::from_millis(3), deliver(3));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(at, _, _)| at.as_nanos() / 1_000_000)
            .collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_millis(2), deliver(0));
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(2)));
        assert_eq!(q.len(), 1);
    }
}
