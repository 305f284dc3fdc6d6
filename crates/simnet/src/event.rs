//! The event queue driving the discrete-event loop.
//!
//! Scheduling order is the total order on `(at, seq)`: time first, then the
//! tie-break key. Storage is a hierarchical timing wheel
//! ([`crate::wheel::TimerWheel`]); the pre-wheel binary heap lives on in
//! [`crate::reference`] as a differential-testing oracle that this queue
//! can mirror every operation against (see [`EventQueue::enable_oracle`]).

use crate::node::{NodeId, TimerToken};
use crate::reference::ReferenceEventQueue;
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
    /// Deliver `msg` (sent by `from`) to node `to`.
    Deliver {
        to: NodeId,
        from: NodeId,
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

/// In-memory footprint of one scheduled event carrying an `M`-typed
/// message — what every slot of the timing wheel pays. Message crates pin
/// this with a `const` assertion so an accidentally fattened message enum
/// fails to compile instead of silently halving event-queue cache density.
pub const fn event_footprint<M>() -> usize {
    crate::wheel::entry_size::<EventKind<M>>()
}

/// Earliest-first queue of scheduled events.
#[derive(Debug)]
pub(crate) struct EventQueue<M> {
    wheel: TimerWheel<EventKind<M>>,
    next_seq: u64,
    /// Schedule-perturbation key (see [`World::set_tie_perturbation`]
    /// (crate::World::set_tie_perturbation)). `None` means FIFO tie-breaks.
    perturbation: Option<u64>,
    /// Optional mirror of every push/pop against the frozen heap
    /// implementation; a divergence panics at the first wrong pop. Items
    /// are not mirrored — `(at, seq)` alone pins the schedule order.
    oracle: Option<ReferenceEventQueue<()>>,
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        EventQueue {
            wheel: TimerWheel::new(),
            next_seq: 0,
            perturbation: None,
            oracle: None,
        }
    }
}

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

    /// Mirrors all subsequent pushes and pops against the frozen
    /// [`ReferenceEventQueue`]; every pop asserts both engines agree on
    /// `(at, seq)`. Meant for tests — it doubles queue work.
    pub fn enable_oracle(&mut self) {
        if self.oracle.is_none() {
            assert!(
                self.wheel.is_empty(),
                "enable the queue oracle before any event is scheduled"
            );
            self.oracle = Some(ReferenceEventQueue::new());
        }
    }

    pub fn push(&mut self, at: SimTime, kind: EventKind<M>) {
        let fifo = self.next_seq;
        self.next_seq += 1;
        let seq = match self.perturbation {
            Some(pert) => mix64(fifo ^ pert),
            None => fifo,
        };
        if let Some(oracle) = &mut self.oracle {
            oracle.push(at, seq, ());
        }
        self.wheel.push(at, seq, kind);
    }

    /// Pops the earliest event as `(at, seq, kind)`. `seq` is the tie-break
    /// key: the scheduling sequence number (FIFO among ties) or, under a
    /// perturbation key, a bijective scramble of it, so ties pop in a
    /// seeded permutation while distinct-timestamp ordering is untouched.
    pub fn pop(&mut self) -> Option<(SimTime, u64, EventKind<M>)> {
        let popped = self.wheel.pop();
        if let Some(oracle) = &mut self.oracle {
            let expect = oracle.pop().map(|(at, seq, ())| (at, seq));
            assert_eq!(
                popped.as_ref().map(|&(at, seq, _)| (at, seq)),
                expect,
                "timing wheel diverged from the reference heap"
            );
        }
        popped
    }

    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.wheel.peek_time()
    }

    pub fn len(&self) -> usize {
        self.wheel.len()
    }

    pub fn is_empty(&self) -> bool {
        self.wheel.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deliver(to: u32) -> EventKind<u8> {
        EventKind::Deliver {
            to: NodeId::from_raw(to),
            from: NodeId::from_raw(0),
            msg: 0,
            span: None,
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

    #[test]
    fn oracle_mirrors_a_perturbed_schedule() {
        let mut q = EventQueue::new();
        q.enable_oracle();
        q.set_perturbation(Some(0xDEAD_BEEF));
        for i in 0..50u32 {
            q.push(
                SimTime::from_nanos(((i as u64 * 131) % 900) * 1_000),
                deliver(i),
            );
        }
        // Every pop is checked against the heap internally.
        let mut n = 0;
        while q.pop().is_some() {
            n += 1;
        }
        assert_eq!(n, 50);
    }
}
