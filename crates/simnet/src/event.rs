//! The event queue driving the discrete-event loop.
//!
//! Scheduling order is the total order on `(at, seq)`: time first, then the
//! tie-break key. Storage is a hierarchical timing wheel
//! ([`crate::wheel::TimerWheel`]); the pre-wheel binary heap lives on in
//! [`crate::reference`] as a differential-testing oracle that this queue
//! can mirror every operation against (see [`EventQueue::enable_oracle`]).
//!
//! The queue holds what is in flight. A node's long time-sorted timer
//! schedule enters as a *series* ([`EventQueue::push_series`]): its
//! tie-break keys are reserved when it is armed, but the wheel holds it an
//! instant at a time, the next instant armed when the current one fires.

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

/// What the wheel stores: an event, or element `index` of timer series
/// `series`, which [`EventQueue::pop`] turns into its `Timer` event.
#[derive(Debug)]
enum Queued<M> {
    Event(EventKind<M>),
    Series { series: u32, index: u32 },
}

/// In-memory footprint of one scheduled event carrying an `M`-typed
/// message — what every slot of the timing wheel pays. Message crates pin
/// this with a `const` assertion so an accidentally fattened message enum
/// fails to compile instead of silently halving event-queue cache density.
pub const fn event_footprint<M>() -> usize {
    crate::wheel::entry_size::<Queued<M>>()
}

/// A time-sorted run of timers on one node (see
/// [`EventQueue::push_series`]).
#[derive(Debug)]
struct Series {
    node: NodeId,
    span: Option<SpanCtx>,
    /// Element `i` fires with token `token_base + i`.
    token_base: u64,
    /// FIFO position of element 0; element `i` owns `first_fifo + i`.
    first_fifo: u64,
    times: Vec<SimTime>,
    /// Elements before this index have been put on the wheel.
    armed: usize,
}

/// Earliest-first queue of scheduled events.
#[derive(Debug)]
pub(crate) struct EventQueue<M> {
    wheel: TimerWheel<Queued<M>>,
    next_seq: u64,
    /// Schedule-perturbation key (see [`World::set_tie_perturbation`]
    /// (crate::World::set_tie_perturbation)). `None` means FIFO tie-breaks.
    perturbation: Option<u64>,
    /// Every non-empty series pushed so far, indexed by id.
    series: Vec<Series>,
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
            series: Vec::new(),
            oracle: None,
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
    /// `(at, seq)`. A series is mirrored as the eager pushes it stands
    /// for, so the oracle also checks its lazy arming. Meant for tests —
    /// it doubles queue work.
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
        let seq = tie_key(self.perturbation, self.next_seq);
        self.next_seq += 1;
        if let Some(oracle) = &mut self.oracle {
            oracle.push(at, seq, ());
        }
        self.wheel.push(at, seq, Queued::Event(kind));
    }

    /// Queues a timer on `node` for every element of the time-sorted
    /// `times`: element `i` fires at `times[i]` with token `token_base + i`
    /// and span context `span`. Pops exactly as `times.len()` calls of
    /// [`push`](Self::push) in index order would: the series takes those
    /// calls' FIFO positions now, so every tie-break key, FIFO or
    /// perturbed, is the one an eager push would have drawn. An instant of
    /// the series goes on the wheel whole, so ties among its elements keep
    /// their key order, and the first of them to pop arms the next
    /// instant. Elements further out are not queued and not counted by
    /// [`len`](Self::len).
    ///
    /// # Panics
    ///
    /// Panics if `times` is not sorted ascending.
    pub fn push_series(
        &mut self,
        node: NodeId,
        span: Option<SpanCtx>,
        token_base: u64,
        times: Vec<SimTime>,
    ) {
        assert!(times.is_sorted(), "a timer series must be time-sorted");
        let first_fifo = self.next_seq;
        self.next_seq += times.len() as u64;
        if let Some(oracle) = &mut self.oracle {
            for (fifo, &at) in (first_fifo..).zip(&times) {
                oracle.push(at, tie_key(self.perturbation, fifo), ());
            }
        }
        if times.is_empty() {
            return;
        }
        let id = u32::try_from(self.series.len()).expect("series ids fit in u32");
        self.series.push(Series {
            node,
            span,
            token_base,
            first_fifo,
            times,
            armed: 0,
        });
        self.arm_next_instant(id);
    }

    /// Puts every element of series `id` at its next unarmed instant on
    /// the wheel; a no-op once the series is exhausted.
    fn arm_next_instant(&mut self, id: u32) {
        let series = &mut self.series[id as usize];
        let Some(&at) = series.times.get(series.armed) else {
            return;
        };
        while series.times.get(series.armed) == Some(&at) {
            let seq = tie_key(self.perturbation, series.first_fifo + series.armed as u64);
            let index = u32::try_from(series.armed).expect("series index fits in u32");
            self.wheel
                .push(at, seq, Queued::Series { series: id, index });
            series.armed += 1;
        }
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
        let (at, seq, queued) = popped?;
        let kind = match queued {
            Queued::Event(kind) => kind,
            Queued::Series { series: id, index } => {
                let series = &self.series[id as usize];
                let kind = EventKind::Timer {
                    node: series.node,
                    token: TimerToken::new(series.token_base + u64::from(index)),
                    span: series.span,
                };
                // The first pop at the latest armed instant arms the next
                // one, which is strictly later than `at`: none of it could
                // have popped before this event.
                if series.times[series.armed - 1] == at {
                    self.arm_next_instant(id);
                }
                kind
            }
        };
        Some((at, seq, kind))
    }

    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.wheel.peek_time()
    }

    /// Events on the wheel: everything in flight plus each live series'
    /// next instant.
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

    /// The keys the determinism harness sweeps
    /// (`tests/determinism_perturbation.rs`).
    const PERTURBATION_KEYS: [u64; 4] = [
        0x9E37_79B9_7F4A_7C15,
        0xD1B5_4A32_D192_ED03,
        0xA5A5_A5A5_A5A5_A5A5,
        0x0123_4567_89AB_CDEF,
    ];

    /// A popped event as its node sees it: `(at, seq, node, token)`, with
    /// deliveries reading as token `u64::MAX`.
    type Popped = (SimTime, u64, usize, u64);

    /// Queues an empty series, a one-element series and one with runs of
    /// equal instants (some tying with plain events) between plain
    /// pushes — as series, or eagerly as one push per timer — then pops
    /// everything, adding a zero-delay delivery at every third popped
    /// instant. Returns the queue length once armed and the pops.
    fn series_run(key: Option<u64>, as_series: bool) -> (usize, Vec<Popped>) {
        let ms = SimTime::from_millis;
        let mut q = EventQueue::new();
        q.set_perturbation(key);
        q.enable_oracle();
        let series = [
            (1, 0, vec![]),
            (2, 100, vec![ms(4)]),
            (
                3,
                1 << 34,
                vec![ms(1), ms(2), ms(2), ms(2), ms(4), ms(4), ms(9)],
            ),
        ];
        q.push(ms(2), deliver(7));
        for (node, token_base, times) in series {
            let node = NodeId::from_raw(node);
            if as_series {
                q.push_series(node, None, token_base, times);
                continue;
            }
            for (i, at) in times.into_iter().enumerate() {
                let token = TimerToken::new(token_base + i as u64);
                let span = None;
                q.push(at, EventKind::Timer { node, token, span });
            }
        }
        q.push(ms(4), deliver(8));
        let armed = q.len();
        let mut pops = Vec::new();
        while let Some((at, seq, kind)) = q.pop() {
            let (node, token) = match kind {
                EventKind::Timer { node, token, .. } => (node, token.get()),
                EventKind::Deliver { to, .. } => (to, u64::MAX),
            };
            if pops.len() % 3 == 0 {
                q.push(at, deliver(9));
            }
            pops.push((at, seq, node.index(), token));
        }
        (armed, pops)
    }

    #[test]
    fn a_series_pops_exactly_like_its_eager_pushes() {
        for key in std::iter::once(None).chain(PERTURBATION_KEYS.map(Some)) {
            let (eager_len, eager) = series_run(key, false);
            let (series_len, series) = series_run(key, true);
            assert_eq!(series, eager, "key {key:?}");
            // Eight timers and two deliveries; a series holds only its
            // next instant.
            assert_eq!((eager_len, series_len), (10, 4), "key {key:?}");
            assert!(eager.len() > 12);
        }
    }
}
