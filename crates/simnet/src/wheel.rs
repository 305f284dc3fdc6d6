//! Hierarchical timing-wheel scheduler for the discrete-event core.
//!
//! [`TimerWheel`] is a min-queue on `(at, seq)` with a calendar-queue
//! layout:
//!
//! * **Six wheel levels** of 64 slots each. Level 0 buckets are
//!   2^16 ns ≈ 65.5 µs wide; each higher level is 64× coarser, so the wheel
//!   spans 2^52 ns ≈ 52 days — enough for DNS TTL windows, reap ticks and
//!   every timer the testbed arms. A per-level `u64` occupancy bitmap makes
//!   "next non-empty bucket" a mask-and-`trailing_zeros`.
//! * **An overflow heap** for events beyond the wheel horizon. It is
//!   ordered, so jumping the wheel across a long idle gap is `O(log n)` in
//!   the (tiny) overflow population, not a scan.
//! * **A ready run** holding only the events of the bucket currently being
//!   drained, sorted descending by `(at, seq)` so a pop is a plain
//!   `Vec::pop`. Draining buckets in full `(at, seq)` order is what makes
//!   the wheel reproduce the *exact* total order of the old `BinaryHeap`:
//!   within a bucket, events pop by `(at, seq)` — including scrambled
//!   `seq` values from tie-break perturbation — and across buckets, time
//!   ranges are disjoint, so the global pop order is identical event for
//!   event. See `DESIGN.md` §13.
//!
//! Bucket buffers stay where they are: a drained level-0 bucket trades
//! buffers with the (empty) ready run, a cascaded coarse bucket keeps its
//! own, and either keeps a buffer only up to `RETAINED_BUCKET_CAPACITY`
//! entries, so a burst's capacity is given back instead of travelling
//! around the wheel.
//!
//! Cost model: a push lands in its final bucket directly (no sifting); a
//! pop touches the small ready heap plus, amortized, one bucket cascade per
//! level crossed. For the near-future traffic that dominates simulation
//! (sub-millisecond link delays), buckets hold a handful of events and both
//! operations are effectively `O(1)`.
//!
//! The pre-wheel binary heap survives only in this module's tests, as the
//! oracle: fixed, random and workload-shaped schedules pop through both
//! queues, which must agree on every `(at, seq, item)`.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// log2 of the level-0 bucket width in nanoseconds (2^16 ns ≈ 65.5 µs).
const GRANULARITY_SHIFT: u32 = 16;
/// log2 of the slot count per level.
const LEVEL_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Mask selecting a slot index.
const SLOT_MASK: u64 = SLOTS as u64 - 1;
/// Number of wheel levels; events past the last level go to overflow.
const LEVELS: usize = 6;
/// Capacity, in entries, up to which a bucket keeps its emptied buffer
/// after a cascade or a drain; a larger buffer is freed. 64 of the event
/// queue's 24-byte handle entries are 1.5 kB, at most 0.6 MB over the 384
/// slots.
/// Keeping every buffer pins each 17 s level-3 slot at the whole watchdog
/// population it once held; freeing every one regrows level-1 buckets
/// from empty on every pass (`DESIGN.md` §13, "The retention cap").
const RETAINED_BUCKET_CAPACITY: usize = 64;

/// Bit position where level `l`'s slot index starts within a timestamp.
const fn shift(level: usize) -> u32 {
    GRANULARITY_SHIFT + LEVEL_BITS * level as u32
}

/// One queued event: timestamp, tie-break key, payload.
#[derive(Debug)]
struct Entry<T> {
    at: SimTime,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap but the ready/overflow heaps
        // need earliest-(at, seq)-first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Level an event at `at` belongs to while the drain frontier is `base`
/// (`at >= base`): the lowest level whose coarser prefix matches the
/// frontier's, so the cursor reaches the event's slot before that level
/// wraps and absolute slot indexing is exact. That level is fixed by the
/// highest bit in which `at` and `base` differ — bit
/// `GRANULARITY_SHIFT + b` lies in level `b / LEVEL_BITS`'s slot index —
/// so it is a closed form, not a search. `LEVELS` or more means overflow.
#[inline]
const fn level_of(at: u64, base: u64) -> usize {
    // `| 1` folds "no difference above the granularity" into level 0.
    let differing = ((at ^ base) >> GRANULARITY_SHIFT) | 1;
    ((u64::BITS - 1 - differing.leading_zeros()) / LEVEL_BITS) as usize
}

/// Hierarchical timing-wheel priority queue ordered by `(at, seq)`.
///
/// Drop-in replacement for a min-heap of `(SimTime, u64, T)` triples: pops
/// always return the entry with the smallest `(at, seq)` among those
/// currently queued, for *any* interleaving of pushes and pops and any
/// `seq` assignment (sequential or scrambled). The caller owns `seq`
/// uniqueness; duplicate `(at, seq)` pairs pop in an unspecified relative
/// order.
#[derive(Debug)]
pub(crate) struct TimerWheel<T> {
    /// `LEVELS * SLOTS` buckets, level-major: level `l`'s slot `s` is
    /// `slots[l * SLOTS + s]`. Each slot owns its buffer; see `refill` for
    /// what a drained bucket keeps.
    slots: Vec<Vec<Entry<T>>>,
    /// Per-level occupancy bitmap: bit `s` of `occupied[l]` is set iff
    /// level `l`'s slot `s` is non-empty. Slots below a level's cursor are
    /// always empty (the frontier drained them on its way past).
    occupied: [u64; LEVELS],
    /// Events of the bucket being drained, plus late pushes into the
    /// already-drained range, sorted descending by `(at, seq)` (earliest
    /// last, so popping is `Vec::pop`). Every queued event with
    /// `at < base` is here.
    ready: Vec<Entry<T>>,
    /// Far-future events beyond the wheel horizon, earliest first.
    overflow: BinaryHeap<Entry<T>>,
    /// Drain frontier in nanoseconds, always a level-0 bucket boundary.
    /// Monotone; wheel and overflow events all have `at >= base`.
    base: u64,
}

impl<T> TimerWheel<T> {
    /// Creates an empty wheel starting at simulation time zero.
    pub fn new() -> Self {
        TimerWheel {
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; LEVELS],
            ready: Vec::new(),
            overflow: BinaryHeap::new(),
            base: 0,
        }
    }

    /// Queues `item` at time `at` with tie-break key `seq`.
    ///
    /// The entry is built at the point it is stored — its bucket, the ready
    /// run or the overflow heap — instead of travelling by value through
    /// `place`: an `Entry` is event-sized and every hop was a copy.
    pub fn push(&mut self, at: SimTime, seq: u64, item: T) {
        let ns = at.as_nanos();
        if ns < self.base {
            // Late push into the drained range (e.g. a zero-delay send
            // scheduled at the instant being dispatched): sorted-insert
            // into the ready run, which keeps (at, seq) order among
            // survivors. The run is bucket-sized and descending, so early
            // events sit near the end and the shift is short.
            let pos = self
                .ready
                .binary_search_by(|queued| (at, seq).cmp(&(queued.at, queued.seq)))
                .unwrap_or_else(|p| p);
            self.ready.insert(pos, Entry { at, seq, item });
            return;
        }
        match self.bucket_for(ns) {
            Some(bucket) => bucket.push(Entry { at, seq, item }),
            None => self.overflow.push(Entry { at, seq, item }),
        }
    }

    /// Removes and returns the earliest `(at, seq)` event.
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        if self.ready.is_empty() {
            self.refill();
        }
        let entry = self.ready.pop()?;
        Some((entry.at, entry.seq, entry.item))
    }

    /// Timestamp and payload of the earliest queued event, if any.
    ///
    /// Takes `&mut self` because peeking may advance the wheel's drain
    /// frontier past empty buckets (pure bookkeeping: no event is removed
    /// and the observable pop order is unchanged).
    pub fn peek(&mut self) -> Option<(SimTime, &T)> {
        if self.ready.is_empty() {
            self.refill();
        }
        self.ready.last().map(|e| (e.at, &e.item))
    }

    /// The wheel bucket an event at `at >= base` belongs in, marked
    /// occupied (the caller pushes into it), or `None` when `at` lies
    /// beyond the wheel horizon and belongs in the overflow heap.
    fn bucket_for(&mut self, at: u64) -> Option<&mut Vec<Entry<T>>> {
        debug_assert!(
            at >= self.base,
            "bucket_for() below the drain frontier: at={at} base={}",
            self.base
        );
        let level = level_of(at, self.base);
        if level >= LEVELS {
            return None;
        }
        let slot = ((at >> shift(level)) & SLOT_MASK) as usize;
        self.occupied[level] |= 1 << slot;
        Some(&mut self.slots[level * SLOTS + slot])
    }

    /// Re-inserts an entry with `at >= base` (a cascade or an overflow
    /// ingest) into its wheel level or the overflow heap.
    fn place(&mut self, entry: Entry<T>) {
        match self.bucket_for(entry.at.as_nanos()) {
            Some(bucket) => bucket.push(entry),
            None => self.overflow.push(entry),
        }
    }

    /// Moves the next non-empty bucket into the ready heap, cascading
    /// higher-level buckets and ingesting overflow as needed. No-op when
    /// no events remain outside `ready`.
    fn refill(&mut self) {
        loop {
            let Some((level, slot)) = self.next_occupied() else {
                if !self.ingest_overflow() {
                    return;
                }
                continue;
            };
            // Start of the found bucket: frontier's coarser prefix with
            // this level's slot index substituted and finer bits cleared.
            let width_shift = shift(level);
            let slot_start =
                (self.base & !((1u64 << shift(level + 1)) - 1)) | ((slot as u64) << width_shift);
            let index = level * SLOTS + slot;
            self.occupied[level] &= !(1 << slot);
            if level == 0 {
                // Bucket granularity reached: everything in it is ready.
                // Saturate: the last bucket before u64::MAX has no end.
                self.base = slot_start.saturating_add(1 << width_shift);
                // `ready` is empty here (refill's precondition), so the
                // bucket becomes the new run wholesale and the slot takes
                // the run's emptied buffer; the reversed `Ord` makes an
                // ascending sort yield descending `(at, seq)`.
                debug_assert!(self.ready.is_empty());
                std::mem::swap(&mut self.ready, &mut self.slots[index]);
                // Else a burst's run settles in every level-0 slot in turn.
                if self.slots[index].capacity() > RETAINED_BUCKET_CAPACITY {
                    self.slots[index] = Vec::new();
                }
                self.ready.sort_unstable();
                return;
            }
            // Coarse bucket: advance the frontier to its start and cascade
            // its events down (each now lands at a strictly lower level,
            // never back in this slot). A cursor bucket starts exactly at
            // the frontier (see `next_occupied`), any other after it.
            debug_assert!(
                slot_start >= self.base,
                "coarse bucket starts before the frontier: start={slot_start} base={}",
                self.base
            );
            self.base = slot_start;
            let mut bucket = std::mem::take(&mut self.slots[index]);
            for entry in bucket.drain(..) {
                self.place(entry);
            }
            // A small buffer goes back to its slot for the next pass; a
            // burst-sized one is freed rather than kept resident.
            if bucket.capacity() <= RETAINED_BUCKET_CAPACITY {
                self.slots[index] = bucket;
            }
        }
    }

    /// Finds the occupied slot whose bucket starts earliest at or after the
    /// frontier, without computing a start time.
    ///
    /// A level's *cursor* slot is the one the frontier is inside. At most
    /// one coarse level's cursor slot is ever occupied, and then it starts
    /// at `base` itself: a push, a cascade or an overflow ingest places an
    /// event at the level of its highest digit that differs from `base`'s,
    /// never in a coarse cursor slot, so only a level-0 drain whose carry
    /// ends at level `l` moves the frontier into an occupied coarse slot,
    /// and it moves it to that slot's start. Such a bucket cascades before
    /// any finer bucket drains, which would otherwise jump `base` over
    /// events still buried in it. Otherwise every pending slot lies past
    /// its level's cursor, hence inside the cursor slot of every coarser
    /// level and before any of *their* pending slots: the lowest level with
    /// a pending slot holds the strictly earliest start. `DESIGN.md` §13
    /// has the full argument.
    fn next_occupied(&self) -> Option<(usize, usize)> {
        let cursor = |l: usize| (self.base >> shift(l)) & SLOT_MASK;
        // Level 0's cursor slot needs no look: if it is the answer, it is
        // also level 0's first pending slot below.
        if let Some(l) = (1..LEVELS).find(|&l| self.occupied[l] >> cursor(l) & 1 != 0) {
            return Some((l, cursor(l) as usize));
        }
        self.occupied
            .iter()
            .position(|&occupied| occupied != 0)
            .map(|l| {
                debug_assert_eq!(self.occupied[l] & !(u64::MAX << cursor(l)), 0);
                (l, self.occupied[l].trailing_zeros() as usize)
            })
    }

    /// Jumps the frontier to the earliest overflow event and moves every
    /// overflow event inside the new wheel horizon onto the wheel. Returns
    /// `false` when the overflow heap is empty.
    fn ingest_overflow(&mut self) -> bool {
        let Some(earliest) = self.overflow.peek() else {
            return false;
        };
        self.base = earliest.at.as_nanos() & !((1u64 << GRANULARITY_SHIFT) - 1);
        while let Some(entry) = self.overflow.peek() {
            if entry.at.as_nanos() >> shift(LEVELS) != self.base >> shift(LEVELS) {
                break;
            }
            let entry = self.overflow.pop().expect("peeked overflow entry");
            self.place(entry);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::PERTURBATION_KEYS;
    use crate::rng::{mix64, SimRng};
    use ape_check::{check, Gen};

    impl<T> TimerWheel<T> {
        /// Queued events, counted where they sit.
        fn len(&self) -> usize {
            let buckets: usize = self.slots.iter().map(Vec::len).sum();
            buckets + self.ready.len() + self.overflow.len()
        }

        fn peek_time(&mut self) -> Option<SimTime> {
            self.peek().map(|(at, _)| at)
        }

        /// Heap footprint of the buffers in bytes: bucket, ready and
        /// overflow capacities plus the slot table.
        fn approx_bytes(&self) -> usize {
            let entry = std::mem::size_of::<Entry<T>>();
            let buckets: usize = self.slots.iter().map(Vec::capacity).sum();
            (buckets + self.ready.capacity() + self.overflow.capacity()) * entry
                + self.slots.len() * std::mem::size_of::<Vec<Entry<T>>>()
        }
    }

    #[derive(Debug)]
    struct RefEntry<T> {
        at: SimTime,
        seq: u64,
        item: T,
    }

    impl<T> PartialEq for RefEntry<T> {
        fn eq(&self, other: &Self) -> bool {
            self.at == other.at && self.seq == other.seq
        }
    }

    impl<T> Eq for RefEntry<T> {}

    impl<T> PartialOrd for RefEntry<T> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl<T> Ord for RefEntry<T> {
        fn cmp(&self, other: &Self) -> Ordering {
            // Reversed: BinaryHeap is a max-heap but we need earliest-first.
            // This is, verbatim, the ordering the pre-wheel EventQueue used.
            (other.at, other.seq).cmp(&(self.at, self.seq))
        }
    }

    /// The binary-heap scheduler the simulator shipped with before the
    /// wheel: earliest `(at, seq)` first. Frozen as the oracle the wheel
    /// must reproduce event for event; do not "improve" it.
    #[derive(Debug)]
    struct ReferenceEventQueue<T> {
        heap: BinaryHeap<RefEntry<T>>,
    }

    impl<T> ReferenceEventQueue<T> {
        fn new() -> Self {
            ReferenceEventQueue {
                heap: BinaryHeap::new(),
            }
        }

        fn push(&mut self, at: SimTime, seq: u64, item: T) {
            self.heap.push(RefEntry { at, seq, item });
        }

        fn pop(&mut self) -> Option<(SimTime, u64, T)> {
            self.heap.pop().map(|e| (e.at, e.seq, e.item))
        }

        fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|e| e.at)
        }

        fn len(&self) -> usize {
            self.heap.len()
        }
    }

    /// Pops everything, asserting the wheel and the heap oracle agree on
    /// the count and on every single `(at, seq, item)` triple.
    fn drain_both(wheel: &mut TimerWheel<u32>, heap: &mut ReferenceEventQueue<u32>) {
        loop {
            assert_eq!(wheel.peek_time(), heap.peek_time());
            assert_eq!(wheel.len(), heap.len());
            let (w, h) = (wheel.pop(), heap.pop());
            assert_eq!(w, h);
            if w.is_none() {
                return;
            }
        }
    }

    #[test]
    fn orders_by_time_then_seq() {
        let mut q = ReferenceEventQueue::new();
        q.push(SimTime::from_millis(1), 5, 'c');
        q.push(SimTime::from_millis(1), 2, 'b');
        q.push(SimTime::ZERO, 9, 'a');
        assert_eq!(q.peek_time(), Some(SimTime::ZERO));
        assert_eq!(q.pop(), Some((SimTime::ZERO, 9, 'a')));
        assert_eq!(q.pop(), Some((SimTime::from_millis(1), 2, 'b')));
        assert_eq!(q.pop(), Some((SimTime::from_millis(1), 5, 'c')));
        assert_eq!(q.len(), 0);
    }

    /// The level search as it stood before the closed form, kept verbatim
    /// as the oracle for the exhaustive test below.
    fn reference_level(at: u64, base: u64) -> usize {
        (0..LEVELS)
            .find(|&l| at >> shift(l + 1) == base >> shift(l + 1))
            .unwrap_or(LEVELS)
    }

    #[test]
    fn closed_form_level_matches_the_level_search() {
        // Frontiers at zero, at every level's slot boundaries and wrap
        // points (one bucket before, on and after), and at the top of the
        // clock; always bucket-aligned, as `base` is.
        let align = |ns: u64| ns & !((1 << GRANULARITY_SHIFT) - 1);
        let mut bases = vec![0, align(u64::MAX)];
        for l in 0..=LEVELS + 1 {
            for digit in [1, SLOT_MASK, SLOTS as u64] {
                let boundary = digit << shift(l).min(57);
                bases.extend([boundary.saturating_sub(1), boundary, boundary + 1].map(align));
                bases.push(align(u64::MAX - boundary));
            }
        }
        let mut checked = 0;
        for &base in &bases {
            assert_eq!(level_of(base, base), 0);
            // Every event time that first differs from the frontier in bit
            // `high`, with the bits below it all clear, all set, or mixed.
            for high in 0..u64::BITS {
                if base >> high & 1 == 1 {
                    continue; // Flipping a set bit lands before the frontier.
                }
                let low = (1u64 << high) - 1;
                for fill in [0, low, low & 0x5555_5555_5555_5555, base & low] {
                    let at = (base & !low) | 1 << high | fill;
                    assert!(at >= base);
                    let want = reference_level(at, base).min(LEVELS);
                    assert_eq!(
                        level_of(at, base).min(LEVELS),
                        want,
                        "at={at:#x} base={base:#x} high={high}"
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 5_000, "only {checked} pairs checked");
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut wheel = TimerWheel::new();
        wheel.push(SimTime::from_millis(2), 1, 10);
        wheel.push(SimTime::from_millis(2), 0, 11);
        wheel.push(SimTime::from_millis(1), 2, 12);
        assert_eq!(wheel.pop(), Some((SimTime::from_millis(1), 2, 12)));
        assert_eq!(wheel.pop(), Some((SimTime::from_millis(2), 0, 11)));
        assert_eq!(wheel.pop(), Some((SimTime::from_millis(2), 1, 10)));
        assert_eq!(wheel.pop(), None);
        assert_eq!(wheel.len(), 0);
    }

    #[test]
    fn matches_heap_on_randomized_mixed_horizon_schedule() {
        let mut rng = SimRng::seed_from(0xC0FFEE);
        let mut wheel = TimerWheel::new();
        let mut heap = ReferenceEventQueue::new();
        let mut last = SimTime::ZERO;
        for seq in 0..5_000u64 {
            let at = match seq % 10 {
                // Tie burst: re-use the previous timestamp.
                0 => last,
                // Far future: seconds to hours out (overflow territory).
                1 => SimTime::from_nanos(rng.uniform_u64(1_000_000_000, 7_200_000_000_000)),
                // Near future: microseconds to milliseconds.
                _ => SimTime::from_nanos(rng.uniform_u64(0, 20_000_000)),
            };
            last = at;
            wheel.push(at, seq, seq as u32);
            heap.push(at, seq, seq as u32);
        }
        drain_both(&mut wheel, &mut heap);
    }

    #[test]
    fn matches_heap_with_interleaved_pushes_at_the_drain_frontier() {
        // Models dispatch-time scheduling: after each pop, push new events
        // at exactly the popped time (zero-delay send) and slightly later.
        let mut rng = SimRng::seed_from(7);
        let mut wheel = TimerWheel::new();
        let mut heap = ReferenceEventQueue::new();
        let mut seq = 0u64;
        let mut push = |w: &mut TimerWheel<u32>, h: &mut ReferenceEventQueue<u32>, at| {
            w.push(at, seq, seq as u32);
            h.push(at, seq, seq as u32);
            seq += 1;
        };
        for _ in 0..64 {
            let at = SimTime::from_nanos(rng.uniform_u64(0, 3_000_000));
            push(&mut wheel, &mut heap, at);
        }
        for _ in 0..2_000 {
            assert_eq!(wheel.peek_time(), heap.peek_time());
            let (w, h) = (wheel.pop(), heap.pop());
            assert_eq!(w, h);
            let Some((at, _, _)) = w else { break };
            if rng.chance(0.4) {
                push(&mut wheel, &mut heap, at);
            }
            if rng.chance(0.4) {
                let delta = rng.uniform_u64(0, 400_000);
                push(
                    &mut wheel,
                    &mut heap,
                    at + crate::SimDuration::from_nanos(delta),
                );
            }
        }
        drain_both(&mut wheel, &mut heap);
    }

    #[test]
    fn matches_heap_under_scrambled_tie_break_keys() {
        // Perturbed seq values are arbitrary u64s, so a late push can carry
        // a *smaller* key than an already-popped tie — the wheel must agree
        // with the heap's min-among-present semantics, not global order.
        let mut wheel = TimerWheel::new();
        let mut heap = ReferenceEventQueue::new();
        let t = SimTime::from_millis(3);
        for (i, seq) in [0xFFFF_u64, 7, 0x8000_0000, 1, u64::MAX, 0]
            .into_iter()
            .enumerate()
        {
            wheel.push(t, seq, i as u32);
            heap.push(t, seq, i as u32);
        }
        assert_eq!(wheel.pop(), heap.pop());
        // Mid-drain push at the same instant with a tiny key.
        wheel.push(t, 2, 99);
        heap.push(t, 2, 99);
        drain_both(&mut wheel, &mut heap);
    }

    #[test]
    fn far_future_events_cross_the_overflow_horizon() {
        let mut wheel = TimerWheel::new();
        let mut heap = ReferenceEventQueue::new();
        // Beyond the 2^52 ns wheel horizon (~52 days) and near u64::MAX.
        let far = [
            SimTime::from_nanos(1 << 53),
            SimTime::from_nanos((1 << 53) + 1),
            SimTime::from_nanos(u64::MAX - 1),
            SimTime::from_secs(100 * 24 * 3600),
            SimTime::from_millis(1),
        ];
        for (seq, at) in far.into_iter().enumerate() {
            wheel.push(at, seq as u64, seq as u32);
            heap.push(at, seq as u64, seq as u32);
        }
        drain_both(&mut wheel, &mut heap);
    }

    #[test]
    fn long_idle_gap_is_a_jump_not_a_scan() {
        let mut wheel = TimerWheel::new();
        wheel.push(SimTime::from_secs(3_600), 0, 1u32);
        // One peek must land directly on the hour-away event.
        assert_eq!(wheel.peek_time(), Some(SimTime::from_secs(3_600)));
        assert_eq!(wheel.pop(), Some((SimTime::from_secs(3_600), 0, 1)));
        // The frontier advanced; nearer times pushed later still pop fine.
        wheel.push(SimTime::from_secs(7_200), 1, 2u32);
        assert_eq!(wheel.pop(), Some((SimTime::from_secs(7_200), 1, 2)));
    }

    #[test]
    fn len_and_bytes_accounting() {
        let mut wheel = TimerWheel::new();
        assert_eq!(wheel.len(), 0);
        assert_eq!(wheel.peek_time(), None);
        for seq in 0..100u64 {
            wheel.push(SimTime::from_nanos(seq * 37_000), seq, seq as u32);
        }
        assert_eq!(wheel.len(), 100);
        assert!(wheel.approx_bytes() > 0);
        for _ in 0..100 {
            assert!(wheel.pop().is_some());
        }
        assert_eq!(wheel.len(), 0);
    }

    #[test]
    fn drained_buckets_give_burst_capacity_back() {
        // A watchdog-shaped load: every simulated second, 2 000 timers are
        // armed 3–4 s ahead and the wheel drains up to the next second, so
        // ~8 000 are in flight on the coarse levels at once. 40 s crosses
        // two level-3 boundaries (2^34 ns ≈ 17.2 s), whose buckets each
        // collect thousands of timers before they cascade. A tick-shaped
        // burst rides along: 500 timers a second inside one level-0
        // bucket, whose run must not settle in the level-0 slots.
        const SECOND: u64 = 1_000_000_000;
        let mut wheel = TimerWheel::new();
        let mut seq = 0u64;
        let mut entropy = 0x5EED_u64;
        for round in 0..40 {
            let now = round * SECOND;
            for _ in 0..2_000 {
                entropy = mix64(entropy);
                let at = now + 3 * SECOND + entropy % SECOND;
                wheel.push(SimTime::from_nanos(at), seq, 0u32);
                seq += 1;
            }
            for tick in 0..500 {
                let at = now + SECOND / 2 + tick * 61;
                wheel.push(SimTime::from_nanos(at), seq, 0u32);
                seq += 1;
            }
            while wheel
                .peek_time()
                .is_some_and(|at| at.as_nanos() < now + SECOND)
            {
                wheel.pop();
            }
        }
        while wheel.pop().is_some() {}
        // Only the ready run may hold more than the retained capacity.
        let entry = std::mem::size_of::<Entry<u32>>();
        let bound = LEVELS
            * SLOTS
            * (RETAINED_BUCKET_CAPACITY * entry + std::mem::size_of::<Vec<Entry<u32>>>());
        assert!(
            wheel.approx_bytes() <= bound,
            "{} bytes retained after the drain, bound {bound}",
            wheel.approx_bytes()
        );
        assert!(wheel
            .slots
            .iter()
            .all(|b| b.capacity() <= RETAINED_BUCKET_CAPACITY));
    }

    /// One randomized schedule: event classes plus raw entropy, a pop
    /// cadence, and an optional perturbation key index.
    #[derive(Debug, Clone)]
    struct Sched {
        /// `(class, raw)` per event: class 0 re-uses the previous timestamp
        /// (tie burst), class 1 lands seconds-to-hours out (overflow and
        /// coarse-level territory), anything else lands within ~20 ms.
        events: Vec<(u8, u64)>,
        /// Pop (and cross-check) one event from both queues after every
        /// `pops_every` pushes; 0 disables interleaving.
        pops_every: u8,
        /// `Some(i)` scrambles sequence numbers with `PERTURBATION_KEYS[i]`,
        /// the way the event queue's tie-break perturbation does.
        key: Option<u8>,
    }

    fn sched(g: &mut Gen) -> Sched {
        Sched {
            events: g.vec(1..250, |g| (g.range(0u8..8), g.u64())),
            pops_every: g.range(0u8..5),
            key: g.option(|g| g.range(0u8..4)),
        }
    }

    /// Maps a `(class, raw)` pair onto a timestamp, given the previous one.
    fn timestamp(class: u8, raw: u64, prev: SimTime) -> SimTime {
        match class {
            0 => prev,
            1 => SimTime::from_nanos(1_000_000_000 + raw % 7_200_000_000_000),
            _ => SimTime::from_nanos(raw % 20_000_000),
        }
    }

    /// Replays `sched` through both queues, asserting identical behavior
    /// at every pop and peek.
    fn replay(sched: &Sched) {
        let mut wheel = TimerWheel::new();
        let mut heap = ReferenceEventQueue::new();
        let mut prev = SimTime::ZERO;
        for (i, &(class, raw)) in sched.events.iter().enumerate() {
            let at = timestamp(class, raw, prev);
            prev = at;
            let seq = match sched.key {
                Some(k) => mix64(i as u64 ^ PERTURBATION_KEYS[k as usize]),
                None => i as u64,
            };
            wheel.push(at, seq, i as u32);
            heap.push(at, seq, i as u32);
            if sched.pops_every > 0 && i % sched.pops_every as usize == 0 {
                assert_eq!(wheel.peek_time(), heap.peek_time());
                assert_eq!(wheel.pop(), heap.pop());
            }
        }
        drain_both(&mut wheel, &mut heap);
    }

    #[test]
    fn wheel_matches_heap_on_arbitrary_schedules() {
        check("wheel_matches_heap_on_arbitrary_schedules", 256, |g| {
            replay(&sched(g));
        });
    }

    /// Regression pin for the frontier-straddle bug: an event buried in a
    /// coarse (level-1) bucket whose time range the frontier enters via a
    /// level-0 carry must pop before later events pushed into that same
    /// range. The first wheel implementation drained the later level-0
    /// bucket first, jumping the frontier past the buried event.
    #[test]
    fn coarse_bucket_straddling_the_frontier_cascades_first() {
        let mut wheel = TimerWheel::new();
        let mut heap = ReferenceEventQueue::new();
        let push = |w: &mut TimerWheel<u32>, h: &mut ReferenceEventQueue<u32>, at, seq| {
            w.push(SimTime::from_nanos(at), seq, seq as u32);
            h.push(SimTime::from_nanos(at), seq, seq as u32);
        };
        push(&mut wheel, &mut heap, 100, 0); // level 0
        push(&mut wheel, &mut heap, 4_732_811, 1); // level 1, slot 1
        assert_eq!(wheel.pop(), heap.pop()); // pops seq 0
        push(&mut wheel, &mut heap, 4_150_000, 2); // level 0, last slot
        assert_eq!(wheel.pop(), heap.pop()); // pops seq 2; frontier carries
        push(&mut wheel, &mut heap, 6_000_000, 3); // level 0 in the new range

        // The buried 4.73 ms event must come out before the 6 ms one.
        let popped = wheel.pop();
        assert_eq!(popped, heap.pop());
        assert_eq!(popped.map(|(_, seq, _)| seq), Some(1));
        assert_eq!(wheel.pop(), heap.pop());
        assert_eq!(wheel.pop(), None);
    }

    /// A stress shape `sched` lacks: tens of thousands of timers armed up
    /// front across hours, each one setting off a short chain of sparse
    /// near-term traffic 0.3–50 ms ahead (sends), and a 3–4 s watchdog
    /// armed beside every send and popped long after the exchange it
    /// guarded. The wheel then holds a deep far-future population on its
    /// coarse levels while almost every pop refills from a bucket of one
    /// or two events.
    fn check_workload_shape(key: Option<u64>, scheduled: u64) {
        const SCHEDULE: u32 = 0;
        const TRAFFIC: u32 = 1;
        const WATCHDOG: u32 = 2;
        let mut wheel = TimerWheel::new();
        let mut heap = ReferenceEventQueue::new();
        let mut pushed = 0u64;
        let mut push =
            |w: &mut TimerWheel<u32>, h: &mut ReferenceEventQueue<u32>, at: u64, class| {
                let seq = key.map_or(pushed, |k| mix64(pushed ^ k));
                pushed += 1;
                w.push(SimTime::from_nanos(at), seq, class);
                h.push(SimTime::from_nanos(at), seq, class);
            };
        let mut entropy = key.unwrap_or(7) ^ scheduled;
        let mut draw = |below: u64| {
            entropy = mix64(entropy);
            entropy % below
        };
        const HOURS_8: u64 = 8 * 3_600 * 1_000_000_000;
        for _ in 0..scheduled {
            push(&mut wheel, &mut heap, draw(HOURS_8), SCHEDULE);
        }
        let mut pops = 0u64;
        loop {
            assert_eq!(wheel.peek_time(), heap.peek_time());
            assert_eq!(wheel.len(), heap.len());
            let (w, h) = (wheel.pop(), heap.pop());
            assert_eq!(w, h, "pop {pops}, key {key:?}");
            let Some((at, _, class)) = w else { break };
            pops += 1;
            let now = at.as_nanos();
            // A schedule timer always starts an exchange; each message of
            // it is answered three times in four, so chains are ~4 sends.
            if class == SCHEDULE || (class == TRAFFIC && draw(4) > 0) {
                push(
                    &mut wheel,
                    &mut heap,
                    now + 300_000 + draw(49_700_000),
                    TRAFFIC,
                );
                // Staggered like the client's watchdogs: never two on one
                // nanosecond from the same arming instant.
                let watchdog = now + 3_000_000_000 + draw(1_000_000_000);
                push(&mut wheel, &mut heap, watchdog, WATCHDOG);
                if draw(16) == 0 {
                    // A zero-delay follow-up at the instant being dispatched.
                    push(&mut wheel, &mut heap, now, TRAFFIC);
                }
            }
        }
        assert_eq!(pops, pushed);
        assert!(pops > 5 * scheduled, "chains too short: {pops} pops");
    }

    #[test]
    fn wheel_matches_heap_on_the_workload_shape() {
        check_workload_shape(None, 50_000);
        for (i, &key) in PERTURBATION_KEYS.iter().enumerate() {
            check_workload_shape(Some(key), 20_000 + 7_500 * i as u64);
        }
    }
}
