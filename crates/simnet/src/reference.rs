//! Frozen seed implementations, kept as differential-testing oracles.
//!
//! Two engines live here, both preserved verbatim from the code that
//! actually shipped, in the `ape_cachealg::reference::ReferencePacm` style:
//!
//! * [`ReferenceEventQueue`] — the `BinaryHeap` scheduler the simulator
//!   shipped with before the timing-wheel rewrite ([`crate::TimerWheel`]).
//!   The wheel's unit tests and the `wheel_differential` property suite pop
//!   randomized schedules through both queues and assert identical
//!   sequences, and
//!   [`World::enable_queue_oracle`](crate::World::enable_queue_oracle)
//!   mirrors every live push/pop against this heap during a run.
//! * [`ExactHistogram`] — the sample-hoarding `Vec<f64>` histogram the
//!   metric registry shipped with before the fixed-memory sketch
//!   ([`crate::Histogram`]) replaced it. The `metrics_sketch` property
//!   suite and the registry's unit tests record randomized and adversarial
//!   distributions through both, side by side, and assert the sketch's
//!   quantiles stay within its error bound.
//!
//! Do not "improve" this module — its value is that it stays frozen.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

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

/// Earliest-`(at, seq)`-first queue backed by a single binary heap — the
/// seed implementation the timing wheel must reproduce event for event.
///
/// # Examples
///
/// ```
/// use ape_simnet::reference::ReferenceEventQueue;
/// use ape_simnet::SimTime;
///
/// let mut q = ReferenceEventQueue::new();
/// q.push(SimTime::from_millis(5), 0, 'b');
/// q.push(SimTime::from_millis(1), 1, 'a');
/// assert_eq!(q.pop(), Some((SimTime::from_millis(1), 1, 'a')));
/// assert_eq!(q.pop(), Some((SimTime::from_millis(5), 0, 'b')));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct ReferenceEventQueue<T> {
    heap: BinaryHeap<RefEntry<T>>,
}

impl<T> Default for ReferenceEventQueue<T> {
    fn default() -> Self {
        ReferenceEventQueue::new()
    }
}

impl<T> ReferenceEventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        ReferenceEventQueue {
            heap: BinaryHeap::new(),
        }
    }

    /// Queues `item` at time `at` with tie-break key `seq`.
    pub fn push(&mut self, at: SimTime, seq: u64, item: T) {
        self.heap.push(RefEntry { at, seq, item });
    }

    /// Removes and returns the earliest `(at, seq)` event.
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        self.heap.pop().map(|e| (e.at, e.seq, e.item))
    }

    /// Timestamp of the earliest queued event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// The seed metric histogram: every observation stored exactly in a
/// `Vec<f64>`, quantiles by lazy sort + nearest rank, `mean`/`min`/`max`
/// as O(n) scans per query.
///
/// This is, verbatim, the `Histogram` the registry shipped with before the
/// fixed-memory sketch rewrite (modulo renames). It is the ground truth the
/// sketch is differentially tested against: exact quantiles over the full
/// sample set, at the cost of unbounded memory — the very cost the sketch
/// removes.
///
/// # Examples
///
/// ```
/// use ape_simnet::reference::ExactHistogram;
///
/// let mut h = ExactHistogram::new();
/// for v in [1.0, 2.0, 3.0, 4.0] {
///     h.record(v);
/// }
/// assert_eq!(h.mean(), 2.5);
/// assert_eq!(h.quantile(0.5), 2.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExactHistogram {
    samples: Vec<f64>,
    sorted: bool,
    /// Non-finite observations rejected by [`record`](Self::record).
    dropped: u64,
}

impl ExactHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        ExactHistogram::default()
    }

    /// Records one observation; non-finite values are dropped and counted
    /// (the seed's release-mode behavior — the oracle must keep counting
    /// where the live histogram would debug-panic, so the two stay
    /// comparable in release test builds).
    pub fn record(&mut self, value: f64) {
        if value.is_finite() {
            self.samples.push(value);
            self.sorted = false;
        } else {
            self.dropped += 1;
        }
    }

    /// Number of non-finite observations rejected by [`record`](Self::record).
    pub fn dropped_samples(&self) -> u64 {
        self.dropped
    }

    /// Number of recorded observations.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Whether no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Smallest observation, or 0.0 when empty.
    pub fn min(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().copied().fold(f64::INFINITY, f64::min)
        }
    }

    /// Largest observation, or 0.0 when empty.
    pub fn max(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max)
        }
    }

    /// Sum of all observations, or 0.0 when empty — the seed's
    /// insertion-order `iter().sum()` fold.
    pub fn sum(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum()
        }
    }

    /// The `q`-quantile (nearest-rank), `q` in `[0, 1]`; 0.0 when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&mut self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        if self.samples.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.samples.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        let n = self.samples.len();
        let rank = (q * n as f64).ceil() as usize;
        self.samples[rank.clamp(1, n) - 1]
    }

    /// All recorded samples, in insertion or sorted order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Merges another histogram's samples (and dropped-sample count) into
    /// this one.
    pub fn merge(&mut self, other: &ExactHistogram) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
        self.dropped += other.dropped;
    }

    /// Heap footprint of the sample buffer in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.samples.capacity() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(q.is_empty());
    }

    #[test]
    fn exact_histogram_matches_seed_semantics() {
        let mut h = ExactHistogram::new();
        for v in 1..=100 {
            h.record(v as f64);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.mean(), 50.5);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 100.0);
        assert_eq!(h.quantile(0.5), 50.0);
        assert_eq!(h.quantile(0.0), 1.0);
        assert_eq!(h.quantile(1.0), 100.0);
        assert!(h.approx_bytes() >= 100 * 8);
    }

    #[test]
    fn exact_histogram_merge_pools_samples() {
        let mut a = ExactHistogram::new();
        let mut b = ExactHistogram::new();
        a.record(1.0);
        b.record(3.0);
        b.record(f64::NAN);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.dropped_samples(), 1);
        assert_eq!(a.sum(), 4.0);
        assert_eq!(a.quantile(1.0), 3.0);
    }

    #[test]
    fn exact_histogram_empty_is_zeroed() {
        let mut h = ExactHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.sum(), 0.0);
        assert_eq!(h.quantile(0.99), 0.0);
        assert_eq!(h.samples().len(), 0);
    }
}
