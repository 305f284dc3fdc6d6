//! Measurement collection for simulation runs.
//!
//! Nodes record observations into a [`Metrics`] registry owned by the
//! [`World`](crate::World). After a run completes, experiment harnesses read
//! counters, latency histograms and resource time series out of the registry
//! to produce the paper's tables and figures.
//!
//! ## Fixed memory
//!
//! A [`Histogram`] is a fixed-size log-bucketed sketch (HDR-style), so its
//! memory is constant no matter how many observations arrive, while
//! `count`/`sum`/`mean`/`min`/`max` stay exact. The sample-hoarding
//! histogram it replaced survives only in this module's tests, as the
//! oracle they record into side by side. A [`TimeSeries`] keeps its
//! aggregates and a fold of its points, not the points, so it holds no heap
//! memory at all.
//!
//! Each metric kind lives in one table of slots. Recording goes through
//! interned [`MetricId`]s ([`Metrics::incr_id`], [`Metrics::observe_id`],
//! [`Metrics::record_point_id`]), whose index is the metric's slot: an
//! indexed load, no string compare and no allocation. The one family of
//! names built at run time (a histogram per app) is written through
//! [`Metrics::observe_under`], whose slot is the declared prefix id's index
//! and the member's number in the caller's family, so a repeat write is an
//! indexed load too. The harnesses read by name, which walks the occupied
//! slots.

use std::fmt;

use crate::profiler::{ProfCategory, Profiler};
use crate::rng::mix64;
use crate::time::SimTime;

/// Declares metric names, each exactly once.
///
/// Every `NAME = "dotted.name";` line becomes a `pub const NAME: &str` and,
/// in a sibling `pub mod id`, a `pub const NAME: MetricId` whose index is
/// `first_index` plus the line's position in the list; `id::ALL` lists the
/// ids in that order. Two ids with one index, or an id missing from `ALL`,
/// therefore cannot be written. [`MetricId::new`] is on `clippy.toml`'s
/// `disallowed-methods` list, so the invoking module carries
/// `#[expect(clippy::disallowed_methods)]`.
#[macro_export]
macro_rules! metric_names {
    (first_index = $first:expr; $($(#[$doc:meta])* $ident:ident = $name:literal;)+) => {
        $($(#[$doc])* pub const $ident: &str = $name;)+

        /// Interned ids of the names declared beside this module, indexed
        /// in declaration order from `first_index`.
        pub mod id {
            use $crate::MetricId;

            #[allow(non_camel_case_types, clippy::upper_case_acronyms)]
            enum Position {
                $($ident),+
            }

            $(
                #[doc = concat!("Interned [`", stringify!($ident), "`](super::", stringify!($ident), ").")]
                pub const $ident: MetricId =
                    MetricId::new($first + Position::$ident as u16, super::$ident);
            )+

            /// Every id declared here, in index order.
            pub const ALL: &[MetricId] = &[$($ident),+];
        }
    };
}

/// Metric names owned by the simulator itself.
///
/// Application-level names (`ap.*`, `client.*`, `edge.*`) live with the
/// protocol crate (`ape_proto::names`), which continues this index space:
/// every registry shares one, so an index means the same name everywhere.
#[expect(
    clippy::disallowed_methods,
    reason = "one of the three modules that declare names; see clippy.toml"
)]
pub mod keys {
    crate::metric_names! {
        first_index = 0;
        /// Messages that entered the network (sent or injected).
        NET_MESSAGES = "net.messages";
        /// Total wire bytes that entered the network.
        NET_BYTES = "net.bytes";
        /// Messages dropped by link loss.
        NET_DROPPED = "net.dropped";
        /// Messages dropped by an injected fault window (link-down or loss
        /// burst from a [`FaultPlan`](crate::FaultPlan)); disjoint from
        /// [`NET_DROPPED`] so experiments can tell scheduled faults from
        /// steady-state radio loss.
        NET_FAULT_DROPPED = "net.fault_dropped";
    }
}

/// An interned metric name: a compile-time `(slot index, name)` pair.
///
/// Recording through an id ([`Metrics::incr_id`] and friends) indexes the
/// metric's table instead of comparing names, which is what makes the hot
/// path allocation-free. Ids are declared by [`metric_names!`](crate::metric_names)
/// next to the name constants they intern ([`keys::id`] here,
/// `ape_proto::names::id` for application names); the index space is
/// global across the workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MetricId {
    index: u16,
    name: &'static str,
}

impl MetricId {
    /// Creates an id binding `index` to `name`. On `clippy.toml`'s
    /// `disallowed-methods` list: ids come from
    /// [`metric_names!`](crate::metric_names), which keeps every index
    /// unique.
    pub const fn new(index: u16, name: &'static str) -> Self {
        MetricId { index, name }
    }

    /// The slot index.
    pub const fn index(self) -> usize {
        self.index as usize
    }

    /// The interned name.
    pub const fn name(self) -> &'static str {
        self.name
    }
}

// ---------------------------------------------------------------------------
// Sketch bucket layout.
//
// Observations are latencies in milliseconds (and other non-negative
// meters), so the layout spends its precision where the paper's claims
// live — sub-millisecond:
//
//   * linear region: 1024 buckets of width 1/1024 covering [0, 1);
//     absolute error <= 1/2048 per bucket midpoint.
//   * log region: for v >= 1, bucket = (exponent, top 6 mantissa bits),
//     i.e. 64 sub-buckets per power of two, exponents 0..=40 (values up
//     to 2^41 ~ 2.2e12 ms; larger values clamp into the top bucket).
//     Relative error <= 1/128 < 1% per bucket midpoint.
//
// Bucketing is pure integer bit math on the IEEE-754 representation — no
// `ln()`/`log2()` on the hot path, and bucket indices are deterministic
// bitwise functions of the sample.
// ---------------------------------------------------------------------------

const LINEAR_BUCKETS: usize = 1024;
const SUB_BUCKETS: usize = 64;
const MAX_EXPONENT: usize = 40;
const LOG_BUCKETS: usize = (MAX_EXPONENT + 1) * SUB_BUCKETS;
const SKETCH_BUCKETS: usize = LINEAR_BUCKETS + LOG_BUCKETS;

/// Bucket index for a finite sample. Negative values clamp into bucket 0
/// (the registry's producers record non-negative meters; `min`/`max`/`sum`
/// still track the true values).
fn sketch_bucket(value: f64) -> usize {
    let v = if value > 0.0 { value } else { 0.0 };
    if v < 1.0 {
        // v * 1024 < 1024, so the floor is always a valid linear index.
        (v * LINEAR_BUCKETS as f64) as usize
    } else {
        let bits = v.to_bits();
        let e = ((bits >> 52) & 0x7ff) as usize - 1023;
        let sub = ((bits >> 46) & 0x3f) as usize;
        let log_index = if e > MAX_EXPONENT {
            LOG_BUCKETS - 1
        } else {
            e * SUB_BUCKETS + sub
        };
        LINEAR_BUCKETS + log_index
    }
}

/// Midpoint representative of a bucket, the value quantile queries report
/// (clamped to the exact observed `[min, max]` by the caller).
fn sketch_representative(index: usize) -> f64 {
    if index < LINEAR_BUCKETS {
        (index as f64 + 0.5) / LINEAR_BUCKETS as f64
    } else {
        let li = index - LINEAR_BUCKETS;
        let e = (li / SUB_BUCKETS) as u64;
        let sub = (li % SUB_BUCKETS) as f64;
        // 2^e via exponent-field construction: deterministic bit math, no
        // powi in sight.
        let scale = f64::from_bits((e + 1023) << 52);
        (1.0 + (sub + 0.5) / SUB_BUCKETS as f64) * scale
    }
}

/// Fixed bucket array of a sketch histogram. Debug output summarizes
/// occupancy instead of dumping 3648 counters into assertion messages.
#[derive(Clone, PartialEq)]
struct SketchBuckets(Box<[u64; SKETCH_BUCKETS]>);

impl SketchBuckets {
    fn new() -> Self {
        SketchBuckets(Box::new([0u64; SKETCH_BUCKETS]))
    }
}

impl fmt::Debug for SketchBuckets {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let occupied = self.0.iter().filter(|&&c| c != 0).count();
        write!(f, "SketchBuckets({occupied}/{SKETCH_BUCKETS} occupied)")
    }
}

/// A set of latency samples with quantile queries in fixed memory.
///
/// Storage is one array of 3648 bucket counts: 1024 linear buckets over
/// `[0, 1)` (absolute error ≤ 1/2048) plus 64 log sub-buckets per power
/// of two up to 2^41 (relative error ≤ 1/128 < 1%). A quantile answers
/// the midpoint of the bucket holding the nearest-rank sample, clamped to
/// the observed `[min, max]`. `count`/`sum`/`min`/`max` are exact and
/// maintained incrementally on `record`; the sum is the insertion-order
/// fold `iter().sum::<f64>()` would produce.
///
/// # Examples
///
/// ```
/// use ape_simnet::Histogram;
///
/// let mut h = Histogram::new();
/// for v in [1.0, 2.0, 3.0, 4.0] {
///     h.record(v);
/// }
/// assert_eq!(h.mean(), 2.5);
/// assert_eq!(h.max(), 4.0);
/// assert!((h.p50() - 2.0).abs() <= 0.01 * 2.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    buckets: SketchBuckets,
    count: u64,
    /// Incremental sum. Starts at `-0.0` so the accumulation is bitwise
    /// identical to `iter().sum::<f64>()`, which folds from `-0.0`.
    sum: f64,
    lo: f64,
    hi: f64,
    /// Non-finite observations rejected by [`record`](Self::record).
    dropped: u64,
    /// `Σ mix64(sample.to_bits())`, wrapping: an order-independent fold
    /// over every recorded sample's exact bits, for [`Metrics::digest`].
    fold: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: SketchBuckets::new(),
            count: 0,
            sum: -0.0,
            lo: f64::INFINITY,
            hi: f64::NEG_INFINITY,
            dropped: 0,
            fold: 0,
        }
    }

    /// Records one observation.
    ///
    /// A non-finite value is a bug in the producer (latencies and meter
    /// readings are always finite): debug builds panic on one, release
    /// builds drop it and count it in
    /// [`dropped_samples`](Self::dropped_samples) so the corruption stays
    /// visible instead of poisoning [`quantile`](Self::quantile).
    pub fn record(&mut self, value: f64) {
        if value.is_finite() {
            self.count += 1;
            self.sum += value;
            self.lo = self.lo.min(value);
            self.hi = self.hi.max(value);
            self.fold = self.fold.wrapping_add(mix64(value.to_bits()));
            self.buckets.0[sketch_bucket(value)] += 1;
        } else {
            debug_assert!(false, "non-finite histogram sample: {value}");
            self.dropped += 1;
        }
    }

    /// Number of non-finite observations rejected by
    /// [`record`](Self::record) (release builds only; debug builds panic
    /// at the offending `record` call instead).
    pub fn dropped_samples(&self) -> u64 {
        self.dropped
    }

    /// Number of recorded observations.
    pub fn count(&self) -> usize {
        self.count as usize
    }

    /// Whether no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean, or 0.0 when empty. Exact, O(1).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest observation, or 0.0 when empty. Exact, O(1).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.lo
        }
    }

    /// Largest observation, or 0.0 when empty. Exact, O(1).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.hi
        }
    }

    /// Sum of all observations, or 0.0 when empty. Exact, O(1).
    pub fn sum(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum
        }
    }

    /// The `q`-quantile, `q` in `[0, 1]`: the midpoint of the bucket that
    /// holds the nearest-rank sample, clamped to the observed
    /// `[min, max]` (relative error ≤ 1% at 1.0 and above, absolute error
    /// ≤ 1/2048 below).
    ///
    /// Returns 0.0 when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.0.iter().enumerate() {
            if c == 0 {
                continue;
            }
            cum += c;
            if cum >= rank {
                // The rank-th smallest sample landed in this bucket; its
                // midpoint is within the error bound, and clamping to the
                // exact observed extremes can only move it closer.
                return sketch_representative(i).clamp(self.lo, self.hi);
            }
        }
        self.hi
    }

    /// Median (50th percentile).
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Heap footprint of the bucket array in bytes.
    pub fn approx_bytes(&self) -> usize {
        SKETCH_BUCKETS * std::mem::size_of::<u64>()
    }
}

/// A time series of `(time, value)` points, e.g. CPU utilization samples.
///
/// A series keeps its aggregates, not its points (DESIGN.md §14): the
/// count, the last point, the value sum and maximum, the trapezoid
/// integral behind `time_weighted_mean`, and an order-dependent 64-bit
/// fold of every point's time and value bits for [`Metrics::digest`]. All
/// of them are folded at `record` time in record order, and none owns heap
/// memory, so a series costs the same after a minute as after a day.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    len: usize,
    /// The last point (`(ZERO, 0.0)` before the first).
    last: (SimTime, f64),
    /// Incremental value sum; starts at `-0.0` to match `Sum for f64`.
    sum: f64,
    vmax: f64,
    /// Trapezoidal integral accumulators (see `time_weighted_mean`).
    area: f64,
    span: f64,
    /// `mix64(mix64(fold ^ time) ^ value)` per point, in record order.
    /// Each step is a bijection of the fold, so moving one point's time
    /// or flipping one bit of its value always changes the result.
    fold: u64,
}

impl Default for TimeSeries {
    fn default() -> Self {
        TimeSeries::new()
    }
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries {
            len: 0,
            last: (SimTime::ZERO, 0.0),
            sum: -0.0,
            vmax: f64::NEG_INFINITY,
            area: 0.0,
            span: 0.0,
            fold: 0,
        }
    }

    /// Appends a point. Points should be appended in time order.
    pub fn record(&mut self, at: SimTime, value: f64) {
        let (lt, lv) = self.last;
        // Incremental trapezoid: one segment per consecutive pair, in the
        // exact order and arithmetic of a `windows(2)` fold. Segments
        // whose time does not advance (duplicate timestamps or a backward
        // jump) contribute nothing.
        if self.len > 0 && at > lt {
            let dt = at.saturating_since(lt).as_secs_f64();
            self.area += 0.5 * (lv + value) * dt;
            self.span += dt;
        }
        self.sum += value;
        self.vmax = self.vmax.max(value);
        self.fold = mix64(mix64(self.fold ^ at.as_nanos()) ^ value.to_bits());
        self.last = (at, value);
        self.len += 1;
    }

    /// Number of recorded points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Mean of the values, or 0.0 when empty. O(1).
    pub fn mean(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.sum / self.len as f64
        }
    }

    /// Time-weighted (trapezoidal) mean of the values, or the point mean
    /// when fewer than two points span a positive interval.
    ///
    /// Unlike [`TimeSeries::mean`], which weights every sample equally
    /// regardless of spacing, this integrates the piecewise-linear curve
    /// through the points and divides by the covered time span — the right
    /// notion of "average CPU/memory" when sampling is uneven. The
    /// integral accumulates incrementally at `record` time.
    pub fn time_weighted_mean(&self) -> f64 {
        if self.span > 0.0 {
            self.area / self.span
        } else {
            self.mean()
        }
    }

    /// Maximum value, or 0.0 when empty. O(1).
    pub fn max(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.vmax
        }
    }
}

/// Every metric of one kind, one slot each. A declared name sits at its
/// [`MetricId::index`], a family member at its prefix id's index and the
/// caller's slot, so a write is an indexed load; a read by name walks the
/// occupied slots.
#[derive(Debug, Clone, Default)]
struct Table<T> {
    /// `MetricId::index()` → the id's name and value; `None` until the
    /// id's first write.
    declared: Vec<Option<(&'static str, T)>>,
    /// Prefix `MetricId::index()` → member slot → the member's full name
    /// and value; `None` until the slot's first write.
    members: Vec<Vec<Option<(String, T)>>>,
}

impl<T: Default> Table<T> {
    /// The value interned as `id`: no string compare and no allocation
    /// once the id has been written.
    #[inline]
    fn interned(&mut self, id: MetricId) -> &mut T {
        if !matches!(self.declared.get(id.index()), Some(Some(_))) {
            self.intern(id);
        }
        match &mut self.declared[id.index()] {
            Some((_, value)) => value,
            None => unreachable!("interned above"),
        }
    }

    #[cold]
    fn intern(&mut self, id: MetricId) {
        if self.declared.len() <= id.index() {
            self.declared.resize_with(id.index() + 1, || None);
        }
        self.declared[id.index()] = Some((id.name(), T::default()));
    }

    /// The value named `prefix`'s name followed by `member`, which the
    /// caller numbers `slot` within the family. The slot's first write
    /// builds the name; a slot that later names another member is a bug in
    /// the caller's numbering.
    fn under(&mut self, prefix: MetricId, member: &str, slot: usize) -> &mut T {
        if self.members.len() <= prefix.index() {
            self.members.resize_with(prefix.index() + 1, Vec::new);
        }
        let slots = &mut self.members[prefix.index()];
        if slots.len() <= slot {
            slots.resize_with(slot + 1, || None);
        }
        let (name, value) =
            slots[slot].get_or_insert_with(|| ([prefix.name(), member].concat(), T::default()));
        debug_assert!(
            name.strip_prefix(prefix.name()) == Some(member),
            "slot {slot} of `{0}` holds `{name}`, not `{0}{member}`",
            prefix.name()
        );
        value
    }

    /// Every `(name, value)` pair, declared names first.
    fn iter(&self) -> impl Iterator<Item = (&str, &T)> {
        let declared = self.declared.iter().flatten().map(|(k, v)| (*k, v));
        let members = self.members.iter().flatten().flatten();
        declared.chain(members.map(|(k, v)| (k.as_str(), v)))
    }

    fn get(&self, name: &str) -> Option<&T> {
        self.iter().find(|&(k, _)| k == name).map(|(_, v)| v)
    }

    /// `(name, value)` pairs in name order: the order `digest`, `Display`
    /// and the `*_names` iterators present.
    fn sorted(&self) -> Vec<(&str, &T)> {
        let mut out: Vec<(&str, &T)> = self.iter().collect();
        out.sort_by(|a, b| a.0.cmp(b.0));
        out
    }

    /// Heap bytes of the slot tables and the members' names; `value_bytes`
    /// adds what each value holds on the heap.
    fn approx_bytes(&self, value_bytes: impl Fn(&T) -> usize) -> usize {
        let slots: usize = self.members.iter().map(Vec::capacity).sum();
        let tables = self.declared.capacity() * std::mem::size_of::<Option<(&str, T)>>()
            + slots * std::mem::size_of::<Option<(String, T)>>()
            + self.members.capacity() * std::mem::size_of::<Vec<Option<(String, T)>>>();
        let names: usize = (self.members.iter().flatten().flatten())
            .map(|(k, _)| k.capacity())
            .sum();
        self.iter()
            .fold(tables + names, |total, (_, v)| total + value_bytes(v))
    }
}

/// Central metric registry for a simulation run.
///
/// Harnesses read by the stable, documented names in [`keys`] and
/// `ape_proto::names`. Writes take the [`MetricId`] that interns such a
/// name, whose index is the metric's slot — the same metric reached
/// without a string compare or an allocation — so a name nobody declared
/// cannot be written (the per-app family goes through
/// [`observe_under`](Self::observe_under)). When the world's profiler is
/// on, each write charges its host time to [`ProfCategory::Metrics`].
///
/// ```
/// use ape_simnet::{keys, Metrics};
/// let mut m = Metrics::new();
/// m.incr_id(keys::id::NET_MESSAGES, 1);
/// assert_eq!(m.counter(keys::NET_MESSAGES), 1);
/// ```
///
/// ```compile_fail
/// use ape_simnet::{keys, Metrics};
/// let mut m = Metrics::new();
/// m.incr_id("net.messages", 1);
/// assert_eq!(m.counter(keys::NET_MESSAGES), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    counters: Table<u64>,
    histograms: Table<Histogram>,
    series: Table<TimeSeries>,
    /// The registry's own host time, charged to [`ProfCategory::Metrics`];
    /// enabled and read by the [`World`](crate::World).
    pub(crate) prof: Profiler,
}

impl Metrics {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    // --- counters ---------------------------------------------------------

    /// Adds `delta` to the counter interned as `id`: no string compare,
    /// no allocation.
    pub fn incr_id(&mut self, id: MetricId, delta: u64) {
        let t = self.prof.start();
        *self.counters.interned(id) += delta;
        self.prof.record(ProfCategory::Metrics, t);
    }

    /// Current value of a counter (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    // --- histograms -------------------------------------------------------

    /// Records an observation into the histogram interned as `id`: no
    /// string compare, no allocation.
    pub fn observe_id(&mut self, id: MetricId, value: f64) {
        let t = self.prof.start();
        self.histograms.interned(id).record(value);
        self.prof.record(ProfCategory::Metrics, t);
    }

    /// Records an observation into the histogram named `prefix`'s name
    /// followed by `member` — the only write keyed by a run-time string,
    /// for a family whose members (one per app) are not known until the
    /// run is configured. `slot` is the member's dense number in the
    /// caller's family (an app's position in its suite), and one slot
    /// stays one member: the slot's first write builds the name, later
    /// ones are a table index with no compare and no allocation. A member
    /// is its own histogram even where a declared id spells the same name;
    /// `ape_proto::names` declares none that does.
    pub fn observe_under(&mut self, prefix: MetricId, member: &str, slot: usize, value: f64) {
        let t = self.prof.start();
        self.histograms.under(prefix, member, slot).record(value);
        self.prof.record(ProfCategory::Metrics, t);
    }

    /// Read access to a histogram, if it exists.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Mean of a histogram, or 0.0 if absent.
    pub fn mean(&self, name: &str) -> f64 {
        self.histogram(name).map_or(0.0, Histogram::mean)
    }

    /// Quantile (`q` in `[0, 1]`) of a histogram, or 0.0 if absent.
    pub fn quantile(&self, name: &str, q: f64) -> f64 {
        self.histogram(name).map_or(0.0, |h| h.quantile(q))
    }

    // --- time series ------------------------------------------------------

    /// Appends a point to the series interned as `id`: no string compare,
    /// no allocation.
    pub fn record_point_id(&mut self, id: MetricId, at: SimTime, value: f64) {
        let t = self.prof.start();
        self.series.interned(id).record(at, value);
        self.prof.record(ProfCategory::Metrics, t);
    }

    /// Read access to a time series, if it exists.
    pub fn time_series(&self, name: &str) -> Option<&TimeSeries> {
        self.series.get(name)
    }

    // --- names, digest ---------------------------------------------

    /// Names of all histograms currently registered, sorted.
    pub fn histogram_names(&self) -> impl Iterator<Item = &str> {
        self.histograms.sorted().into_iter().map(|(k, _)| k)
    }

    /// Names of all counters currently registered, sorted.
    pub fn counter_names(&self) -> impl Iterator<Item = &str> {
        self.counters.sorted().into_iter().map(|(k, _)| k)
    }

    /// Names of all time series currently registered, sorted.
    pub fn series_names(&self) -> impl Iterator<Item = &str> {
        self.series.sorted().into_iter().map(|(k, _)| k)
    }

    /// Stable 64-bit digest of the registry's full content, used by the
    /// schedule-perturbation race detector to compare runs.
    ///
    /// Counters, histograms and time series hash in key order. A histogram
    /// hashes as its count plus the order-independent fold of every
    /// sample's bit pattern, so two runs that recorded the same samples in
    /// a different order digest alike and two that differ in one bit of one
    /// sample do not. A time series hashes as its length plus its
    /// order-dependent fold of every point's time and value bits, so there
    /// the order of the points counts too. The order in which names were
    /// first written does not enter.
    pub fn digest(&self) -> u64 {
        use crate::determinism::Fnv64;
        let counters = self.counters.sorted();
        let histograms = self.histograms.sorted();
        let series = self.series.sorted();
        let mut h = Fnv64::new();
        h.write_u64(counters.len() as u64);
        for (k, v) in counters {
            h.write(k.as_bytes());
            h.write_u64(*v);
        }
        h.write_u64(histograms.len() as u64);
        for (k, hist) in histograms {
            h.write(k.as_bytes());
            h.write_u64(hist.count() as u64);
            h.write_u64(hist.fold);
        }
        h.write_u64(series.len() as u64);
        for (k, s) in series {
            h.write(k.as_bytes());
            h.write_u64(s.len() as u64);
            h.write_u64(s.fold);
        }
        h.finish()
    }

    /// Approximate heap footprint of the registry in bytes (tables, owned
    /// names, bucket arrays), counting each buffer's capacity rather than
    /// its length. A time series owns no heap memory.
    pub fn approx_bytes(&self) -> usize {
        self.counters.approx_bytes(|_| 0)
            + self.histograms.approx_bytes(Histogram::approx_bytes)
            + self.series.approx_bytes(|_| 0)
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in self.counters.sorted() {
            writeln!(f, "counter {k} = {v}")?;
        }
        for (k, h) in self.histograms.sorted() {
            writeln!(
                f,
                "hist {k}: n={} mean={:.3} p50={:.3} p99={:.3} dropped={}",
                h.count(),
                h.mean(),
                h.p50(),
                h.p99(),
                h.dropped_samples()
            )?;
        }
        for (k, s) in self.series.sorted() {
            writeln!(f, "series {k}: n={} mean={:.3}", s.len(), s.mean())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use ape_check::check;

    /// The metric histogram the registry shipped with before the sketch:
    /// every finite observation kept, quantiles by sort and nearest rank.
    /// Frozen as the ground truth the sketch is held to; do not "improve"
    /// it.
    #[derive(Debug, Default)]
    struct ExactHistogram {
        samples: Vec<f64>,
        sorted: bool,
    }

    impl ExactHistogram {
        fn new() -> Self {
            ExactHistogram::default()
        }

        /// Records one observation; a non-finite one is dropped.
        fn record(&mut self, value: f64) {
            if value.is_finite() {
                self.samples.push(value);
                self.sorted = false;
            }
        }

        fn count(&self) -> usize {
            self.samples.len()
        }

        /// Arithmetic mean, or 0.0 when empty.
        fn mean(&self) -> f64 {
            if self.samples.is_empty() {
                0.0
            } else {
                self.samples.iter().sum::<f64>() / self.samples.len() as f64
            }
        }

        /// Smallest observation, or 0.0 when empty.
        fn min(&self) -> f64 {
            if self.samples.is_empty() {
                0.0
            } else {
                self.samples.iter().copied().fold(f64::INFINITY, f64::min)
            }
        }

        /// Largest observation, or 0.0 when empty.
        fn max(&self) -> f64 {
            if self.samples.is_empty() {
                0.0
            } else {
                self.samples
                    .iter()
                    .copied()
                    .fold(f64::NEG_INFINITY, f64::max)
            }
        }

        /// The `q`-quantile (nearest-rank), `q` in `[0, 1]`; 0.0 when empty.
        fn quantile(&mut self, q: f64) -> f64 {
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
    }

    #[test]
    fn exact_histogram_empty_is_zeroed() {
        let mut h = ExactHistogram::new();
        h.record(f64::NAN);
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.quantile(0.99), 0.0);
    }

    /// Test-local names, continuing the simulator's index space.
    #[expect(clippy::disallowed_methods, reason = "test-local names")]
    mod local {
        crate::metric_names! {
            first_index = crate::keys::id::ALL.len() as u16;
            C = "c";
            X = "x";
            H = "h";
            LAT = "lat";
            S = "s";
            LAT_PREFIX = "lat.";
        }
    }
    use local::id;

    /// Quantiles the differential checks read.
    const CHECK_QUANTILES: [f64; 4] = [0.5, 0.9, 0.99, 0.999];

    /// Asserts `got` is within the sketch's documented bound of the exact
    /// nearest-rank answer: 1% relative, or one linear bucket below 1.0.
    fn assert_within_bound(got: f64, exact: f64, what: &str) {
        let tol = (0.01 * exact.abs()).max(1.0 / 1024.0);
        assert!(
            (got - exact).abs() <= tol,
            "{what}: sketch {got} vs exact {exact} (tol {tol})"
        );
    }

    /// The integers 1..=100 in the live histogram and the exact oracle.
    fn one_to_hundred() -> (Histogram, ExactHistogram) {
        let mut h = Histogram::new();
        let mut exact = ExactHistogram::new();
        for v in 1..=100 {
            h.record(v as f64);
            exact.record(v as f64);
        }
        (h, exact)
    }

    #[test]
    fn time_weighted_mean_weights_by_interval() {
        let mut s = TimeSeries::new();
        // 0.0 held for 9 s, then 1.0 for 1 s: point mean is ~0.5 but the
        // trapezoidal mean must reflect the long quiet stretch.
        s.record(SimTime::from_secs(0), 0.0);
        s.record(SimTime::from_secs(9), 0.0);
        s.record(SimTime::from_secs(10), 1.0);
        let tw = s.time_weighted_mean();
        assert!((tw - 0.05).abs() < 1e-12, "tw {tw}");
        assert!((s.mean() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn time_weighted_mean_degenerate_cases() {
        let empty = TimeSeries::new();
        assert_eq!(empty.time_weighted_mean(), 0.0);

        let mut single = TimeSeries::new();
        single.record(SimTime::from_secs(1), 4.0);
        assert_eq!(single.time_weighted_mean(), 4.0);

        // Duplicate timestamps span no time: falls back to the point mean.
        let mut dup = TimeSeries::new();
        dup.record(SimTime::from_secs(1), 2.0);
        dup.record(SimTime::from_secs(1), 6.0);
        assert_eq!(dup.time_weighted_mean(), 4.0);
    }

    #[test]
    fn time_weighted_mean_skips_backward_merge_seams() {
        // Where time jumps backward the segment adds nothing: it must not
        // poison the integral.
        let mut s = TimeSeries::new();
        s.record(SimTime::from_secs(0), 2.0);
        s.record(SimTime::from_secs(10), 2.0);
        s.record(SimTime::from_secs(0), 4.0);
        s.record(SimTime::from_secs(10), 4.0);
        assert!((s.time_weighted_mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_percentiles_nearest_rank() {
        let (h, mut exact) = one_to_hundred();
        for (got, q) in [(h.p50(), 0.5), (h.p95(), 0.95), (h.p99(), 0.99)] {
            assert_within_bound(got, exact.quantile(q), "percentile");
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-finite histogram sample")]
    fn histogram_panics_on_non_finite_in_debug() {
        let mut h = Histogram::new();
        h.record(f64::NAN);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn histogram_drops_and_counts_non_finite_in_release() {
        let mut h = Histogram::new();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(2.0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.mean(), 2.0);
        assert_eq!(h.dropped_samples(), 2);
        // The quantile path stays panic-free regardless.
        assert_eq!(h.p50(), 2.0);
    }

    #[test]
    fn histogram_empty_is_zeroed() {
        let h = Histogram::new();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.p99(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.sum(), 0.0);
        assert!(h.is_empty());
    }

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new();
        m.incr_id(id::X, 2);
        m.incr_id(id::X, 3);
        assert_eq!(m.counter(local::X), 5);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn registry_histograms_and_series() {
        let mut m = Metrics::new();
        m.observe_id(id::LAT, 4.0);
        m.observe_id(id::LAT, 6.0);
        assert_eq!(m.mean(local::LAT), 5.0);
        assert_eq!(m.quantile(local::LAT, 1.0), 6.0);
        m.record_point_id(id::S, SimTime::from_secs(1), 0.25);
        assert_eq!(m.time_series(local::S).unwrap().len(), 1);
    }

    #[test]
    fn quantile_matches_percentile_and_shortcuts() {
        let (h, mut exact) = one_to_hundred();
        assert_eq!(h.p50(), h.quantile(0.50));
        assert_eq!(h.p95(), h.quantile(0.95));
        assert_eq!(h.p99(), h.quantile(0.99));
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_within_bound(h.quantile(q), exact.quantile(q), "quantile");
        }

        let mut m = Metrics::new();
        m.observe_id(id::LAT, 1.0);
        m.observe_id(id::LAT, 9.0);
        assert_within_bound(m.quantile(local::LAT, 0.5), 1.0, "registry quantile");
        assert_eq!(m.quantile("missing", 0.5), 0.0);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn quantile_rejects_out_of_range() {
        let mut h = Histogram::new();
        h.record(1.0);
        h.quantile(1.5);
    }

    #[test]
    fn net_keys_are_stable() {
        assert_eq!(keys::NET_MESSAGES, "net.messages");
        assert_eq!(keys::NET_BYTES, "net.bytes");
        assert_eq!(keys::NET_DROPPED, "net.dropped");
    }

    #[test]
    fn time_series_stats() {
        let mut s = TimeSeries::new();
        assert_eq!(s.mean(), 0.0);
        s.record(SimTime::ZERO, 2.0);
        s.record(SimTime::from_secs(1), 4.0);
        assert_eq!(s.mean(), 3.0);
        assert_eq!(s.max(), 4.0);
        assert!(!s.is_empty());
    }

    #[test]
    fn display_lists_entries() {
        let mut m = Metrics::new();
        m.incr_id(id::C, 1);
        m.observe_id(id::H, 1.0);
        let text = format!("{m}");
        assert!(text.contains("counter c = 1"));
        assert!(text.contains("hist h"));
    }

    // --- fixed-memory plane ----------------------------------------------

    #[test]
    fn net_key_ids_intern_their_names() {
        assert_eq!(keys::id::NET_MESSAGES.name(), keys::NET_MESSAGES);
        assert_eq!(keys::id::NET_BYTES.name(), keys::NET_BYTES);
        assert_eq!(keys::id::NET_DROPPED.name(), keys::NET_DROPPED);
        assert_eq!(keys::id::NET_FAULT_DROPPED.name(), keys::NET_FAULT_DROPPED);
        // Indices are positions in the declaring list, and a list that
        // continues another's index space starts where it ends.
        for (i, id) in keys::id::ALL.iter().chain(local::id::ALL).enumerate() {
            assert_eq!(id.index(), i, "{} out of position", id.name());
        }
        assert_eq!(id::C.index(), keys::id::ALL.len());
    }

    #[test]
    fn interned_and_string_recording_share_one_metric() {
        let mut m = Metrics::new();
        // A family member is one histogram per slot...
        m.observe_under(id::LAT_PREFIX, "news", 0, 1.0);
        m.observe_under(id::LAT_PREFIX, "news", 0, 5.0);
        m.observe_under(id::LAT_PREFIX, "mail", 1, 7.0);
        assert_eq!(m.histogram("lat.news").unwrap().count(), 2);
        assert_eq!(m.mean("lat.news"), 3.0);
        assert_eq!(m.mean("lat.mail"), 7.0);
        // ...apart from every declared id, the prefix's own included.
        m.observe_id(id::LAT, 9.0);
        assert_eq!(m.mean(local::LAT), 9.0);
        assert_eq!(m.mean("lat.news"), 3.0);
        assert!(m.histogram(local::LAT_PREFIX).is_none());
        assert!(m.histogram_names().eq(["lat", "lat.mail", "lat.news"]));

        m.incr_id(keys::id::NET_MESSAGES, 10);
        assert_eq!(m.counter(keys::NET_MESSAGES), 10);
        assert_eq!(m.counter_names().count(), 1);

        m.record_point_id(keys::id::NET_DROPPED, SimTime::ZERO, 1.0);
        m.record_point_id(keys::id::NET_DROPPED, SimTime::from_secs(1), 2.0);
        assert_eq!(m.time_series(keys::NET_DROPPED).unwrap().len(), 2);
    }

    /// One slot stays one member: a caller whose numbering gives a slot a
    /// second member has a bug, which debug builds name.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "slot 0 of `lat.` holds `lat.news`, not `lat.mail`")]
    fn a_slot_that_names_a_second_member_panics_in_debug() {
        let mut m = Metrics::new();
        m.observe_under(id::LAT_PREFIX, "news", 0, 1.0);
        m.observe_under(id::LAT_PREFIX, "mail", 0, 1.0);
    }

    /// In which order names were first written, and through which of the
    /// two writes, is invisible: same digest, same `Display`.
    #[test]
    fn write_order_across_the_two_apis_is_invisible() {
        let prefixed_first = |m: &mut Metrics| {
            m.observe_under(id::LAT_PREFIX, "news", 0, 64.0);
            m.incr_id(keys::id::NET_MESSAGES, 7);
            m.record_point_id(keys::id::NET_DROPPED, SimTime::from_secs(2), 1.5);
            m.observe_under(id::LAT_PREFIX, "only", 1, 1.0);
            m.observe_id(id::LAT, 2.0);
        };
        let interned_first = |m: &mut Metrics| {
            m.observe_id(id::LAT, 2.0);
            m.observe_under(id::LAT_PREFIX, "only", 1, 1.0);
            m.record_point_id(keys::id::NET_DROPPED, SimTime::from_secs(2), 1.5);
            m.incr_id(keys::id::NET_MESSAGES, 7);
            m.observe_under(id::LAT_PREFIX, "news", 0, 64.0);
        };
        let mut one = Metrics::new();
        prefixed_first(&mut one);
        interned_first(&mut one);
        let mut other = Metrics::new();
        interned_first(&mut other);
        prefixed_first(&mut other);
        assert_eq!(one.digest(), other.digest());
        assert_eq!(format!("{one}"), format!("{other}"));
    }

    #[test]
    fn sketch_quantiles_stay_within_error_bound() {
        let mut sketch = Histogram::new();
        let mut exact = ExactHistogram::new();
        // Mixed sub-millisecond and long-tail values.
        for i in 0..5000u64 {
            let v = (i as f64 * 0.731) % 900.0 + (i as f64) / 7000.0;
            sketch.record(v);
            exact.record(v);
        }
        for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
            assert_within_bound(sketch.quantile(q), exact.quantile(q), &format!("q={q}"));
        }
        assert_eq!(sketch.count(), exact.count());
        assert_eq!(sketch.min(), exact.min());
        assert_eq!(sketch.max(), exact.max());
        assert!((sketch.mean() - exact.mean()).abs() < 1e-9);
    }

    #[test]
    fn sketch_memory_is_constant() {
        let mut sketch = Histogram::new();
        let before = sketch.approx_bytes();
        for i in 0..100_000u64 {
            sketch.record(i as f64 * 0.01);
        }
        assert_eq!(sketch.approx_bytes(), before);
        assert_eq!(sketch.count(), 100_000);
    }

    #[test]
    fn sketch_bucketing_is_monotone_across_the_linear_log_seam() {
        let mut prev = 0;
        for i in 0..100_000 {
            let v = i as f64 * 0.0005; // crosses 1.0 at i == 2000
            let b = sketch_bucket(v);
            assert!(b >= prev, "bucket order inverted at v={v}");
            prev = b;
        }
        // Representatives are monotone too, and clamping covers the ends.
        assert!(sketch_bucket(0.0) == 0);
        assert!(sketch_bucket(f64::MAX) == SKETCH_BUCKETS - 1);
        assert!(sketch_bucket(-5.0) == 0);
        let mut prev_rep = f64::NEG_INFINITY;
        for b in 0..SKETCH_BUCKETS {
            let r = sketch_representative(b);
            assert!(r > prev_rep, "representative order inverted at {b}");
            prev_rep = r;
        }
    }

    #[test]
    fn sketch_digest_ignores_recording_order() {
        let mut forward = Metrics::new();
        let mut reverse = Metrics::new();
        let values: Vec<f64> = (0..200).map(|i| (i as f64) * 0.37).collect();
        for v in &values {
            forward.observe_id(id::LAT, *v);
        }
        for v in values.iter().rev() {
            reverse.observe_id(id::LAT, *v);
        }
        assert_eq!(forward.digest(), reverse.digest());
    }

    #[test]
    fn digest_separates_streams_that_share_every_bucket() {
        // 10.0 and 10.01 share the bucket [10, 10.125), so the two
        // histograms agree on every count and every quantile; only the
        // sample-bit fold can tell the runs apart.
        let mut a = Metrics::new();
        let mut b = Metrics::new();
        for v in [5.0, 10.0, 20.0] {
            a.observe_id(id::LAT, v);
        }
        for v in [5.0, 10.01, 20.0] {
            b.observe_id(id::LAT, v);
        }
        let (ha, hb) = (a.histogram("lat").unwrap(), b.histogram("lat").unwrap());
        assert_eq!(ha.buckets, hb.buckets);
        for q in CHECK_QUANTILES {
            assert_eq!(ha.quantile(q).to_bits(), hb.quantile(q).to_bits());
        }
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn registry_quantiles_track_exact_oracle() {
        // Registry-level differential check: observations go in by id,
        // quantiles come out through `Metrics::quantile`, and the frozen
        // exact histogram is the oracle.
        let mut m = Metrics::new();
        let mut oracle = ExactHistogram::new();
        for i in 0..2000u64 {
            let v = (i % 97) as f64 * 0.25;
            m.observe_id(keys::id::NET_BYTES, v);
            oracle.record(v);
        }
        for q in CHECK_QUANTILES {
            assert_within_bound(
                m.quantile(keys::NET_BYTES, q),
                oracle.quantile(q),
                "registry",
            );
        }
    }

    #[test]
    fn approx_bytes_counts_real_slot_sizes() {
        let mut m = Metrics::new();
        m.observe_id(keys::id::NET_BYTES, 1.0);
        m.record_point_id(keys::id::NET_DROPPED, SimTime::ZERO, 1.0);
        let hist = m.histogram(keys::NET_BYTES).unwrap();
        let tables = m.histograms.declared.capacity()
            * std::mem::size_of::<Option<(&str, Histogram)>>()
            + m.series.declared.capacity() * std::mem::size_of::<Option<(&str, TimeSeries)>>();
        assert_eq!(m.approx_bytes(), tables + hist.approx_bytes());
        // More points add nothing: a series owns no heap memory.
        let before = m.approx_bytes();
        for s in 1..1000 {
            m.record_point_id(keys::id::NET_DROPPED, SimTime::from_secs(s), s as f64);
        }
        assert_eq!(m.approx_bytes(), before);
        // A name built under a prefix owns its string; that is counted too.
        let before = m.approx_bytes();
        m.observe_under(id::LAT_PREFIX, "dynamic", 2, 1.0);
        assert!(m.approx_bytes() >= before + "lat.dynamic".len());
    }

    #[test]
    fn display_shows_quantiles_and_drops() {
        let mut m = Metrics::new();
        for v in 1..=100 {
            m.observe_id(id::H, v as f64);
        }
        let text = format!("{m}");
        let field = |key: &str| -> f64 {
            let rest = &text[text.find(key).expect(key) + key.len()..];
            let end = rest.find(' ').unwrap_or(rest.len());
            rest[..end].trim().parse().expect("numeric field")
        };
        assert_within_bound(field("p50="), 50.0, "display p50");
        assert_within_bound(field("p99="), 99.0, "display p99");
        assert!(text.contains("dropped=0"), "display: {text}");
        // Display must not disturb the digest.
        let before = m.digest();
        let _ = format!("{m}");
        assert_eq!(m.digest(), before);
    }

    #[test]
    fn self_profile_counts_recording_calls() {
        let mut m = Metrics::new();
        m.incr_id(id::C, 1); // before enabling: not counted
        m.prof.enable();
        m.incr_id(id::C, 1);
        m.observe_under(id::LAT_PREFIX, "news", 0, 1.0);
        m.observe_id(id::H, 1.0);
        m.record_point_id(id::S, SimTime::ZERO, 1.0);
        assert_eq!(m.prof.calls(ProfCategory::Metrics), 4);
        let off = Metrics::new();
        assert_eq!(off.prof.report(), Profiler::new().report());
    }

    #[test]
    fn incremental_sum_matches_iter_sum_bitwise() {
        // Within one recording stream the incremental sum must reproduce
        // the bits of the insertion-order `iter().sum::<f64>()` fold.
        let values: Vec<f64> = (0..1000).map(|i| (i as f64) * 0.1 + 0.0137).collect();
        let mut h = Histogram::new();
        for v in &values {
            h.record(*v);
        }
        let folded: f64 = values.iter().sum();
        assert_eq!(h.sum().to_bits(), folded.to_bits());
        assert_eq!(h.mean().to_bits(), (folded / values.len() as f64).to_bits());
    }

    // --- series aggregates -------------------------------------------------

    /// The series as it was when it kept every point in a `Vec`, its
    /// aggregates folded at query time: the oracle the incremental ones are
    /// checked against, bit for bit.
    struct VecSeries(Vec<(SimTime, f64)>);

    impl VecSeries {
        /// `[mean, max, time_weighted_mean]` as `TimeSeries` defines them.
        fn aggregates(&self) -> [f64; 3] {
            if self.0.is_empty() {
                return [0.0; 3];
            }
            let mean = self.0.iter().map(|p| p.1).sum::<f64>() / self.0.len() as f64;
            let max = self.0.iter().fold(f64::NEG_INFINITY, |m, p| m.max(p.1));
            let (mut area, mut span) = (0.0, 0.0);
            for w in self.0.windows(2) {
                let ((lt, lv), (t, v)) = (w[0], w[1]);
                if t > lt {
                    let dt = t.saturating_since(lt).as_secs_f64();
                    area += 0.5 * (lv + v) * dt;
                    span += dt;
                }
            }
            [mean, max, if span > 0.0 { area / span } else { mean }]
        }
    }

    /// Feeds `stream` to a series and checks its length and aggregates
    /// against the oracle's, bitwise. A NaN only has to meet a NaN: which
    /// payload and sign an operation on NaNs returns is unspecified in
    /// Rust, and two compiled copies of one sum may differ there.
    fn assert_matches_oracle(stream: &[(u64, f64)]) {
        let oracle = VecSeries(
            stream
                .iter()
                .map(|&(t, v)| (SimTime::from_nanos(t), v))
                .collect(),
        );
        let mut series = TimeSeries::new();
        for &(at, v) in &oracle.0 {
            series.record(at, v);
        }
        assert_eq!(
            (series.len(), series.is_empty()),
            (stream.len(), stream.is_empty())
        );
        let got = [series.mean(), series.max(), series.time_weighted_mean()];
        for (what, (a, b)) in ["mean", "max", "time-weighted mean"]
            .iter()
            .zip(got.into_iter().zip(oracle.aggregates()))
        {
            assert!(
                a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
                "{what}: {a:e} ({:#x}), the oracle {b:e} ({:#x})",
                a.to_bits(),
                b.to_bits()
            );
        }
    }

    const SECOND: u64 = 1_000_000_000;

    // The series keeps aggregates rather than points; the edge streams
    // that once checked a lossless round trip now check those aggregates
    // against the oracle.
    #[test]
    fn series_round_trips_merge_seams_and_repeated_times() {
        // Three runs of points back to back: time goes backward twice.
        let run = |k: f64| (0..50).map(move |i| (i * SECOND, k + i as f64 * 0.01));
        assert_matches_oracle(&run(1.0).chain(run(2.0)).chain(run(3.0)).collect::<Vec<_>>());
        // Repeated times, alone and between forward steps.
        let mut stream = vec![(7 * SECOND, 1.0); 20];
        stream.extend((0..20).map(|i| (7 * SECOND + (i / 4) * 61, i as f64)));
        assert_matches_oracle(&stream);
        assert_matches_oracle(&[]);
        assert_matches_oracle(&[(0, 0.0)]);
    }

    #[test]
    fn series_round_trips_clock_extremes() {
        // Jumps near the top of the clock in both directions and across
        // the whole range.
        assert_matches_oracle(&[(u64::MAX - 5, 1.0), (u64::MAX - 4, 2.0), (u64::MAX, 3.0)]);
        assert_matches_oracle(&[
            (1 << 62, 0.5),
            (u64::MAX, 0.25),
            (0, 0.125),
            (u64::MAX, 1.0),
            (1 << 63, 2.0),
            ((1 << 63) - 1, 3.0),
            (1 << 63, 4.0),
            (u64::MAX - 1, 5.0),
            (1, 6.0),
        ]);
    }

    #[test]
    fn series_round_trips_every_kind_of_float() {
        // Every class of float, alone and each pair back to back.
        let specials = [
            0.0,
            -0.0,
            f64::from_bits(0x7ff8_0000_dead_beef), // quiet NaN with a payload
            f64::from_bits(0xfff0_0000_0000_0001), // negative signalling NaN
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(1), // smallest subnormal
            -f64::MIN_POSITIVE / 2.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            1.0,
            0.1,
        ];
        let spaced = |gap: u64, values: &[f64]| -> Vec<(u64, f64)> {
            values
                .iter()
                .enumerate()
                .map(|(i, &v)| (i as u64 * gap, v))
                .collect()
        };
        assert_matches_oracle(&spaced(SECOND, &specials));
        let pairs: Vec<f64> = specials
            .iter()
            .flat_map(|&a| specials.map(|b| [a, b]))
            .flatten()
            .collect();
        assert_matches_oracle(&spaced(61, &pairs));
    }

    #[test]
    fn series_aggregates_match_oracle_on_random_streams() {
        // Times step forward, repeat, jump back or leap; values repeat,
        // drift, take a special or take arbitrary bits.
        for seed in 0..64u64 {
            let mut state = seed;
            let mut draw = || {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                mix64(state)
            };
            let (mut t, mut v) = (draw(), 0.0f64);
            let stream: Vec<(u64, f64)> = (0..500)
                .map(|_| {
                    let r = draw();
                    t = match r % 8 {
                        0 => t,
                        1 => t.wrapping_sub(r >> 40),
                        2 => draw(),
                        _ => t.wrapping_add(61 + (r >> 60)),
                    };
                    v = match (r >> 8) % 6 {
                        0 | 1 => v,
                        2 => v + 0.5,
                        3 => f64::from_bits(draw()),
                        4 => [f64::NAN, -0.0, f64::INFINITY, f64::from_bits(3)]
                            [(r >> 16) as usize % 4],
                        _ => (r >> 20) as f64 / 1e3,
                    };
                    (t, v)
                })
                .collect();
            assert_matches_oracle(&stream);
        }
    }

    #[test]
    fn series_digest_sees_order_value_bits_and_time() {
        let digest = |stream: &[(u64, f64)]| {
            let mut m = Metrics::new();
            for &(t, v) in stream {
                m.record_point_id(id::S, SimTime::from_nanos(t), v);
            }
            m.digest()
        };
        let base: [(u64, f64); 3] = [(SECOND, 0.25), (2 * SECOND, 0.5), (3 * SECOND, 0.75)];
        let swapped = [base[0], base[2], base[1]];
        let mut flipped = base;
        flipped[1].1 = f64::from_bits(base[1].1.to_bits() ^ 1);
        let mut moved = base;
        moved[1].0 += 1;
        assert_eq!(digest(&base), digest(&base));
        for (what, other) in [("swap", swapped), ("bit flip", flipped), ("1 ns", moved)] {
            assert_ne!(digest(&base), digest(&other), "{what}");
        }
    }

    /// Relative-error budget of the stream suites below: the sketch's log
    /// buckets are 1/128 wide, so 1% leaves slack for the nearest-rank vs
    /// midpoint estimator mismatch. Errors are measured against
    /// `max(|exact|, 1/1024)`.
    const REL_TOL: f64 = 0.01 + 1e-9;

    /// Records `stream` into the sketch and the exact oracle and asserts
    /// every checked quantile agrees to within [`REL_TOL`]; returns the
    /// worst error.
    fn assert_tracks_exact(stream: &[f64], label: &str) -> f64 {
        let mut sketch = Histogram::new();
        let mut exact = ExactHistogram::new();
        for &v in stream {
            sketch.record(v);
            exact.record(v);
        }
        assert_eq!(sketch.count(), exact.count(), "{label}: counts diverged");
        let mut worst = 0.0f64;
        for q in CHECK_QUANTILES {
            let s = sketch.quantile(q);
            let e = exact.quantile(q);
            let rel = (s - e).abs() / e.abs().max(1.0 / 1024.0);
            assert!(
                rel <= REL_TOL,
                "{label}: sketch q={q} was {s}, exact {e} (rel err {rel:.5})"
            );
            worst = worst.max(rel);
        }
        worst
    }

    /// Uniform randomized stream over a seed-dependent range.
    #[test]
    fn sketch_tracks_exact_on_randomized_uniform_streams() {
        for seed in 0..8u64 {
            let mut rng = SimRng::seed_from(0x5EED_0001 ^ seed);
            let hi = rng.uniform_f64(1.0, 500.0);
            let stream: Vec<f64> = (0..20_000).map(|_| rng.uniform_f64(0.0, hi)).collect();
            assert_tracks_exact(&stream, &format!("uniform seed {seed}"));
        }
    }

    /// Heavy-tail exponential: the regime where log buckets earn their keep.
    #[test]
    fn sketch_tracks_exact_on_heavy_tail_streams() {
        for seed in 0..8u64 {
            let mut rng = SimRng::seed_from(0x5EED_0002 ^ seed);
            let mean = rng.uniform_f64(5.0, 250.0);
            let stream: Vec<f64> = (0..20_000).map(|_| rng.exponential(mean)).collect();
            assert_tracks_exact(&stream, &format!("exponential seed {seed}"));
        }
    }

    /// Bimodal: sub-millisecond WiFi hits plus a ~15 ms edge mode, the
    /// shape the testbed's app-latency histograms actually take.
    #[test]
    fn sketch_tracks_exact_on_bimodal_streams() {
        for seed in 0..8u64 {
            let mut rng = SimRng::seed_from(0x5EED_0003 ^ seed);
            let stream: Vec<f64> = (0..20_000)
                .map(|_| {
                    if rng.chance(0.6) {
                        rng.uniform_f64(0.05, 0.9)
                    } else {
                        rng.normal(15.0, 2.5).abs()
                    }
                })
                .collect();
            assert_tracks_exact(&stream, &format!("bimodal seed {seed}"));
        }
    }

    /// Near-zero values land in the linear sub-millisecond range, where the
    /// sketch's guarantee is *absolute*: quantiles resolve to the 1/1024
    /// bucket grid, so the error budget is one bucket width rather than 1%
    /// relative (1% of a 10 µs quantile would demand sub-bucket resolution
    /// no fixed-memory layout provides).
    #[test]
    fn sketch_tracks_exact_on_near_zero_streams() {
        for seed in 0..8u64 {
            let mut rng = SimRng::seed_from(0x5EED_0004 ^ seed);
            let stream: Vec<f64> = (0..20_000).map(|_| rng.uniform_f64(0.0, 0.02)).collect();
            let mut sketch = Histogram::new();
            let mut exact = ExactHistogram::new();
            for &v in &stream {
                sketch.record(v);
                exact.record(v);
            }
            for q in CHECK_QUANTILES {
                let s = sketch.quantile(q);
                let e = exact.quantile(q);
                assert!(
                    (s - e).abs() <= 1.0 / 1024.0 + 1e-12,
                    "near-zero seed {seed}: sketch q={q} was {s}, exact {e}"
                );
            }
        }
    }

    /// Arbitrary three-regime mixtures stay inside the error budget: the
    /// per-regime scales and the stream length are all case-randomized.
    #[test]
    fn sketch_tracks_exact_on_random_mixtures() {
        check("sketch_tracks_exact_on_random_mixtures", 16, |g| {
            let mut rng = SimRng::seed_from(g.u64());
            let n = g.range(2_000usize..12_000);
            let edge_mean = rng.uniform_f64(2.0, 60.0);
            let tail_mean = rng.uniform_f64(20.0, 400.0);
            let stream: Vec<f64> = (0..n)
                .map(|_| match rng.uniform_u64(0, 10) {
                    0..=5 => rng.uniform_f64(0.01, 0.9),
                    6..=8 => rng.normal(edge_mean, edge_mean / 6.0).abs(),
                    _ => rng.exponential(tail_mean),
                })
                .collect();
            let worst = assert_tracks_exact(&stream, "random mixture");
            assert!(worst <= REL_TOL);
        });
    }
}
