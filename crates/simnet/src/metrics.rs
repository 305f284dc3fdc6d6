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
//! histogram it replaced lives on as
//! [`crate::reference::ExactHistogram`], the oracle the `metrics_sketch`
//! suite compares against side by side. A [`TimeSeries`] keeps every
//! point.
//!
//! Each metric kind lives in one table. Recording goes through interned
//! [`MetricId`]s ([`Metrics::incr_id`], [`Metrics::observe_id`],
//! [`Metrics::record_point_id`]): an index, no string compare and no
//! allocation. The one family of names built at run time (a histogram per
//! app) is written through [`Metrics::observe_under`], keyed by a declared
//! prefix id. The harnesses read by name.

use std::borrow::Cow;
use std::fmt;
// Metrics can time their own recording cost for the sim-loop self-profiler
// (`World::enable_profiler`); host time never feeds back into sim state.
use std::time::Instant;

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
/// maintained incrementally on `record`/`merge`; within one recording
/// stream the sum is the insertion-order fold `iter().sum::<f64>()`
/// would produce, and a merge adds the two sums.
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
/// assert!((h.percentile(50.0) - 2.0).abs() <= 0.01 * 2.0);
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

    /// The `p`-th percentile (nearest-rank bucket), `p` in `[0, 100]`.
    ///
    /// Returns 0.0 when empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
        self.quantile(p / 100.0)
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

    /// Merges another histogram's samples (and dropped-sample count) into
    /// this one. Bucket counts add element-wise, so every quantile of the
    /// result equals that of the pooled stream, in either merge order.
    pub fn merge(&mut self, other: &Histogram) {
        for (d, s) in self.buckets.0.iter_mut().zip(other.buckets.0.iter()) {
            *d += s;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.lo = self.lo.min(other.lo);
        self.hi = self.hi.max(other.hi);
        self.dropped += other.dropped;
        self.fold = self.fold.wrapping_add(other.fold);
    }

    /// Heap footprint of the bucket array in bytes.
    pub fn approx_bytes(&self) -> usize {
        SKETCH_BUCKETS * std::mem::size_of::<u64>()
    }
}

/// A time series of `(time, value)` points, e.g. CPU utilization samples.
///
/// Every point is kept. Aggregates (`mean`, `time_weighted_mean`, `max`)
/// are maintained incrementally at `record` time, bitwise identical to a
/// query-time fold over [`points`](Self::points).
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
    /// Incremental value sum; starts at `-0.0` to match `Sum for f64`.
    sum: f64,
    vmax: f64,
    /// Trapezoidal integral accumulators (see `time_weighted_mean`).
    area: f64,
    span: f64,
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
            points: Vec::new(),
            sum: -0.0,
            vmax: f64::NEG_INFINITY,
            area: 0.0,
            span: 0.0,
        }
    }

    /// Appends a point. Points should be appended in time order.
    pub fn record(&mut self, at: SimTime, value: f64) {
        // Incremental trapezoid: one segment per consecutive pair, in the
        // exact order and arithmetic of a `windows(2)` fold. Segments
        // whose time does not advance (duplicate timestamps, or the
        // backward jump where one trial's series was appended after
        // another's via `Metrics::merge`) contribute nothing.
        if let Some(&(lt, lv)) = self.points.last() {
            if at > lt {
                let dt = at.saturating_since(lt).as_secs_f64();
                self.area += 0.5 * (lv + value) * dt;
                self.span += dt;
            }
        }
        self.sum += value;
        self.vmax = self.vmax.max(value);
        self.points.push((at, value));
    }

    /// All recorded points, in recording order.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of recorded points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Mean of the values, or 0.0 when empty. O(1).
    pub fn mean(&self) -> f64 {
        if self.points.is_empty() {
            0.0
        } else {
            self.sum / self.points.len() as f64
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
        if self.points.is_empty() {
            0.0
        } else {
            self.vmax
        }
    }

    /// Approximate heap footprint of the stored points in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.points.capacity() * std::mem::size_of::<(SimTime, f64)>()
    }
}

/// Host-time self-accounting for the registry (the sim-loop profiler's
/// `metrics.record` category). Off by default: every hook is one branch.
#[derive(Debug, Clone, Default)]
struct SelfProfile {
    enabled: bool,
    nanos: u64,
    calls: u64,
}

impl SelfProfile {
    #[inline]
    #[expect(
        clippy::disallowed_methods,
        reason = "measures the metrics plane's own host-CPU cost; the reading is reported, never fed back into simulated state"
    )]
    fn start(&self) -> Option<Instant> {
        if self.enabled {
            Some(Instant::now())
        } else {
            None
        }
    }

    #[inline]
    fn stop(&mut self, started: Option<Instant>) {
        if let Some(t) = started {
            self.nanos += u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.calls += 1;
        }
    }
}

/// One registered metric: its name and its value.
#[derive(Debug, Clone)]
struct Entry<T> {
    /// Borrowed when the metric was first written through a [`MetricId`]
    /// (no allocation), owned when it was built under a prefix or merged in.
    name: Cow<'static, str>,
    value: T,
}

/// Every metric of one kind, in registration order. A name is registered
/// by its first write; by-name access finds it by scanning `entries`, a
/// [`MetricId`] through `by_id`.
#[derive(Debug, Clone)]
struct Table<T> {
    entries: Vec<Entry<T>>,
    /// `MetricId::index()` → position in `entries` plus one; `0` until the
    /// id's first use has looked its name up.
    by_id: Vec<u32>,
}

impl<T> Default for Table<T> {
    fn default() -> Self {
        Table {
            entries: Vec::new(),
            by_id: Vec::new(),
        }
    }
}

impl<T: Default> Table<T> {
    fn position(&self, name: &str) -> Option<usize> {
        self.entries.iter().position(|e| e.name == name)
    }

    /// Registers `name` at the default value and returns its position.
    fn register(&mut self, name: Cow<'static, str>) -> usize {
        self.entries.push(Entry {
            name,
            value: T::default(),
        });
        self.entries.len() - 1
    }

    /// The value named `prefix` followed by `suffix`. Allocates only when
    /// that name is new.
    fn under(&mut self, prefix: &str, suffix: &str) -> &mut T {
        let pos = self
            .entries
            .iter()
            .position(|e| e.name.strip_prefix(prefix) == Some(suffix))
            .unwrap_or_else(|| self.register(Cow::Owned([prefix, suffix].concat())));
        &mut self.entries[pos].value
    }

    /// The value interned as `id`: two indexed loads, no string compare
    /// and no allocation once the id has been used.
    #[inline]
    fn interned(&mut self, id: MetricId) -> &mut T {
        match self.by_id.get(id.index()) {
            Some(&at) if at != 0 => {
                let entry = &mut self.entries[at as usize - 1];
                debug_assert_eq!(entry.name, id.name(), "metric id index collision");
                &mut entry.value
            }
            _ => self.intern(id),
        }
    }

    #[cold]
    fn intern(&mut self, id: MetricId) -> &mut T {
        let pos = self
            .position(id.name())
            .unwrap_or_else(|| self.register(Cow::Borrowed(id.name())));
        if self.by_id.len() <= id.index() {
            self.by_id.resize(id.index() + 1, 0);
        }
        self.by_id[id.index()] = u32::try_from(pos + 1).expect("metric count fits u32");
        &mut self.entries[pos].value
    }

    fn get(&self, name: &str) -> Option<&T> {
        self.position(name).map(|pos| &self.entries[pos].value)
    }

    fn get_id(&self, id: MetricId) -> Option<&T> {
        match self.by_id.get(id.index()) {
            Some(&at) if at != 0 => Some(&self.entries[at as usize - 1].value),
            _ => self.get(id.name()),
        }
    }

    /// `(name, value)` pairs in name order: the order `digest`, `Display`
    /// and the `*_names` iterators present.
    fn sorted(&self) -> Vec<(&str, &T)> {
        let mut out: Vec<(&str, &T)> = self
            .entries
            .iter()
            .map(|e| (e.name.as_ref(), &e.value))
            .collect();
        out.sort_by(|a, b| a.0.cmp(b.0));
        out
    }

    /// Folds every metric of `other` into the same-named one here.
    fn merge(&mut self, other: &Table<T>, mut fold: impl FnMut(&mut T, &T)) {
        for e in &other.entries {
            let pos = self
                .position(&e.name)
                .unwrap_or_else(|| self.register(e.name.clone()));
            fold(&mut self.entries[pos].value, &e.value);
        }
    }

    /// Heap bytes of the two tables and the owned names; `value_bytes`
    /// adds what each value holds on the heap.
    fn approx_bytes(&self, value_bytes: impl Fn(&T) -> usize) -> usize {
        let tables = self.entries.capacity() * std::mem::size_of::<Entry<T>>()
            + self.by_id.capacity() * std::mem::size_of::<u32>();
        self.entries.iter().fold(tables, |total, e| {
            let name = match &e.name {
                Cow::Owned(s) => s.capacity(),
                Cow::Borrowed(_) => 0,
            };
            total + name + value_bytes(&e.value)
        })
    }
}

/// Central metric registry for a simulation run.
///
/// Metrics are keyed by string names; harnesses read by the stable,
/// documented names in [`keys`] and `ape_proto::names`. Writes take the
/// [`MetricId`] that interns such a name — the same metric reached without
/// a string compare or an allocation — so a name nobody declared cannot be
/// written:
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
    profile: SelfProfile,
}

impl Metrics {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Turns on self-profiling: recording paths accumulate their own host
    /// time for the sim-loop profiler's `metrics.record` row.
    pub fn enable_self_profile(&mut self) {
        self.profile.enabled = true;
    }

    /// Accumulated `(nanos, calls)` of self-profiled recording time.
    pub fn self_profile(&self) -> (u64, u64) {
        (self.profile.nanos, self.profile.calls)
    }

    // --- counters ---------------------------------------------------------

    /// Adds `delta` to the counter interned as `id`: no string compare,
    /// no allocation.
    pub fn incr_id(&mut self, id: MetricId, delta: u64) {
        let t = self.profile.start();
        *self.counters.interned(id) += delta;
        self.profile.stop(t);
    }

    /// Current value of a counter (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of an interned counter (0 if never incremented).
    pub fn counter_id(&self, id: MetricId) -> u64 {
        self.counters.get_id(id).copied().unwrap_or(0)
    }

    // --- histograms -------------------------------------------------------

    /// Records an observation into the histogram interned as `id`: no
    /// string compare, no allocation.
    pub fn observe_id(&mut self, id: MetricId, value: f64) {
        let t = self.profile.start();
        self.histograms.interned(id).record(value);
        self.profile.stop(t);
    }

    /// Records an observation into the histogram named `prefix`'s name
    /// followed by `member` — the only write keyed by a run-time string,
    /// for a family whose members (one per app) are not known until the
    /// run is configured. Allocation-free once the member exists.
    pub fn observe_under(&mut self, prefix: MetricId, member: &str, value: f64) {
        let t = self.profile.start();
        self.histograms.under(prefix.name(), member).record(value);
        self.profile.stop(t);
    }

    /// Read access to a histogram, if it exists.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Read access to an interned histogram, if it exists.
    pub fn histogram_id(&self, id: MetricId) -> Option<&Histogram> {
        self.histograms.get_id(id)
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
        let t = self.profile.start();
        self.series.interned(id).record(at, value);
        self.profile.stop(t);
    }

    /// Read access to a time series, if it exists.
    pub fn time_series(&self, name: &str) -> Option<&TimeSeries> {
        self.series.get(name)
    }

    /// Read access to an interned time series, if it exists.
    pub fn time_series_id(&self, id: MetricId) -> Option<&TimeSeries> {
        self.series.get_id(id)
    }

    // --- names, digest, merge ---------------------------------------------

    /// Names of all histograms currently registered, sorted.
    pub fn histogram_names(&self) -> impl Iterator<Item = &str> {
        self.histograms.sorted().into_iter().map(|(k, _)| k)
    }

    /// Names of all counters currently registered, sorted.
    pub fn counter_names(&self) -> impl Iterator<Item = &str> {
        self.counters.sorted().into_iter().map(|(k, _)| k)
    }

    /// Stable 64-bit digest of the registry's full content, used by the
    /// schedule-perturbation race detector to compare runs.
    ///
    /// Counters and time series hash in key order; a histogram hashes as
    /// its count plus the order-independent fold of every sample's bit
    /// pattern, so two runs that recorded the same samples in a different
    /// order digest alike and two that differ in one bit of one sample do
    /// not. How a name came to be registered does not enter.
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
            for (t, v) in s.points() {
                h.write_u64(t.as_nanos());
                h.write_u64(v.to_bits());
            }
        }
        h.finish()
    }

    /// Merges another registry into this one, name by name: counters add,
    /// histograms pool, series append.
    pub fn merge(&mut self, other: &Metrics) {
        self.counters.merge(&other.counters, |dst, src| *dst += src);
        self.histograms.merge(&other.histograms, Histogram::merge);
        self.series.merge(&other.series, |dst, src| {
            for (t, v) in src.points() {
                dst.record(*t, *v);
            }
        });
    }

    /// Approximate heap footprint of the registry in bytes (tables, owned
    /// names, bucket arrays, series points).
    pub fn approx_bytes(&self) -> usize {
        self.counters.approx_bytes(|_| 0)
            + self.histograms.approx_bytes(Histogram::approx_bytes)
            + self.series.approx_bytes(TimeSeries::approx_bytes)
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
    use crate::reference::ExactHistogram;

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
            LAT_NEWS = "lat.news";
        }
    }
    use local::id;

    /// Quantiles the differential checks read (the set
    /// `tests/metrics_sketch.rs` uses).
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
        // Two trials merged back-to-back: the seam (t jumps backward) must
        // not poison the integral.
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
        for p in [0.0, 50.0, 95.0, 100.0] {
            assert_within_bound(h.percentile(p), exact.quantile(p / 100.0), "percentile");
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
        let mut merged = Histogram::new();
        merged.merge(&h);
        assert_eq!(merged.dropped_samples(), 2);
    }

    #[test]
    fn histogram_empty_is_zeroed() {
        let h = Histogram::new();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(99.0), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.sum(), 0.0);
        assert!(h.is_empty());
    }

    #[test]
    fn histogram_min_max_merge() {
        let mut a = Histogram::new();
        a.record(5.0);
        let mut b = Histogram::new();
        b.record(1.0);
        b.record(9.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), 1.0);
        assert_eq!(a.max(), 9.0);
        assert_eq!(a.sum(), 15.0);
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn percentile_rejects_out_of_range() {
        let mut h = Histogram::new();
        h.record(1.0);
        h.percentile(101.0);
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
    fn registry_merge_adds() {
        let mut a = Metrics::new();
        a.incr_id(id::C, 1);
        a.observe_id(id::H, 1.0);
        let mut b = Metrics::new();
        b.incr_id(id::C, 2);
        b.observe_id(id::H, 3.0);
        b.record_point_id(id::S, SimTime::ZERO, 1.0);
        a.merge(&b);
        assert_eq!(a.counter(local::C), 3);
        assert_eq!(a.histogram(local::H).unwrap().count(), 2);
        assert_eq!(a.time_series(local::S).unwrap().len(), 1);
    }

    #[test]
    fn quantile_matches_percentile_and_shortcuts() {
        let (h, mut exact) = one_to_hundred();
        assert_eq!(h.quantile(0.5), h.percentile(50.0));
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
    fn merge_empty_into_nonempty_is_identity() {
        let mut a = Metrics::new();
        a.incr_id(id::C, 7);
        a.observe_id(id::H, 1.0);
        a.record_point_id(id::S, SimTime::ZERO, 2.0);
        let before = format!("{a}");
        a.merge(&Metrics::new());
        assert_eq!(format!("{a}"), before);
    }

    #[test]
    fn merge_nonempty_into_empty_copies_everything() {
        let mut src = Metrics::new();
        src.incr_id(id::C, 7);
        src.observe_id(id::H, 1.0);
        src.observe_id(id::H, 3.0);
        src.record_point_id(id::S, SimTime::from_secs(1), 2.0);
        let mut dst = Metrics::new();
        dst.merge(&src);
        assert_eq!(dst.counter(local::C), 7);
        assert_eq!(dst.histogram(local::H).unwrap().count(), 2);
        assert_eq!(dst.time_series(local::S).unwrap().len(), 1);
    }

    #[test]
    fn merge_disjoint_keys_unions() {
        let mut a = Metrics::new();
        a.incr_id(id::C, 1);
        a.observe_id(id::H, 1.0);
        let mut b = Metrics::new();
        b.incr_id(id::X, 2);
        b.observe_id(id::LAT, 5.0);
        a.merge(&b);
        assert_eq!(a.counter(local::C), 1);
        assert_eq!(a.counter(local::X), 2);
        assert_eq!(a.histogram(local::H).unwrap().count(), 1);
        assert_eq!(a.histogram(local::LAT).unwrap().count(), 1);
    }

    #[test]
    fn merged_histogram_quantiles_pool_samples() {
        // Every histogram shares one bucket layout, so a merge must
        // behave as if both sample sets were recorded into one histogram.
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut pooled = Histogram::new();
        for v in 1..=50 {
            a.record(v as f64);
            pooled.record(v as f64);
        }
        for v in 51..=100 {
            b.record(v as f64);
            pooled.record(v as f64);
        }
        a.merge(&b);
        for q in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            assert_eq!(a.quantile(q).to_bits(), pooled.quantile(q).to_bits());
        }
        assert_eq!(a.count(), pooled.count());
        assert_eq!(a.mean().to_bits(), pooled.mean().to_bits());
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
        m.observe_under(id::LAT_PREFIX, "news", 1.0);
        // The id resolves to the entry the prefixed write registered...
        m.observe_id(id::LAT_NEWS, 3.0);
        // ...and later prefixed writes still find that one entry.
        m.observe_under(id::LAT_PREFIX, "news", 5.0);
        assert_eq!(m.histogram(local::LAT_NEWS).unwrap().count(), 3);
        assert_eq!(m.histogram_id(id::LAT_NEWS).unwrap().count(), 3);
        assert_eq!(m.mean(local::LAT_NEWS), 3.0);
        assert_eq!(m.histogram_names().count(), 1);
        // Another member of the family is another histogram.
        m.observe_under(id::LAT_PREFIX, "mail", 7.0);
        assert_eq!(m.mean("lat.mail"), 7.0);
        assert_eq!(m.histogram_names().count(), 2);

        m.incr_id(keys::id::NET_MESSAGES, 10);
        assert_eq!(m.counter(keys::NET_MESSAGES), 10);
        assert_eq!(m.counter_id(keys::id::NET_MESSAGES), 10);
        assert_eq!(m.counter_names().count(), 1);

        m.record_point_id(keys::id::NET_DROPPED, SimTime::ZERO, 1.0);
        m.record_point_id(keys::id::NET_DROPPED, SimTime::from_secs(1), 2.0);
        assert_eq!(m.time_series(keys::NET_DROPPED).unwrap().len(), 2);
        assert_eq!(m.time_series_id(keys::id::NET_DROPPED).unwrap().len(), 2);
    }

    #[test]
    fn interned_digest_matches_string_digest() {
        let mut by_str = Metrics::new();
        let mut by_id = Metrics::new();
        by_str.observe_under(id::LAT_PREFIX, "news", 64.0);
        by_id.observe_id(id::LAT_NEWS, 64.0);
        assert_eq!(by_str.digest(), by_id.digest());
        assert_eq!(format!("{by_str}"), format!("{by_id}"));
    }

    /// Two registries written through ids merge into the metric each id
    /// stands for, and an id still resolves in a registry that learned its
    /// name from a merge.
    #[test]
    fn interned_registries_merge_by_slot() {
        let mut a = Metrics::new();
        a.incr_id(keys::id::NET_MESSAGES, 1);
        a.incr_id(keys::id::NET_BYTES, 8);
        let mut b = Metrics::new();
        b.incr_id(keys::id::NET_BYTES, 4); // registered in the other order
        b.incr_id(keys::id::NET_MESSAGES, 2);
        a.merge(&b);
        assert_eq!(a.counter_id(keys::id::NET_MESSAGES), 3);
        assert_eq!(a.counter_id(keys::id::NET_BYTES), 12);
        assert_eq!(a.counter_names().count(), 2);
        let mut fresh = Metrics::new();
        fresh.merge(&a);
        fresh.incr_id(keys::id::NET_MESSAGES, 1);
        assert_eq!(fresh.counter(keys::NET_MESSAGES), 4);
        assert_eq!(fresh.counter_names().count(), 2);
    }

    /// Which writer registered a name, and in which order names arrived,
    /// is invisible: same digest, same `Display`, and merging the two
    /// registries is either one recorded twice.
    #[test]
    fn write_order_across_the_two_apis_is_invisible() {
        let prefixed_first = |m: &mut Metrics| {
            m.observe_under(id::LAT_PREFIX, "news", 64.0);
            m.incr_id(keys::id::NET_MESSAGES, 7);
            m.record_point_id(keys::id::NET_DROPPED, SimTime::from_secs(2), 1.5);
            m.observe_under(id::LAT_PREFIX, "only", 1.0);
        };
        let interned_first = |m: &mut Metrics| {
            m.observe_under(id::LAT_PREFIX, "only", 1.0);
            m.record_point_id(keys::id::NET_DROPPED, SimTime::from_secs(2), 1.5);
            m.incr_id(keys::id::NET_MESSAGES, 7);
            m.observe_id(id::LAT_NEWS, 64.0);
        };
        let mut one = Metrics::new();
        prefixed_first(&mut one);
        interned_first(&mut one);
        let mut other = Metrics::new();
        interned_first(&mut other);
        prefixed_first(&mut other);
        assert_eq!(one.digest(), other.digest());
        assert_eq!(format!("{one}"), format!("{other}"));

        let mut doubled = Metrics::new();
        for _ in 0..2 {
            prefixed_first(&mut doubled);
            interned_first(&mut doubled);
        }
        let mut merged = one.clone();
        merged.merge(&other);
        assert_eq!(merged.digest(), doubled.digest());
        assert_eq!(format!("{merged}"), format!("{doubled}"));
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
    fn sketch_merge_is_order_independent_and_matches_pooling() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut pooled = Histogram::new();
        for i in 0..500u64 {
            let v = (i as f64).sqrt();
            a.record(v);
            pooled.record(v);
        }
        for i in 500..1000u64 {
            let v = (i as f64).sqrt();
            b.record(v);
            pooled.record(v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(ab.quantile(q).to_bits(), pooled.quantile(q).to_bits());
            assert_eq!(ba.quantile(q).to_bits(), pooled.quantile(q).to_bits());
        }
        assert_eq!(ab.count(), pooled.count());
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
    fn merged_digest_equals_pooled_digest() {
        let mut a = Metrics::new();
        let mut b = Metrics::new();
        let mut pooled = Metrics::new();
        for i in 0..400u64 {
            let v = (i as f64).sqrt() * 3.7 + 0.013;
            let part = if i % 3 == 0 { &mut a } else { &mut b };
            part.observe_id(id::LAT, v);
            pooled.observe_id(id::LAT, v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.digest(), pooled.digest());
        assert_eq!(ba.digest(), pooled.digest());
        let want = pooled.histogram("lat").unwrap();
        for merged in [&ab, &ba] {
            let got = merged.histogram("lat").unwrap();
            assert_eq!(got.count(), want.count());
            assert_eq!(got.fold, want.fold);
            for q in CHECK_QUANTILES {
                assert_eq!(got.quantile(q).to_bits(), want.quantile(q).to_bits());
            }
        }
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
        let hist = m.histogram_id(keys::id::NET_BYTES).unwrap();
        let series = m.time_series_id(keys::id::NET_DROPPED).unwrap();
        let tables = m.histograms.entries.capacity() * std::mem::size_of::<Entry<Histogram>>()
            + m.series.entries.capacity() * std::mem::size_of::<Entry<TimeSeries>>()
            + (m.histograms.by_id.capacity() + m.series.by_id.capacity())
                * std::mem::size_of::<u32>();
        assert_eq!(
            m.approx_bytes(),
            tables + hist.approx_bytes() + series.approx_bytes()
        );
        // A name built under a prefix owns its string; that is counted too.
        let before = m.approx_bytes();
        m.observe_under(id::LAT_PREFIX, "dynamic", 1.0);
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
        m.enable_self_profile();
        m.incr_id(id::C, 1);
        m.observe_under(id::LAT_PREFIX, "news", 1.0);
        m.observe_id(id::H, 1.0);
        m.record_point_id(id::S, SimTime::ZERO, 1.0);
        let (_, calls) = m.self_profile();
        assert_eq!(calls, 4);
        let off = Metrics::new();
        assert_eq!(off.self_profile(), (0, 0));
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
}
