//! Sim-loop self-profiler: attributes *host* wall-clock to simulator
//! subsystems, for `benchmark/`'s per-layer metrics.
//!
//! When enabled
//! ([`World::enable_profiler`](crate::World::enable_profiler)), the event
//! loop and the [`Context`](crate::Context) hot paths time themselves with
//! a monotonic host clock and charge the elapsed nanoseconds to a fixed
//! [`ProfCategory`]: queue pops, node dispatch, link/fault resolution on
//! sends, trace recording, metric recording, and cache eviction (charged by
//! the AP node via [`Context::prof_start`](crate::Context::prof_start)).
//!
//! Host time never feeds back into simulation state: the profiler writes no
//! metrics, draws no randomness and schedules no events, so an enabled run
//! produces bitwise-identical simulation outputs ([`Fingerprint`]
//! (crate::Fingerprint) included) to a disabled one. When disabled —
//! the default — every hook is a single branch on a `bool`; what turning
//! it on costs is `core.trace_overhead_share` in `benchmark/`, which runs
//! every workload with the profiler off and then on.

// The whole point of this module is reading the host clock: profiler
// attribution is wall-clock by definition and never reaches sim state.
use std::time::Instant;

/// Subsystems the profiler can charge host time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfCategory {
    /// Taking the next event off the timing wheel: the `peek_time` that
    /// refills the ready run (bucket search, cascades, overflow ingest)
    /// and the `pop` after it, one record per dispatched event.
    QueuePop = 0,
    /// Dispatching an event into a node callback (includes everything the
    /// callback does, nested categories included). `on_start` calls are
    /// not events and are not charged here.
    Dispatch = 1,
    /// Link and fault resolution on `Context::send_after`: fault-window
    /// evaluation, loss sampling, one-way-delay sampling and the queue
    /// push, one call per send; plus, uncounted, the release of the
    /// arrival's link reservation when the message is delivered.
    LinkFault = 2,
    /// Recording trace events (`begin_trace`/`span_*` pushes).
    Trace = 3,
    /// Recording metrics (`incr`/`observe`/`record_point`, id or string).
    Metrics = 4,
    /// Cache eviction/admission work, charged by the AP node around its
    /// cache-store calls.
    Evict = 5,
}

/// Number of [`ProfCategory`] variants (array sizing).
pub const PROF_CATEGORIES: usize = 6;

/// An opaque in-flight profiler measurement (a host-clock timestamp).
///
/// Returned by [`Profiler::start`] /
/// [`Context::prof_start`](crate::Context::prof_start) so node crates can
/// time sections without naming any wall-clock type themselves.
#[derive(Debug, Clone, Copy)]
pub struct ProfTimer(Instant);

/// Accumulated per-category host time and call counts.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    enabled: bool,
    nanos: [u64; PROF_CATEGORIES],
    calls: [u64; PROF_CATEGORIES],
}

impl Profiler {
    /// Creates a disabled profiler (all hooks are a single branch).
    pub fn new() -> Self {
        Profiler::default()
    }

    /// Turns profiling on.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Starts a measurement; `None` (for free) when disabled.
    #[inline]
    #[expect(
        clippy::disallowed_methods,
        reason = "the self-profiler measures host-CPU time per engine category; readings are diagnostic output only, never simulated state"
    )]
    pub fn start(&self) -> Option<ProfTimer> {
        if self.enabled {
            Some(ProfTimer(Instant::now()))
        } else {
            None
        }
    }

    /// Stops a measurement started with [`start`](Self::start), charging
    /// the elapsed host time to `category`. A `None` timer is a no-op.
    #[inline]
    pub fn record(&mut self, category: ProfCategory, timer: Option<ProfTimer>) {
        if timer.is_some() {
            self.calls[category as usize] += 1;
        }
        self.record_uncounted(category, timer);
    }

    /// Like [`record`](Self::record), but counts no call: for work that
    /// belongs to a call already counted in `category`.
    #[inline]
    pub fn record_uncounted(&mut self, category: ProfCategory, timer: Option<ProfTimer>) {
        if let Some(ProfTimer(t)) = timer {
            self.nanos[category as usize] +=
                u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        }
    }

    /// Total nanoseconds charged to `category`.
    pub fn nanos(&self, category: ProfCategory) -> u64 {
        self.nanos[category as usize]
    }

    /// Number of measurements charged to `category`.
    pub fn calls(&self, category: ProfCategory) -> u64 {
        self.calls[category as usize]
    }

    /// Snapshot of the accumulated attribution.
    pub fn report(&self) -> ProfileReport {
        ProfileReport {
            nanos: self.nanos,
            calls: self.calls,
        }
    }
}

/// A snapshot of profiler state (see [`Profiler::report`]); all zeros
/// when the profiler is off.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileReport {
    /// Per-category nanoseconds, indexed by `ProfCategory as usize`.
    pub nanos: [u64; PROF_CATEGORIES],
    /// Per-category call counts, indexed by `ProfCategory as usize`.
    pub calls: [u64; PROF_CATEGORIES],
}

impl ProfileReport {
    /// Total nanoseconds charged to `category`.
    pub fn nanos(&self, category: ProfCategory) -> u64 {
        self.nanos[category as usize]
    }

    /// Number of measurements charged to `category`.
    pub fn calls(&self, category: ProfCategory) -> u64 {
        self.calls[category as usize]
    }

    /// Host time measured at the event-loop level: dispatch plus queue
    /// pops. Nested categories are *inside* dispatch and not added again.
    pub fn loop_nanos(&self) -> u64 {
        self.nanos(ProfCategory::Dispatch) + self.nanos(ProfCategory::QueuePop)
    }

    /// Dispatch time not accounted to any nested category (those charged
    /// while a node callback is on the stack) — the node callbacks' own
    /// logic. Saturates at zero (nested sections each pay their own
    /// clock-read overhead, so their sum can slightly exceed the enclosing
    /// measurement on tiny workloads).
    pub fn dispatch_self_nanos(&self) -> u64 {
        let nested: u64 = [
            ProfCategory::LinkFault,
            ProfCategory::Trace,
            ProfCategory::Metrics,
            ProfCategory::Evict,
        ]
        .map(|c| self.nanos(c))
        .iter()
        .sum();
        self.nanos(ProfCategory::Dispatch).saturating_sub(nested)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_measures_nothing() {
        let mut p = Profiler::new();
        let t = p.start();
        assert!(t.is_none());
        p.record(ProfCategory::Dispatch, t);
        assert_eq!(p.nanos(ProfCategory::Dispatch), 0);
        assert_eq!(p.calls(ProfCategory::Dispatch), 0);
        assert_eq!(p.report(), ProfileReport::default());
    }

    #[test]
    fn enabled_profiler_charges_categories() {
        let mut p = Profiler::new();
        p.enable();
        let t = p.start();
        assert!(t.is_some());
        p.record(ProfCategory::QueuePop, t);
        p.record_uncounted(ProfCategory::Metrics, p.start());
        assert_eq!(p.calls(ProfCategory::QueuePop), 1);
        assert_eq!(p.calls(ProfCategory::Metrics), 0);
        let report = p.report();
        assert_eq!(report.calls(ProfCategory::QueuePop), 1);
        assert!(report.loop_nanos() >= report.nanos(ProfCategory::QueuePop));
    }

    #[test]
    fn dispatch_self_subtracts_nested() {
        let mut report = ProfileReport::default();
        report.nanos[ProfCategory::Dispatch as usize] = 10_000;
        report.nanos[ProfCategory::Trace as usize] = 2_000;
        report.nanos[ProfCategory::Evict as usize] = 3_000;
        assert_eq!(report.dispatch_self_nanos(), 5_000);
        // Nested overshoot saturates instead of wrapping.
        report.nanos[ProfCategory::Metrics as usize] = 50_000;
        assert_eq!(report.dispatch_self_nanos(), 0);
    }
}
