//! Sim-loop self-profiler: attributes *host* wall-clock to simulator
//! subsystems.
//!
//! ROADMAP item 2 targets millions of simulated clients and tens of
//! millions of events per second; to get there one has to know where the
//! host CPU actually goes. When enabled
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

use std::fmt;
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
    /// push.
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

impl ProfCategory {
    /// All categories, in report order.
    pub const ALL: [ProfCategory; PROF_CATEGORIES] = [
        ProfCategory::Dispatch,
        ProfCategory::QueuePop,
        ProfCategory::LinkFault,
        ProfCategory::Trace,
        ProfCategory::Metrics,
        ProfCategory::Evict,
    ];

    /// Human-readable label used in the `repro profile` table.
    pub fn label(self) -> &'static str {
        match self {
            ProfCategory::QueuePop => "queue.pop",
            ProfCategory::Dispatch => "event.dispatch",
            ProfCategory::LinkFault => "link+fault.resolve",
            ProfCategory::Trace => "trace.record",
            ProfCategory::Metrics => "metrics.record",
            ProfCategory::Evict => "cache.evict",
        }
    }

    /// Whether this category's time is nested inside
    /// [`Dispatch`](ProfCategory::Dispatch) (charged while a node callback
    /// is on the stack), so reports can compute the callback's own time by
    /// subtraction.
    pub fn nested_in_dispatch(self) -> bool {
        matches!(
            self,
            ProfCategory::LinkFault
                | ProfCategory::Trace
                | ProfCategory::Metrics
                | ProfCategory::Evict
        )
    }
}

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
        if let Some(ProfTimer(t)) = timer {
            self.nanos[category as usize] +=
                u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.calls[category as usize] += 1;
        }
    }

    /// Charges pre-measured time to a category (used by [`Metrics`]
    /// (crate::Metrics), which accumulates its own self-time).
    pub fn charge(&mut self, category: ProfCategory, nanos: u64, calls: u64) {
        self.nanos[category as usize] += nanos;
        self.calls[category as usize] += calls;
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
            enabled: self.enabled,
            nanos: self.nanos,
            calls: self.calls,
        }
    }
}

/// A rendered-ready snapshot of profiler state (see [`Profiler::report`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileReport {
    /// Whether the profiler was enabled (a disabled report is all zeros).
    pub enabled: bool,
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

    /// Dispatch time not accounted to any nested category — the node
    /// callbacks' own logic. Saturates at zero (nested sections each pay
    /// their own clock-read overhead, so their sum can slightly exceed the
    /// enclosing measurement on tiny workloads).
    pub fn dispatch_self_nanos(&self) -> u64 {
        let nested: u64 = ProfCategory::ALL
            .iter()
            .filter(|c| c.nested_in_dispatch())
            .map(|&c| self.nanos(c))
            .sum();
        self.nanos(ProfCategory::Dispatch).saturating_sub(nested)
    }

    /// Merges another report's counts into this one (e.g. across trials).
    pub fn merge(&mut self, other: &ProfileReport) {
        self.enabled |= other.enabled;
        for i in 0..PROF_CATEGORIES {
            self.nanos[i] += other.nanos[i];
            self.calls[i] += other.calls[i];
        }
    }
}

impl fmt::Display for ProfileReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.enabled {
            return writeln!(f, "profiler disabled (zero-cost); no attribution recorded");
        }
        let total = self.loop_nanos().max(1);
        writeln!(
            f,
            "{:<22} {:>12} {:>14} {:>10} {:>7}",
            "subsystem", "calls", "total_ms", "ns/call", "share"
        )?;
        for cat in ProfCategory::ALL {
            let ns = self.nanos(cat);
            let calls = self.calls(cat);
            let per = ns.checked_div(calls).unwrap_or(0);
            let indent = if cat.nested_in_dispatch() { "  " } else { "" };
            writeln!(
                f,
                "{:<22} {:>12} {:>14.3} {:>10} {:>6.1}%",
                format!("{indent}{}", cat.label()),
                calls,
                ns as f64 / 1e6,
                per,
                100.0 * ns as f64 / total as f64,
            )?;
        }
        writeln!(
            f,
            "{:<22} {:>12} {:>14.3} {:>10} {:>6.1}%",
            "  node logic (rest)",
            "",
            self.dispatch_self_nanos() as f64 / 1e6,
            "",
            100.0 * self.dispatch_self_nanos() as f64 / total as f64,
        )
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
        let report = p.report();
        assert!(!report.enabled);
        assert!(format!("{report}").contains("disabled"));
    }

    #[test]
    fn enabled_profiler_charges_categories() {
        let mut p = Profiler::new();
        p.enable();
        let t = p.start();
        assert!(t.is_some());
        p.record(ProfCategory::QueuePop, t);
        p.charge(ProfCategory::Metrics, 1000, 10);
        assert_eq!(p.calls(ProfCategory::QueuePop), 1);
        assert_eq!(p.nanos(ProfCategory::Metrics), 1000);
        assert_eq!(p.calls(ProfCategory::Metrics), 10);
        let report = p.report();
        assert!(report.enabled);
        assert!(report.loop_nanos() >= report.nanos(ProfCategory::QueuePop));
        let text = format!("{report}");
        assert!(text.contains("queue.pop"));
        assert!(text.contains("metrics.record"));
    }

    #[test]
    fn dispatch_self_subtracts_nested() {
        let mut p = Profiler::new();
        p.enable();
        p.charge(ProfCategory::Dispatch, 10_000, 5);
        p.charge(ProfCategory::Trace, 2_000, 5);
        p.charge(ProfCategory::Evict, 3_000, 2);
        assert_eq!(p.report().dispatch_self_nanos(), 5_000);
        // Nested overshoot saturates instead of wrapping.
        p.charge(ProfCategory::Metrics, 50_000, 1);
        assert_eq!(p.report().dispatch_self_nanos(), 0);
    }

    #[test]
    fn report_merge_accumulates() {
        let mut a = Profiler::new();
        a.enable();
        a.charge(ProfCategory::Dispatch, 100, 1);
        let mut r = a.report();
        r.merge(&a.report());
        assert_eq!(r.nanos(ProfCategory::Dispatch), 200);
        assert_eq!(r.calls(ProfCategory::Dispatch), 2);
    }
}
