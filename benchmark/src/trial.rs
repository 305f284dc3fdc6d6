//! One trial: timed build, untimed warm-up, the measured phase in timed
//! slices, drain, collect and summary.

use ape_proto::names;
use ape_simnet::{keys, Fingerprint, Metrics, ProfileReport, TimeSeries, PROF_CATEGORIES};

use crate::alloc;
use crate::spans::Spans;
use crate::workloads::{Scale, Workload, DRAIN};

/// Counters whose change over the measured phase feeds the per-layer
/// metrics.
const COUNTED: [&str; 24] = [
    names::CLIENT_FETCHES,
    keys::NET_MESSAGES,
    keys::NET_DROPPED,
    keys::NET_FAULT_DROPPED,
    names::AP_CACHE_HITS,
    names::AP_DELEGATIONS,
    names::AP_SHORT_CIRCUITS,
    names::AP_PEER_HITS,
    names::AP_EVICT_SOLVER_RUNS,
    names::AP_EVICT_DP_RUNS,
    names::AP_EVICT_ITEMS,
    names::CLIENT_DNS_QUERIES,
    names::AP_DNS_FORWARDS,
    names::CLIENT_DNS_RETRIES,
    names::CLIENT_HTTP_RETRIES,
    names::AP_DNS_UPSTREAM_RETRIES,
    names::AP_DELEGATION_RETRIES,
    names::CLIENT_DNS_GIVE_UPS,
    names::CLIENT_HTTP_GIVE_UPS,
    names::AP_DNS_UPSTREAM_GIVE_UPS,
    names::AP_DELEGATION_REAPS,
    names::AP_ROAM_CANCELLED_FORWARDS,
    names::AP_ROAM_CANCELLED_WAITERS,
    names::CLIENT_ROAMS,
];

fn read_counters(metrics: &Metrics) -> Vec<u64> {
    COUNTED.iter().map(|name| metrics.counter(name)).collect()
}

/// One timed `run_for` of the measured phase.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    /// Host seconds the slice took.
    pub wall_s: f64,
    /// Fetches clients issued during it (`client.fetches` delta).
    pub fetches: u64,
    /// Events the world dispatched during it.
    pub events: u64,
}

impl Slice {
    /// Host microseconds per fetch.
    pub fn us_per_fetch(&self) -> f64 {
        self.wall_s * 1e6 / self.fetches as f64
    }
}

/// Everything one trial produced.
#[derive(Debug)]
pub struct Trial {
    /// Host seconds of suite generation plus world build.
    pub build_s: f64,
    /// Host seconds of the warm-up, drain, collect and summary steps.
    pub warmup_s: f64,
    /// See `warmup_s`.
    pub drain_s: f64,
    /// See `warmup_s`.
    pub collect_s: f64,
    /// See `warmup_s`.
    pub summary_s: f64,
    /// The measured phase.
    pub slices: Vec<Slice>,
    /// Largest event-queue depth seen at a slice end.
    pub pending_events_max: u64,
    /// Fetches issued over the whole trial, and how they ended.
    pub fetches: u64,
    /// Fetches that delivered their object.
    pub settled_ok: u64,
    /// Fetches the client gave up on (`client.fetch_failures`).
    pub failures: u64,
    /// Pending-state entries left after the drain.
    pub undrained: u64,
    /// App executions behind the latency quantiles.
    pub executions: u64,
    /// `client.app_latency_ms` mean, simulated ms.
    pub mean_ms: f64,
    /// `client.app_latency_ms` median, simulated ms.
    pub p50_ms: f64,
    /// `client.app_latency_ms` 99th percentile, simulated ms.
    pub p99_ms: f64,
    /// Client-observed AP hit ratio.
    pub hit_ratio: f64,
    /// Mean of the `ap.cpu` utilisation samples. Every AP samples at the
    /// same fixed interval, so this is the time average over all APs; the
    /// summary's time-weighted mean is not used because a city's 256 APs
    /// interleave their samples in one series, which makes the spacing
    /// between neighbouring points meaningless.
    pub ap_cpu_mean: f64,
    /// Digest of every simulated result.
    pub fingerprint: Fingerprint,
    /// `Metrics::approx_bytes` of the collected registry.
    pub metrics_bytes: usize,
    /// Program profiler attribution over the measured phase (all zero
    /// unless traced).
    pub profile: ProfileReport,
    /// `(allocations, bytes)` over the measured phase (zero unless traced).
    pub allocs: (u64, u64),
    counters: Vec<u64>,
}

impl Trial {
    /// Change of counter `name` over the measured phase.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not one of the counted names — a typo in this
    /// benchmark, not a run-time condition.
    pub fn counted(&self, name: &str) -> u64 {
        let idx = COUNTED
            .iter()
            .position(|n| *n == name)
            .unwrap_or_else(|| panic!("counter {name} is not sampled"));
        self.counters[idx]
    }

    /// Fetches issued in the measured phase.
    pub fn measured_fetches(&self) -> u64 {
        self.slices.iter().map(|s| s.fetches).sum()
    }

    /// Host seconds of the measured phase.
    pub fn measured_wall_s(&self) -> f64 {
        self.slices.iter().map(|s| s.wall_s).sum()
    }
}

fn profile_delta(after: &ProfileReport, before: &ProfileReport) -> ProfileReport {
    let mut delta = after.clone();
    for i in 0..PROF_CATEGORIES {
        delta.nanos[i] -= before.nanos[i];
        delta.calls[i] -= before.calls[i];
    }
    delta
}

/// Runs trial `index` of `workload` on `seed`. A traced trial turns on the
/// program's profiler and, for the measured phase, the counting allocator;
/// nothing else differs.
pub fn run_trial(
    workload: &Workload,
    scale: Scale,
    seed: u64,
    index: u32,
    traced: bool,
    spans: &mut Spans,
) -> Trial {
    let root = spans.enter("core.trial", index);
    let (mut bed, build_s) = spans.time("core.build", index, || {
        workload.construct(seed, scale, traced)
    });
    let ((), warmup_s) = spans.time("core.warmup", index, || {
        bed.world().run_for(scale.warmup);
    });

    let slice_span = scale.measured / u64::from(workload.slices);
    let counters_before = read_counters(bed.world().metrics());
    let profile_before = bed.world().profile_report();
    let allocs_before = alloc::counts();
    alloc::set_counting(traced);
    let measure = spans.enter("core.measure", index);
    let mut slices = Vec::with_capacity(workload.slices as usize);
    let mut pending_events_max = 0;
    let mut issued = counters_before[0];
    for _ in 0..workload.slices {
        let (report, wall_s) =
            spans.time("core.run_slice", index, || bed.world().run_for(slice_span));
        let now_issued = bed.world().metrics().counter(names::CLIENT_FETCHES);
        slices.push(Slice {
            wall_s,
            fetches: now_issued - issued,
            events: report.events,
        });
        issued = now_issued;
        pending_events_max = pending_events_max.max(bed.world().pending_events() as u64);
    }
    spans.exit(measure);
    alloc::set_counting(false);
    let allocs_after = alloc::counts();
    let profile = profile_delta(&bed.world().profile_report(), &profile_before);
    let counters: Vec<u64> = read_counters(bed.world().metrics())
        .iter()
        .zip(&counters_before)
        .map(|(after, before)| after - before)
        .collect();

    let ((), drain_s) = spans.time("core.drain", index, || {
        bed.world().run_for(DRAIN);
    });
    let undrained = bed.undrained_entries();
    let fingerprint = bed.world().fingerprint();
    let (mut result, collect_s) =
        spans.time("core.collect", index, || bed.collect(workload.system));
    let (summary, summary_s) = spans.time("core.summary", index, || result.summary());
    spans.exit(root);

    Trial {
        build_s,
        warmup_s,
        drain_s,
        collect_s,
        summary_s,
        slices,
        pending_events_max,
        fetches: result.metrics.counter(names::CLIENT_FETCHES),
        settled_ok: result.report.requests,
        failures: result.metrics.counter(names::CLIENT_FETCH_FAILURES),
        undrained,
        executions: summary.executions,
        mean_ms: summary.app_latency_ms,
        p50_ms: summary.app_latency_p50_ms,
        p99_ms: summary.app_latency_p99_ms,
        hit_ratio: summary.hit_ratio,
        ap_cpu_mean: result
            .metrics
            .time_series(names::AP_CPU)
            .map_or(0.0, TimeSeries::mean),
        fingerprint,
        metrics_bytes: result.metrics.approx_bytes(),
        profile,
        allocs: (
            allocs_after.0 - allocs_before.0,
            allocs_after.1 - allocs_before.1,
        ),
        counters,
    }
}
