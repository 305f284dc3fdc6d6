//! Executing testbeds — sequentially or across a thread pool — and
//! summarizing their measurements.
//!
//! # Determinism contract
//!
//! Every run owns its own seeded [`World`](ape_simnet::World), so a job's
//! [`RunResult`] depends only on its `(config, duration)` pair — never on
//! which worker thread executed it or what ran beside it.
//! [`ParallelRunner::run_many`] returns results in job order and
//! [`ParallelRunner::run_pooled`] merges replicas in trial order, so all
//! derived [`Summary`] numbers are **bitwise identical** across thread
//! counts (`--threads 1` vs `--threads N`). A test in this module pins
//! that property via `f64::to_bits`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

use ape_nodes::ClientNode;
use ape_proto::{names, Msg};
use ape_simnet::{Metrics, NodeId, ProfileReport, SimDuration, TimeSeries, World};

use crate::system::System;
use crate::testbed::{build, Testbed, TestbedConfig};
use crate::topology::Topology;
use crate::trace::{Attribution, TraceLog};

/// Raw result of one run: the full metric registry plus merged client
/// counters.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Which system ran.
    pub system: System,
    /// The world's metric registry at the end of the run.
    pub metrics: Metrics,
    /// Merged per-client outcome counters.
    pub report: ape_nodes::ClientReport,
    /// The run's span events, when tracing was enabled in the config.
    pub trace: Option<TraceLog>,
    /// Host-time attribution from the sim-loop self-profiler (all-zero
    /// unless the config enabled it).
    pub profile: ProfileReport,
}

/// Headline numbers extracted from a run, named after the paper's plots.
#[derive(Debug, Clone)]
pub struct Summary {
    /// System label.
    pub system: String,
    /// Mean cache-lookup latency over actual lookup operations (Fig. 11a).
    pub lookup_ms: f64,
    /// Mean retrieval latency over all fetches (Fig. 11c aggregates over
    /// hit locations the same way).
    pub retrieval_ms: f64,
    /// Mean retrieval latency for AP cache hits only.
    pub retrieval_hit_ms: f64,
    /// Mean retrieval latency for edge fetches only.
    pub retrieval_edge_ms: f64,
    /// Object-level latency: lookup + retrieval stage means (§V-B summary).
    pub object_level_ms: f64,
    /// Mean app-level latency (Fig. 12/13).
    pub app_latency_ms: f64,
    /// Median app-level latency.
    pub app_latency_p50_ms: f64,
    /// 95th-percentile app-level latency (Fig. 12 tail).
    pub app_latency_p95_ms: f64,
    /// 99th-percentile app-level latency.
    pub app_latency_p99_ms: f64,
    /// Per-app mean and p95 latency, keyed by app name.
    pub per_app_latency_ms: BTreeMap<String, (f64, f64)>,
    /// AP cache hit ratio across all cacheable fetches.
    pub hit_ratio: f64,
    /// AP cache hit ratio for high-priority fetches.
    pub high_priority_hit_ratio: f64,
    /// Completed app executions.
    pub executions: u64,
    /// Failed fetches.
    pub failures: u64,
    /// Mean AP CPU utilization (0..1).
    pub ap_cpu_mean: f64,
    /// Peak AP CPU utilization (0..1).
    pub ap_cpu_max: f64,
    /// Peak APE-CACHE memory on the AP, MB.
    pub ape_mem_mb_max: f64,
    /// Latency attribution from request traces (when tracing was on).
    pub attribution: Option<Attribution>,
}

/// Builds the testbed for `config`, runs it for `duration`, and collects
/// results.
pub fn run_system(config: &TestbedConfig, duration: SimDuration) -> RunResult {
    let mut bed = build(config);
    bed.world.run_for(duration);
    collect(config.system, &mut bed)
}

/// Collects results from an already-run testbed.
pub fn collect(system: System, bed: &mut Testbed) -> RunResult {
    collect_from(&mut bed.world, &bed.clients, system)
}

/// Collects results from an already-run topology.
pub fn collect_topology(system: System, top: &mut Topology) -> RunResult {
    collect_from(&mut top.world, &top.clients, system)
}

fn collect_from(world: &mut World<Msg>, clients: &[NodeId], system: System) -> RunResult {
    let mut report = ape_nodes::ClientReport::default();
    for &client in clients {
        report.merge(&world.node::<ClientNode>(client).report());
    }
    let trace = world.trace().is_enabled().then(|| {
        let names: Vec<String> = (0..world.node_count())
            .map(|i| world.node_name(NodeId::from_raw(i as u32)).to_owned())
            .collect();
        TraceLog::from_run(names, world.take_trace_events())
    });
    RunResult {
        system,
        metrics: world.metrics().clone(),
        report,
        trace,
        profile: world.profile_report(),
    }
}

impl RunResult {
    /// Extracts the headline summary.
    // `&mut self` only because `benchmark/src/trial.rs` binds its result
    // `mut` for this call and may not be edited.
    pub fn summary(&mut self) -> Summary {
        let m = &self.metrics;
        let lookup_ms = m.mean(names::CLIENT_LOOKUP_QUERY_MS);
        let retrieval_ms = m.mean(names::CLIENT_RETRIEVAL_MS);
        let retrieval_hit_ms = m.mean(names::CLIENT_RETRIEVAL_HIT_MS);
        let retrieval_edge_ms = m.mean(names::CLIENT_RETRIEVAL_EDGE_MS);
        let app_latency_ms = m.mean(names::CLIENT_APP_LATENCY_MS);
        let app_latency_p50_ms = m.quantile(names::CLIENT_APP_LATENCY_MS, 0.50);
        let app_latency_p95_ms = m.quantile(names::CLIENT_APP_LATENCY_MS, 0.95);
        let app_latency_p99_ms = m.quantile(names::CLIENT_APP_LATENCY_MS, 0.99);

        let mut per_app_latency_ms = BTreeMap::new();
        for key in m.histogram_names() {
            if let Some(app) = key.strip_prefix(names::CLIENT_APP_LATENCY_MS_PREFIX) {
                per_app_latency_ms.insert(app.to_owned(), (m.mean(key), m.quantile(key, 0.95)));
            }
        }

        let cpu = m.time_series(names::AP_CPU);
        let mem = m.time_series(names::AP_APE_MEM_MB);
        let attribution = self
            .trace
            .as_ref()
            .map(|t| t.attribution(self.system.label()));

        Summary {
            system: self.system.label().to_owned(),
            lookup_ms,
            retrieval_ms,
            retrieval_hit_ms,
            retrieval_edge_ms,
            object_level_ms: lookup_ms + retrieval_ms,
            app_latency_ms,
            app_latency_p50_ms,
            app_latency_p95_ms,
            app_latency_p99_ms,
            per_app_latency_ms,
            hit_ratio: self.report.hit_ratio(),
            high_priority_hit_ratio: self.report.high_priority_hit_ratio(),
            executions: self.report.executions,
            failures: self.report.failures,
            // Time-weighted: CPU/memory are sampled states, not events, so
            // the average must weight each sample by how long it was held.
            ap_cpu_mean: cpu.map_or(0.0, TimeSeries::time_weighted_mean),
            ap_cpu_max: cpu.map_or(0.0, TimeSeries::max),
            ape_mem_mb_max: mem.map_or(0.0, TimeSeries::max),
            attribution,
        }
    }

    /// Merges another run's raw measurements into this one (counters add,
    /// histogram samples and series points append in call order).
    ///
    /// Used to pool `trials` replicas of one sweep point before extracting
    /// a [`Summary`]: means and percentiles are then computed over the
    /// pooled samples. Merge order must be deterministic (trial order) for
    /// the bitwise-determinism contract to hold.
    pub fn merge(&mut self, other: &RunResult) {
        debug_assert_eq!(self.system, other.system, "merging across systems");
        self.metrics.merge(&other.metrics);
        self.report.merge(&other.report);
        match (&mut self.trace, &other.trace) {
            (Some(mine), Some(theirs)) => mine.merge(theirs),
            (mine @ None, Some(theirs)) => *mine = Some(theirs.clone()),
            (_, None) => {}
        }
        self.profile.merge(&other.profile);
    }
}

/// One independent simulation to execute: a full testbed configuration
/// (including its seed) plus how long to run it.
#[derive(Debug, Clone)]
pub struct RunJob {
    /// Testbed configuration; `config.seed` makes the job self-contained.
    pub config: TestbedConfig,
    /// Simulated time to run for.
    pub duration: SimDuration,
}

impl RunJob {
    /// Convenience constructor.
    pub fn new(config: TestbedConfig, duration: SimDuration) -> Self {
        RunJob { config, duration }
    }
}

/// Runs `f(0)`, …, `f(n - 1)` on up to `threads` OS threads and returns the
/// results in index order.
///
/// Workers pull indices off a shared atomic cursor (dynamic load balancing
/// — sweep points differ wildly in event count) and each result lands in
/// the slot of its index, so the output order never depends on how the OS
/// schedules the workers. With one worker (or one index) `f` runs on the
/// calling thread. A panic in `f` resumes on the caller.
pub fn parallel_map<T: Send>(n: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let workers = threads.min(n).max(1);
    if workers == 1 {
        return (0..n).map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = Vec::new();
    slots.resize_with(n, || None);
    thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let idx = cursor.fetch_add(1, Ordering::Relaxed);
                        if idx >= n {
                            break local;
                        }
                        local.push((idx, f(idx)));
                    }
                })
            })
            .collect();
        for handle in handles {
            let local = handle
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (idx, result) in local {
                slots[idx] = Some(result);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every index produces a result"))
        .collect()
}

/// Fans independent `(system × sweep-point × seed)` jobs across a pool of
/// OS threads ([`parallel_map`]).
#[derive(Debug, Clone, Copy)]
pub struct ParallelRunner {
    threads: usize,
}

impl Default for ParallelRunner {
    fn default() -> Self {
        ParallelRunner::new()
    }
}

impl ParallelRunner {
    /// A runner sized to the machine's available parallelism.
    pub fn new() -> Self {
        ParallelRunner::with_threads(0)
    }

    /// A runner with an explicit pool size; `0` means auto-detect.
    pub fn with_threads(threads: usize) -> Self {
        let threads = if threads == 0 {
            thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            threads
        };
        ParallelRunner { threads }
    }

    /// The worker-pool size this runner will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Executes every job and returns results in job order.
    ///
    /// Results are bitwise independent of the pool size: each job runs in
    /// its own freshly seeded `World`, and slot `i` of the output always
    /// holds job `i`'s result.
    pub fn run_many(&self, jobs: &[RunJob]) -> Vec<RunResult> {
        parallel_map(jobs.len(), self.threads, |idx| {
            run_system(&jobs[idx].config, jobs[idx].duration)
        })
    }

    /// Runs `trials` replicas of every configuration — seeds `config.seed`,
    /// `config.seed + 1`, … — through one [`run_many`](Self::run_many) call,
    /// so the whole batch load-balances across the pool, and returns one
    /// [`RunResult`] per configuration, in input order, with its replicas
    /// merged in trial order.
    pub fn run_pooled(
        &self,
        configs: &[TestbedConfig],
        duration: SimDuration,
        trials: usize,
    ) -> Vec<RunResult> {
        let trials = trials.max(1);
        let jobs: Vec<RunJob> = configs
            .iter()
            .flat_map(|config| {
                (0..trials).map(move |trial| {
                    let mut config = config.clone();
                    config.seed = config.seed.wrapping_add(trial as u64);
                    RunJob::new(config, duration)
                })
            })
            .collect();
        let mut results = self.run_many(&jobs).into_iter();
        configs
            .iter()
            .map(|_| {
                let mut pooled = results.next().expect("one result per job");
                for _ in 1..trials {
                    pooled.merge(&results.next().expect("one result per job"));
                }
                pooled
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ape_appdag::{generate_fleet, DummyAppConfig};
    use ape_simnet::SimRng;
    use ape_workload::ScheduleConfig;

    fn small_config(system: System) -> TestbedConfig {
        let mut rng = SimRng::seed_from(3);
        let apps = generate_fleet(5, &DummyAppConfig::default(), &mut rng);
        let mut config = TestbedConfig::new(system, apps);
        config.schedule = ScheduleConfig {
            apps: 5,
            avg_per_minute: 3.0,
            zipf_exponent: 0.8,
            duration: SimDuration::from_mins(5),
        };
        config
    }

    #[test]
    fn ape_cache_run_produces_sane_summary() {
        let mut result = run_system(&small_config(System::ApeCache), SimDuration::from_mins(5));
        let s = result.summary();
        assert!(s.executions > 30, "executions {}", s.executions);
        assert_eq!(s.failures, 0, "failures {:?}", s.failures);
        assert!(s.hit_ratio > 0.5, "hit ratio {}", s.hit_ratio);
        assert!(s.app_latency_ms > 1.0 && s.app_latency_ms < 200.0);
        assert!(s.lookup_ms < 25.0, "lookup {}", s.lookup_ms);
        assert!(s.ap_cpu_max <= 1.0);
        assert!(s.ape_mem_mb_max > 3.0);
    }

    #[test]
    fn edge_cache_is_slower_than_ape_cache() {
        let mut ape = run_system(&small_config(System::ApeCache), SimDuration::from_mins(5));
        let mut edge = run_system(&small_config(System::EdgeCache), SimDuration::from_mins(5));
        let ape_s = ape.summary();
        let edge_s = edge.summary();
        assert!(
            ape_s.app_latency_ms < edge_s.app_latency_ms,
            "APE {} vs Edge {}",
            ape_s.app_latency_ms,
            edge_s.app_latency_ms
        );
        assert_eq!(edge_s.hit_ratio, 0.0, "edge baseline never hits the AP");
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let mut r = run_system(&small_config(System::ApeCache), SimDuration::from_mins(2));
            let s = r.summary();
            (
                s.executions,
                s.hit_ratio.to_bits(),
                s.app_latency_ms.to_bits(),
            )
        };
        assert_eq!(run(), run());
    }

    /// Flattens every float in a summary to its bit pattern so equality is
    /// exact, not epsilon-based.
    fn summary_bits(s: &Summary) -> Vec<u64> {
        let mut bits = vec![
            s.lookup_ms.to_bits(),
            s.retrieval_ms.to_bits(),
            s.retrieval_hit_ms.to_bits(),
            s.retrieval_edge_ms.to_bits(),
            s.object_level_ms.to_bits(),
            s.app_latency_ms.to_bits(),
            s.app_latency_p50_ms.to_bits(),
            s.app_latency_p95_ms.to_bits(),
            s.app_latency_p99_ms.to_bits(),
            s.hit_ratio.to_bits(),
            s.high_priority_hit_ratio.to_bits(),
            s.executions,
            s.failures,
            s.ap_cpu_mean.to_bits(),
            s.ap_cpu_max.to_bits(),
            s.ape_mem_mb_max.to_bits(),
        ];
        for (name, (mean, p95)) in &s.per_app_latency_ms {
            bits.push(name.len() as u64);
            bits.push(mean.to_bits());
            bits.push(p95.to_bits());
        }
        if let Some(a) = &s.attribution {
            bits.push(a.traces);
            bits.push(a.completed);
            for (stage, stat) in &a.stages {
                bits.push(stage.len() as u64);
                bits.push(stat.count);
                bits.push(stat.total_ms.to_bits());
                bits.push(stat.mean_ms.to_bits());
                bits.push(stat.p50_ms.to_bits());
                bits.push(stat.p95_ms.to_bits());
                bits.push(stat.p99_ms.to_bits());
            }
        }
        bits
    }

    /// `run_pooled` is `run_system` per `(config, seed + trial)` merged by
    /// hand in trial order, bit for bit, whatever the pool size.
    #[test]
    fn parallel_runner_is_bitwise_identical_to_sequential() {
        // Tracing stays on here so the pin also covers span recording and
        // the attribution numbers derived from it.
        let configs = System::ALL.map(|system| {
            let mut config = small_config(system);
            config.trace = ape_simnet::TraceConfig::enabled();
            config
        });
        let duration = SimDuration::from_mins(2);

        let by_hand: Vec<Vec<u64>> = configs
            .iter()
            .map(|config| {
                let mut replicas = (0..3).map(|trial| {
                    let mut config = config.clone();
                    config.seed += trial;
                    run_system(&config, duration)
                });
                let mut pooled = replicas.next().expect("three trials");
                for replica in replicas {
                    pooled.merge(&replica);
                }
                summary_bits(&pooled.summary())
            })
            .collect();

        for threads in [1, 4] {
            let pooled = ParallelRunner::with_threads(threads).run_pooled(&configs, duration, 3);
            assert_eq!(pooled.len(), configs.len());
            for ((mut result, config), expected) in pooled.into_iter().zip(&configs).zip(&by_hand) {
                assert_eq!(result.system, config.system);
                assert_eq!(
                    &summary_bits(&result.summary()),
                    expected,
                    "{:?} pooled on {threads} thread(s) differs from the hand merge",
                    config.system
                );
            }
        }
    }

    #[test]
    fn traced_runs_export_identical_jsonl_across_thread_counts() {
        let mut base = small_config(System::ApeCache);
        base.trace = ape_simnet::TraceConfig::enabled();
        let duration = SimDuration::from_mins(2);
        let export = |threads: usize| {
            let runner = ParallelRunner::with_threads(threads);
            let result = runner
                .run_pooled(std::slice::from_ref(&base), duration, 2)
                .remove(0);
            let log = result.trace.as_ref().expect("tracing was enabled");
            assert_eq!(log.runs(), 2);
            log.to_jsonl(base.system.label())
        };
        let sequential = export(1);
        let parallel = export(4);
        assert!(!sequential.is_empty(), "traced run recorded no events");
        assert_eq!(sequential, parallel, "JSONL differs across thread counts");
    }

    #[test]
    fn untraced_runs_carry_no_trace_log() {
        let result = run_system(&small_config(System::ApeCache), SimDuration::from_mins(1));
        assert!(result.trace.is_none());
    }

    #[test]
    fn traced_run_attributes_latency_to_stages() {
        let mut config = small_config(System::ApeCache);
        config.trace = ape_simnet::TraceConfig::enabled();
        let mut result = run_system(&config, SimDuration::from_mins(5));
        let summary = result.summary();
        let a = summary.attribution.as_ref().expect("tracing was enabled");
        assert!(a.traces > 30, "traces {}", a.traces);
        assert!(a.completed > 30, "completed {}", a.completed);
        let fetch = a.stage(ape_proto::SpanKind::Fetch);
        let lookup = a.stage(ape_proto::SpanKind::Lookup);
        let hit = a.stage(ape_proto::SpanKind::RetrievalHit);
        assert_eq!(fetch.count, a.completed);
        assert!(lookup.count > 0 && hit.count > 0);
        // Stages nest inside the root fetch span.
        assert!(lookup.mean_ms < fetch.mean_ms);
        assert!(hit.p95_ms <= fetch.p95_ms);
    }

    #[test]
    fn run_many_preserves_job_order() {
        let duration = SimDuration::from_mins(1);
        let jobs: Vec<RunJob> = [System::ApeCache, System::EdgeCache, System::ApeCacheLru]
            .iter()
            .map(|&system| RunJob::new(small_config(system), duration))
            .collect();
        let results = ParallelRunner::with_threads(3).run_many(&jobs);
        let systems: Vec<System> = results.iter().map(|r| r.system).collect();
        assert_eq!(
            systems,
            vec![System::ApeCache, System::EdgeCache, System::ApeCacheLru]
        );
    }

    #[test]
    fn parallel_map_returns_index_order_under_a_pool_larger_than_n() {
        assert_eq!(parallel_map(5, 16, |i| i * i), [0, 1, 4, 9, 16]);
        assert_eq!(parallel_map(5, 1, |i| i * i), [0, 1, 4, 9, 16]);
        assert!(parallel_map(0, 4, |i| i).is_empty());
    }

    #[test]
    #[should_panic(expected = "boom at 3")]
    fn parallel_map_propagates_a_worker_panic() {
        parallel_map(8, 4, |i| assert_ne!(i, 3, "boom at {i}"));
    }
}
