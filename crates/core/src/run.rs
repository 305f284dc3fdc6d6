//! Executing testbeds — sequentially or across a thread pool — and
//! summarizing their measurements.
//!
//! # Determinism contract
//!
//! Every run owns its own seeded [`World`](ape_simnet::World), so a job's
//! [`RunResult`] depends only on its `(config, duration)` pair — never on
//! which worker thread executed it or what ran beside it. [`run_many`]
//! returns results in job order, and replicated runs merge trial metrics in
//! trial order, so all derived [`Summary`] numbers are **bitwise identical**
//! across thread counts (`--threads 1` vs `--threads N`). A test in this
//! module pins that property via `f64::to_bits`.

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

/// Fans independent `(system × sweep-point × seed)` jobs across a pool of
/// OS threads.
///
/// Workers pull jobs off a shared atomic cursor (dynamic load balancing —
/// sweep points differ wildly in event count) and write each result into
/// the slot indexed by its job position, so the output order is the input
/// order no matter how the OS schedules the workers.
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
        if jobs.is_empty() {
            return Vec::new();
        }
        let workers = self.threads.min(jobs.len()).max(1);
        if workers == 1 {
            return jobs
                .iter()
                .map(|job| run_system(&job.config, job.duration))
                .collect();
        }

        let cursor = AtomicUsize::new(0);
        let mut slots: Vec<Option<RunResult>> = Vec::new();
        slots.resize_with(jobs.len(), || None);

        thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for _ in 0..workers {
                handles.push(scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let idx = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(idx) else { break };
                        local.push((idx, run_system(&job.config, job.duration)));
                    }
                    local
                }));
            }
            for handle in handles {
                for (idx, result) in handle.join().expect("runner worker panicked") {
                    slots[idx] = Some(result);
                }
            }
        });

        slots
            .into_iter()
            .map(|slot| slot.expect("every job produces a result"))
            .collect()
    }

    /// Runs `trials` replicas of `config` — seeds `config.seed`,
    /// `config.seed + 1`, … — in parallel and merges them (in trial order)
    /// into one pooled [`RunResult`].
    pub fn run_replicated(
        &self,
        config: &TestbedConfig,
        duration: SimDuration,
        trials: usize,
    ) -> RunResult {
        let jobs = replicate_jobs(config, duration, trials);
        let results = self.run_many(&jobs);
        merge_trials(results)
    }

    /// Runs all four systems under identical workloads, `trials` replicas
    /// each, and returns their summaries in the paper's presentation order.
    pub fn compare_systems(
        &self,
        base: &TestbedConfig,
        duration: SimDuration,
        trials: usize,
    ) -> Vec<(System, Summary)> {
        let mut jobs = Vec::new();
        for &system in System::ALL.iter() {
            let config = TestbedConfig {
                system,
                ..base.clone()
            };
            jobs.extend(replicate_jobs(&config, duration, trials));
        }
        let mut results = self.run_many(&jobs);
        System::ALL
            .iter()
            .map(|&system| {
                let rest = results.split_off(trials.max(1));
                let mut merged = merge_trials(std::mem::replace(&mut results, rest));
                (system, merged.summary())
            })
            .collect()
    }
}

/// Expands one configuration into `trials` jobs with consecutive seeds.
fn replicate_jobs(config: &TestbedConfig, duration: SimDuration, trials: usize) -> Vec<RunJob> {
    (0..trials.max(1))
        .map(|trial| {
            let mut config = config.clone();
            config.seed = config.seed.wrapping_add(trial as u64);
            RunJob::new(config, duration)
        })
        .collect()
}

/// Folds trial results (already in trial order) into one pooled result.
fn merge_trials(results: Vec<RunResult>) -> RunResult {
    let mut iter = results.into_iter();
    let mut merged = iter.next().expect("at least one trial");
    for result in iter {
        merged.merge(&result);
    }
    merged
}

/// Executes jobs across `threads` worker threads (0 = auto), returning
/// results in job order. Free-function form of [`ParallelRunner::run_many`].
pub fn run_many(jobs: &[RunJob], threads: usize) -> Vec<RunResult> {
    ParallelRunner::with_threads(threads).run_many(jobs)
}

/// Runs all four systems under identical workloads and returns their
/// summaries in the paper's presentation order.
///
/// Single-trial wrapper over [`ParallelRunner::compare_systems`]; the
/// summaries are bitwise identical to running each system sequentially.
pub fn compare_systems(base: &TestbedConfig, duration: SimDuration) -> Vec<(System, Summary)> {
    ParallelRunner::new().compare_systems(base, duration, 1)
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

    #[test]
    fn parallel_runner_is_bitwise_identical_to_sequential() {
        // Tracing stays on here so the pin also covers span recording and
        // the attribution numbers derived from it.
        let mut base = small_config(System::ApeCache);
        base.trace = ape_simnet::TraceConfig::enabled();
        let duration = SimDuration::from_mins(2);
        let trials = 3;

        let compare = |threads: usize| {
            ParallelRunner::with_threads(threads).compare_systems(&base, duration, trials)
        };
        let sequential = compare(1);
        let parallel = compare(4);

        assert_eq!(sequential.len(), parallel.len());
        for ((sys_a, sum_a), (sys_b, sum_b)) in sequential.iter().zip(parallel.iter()) {
            assert_eq!(sys_a, sys_b);
            assert_eq!(sum_a.system, sum_b.system);
            assert_eq!(
                summary_bits(sum_a),
                summary_bits(sum_b),
                "summaries for {sys_a:?} differ between 1 and 4 threads"
            );
        }
    }

    #[test]
    fn traced_runs_export_identical_jsonl_across_thread_counts() {
        let mut base = small_config(System::ApeCache);
        base.trace = ape_simnet::TraceConfig::enabled();
        let duration = SimDuration::from_mins(2);
        let export = |threads: usize| {
            let result = ParallelRunner::with_threads(threads).run_replicated(&base, duration, 2);
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
        let results = run_many(&jobs, 3);
        let systems: Vec<System> = results.iter().map(|r| r.system).collect();
        assert_eq!(
            systems,
            vec![System::ApeCache, System::EdgeCache, System::ApeCacheLru]
        );
    }

    #[test]
    fn replication_pools_trials() {
        let config = small_config(System::ApeCache);
        let duration = SimDuration::from_mins(2);
        let runner = ParallelRunner::with_threads(2);
        let one = runner.run_replicated(&config, duration, 1);
        let three = runner.run_replicated(&config, duration, 3);
        assert!(
            three.report.executions > one.report.executions,
            "pooled trials should accumulate executions ({} vs {})",
            three.report.executions,
            one.report.executions
        );
    }
}
