//! The `trace` artifact: a traced sweep over all four systems producing
//! per-request latency attribution, critical-path reports, the JSONL span
//! log and each run's metric registry with its digest.
//!
//! Every string returned here is deterministic: runs execute through the
//! same `ReproOptions::run` as the figure sweeps, results come back in
//! input order, and all rendering iterates sorted maps — so the
//! artifacts are byte-identical across `--threads 1` and `--threads N` for
//! the same seed. The integration tests under `tests/` pin that property.

use ape_appdag::DummyAppConfig;
use ape_simnet::TraceConfig;
use apecache::{System, TestbedConfig};

use crate::experiments::{base_config, ReproOptions};

/// Number of apps in the traced workload (matches the table sweeps).
const TRACE_APPS: usize = 30;

/// Span-ring capacity for traced repro runs; sized so a full-length run
/// never evicts (each request emits ~10 events).
const TRACE_CAPACITY: usize = 1 << 20;

/// The three exportable outputs of a traced sweep.
#[derive(Debug, Clone)]
pub struct TraceArtifacts {
    /// Human-readable report: per-system latency-attribution tables plus
    /// flamegraph-style critical-path breakdowns.
    pub report: String,
    /// One JSON object per span event, all systems concatenated
    /// (distinguished by the `"system"` field).
    pub jsonl: String,
    /// Each run's metric registry: a `== {label} (digest …) ==` line with
    /// [`Metrics::digest`](ape_simnet::Metrics::digest), then the
    /// registry's `Display` (every counter, each histogram's `n=` and
    /// `dropped=`, every series).
    pub metrics: String,
}

/// The testbed configuration a traced run uses for `system`: the standard
/// sweep workload with tracing switched on.
pub fn traced_config(system: System, opts: &ReproOptions) -> TestbedConfig {
    let mut config = base_config(system, opts, &DummyAppConfig::default(), TRACE_APPS);
    config.trace = TraceConfig {
        enabled: true,
        capacity: TRACE_CAPACITY,
    };
    config
}

/// Runs all four systems once with tracing enabled and assembles the
/// exportable artifacts.
pub fn trace_artifacts(opts: &ReproOptions) -> TraceArtifacts {
    let configs = System::ALL.map(|system| traced_config(system, opts));
    let results = opts.run(&configs);

    let mut report = String::from(
        "Request tracing: latency attribution and critical paths\n\
         (deterministic span log; one run per system)\n",
    );
    let mut jsonl = String::new();
    let mut metrics = String::new();

    for result in &results {
        let label = result.system.label();
        let log = result
            .trace
            .as_ref()
            .expect("tracing was enabled in the config");

        report.push('\n');
        report.push_str(&log.attribution(label).table());
        report.push('\n');
        report.push_str(&log.critical_path_report(label));

        jsonl.push_str(&log.to_jsonl(label));

        let registry = &result.metrics;
        metrics.push_str(&format!(
            "== {label} (digest {:#018x}) ==\n{registry}",
            registry.digest()
        ));
    }

    TraceArtifacts {
        report,
        jsonl,
        metrics,
    }
}
