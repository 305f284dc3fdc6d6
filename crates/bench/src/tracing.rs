//! The `trace` artifact: a traced sweep over all four systems producing
//! per-request latency attribution, critical-path reports, and exportable
//! telemetry (JSONL span logs + Prometheus-style text metrics).
//!
//! Every string returned here is deterministic: runs execute through the
//! same [`apecache::ParallelRunner`] as the figure sweeps, results merge in
//! trial order, and all rendering iterates sorted maps — so the artifacts
//! are byte-identical across `--threads 1` and `--threads N` for the same
//! seed. The integration tests under `tests/` pin that property.

use ape_appdag::DummyAppConfig;
use ape_simnet::TraceConfig;
use apecache::{prometheus_snapshot, System, TestbedConfig};

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
    /// (distinguished by the `"system"` field), followed by one
    /// `"histogram"` summary object per metric histogram carrying its
    /// sample count and `dropped_samples` — so release-mode sample
    /// corruption (non-finite observations) is visible in the artifact.
    pub jsonl: String,
    /// Prometheus text-format snapshot: per-stage latency summaries and
    /// the pooled simulation counters/histograms.
    pub prometheus: String,
}

/// The testbed configuration a traced run uses for `system`: the standard
/// sweep workload with tracing switched on at full sampling.
pub fn traced_config(system: System, opts: &ReproOptions) -> TestbedConfig {
    let mut config = base_config(system, opts, &DummyAppConfig::default(), TRACE_APPS);
    config.trace = TraceConfig {
        enabled: true,
        capacity: TRACE_CAPACITY,
        sample_every: 1,
    };
    config
}

/// Runs all four systems with tracing enabled (`opts.trials` replicas
/// each, pooled in trial order) and assembles the exportable artifacts.
pub fn trace_artifacts(opts: &ReproOptions) -> TraceArtifacts {
    let configs = System::ALL.map(|system| traced_config(system, opts));
    let results = opts.run_pooled(&configs);

    let mut report = String::from(
        "Request tracing: latency attribution and critical paths\n\
         (deterministic span log; merged across trials in trial order)\n",
    );
    let mut jsonl = String::new();
    let mut prometheus = String::new();

    for merged in &results {
        let label = merged.system.label();
        let log = merged
            .trace
            .as_ref()
            .expect("tracing was enabled in the config");

        let attribution = log.attribution(label);
        report.push('\n');
        report.push_str(&attribution.table());
        report.push('\n');
        report.push_str(&log.critical_path_report(label));

        jsonl.push_str(&log.to_jsonl(label));
        // Histogram-health summary lines: registry iteration is sorted, so
        // these stay byte-deterministic like the span lines above.
        for name in merged.metrics.histogram_names() {
            let hist = merged.metrics.histogram(name).expect("name from registry");
            jsonl.push_str(&format!(
                "{{\"system\":\"{label}\",\"histogram\":\"{name}\",\"count\":{},\"dropped_samples\":{}}}\n",
                hist.count(),
                hist.dropped_samples(),
            ));
        }

        prometheus.push_str(&attribution.prometheus());
        prometheus.push_str(&prometheus_snapshot(&merged.metrics, label));
    }

    TraceArtifacts {
        report,
        jsonl,
        prometheus,
    }
}
