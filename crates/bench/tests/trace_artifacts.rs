//! Integration pins for the `trace` artifact: the exported telemetry is
//! well-formed, covers every system, and is byte-identical across runner
//! thread counts for the same seed.

use ape_bench::{trace_artifacts, ReproOptions};

const SYSTEM_LABELS: [&str; 4] = ["APE-CACHE", "APE-CACHE-LRU", "Wi-Cache", "Edge Cache"];

fn opts(threads: usize) -> ReproOptions {
    ReproOptions {
        minutes: 2,
        trials: 2,
        micro_trials: 1,
        threads,
        seed: 42,
    }
}

/// A structural check for one JSONL line — the schema the docs promise,
/// without a JSON parser dependency.
fn check_jsonl_line(line: &str) {
    assert!(
        line.starts_with("{\"system\":\"") && line.ends_with('}'),
        "malformed JSONL line: {line}"
    );
    if line.contains("\"histogram\":\"") {
        // Histogram-health summary line, not a span event.
        for key in ["\"count\":", "\"dropped_samples\":"] {
            assert!(line.contains(key), "line missing {key}: {line}");
        }
        let dropped = line
            .rsplit_once("\"dropped_samples\":")
            .map(|(_, rest)| rest.trim_end_matches('}'))
            .expect("dropped_samples field");
        dropped
            .parse::<u64>()
            .expect("dropped_samples is an integer");
        return;
    }
    for key in [
        "\"run\":",
        "\"trace\":",
        "\"span\":",
        "\"parent\":",
        "\"node\":\"",
        "\"kind\":\"",
        "\"phase\":\"",
        "\"at_ns\":",
    ] {
        assert!(line.contains(key), "line missing {key}: {line}");
    }
    let at = line
        .rsplit_once("\"at_ns\":")
        .map(|(_, rest)| rest.trim_end_matches('}'))
        .expect("at_ns field");
    at.parse::<u64>().expect("at_ns is an integer");
}

#[test]
fn trace_artifacts_are_complete_and_deterministic_across_threads() {
    let sequential = trace_artifacts(&opts(1));
    let parallel = trace_artifacts(&opts(4));

    // Byte-identical telemetry regardless of worker-pool size.
    assert_eq!(sequential.report, parallel.report);
    assert_eq!(sequential.jsonl, parallel.jsonl);
    assert_eq!(sequential.prometheus, parallel.prometheus);

    // Every system appears in every artifact.
    for label in SYSTEM_LABELS {
        assert!(
            sequential
                .report
                .contains(&format!("latency attribution — {label}")),
            "report missing attribution table for {label}"
        );
        assert!(
            sequential
                .report
                .contains(&format!("critical paths — {label}")),
            "report missing critical paths for {label}"
        );
        assert!(
            sequential
                .jsonl
                .contains(&format!("{{\"system\":\"{label}\"")),
            "jsonl missing events for {label}"
        );
    }

    // The span log is non-trivial and every line is well-formed.
    let lines: Vec<&str> = sequential.jsonl.lines().collect();
    assert!(lines.len() > 100, "only {} span events", lines.len());
    for line in &lines {
        check_jsonl_line(line);
    }
    // Both trials contributed events.
    assert!(sequential.jsonl.contains("\"run\":0,"));
    assert!(sequential.jsonl.contains("\"run\":1,"));
    // Histogram-health summaries rode along, with zero drops on a clean run.
    assert!(
        sequential
            .jsonl
            .contains("\"histogram\":\"client.app_latency_ms\""),
        "jsonl missing histogram summaries"
    );
    assert!(sequential.jsonl.contains("\"dropped_samples\":0}"));

    // Prometheus snapshot exports the stage summaries and run counters.
    for needle in [
        "apecache_trace_stage_latency_ms",
        "apecache_trace_traces_total",
        "apecache_client_fetches_total",
    ] {
        assert!(
            sequential.prometheus.contains(needle),
            "prometheus output missing {needle}"
        );
    }
}
