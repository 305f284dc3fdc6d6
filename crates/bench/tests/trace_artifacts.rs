//! Integration pins for the `trace` artifact: the exported telemetry is
//! well-formed, covers every system, and is byte-identical across runner
//! thread counts for the same seed.

use ape_bench::{trace_artifacts, ReproOptions};

const SYSTEM_LABELS: [&str; 4] = ["APE-CACHE", "APE-CACHE-LRU", "Wi-Cache", "Edge Cache"];

fn opts(threads: usize) -> ReproOptions {
    ReproOptions {
        minutes: 2,
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
    for key in [
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
    assert_eq!(sequential.metrics, parallel.metrics);

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
        assert!(
            sequential
                .metrics
                .contains(&format!("== {label} (digest 0x")),
            "metrics missing the registry of {label}"
        );
    }

    // The span log is non-trivial and every line is well-formed.
    let lines: Vec<&str> = sequential.jsonl.lines().collect();
    assert!(lines.len() > 100, "only {} span events", lines.len());
    for line in &lines {
        check_jsonl_line(line);
    }
    // One run per system: no line carries a run index.
    assert!(!sequential.jsonl.contains("\"run\":"));
    // Every histogram of every registry kept all its samples.
    let histograms: Vec<&str> = sequential
        .metrics
        .lines()
        .filter(|line| line.starts_with("hist "))
        .collect();
    assert!(
        histograms
            .iter()
            .any(|line| line.starts_with("hist client.app_latency_ms:")),
        "metrics missing the app latency histogram"
    );
    for line in histograms {
        assert!(
            line.ends_with(" dropped=0"),
            "a histogram dropped samples: {line}"
        );
    }
}
