//! Trace analysis: per-request critical paths, latency attribution, and
//! exportable telemetry.
//!
//! The simulator records causally-linked spans (see `ape_simnet::trace`);
//! this module turns the raw event stream of one or more runs into:
//!
//! * a [`TraceLog`] — the merged, run-indexed event stream, exportable as
//!   JSONL (one event per line);
//! * an [`Attribution`] — where each request's latency went (DNS lookup,
//!   AP cache hit, delegation, WAN fetch, origin fill), as count / total /
//!   mean / p50 / p95 / p99 per stage;
//! * a plain-text critical-path report — span trees aggregated by their
//!   kind path, flamegraph-style;
//! * a Prometheus-style text snapshot of a run's metric registry.
//!
//! Everything here is deterministic: events are kept in recording order,
//! runs are merged in trial order, and all aggregation iterates `BTreeMap`s
//! — so every derived number and every exported byte is identical across
//! thread counts for the same seed.

use std::collections::BTreeMap;

use ape_proto::SpanKind;
use ape_simnet::{Histogram, Metrics, NodeId, TraceEvent, TracePhase};

/// One trace event tagged with the (merged) run it came from.
#[derive(Debug, Clone, Copy)]
pub struct TraceRecord {
    /// Index of the run within the merged log (trial order).
    pub run: u32,
    /// The recorded span event.
    pub event: TraceEvent,
}

/// The trace event stream of one or more runs of a single configuration.
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    runs: u32,
    node_names: Vec<String>,
    records: Vec<TraceRecord>,
}

impl TraceLog {
    /// Wraps the events of one finished run (run index 0).
    pub fn from_run(node_names: Vec<String>, events: Vec<TraceEvent>) -> Self {
        TraceLog {
            runs: 1,
            node_names,
            records: events
                .into_iter()
                .map(|event| TraceRecord { run: 0, event })
                .collect(),
        }
    }

    /// Number of runs merged into this log.
    pub fn runs(&self) -> u32 {
        self.runs
    }

    /// The merged records, in (run, recording) order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log holds no events.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The registered name of `node`, or `"?"` for ids outside the world.
    pub fn node_name(&self, node: NodeId) -> &str {
        self.node_names
            .get(node.as_raw() as usize)
            .map_or("?", String::as_str)
    }

    /// Appends another log's runs after this one's, re-indexing the
    /// incoming run numbers. Merging in trial order keeps the combined
    /// stream — and everything derived from it — deterministic.
    pub fn merge(&mut self, other: &TraceLog) {
        debug_assert!(
            self.node_names == other.node_names,
            "merging trace logs from different topologies"
        );
        let offset = self.runs;
        self.records
            .extend(other.records.iter().map(|r| TraceRecord {
                run: offset + r.run,
                event: r.event,
            }));
        self.runs += other.runs;
    }

    /// Serializes every event as JSON Lines, one event per line, tagged
    /// with the system label. Byte-identical across thread counts for the
    /// same seed.
    pub fn to_jsonl(&self, system: &str) -> String {
        let mut out = String::with_capacity(self.records.len() * 128);
        for r in &self.records {
            let e = &r.event;
            out.push_str("{\"system\":\"");
            json_escape_into(&mut out, system);
            out.push_str("\",\"run\":");
            out.push_str(&r.run.to_string());
            out.push_str(",\"trace\":");
            out.push_str(&e.trace.0.to_string());
            out.push_str(",\"span\":");
            out.push_str(&e.span.0.to_string());
            out.push_str(",\"parent\":");
            match e.parent {
                Some(p) => out.push_str(&p.0.to_string()),
                None => out.push_str("null"),
            }
            out.push_str(",\"node\":\"");
            json_escape_into(&mut out, self.node_name(e.node));
            out.push_str("\",\"kind\":\"");
            json_escape_into(&mut out, e.kind);
            out.push_str("\",\"phase\":\"");
            out.push_str(e.phase.as_str());
            out.push_str("\",\"at_ns\":");
            out.push_str(&e.at.as_nanos().to_string());
            out.push_str("}\n");
        }
        out
    }

    /// Computes the latency attribution across span kinds.
    pub fn attribution(&self, system: &str) -> Attribution {
        let fetch = SpanKind::Fetch.as_str();
        let mut traces = 0u64;
        let mut completed = 0u64;
        // Open spans keyed by (run, span id); span ids are unique per run.
        let mut open: BTreeMap<(u32, u64), ape_simnet::SimTime> = BTreeMap::new();
        let mut samples: BTreeMap<&'static str, Histogram> = BTreeMap::new();
        for kind in SpanKind::ALL {
            samples.insert(kind.as_str(), Histogram::new());
        }
        for r in &self.records {
            let e = &r.event;
            match e.phase {
                TracePhase::Start => {
                    if e.kind == fetch {
                        traces += 1;
                    }
                    open.insert((r.run, e.span.0), e.at);
                }
                TracePhase::End => {
                    let Some(started) = open.remove(&(r.run, e.span.0)) else {
                        continue;
                    };
                    if e.kind == fetch {
                        completed += 1;
                    }
                    samples
                        .entry(e.kind)
                        .or_default()
                        .record((e.at - started).as_millis_f64());
                }
                TracePhase::Instant => {}
            }
        }
        let stages = samples
            .into_iter()
            .map(|(kind, hist)| (kind.to_owned(), BucketStat::from_histogram(&hist)))
            .collect();
        Attribution {
            system: system.to_owned(),
            traces,
            completed,
            stages,
        }
    }

    /// Renders the flamegraph-style critical-path report: every completed
    /// span aggregated under its ancestor-kind path, with counts, totals
    /// and the share of root (fetch) time.
    pub fn critical_path_report(&self, system: &str) -> String {
        // Span identity → kind and parent, to reconstruct kind paths.
        let mut kind_of: BTreeMap<(u32, u64), &'static str> = BTreeMap::new();
        let mut parent_of: BTreeMap<(u32, u64), Option<u64>> = BTreeMap::new();
        let mut open: BTreeMap<(u32, u64), ape_simnet::SimTime> = BTreeMap::new();
        // Aggregate (count, total ms) per kind path, e.g.
        // ["fetch", "retrieval.delegation", "wan.fetch"].
        let mut paths: BTreeMap<Vec<&'static str>, (u64, f64)> = BTreeMap::new();
        for r in &self.records {
            let e = &r.event;
            let id = (r.run, e.span.0);
            match e.phase {
                TracePhase::Start => {
                    kind_of.insert(id, e.kind);
                    parent_of.insert(id, e.parent.map(|p| p.0));
                    open.insert(id, e.at);
                }
                TracePhase::End => {
                    let Some(started) = open.remove(&id) else {
                        continue;
                    };
                    let mut path = vec![e.kind];
                    let mut cursor = parent_of.get(&id).copied().flatten();
                    while let Some(parent) = cursor {
                        let pid = (r.run, parent);
                        let Some(kind) = kind_of.get(&pid) else { break };
                        path.push(kind);
                        cursor = parent_of.get(&pid).copied().flatten();
                    }
                    path.reverse();
                    let slot = paths.entry(path).or_insert((0, 0.0));
                    slot.0 += 1;
                    slot.1 += (e.at - started).as_millis_f64();
                }
                TracePhase::Instant => {}
            }
        }

        let root_total: f64 = paths
            .iter()
            .filter(|(path, _)| path.len() == 1)
            .map(|(_, (_, total))| *total)
            .sum();
        let mut out = format!(
            "critical paths — {system} ({} runs, {} events)\n",
            self.runs,
            self.records.len()
        );
        if paths.is_empty() {
            out.push_str("(no completed spans)\n");
            return out;
        }
        for (path, (count, total)) in &paths {
            let depth = path.len() - 1;
            let label = format!("{}{}", "  ".repeat(depth), path.last().expect("non-empty"));
            let mean = total / *count as f64;
            let share = if root_total > 0.0 {
                100.0 * total / root_total
            } else {
                0.0
            };
            out.push_str(&format!(
                "{label:<34} count={count:<7} total={total:>12.3}ms  mean={mean:>9.3}ms  {share:>5.1}%\n"
            ));
        }
        out
    }
}

/// Latency statistics of one attribution stage, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BucketStat {
    /// Completed spans of this kind.
    pub count: u64,
    /// Sum of span durations.
    pub total_ms: f64,
    /// Mean span duration (0 when no spans completed).
    pub mean_ms: f64,
    /// Median span duration.
    pub p50_ms: f64,
    /// 95th-percentile span duration.
    pub p95_ms: f64,
    /// 99th-percentile span duration.
    pub p99_ms: f64,
}

impl BucketStat {
    fn from_histogram(hist: &Histogram) -> Self {
        BucketStat {
            count: hist.count() as u64,
            total_ms: hist.sum(),
            mean_ms: hist.mean(),
            p50_ms: hist.p50(),
            p95_ms: hist.p95(),
            p99_ms: hist.p99(),
        }
    }
}

/// Where request latency went, per span kind, for one system variant.
#[derive(Debug, Clone)]
pub struct Attribution {
    /// System label the traces came from.
    pub system: String,
    /// Traces started (sampled-in client fetches).
    pub traces: u64,
    /// Traces whose root fetch span completed.
    pub completed: u64,
    /// Per-stage latency statistics, keyed by span-kind label. Every kind
    /// in [`SpanKind::ALL`] is present (zeroed when unused), so tables have
    /// a stable shape across systems.
    pub stages: BTreeMap<String, BucketStat>,
}

impl Attribution {
    /// The statistics of `kind`'s stage.
    pub fn stage(&self, kind: SpanKind) -> &BucketStat {
        self.stages
            .get(kind.as_str())
            .expect("all kinds are present")
    }

    /// Renders the stage table as aligned plain text.
    pub fn table(&self) -> String {
        let mut out = format!(
            "latency attribution — {} ({} traces, {} completed)\n{:<22} {:>7} {:>12} {:>10} {:>10} {:>10} {:>10}\n",
            self.system, self.traces, self.completed,
            "stage", "count", "total_ms", "mean_ms", "p50_ms", "p95_ms", "p99_ms"
        );
        for kind in SpanKind::ALL {
            let s = self.stage(kind);
            out.push_str(&format!(
                "{:<22} {:>7} {:>12.3} {:>10.3} {:>10.3} {:>10.3} {:>10.3}\n",
                kind.as_str(),
                s.count,
                s.total_ms,
                s.mean_ms,
                s.p50_ms,
                s.p95_ms,
                s.p99_ms
            ));
        }
        out
    }

    /// Exports the attribution as Prometheus text-format summaries.
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "# HELP apecache_trace_stage_latency_ms Stage latency attributed from request traces.\n\
             # TYPE apecache_trace_stage_latency_ms summary\n",
        );
        for (stage, s) in &self.stages {
            for (q, v) in [("0.5", s.p50_ms), ("0.95", s.p95_ms), ("0.99", s.p99_ms)] {
                out.push_str(&format!(
                    "apecache_trace_stage_latency_ms{{system=\"{}\",stage=\"{stage}\",quantile=\"{q}\"}} {v}\n",
                    self.system
                ));
            }
            out.push_str(&format!(
                "apecache_trace_stage_latency_ms_sum{{system=\"{}\",stage=\"{stage}\"}} {}\n",
                self.system, s.total_ms
            ));
            out.push_str(&format!(
                "apecache_trace_stage_latency_ms_count{{system=\"{}\",stage=\"{stage}\"}} {}\n",
                self.system, s.count
            ));
        }
        out.push_str("# TYPE apecache_trace_traces_total counter\n");
        out.push_str(&format!(
            "apecache_trace_traces_total{{system=\"{}\"}} {}\n",
            self.system, self.traces
        ));
        out.push_str("# TYPE apecache_trace_traces_completed_total counter\n");
        out.push_str(&format!(
            "apecache_trace_traces_completed_total{{system=\"{}\"}} {}\n",
            self.system, self.completed
        ));
        out
    }
}

/// Exports a run's metric registry as Prometheus text format: counters as
/// `apecache_<name>_total` and histograms as summaries (p50/p95/p99 plus
/// `_sum`/`_count`), all labelled with the system variant. Metric-name dots
/// become underscores. Deterministic: the registry lists names in sorted order.
pub fn prometheus_snapshot(metrics: &Metrics, system: &str) -> String {
    let mut out = String::new();
    for name in metrics.counter_names() {
        out.push_str(&format!(
            "apecache_{}_total{{system=\"{system}\"}} {}\n",
            mangle(name),
            metrics.counter(name)
        ));
    }
    for name in metrics.histogram_names() {
        let mangled = mangle(name);
        let hist = metrics.histogram(name).expect("name from registry");
        for (q, quantile) in [("0.5", 0.5), ("0.95", 0.95), ("0.99", 0.99)] {
            let v = hist.quantile(quantile);
            out.push_str(&format!(
                "apecache_{mangled}{{system=\"{system}\",quantile=\"{q}\"}} {v}\n"
            ));
        }
        let sum: f64 = hist.sum();
        out.push_str(&format!(
            "apecache_{mangled}_sum{{system=\"{system}\"}} {sum}\n"
        ));
        out.push_str(&format!(
            "apecache_{mangled}_count{{system=\"{system}\"}} {}\n",
            hist.count()
        ));
        out.push_str(&format!(
            "apecache_{mangled}_dropped_total{{system=\"{system}\"}} {}\n",
            hist.dropped_samples()
        ));
    }
    out
}

fn mangle(name: &str) -> String {
    name.replace(['.', '-'], "_")
}

fn json_escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ape_proto::names;
    use ape_simnet::{SimTime, SpanId, TraceId};

    fn event(
        at_ms: u64,
        trace: u64,
        span: u64,
        parent: Option<u64>,
        kind: &'static str,
        phase: TracePhase,
    ) -> TraceEvent {
        TraceEvent {
            at: SimTime::from_millis(at_ms),
            trace: TraceId(trace),
            span: SpanId(span),
            parent: parent.map(SpanId),
            node: NodeId::from_raw(0),
            kind,
            phase,
        }
    }

    fn sample_log() -> TraceLog {
        let fetch = SpanKind::Fetch.as_str();
        let lookup = SpanKind::Lookup.as_str();
        let hit = SpanKind::RetrievalHit.as_str();
        TraceLog::from_run(
            vec!["client0".to_owned()],
            vec![
                event(0, 0, 0, None, fetch, TracePhase::Start),
                event(0, 0, 1, Some(0), lookup, TracePhase::Start),
                event(4, 0, 1, Some(0), lookup, TracePhase::End),
                event(4, 0, 2, Some(0), hit, TracePhase::Start),
                event(10, 0, 2, Some(0), hit, TracePhase::End),
                event(10, 0, 0, None, fetch, TracePhase::End),
            ],
        )
    }

    #[test]
    fn attribution_buckets_span_durations() {
        let a = sample_log().attribution("TEST");
        assert_eq!(a.traces, 1);
        assert_eq!(a.completed, 1);
        assert_eq!(a.stage(SpanKind::Fetch).count, 1);
        assert_eq!(a.stage(SpanKind::Fetch).mean_ms, 10.0);
        assert_eq!(a.stage(SpanKind::Lookup).mean_ms, 4.0);
        assert_eq!(a.stage(SpanKind::RetrievalHit).mean_ms, 6.0);
        assert_eq!(a.stage(SpanKind::WanFetch).count, 0);
        assert_eq!(a.stages.len(), SpanKind::ALL.len());
    }

    #[test]
    fn merge_offsets_run_indices() {
        let mut a = sample_log();
        let b = sample_log();
        a.merge(&b);
        assert_eq!(a.runs(), 2);
        assert_eq!(a.len(), 12);
        assert_eq!(a.records()[6].run, 1);
        let attribution = a.attribution("TEST");
        assert_eq!(attribution.traces, 2);
        assert_eq!(attribution.completed, 2);
    }

    #[test]
    fn jsonl_is_one_parseable_object_per_line() {
        let log = sample_log();
        let jsonl = log.to_jsonl("TEST");
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 6);
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"system\":\"TEST\""));
            assert!(line.contains("\"node\":\"client0\""));
        }
        assert!(jsonl.contains("\"parent\":null"));
        assert!(jsonl.contains("\"parent\":0"));
    }

    #[test]
    fn critical_path_report_nests_by_parentage() {
        let report = sample_log().critical_path_report("TEST");
        assert!(report.contains("fetch"), "{report}");
        assert!(report.contains("  lookup"), "{report}");
        assert!(report.contains("  retrieval.hit"), "{report}");
        assert!(report.contains("100.0%"), "{report}");
    }

    #[test]
    fn prometheus_export_has_summaries() {
        let prom = sample_log().attribution("TEST").prometheus();
        assert!(prom.contains(
            "apecache_trace_stage_latency_ms{system=\"TEST\",stage=\"fetch\",quantile=\"0.5\"} 10"
        ));
        assert!(prom.contains("apecache_trace_traces_total{system=\"TEST\"} 1"));
    }

    #[test]
    fn metric_snapshot_exports_counters_and_histograms() {
        let mut m = Metrics::new();
        m.incr_id(names::id::CLIENT_FETCHES, 3);
        m.observe_id(names::id::CLIENT_APP_LATENCY_MS, 5.0);
        m.observe_id(names::id::CLIENT_APP_LATENCY_MS, 7.0);
        let prom = prometheus_snapshot(&m, "TEST");
        assert!(prom.contains("apecache_client_fetches_total{system=\"TEST\"} 3"));
        // Nearest-rank p50 is 5.0; the histogram answers within 1% of it.
        let p50: f64 = prom
            .lines()
            .find_map(|l| {
                l.strip_prefix("apecache_client_app_latency_ms{system=\"TEST\",quantile=\"0.5\"} ")
            })
            .expect("p50 line")
            .parse()
            .expect("numeric p50");
        assert!((p50 - 5.0).abs() <= 0.05, "p50 {p50}");
        assert!(prom.contains("apecache_client_app_latency_ms_sum{system=\"TEST\"} 12"));
        assert!(prom.contains("apecache_client_app_latency_ms_count{system=\"TEST\"} 2"));
        assert!(prom.contains("apecache_client_app_latency_ms_dropped_total{system=\"TEST\"} 0"));
    }

    #[test]
    fn unmatched_spans_are_skipped_not_counted() {
        let fetch = SpanKind::Fetch.as_str();
        let log = TraceLog::from_run(
            vec!["client0".to_owned()],
            vec![event(0, 0, 0, None, fetch, TracePhase::Start)],
        );
        let a = log.attribution("TEST");
        assert_eq!(a.traces, 1);
        assert_eq!(a.completed, 0);
        assert_eq!(a.stage(SpanKind::Fetch).count, 0);
    }
}
