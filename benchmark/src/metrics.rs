//! The metrics this benchmark declares: name, unit and direction. The
//! same table is in `BENCHMARK.json`; `check.sh` holds the two together.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Decl {
    /// Name, `[A-Za-z0-9_.-]`, layer-prefixed for per-layer metrics.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Decl {
    Decl {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Decl {
    Decl {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the repo sees: printed by every `--trace 0` run.
pub const END_TO_END: [Decl; 8] = [
    lower("setup_s", "s"),
    lower("host_us_per_fetch", "us/fetch"),
    lower("peak_rss_mb", "MB"),
    lower("sim_app_latency_ms_mean", "ms"),
    lower("sim_app_latency_ms_p99", "ms"),
    higher("sim_hit_ratio", "ratio"),
    lower("sim_ap_cpu_mean", "ratio"),
    higher("fetch_ok_share", "share"),
];

/// Single layers (layer = crate): printed by every `--trace 1` run.
pub const PER_LAYER: [Decl; 56] = [
    lower("simnet.events_per_fetch", "count"),
    lower("simnet.sends_per_fetch", "count"),
    lower("simnet.metrics_records_per_fetch", "count"),
    lower("simnet.pending_events_max", "count"),
    lower("simnet.dropped_per_send", "ratio"),
    lower("simnet.dispatch_ns_per_event", "ns"),
    lower("simnet.queue_pop_ns", "ns"),
    lower("simnet.send_ns", "ns"),
    lower("simnet.metrics_record_ns", "ns"),
    lower("simnet.queue_share", "share"),
    lower("simnet.send_share", "share"),
    lower("simnet.metrics_share", "share"),
    lower("simnet.bounce_ns_per_event", "ns"),
    lower("cachealg.evict_calls_per_fetch", "count"),
    lower("cachealg.solver_runs_per_fetch", "count"),
    lower("cachealg.dp_share_of_solves", "share"),
    lower("cachealg.items_per_solve", "count"),
    higher("cachealg.ap_hit_ratio", "ratio"),
    lower("cachealg.evict_us_per_call", "us"),
    lower("cachealg.evict_share", "share"),
    lower("cachealg.admit_us", "us"),
    lower("cachealg.lookup_ns", "ns"),
    lower("dnswire.msgs_per_fetch", "count"),
    lower("dnswire.build_ns_per_msg", "ns"),
    lower("dnswire.wire_len_ns", "ns"),
    lower("dnswire.encode_ns_per_msg", "ns"),
    lower("dnswire.decode_ns_per_msg", "ns"),
    lower("httpsim.url_parse_ns", "ns"),
    lower("proto.event_bytes", "bytes"),
    lower("proto.msg_clone_ns", "ns"),
    lower("appdag.suite_build_ms", "ms"),
    lower("appdag.critical_path_ns_per_app", "ns"),
    lower("workload.schedule_gen_ms", "ms"),
    lower("workload.roam_gen_ms", "ms"),
    lower("workload.zipf_ns_per_sample", "ns"),
    lower("nodes.logic_ns_per_event", "ns"),
    lower("nodes.logic_share", "share"),
    lower("nodes.delegations_per_fetch", "count"),
    higher("nodes.short_circuits_per_fetch", "count"),
    higher("nodes.peer_hits_per_fetch", "count"),
    lower("nodes.retries_per_fetch", "count"),
    lower("nodes.give_ups_per_fetch", "count"),
    lower("nodes.roam_cancels_per_roam", "count"),
    lower("nodes.undrained_entries", "count"),
    lower("core.build_ms", "ms"),
    lower("core.warmup_s", "s"),
    lower("core.drain_s", "s"),
    lower("core.collect_ms", "ms"),
    lower("core.summary_ms", "ms"),
    lower("core.metrics_mb", "MB"),
    lower("core.allocs_per_fetch", "count"),
    lower("core.alloc_kb_per_fetch", "kB"),
    higher("core.sim_s_per_wall_s", "sim_s/wall_s"),
    lower("core.slice_us_per_fetch_p50", "us/fetch"),
    lower("core.slice_us_per_fetch_p90", "us/fetch"),
    lower("core.trace_overhead_share", "share"),
];

/// Whether `name` uses only the characters the benchmark contract allows.
#[cfg(test)]
fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_names_are_valid_and_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|d| d.name)
            .collect();
        assert!(names.iter().all(|n| valid_name(n)), "bad name in {names:?}");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
    }

    #[test]
    fn name_charset_is_enforced() {
        assert!(valid_name("simnet.send_ns"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("µs"));
        assert!(!valid_name(""));
    }
}
