//! One benchmark run: the untraced run behind the end-to-end metrics, or
//! the traced run behind the per-layer metrics, with the correctness gates
//! both apply.

use ape_proto::names;
use ape_simnet::{keys, ProfCategory};

use crate::host;
use crate::kernels::run_kernels;
use crate::spans::Spans;
use crate::stats::{median, quantile, ratio};
use crate::trial::{run_trial, Trial};
use crate::workloads::{Shape, Workload};

/// A correctness check and how it came out.
#[derive(Debug)]
pub struct Gate {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
}

/// What one run reports.
#[derive(Debug)]
pub struct Outcome {
    /// `(metric name, value)`, one per declared metric of the run's kind.
    pub metrics: Vec<(&'static str, f64)>,
    /// Fetches the simulated clients issued.
    pub attempted: u64,
    /// Fetches the simulator brought to no terminal state — neither
    /// delivered nor given up on. Always 0 when the gates hold; simulated
    /// give-ups under injected loss are the modelled system's behaviour and
    /// are reported as `fetch_ok_share`.
    pub failed: u64,
    /// Every gate the run checked.
    pub gates: Vec<Gate>,
    /// Sample counts and sizes behind the numbers, as JSON members.
    pub detail: Vec<(&'static str, String)>,
}

fn gate(gates: &mut Vec<Gate>, name: String, ok: bool) {
    gates.push(Gate { name, ok });
}

/// The gates every trial passes: it drained, and every fetch it issued was
/// either delivered or given up on.
fn trial_gates(gates: &mut Vec<Gate>, label: &str, trial: &Trial) {
    gate(
        gates,
        format!("{label}: drained ({} pending entries)", trial.undrained),
        trial.undrained == 0,
    );
    gate(
        gates,
        format!(
            "{label}: fetches {} = delivered {} + given up {}",
            trial.fetches, trial.settled_ok, trial.failures
        ),
        trial.fetches == trial.settled_ok + trial.failures,
    );
}

/// The city must actually cooperate and roam, or it measures a different
/// system than the one it names.
fn city_gates(gates: &mut Vec<Gate>, label: &str, workload: &Workload, trial: &Trial) {
    if workload.shape == Shape::City {
        let (peer_hits, roams) = (
            trial.counted(names::AP_PEER_HITS),
            trial.counted(names::CLIENT_ROAMS),
        );
        gate(
            gates,
            format!("{label}: peer hits {peer_hits} > 0 and roams {roams} > 0"),
            peer_hits > 0 && roams > 0,
        );
    }
}

fn unsettled(trial: &Trial) -> u64 {
    trial
        .fetches
        .saturating_sub(trial.settled_ok + trial.failures)
}

/// Host µs per fetch of every measured slice of `trials`.
fn us_per_fetch(trials: &[Trial]) -> Vec<f64> {
    trials
        .iter()
        .flat_map(|t| t.slices.iter().map(|s| s.us_per_fetch()))
        .collect()
}

/// The fastest of repeated host timings.
///
/// Every slice of a workload does the same kind and amount of work
/// (thousands of fetches each), so the slices are repeats of one
/// measurement, and on a shared host the noise in them is one-sided: a
/// neighbour can only slow a slice down. The fastest repeat is therefore
/// the estimate least moved by the neighbours. On this sandbox it stays
/// within a few percent between runs where the median of the same slices
/// moves by 20 % and more (README, "Why the fastest repeat").
fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Runs `workload`'s trials with all tracing off and reports the
/// end-to-end metrics.
pub fn run_untraced(
    workload: &Workload,
    seed: u64,
    seconds: u32,
    quick: bool,
    spans: &mut Spans,
) -> Result<Outcome, String> {
    let scale = workload.scale(quick);
    let trial_count = workload.trials_for(seconds, quick);

    // `setup_s` needs repeats too: throwaway constructions before every
    // trial, spread over the run so one noisy second cannot cover them all.
    let mut gates = Vec::new();
    let mut setup_s = Vec::new();
    let trials: Vec<Trial> = (0..trial_count)
        .map(|k| {
            let trial_seed = seed + u64::from(k);
            for _ in 0..workload.setup_reps {
                let (bed, s) = spans.time("core.setup_rebuild", k, || {
                    workload.construct(trial_seed, scale, false)
                });
                drop(bed);
                setup_s.push(s);
            }
            let trial = run_trial(workload, scale, trial_seed, k, false, spans);
            trial_gates(&mut gates, &format!("trial {k}"), &trial);
            city_gates(&mut gates, &format!("trial {k}"), workload, &trial);
            setup_s.push(trial.build_s);
            trial
        })
        .collect();

    let slice_us = us_per_fetch(&trials);
    let wall_s: f64 = trials.iter().map(Trial::measured_wall_s).sum();
    let sim_s = scale.measured.as_secs_f64() * f64::from(trial_count);
    let fetches: u64 = trials.iter().map(|t| t.fetches).sum();
    let failures: u64 = trials.iter().map(|t| t.failures).sum();
    let executions: u64 = trials.iter().map(|t| t.executions).sum();
    let over_trials = |f: fn(&Trial) -> f64| median(&trials.iter().map(f).collect::<Vec<_>>());

    let metrics = vec![
        ("setup_s", fastest(&setup_s)),
        ("host_us_per_fetch", fastest(&slice_us)),
        ("peak_rss_mb", host::peak_rss_mb()?),
        ("sim_app_latency_ms_mean", over_trials(|t| t.mean_ms)),
        ("sim_app_latency_ms_p99", over_trials(|t| t.p99_ms)),
        ("sim_hit_ratio", over_trials(|t| t.hit_ratio)),
        ("sim_ap_cpu_mean", over_trials(|t| t.ap_cpu_mean)),
        ("fetch_ok_share", 1.0 - ratio(failures, fetches)),
    ];
    let detail = vec![
        ("trials", trial_count.to_string()),
        ("slices", slice_us.len().to_string()),
        ("setup_samples", setup_s.len().to_string()),
        ("app_executions", executions.to_string()),
        ("fetch_give_ups", failures.to_string()),
        ("measured_wall_s", format!("{wall_s}")),
        ("measured_sim_s", format!("{sim_s}")),
        ("sim_s_per_wall_s", format!("{}", sim_s / wall_s)),
        ("slice_us_per_fetch_p50", format!("{}", median(&slice_us))),
        (
            "slice_us_per_fetch_p90",
            format!("{}", quantile(&slice_us, 0.9)),
        ),
        ("setup_s_p50", format!("{}", median(&setup_s))),
        (
            "sim_app_latency_ms_p50",
            format!("{}", over_trials(|t| t.p50_ms)),
        ),
        (
            "fingerprint_trial0",
            format!("\"{}\"", trials[0].fingerprint),
        ),
    ];
    Ok(Outcome {
        metrics,
        attempted: fetches,
        failed: trials.iter().map(unsettled).sum(),
        gates,
        detail,
    })
}

/// Runs trial 0 twice — untraced for reference, then with the program's
/// profiler and the counting allocator on — plus the kernels, and reports
/// the per-layer metrics.
pub fn run_traced(
    workload: &Workload,
    seed: u64,
    quick: bool,
    spans: &mut Spans,
) -> Result<Outcome, String> {
    let scale = workload.scale(quick);
    let reference = run_trial(workload, scale, seed, 0, false, spans);
    let traced = run_trial(workload, scale, seed, 0, true, spans);
    let config = workload.base_config(seed, scale, false);
    let kernels = run_kernels(workload, &config, seed, spans);

    let mut gates = Vec::new();
    trial_gates(&mut gates, "reference trial", &reference);
    trial_gates(&mut gates, "traced trial", &traced);
    city_gates(&mut gates, "traced trial", workload, &traced);
    gate(
        &mut gates,
        format!(
            "tracing changes no simulated result ({} vs {})",
            traced.fingerprint, reference.fingerprint
        ),
        traced.fingerprint == reference.fingerprint,
    );

    let t = &traced;
    let p = &t.profile;
    let fetches = t.measured_fetches();
    let per_fetch = |n: u64| ratio(n, fetches);
    let counted = |name: &str| t.counted(name);
    let events: u64 = t.slices.iter().map(|s| s.events).sum();
    let delivered = counted(keys::NET_MESSAGES);
    let dropped = counted(keys::NET_DROPPED) + counted(keys::NET_FAULT_DROPPED);
    let loop_ns = p.loop_nanos();
    let share = |nanos: u64| ratio(nanos, loop_ns);
    let ns_per_call = |c: ProfCategory| ratio(p.nanos(c), p.calls(c));
    let solves = counted(names::AP_EVICT_SOLVER_RUNS);
    let hits = counted(names::AP_CACHE_HITS);
    let delegations = counted(names::AP_DELEGATIONS);
    let retries = counted(names::CLIENT_DNS_RETRIES)
        + counted(names::CLIENT_HTTP_RETRIES)
        + counted(names::AP_DNS_UPSTREAM_RETRIES)
        + counted(names::AP_DELEGATION_RETRIES);
    let give_ups = counted(names::CLIENT_DNS_GIVE_UPS)
        + counted(names::CLIENT_HTTP_GIVE_UPS)
        + counted(names::AP_DNS_UPSTREAM_GIVE_UPS)
        + counted(names::AP_DELEGATION_REAPS);
    let roam_cancels =
        counted(names::AP_ROAM_CANCELLED_FORWARDS) + counted(names::AP_ROAM_CANCELLED_WAITERS);
    let reference_us = us_per_fetch(std::slice::from_ref(&reference));
    let traced_us = us_per_fetch(std::slice::from_ref(&traced));

    let mut metrics = vec![
        ("simnet.events_per_fetch", per_fetch(events)),
        ("simnet.sends_per_fetch", per_fetch(delivered + dropped)),
        (
            "simnet.metrics_records_per_fetch",
            per_fetch(p.calls(ProfCategory::Metrics)),
        ),
        ("simnet.pending_events_max", t.pending_events_max as f64),
        (
            "simnet.dropped_per_send",
            ratio(dropped, delivered + dropped),
        ),
        (
            "simnet.dispatch_ns_per_event",
            ns_per_call(ProfCategory::Dispatch),
        ),
        ("simnet.queue_pop_ns", ns_per_call(ProfCategory::QueuePop)),
        ("simnet.send_ns", ns_per_call(ProfCategory::LinkFault)),
        (
            "simnet.metrics_record_ns",
            ns_per_call(ProfCategory::Metrics),
        ),
        ("simnet.queue_share", share(p.nanos(ProfCategory::QueuePop))),
        ("simnet.send_share", share(p.nanos(ProfCategory::LinkFault))),
        (
            "simnet.metrics_share",
            share(p.nanos(ProfCategory::Metrics)),
        ),
        (
            "cachealg.evict_calls_per_fetch",
            per_fetch(p.calls(ProfCategory::Evict)),
        ),
        ("cachealg.solver_runs_per_fetch", per_fetch(solves)),
        (
            "cachealg.dp_share_of_solves",
            ratio(counted(names::AP_EVICT_DP_RUNS), solves),
        ),
        (
            "cachealg.items_per_solve",
            ratio(counted(names::AP_EVICT_ITEMS), solves),
        ),
        ("cachealg.ap_hit_ratio", ratio(hits, hits + delegations)),
        (
            "cachealg.evict_us_per_call",
            ns_per_call(ProfCategory::Evict) / 1e3,
        ),
        ("cachealg.evict_share", share(p.nanos(ProfCategory::Evict))),
        (
            "dnswire.msgs_per_fetch",
            per_fetch(counted(names::CLIENT_DNS_QUERIES) + counted(names::AP_DNS_FORWARDS)),
        ),
        (
            "nodes.logic_ns_per_event",
            ratio(p.dispatch_self_nanos(), p.calls(ProfCategory::Dispatch)),
        ),
        ("nodes.logic_share", share(p.dispatch_self_nanos())),
        ("nodes.delegations_per_fetch", per_fetch(delegations)),
        (
            "nodes.short_circuits_per_fetch",
            per_fetch(counted(names::AP_SHORT_CIRCUITS)),
        ),
        (
            "nodes.peer_hits_per_fetch",
            per_fetch(counted(names::AP_PEER_HITS)),
        ),
        ("nodes.retries_per_fetch", per_fetch(retries)),
        ("nodes.give_ups_per_fetch", per_fetch(give_ups)),
        (
            "nodes.roam_cancels_per_roam",
            ratio(roam_cancels, counted(names::CLIENT_ROAMS)),
        ),
        ("nodes.undrained_entries", t.undrained as f64),
        ("core.build_ms", t.build_s * 1e3),
        ("core.warmup_s", t.warmup_s),
        ("core.drain_s", t.drain_s),
        ("core.collect_ms", t.collect_s * 1e3),
        ("core.summary_ms", t.summary_s * 1e3),
        ("core.metrics_mb", t.metrics_bytes as f64 / 1e6),
        ("core.allocs_per_fetch", per_fetch(t.allocs.0)),
        ("core.alloc_kb_per_fetch", ratio(t.allocs.1, fetches) / 1e3),
        (
            "core.sim_s_per_wall_s",
            scale.measured.as_secs_f64() / reference.measured_wall_s(),
        ),
        ("core.slice_us_per_fetch_p50", median(&reference_us)),
        ("core.slice_us_per_fetch_p90", quantile(&reference_us, 0.9)),
        (
            "core.trace_overhead_share",
            fastest(&traced_us) / fastest(&reference_us) - 1.0,
        ),
    ];
    metrics.extend(kernels);

    let detail = vec![
        ("trials", "1".to_owned()),
        ("slices", traced_us.len().to_string()),
        ("measured_fetches", fetches.to_string()),
        ("measured_events", events.to_string()),
        ("profiled_loop_s", format!("{}", loop_ns as f64 / 1e9)),
        ("spans", spans.len().to_string()),
        ("fingerprint_trial0", format!("\"{}\"", traced.fingerprint)),
    ];
    Ok(Outcome {
        metrics,
        attempted: traced.fetches,
        failed: unsettled(&traced),
        gates,
        detail,
    })
}
