//! `repro faults`: resilience of the caching strategies on a lossy WiFi hop.
//!
//! Two sections:
//!
//! 1. a sweep of steady-state radio loss × caching strategy, reporting per
//!    point the completion rate, tail latency, the retry/give-up counters
//!    of the recovery machinery, and whether every pending-state map
//!    drained once traffic stopped;
//! 2. a replay of a scheduled [`FaultPlan`] — a client partition, an
//!    uplink loss burst, and a WAN delay spike composed over one run — to
//!    show composed disturbances also terminate fully drained.
//!
//! Excluded from `repro all`: with loss enabled the RNG draws diverge from
//! the lossless baseline, so this artifact would break the bitwise
//! reproducibility contract `all` is held to.

use ape_appdag::DummyAppConfig;
use ape_proto::names;
use ape_simnet::{FaultPlan, SimDuration, SimTime};
use apecache::{build, collect, parallel_map, undrained, System, Testbed, TestbedConfig};

use crate::experiments::{base_config, ReproOptions};

/// Extra simulated time after the schedule ends, so every retry chain
/// (client HTTP backoff up to 4+8+16 s, DNS give-ups, AP reapers) can run
/// to completion before the drain check.
const GRACE: SimDuration = SimDuration::from_secs(300);

/// Loss rates swept (fraction of packets dropped per WiFi traversal).
const LOSS_RATES: [f64; 5] = [0.0, 0.01, 0.02, 0.05, 0.10];

const SYSTEMS: [System; 3] = [System::ApeCache, System::WiCache, System::EdgeCache];

/// App-suite size for the sweep (smaller than the paper artifacts: this is
/// a resilience demonstration, not a latency reproduction).
const APPS: usize = 15;

struct FaultRow {
    loss: f64,
    system: System,
    scheduled: u64,
    done: u64,
    failed: u64,
    p99_ms: f64,
    retries: u64,
    give_ups: u64,
    dropped: u64,
    fault_dropped: u64,
    undrained: Vec<String>,
}

fn extract_row(config: &TestbedConfig, bed: &mut Testbed) -> FaultRow {
    let (loss, system) = (config.wifi_loss, config.system);
    let scheduled = config.scheduled_executions() as u64;
    let mut result = collect(system, bed);
    let summary = result.summary();
    let m = &result.metrics;
    FaultRow {
        loss,
        system,
        scheduled,
        done: summary.executions,
        failed: m.counter(names::CLIENT_FAILED_EXECUTIONS),
        p99_ms: summary.app_latency_p99_ms,
        retries: m.counter(names::CLIENT_DNS_RETRIES)
            + m.counter(names::CLIENT_HTTP_RETRIES)
            + m.counter(names::AP_DNS_UPSTREAM_RETRIES)
            + m.counter(names::AP_DELEGATION_RETRIES),
        give_ups: m.counter(names::CLIENT_DNS_GIVE_UPS)
            + m.counter(names::CLIENT_HTTP_GIVE_UPS)
            + m.counter(names::AP_DNS_UPSTREAM_GIVE_UPS)
            + m.counter(names::AP_DELEGATION_REAPS),
        dropped: m.counter(names::NET_DROPPED),
        fault_dropped: m.counter(names::NET_FAULT_DROPPED),
        undrained: undrained(&bed.world, &bed.clients, &[bed.ap], bed.ldns),
    }
}

fn run_sweep_point(opts: &ReproOptions, system: System, loss: f64) -> FaultRow {
    let mut config = base_config(system, opts, &DummyAppConfig::default(), APPS);
    config.wifi_loss = loss;
    let mut bed = build(&config);
    bed.world.run_for(opts.duration() + GRACE);
    extract_row(&config, &mut bed)
}

fn render_rows(out: &mut String, rows: &[FaultRow]) {
    out.push_str(&format!(
        "{:<7} {:<11} {:>6} {:>6} {:>7} {:>7} {:>9} {:>8} {:>9} {:>8} {:>10} {:>8}\n",
        "loss",
        "system",
        "sched",
        "done",
        "failed",
        "rate%",
        "p99 ms",
        "retries",
        "give-ups",
        "dropped",
        "fault-drop",
        "drained"
    ));
    for row in rows {
        let ok = row.done.saturating_sub(row.failed);
        let rate = 100.0 * ok as f64 / row.scheduled.max(1) as f64;
        out.push_str(&format!(
            "{:<7} {:<11} {:>6} {:>6} {:>7} {:>7.1} {:>9.1} {:>8} {:>9} {:>8} {:>10} {:>8}\n",
            format!("{:.0}%", row.loss * 100.0),
            row.system.label(),
            row.scheduled,
            row.done,
            row.failed,
            rate,
            row.p99_ms,
            row.retries,
            row.give_ups,
            row.dropped,
            row.fault_dropped,
            if row.undrained.is_empty() {
                "yes"
            } else {
                "NO"
            }
        ));
    }
    for row in rows {
        if !row.undrained.is_empty() {
            out.push_str(&format!(
                "  !! {} {:.0}% leftover pending state: {}\n",
                row.system.label(),
                row.loss * 100.0,
                row.undrained.join(", ")
            ));
        }
    }
}

/// The `repro faults` artifact: loss sweep plus composed fault-plan replay.
pub fn faults(opts: &ReproOptions) -> String {
    let mut out = String::from(
        "Resilience under a lossy WiFi hop (loss rate x caching strategy)\n\
         (each point runs the schedule plus a drain grace period; `drained`\n\
         means every pending-state map on clients, AP and LDNS emptied)\n\n",
    );
    let points: Vec<(f64, System)> = LOSS_RATES
        .iter()
        .flat_map(|&loss| SYSTEMS.iter().map(move |&system| (loss, system)))
        .collect();
    let rows = parallel_map(points.len(), opts.resolved_threads(), |idx| {
        let (loss, system) = points[idx];
        run_sweep_point(opts, system, loss)
    });
    render_rows(&mut out, &rows);

    // --- Composed fault-plan replay ------------------------------------
    out.push_str(
        "\nScheduled fault-plan replay (APE-CACHE, 1% radio loss, composed\n\
         disturbances: client0<->AP partition 60-75s, AP<->LDNS 30% loss\n\
         burst 120-180s, AP<->edge +40ms delay spike 200-240s)\n\n",
    );
    let mut config = base_config(System::ApeCache, opts, &DummyAppConfig::default(), APPS);
    config.wifi_loss = 0.01;
    let mut bed = build(&config);
    let plan = FaultPlan::new()
        .link_down(
            bed.clients[0],
            bed.ap,
            SimTime::from_secs(60),
            SimTime::from_secs(75),
        )
        .loss_burst(
            bed.ap,
            bed.ldns,
            SimTime::from_secs(120),
            SimTime::from_secs(180),
            0.30,
        )
        .delay_spike(
            bed.ap,
            bed.edge,
            SimTime::from_secs(200),
            SimTime::from_secs(240),
            SimDuration::from_millis(40),
        );
    bed.world.set_fault_plan(plan);
    bed.world.run_for(opts.duration() + GRACE);
    let replay = extract_row(&config, &mut bed);
    render_rows(&mut out, &[replay]);
    out
}
