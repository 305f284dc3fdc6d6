//! Chaos under a lossy radio: randomized [`FaultPlan`]s composed with
//! steady WiFi loss must leave the system *terminated and drained* — every
//! scheduled execution reaches a terminal state (success or failure, never
//! a hang) and every pending-state map on clients, AP and LDNS is empty
//! once the retry chains have had time to run out.
//!
//! Each scenario is additionally pinned to be tie-break-perturbation
//! invariant: the same seed and fault plan produce bitwise-identical world
//! fingerprints no matter how same-timestamp ties are broken, so a failure
//! here is replayable at will.

use ape_appdag::DummyAppConfig;
use ape_nodes::{ApNode, ClientNode, LdnsNode};
use ape_proto::names;
use ape_simnet::{FaultPlan, SimDuration, SimTime};
use ape_workload::ScheduleConfig;
use apecache::{build, collect, synthetic_suite, RunResult, System, Testbed, TestbedConfig};

const RUN: SimDuration = SimDuration::from_mins(6);

/// Post-schedule grace: the worst surviving retry chain (client DNS
/// retries feeding HTTP attempts with 4+8+16 s backoff on top of the AP's
/// reap/retry cycles) resolves in under a minute; 300 s gives every
/// straggler room without hiding a genuine hang behind a short horizon.
const GRACE: SimDuration = SimDuration::from_secs(300);

/// Tie-break permutation keys (same set as `determinism_perturbation.rs`).
const PERTURBATION_KEYS: [u64; 4] = [
    0x9E37_79B9_7F4A_7C15,
    0xD1B5_4A32_D192_ED03,
    0xA5A5_A5A5_A5A5_A5A5,
    0x0123_4567_89AB_CDEF,
];

fn config(seed: u64, key: Option<u64>) -> TestbedConfig {
    let suite = synthetic_suite(5, &DummyAppConfig::default(), seed);
    let mut cfg = TestbedConfig::new(System::ApeCache, suite);
    cfg.schedule = ScheduleConfig {
        apps: 5,
        avg_per_minute: 3.0,
        zipf_exponent: 0.8,
        duration: RUN,
    };
    cfg.seed = seed;
    cfg.wifi_loss = 0.05;
    cfg.tie_perturbation = key;
    cfg
}

/// splitmix64 — a tiny self-contained generator so the *plan* depends only
/// on its seed, never on world state or tie order.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Builds a randomized plan over the bed's real topology: four windows,
/// cycling through link-down, loss-burst and delay-spike across the
/// client↔AP, AP↔LDNS and AP↔edge links.
fn random_plan(bed: &Testbed, plan_seed: u64) -> FaultPlan {
    let mut mix = Mix(plan_seed);
    let mut plan = FaultPlan::new();
    for i in 0..4u64 {
        let (a, b) = match mix.below(3) {
            0 => (
                bed.clients[mix.below(bed.clients.len() as u64) as usize],
                bed.ap,
            ),
            1 => (bed.ap, bed.ldns),
            _ => (bed.ap, bed.edge),
        };
        let start = SimTime::from_secs(30 + mix.below(240));
        let end = SimTime::from_nanos(
            start.as_nanos() + SimDuration::from_secs(5 + mix.below(30)).as_nanos(),
        );
        plan = match i % 3 {
            0 => plan.link_down(a, b, start, end),
            1 => plan.loss_burst(a, b, start, end, 0.2 + mix.below(50) as f64 / 100.0),
            _ => plan.delay_spike(
                a,
                b,
                start,
                end,
                SimDuration::from_millis(10 + mix.below(80)),
            ),
        };
    }
    plan
}

/// Pending-state entries that survived the grace period, labelled for the
/// assertion message. Empty means every map drained.
fn undrained(bed: &mut Testbed) -> Vec<String> {
    let mut leftovers = Vec::new();
    for &client in &bed.clients.clone() {
        let name = bed.world.node_name(client).to_owned();
        for (map, n) in bed.world.node::<ClientNode>(client).pending_counts() {
            if n > 0 {
                leftovers.push(format!("{name}:{map}={n}"));
            }
        }
    }
    for (map, n) in bed.world.node::<ApNode>(bed.ap).pending_counts() {
        if n > 0 {
            leftovers.push(format!("ap:{map}={n}"));
        }
    }
    let n = bed.world.node::<LdnsNode>(bed.ldns).pending_count();
    if n > 0 {
        leftovers.push(format!("ldns:pending={n}"));
    }
    leftovers
}

struct ChaosOutcome {
    fingerprint: String,
    scheduled: u64,
    executions: u64,
    leftovers: Vec<String>,
    result: RunResult,
}

fn run_chaos(plan_seed: Option<u64>, key: Option<u64>) -> ChaosOutcome {
    let cfg = config(29, key);
    let mut bed = build(&cfg);
    if let Some(plan_seed) = plan_seed {
        bed.world.set_fault_plan(random_plan(&bed, plan_seed));
    }
    bed.world.run_for(RUN + GRACE);
    let fingerprint = bed.world.fingerprint().to_string();
    let leftovers = undrained(&mut bed);
    let scheduled = bed.scheduled as u64;
    let result = collect(cfg.system, &mut bed);
    ChaosOutcome {
        fingerprint,
        scheduled,
        executions: result.report.executions,
        leftovers,
        result,
    }
}

fn assert_terminated_and_drained(outcome: &ChaosOutcome, label: &str) {
    assert!(outcome.scheduled > 0, "{label}: schedule generated work");
    assert_eq!(
        outcome.executions, outcome.scheduled,
        "{label}: every scheduled execution reaches a terminal state"
    );
    assert!(
        outcome.leftovers.is_empty(),
        "{label}: pending state leaked after drain: {}",
        outcome.leftovers.join(", ")
    );
    // The fetch ledger closes: once drained, every fetch started has
    // settled as exactly one success or one failure, every retrieval was
    // served by exactly one layer, and the clients' own report agrees.
    let m = &outcome.result.metrics;
    let report = &outcome.result.report;
    let samples = |name| m.histogram(name).map_or(0, |h| h.count() as u64);
    let settled = samples(names::CLIENT_OBJECT_TOTAL_MS);
    let failed = m.counter(names::CLIENT_FETCH_FAILURES);
    assert_eq!(
        m.counter(names::CLIENT_FETCHES),
        settled + failed,
        "{label}: fetches = settled + failed"
    );
    assert_eq!(
        samples(names::CLIENT_RETRIEVAL_MS),
        samples(names::CLIENT_RETRIEVAL_HIT_MS)
            + samples(names::CLIENT_RETRIEVAL_DELEGATION_MS)
            + samples(names::CLIENT_RETRIEVAL_EDGE_MS),
        "{label}: every retrieval is served by exactly one layer"
    );
    assert_eq!(report.requests, settled, "{label}: report.requests");
    assert_eq!(report.failures, failed, "{label}: report.failures");
}

#[test]
fn randomized_fault_plans_terminate_drained_and_tie_invariant() {
    for plan_seed in [11, 23, 47] {
        let baseline = run_chaos(Some(plan_seed), None);
        assert_terminated_and_drained(&baseline, &format!("plan {plan_seed}"));
        for key in PERTURBATION_KEYS {
            let perturbed = run_chaos(Some(plan_seed), Some(key));
            assert_eq!(
                perturbed.fingerprint, baseline.fingerprint,
                "plan {plan_seed} diverged under tie perturbation {key:#x}"
            );
            assert_eq!(perturbed.executions, baseline.executions);
        }
    }
}

#[test]
fn lossy_wifi_run_drains_and_recovery_counters_fire() {
    let cfg = config(29, None);
    let mut bed = build(&cfg);
    bed.world.run_for(RUN + GRACE);
    let leftovers = undrained(&mut bed);
    assert!(
        leftovers.is_empty(),
        "pending state leaked: {}",
        leftovers.join(", ")
    );
    let scheduled = bed.scheduled as u64;
    let result = collect(cfg.system, &mut bed);
    assert_eq!(result.report.executions, scheduled);
    assert!(
        result.metrics.counter(names::NET_DROPPED) > 0,
        "5% radio loss dropped packets"
    );
    let retries = result.metrics.counter(names::CLIENT_DNS_RETRIES)
        + result.metrics.counter(names::CLIENT_HTTP_RETRIES)
        + result.metrics.counter(names::AP_DNS_UPSTREAM_RETRIES)
        + result.metrics.counter(names::AP_DELEGATION_RETRIES);
    assert!(retries > 0, "recovery machinery absorbed the loss");
}

#[test]
fn lossy_wifi_run_is_tie_break_invariant() {
    let baseline = run_chaos(None, None);
    assert_terminated_and_drained(&baseline, "lossy baseline");
    for key in PERTURBATION_KEYS {
        let perturbed = run_chaos(None, Some(key));
        assert_eq!(
            perturbed.fingerprint, baseline.fingerprint,
            "lossy run diverged under tie perturbation {key:#x}"
        );
    }
}
