//! Roaming under fire: clients walking between APs while the radio drops
//! packets and a scheduled [`FaultPlan`] partitions, lossifies and delays
//! the very links they depend on. The system must come out *terminated and
//! drained* — every scheduled execution reaches a terminal state, no AP
//! keeps pending forwards, DNS waits, delegations or peer requests for a
//! client that left — and the whole ordeal must be bitwise invariant under
//! every tie-break-perturbation key, so any failure replays exactly.
//!
//! This is the pin for the roam-departure bugfix: before APs learned to
//! cancel state for roam-departed clients, a mid-flight roam left the old
//! AP's `pending_forwards`/`awaiting_dns` entries to the reaper's timeout
//! path, indistinguishable from real timeouts.

use ape_appdag::DummyAppConfig;
use ape_proto::names;
use ape_simnet::{FaultPlan, SimDuration, SimTime};
use ape_workload::ScheduleConfig;
use apecache::{
    build_topology, collect_topology, synthetic_suite, undrained, System, TestbedConfig, Topology,
    TopologyConfig,
};

const RUN: SimDuration = SimDuration::from_mins(4);

/// Post-schedule grace (same rationale as `chaos_faults.rs`): the worst
/// surviving retry chain resolves in under a minute; 300 s gives roam
/// stragglers — a client whose fetch was cancelled by its own departure
/// retries via the new AP — room without hiding a genuine hang.
const GRACE: SimDuration = SimDuration::from_secs(300);

/// Tie-break permutation keys (same set as `chaos_faults.rs`).
const PERTURBATION_KEYS: [u64; 4] = [
    0x9E37_79B9_7F4A_7C15,
    0xD1B5_4A32_D192_ED03,
    0xA5A5_A5A5_A5A5_A5A5,
    0x0123_4567_89AB_CDEF,
];

/// A 3×3 cooperative grid with briskly roaming clients on a 3% lossy
/// radio: small enough to drain-check in CI, busy enough that roams race
/// in-flight DNS forwards and delegations constantly.
fn config(seed: u64, key: Option<u64>) -> TopologyConfig {
    let suite = synthetic_suite(5, &DummyAppConfig::default(), seed);
    let mut base = TestbedConfig::new(System::ApeCache, suite);
    base.schedule = ScheduleConfig {
        // Dense traffic: roams must regularly race in-flight forwards and
        // delegations, or the cancel-on-departure path goes untested.
        apps: 5,
        avg_per_minute: 30.0,
        zipf_exponent: 0.8,
        duration: RUN,
    };
    base.seed = seed;
    base.wifi_loss = 0.03;
    base.tie_perturbation = key;
    // A cache far smaller than the suite's working set keeps the APs
    // delegating for the whole run instead of settling into all-hits —
    // delegation windows are the in-flight state roams must race.
    base.ap.cache_capacity = 150_000;
    TopologyConfig::new(base, 9)
        .with_clients_per_ap(2)
        .with_roam_rate(6.0)
}

/// splitmix64 — the plan depends only on its seed, never on world state.
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

/// Randomized plan over the grid's real links: four windows cycling
/// through link-down, loss-burst and delay-spike across client↔home-AP,
/// AP↔LDNS, AP↔edge and AP↔AP segments.
fn random_plan(top: &Topology, plan_seed: u64) -> FaultPlan {
    let mut mix = Mix(plan_seed);
    let mut plan = FaultPlan::new();
    for i in 0..4u64 {
        let ap = top.aps[mix.below(top.aps.len() as u64) as usize];
        let (a, b) = match mix.below(4) {
            0 => {
                let g = mix.below(top.clients.len() as u64) as usize;
                (top.clients[g], top.aps[top.client_home[g]])
            }
            1 => (ap, top.ldns),
            2 => (ap, top.edge),
            // A neighbor segment: APs 4 (center) and 1 always exist on the
            // 3×3 grid and are adjacent.
            _ => (top.aps[4], top.aps[1]),
        };
        let start = SimTime::from_secs(30 + mix.below(150));
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

struct ChaosOutcome {
    fingerprint: String,
    scheduled: u64,
    executions: u64,
    roams: u64,
    cancelled: u64,
    leftovers: Vec<String>,
}

fn run_chaos(plan_seed: Option<u64>, key: Option<u64>) -> ChaosOutcome {
    let cfg = config(31, key);
    let mut top = build_topology(&cfg);
    if let Some(plan_seed) = plan_seed {
        let plan = random_plan(&top, plan_seed);
        top.world.set_fault_plan(plan);
    }
    top.world.run_for(RUN + GRACE);
    let fingerprint = top.world.fingerprint().to_string();
    let leftovers = undrained(&top.world, &top.clients, &top.aps, top.ldns);
    let scheduled = cfg.scheduled_executions() as u64;
    let result = collect_topology(cfg.base.system, &mut top);
    ChaosOutcome {
        fingerprint,
        scheduled,
        executions: result.report.executions,
        roams: result.metrics.counter(names::CLIENT_ROAMS),
        cancelled: result.metrics.counter(names::AP_ROAM_CANCELLED_FORWARDS)
            + result.metrics.counter(names::AP_ROAM_CANCELLED_WAITERS),
        leftovers,
    }
}

fn assert_terminated_and_drained(outcome: &ChaosOutcome, label: &str) {
    assert!(outcome.scheduled > 0, "{label}: schedule generated work");
    assert!(outcome.roams > 0, "{label}: clients actually roamed");
    assert_eq!(
        outcome.executions, outcome.scheduled,
        "{label}: every scheduled execution reaches a terminal state"
    );
    assert!(
        outcome.leftovers.is_empty(),
        "{label}: pending state leaked after drain: {}",
        outcome.leftovers.join(", ")
    );
}

#[test]
fn roaming_under_faults_terminates_drained_and_tie_invariant() {
    for plan_seed in [13, 37] {
        let baseline = run_chaos(Some(plan_seed), None);
        assert_terminated_and_drained(&baseline, &format!("plan {plan_seed}"));
        for key in PERTURBATION_KEYS {
            let perturbed = run_chaos(Some(plan_seed), Some(key));
            assert_eq!(
                perturbed.fingerprint, baseline.fingerprint,
                "plan {plan_seed} diverged under tie perturbation {key:#x}"
            );
            assert_eq!(perturbed.executions, baseline.executions);
            assert_eq!(perturbed.roams, baseline.roams);
            assert_eq!(perturbed.cancelled, baseline.cancelled);
        }
    }
}

#[test]
fn roam_departures_are_cancelled_not_reaped() {
    // No fault plan: steady 3% loss plus roaming alone must already
    // exercise the cancel-on-departure path, and the departures must be
    // counted distinctly from timeout reaps.
    let outcome = run_chaos(None, None);
    assert_terminated_and_drained(&outcome, "lossy roaming baseline");
    assert!(
        outcome.cancelled > 0,
        "roams raced in-flight work: departures must cancel state, \
         not leave it to the reaper ({} roams, 0 cancellations)",
        outcome.roams
    );
}
