//! Schedule-perturbation determinism: the default testbed must produce
//! bitwise-identical results no matter how same-timestamp event ties are
//! broken.
//!
//! The event queue orders ties by an insertion sequence number;
//! [`World::set_tie_perturbation`](ape_simnet::World::set_tie_perturbation)
//! scrambles those sequence numbers through a keyed bijection, yielding a
//! different (but still deterministic) tie-break permutation per key. If any
//! node's behavior depended on FIFO tie order — an ordering race the static
//! gates cannot see (`clippy.toml` bans hash collections and host-clock
//! reads by type; signatures reject undeclared span and metric
//! names) — some perturbed run would diverge from the baseline in its
//! `Summary` or trace digest. The synthetic-failure side of
//! this check (a deliberately order-sensitive node that *does* diverge)
//! lives next to the detector in `ape-simnet`'s world tests.

use ape_appdag::DummyAppConfig;
use ape_simnet::{SimDuration, TraceConfig};
use ape_workload::ScheduleConfig;
use apecache::{build, collect, synthetic_suite, Summary, System, TestbedConfig};

/// Tie-break permutation keys to try on top of the unperturbed baseline.
const PERTURBATION_KEYS: [u64; 4] = [
    0x9E37_79B9_7F4A_7C15,
    0xD1B5_4A32_D192_ED03,
    0xA5A5_A5A5_A5A5_A5A5,
    0x0123_4567_89AB_CDEF,
];

fn config(system: System) -> TestbedConfig {
    let suite = synthetic_suite(5, &DummyAppConfig::default(), 11);
    let mut cfg = TestbedConfig::new(system, suite);
    cfg.schedule = ScheduleConfig {
        apps: 5,
        avg_per_minute: 3.0,
        zipf_exponent: 0.8,
        duration: SimDuration::from_mins(3),
    };
    cfg.trace = TraceConfig::enabled();
    cfg
}

/// Runs the testbed with an optional tie-perturbation key and returns the
/// world fingerprint (clock, event count, metrics digest, trace digest)
/// plus the summary flattened to exact bit patterns.
fn run_with(system: System, key: Option<u64>) -> (String, Vec<u64>) {
    let mut cfg = config(system);
    cfg.tie_perturbation = key;
    let mut bed = build(&cfg);
    assert_eq!(
        bed.world.tie_perturbation(),
        key,
        "config must plumb the key"
    );
    bed.world.run_for(SimDuration::from_mins(3));
    let fingerprint = bed.world.fingerprint().to_string();
    let mut result = collect(cfg.system, &mut bed);
    (fingerprint, summary_bits(&result.summary()))
}

/// Flattens every float to its bit pattern so equality is exact, not
/// epsilon-based (mirrors the runner's own bitwise-determinism pin).
fn summary_bits(s: &Summary) -> Vec<u64> {
    let mut bits = vec![
        s.lookup_ms.to_bits(),
        s.retrieval_ms.to_bits(),
        s.retrieval_hit_ms.to_bits(),
        s.retrieval_edge_ms.to_bits(),
        s.object_level_ms.to_bits(),
        s.app_latency_ms.to_bits(),
        s.app_latency_p50_ms.to_bits(),
        s.app_latency_p95_ms.to_bits(),
        s.app_latency_p99_ms.to_bits(),
        s.hit_ratio.to_bits(),
        s.high_priority_hit_ratio.to_bits(),
        s.executions,
        s.failures,
        s.ap_cpu_mean.to_bits(),
        s.ap_cpu_max.to_bits(),
        s.ape_mem_mb_max.to_bits(),
    ];
    for (name, (mean, p95)) in &s.per_app_latency_ms {
        bits.push(name.len() as u64);
        bits.push(mean.to_bits());
        bits.push(p95.to_bits());
    }
    if let Some(a) = &s.attribution {
        bits.push(a.traces);
        bits.push(a.completed);
        for (stage, stat) in &a.stages {
            bits.push(stage.len() as u64);
            bits.push(stat.count);
            bits.push(stat.total_ms.to_bits());
            bits.push(stat.mean_ms.to_bits());
            bits.push(stat.p50_ms.to_bits());
            bits.push(stat.p95_ms.to_bits());
            bits.push(stat.p99_ms.to_bits());
        }
    }
    bits
}

#[test]
fn ape_cache_testbed_is_tie_break_invariant() {
    let (baseline_fp, baseline_bits) = run_with(System::ApeCache, None);
    for key in PERTURBATION_KEYS {
        let (fp, bits) = run_with(System::ApeCache, Some(key));
        assert_eq!(
            fp, baseline_fp,
            "fingerprint diverged under tie perturbation {key:#x}"
        );
        assert_eq!(
            bits, baseline_bits,
            "summary diverged under tie perturbation {key:#x}"
        );
    }
}

#[test]
fn baseline_systems_are_tie_break_invariant() {
    // The comparison baselines drive the same scheduler and links, so an
    // ordering race there would silently skew every headline comparison.
    for system in [System::EdgeCache, System::WiCache] {
        let (baseline_fp, baseline_bits) = run_with(system, None);
        for key in PERTURBATION_KEYS.iter().take(2) {
            let (fp, bits) = run_with(system, Some(*key));
            assert_eq!(fp, baseline_fp, "{system:?} diverged under {key:#x}");
            assert_eq!(bits, baseline_bits, "{system:?} summary diverged");
        }
    }
}

#[test]
fn perturbed_runs_replay_exactly_under_the_same_key() {
    // A perturbed schedule is still a deterministic schedule: same key,
    // same bits. This is what makes a divergence report actionable — the
    // failing interleaving can be replayed at will.
    let key = Some(PERTURBATION_KEYS[0]);
    assert_eq!(
        run_with(System::ApeCache, key),
        run_with(System::ApeCache, key)
    );
}
