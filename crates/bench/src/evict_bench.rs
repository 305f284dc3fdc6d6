//! `repro bench-evict` — the eviction-cost microbench sweep.
//!
//! Sweeps store populations {256, 1024, 4096, 16384} × eviction policies
//! {pacm, pacm-nofair, lru}, timing `select_victims` against a full store.
//! The two PACM cells are also timed against the frozen seed engine
//! (`ape_cachealg::reference`), so the reported speedup is measured against
//! the code that actually shipped, not a reconstruction. A full run
//! writes `BENCH_evict.json` at the repo root, a `--quick` run
//! `target/repro-quick/BENCH_evict.json`; the committed file is the first
//! point of the eviction-path performance trajectory and later PRs append
//! to the story by regenerating it.
//!
//! The workload is deterministic in `--seed`: per-object sizes/apps/TTLs
//! come from `SimRng`, the store is built exactly full, and the probe
//! admission is fixed. Only the wall-clock timings vary run to run (the
//! bench crate is the one place wall-clock time is permitted). One in
//! sixteen objects is already expired at decision time — modelling the gap
//! between TTL sweep ticks — so every DP cell starts from forced victims:
//! the 256-, 1024- and 4096-object cells run the DP (at 4096 the expired
//! bytes exceed the probe, but the survivors' weights, each rounded up to
//! a whole unit, still do not fit), and the 16384-object cell falls back
//! to greedy on both engines.

use std::fmt::Write as _;
use std::time::Instant;

use ape_cachealg::reference::ReferencePacm;
use ape_cachealg::{
    AppId, CacheStore, EvictStats, EvictionPolicy, LruPolicy, ObjectMeta, PacmConfig, PacmPolicy,
    Priority,
};
use ape_dnswire::UrlHash;
use ape_simnet::{SimDuration, SimRng, SimTime};

use crate::ReproOptions;

/// Store populations swept (object counts).
const SWEEP_OBJECTS: [usize; 4] = [256, 1024, 4096, 16384];

/// The eviction decision happens at t = 61 s, one second after the
/// frequency window rolls.
const NOW_SECS: u64 = 61;

/// Probe admission size: large enough that every cell up to 4096 objects
/// must run the DP over a band of several hundred cells.
const INCOMING_SIZE: u64 = 300_000;

/// One measured sweep cell.
struct Cell {
    policy: &'static str,
    objects: usize,
    store_bytes: u64,
    victims: usize,
    median_ns: u64,
    /// Seed-engine median; `None` for LRU (unchanged by the optimization).
    baseline_median_ns: Option<u64>,
    /// Workspace buffer growths during the timed window (expected 0).
    workspace_allocations: Option<u64>,
    /// Per-call solver counters; `None` for LRU.
    solver: Option<EvictStats>,
}

/// Builds an exactly-full store of `objects` cached objects.
///
/// App 0 hoards every fourth object while receiving almost no requests, so
/// its storage efficiency is far above its share and the fairness-repair
/// loop has real work to do. Every sixteenth object is already expired at
/// `NOW_SECS`.
fn build_store(objects: usize, seed: u64) -> CacheStore {
    let mut rng = SimRng::seed_from(seed ^ objects as u64);
    let sizes: Vec<u64> = (0..objects).map(|_| rng.uniform_u64(800, 6_000)).collect();
    let capacity: u64 = sizes.iter().sum();
    let mut store = CacheStore::new(capacity, 500_000);
    for (i, &size) in sizes.iter().enumerate() {
        let app = if i % 4 == 0 { 0 } else { 1 + (i % 29) as u32 };
        let expires_at = if i % 16 == 0 {
            SimTime::from_secs(30)
        } else {
            SimTime::from_secs(rng.uniform_u64(120, 3_600))
        };
        store.insert(
            ObjectMeta {
                key: UrlHash::of(&format!("http://bench-evict/{i}")),
                app: AppId::new(app),
                size,
                priority: if rng.chance(0.4) {
                    Priority::HIGH
                } else {
                    Priority::LOW
                },
                expires_at,
                fetch_latency: SimDuration::from_millis(rng.uniform_u64(5, 95)),
            },
            SimTime::ZERO,
        );
    }
    store
}

fn incoming() -> ObjectMeta {
    ObjectMeta {
        key: UrlHash::of("http://bench-evict/incoming"),
        app: AppId::new(3),
        size: INCOMING_SIZE,
        priority: Priority::HIGH,
        expires_at: SimTime::from_secs(1_800),
        fetch_latency: SimDuration::from_millis(35),
    }
}

/// Feeds a skewed request mix (app 0 nearly idle, apps 1..29 active);
/// callers roll the window at t = 60 s afterwards.
fn train(mut note: impl FnMut(AppId)) {
    for app in 1..30u32 {
        for _ in 0..(5 + app % 7) {
            note(AppId::new(app));
        }
    }
    note(AppId::new(0));
}

fn median(mut samples: Vec<u64>) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn stats_delta(after: EvictStats, before: EvictStats, iters: u64) -> EvictStats {
    // Every timed call sees identical inputs, so the per-call counters are
    // exact integer quotients.
    EvictStats {
        solver_runs: (after.solver_runs - before.solver_runs) / iters,
        items_considered: (after.items_considered - before.items_considered) / iters,
        dp_runs: (after.dp_runs - before.dp_runs) / iters,
        greedy_runs: (after.greedy_runs - before.greedy_runs) / iters,
        short_circuits: (after.short_circuits - before.short_circuits) / iters,
        forced_victims: (after.forced_victims - before.forced_victims) / iters,
        repair_evictions: (after.repair_evictions - before.repair_evictions) / iters,
    }
}

fn run_pacm_cell(objects: usize, fairness: bool, iters: usize, seed: u64) -> Cell {
    let store = build_store(objects, seed);
    let probe = incoming();
    let now = SimTime::from_secs(NOW_SECS);

    let mut policy = PacmPolicy::new(PacmConfig::default());
    let mut baseline = ReferencePacm::new(PacmConfig::default());
    if !fairness {
        policy = policy.without_fairness();
        baseline = baseline.without_fairness();
    }
    train(|app| policy.note_request(app));
    policy.roll_window(SimTime::from_secs(60));
    train(|app| baseline.note_request(app));
    baseline.roll_window(SimTime::from_secs(60));

    // A speedup is only worth reporting if both engines agree on this
    // input (the property suite proves equivalence in general).
    let victims = policy.select_victims(&store, &probe, now);
    assert_eq!(
        victims,
        baseline.select_victims(&store, &probe, now),
        "optimized engine diverged from the seed on the benched store"
    );

    // Warm-up: grows the workspace to its steady-state footprint.
    for _ in 0..2 {
        std::hint::black_box(policy.select_victims(&store, &probe, now));
        std::hint::black_box(baseline.select_victims(&store, &probe, now));
    }

    let stats_before = policy.stats();
    let allocs_before = policy.workspace_allocations();
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        std::hint::black_box(policy.select_victims(&store, &probe, now));
        samples.push(t.elapsed().as_nanos() as u64);
    }
    let solver = stats_delta(policy.stats(), stats_before, iters as u64);
    let workspace_allocations = policy.workspace_allocations() - allocs_before;

    let mut base_samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        std::hint::black_box(baseline.select_victims(&store, &probe, now));
        base_samples.push(t.elapsed().as_nanos() as u64);
    }

    Cell {
        policy: if fairness { "pacm" } else { "pacm-nofair" },
        objects,
        store_bytes: store.capacity(),
        victims: victims.len(),
        median_ns: median(samples),
        baseline_median_ns: Some(median(base_samples)),
        workspace_allocations: Some(workspace_allocations),
        solver: Some(solver),
    }
}

fn run_lru_cell(objects: usize, iters: usize, seed: u64) -> Cell {
    let store = build_store(objects, seed);
    let probe = incoming();
    let now = SimTime::from_secs(NOW_SECS);
    let mut policy = LruPolicy::new();

    let victims = policy.select_victims(&store, &probe, now);
    for _ in 0..2 {
        std::hint::black_box(policy.select_victims(&store, &probe, now));
    }
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        std::hint::black_box(policy.select_victims(&store, &probe, now));
        samples.push(t.elapsed().as_nanos() as u64);
    }

    Cell {
        policy: "lru",
        objects,
        store_bytes: store.capacity(),
        victims: victims.len(),
        median_ns: median(samples),
        baseline_median_ns: None,
        workspace_allocations: None,
        solver: None,
    }
}

fn speedup(cell: &Cell) -> Option<f64> {
    cell.baseline_median_ns
        .map(|base| base as f64 / cell.median_ns.max(1) as f64)
}

fn render_json(cells: &[Cell], iters: usize, seed: u64, quick: bool) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"ape-bench/evict/v1\",");
    let _ = writeln!(out, "  \"seed\": {seed},");
    let _ = writeln!(out, "  \"quick\": {quick},");
    let _ = writeln!(out, "  \"iters_per_cell\": {iters},");
    out.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"policy\": \"{}\", \"objects\": {}, \"store_bytes\": {}, \
             \"victims\": {}, \"median_ns\": {}",
            c.policy, c.objects, c.store_bytes, c.victims, c.median_ns
        );
        match c.baseline_median_ns {
            Some(base) => {
                let _ = write!(
                    out,
                    ", \"baseline_median_ns\": {}, \"speedup\": {:.2}",
                    base,
                    speedup(c).unwrap_or(0.0)
                );
            }
            None => out.push_str(", \"baseline_median_ns\": null, \"speedup\": null"),
        }
        match c.workspace_allocations {
            Some(a) => {
                let _ = write!(out, ", \"workspace_allocations\": {a}");
            }
            None => out.push_str(", \"workspace_allocations\": null"),
        }
        match &c.solver {
            Some(s) => {
                let _ = write!(
                    out,
                    ", \"solver\": {{\"runs\": {}, \"items\": {}, \"dp\": {}, \
                     \"greedy\": {}, \"short_circuits\": {}, \"forced\": {}, \
                     \"repair\": {}}}",
                    s.solver_runs,
                    s.items_considered,
                    s.dp_runs,
                    s.greedy_runs,
                    s.short_circuits,
                    s.forced_victims,
                    s.repair_evictions
                );
            }
            None => out.push_str(", \"solver\": null"),
        }
        out.push_str(if i + 1 < cells.len() { "},\n" } else { "}\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn solver_path(c: &Cell) -> &'static str {
    match &c.solver {
        None => "-",
        Some(s) if s.short_circuits > 0 => "short-circuit",
        Some(s) if s.dp_runs > 0 => "dp",
        Some(s) if s.greedy_runs > 0 => "greedy",
        Some(_) => "expired-only",
    }
}

/// Runs the eviction microbench sweep and returns a human-readable summary.
/// Writes `BENCH_evict.json` (repo root; `target/repro-quick/` for a quick
/// run); an artifact that cannot be written is the `Err`.
pub fn bench_evict(opts: &ReproOptions) -> std::io::Result<String> {
    let iters = (opts.micro_trials / 4).max(5);
    let mut cells = Vec::new();
    for &objects in &SWEEP_OBJECTS {
        cells.push(run_pacm_cell(objects, true, iters, opts.seed));
        cells.push(run_pacm_cell(objects, false, iters, opts.seed));
        cells.push(run_lru_cell(objects, iters, opts.seed));
    }

    let json = render_json(&cells, iters, opts.seed, opts.quick);
    let path = crate::write_artifact("BENCH_evict.json", &json, opts.quick)?;

    let mut out = String::from(
        "Eviction microbench: select_victims cost, optimized vs seed engine\n\
         (medians over identical repeated decisions; LRU has no seed delta)\n\n",
    );
    let _ = writeln!(
        out,
        "{:<12} {:>8} {:>12} {:>14} {:>9} {:>8} {:>15}",
        "policy", "objects", "median (us)", "seed (us)", "speedup", "victims", "solver path"
    );
    for c in &cells {
        let _ = writeln!(
            out,
            "{:<12} {:>8} {:>12.1} {:>14} {:>9} {:>8} {:>15}",
            c.policy,
            c.objects,
            c.median_ns as f64 / 1_000.0,
            c.baseline_median_ns
                .map(|b| format!("{:.1}", b as f64 / 1_000.0))
                .unwrap_or_else(|| "-".into()),
            speedup(c)
                .map(|s| format!("{s:.2}x"))
                .unwrap_or_else(|| "-".into()),
            c.victims,
            solver_path(c),
        );
    }
    let _ = writeln!(out, "\nwrote {}", path.display());
    Ok(out)
}
