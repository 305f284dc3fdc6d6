//! `repro bench-evict` — the eviction-cost microbench sweep.
//!
//! Sweeps store populations {256, 1024, 4096, 16384} × eviction policies
//! {pacm, pacm-nofair, lru}, timing `select_victims` against a full store
//! and writing `BENCH_evict.json` at the repo root. Before a PACM cell is
//! timed, its victims are asserted equal to the frozen seed engine's
//! (`ape_cachealg::reference`, the test oracle) on the benched store.
//!
//! The workload is deterministic in `--seed`: per-object sizes/apps/TTLs
//! come from `SimRng`, the store is built exactly full, and the probe
//! admission is fixed. Each cell renders what the seed determines first
//! (`policy` … `solver`) and its one host timing, `median_ns`, last; the
//! `committed_outputs` test regenerates the former and compares it with
//! the committed file. One in sixteen objects is already expired at
//! decision time — modelling the gap between TTL sweep ticks — so every DP
//! cell starts from forced victims: the 256-, 1024- and 4096-object cells
//! run the DP (at 4096 the expired bytes exceed the probe, but the
//! survivors' weights, each rounded up to a whole unit, still do not fit),
//! and the 16384-object cell falls back to greedy.

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

/// Timed `select_victims` calls per cell, after two warm-up calls.
const ITERS: usize = 25;

/// Probe admission size: large enough that every cell up to 4096 objects
/// must run the DP over a band of several hundred cells.
const INCOMING_SIZE: u64 = 300_000;

/// One measured sweep cell.
struct Cell {
    policy: &'static str,
    objects: usize,
    store_bytes: u64,
    victims: usize,
    /// Workspace buffer growths during the timed window (expected 0);
    /// `None` for LRU.
    workspace_allocations: Option<u64>,
    /// Solver counters of one decision; `None` for LRU.
    solver: Option<EvictStats>,
    /// Host time of one call, median of [`ITERS`].
    median_ns: u64,
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

/// Median host time of [`ITERS`] `select` calls.
fn median_ns<V>(mut select: impl FnMut() -> V) -> u64 {
    let mut samples: Vec<u64> = (0..ITERS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(select());
            t.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[ITERS / 2]
}

fn run_pacm_cell(objects: usize, fairness: bool, seed: u64) -> Cell {
    let store = build_store(objects, seed);
    let probe = incoming();
    let now = SimTime::from_secs(NOW_SECS);

    let mut policy = PacmPolicy::new(PacmConfig::default());
    let mut oracle = ReferencePacm::new(PacmConfig::default());
    if !fairness {
        policy = policy.without_fairness();
        oracle = oracle.without_fairness();
    }
    train(|app| policy.note_request(app));
    policy.roll_window(SimTime::from_secs(60));
    train(|app| oracle.note_request(app));
    oracle.roll_window(SimTime::from_secs(60));

    // The property suite proves equivalence in general; this pins it on
    // the store whose cost is about to be reported.
    let victims = policy.select_victims(&store, &probe, now);
    assert_eq!(
        victims,
        oracle.select_victims(&store, &probe, now),
        "optimized engine diverged from the seed on the benched store"
    );
    // The policy's first decision: its cumulative counters are this call's.
    let solver = policy.stats();

    // Warm-up: grows the workspace to its steady-state footprint.
    for _ in 0..2 {
        std::hint::black_box(policy.select_victims(&store, &probe, now));
    }
    let allocs_before = policy.workspace_allocations();
    let median_ns = median_ns(|| policy.select_victims(&store, &probe, now));

    Cell {
        policy: if fairness { "pacm" } else { "pacm-nofair" },
        objects,
        store_bytes: store.capacity(),
        victims: victims.len(),
        workspace_allocations: Some(policy.workspace_allocations() - allocs_before),
        solver: Some(solver),
        median_ns,
    }
}

fn run_lru_cell(objects: usize, seed: u64) -> Cell {
    let store = build_store(objects, seed);
    let probe = incoming();
    let now = SimTime::from_secs(NOW_SECS);
    let mut policy = LruPolicy::new();

    let victims = policy.select_victims(&store, &probe, now);
    for _ in 0..2 {
        std::hint::black_box(policy.select_victims(&store, &probe, now));
    }
    Cell {
        policy: "lru",
        objects,
        store_bytes: store.capacity(),
        victims: victims.len(),
        workspace_allocations: None,
        solver: None,
        median_ns: median_ns(|| policy.select_victims(&store, &probe, now)),
    }
}

fn sweep(seed: u64) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &objects in &SWEEP_OBJECTS {
        cells.push(run_pacm_cell(objects, true, seed));
        cells.push(run_pacm_cell(objects, false, seed));
        cells.push(run_lru_cell(objects, seed));
    }
    cells
}

fn render_json(cells: &[Cell], seed: u64) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"ape-bench/evict/v1\",");
    let _ = writeln!(out, "  \"seed\": {seed},");
    let _ = writeln!(out, "  \"iters_per_cell\": {ITERS},");
    out.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"policy\": \"{}\", \"objects\": {}, \"store_bytes\": {}, \"victims\": {}",
            c.policy, c.objects, c.store_bytes, c.victims
        );
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
        let _ = write!(out, ", \"median_ns\": {}", c.median_ns);
        out.push_str(if i + 1 < cells.len() { "},\n" } else { "}\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// The `BENCH_evict.json` document a sweep at `seed` writes. Everything in
/// a cell up to `median_ns` is a function of `seed` alone.
pub fn evict_document(seed: u64) -> String {
    render_json(&sweep(seed), seed)
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

/// Runs the eviction microbench sweep and returns a human-readable
/// summary. Writes `BENCH_evict.json` at the repo root; an artifact that
/// cannot be written is the `Err`.
pub fn bench_evict(opts: &ReproOptions) -> std::io::Result<String> {
    let cells = sweep(opts.seed);
    let json = render_json(&cells, opts.seed);
    let path = crate::write_artifact("BENCH_evict.json", &json)?;

    let mut out = String::from(
        "Eviction microbench: select_victims cost on a full store\n\
         (medians over identical repeated decisions; PACM victims asserted\n\
         equal to the seed engine's)\n\n",
    );
    let _ = writeln!(
        out,
        "{:<12} {:>8} {:>12} {:>8} {:>15}",
        "policy", "objects", "median (us)", "victims", "solver path"
    );
    for c in &cells {
        let _ = writeln!(
            out,
            "{:<12} {:>8} {:>12.1} {:>8} {:>15}",
            c.policy,
            c.objects,
            c.median_ns as f64 / 1_000.0,
            c.victims,
            solver_path(c),
        );
    }
    let _ = writeln!(out, "\nwrote {}", path.display());
    Ok(out)
}
