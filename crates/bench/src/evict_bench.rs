//! `repro bench-evict` — the eviction-cost microbench sweep.
//!
//! Times `select_victims` against a full store and writes
//! `BENCH_evict.json` at the repo root. The first cell is one PACM
//! decision shaped like the Fig. 9 testbed's: a 5 MB store of 128 objects
//! and a 40 KB probe, an overflow of a few dozen units. Then the sweep:
//! store populations {256, 1024, 4096, 16384} × eviction policies
//! {pacm, pacm-nofair, lru}. The sweep only times; the `evict_oracle`
//! test checks the PACM decisions on the same stores ([`evict_stores`]).
//!
//! The workload is deterministic in `--seed`: per-object sizes/apps/TTLs
//! come from `SimRng`, the store is built exactly full, and the probe
//! admission is fixed. Each cell renders what the seed determines first
//! (`policy` … `solver`) and its one host timing, `median_ns`, last; the
//! `committed_outputs` test regenerates the former and compares it with
//! the committed file. In the sweep one in sixteen objects is already
//! expired at decision time — modelling the gap between TTL sweep ticks —
//! so every sweep cell starts from forced victims; the testbed-shaped
//! store has none, as admission purges them first. Every PACM cell reaches
//! the solver
//! (from 4096 objects the expired bytes exceed the probe, but the
//! survivors' weights, each rounded up to a whole unit, still do not fit):
//! the certified cover search, or the DP where the search declines. The
//! summary's solver-path column and the JSON solver block say which.

use std::fmt::Write as _;
use std::time::Instant;

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

/// Probe admission size: large enough that every PACM cell must solve an
/// overflow of several hundred units.
const INCOMING_SIZE: u64 = 300_000;

/// The testbed-shaped cell: the Fig. 9 AP's 5 MB store holds about this
/// many objects of 1–77 KB, none expired (admission purges them first).
const TESTBED_OBJECTS: usize = 128;

/// The testbed-shaped cell's probe: an overflow of a few dozen units, the
/// size of a typical admission into the Fig. 9 AP's full store.
const TESTBED_INCOMING_SIZE: u64 = 40_000;

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

/// An exactly-full store shaped like the Fig. 9 AP's: [`TESTBED_OBJECTS`]
/// objects of 1–77 KB (about 5 MB), spread over the 30 apps, none expired.
fn build_testbed_store(seed: u64) -> CacheStore {
    let mut rng = SimRng::seed_from(seed ^ 0x07e5_7bed);
    let sizes: Vec<u64> = (0..TESTBED_OBJECTS)
        .map(|_| rng.uniform_u64(1_000, 77_000))
        .collect();
    let mut store = CacheStore::new(sizes.iter().sum(), 500_000);
    for (i, &size) in sizes.iter().enumerate() {
        store.insert(
            ObjectMeta {
                key: UrlHash::of(&format!("http://bench-evict/testbed/{i}")),
                app: AppId::new((i % 30) as u32),
                size,
                priority: if rng.chance(0.4) {
                    Priority::HIGH
                } else {
                    Priority::LOW
                },
                expires_at: SimTime::from_secs(rng.uniform_u64(120, 3_600)),
                fetch_latency: SimDuration::from_millis(rng.uniform_u64(5, 95)),
            },
            SimTime::ZERO,
        );
    }
    store
}

fn incoming(size: u64) -> ObjectMeta {
    ObjectMeta {
        key: UrlHash::of("http://bench-evict/incoming"),
        app: AppId::new(3),
        size,
        priority: Priority::HIGH,
        expires_at: SimTime::from_secs(1_800),
        fetch_latency: SimDuration::from_millis(35),
    }
}

/// Every store a PACM cell benches at `seed`, each with its probe
/// admission: the testbed-shaped store, then one per swept population.
pub fn evict_stores(seed: u64) -> Vec<(CacheStore, ObjectMeta)> {
    let mut stores = vec![(build_testbed_store(seed), incoming(TESTBED_INCOMING_SIZE))];
    stores.extend(
        SWEEP_OBJECTS
            .iter()
            .map(|&objects| (build_store(objects, seed), incoming(INCOMING_SIZE))),
    );
    stores
}

/// Feeds the sweep's skewed request mix (app 0 nearly idle, apps 1..29
/// active) to `note`; callers roll the window at t = 60 s afterwards and
/// decide at t = 61 s.
pub fn evict_training(mut note: impl FnMut(AppId)) {
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

fn run_pacm_cell(store: &CacheStore, probe: &ObjectMeta, fairness: bool) -> Cell {
    let objects = store.len();
    let now = SimTime::from_secs(NOW_SECS);

    let mut policy = PacmPolicy::new(PacmConfig::default());
    if !fairness {
        policy = policy.without_fairness();
    }
    evict_training(|app| policy.note_request(app));
    policy.roll_window(SimTime::from_secs(60));

    let victims = policy.select_victims(store, probe, now);
    // The policy's first decision: its cumulative counters are this call's.
    let solver = policy.stats();

    // Warm-up: grows the workspace to its steady-state footprint.
    for _ in 0..2 {
        std::hint::black_box(policy.select_victims(store, probe, now));
    }
    let allocs_before = policy.workspace_allocations();
    let median_ns = median_ns(|| policy.select_victims(store, probe, now));

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

fn run_lru_cell(store: &CacheStore, probe: &ObjectMeta) -> Cell {
    let objects = store.len();
    let now = SimTime::from_secs(NOW_SECS);
    let mut policy = LruPolicy::new();

    let victims = policy.select_victims(store, probe, now);
    for _ in 0..2 {
        std::hint::black_box(policy.select_victims(store, probe, now));
    }
    Cell {
        policy: "lru",
        objects,
        store_bytes: store.capacity(),
        victims: victims.len(),
        workspace_allocations: None,
        solver: None,
        median_ns: median_ns(|| policy.select_victims(store, probe, now)),
    }
}

fn sweep(seed: u64) -> Vec<Cell> {
    let mut cells = Vec::new();
    for (i, (store, probe)) in evict_stores(seed).iter().enumerate() {
        cells.push(run_pacm_cell(store, probe, true));
        // The testbed-shaped store is benched with PACM alone.
        if i > 0 {
            cells.push(run_pacm_cell(store, probe, false));
            cells.push(run_lru_cell(store, probe));
        }
    }
    cells
}

fn render_json(cells: &[Cell], seed: u64) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"ape-bench/evict/v3\",");
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
                    ", \"solver\": {{\"runs\": {}, \"items\": {}, \"certified\": {}, \
                     \"dp\": {}, \"short_circuits\": {}, \"forced\": {}, \"repair\": {}}}",
                    s.solver_runs,
                    s.items_considered,
                    s.certified,
                    s.dp_runs,
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
        Some(s) if s.certified > 0 => "certified",
        Some(s) if s.dp_runs > 0 => "dp",
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
         (medians over identical repeated decisions)\n\n",
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
