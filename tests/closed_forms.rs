//! The LRU column of Tables IV–VI against a closed form: Che's
//! characteristic-time approximation (Paschos et al., PAPERS.md) over a
//! finite horizon.
//!
//! One execution fetches every object of its app under one URL variant,
//! so the unit that LRU keeps or loses together is a *block*, one
//! (app, variant) pair: its size is the app's bytes, and its request rate
//! the app's Zipf share of the schedule's rate over its variants. Che
//! finds the characteristic time `T` at which the blocks' expected
//! occupancy `Σ size·(1 − e^{−λT})` fills the cache; a request then hits
//! when its block was requested within `T` before, with probability
//! `1 − e^{−λT}`. The horizon is finite: a block's first request has no
//! earlier one, so of `N` requests at most `N − 1` can hit, and
//! `E[max(N − 1, 0)] = λD − 1 + e^{−λD}` for Poisson `N`.
//!
//! Each cell is simulated here, so a broken LRU moves the simulated side
//! and fails the check. The estimate ignores TTL expiry and the flag
//! round trip; within 0.03 is what the two models share.
//!
//! The same cells, run under LRU and under PACM, are held below a static
//! upper bound (Paschos et al.): each object may expect
//! `λD − 1 + e^{−λD}` hits over the horizon, and a cache that keeps the
//! densest objects (expected hits per byte), the last one fractionally,
//! collects the most of them that any fixed content can. A realized first
//! miss can fall below its expectation, so a cell may read a little over
//! the bound when everything fits; 0.01 is that allowance.

use ape_appdag::{AppSpec, DummyAppConfig};
use ape_nodes::ApConfig;
use ape_simnet::SimDuration;
use ape_workload::{ScheduleConfig, ZipfSampler};
use apecache::{paper_suite, parallel_map, run_system, System, TestbedConfig};

/// The sweeps' run length and seed (`repro`'s defaults).
const MINUTES: u64 = 20;
const SEED: u64 = 42;
const ZIPF_EXPONENT: f64 = 0.8;
/// Largest gap allowed between a simulated cell and its estimate.
const TOLERANCE: f64 = 0.03;
/// Largest amount a simulated cell may read over the static bound.
const BOUND_SLACK: f64 = 0.01;

/// One LRU cell: the size range's upper end in bytes, the app count and
/// the mean executions per app per minute.
#[derive(Debug, Clone, Copy)]
struct Cell {
    table: &'static str,
    max_size: u64,
    apps: usize,
    per_minute: f64,
}

/// The 14 distinct LRU cells of Tables IV–VI: the default point (1–100 kb,
/// 30 apps, 3 a minute) sits in all three tables and is listed once.
fn cells() -> Vec<Cell> {
    let cell = |table, max_size, apps, per_minute| Cell {
        table,
        max_size,
        apps,
        per_minute,
    };
    let mut cells: Vec<Cell> = [100_000, 200_000, 300_000, 400_000, 500_000]
        .into_iter()
        .map(|size| cell("IV", size, 30, 3.0))
        .collect();
    cells.extend([1.0, 1.5, 2.0, 2.5].map(|freq| cell("V", 100_000, 30, freq)));
    cells.extend([5, 10, 15, 20, 25].map(|apps| cell("VI", 100_000, apps, 3.0)));
    cells
}

impl std::fmt::Display for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Table {:<3} 1-{:>3} kb {:>2} apps {:.1}/min",
            self.table,
            self.max_size / 1_000,
            self.apps,
            self.per_minute
        )
    }
}

fn suite(cell: &Cell) -> Vec<AppSpec> {
    let dummy = DummyAppConfig::default().with_size_range(1_000, cell.max_size);
    let mut suite = paper_suite(&dummy, SEED);
    suite.truncate(cell.apps);
    suite
}

/// The cell's run under `system`, configured as `repro`'s sweeps
/// configure it.
fn simulated(cell: &Cell, system: System) -> f64 {
    let mut config = TestbedConfig::new(system, suite(cell));
    config.schedule = ScheduleConfig {
        apps: cell.apps,
        avg_per_minute: cell.per_minute,
        zipf_exponent: ZIPF_EXPONENT,
        duration: SimDuration::from_mins(MINUTES),
    };
    config.seed = SEED;
    run_system(&config, SimDuration::from_mins(MINUTES))
        .summary()
        .hit_ratio
}

/// A block: its objects' sizes in bytes and its request rate per second.
struct Block {
    sizes: Vec<f64>,
    rate: f64,
}

/// Expected requests of a block over `horizon` seconds, and the expected
/// requests after its first: `λD` and `λD − 1 + e^{−λD}`.
fn expected_requests(b: &Block, horizon: f64) -> (f64, f64) {
    let expected = b.rate * horizon;
    (expected, expected - 1.0 + (-expected).exp())
}

/// Finite-horizon Che estimate of the object hit ratio of an LRU cache of
/// `capacity` bytes over `horizon` seconds.
fn che(blocks: &[Block], capacity: f64, horizon: f64) -> f64 {
    let occupancy = |t: f64| -> f64 {
        blocks
            .iter()
            .map(|b| b.sizes.iter().sum::<f64>() * -(-b.rate * t).exp_m1())
            .sum()
    };
    // Everything fits: every block stays once fetched.
    let t = if occupancy(f64::INFINITY) <= capacity {
        f64::INFINITY
    } else {
        // Occupancy rises with `t`; bisect in log space.
        let (mut lo, mut hi) = (1e-3f64, 1e9f64);
        for _ in 0..200 {
            let mid = (lo * hi).sqrt();
            if occupancy(mid) < capacity {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    };
    let (mut hits, mut requests) = (0.0, 0.0);
    for b in blocks {
        let (expected, after_first) = expected_requests(b, horizon);
        let objects = b.sizes.len() as f64;
        hits += objects * after_first * -(-b.rate * t).exp_m1();
        requests += objects * expected;
    }
    hits / requests
}

/// The static upper bound on the object hit ratio of a cache of
/// `capacity` bytes over `horizon` seconds: the fractional knapsack of
/// expected hits, filled by expected hits per byte.
fn static_bound(blocks: &[Block], capacity: f64, horizon: f64) -> f64 {
    let mut objects = Vec::new();
    let mut requests = 0.0;
    for b in blocks {
        let (expected, after_first) = expected_requests(b, horizon);
        requests += b.sizes.len() as f64 * expected;
        objects.extend(b.sizes.iter().map(|&size| (size, after_first)));
    }
    objects.sort_by(|(sa, ha), (sb, hb)| (hb / sb).total_cmp(&(ha / sa)));
    let (mut room, mut hits) = (capacity, 0.0);
    for (size, expected_hits) in objects {
        let kept = (room / size).min(1.0);
        hits += kept * expected_hits;
        room -= kept * size;
        if room <= 0.0 {
            break;
        }
    }
    hits / requests
}

/// The cell's blocks, the AP's cache capacity in bytes and the horizon in
/// seconds.
fn model(cell: &Cell) -> (Vec<Block>, f64, f64) {
    let zipf = ZipfSampler::new(cell.apps, ZIPF_EXPONENT);
    let total_rate = cell.apps as f64 * cell.per_minute / 60.0;
    let mut blocks = Vec::new();
    for (i, app) in suite(cell).iter().enumerate() {
        let variants = app.variants();
        let block = || Block {
            sizes: app.dag().iter().map(|(_, o)| o.size as f64).collect(),
            rate: total_rate * zipf.weight(i) / f64::from(variants),
        };
        blocks.extend((0..variants).map(|_| block()));
    }
    let capacity = ApConfig::default().cache_capacity as f64;
    (blocks, capacity, (MINUTES * 60) as f64)
}

fn estimate(cell: &Cell) -> f64 {
    let (blocks, capacity, horizon) = model(cell);
    che(&blocks, capacity, horizon)
}

fn bound(cell: &Cell) -> f64 {
    let (blocks, capacity, horizon) = model(cell);
    static_bound(&blocks, capacity, horizon)
}

#[test]
fn lru_cells_match_the_finite_horizon_che_estimate() {
    let cells = cells();
    let simulated = parallel_map(cells.len(), 2, |i| {
        simulated(&cells[i], System::ApeCacheLru)
    });
    let mut report = String::new();
    let mut worst: f64 = 0.0;
    for (cell, sim) in cells.iter().zip(&simulated) {
        let est = estimate(cell);
        worst = worst.max((sim - est).abs());
        report += &format!("{cell}: simulated {sim:.3}, Che {est:.3}\n");
    }
    assert!(
        worst <= TOLERANCE,
        "an LRU cell is {worst:.3} from its estimate:\n{report}"
    );
    // The cells span the sweeps' range, so the match is not one flat value.
    assert!(simulated[0] > simulated[4] + 0.3, "{report}");
}

#[test]
fn lru_and_pacm_cells_stay_under_the_static_bound() {
    let runs: Vec<(System, Cell)> = [System::ApeCacheLru, System::ApeCache]
        .into_iter()
        .flat_map(|system| cells().into_iter().map(move |cell| (system, cell)))
        .collect();
    let simulated = parallel_map(runs.len(), 2, |i| simulated(&runs[i].1, runs[i].0));
    let mut report = String::new();
    let mut over = 0;
    for ((system, cell), sim) in runs.iter().zip(&simulated) {
        let bound = bound(cell);
        if *sim > bound + BOUND_SLACK {
            over += 1;
        }
        report += &format!(
            "{:<13} {cell}: simulated {sim:.3}, bound {bound:.3} ({:.0} % of it)\n",
            system.label(),
            100.0 * sim / bound
        );
    }
    assert!(
        over == 0,
        "{over} cells read over the static bound:\n{report}"
    );
}
