//! `repro bench-fleet` — SoA client-fleet scale sweep on the plain `World`.
//!
//! Sweeps client populations {10k, 100k, 1M} (quick mode keeps the small
//! cell for CI smoke). Each cell is one [`ape_nodes::FleetNode`]
//! struct-of-arrays population driving a fetch/think workload against the
//! [`FleetResponder`]/[`FleetOrigin`] spine — one fleet per cell, so no two
//! nodes ever tick on the same nanosecond.
//!
//! Per cell the sweep reports events processed, settled fetches, and the
//! median/min/max wall-clock over the trials with the throughput the
//! median implies. Every trial of a cell must produce the same
//! [`Fingerprint`]; the bench asserts it, so the spread is host noise over
//! one simulation. A full run writes `BENCH_fleet.json` at the repo root, a
//! `--quick` run `target/repro-quick/BENCH_fleet.json`; `EXPERIMENTS.md`
//! tracks the trajectory.
//!
//! The workload is deterministic in `--seed`; only wall-clock timings vary
//! run to run (the bench crate is the one place wall-clock is permitted).

use std::fmt::Write as _;
use std::time::Instant;

use ape_nodes::{FleetConfig, FleetMsg, FleetNode, FleetOrigin, FleetResponder};
use ape_proto::names;
use ape_simnet::{Fingerprint, LinkSpec, SimDuration, SimTime, World};
use ape_workload::{ZipfConfig, ZipfMode};

use crate::ReproOptions;

/// Client populations swept in a full run.
const SWEEP_FULL: [usize; 3] = [10_000, 100_000, 1_000_000];

/// Quick-mode subset (CI smoke: small population only).
const SWEEP_QUICK: [usize; 1] = [10_000];

/// Timed trials per cell, after one untimed warm-up.
const TRIALS: usize = 3;

/// Mean think time between fetches. Denser than the paper's 20 s fleet
/// average so a few simulated seconds carry bench-grade traffic.
const THINK_MEAN: SimDuration = SimDuration::from_secs(2);

/// Simulated span per cell (full / quick).
const SIM_SECS_FULL: u64 = 4;
const SIM_SECS_QUICK: u64 = 2;

/// Catalog size and skew for the Zipf app popularity.
const APPS: usize = 64;
const ZIPF_EXPONENT: f64 = 1.0;

/// Responder cache model: share of the catalog considered cached.
const HIT_PCT: u8 = 60;

/// One population's sweep cell.
struct Cell {
    clients: usize,
    /// Simulation events processed during the measured span.
    events: u64,
    /// Fetches issued (CLIENT_FETCHES) during the span.
    fetches: u64,
    /// Wall-clock of the measured span over the trials.
    wall_ms_median: f64,
    wall_ms_min: f64,
    wall_ms_max: f64,
    /// Throughputs implied by the median wall-clock.
    events_per_sec: u64,
    fetches_per_sec: u64,
}

/// The WiFi-hop link the fleet uses to reach the spine: the testbed
/// radio's `wifi` spec, 200 µs mean jitter included. A fleet issues a
/// whole tick's fetches at one instant, so its two links carry the longest
/// in-flight lists in the repo; the committed `events` / `fetches` per
/// cell double as evidence that link reservations are bitwise stable.
fn link() -> LinkSpec {
    LinkSpec::new(2, SimDuration::from_micros(1_500)).jitter_mean(SimDuration::from_micros(200))
}

fn build_fleet(clients: usize, seed: u64) -> World<FleetMsg> {
    let mut w: World<FleetMsg> = World::new(seed);
    let origin = w.add_node("origin", FleetOrigin::new(SimDuration::from_micros(200)));
    let responder = w.add_node(
        "responder",
        FleetResponder::new(origin, HIT_PCT, SimDuration::from_micros(100), seed),
    );
    w.connect(responder, origin, link());
    let config = FleetConfig {
        clients,
        think_mean: THINK_MEAN,
        apps: APPS,
        zipf_exponent: ZIPF_EXPONENT,
        zipf: ZipfConfig {
            mode: ZipfMode::Alias,
        },
        timeout: SimDuration::from_secs(5),
        tick: SimDuration::from_millis(10),
    };
    let fleet = w.add_node("fleet", FleetNode::new(config, responder));
    w.connect(fleet, responder, link());
    w
}

/// Runs one freshly built world for `sim`; only the run itself is timed.
/// Returns `(fingerprint, events, fetches, wall ms)`.
fn run_world(mut w: World<FleetMsg>, sim: SimDuration) -> (Fingerprint, u64, u64, f64) {
    let t = Instant::now();
    let report = w.run_until(SimTime::ZERO + sim);
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    let fetches = w.metrics().counter(names::CLIENT_FETCHES);
    (w.fingerprint(), report.events, fetches, wall_ms)
}

/// Runs a cell [`TRIALS`] times after a warm-up pass (which faults in code
/// paths and grows allocator arenas) and folds the outcomes into a [`Cell`].
fn run_cell(clients: usize, sim: SimDuration, seed: u64) -> Cell {
    let (fingerprint, events, fetches, _) = run_world(build_fleet(clients, seed), sim);
    let mut walls: Vec<f64> = (0..TRIALS)
        .map(|_| {
            let (fp, _, _, wall_ms) = run_world(build_fleet(clients, seed), sim);
            assert_eq!(fp, fingerprint, "world must be deterministic across trials");
            wall_ms
        })
        .collect();
    walls.sort_by(|a, b| a.partial_cmp(b).expect("wall-clock is finite"));
    let wall_ms_median = walls[TRIALS / 2];
    let per_sec = |count: u64| (count as f64 / (wall_ms_median / 1e3)) as u64;
    Cell {
        clients,
        events,
        fetches,
        wall_ms_median,
        wall_ms_min: walls[0],
        wall_ms_max: walls[TRIALS - 1],
        events_per_sec: per_sec(events),
        fetches_per_sec: per_sec(fetches),
    }
}

fn render_json(cells: &[Cell], seed: u64, quick: bool, sim_secs: u64) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"ape-bench/fleet/v1\",");
    let _ = writeln!(out, "  \"seed\": {seed},");
    let _ = writeln!(out, "  \"quick\": {quick},");
    let _ = writeln!(out, "  \"trials_per_cell\": {TRIALS},");
    let _ = writeln!(out, "  \"sim_seconds\": {sim_secs},");
    out.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"clients\": {}, \"events\": {}, \"fetches\": {}, \
             \"wall_ms_median\": {:.2}, \"wall_ms_min\": {:.2}, \"wall_ms_max\": {:.2}, \
             \"events_per_sec\": {}, \"fetches_per_sec\": {}",
            c.clients,
            c.events,
            c.fetches,
            c.wall_ms_median,
            c.wall_ms_min,
            c.wall_ms_max,
            c.events_per_sec,
            c.fetches_per_sec,
        );
        out.push_str(if i + 1 < cells.len() { "},\n" } else { "}\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Runs the SoA-fleet scale sweep and returns a human-readable summary.
/// Writes `BENCH_fleet.json` (repo root; `target/repro-quick/` for a quick
/// run); an artifact that cannot be written is the `Err`.
pub fn bench_fleet(opts: &ReproOptions) -> std::io::Result<String> {
    let quick = opts.micro_trials < ReproOptions::default().micro_trials;
    let sizes: &[usize] = if quick { &SWEEP_QUICK } else { &SWEEP_FULL };
    let sim_secs = if quick { SIM_SECS_QUICK } else { SIM_SECS_FULL };
    let sim = SimDuration::from_secs(sim_secs);

    let cells: Vec<Cell> = sizes
        .iter()
        .map(|&clients| run_cell(clients, sim, opts.seed))
        .collect();

    let json = render_json(&cells, opts.seed, quick, sim_secs);
    let path = crate::write_artifact("BENCH_fleet.json", &json, quick)?;

    let mut out = format!(
        "SoA client-fleet scale sweep on the plain World\n\
         (one FleetNode per cell; {TRIALS} trials, fingerprints asserted equal)\n\n",
    );
    let _ = writeln!(
        out,
        "{:>9} {:>11} {:>10} {:>10} {:>10} {:>10} {:>13} {:>12}",
        "clients", "events", "fetches", "wall ms", "min", "max", "events/sec", "fetches/sec"
    );
    for c in &cells {
        let _ = writeln!(
            out,
            "{:>9} {:>11} {:>10} {:>10.1} {:>10.1} {:>10.1} {:>13} {:>12}",
            c.clients,
            c.events,
            c.fetches,
            c.wall_ms_median,
            c.wall_ms_min,
            c.wall_ms_max,
            c.events_per_sec,
            c.fetches_per_sec,
        );
    }
    let _ = writeln!(out, "wrote {}", path.display());
    Ok(out)
}
