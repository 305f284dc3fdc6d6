//! `repro bench-scale` — city-scale multi-AP topology sweep.
//!
//! Sweeps AP grids {1, 16, 64, 256} (quick mode keeps {1, 16} for CI
//! smoke) × client roam rates {none, low, high} × {cooperative, isolated}
//! caching, reporting per cell the client-observed hit ratio, the
//! AP-layer aggregate hit ratio (home hits plus peer hits over all
//! cacheable demand — the fraction of traffic the AP tier absorbs before
//! the edge), and p99 app latency.
//!
//! Every cell of up to [`TIE_ASSERT_MAX_APS`] APs is run twice — FIFO
//! tie-breaks and under a tie-break-perturbation key — and the two
//! [`Fingerprint`](ape_simnet::Fingerprint)s are asserted identical before
//! the cell is reported, so no number there hangs on an accident of
//! same-nanosecond scheduling order. Larger grids skip the pass: the
//! `World` draws all randomness from one stream, so two RNG-drawing
//! callbacks on *any* two nodes that land on one nanosecond are
//! order-sensitive, and at 64+ APs a run has enough events for that to
//! happen (`DESIGN.md` §16). At 64+ APs the cooperative grid must beat the
//! isolated one on AP-layer hit ratio, or the bench panics.
//!
//! A full run writes `BENCH_scale.json` at the repo root, a `--quick` run
//! `target/repro-quick/BENCH_scale.json`; `EXPERIMENTS.md` tracks the
//! trajectory. The sweep itself is deterministic in `--seed`;
//! only the informational wall-clock column varies run to run.

use std::fmt::Write as _;
use std::time::Instant;

use ape_appdag::DummyAppConfig;
use ape_proto::names;
use ape_simnet::SimDuration;
use ape_workload::ScheduleConfig;
use apecache::{
    build_topology, collect_topology, synthetic_suite, System, TestbedConfig, TopologyConfig,
};

use crate::ReproOptions;

/// AP-grid sizes swept in a full run.
const AP_SWEEP_FULL: [usize; 4] = [1, 16, 64, 256];

/// Quick-mode subset (CI smoke: the grids stay small).
const AP_SWEEP_QUICK: [usize; 2] = [1, 16];

/// Roam rates swept (label, roams per client per minute).
const ROAM_FULL: [(&str, f64); 3] = [("none", 0.0), ("low", 1.0), ("high", 6.0)];
const ROAM_QUICK: [(&str, f64); 2] = [("none", 0.0), ("high", 6.0)];

/// Clients homed at each AP.
const CLIENTS_PER_AP: usize = 2;

/// Simulated span (full / quick): at least two 60 s summary windows, so
/// neighbor gossip has rolled and peer fetches carry real traffic.
const SIM_SECS_FULL: u64 = 180;
const SIM_SECS_QUICK: u64 = 150;

/// An AP cache far below the suite's working set: misses — and therefore
/// cooperation — stay relevant for the whole run instead of vanishing
/// once every AP has absorbed the hot set.
const AP_CACHE_CAPACITY: u64 = 400_000;

/// Tie-break-perturbation key for the per-cell invariance pass.
const TIE_KEY: u64 = 0x9E37_79B9_7F4A_7C15;

/// Largest grid the invariance pass runs on, and gates.
const TIE_ASSERT_MAX_APS: usize = 16;

/// One `(aps, roam rate, cooperation mode)` sweep cell.
struct Cell {
    aps: usize,
    roam: &'static str,
    roam_per_minute: f64,
    cooperative: bool,
    /// Client-observed AP cache hit ratio (DNS-Cache flagged hits).
    hit_ratio: f64,
    /// (home hits + peer hits) / (home hits + delegations): the share of
    /// cacheable demand the AP tier absorbs before the edge.
    ap_layer_hit_ratio: f64,
    /// p99 app latency in milliseconds.
    p99_ms: f64,
    fetches: u64,
    roams: u64,
    peer_hits: u64,
    /// Wall-clock of the measured (FIFO) run (informational only).
    wall_ms: f64,
}

fn cell_config(aps: usize, roam_per_minute: f64, cooperative: bool, seed: u64) -> TopologyConfig {
    let suite = synthetic_suite(5, &DummyAppConfig::default(), seed);
    let mut base = TestbedConfig::new(System::ApeCache, suite);
    base.schedule = ScheduleConfig {
        apps: 5,
        avg_per_minute: 10.0,
        zipf_exponent: 0.8,
        duration: SimDuration::from_secs(SIM_SECS_FULL),
    };
    base.seed = seed;
    base.ap.cache_capacity = AP_CACHE_CAPACITY;
    let config = TopologyConfig::new(base, aps)
        .with_clients_per_ap(CLIENTS_PER_AP)
        .with_roam_rate(roam_per_minute);
    if cooperative {
        config
    } else {
        config.isolated()
    }
}

/// Runs a cell's measured pass, asserts the tie-perturbation pass on
/// grids of up to [`TIE_ASSERT_MAX_APS`] APs, and folds the metrics into a
/// [`Cell`].
fn run_cell(
    aps: usize,
    roam: (&'static str, f64),
    cooperative: bool,
    sim: SimDuration,
    seed: u64,
) -> Cell {
    let config = cell_config(aps, roam.1, cooperative, seed);

    let mut top = build_topology(&config);
    let t = Instant::now();
    top.world.run_for(sim);
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    let base_fp = top.world.fingerprint();

    let label = format!(
        "{aps} APs, roam {}, {}",
        roam.0,
        if cooperative { "coop" } else { "iso" }
    );
    if aps <= TIE_ASSERT_MAX_APS {
        let mut perturbed = config.clone();
        perturbed.base.tie_perturbation = Some(TIE_KEY);
        let mut replay = build_topology(&perturbed);
        replay.world.run_for(sim);
        assert_eq!(
            replay.world.fingerprint(),
            base_fp,
            "{label}: tie-break perturbation must not change results"
        );
    }

    let mut result = collect_topology(config.base.system, &mut top);
    let home_hits = result.metrics.counter(names::AP_CACHE_HITS);
    let peer_hits = result.metrics.counter(names::AP_PEER_HITS);
    let delegations = result.metrics.counter(names::AP_DELEGATIONS);
    let roams = result.metrics.counter(names::CLIENT_ROAMS);
    let demand = home_hits + delegations;
    let summary = result.summary();
    assert!(
        summary.executions > 0,
        "{label}: workload must actually run"
    );
    // A single-AP grid has no neighbor to roam to, so its walk is empty.
    assert_eq!(
        roams > 0,
        roam.1 > 0.0 && aps > 1,
        "{label}: roams happen exactly when the rate is nonzero and a neighbor exists"
    );
    Cell {
        aps,
        roam: roam.0,
        roam_per_minute: roam.1,
        cooperative,
        hit_ratio: summary.hit_ratio,
        ap_layer_hit_ratio: if demand > 0 {
            (home_hits + peer_hits) as f64 / demand as f64
        } else {
            0.0
        },
        p99_ms: summary.app_latency_p99_ms,
        fetches: result.metrics.counter(names::CLIENT_FETCHES),
        roams,
        peer_hits,
        wall_ms,
    }
}

fn find<'a>(cells: &'a [Cell], aps: usize, roam: &str, cooperative: bool) -> Option<&'a Cell> {
    cells
        .iter()
        .find(|c| c.aps == aps && c.roam == roam && c.cooperative == cooperative)
}

fn render_json(cells: &[Cell], seed: u64, quick: bool, sim_secs: u64) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"ape-bench/scale/v1\",");
    let _ = writeln!(out, "  \"seed\": {seed},");
    let _ = writeln!(out, "  \"quick\": {quick},");
    let _ = writeln!(out, "  \"sim_seconds\": {sim_secs},");
    let _ = writeln!(out, "  \"clients_per_ap\": {CLIENTS_PER_AP},");
    let _ = writeln!(
        out,
        "  \"invariance\": \"every cell of up to {TIE_ASSERT_MAX_APS} APs asserted \
         bitwise-identical under tie-perturbation key {TIE_KEY:#x}; larger grids not checked\","
    );
    out.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"aps\": {}, \"roam\": \"{}\", \"roam_per_minute\": {}, \
             \"cooperative\": {}, \"hit_ratio\": {:.4}, \"ap_layer_hit_ratio\": {:.4}, \
             \"p99_ms\": {:.3}, \"fetches\": {}, \"roams\": {}, \"peer_hits\": {}, \
             \"wall_ms\": {:.1}",
            c.aps,
            c.roam,
            c.roam_per_minute,
            c.cooperative,
            c.hit_ratio,
            c.ap_layer_hit_ratio,
            c.p99_ms,
            c.fetches,
            c.roams,
            c.peer_hits,
            c.wall_ms
        );
        if c.aps <= TIE_ASSERT_MAX_APS {
            out.push_str(", \"tie_invariant\": true");
        }
        out.push_str(if i + 1 < cells.len() { "},\n" } else { "}\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Runs the city-scale multi-AP sweep and returns a human-readable summary.
/// Writes `BENCH_scale.json` (repo root; `target/repro-quick/` for a quick
/// run); an artifact that cannot be written is the `Err`.
pub fn bench_scale(opts: &ReproOptions) -> std::io::Result<String> {
    let quick = opts.quick;
    let ap_sweep: &[usize] = if quick {
        &AP_SWEEP_QUICK
    } else {
        &AP_SWEEP_FULL
    };
    let roam_sweep: &[(&'static str, f64)] = if quick { &ROAM_QUICK } else { &ROAM_FULL };
    let sim_secs = if quick { SIM_SECS_QUICK } else { SIM_SECS_FULL };
    let sim = SimDuration::from_secs(sim_secs);

    let mut cells = Vec::new();
    for &aps in ap_sweep {
        for &roam in roam_sweep {
            for cooperative in [true, false] {
                cells.push(run_cell(aps, roam, cooperative, sim, opts.seed));
            }
        }
    }

    // The whole point of cooperation: at city scale the AP tier must
    // absorb strictly more demand than the same grid with gossip and
    // peer fetches turned off.
    for &aps in ap_sweep.iter().filter(|&&a| a >= 64) {
        for &(roam, _) in roam_sweep {
            let coop = find(&cells, aps, roam, true).expect("cell swept");
            let iso = find(&cells, aps, roam, false).expect("cell swept");
            assert!(
                coop.ap_layer_hit_ratio > iso.ap_layer_hit_ratio,
                "cooperative caching must beat isolated at {aps} APs (roam {roam}): \
                 {:.4} vs {:.4}",
                coop.ap_layer_hit_ratio,
                iso.ap_layer_hit_ratio
            );
        }
    }

    let json = render_json(&cells, opts.seed, quick, sim_secs);
    let path = crate::write_artifact("BENCH_scale.json", &json, quick)?;

    let mut out = String::from(
        "City-scale multi-AP sweep: hit ratio and p99 latency vs AP count x roam rate\n\
         (tie ok: fingerprint asserted identical under a tie-perturbation key)\n\n",
    );
    let _ = writeln!(
        out,
        "{:<5} {:>5} {:>5} {:>9} {:>9} {:>9} {:>9} {:>7} {:>10} {:>4} {:>9}",
        "aps",
        "roam",
        "mode",
        "hit",
        "ap-layer",
        "p99 ms",
        "fetches",
        "roams",
        "peer hits",
        "tie",
        "wall ms"
    );
    for c in &cells {
        let _ = writeln!(
            out,
            "{:<5} {:>5} {:>5} {:>8.1}% {:>8.1}% {:>9.2} {:>9} {:>7} {:>10} {:>4} {:>9.1}",
            c.aps,
            c.roam,
            if c.cooperative { "coop" } else { "iso" },
            c.hit_ratio * 100.0,
            c.ap_layer_hit_ratio * 100.0,
            c.p99_ms,
            c.fetches,
            c.roams,
            c.peer_hits,
            if c.aps <= TIE_ASSERT_MAX_APS {
                "ok"
            } else {
                "-"
            },
            c.wall_ms,
        );
    }
    let _ = writeln!(out, "wrote {}", path.display());
    Ok(out)
}
