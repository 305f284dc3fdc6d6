//! `repro bench-scale` — city-scale multi-AP topology sweep.
//!
//! Sweeps AP grids {1, 16, 64, 256} × client roam rates {none, low, high}
//! × {cooperative, isolated} caching, reporting per cell the
//! client-observed hit ratio, the AP-layer aggregate hit ratio (home hits
//! plus peer hits over all cacheable demand — the fraction of traffic the
//! AP tier absorbs before the edge), and p99 app latency.
//!
//! Every cell of up to [`TIE_ASSERT_MAX_APS`] APs is run twice — FIFO
//! tie-breaks and under a tie-break-perturbation key — and the two
//! [`Fingerprint`](ape_simnet::Fingerprint)s are asserted identical before
//! the cell is reported, so no number there hangs on an accident of
//! same-nanosecond scheduling order. Larger grids skip the pass: the
//! `World` draws all randomness from one stream, so two RNG-drawing
//! callbacks on *any* two nodes that land on one nanosecond are
//! order-sensitive, and at 64+ APs a run has enough events for that to
//! happen (`DESIGN.md` §16).
//!
//! The sweep asserts what its document claims before anything is written:
//! per cell, ratios that are fractions, a workload that ran, no peer hits
//! without cooperation and roams exactly where the rate is nonzero on a
//! multi-AP grid; across cells, cooperative beating isolated on AP-layer
//! hit ratio at 64+ APs. The matrix is complete by construction (three
//! nested loops over the constants below). `BENCH_scale.json` (repo root)
//! is a pure function of `--seed` — the `committed_outputs` test
//! regenerates it and compares bytes; the per-cell wall-clock goes to
//! stdout only.

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

/// AP-grid sizes swept.
const AP_SWEEP: [usize; 4] = [1, 16, 64, 256];

/// Roam rates swept (label, roams per client per minute).
const ROAM_SWEEP: [(&str, f64); 3] = [("none", 0.0), ("low", 1.0), ("high", 6.0)];

/// Clients homed at each AP.
const CLIENTS_PER_AP: usize = 2;

/// Simulated span: at least two 60 s summary windows, so neighbor gossip
/// has rolled and peer fetches carry real traffic.
const SIM_SECS: u64 = 180;

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
    /// Wall-clock of the measured (FIFO) run (stdout only).
    wall_ms: f64,
}

fn cell_config(aps: usize, roam_per_minute: f64, cooperative: bool, seed: u64) -> TopologyConfig {
    let suite = synthetic_suite(5, &DummyAppConfig::default(), seed);
    let mut base = TestbedConfig::new(System::ApeCache, suite);
    base.schedule = ScheduleConfig {
        apps: 5,
        avg_per_minute: 10.0,
        zipf_exponent: 0.8,
        duration: SimDuration::from_secs(SIM_SECS),
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
fn run_cell(aps: usize, roam: (&'static str, f64), cooperative: bool, seed: u64) -> Cell {
    let config = cell_config(aps, roam.1, cooperative, seed);
    let sim = SimDuration::from_secs(SIM_SECS);

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
    let ap_layer_hit_ratio = if demand > 0 {
        (home_hits + peer_hits) as f64 / demand as f64
    } else {
        0.0
    };
    let fetches = result.metrics.counter(names::CLIENT_FETCHES);
    assert!(
        summary.executions > 0 && fetches > 0 && summary.app_latency_p99_ms > 0.0,
        "{label}: workload must actually run"
    );
    for ratio in [summary.hit_ratio, ap_layer_hit_ratio] {
        assert!(
            (0.0..=1.0).contains(&ratio),
            "{label}: {ratio} is not a fraction"
        );
    }
    assert!(
        cooperative || peer_hits == 0,
        "{label}: {peer_hits} peer hits without cooperation"
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
        ap_layer_hit_ratio,
        p99_ms: summary.app_latency_p99_ms,
        fetches,
        roams,
        peer_hits,
        wall_ms,
    }
}

/// Runs every cell, then asserts the whole point of cooperation: at city
/// scale the AP tier must absorb strictly more demand than the same grid
/// with gossip and peer fetches turned off.
fn sweep(seed: u64) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &aps in &AP_SWEEP {
        for &roam in &ROAM_SWEEP {
            for cooperative in [true, false] {
                cells.push(run_cell(aps, roam, cooperative, seed));
            }
        }
    }
    // Cells come in (cooperative, isolated) pairs.
    for pair in cells.chunks(2).filter(|pair| pair[0].aps >= 64) {
        let (coop, iso) = (&pair[0], &pair[1]);
        assert!(
            coop.ap_layer_hit_ratio > iso.ap_layer_hit_ratio,
            "cooperative caching must beat isolated at {} APs (roam {}): {:.4} vs {:.4}",
            coop.aps,
            coop.roam,
            coop.ap_layer_hit_ratio,
            iso.ap_layer_hit_ratio
        );
    }
    cells
}

fn render_json(cells: &[Cell], seed: u64) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"ape-bench/scale/v1\",");
    let _ = writeln!(out, "  \"seed\": {seed},");
    let _ = writeln!(out, "  \"sim_seconds\": {SIM_SECS},");
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
             \"p99_ms\": {:.3}, \"fetches\": {}, \"roams\": {}, \"peer_hits\": {}",
            c.aps,
            c.roam,
            c.roam_per_minute,
            c.cooperative,
            c.hit_ratio,
            c.ap_layer_hit_ratio,
            c.p99_ms,
            c.fetches,
            c.roams,
            c.peer_hits
        );
        if c.aps <= TIE_ASSERT_MAX_APS {
            out.push_str(", \"tie_invariant\": true");
        }
        out.push_str(if i + 1 < cells.len() { "},\n" } else { "}\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// The `BENCH_scale.json` document a sweep at `seed` writes: a function of
/// `seed` alone.
pub fn scale_document(seed: u64) -> String {
    render_json(&sweep(seed), seed)
}

/// Runs the city-scale multi-AP sweep and returns a human-readable
/// summary. Writes `BENCH_scale.json` at the repo root; an artifact that
/// cannot be written is the `Err`.
pub fn bench_scale(opts: &ReproOptions) -> std::io::Result<String> {
    let cells = sweep(opts.seed);
    let json = render_json(&cells, opts.seed);
    let path = crate::write_artifact("BENCH_scale.json", &json)?;

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
