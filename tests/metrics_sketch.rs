//! Sketch-histogram property suite: [`ape_simnet::Histogram`] must track
//! the frozen sample-hoarding seed
//! ([`ape_simnet::reference::ExactHistogram`]), recorded side by side, to
//! within 1% relative quantile error on every distribution shape the
//! testbed produces. That the metrics plane leaves a run bitwise
//! tie-break invariant is `tests/determinism_perturbation.rs`.
//!
//! Errors are measured against `max(|exact|, 1/1024)`, so near-zero
//! quantiles (inside the sketch's linear range) are compared absolutely
//! at bucket resolution.

use ape_check::check;
use ape_simnet::reference::ExactHistogram;
use ape_simnet::{Histogram, SimRng};

/// Quantiles every distribution test checks.
const CHECK_QUANTILES: [f64; 4] = [0.5, 0.9, 0.99, 0.999];

/// Relative-error budget: the sketch's log buckets are 1/128 wide, so 1%
/// leaves slack for the nearest-rank vs midpoint estimator mismatch.
const REL_TOL: f64 = 0.01 + 1e-9;

/// Records `stream` into both engines and asserts every checked quantile
/// agrees to within [`REL_TOL`]; returns the worst error for reporting.
fn assert_tracks_exact(stream: &[f64], label: &str) -> f64 {
    let mut sketch = Histogram::new();
    let mut exact = ExactHistogram::new();
    for &v in stream {
        sketch.record(v);
        exact.record(v);
    }
    assert_eq!(sketch.count(), exact.count(), "{label}: counts diverged");
    let mut worst = 0.0f64;
    for q in CHECK_QUANTILES {
        let s = sketch.quantile(q);
        let e = exact.quantile(q);
        let rel = (s - e).abs() / e.abs().max(1.0 / 1024.0);
        assert!(
            rel <= REL_TOL,
            "{label}: sketch q={q} was {s}, exact {e} (rel err {rel:.5})"
        );
        worst = worst.max(rel);
    }
    worst
}

/// Uniform randomized stream over a seed-dependent range.
#[test]
fn sketch_tracks_exact_on_randomized_uniform_streams() {
    for seed in 0..8u64 {
        let mut rng = SimRng::seed_from(0x5EED_0001 ^ seed);
        let hi = rng.uniform_f64(1.0, 500.0);
        let stream: Vec<f64> = (0..20_000).map(|_| rng.uniform_f64(0.0, hi)).collect();
        assert_tracks_exact(&stream, &format!("uniform seed {seed}"));
    }
}

/// Heavy-tail exponential: the regime where log buckets earn their keep.
#[test]
fn sketch_tracks_exact_on_heavy_tail_streams() {
    for seed in 0..8u64 {
        let mut rng = SimRng::seed_from(0x5EED_0002 ^ seed);
        let mean = rng.uniform_f64(5.0, 250.0);
        let stream: Vec<f64> = (0..20_000).map(|_| rng.exponential(mean)).collect();
        assert_tracks_exact(&stream, &format!("exponential seed {seed}"));
    }
}

/// Bimodal: sub-millisecond WiFi hits plus a ~15 ms edge mode, the shape
/// the testbed's app-latency histograms actually take.
#[test]
fn sketch_tracks_exact_on_bimodal_streams() {
    for seed in 0..8u64 {
        let mut rng = SimRng::seed_from(0x5EED_0003 ^ seed);
        let stream: Vec<f64> = (0..20_000)
            .map(|_| {
                if rng.chance(0.6) {
                    rng.uniform_f64(0.05, 0.9)
                } else {
                    rng.normal(15.0, 2.5).abs()
                }
            })
            .collect();
        assert_tracks_exact(&stream, &format!("bimodal seed {seed}"));
    }
}

/// Near-zero values land in the linear sub-millisecond range, where the
/// sketch's guarantee is *absolute*: quantiles resolve to the 1/1024
/// bucket grid, so the error budget is one bucket width rather than 1%
/// relative (1% of a 10 µs quantile would demand sub-bucket resolution
/// no fixed-memory layout provides).
#[test]
fn sketch_tracks_exact_on_near_zero_streams() {
    for seed in 0..8u64 {
        let mut rng = SimRng::seed_from(0x5EED_0004 ^ seed);
        let stream: Vec<f64> = (0..20_000).map(|_| rng.uniform_f64(0.0, 0.02)).collect();
        let mut sketch = Histogram::new();
        let mut exact = ExactHistogram::new();
        for &v in &stream {
            sketch.record(v);
            exact.record(v);
        }
        for q in CHECK_QUANTILES {
            let s = sketch.quantile(q);
            let e = exact.quantile(q);
            assert!(
                (s - e).abs() <= 1.0 / 1024.0 + 1e-12,
                "near-zero seed {seed}: sketch q={q} was {s}, exact {e}"
            );
        }
    }
}

/// Arbitrary three-regime mixtures stay inside the error budget: the
/// per-regime scales and the stream length are all case-randomized.
#[test]
fn sketch_tracks_exact_on_random_mixtures() {
    check("sketch_tracks_exact_on_random_mixtures", 16, |g| {
        let mut rng = SimRng::seed_from(g.u64());
        let n = g.range(2_000usize..12_000);
        let edge_mean = rng.uniform_f64(2.0, 60.0);
        let tail_mean = rng.uniform_f64(20.0, 400.0);
        let stream: Vec<f64> = (0..n)
            .map(|_| match rng.uniform_u64(0, 10) {
                0..=5 => rng.uniform_f64(0.01, 0.9),
                6..=8 => rng.normal(edge_mean, edge_mean / 6.0).abs(),
                _ => rng.exponential(tail_mean),
            })
            .collect();
        let worst = assert_tracks_exact(&stream, "random mixture");
        assert!(worst <= REL_TOL);
    });
}
