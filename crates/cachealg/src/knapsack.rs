//! 0/1 knapsack solvers used by PACM's eviction step (the paper's Eq. 2).
//!
//! PACM keeps the subset of cached objects that maximizes total utility
//! subject to the post-insertion capacity. The exact dynamic program runs in
//! `O(items × capacity_units)`; a value-density greedy serves as the
//! fallback for unusually large instances and as an ablation baseline.

/// One candidate object for the keep-set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KnapsackItem {
    /// Size in bytes (`s_d`).
    pub weight: u64,
    /// Utility (`U_d`); must be non-negative and finite.
    pub value: f64,
}

/// Solution of a knapsack instance.
#[derive(Debug, Clone, PartialEq)]
pub struct KnapsackSolution {
    /// `keep[i]` is true when item `i` stays in the cache.
    pub keep: Vec<bool>,
    /// Total utility of the kept set.
    pub total_value: f64,
    /// Total bytes of the kept set.
    pub total_weight: u64,
}

/// Reusable scratch state for [`solve_exact_in`].
///
/// The DP row, the choice matrix and the per-item weight/bound buffers are
/// kept between calls, so after warm-up a solve performs zero heap
/// allocations. The choice matrix is bitset-backed (`Vec<u64>` words, one
/// bit per `(item, capacity)` cell) — 8× smaller than the seed's
/// `Vec<bool>`, which both cuts the clearing cost and keeps more of the
/// backtrack working set in cache.
#[derive(Debug, Default)]
pub struct KnapsackWorkspace {
    /// `dp[w]` = best value with capacity `w` units.
    dp: Vec<f64>,
    /// Bitset choice matrix, `words_per_row` words per item.
    choice: Vec<u64>,
    /// Rounded item weights (units).
    weights: Vec<usize>,
    /// Per-item prefix-weight clamp for the inner loop and backtrack.
    bounds: Vec<usize>,
    /// Keep flags of the most recent solve.
    keep: Vec<bool>,
    /// Buffer-growth events (see [`Self::allocations`]).
    grown: u64,
}

impl KnapsackWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Keep flags left behind by the most recent [`solve_exact_in`] call.
    pub fn keep(&self) -> &[bool] {
        &self.keep
    }

    /// Cumulative count of buffer-growth (reallocation) events. Stays flat
    /// once the workspace has seen its largest instance — `repro bench-evict`
    /// reports the growth after warm-up per cell (`workspace_allocations`).
    pub fn allocations(&self) -> u64 {
        self.grown
    }

    /// Clears and resizes `buf` to `len`, counting capacity growth.
    fn reset<T: Clone>(buf: &mut Vec<T>, len: usize, fill: T, grown: &mut u64) {
        if buf.capacity() < len {
            *grown += 1;
        }
        buf.clear();
        buf.resize(len, fill);
    }
}

/// Exact DP solver.
///
/// `granularity` (bytes per DP unit, e.g. 1024) bounds the table size; item
/// weights are rounded *up* to units so the byte capacity is never exceeded.
///
/// # Panics
///
/// Panics if `granularity` is zero or any value is negative/non-finite.
pub fn solve_exact(items: &[KnapsackItem], capacity: u64, granularity: u64) -> KnapsackSolution {
    let mut ws = KnapsackWorkspace::new();
    solve_exact_in(&mut ws, items, capacity, granularity);
    finish(items, ws.keep.clone())
}

/// Exact DP solver writing into a reusable [`KnapsackWorkspace`].
///
/// Semantically identical to [`solve_exact`] — it computes the same keep
/// set, bit for bit (the `pacm_equivalence` property tests pin this against
/// the frozen seed implementation) — but leaves the keep flags in
/// `ws.keep()` instead of allocating a solution, and reuses the workspace
/// buffers across calls. Returns `(total_value, total_weight)` of the kept
/// set, summed in item order.
///
/// Three exact optimizations over the seed DP:
///
/// * the inner loop and the backtrack are clamped to the running
///   prefix-weight sum (cells above it hold a value plateau the seed never
///   reads back),
/// * the inner loop is also clamped from below to
///   `target − suffix_weight`, where `target = min(units, total_weight)`
///   is where the backtrack starts: the walk position at item `i` is
///   always ≥ `target − suffix_i` (each taken item `j > i` moves it down
///   by exactly `w_j ≤ suffix` — the clamped read position included), so
///   cells below that band are never read back, by the backtrack or by a
///   later item's `dp[w − w_j]` recurrence (`lower_{i−1} = lower_i − w_i`
///   keeps the bands nested). For eviction workloads — store nearly full,
///   capacity slightly reduced — this shrinks the table from
///   `O(n × units)` to `O(n × (total_weight − units))`, and
/// * the choice matrix is a bitset.
///
/// # Panics
///
/// Panics if `granularity` is zero or any value is negative/non-finite.
pub fn solve_exact_in(
    ws: &mut KnapsackWorkspace,
    items: &[KnapsackItem],
    capacity: u64,
    granularity: u64,
) -> (f64, u64) {
    assert!(granularity > 0, "granularity must be positive");
    for it in items {
        assert!(
            it.value.is_finite() && it.value >= 0.0,
            "item values must be non-negative and finite"
        );
    }
    let units = (capacity / granularity) as usize;
    let n = items.len();
    let words_per_row = (units + 1).div_ceil(64);

    let grown = &mut ws.grown;
    KnapsackWorkspace::reset(&mut ws.dp, units + 1, 0.0f64, grown);
    KnapsackWorkspace::reset(&mut ws.choice, n * words_per_row, 0u64, grown);
    KnapsackWorkspace::reset(&mut ws.weights, n, 0usize, grown);
    KnapsackWorkspace::reset(&mut ws.bounds, n, 0usize, grown);
    KnapsackWorkspace::reset(&mut ws.keep, n, false, grown);

    // Rounded weights and the total of the items that can enter the DP at
    // all (the seed skips weights beyond the whole table, so they carry no
    // suffix weight either).
    let mut total = 0usize;
    for (i, item) in items.iter().enumerate() {
        let wi = (item.weight.div_ceil(granularity)) as usize;
        ws.weights[i] = wi;
        if wi <= units {
            total += wi;
        }
    }

    // Forward DP. `prefix` is the clamped sum of processed item weights:
    // in the seed every dp cell above it holds the same value plateau
    // (all processed items fit within `prefix`), so restricting updates to
    // `[wi, prefix]` loses nothing — provided cells entering the range as
    // the prefix grows are first raised to the plateau, which is exactly
    // what the seed would have stored there. `lower` is the suffix clamp
    // described above: the backtrack can only ever read cells in
    // `[target − remaining, prefix]`.
    let target = units.min(total);
    let mut prefix = 0usize;
    let mut remaining = total;
    for (i, item) in items.iter().enumerate() {
        let wi = ws.weights[i];
        if wi > units {
            continue;
        }
        remaining -= wi;
        let lower = target.saturating_sub(remaining);
        let grown_prefix = units.min(prefix.saturating_add(wi));
        let plateau = ws.dp[prefix];
        for w in prefix + 1..=grown_prefix {
            ws.dp[w] = plateau;
        }
        prefix = grown_prefix;
        ws.bounds[i] = prefix;
        let row = i * words_per_row;
        for w in (wi.max(lower)..=prefix).rev() {
            let candidate = ws.dp[w - wi] + item.value;
            if candidate > ws.dp[w] {
                ws.dp[w] = candidate;
                ws.choice[row + (w >> 6)] |= 1u64 << (w & 63);
            }
        }
    }

    // Walk choices backwards to recover the kept set. Clamping the read
    // position to each item's prefix bound reproduces the seed's walk
    // exactly: for any `w` past the bound the seed's decision row is
    // constant, equal to the decision at the bound.
    let mut w = units;
    for i in (0..n).rev() {
        let wi = ws.weights[i];
        if wi > units {
            continue;
        }
        let wc = w.min(ws.bounds[i]);
        if ws.choice[i * words_per_row + (wc >> 6)] >> (wc & 63) & 1 == 1 {
            ws.keep[i] = true;
            w = wc - wi;
        }
    }

    let total_value = items
        .iter()
        .zip(&ws.keep)
        .filter(|(_, &k)| k)
        .map(|(it, _)| it.value)
        .sum();
    let total_weight = items
        .iter()
        .zip(&ws.keep)
        .filter(|(_, &k)| k)
        .map(|(it, _)| it.weight)
        .sum();
    (total_value, total_weight)
}

/// Greedy value-density solver (higher `value/weight` first).
///
/// Provides a fast approximation and the ablation point for
/// "knapsack-DP vs greedy" in `DESIGN.md`. Equal-density items order by
/// ascending input index — explicitly, not as a stable-sort accident — so
/// the ablation baseline is deterministic by construction.
pub fn solve_greedy(items: &[KnapsackItem], capacity: u64) -> KnapsackSolution {
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by(|&a, &b| {
        let da = density(&items[a]);
        let db = density(&items[b]);
        db.partial_cmp(&da)
            .expect("finite densities")
            .then(a.cmp(&b))
    });
    let mut keep = vec![false; items.len()];
    let mut used = 0u64;
    for i in order {
        if used + items[i].weight <= capacity {
            keep[i] = true;
            used += items[i].weight;
        }
    }
    finish(items, keep)
}

/// Exhaustive solver for testing (`2^n`; items must be few).
///
/// # Panics
///
/// Panics for more than 20 items.
pub fn solve_brute_force(items: &[KnapsackItem], capacity: u64) -> KnapsackSolution {
    assert!(items.len() <= 20, "brute force limited to 20 items");
    let mut best_mask = 0usize;
    let mut best_value = -1.0;
    for mask in 0..(1usize << items.len()) {
        let mut weight = 0u64;
        let mut value = 0.0;
        for (i, item) in items.iter().enumerate() {
            if mask & (1 << i) != 0 {
                weight += item.weight;
                value += item.value;
            }
        }
        if weight <= capacity && value > best_value {
            best_value = value;
            best_mask = mask;
        }
    }
    let keep: Vec<bool> = (0..items.len())
        .map(|i| best_mask & (1 << i) != 0)
        .collect();
    finish(items, keep)
}

fn density(item: &KnapsackItem) -> f64 {
    item.value / item.weight.max(1) as f64
}

fn finish(items: &[KnapsackItem], keep: Vec<bool>) -> KnapsackSolution {
    let total_value = items
        .iter()
        .zip(&keep)
        .filter(|(_, &k)| k)
        .map(|(it, _)| it.value)
        .sum();
    let total_weight = items
        .iter()
        .zip(&keep)
        .filter(|(_, &k)| k)
        .map(|(it, _)| it.weight)
        .sum();
    KnapsackSolution {
        keep,
        total_value,
        total_weight,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(weight: u64, value: f64) -> KnapsackItem {
        KnapsackItem { weight, value }
    }

    #[test]
    fn exact_finds_optimum_on_classic_instance() {
        // Classic: capacity 10, optimal is items 1+2 (values 10+7).
        let items = [item(6, 10.0), item(4, 7.0), item(5, 8.0), item(3, 4.0)];
        let sol = solve_exact(&items, 10, 1);
        assert_eq!(sol.keep, vec![true, true, false, false]);
        assert_eq!(sol.total_value, 17.0);
        assert_eq!(sol.total_weight, 10);
    }

    #[test]
    fn exact_matches_brute_force_on_many_instances() {
        // Deterministic pseudo-random instances.
        let mut state = 12345u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for _ in 0..50 {
            let n = (next() % 10 + 2) as usize;
            let items: Vec<KnapsackItem> = (0..n)
                .map(|_| item(next() % 50 + 1, (next() % 100) as f64))
                .collect();
            let capacity = next() % 120 + 10;
            let exact = solve_exact(&items, capacity, 1);
            let brute = solve_brute_force(&items, capacity);
            assert!(
                (exact.total_value - brute.total_value).abs() < 1e-9,
                "exact {} != brute {} on {items:?} cap {capacity}",
                exact.total_value,
                brute.total_value
            );
            assert!(exact.total_weight <= capacity);
        }
    }

    #[test]
    fn exact_matches_brute_force_with_coarse_granularity() {
        // Cross-check `solve_exact` at granularity > 1 on random instances.
        // The DP solves the *rounded* instance (weights rounded up to
        // granularity units) exactly, so it must (a) never exceed the byte
        // capacity, (b) never beat the true byte-resolution optimum, and
        // (c) exactly match a brute-force solve of the rounded instance.
        let mut state = 987654321u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for granularity in [7u64, 64, 1000] {
            for _ in 0..25 {
                let n = (next() % 9 + 2) as usize;
                let items: Vec<KnapsackItem> = (0..n)
                    .map(|_| item(next() % 5000 + 1, (next() % 100) as f64))
                    .collect();
                let capacity = next() % 12_000 + 500;
                let exact = solve_exact(&items, capacity, granularity);

                assert!(
                    exact.total_weight <= capacity,
                    "capacity exceeded: {} > {capacity} (granularity {granularity})",
                    exact.total_weight
                );

                let brute_bytes = solve_brute_force(&items, capacity);
                assert!(
                    exact.total_value <= brute_bytes.total_value + 1e-9,
                    "coarse DP {} beat byte-optimal {} on {items:?}",
                    exact.total_value,
                    brute_bytes.total_value
                );

                let rounded: Vec<KnapsackItem> = items
                    .iter()
                    .map(|it| item(it.weight.div_ceil(granularity) * granularity, it.value))
                    .collect();
                let brute_rounded =
                    solve_brute_force(&rounded, (capacity / granularity) * granularity);
                assert!(
                    (exact.total_value - brute_rounded.total_value).abs() < 1e-9,
                    "DP {} != rounded-instance optimum {} on {items:?} \
                     cap {capacity} granularity {granularity}",
                    exact.total_value,
                    brute_rounded.total_value
                );
            }
        }
    }

    #[test]
    fn granularity_rounds_weights_up() {
        // Item of 1001 bytes at granularity 1000 occupies 2 units; with
        // capacity 1999 (1 unit) it cannot fit.
        let items = [item(1001, 5.0)];
        let sol = solve_exact(&items, 1999, 1000);
        assert_eq!(sol.keep, vec![false]);
        // With capacity 2000 (2 units) it fits.
        let sol = solve_exact(&items, 2000, 1000);
        assert_eq!(sol.keep, vec![true]);
    }

    #[test]
    fn capacity_never_exceeded_with_granularity() {
        let items = [item(900, 1.0), item(900, 1.0), item(900, 1.0)];
        let sol = solve_exact(&items, 2000, 1024);
        assert!(sol.total_weight <= 2000, "weight {}", sol.total_weight);
    }

    #[test]
    fn zero_capacity_keeps_nothing() {
        let items = [item(1, 100.0)];
        let sol = solve_exact(&items, 0, 1);
        assert_eq!(sol.keep, vec![false]);
        assert_eq!(sol.total_value, 0.0);
    }

    #[test]
    fn empty_items_are_fine() {
        let sol = solve_exact(&[], 100, 1);
        assert!(sol.keep.is_empty());
        let sol = solve_greedy(&[], 100);
        assert!(sol.keep.is_empty());
    }

    #[test]
    fn greedy_respects_capacity_and_is_reasonable() {
        let items = [item(6, 10.0), item(4, 7.0), item(5, 8.0), item(3, 4.0)];
        let sol = solve_greedy(&items, 10);
        assert!(sol.total_weight <= 10);
        // Greedy by density picks 4/7.0 (1.75) then 6/10.0 (1.67) = 17.
        assert_eq!(sol.total_value, 17.0);
    }

    #[test]
    fn greedy_never_beats_exact() {
        let items = [item(5, 5.0), item(5, 5.0), item(9, 9.5)];
        let exact = solve_exact(&items, 10, 1);
        let greedy = solve_greedy(&items, 10);
        assert!(greedy.total_value <= exact.total_value + 1e-9);
    }

    #[test]
    #[should_panic(expected = "granularity")]
    fn zero_granularity_rejected() {
        let _ = solve_exact(&[], 10, 0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_values_rejected() {
        let _ = solve_exact(&[item(1, -1.0)], 10, 1);
    }

    #[test]
    fn greedy_breaks_density_ties_by_index() {
        // Four items with identical density; only the first two fit.
        let items = [item(5, 5.0), item(5, 5.0), item(5, 5.0), item(5, 5.0)];
        let sol = solve_greedy(&items, 10);
        assert_eq!(sol.keep, vec![true, true, false, false]);
        // Zero-weight/zero-value corner: density ties at 0 resolve by index.
        let items = [item(0, 0.0), item(0, 0.0)];
        let sol = solve_greedy(&items, 0);
        assert_eq!(sol.keep, vec![true, true]);
    }

    #[test]
    fn workspace_reuse_allocates_once() {
        let mut ws = KnapsackWorkspace::new();
        let big = items_random(64, 1);
        solve_exact_in(&mut ws, &big, 50_000, 64);
        let grown = ws.allocations();
        assert!(grown > 0);
        // Same-or-smaller instances must not grow any buffer again.
        for seed in 2..10 {
            let next = items_random(64, seed);
            solve_exact_in(&mut ws, &next, 50_000, 64);
            let small = items_random(8, seed);
            solve_exact_in(&mut ws, &small, 9_000, 64);
        }
        assert_eq!(
            ws.allocations(),
            grown,
            "workspace reallocated after warm-up"
        );
    }

    #[test]
    fn workspace_totals_match_solution() {
        let items = items_random(40, 3);
        let mut ws = KnapsackWorkspace::new();
        let (value, weight) = solve_exact_in(&mut ws, &items, 60_000, 128);
        let sol = solve_exact(&items, 60_000, 128);
        assert_eq!(ws.keep(), sol.keep.as_slice());
        assert_eq!(value, sol.total_value);
        assert_eq!(weight, sol.total_weight);
    }

    #[test]
    fn workspace_matches_brute_force_with_granularity() {
        let mut state = 55u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut ws = KnapsackWorkspace::new();
        for granularity in [1u64, 7, 250] {
            for _ in 0..25 {
                let n = (next() % 10 + 1) as usize;
                let items: Vec<KnapsackItem> = (0..n)
                    .map(|_| item(next() % 4000 + 1, (next() % 50) as f64))
                    .collect();
                let capacity = next() % 9_000 + 100;
                let (value, weight) = solve_exact_in(&mut ws, &items, capacity, granularity);
                assert!(weight <= capacity);
                let rounded: Vec<KnapsackItem> = items
                    .iter()
                    .map(|it| item(it.weight.div_ceil(granularity) * granularity, it.value))
                    .collect();
                let brute = solve_brute_force(&rounded, (capacity / granularity) * granularity);
                assert!(
                    (value - brute.total_value).abs() < 1e-9,
                    "workspace DP {value} != rounded optimum {} on {items:?} \
                     cap {capacity} granularity {granularity}",
                    brute.total_value
                );
            }
        }
    }

    #[test]
    fn suffix_clamp_matches_seed_dp_in_both_regimes() {
        // Eviction-shaped (total weight ≫ capacity, the band is narrow)
        // and everything-fits (total weight < capacity, the backtrack
        // starts below the table top): both must reproduce the seed DP
        // bit for bit.
        let mut ws = KnapsackWorkspace::new();
        for (n, cap) in [(120usize, 3_000u64), (60, 500_000)] {
            let items = items_random(n, 77);
            let (value, _) = solve_exact_in(&mut ws, &items, cap, 64);
            let seed = crate::reference::solve_exact_seed(&items, cap, 64);
            assert_eq!(ws.keep(), seed.keep.as_slice(), "n={n} cap={cap}");
            assert_eq!(value.to_bits(), seed.total_value.to_bits());
        }
    }

    fn items_random(n: usize, seed: u64) -> Vec<KnapsackItem> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        (0..n)
            .map(|_| item(next() % 3000 + 1, (next() % 1000) as f64 / 8.0))
            .collect()
    }
}
