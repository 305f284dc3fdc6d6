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
/// Every buffer is kept between calls and only ever grows, so after
/// warm-up a solve performs zero heap allocations. The DP rows and choice
/// matrix follow the instance's overflow, not its capacity.
#[derive(Debug, Default)]
pub struct KnapsackWorkspace {
    /// DP row before the current item, band-relative.
    prev: Vec<f64>,
    /// DP row being written for the current item, band-relative.
    next: Vec<f64>,
    /// Choice matrix: `overflow + 1` cells per item, one byte each.
    choice: Vec<u8>,
    /// Rounded item weights (units).
    weights: Vec<usize>,
    /// Per-item band `[lower_i, prefix_i]` in absolute capacity units.
    bands: Vec<(usize, usize)>,
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

    /// Grows `buf` to at least `len` cells, counting capacity growth. Old
    /// contents stay: every solve writes each cell before reading it.
    fn ensure<T: Clone + Default>(buf: &mut Vec<T>, len: usize, grown: &mut u64) {
        if buf.len() < len {
            *grown += u64::from(buf.capacity() < len);
            buf.resize(len, T::default());
        }
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
/// Computes the keep set of the frozen seed DP ([`crate::reference`]) bit
/// for bit (`pacm_equivalence` pins this), leaves the flags in `ws.keep()`
/// and returns the kept set's `(total_value, total_weight)`.
///
/// The seed keeps `dp[0..=units]`, sets `dp[w] = dp[w − w_i] + v_i` where
/// that is strictly greater, for every `w ≥ w_i`, and walks the choices
/// back from `w = units`. Over the items that fit the table (`w_i ≤
/// units`) let `total = Σ w_i`, `target = min(units, total)` and
/// `overflow = total − target`. Row `i` matters only inside a band:
///
/// * above `prefix_i = min(units, Σ_{j≤i} w_j)` it is a plateau equal to
///   the cell at `prefix_i` (all processed items fit), so the walk clamps
///   its read position to `prefix_i`;
/// * below `lower_i = max(0, target − Σ_{j>i} w_j)` nothing is read back:
///   each taken item `j > i` moves the walk down by exactly `w_j`, and
///   item `i`'s `dp[w − w_i]` read from `w ≥ max(w_i, lower_i)` lands at
///   ≥ `max(0, lower_i − w_i) = lower_{i−1}`.
///
/// `prefix_i − lower_i ≤ overflow`, so a row is stored as the
/// `overflow + 1` cells from `lower_i` up, indexed by `j = w − lower_i`.
/// With `s = lower_i − lower_{i−1}` (`0 ≤ s ≤ w_i`) and `k = w_i − s`:
///
/// ```text
/// old(j)  = prev[min(j + s, prev_len − 1)]      (the clamp is the plateau)
/// next[j] = if j ≥ k && prev[j − k] + v > old(j) { prev[j − k] + v } else { old(j) }
/// ```
///
/// — the seed's operand pair, strict `>` and item order, so each cell holds
/// the seed's bits and the walk (entry `min(w, prefix_i) − lower_i`) finds
/// the seed's keep set, in `O(n × overflow)` instead of `O(n × units)`; for
/// an eviction, `overflow` is about the incoming object's size in units.
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

    // Rounded weights and the total of the items that can enter the DP at
    // all (the seed skips weights beyond the whole table, so they carry no
    // suffix weight either).
    let grown = &mut ws.grown;
    KnapsackWorkspace::ensure(&mut ws.weights, n, grown);
    let mut total = 0usize;
    for (wi, item) in ws.weights.iter_mut().zip(items) {
        *wi = item.weight.div_ceil(granularity) as usize;
        if *wi <= units {
            total += *wi;
        }
    }
    let target = units.min(total);
    let width = total - target + 1;

    KnapsackWorkspace::ensure(&mut ws.prev, width, grown);
    KnapsackWorkspace::ensure(&mut ws.next, width, grown);
    KnapsackWorkspace::ensure(&mut ws.choice, n * width, grown);
    KnapsackWorkspace::ensure(&mut ws.bands, n, grown);
    KnapsackWorkspace::ensure(&mut ws.keep, n, grown);
    ws.keep.truncate(n);
    ws.keep.fill(false);

    // Forward pass. Before any item the band is the single cell `dp[0]`.
    ws.prev[0] = 0.0;
    let (mut lower, mut prefix) = (0usize, 0usize);
    let mut remaining = total;
    for (i, item) in items.iter().enumerate() {
        let wi = ws.weights[i];
        if wi > units {
            continue;
        }
        remaining -= wi;
        let prev_len = prefix - lower + 1;
        let s = target.saturating_sub(remaining) - lower;
        lower += s;
        prefix = units.min(prefix + wi);
        ws.bands[i] = (lower, prefix);
        let len = prefix - lower + 1;
        let prev = &ws.prev[..prev_len];
        let next = &mut ws.next[..len];
        let choice = &mut ws.choice[i * width..][..len];
        let plateau = prev[prev_len - 1];
        // Cells `[0, k)` lie below `w_i` and cannot take the item; cells
        // `[0, inside)` still have their old value inside `prev` (`olds`),
        // the rest read the plateau.
        let k = (wi - s).min(len);
        let olds = &prev[s.min(prev_len)..];
        let inside = olds.len().min(len);
        let copied = k.min(inside);
        next[..copied].copy_from_slice(&olds[..copied]);
        next[copied..k].fill(plateau);
        choice[..k].fill(0);
        let both = k.max(inside);
        let v = item.value;
        for (((cell, c), &below), &old) in next[k..both]
            .iter_mut()
            .zip(&mut choice[k..both])
            .zip(&prev[..both - k])
            .zip(&olds[copied..inside])
        {
            let candidate = below + v;
            let take = candidate > old;
            *cell = if take { candidate } else { old };
            *c = take as u8;
        }
        for ((cell, c), &below) in next[both..]
            .iter_mut()
            .zip(&mut choice[both..])
            .zip(&prev[both - k..len - k])
        {
            let candidate = below + v;
            let take = candidate > plateau;
            *cell = if take { candidate } else { plateau };
            *c = take as u8;
        }
        std::mem::swap(&mut ws.prev, &mut ws.next);
    }

    // Walk choices backwards to recover the kept set, the read position
    // clamped to each item's band top (the plateau argument above).
    let mut w = units;
    for i in (0..n).rev() {
        let wi = ws.weights[i];
        if wi > units {
            continue;
        }
        let (lower, prefix) = ws.bands[i];
        let wc = w.min(prefix);
        if ws.choice[i * width + (wc - lower)] != 0 {
            ws.keep[i] = true;
            w = wc - wi;
        }
    }

    totals(items, &ws.keep)
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

/// `(total_value, total_weight)` of the kept items, summed in item order.
fn totals(items: &[KnapsackItem], keep: &[bool]) -> (f64, u64) {
    let kept = || items.iter().zip(keep).filter(|(_, &k)| k);
    (
        kept().map(|(it, _)| it.value).sum(),
        kept().map(|(it, _)| it.weight).sum(),
    )
}

fn finish(items: &[KnapsackItem], keep: Vec<bool>) -> KnapsackSolution {
    let (total_value, total_weight) = totals(items, &keep);
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
        // Buffer sizes follow `n` and the overflow `total − capacity`, so a
        // smaller capacity can need a *wider* table. What holds: once every
        // instance of a set has been solved, re-solving any of them, in any
        // order, grows nothing.
        let instances: Vec<(Vec<KnapsackItem>, u64)> = (1..10)
            .flat_map(|seed| {
                [
                    (items_random(64, seed), 50_000),
                    (items_random(64, seed), 20_000),
                    (items_random(8, seed), 9_000),
                ]
            })
            .collect();
        let mut ws = KnapsackWorkspace::new();
        for (items, capacity) in &instances {
            solve_exact_in(&mut ws, items, *capacity, 64);
        }
        let grown = ws.allocations();
        assert!(grown > 0);
        for (items, capacity) in instances.iter().rev().chain(&instances) {
            solve_exact_in(&mut ws, items, *capacity, 64);
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

    /// Solves in `ws` and pins keep flags and totals to the frozen seed DP.
    fn assert_matches_seed(
        ws: &mut KnapsackWorkspace,
        items: &[KnapsackItem],
        capacity: u64,
        granularity: u64,
        case: &str,
    ) {
        let (value, weight) = solve_exact_in(ws, items, capacity, granularity);
        let seed = crate::reference::solve_exact_seed(items, capacity, granularity);
        assert_eq!(ws.keep(), seed.keep.as_slice(), "{case}: keep flags");
        assert_eq!(
            value.to_bits(),
            seed.total_value.to_bits(),
            "{case}: total value"
        );
        assert_eq!(weight, seed.total_weight, "{case}: total weight");
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
            assert_matches_seed(&mut ws, &items, cap, 64, &format!("n={n} cap={cap}"));
        }
    }

    #[test]
    fn band_edges_match_seed_dp() {
        // One workspace across all cases, so stale cells from a wider
        // earlier solve sit in every buffer a later one uses.
        let mut ws = KnapsackWorkspace::new();
        let cases: [(&str, Vec<KnapsackItem>, u64, u64); 9] = [
            (
                "zero-size items",
                vec![item(0, 5.0), item(3, 2.0), item(0, 0.0), item(4, 7.0)],
                5,
                1,
            ),
            (
                "items wider than the table",
                vec![item(100, 9.0), item(3, 1.0), item(50, 2.0), item(4, 3.0)],
                6,
                1,
            ),
            (
                "everything fits (overflow 0)",
                vec![item(3, 1.0), item(4, 2.0), item(1, 0.5)],
                100,
                1,
            ),
            (
                "units = 0",
                vec![item(0, 1.0), item(1, 2.0), item(0, 3.0)],
                0,
                1,
            ),
            (
                "capacity below one unit",
                vec![item(0, 1.0), item(7, 2.0)],
                5,
                10,
            ),
            ("equal-value ties, equal items", vec![item(2, 1.0); 6], 7, 1),
            (
                "equal-value ties, different subsets",
                vec![item(2, 2.0), item(1, 1.0), item(1, 1.0), item(3, 3.0)],
                3,
                1,
            ),
            (
                "float absorption",
                vec![
                    item(1, 1e300),
                    item(1, 1e-300),
                    item(1, 1e-300),
                    item(1, 1e300),
                    item(1, 1e-300),
                ],
                4,
                1,
            ),
            (
                // Half the weight fits: the early rows sit on the table
                // floor (`lower_i = 0`), the late rows under its ceiling
                // (`prefix_i = units`), the middle rows touch both.
                "saturated early rows and clamped late rows",
                items_random(30, 5),
                22_000,
                64,
            ),
        ];
        for (case, items, capacity, granularity) in &cases {
            assert_matches_seed(&mut ws, items, *capacity, *granularity, case);
        }

        // Band widths either side of 64 cells, and well past 128.
        let items = items_random(40, 9);
        let total: u64 = items.iter().map(|it| it.weight).sum();
        for overflow in [1u64, 63, 64, 65, 129, 1_000] {
            let case = format!("overflow {overflow}");
            assert_matches_seed(&mut ws, &items, total - overflow, 1, &case);
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
