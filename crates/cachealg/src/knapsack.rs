//! The 0/1 knapsack solver of PACM's eviction step (the paper's Eq. 2).
//!
//! PACM keeps the subset of cached objects that maximizes total utility
//! subject to the post-insertion capacity. [`solve_exact_in`] is the
//! seed's exact dynamic program over the whole table, in `O(items ×
//! units)` time and choice bytes. [`solve_in`] is what PACM calls: it
//! first searches for the cheapest set of items to evict (a cover of the
//! overflow) and returns that set's complement when no other cover comes
//! within a float-error margin of it — then the DP would return exactly
//! those keep flags — and falls back to the DP otherwise. The tests hold
//! both to an exhaustive search.

/// One candidate object for the keep-set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KnapsackItem {
    /// Size in bytes (`s_d`).
    pub weight: u64,
    /// Utility (`U_d`); must be non-negative and finite.
    pub value: f64,
}

/// What [`solve_in`] decided, and which path decided it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Solved {
    /// Total utility of the kept set.
    pub total_value: f64,
    /// Total bytes of the kept set.
    pub total_weight: u64,
    /// True when the certified cover search decided; false when the DP ran.
    pub certified: bool,
}

/// Reusable scratch state for [`solve_in`] and [`solve_exact_in`].
///
/// Every buffer is kept between calls and only ever grows, so after
/// warm-up a solve performs zero heap allocations. The DP row and choice
/// matrix follow the instance's capacity in units; the search buffers
/// follow the item count.
#[derive(Debug, Default)]
pub struct KnapsackWorkspace {
    /// Sort keys of the search items, in item order: each density's bits
    /// above the item's index.
    keys: Vec<u128>,
    /// The same keys grouped by bucket ([`Self::bucket_keys`]), each
    /// bucket unsorted until the search reaches it; `[..order.len()]` is
    /// sorted.
    bucketed: Vec<u128>,
    /// Bucket `b` ends at `bucketed[ends[b]]`, and starts where `b − 1`
    /// ends.
    ends: Vec<u32>,
    /// The first bucket not yet sorted into `order`.
    next_bucket: usize,
    /// The search items of the sorted keys, cheapest density first.
    order: Vec<Dense>,
    /// Prefix sums over `order`: exact units, and values.
    prefix_units: Vec<usize>,
    prefix_value: Vec<f64>,
    /// Depth-first search stack.
    stack: Vec<Node>,
    /// `order` positions evicted on the current search path.
    path: Vec<u32>,
    /// `order` positions of the cheapest cover found.
    cover: Vec<u32>,
    /// DP row: the best value at each capacity `0..=units` over the items
    /// so far.
    row: Vec<f64>,
    /// The row being written for the current item, then swapped in.
    next: Vec<f64>,
    /// Choice matrix: `units + 1` cells per item, one byte each.
    choice: Vec<u8>,
    /// The loaded instance: the table's capacity in units, item values
    /// and weights rounded up to units.
    table: usize,
    values: Vec<f64>,
    weights: Vec<usize>,
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

    /// Keep flags left behind by the most recent solve.
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

    /// Empties `buf` and makes room for `len` pushes, counting growth.
    fn reserve<T>(buf: &mut Vec<T>, len: usize, grown: &mut u64) {
        buf.clear();
        if buf.capacity() < len {
            *grown += 1;
            buf.reserve(len);
        }
    }

    /// Starts loading an instance of at most `len` items into a table of
    /// `units` capacity units.
    pub(crate) fn clear_items(&mut self, len: usize, units: usize) {
        Self::reserve(&mut self.values, len, &mut self.grown);
        Self::reserve(&mut self.weights, len, &mut self.grown);
        self.table = units;
    }

    /// Appends an item of `units` capacity units to the loaded instance.
    /// The caller keeps [`check_inputs`]' contract: `value` is finite and
    /// non-negative.
    pub(crate) fn push_item(&mut self, value: f64, units: usize) {
        self.values.push(value);
        self.weights.push(units);
    }

    /// Checks `items` and loads them, weights rounded up to units.
    fn load(&mut self, items: &[KnapsackItem], capacity: u64, granularity: u64) {
        check_inputs(items, granularity);
        self.clear_items(items.len(), (capacity / granularity) as usize);
        for item in items {
            self.push_item(item.value, item.weight.div_ceil(granularity) as usize);
        }
    }
}

/// Exact DP solver writing into a reusable [`KnapsackWorkspace`].
///
/// `granularity` (bytes per DP unit, e.g. 1024) bounds the table size; item
/// weights are rounded *up* to units so the byte capacity is never exceeded.
/// This is the seed's recurrence over the whole table `dp[0..=units]`:
/// `dp[w] = dp[w − w_i] + v_i` where that is strictly greater, items in
/// order, and the choices walked back from `w = units`. The seed updates
/// one row in place from the top down, so each read sees the previous
/// item's row; this writes the new row beside it, from the same operands,
/// in a loop that vectorizes. Leaves the keep flags in `ws.keep()` and
/// returns the kept set's `(total_value, total_weight)`. Time and choice
/// bytes are both `O(items × units)`.
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
    ws.load(items, capacity, granularity);
    dp(ws);
    totals(items, &ws.keep)
}

/// [`solve_exact_in`] on the loaded instance.
fn dp(ws: &mut KnapsackWorkspace) {
    let (n, units) = (ws.values.len(), ws.table);
    let width = units + 1;
    let grown = &mut ws.grown;
    KnapsackWorkspace::ensure(&mut ws.row, width, grown);
    KnapsackWorkspace::ensure(&mut ws.next, width, grown);
    KnapsackWorkspace::ensure(&mut ws.choice, n * width, grown);
    KnapsackWorkspace::ensure(&mut ws.keep, n, grown);
    ws.keep.truncate(n);
    ws.keep.fill(false);

    ws.row[..width].fill(0.0);
    for (i, (&wi, &v)) in ws.weights.iter().zip(&ws.values).enumerate() {
        // An item wider than the table is never taken, and the walk skips
        // it without reading its choices.
        if wi > units {
            continue;
        }
        let (prev, next) = (&ws.row[..width], &mut ws.next[..width]);
        let choice = &mut ws.choice[i * width..][..width];
        next[..wi].copy_from_slice(&prev[..wi]);
        choice[..wi].fill(0);
        for (((cell, c), &old), &below) in next[wi..]
            .iter_mut()
            .zip(&mut choice[wi..])
            .zip(&prev[wi..])
            .zip(&prev[..width - wi])
        {
            let candidate = below + v;
            let take = candidate > old;
            *cell = if take { candidate } else { old };
            *c = take as u8;
        }
        std::mem::swap(&mut ws.row, &mut ws.next);
    }

    let mut w = units;
    for i in (0..n).rev() {
        let wi = ws.weights[i];
        if wi <= units && ws.choice[i * width + w] != 0 {
            ws.keep[i] = true;
            w -= wi;
        }
    }
}

/// Nodes the cover search of [`solve_in`] visits at most before it
/// leaves the instance to the DP.
const NODE_BUDGET: usize = 1 << 14;

/// δ, the margin by which a certified cover must beat every other cover,
/// in units of `(n + 1) · 2⁻⁵³ · Σv`. The float error of the DP's cell
/// sums and the search's own sums together is below `(4n + 2) · 2⁻⁵³ ·
/// Σv`, so 8 leaves a factor of two.
const MARGIN_ULPS: f64 = 8.0;

/// The certificate's float-error bound is first order in `n · 2⁻⁵³`; it
/// is taken to hold for fewer items than this.
const MAX_CERTIFIED_ITEMS: usize = 1_000_000;

/// Below this total value, densities and sums may round to subnormals,
/// whose error is absolute rather than relative to `Σv`, so the bound
/// behind δ is not taken to hold.
const MIN_CERTIFIED_TOTAL: f64 = 1e-250;

/// Fewest keys, in whole buckets, that one extension of the sorted cheap
/// end adds.
const MIN_EXTEND: usize = 8;

/// A search item in density order: positive value, positive weight,
/// inside the table.
#[derive(Debug, Clone, Copy)]
struct Dense {
    value: f64,
    units: usize,
    /// Position in the caller's item slice.
    index: u32,
}

/// A search node: the items before `next` in density order are decided,
/// and `need` units of the overflow are still uncovered at `cost`.
#[derive(Debug, Clone, Copy)]
struct Node {
    next: u32,
    need: usize,
    cost: f64,
    /// Items evicted on the path to this node.
    depth: u32,
    /// The density position this node evicted, on an eviction branch.
    evicted: Option<u32>,
    /// No break item lies before this position: the parent's break.
    from: u32,
}

/// Why the cover search left an instance to the DP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Decline {
    /// Too many items, or a total value outside the bound's range.
    OutOfRange,
    /// The node budget ran out before the search closed.
    Budget,
    /// A second cover costs within δ of the cheapest.
    Tie,
    /// A kept item is worth at most δ, so evicting it as well costs
    /// within δ of the cheapest cover.
    CheapKept,
}

/// PACM's solver: the DP's keep flags, found by a certified search when
/// it can be and by [`solve_exact_in`] otherwise.
///
/// The search runs on the DP's own instance. Items wider than the table
/// never enter the DP and zero-value items are never taken by it (its
/// `>` is strict and its rows are monotone), so both are evicted for free;
/// every other item is kept unless it is in the cover, the cheapest set
/// of positive-weight items whose rounded weights reach the overflow
/// `Σ w − units`. A branch-and-bound finds that cover: items in ascending
/// value density (bucketed by density, each bucket sorted when the
/// search first reaches it), an
/// explicit stack, eviction branch first, and the fractional (LP) fill of
/// the remaining need as the lower bound, at most 16 384 nodes.
///
/// The cover is certified when no other cover, superset or not, costs
/// within `δ = 8 · (n + 1) · 2⁻⁵³ · Σv` of it: every other leaf of the
/// search costs more than `cover + δ`, every pruned subtree's bound
/// exceeds the incumbent by `2δ`, and every kept item is worth more than
/// δ (a superset adds at least one kept item). δ exceeds the float error
/// of the DP's cell sums and of the search's sums together, so every
/// comparison on the DP's optimal path goes the way exact arithmetic
/// does, and the DP's walk would return exactly the complement of the
/// cover. `DESIGN.md` §"PACM hot path" has the argument. When the search
/// is not certified — a tie, a cheap kept item, an exhausted budget, more
/// than 10⁶ items or a total value out of range — the DP runs, unchanged.
///
/// # Panics
///
/// Panics if `granularity` is zero or any value is negative/non-finite.
pub fn solve_in(
    ws: &mut KnapsackWorkspace,
    items: &[KnapsackItem],
    capacity: u64,
    granularity: u64,
) -> Solved {
    ws.load(items, capacity, granularity);
    let certified = solve_loaded(ws);
    let (total_value, total_weight) = totals(items, &ws.keep);
    Solved {
        total_value,
        total_weight,
        certified,
    }
}

/// [`solve_in`] on the loaded instance: leaves the DP's keep flags in
/// `ws.keep` and returns whether the search decided.
pub(crate) fn solve_loaded(ws: &mut KnapsackWorkspace) -> bool {
    let certified = certify(ws).is_ok();
    if !certified {
        dp(ws);
    }
    certified
}

/// Leaves the DP's keep flags in `ws.keep` if the cheapest cover is
/// certified unique (see [`solve_in`]).
fn certify(ws: &mut KnapsackWorkspace) -> Result<(), Decline> {
    let (n, units) = (ws.values.len(), ws.table);
    if n >= MAX_CERTIFIED_ITEMS {
        return Err(Decline::OutOfRange);
    }
    let grown = &mut ws.grown;
    KnapsackWorkspace::ensure(&mut ws.keep, n, grown);
    ws.keep.truncate(n);
    KnapsackWorkspace::reserve(&mut ws.keys, n, grown);
    let (mut total, mut positive_units, mut least) = (0.0f64, 0usize, f64::INFINITY);
    let (mut lo, mut hi) = (u64::MAX, 0);
    for (i, ((keep, &value), &w)) in ws
        .keep
        .iter_mut()
        .zip(&ws.values)
        .zip(&ws.weights)
        .enumerate()
    {
        *keep = w <= units && value > 0.0;
        if !*keep {
            continue;
        }
        total += value;
        positive_units += w;
        if value < least {
            least = value;
        }
        if w > 0 {
            // Densities are positive, so their bits order as they do.
            let bits = (value / w as f64).to_bits();
            (lo, hi) = (lo.min(bits), hi.max(bits));
            ws.keys.push(u128::from(bits) << 32 | i as u128);
        }
    }
    if !(2.0 * total).is_finite() || (total > 0.0 && total < MIN_CERTIFIED_TOTAL) {
        return Err(Decline::OutOfRange);
    }
    let delta = MARGIN_ULPS * (n + 1) as f64 * (f64::EPSILON / 2.0) * total;
    let need = positive_units.saturating_sub(units);
    if need > 0 {
        ws.bucket_keys(lo, hi);
        search(ws, need, delta)?;
        for &p in &ws.cover {
            ws.keep[ws.order[p as usize].index as usize] = false;
        }
    }
    // Supersets of the cover are not leaves of the search; each evicts
    // one kept item more. `least` is the cheapest item kept before the
    // cover was taken out.
    if least <= delta
        && ws
            .values
            .iter()
            .zip(&ws.keep)
            .any(|(&v, &k)| k && v <= delta)
    {
        return Err(Decline::CheapKept);
    }
    Ok(())
}

/// Branch-and-bound for the cheapest cover of `need` units over the
/// search items, left in `ws.cover` as density positions; `Ok` only if
/// every other cover costs more than `cover + delta`.
fn search(ws: &mut KnapsackWorkspace, need: usize, delta: f64) -> Result<(), Decline> {
    let m = ws.keys.len();
    let grown = &mut ws.grown;
    KnapsackWorkspace::reserve(&mut ws.order, m, grown);
    KnapsackWorkspace::reserve(&mut ws.prefix_units, m + 1, grown);
    KnapsackWorkspace::reserve(&mut ws.prefix_value, m + 1, grown);
    // Depth first, one pending sibling per level: at most `m + 1` nodes.
    KnapsackWorkspace::reserve(&mut ws.stack, m + 1, grown);
    KnapsackWorkspace::reserve(&mut ws.path, m, grown);
    KnapsackWorkspace::reserve(&mut ws.cover, m, grown);
    ws.prefix_units.push(0);
    ws.prefix_value.push(0.0);
    ws.stack.push(Node {
        next: 0,
        need,
        cost: 0.0,
        depth: 0,
        evicted: None,
        from: 0,
    });
    let (mut best, mut second) = (f64::INFINITY, f64::INFINITY);
    let mut nodes = 0;
    while let Some(node) = ws.stack.pop() {
        nodes += 1;
        if nodes > NODE_BUDGET {
            return Err(Decline::Budget);
        }
        ws.path
            .truncate(node.depth as usize - usize::from(node.evicted.is_some()));
        ws.path.extend(node.evicted);
        let k = node.next as usize;
        let Some(brk) = ws.break_point(k, node.need, node.from as usize) else {
            continue; // the items left cannot cover the need
        };
        let whole = ws.prefix_units[brk] - ws.prefix_units[k];
        let cut = ws.order[brk];
        let bound = node.cost
            + (ws.prefix_value[brk] - ws.prefix_value[k])
            + cut.value * ((node.need - whole) as f64 / cut.units as f64);
        if bound > best + 2.0 * delta {
            continue;
        }
        let item = ws.order[k];
        // A child's need reaches at least as far as its parent's: the
        // eviction child's break is `brk` itself, the other's lies beyond.
        ws.stack.push(Node {
            next: node.next + 1,
            evicted: None,
            from: brk as u32,
            ..node
        });
        let cost = node.cost + item.value;
        if item.units < node.need {
            ws.stack.push(Node {
                next: node.next + 1,
                need: node.need - item.units,
                cost,
                depth: node.depth + 1,
                evicted: Some(node.next),
                from: brk as u32,
            });
        } else if cost < best {
            (best, second) = (cost, best);
            ws.cover.clear();
            ws.cover.extend_from_slice(&ws.path);
            ws.cover.push(node.next);
        } else {
            second = second.min(cost);
        }
    }
    if second > best + delta {
        Ok(())
    } else {
        Err(Decline::Tie)
    }
}

impl KnapsackWorkspace {
    /// The LP's break item from density position `k`: the first `b ≥ k`
    /// with `order[k..=b]` reaching `need` units, sorting more of the
    /// cheap end as needed. `None` if all of `order[k..]` falls short.
    /// The caller vouches that no break lies before `from`; the scan
    /// starts there.
    fn break_point(&mut self, k: usize, need: usize, from: usize) -> Option<usize> {
        let target = self.prefix_units[k] + need;
        let mut b = from.max(k);
        loop {
            while b >= self.order.len() {
                if self.order.len() == self.keys.len() {
                    return None;
                }
                self.sort_more();
            }
            if self.prefix_units[b + 1] >= target {
                return Some(b);
            }
            b += 1;
        }
    }

    /// Groups the keys by the high bits of their density, by a counting
    /// sort: a key's bucket is its density's bits less the smallest
    /// density's, shifted right so that there are at most as many buckets
    /// as keys. Densities are positive, so their bits order as they do:
    /// every key of a bucket is below every key of a later bucket, and
    /// sorting the buckets one at a time yields the keys in order.
    /// `lo` and `hi` are the least and greatest density's bits.
    fn bucket_keys(&mut self, lo: u64, hi: u64) {
        let m = self.keys.len();
        self.next_bucket = 0;
        if m == 0 {
            self.ends.clear();
            return;
        }
        let bits = |key: u128| (key >> 32) as u64;
        // `hi − lo < 2^width`, so shifting by `width − p` leaves it below
        // `2^p ≤ m` buckets.
        let p = usize::BITS - 1 - m.leading_zeros();
        let width = u64::BITS - (hi - lo).leading_zeros();
        let shift = width.saturating_sub(p);
        let bucket = |key: u128| ((bits(key) - lo) >> shift) as usize;
        let buckets = 1 << p;
        let grown = &mut self.grown;
        Self::ensure(&mut self.ends, buckets, grown);
        Self::ensure(&mut self.bucketed, m, grown);
        let ends = &mut self.ends[..buckets];
        ends.fill(0);
        for &key in &self.keys {
            ends[bucket(key)] += 1;
        }
        let mut start = 0;
        for end in ends.iter_mut() {
            (*end, start) = (start, start + *end);
        }
        // Each bucket's cursor runs from its start to its end.
        for &key in &self.keys {
            let at = &mut ends[bucket(key)];
            self.bucketed[*at as usize] = key;
            *at += 1;
        }
        self.ends.truncate(buckets);
    }

    /// Extends the sorted cheap end by whole buckets, at least
    /// [`MIN_EXTEND`] keys unless fewer are left, sorting only those.
    fn sort_more(&mut self) {
        let from = self.order.len();
        let mut to = from;
        while to < from + MIN_EXTEND && self.next_bucket < self.ends.len() {
            to = self.ends[self.next_bucket] as usize;
            self.next_bucket += 1;
        }
        self.bucketed[from..to].sort_unstable();
        for &key in &self.bucketed[from..to] {
            let index = key as u32;
            let d = Dense {
                value: self.values[index as usize],
                units: self.weights[index as usize],
                index,
            };
            let last = self.order.len();
            let (units, value) = (self.prefix_units[last], self.prefix_value[last]);
            self.prefix_units.push(units + d.units);
            self.prefix_value.push(value + d.value);
            self.order.push(d);
        }
    }
}

/// The input contract shared by the solvers.
fn check_inputs(items: &[KnapsackItem], granularity: u64) {
    assert!(granularity > 0, "granularity must be positive");
    for it in items {
        assert!(
            it.value.is_finite() && it.value >= 0.0,
            "item values must be non-negative and finite"
        );
    }
}

/// `(total_value, total_weight)` of the kept items, summed in item order.
fn totals(items: &[KnapsackItem], keep: &[bool]) -> (f64, u64) {
    let kept = || items.iter().zip(keep).filter(|(_, &k)| k);
    (
        kept().map(|(it, _)| it.value).sum(),
        kept().map(|(it, _)| it.weight).sum(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ape_check::{check, Gen};

    fn item(weight: u64, value: f64) -> KnapsackItem {
        KnapsackItem { weight, value }
    }

    /// A keep set and its totals.
    struct Solution {
        keep: Vec<bool>,
        total_value: f64,
        total_weight: u64,
    }

    fn finish(items: &[KnapsackItem], keep: Vec<bool>) -> Solution {
        let (total_value, total_weight) = totals(items, &keep);
        Solution {
            keep,
            total_value,
            total_weight,
        }
    }

    /// Exhaustive solver (`2^n`; at most 20 items): the oracle the DP and
    /// the certified search are held to.
    fn solve_brute_force(items: &[KnapsackItem], capacity: u64) -> Solution {
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

    /// Up to 11 items of 1–39 units, each worth a whole number below 100.
    fn items(g: &mut Gen) -> Vec<KnapsackItem> {
        g.vec(0..12, |g| {
            item(g.range(1u64..40), f64::from(g.range(0u32..100)))
        })
    }

    #[test]
    fn exact_knapsack_is_optimal() {
        check("exact_knapsack_is_optimal", 256, |g| {
            let (items, capacity) = (items(g), g.range(0u64..200));
            let mut ws = KnapsackWorkspace::new();
            let (total_value, total_weight) = solve_exact_in(&mut ws, &items, capacity, 1);
            let brute = solve_brute_force(&items, capacity);
            assert!((total_value - brute.total_value).abs() < 1e-9);
            assert!(total_weight <= capacity);
        });
    }

    /// The DP's answer on a fresh workspace.
    fn dp(items: &[KnapsackItem], capacity: u64, granularity: u64) -> Solution {
        let mut ws = KnapsackWorkspace::new();
        solve_exact_in(&mut ws, items, capacity, granularity);
        finish(items, ws.keep.clone())
    }

    #[test]
    fn exact_finds_optimum_on_classic_instance() {
        // Classic: capacity 10, optimal is items 1+2 (values 10+7).
        let items = [item(6, 10.0), item(4, 7.0), item(5, 8.0), item(3, 4.0)];
        let sol = dp(&items, 10, 1);
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
            let exact = dp(&items, capacity, 1);
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
        // Cross-check the DP at granularity > 1 on random instances.
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
                let exact = dp(&items, capacity, granularity);

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
        let sol = dp(&items, 1999, 1000);
        assert_eq!(sol.keep, vec![false]);
        // With capacity 2000 (2 units) it fits.
        let sol = dp(&items, 2000, 1000);
        assert_eq!(sol.keep, vec![true]);
    }

    #[test]
    fn capacity_never_exceeded_with_granularity() {
        let items = [item(900, 1.0), item(900, 1.0), item(900, 1.0)];
        let sol = dp(&items, 2000, 1024);
        assert!(sol.total_weight <= 2000, "weight {}", sol.total_weight);
    }

    #[test]
    fn zero_capacity_keeps_nothing() {
        let items = [item(1, 100.0)];
        let sol = dp(&items, 0, 1);
        assert_eq!(sol.keep, vec![false]);
        assert_eq!(sol.total_value, 0.0);
    }

    #[test]
    fn empty_items_are_fine() {
        let sol = dp(&[], 100, 1);
        assert!(sol.keep.is_empty());
    }

    #[test]
    #[should_panic(expected = "granularity")]
    fn zero_granularity_rejected() {
        let _ = dp(&[], 10, 0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_values_rejected() {
        let _ = dp(&[item(1, -1.0)], 10, 1);
    }

    #[test]
    fn workspace_reuse_allocates_once() {
        // Buffer sizes follow `n` and the capacity in units. What holds:
        // once every instance of a set has been solved, re-solving any of
        // them, in any order, grows nothing.
        let instances: Vec<(Vec<KnapsackItem>, u64)> = (1..10)
            .flat_map(|seed| {
                [
                    (items_random(64, seed), 50_000),
                    (items_random(64, seed), 20_000),
                    (items_random(8, seed), 9_000),
                ]
            })
            .collect();
        // The search and the DP share the workspace, as in PACM.
        let mut ws = KnapsackWorkspace::new();
        for (items, capacity) in &instances {
            solve_exact_in(&mut ws, items, *capacity, 64);
            solve_in(&mut ws, items, *capacity, 64);
        }
        let grown = ws.allocations();
        assert!(grown > 0);
        for (items, capacity) in instances.iter().rev().chain(&instances) {
            solve_exact_in(&mut ws, items, *capacity, 64);
            solve_in(&mut ws, items, *capacity, 64);
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
        let sol = dp(&items, 60_000, 128);
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
    fn edge_cases_keep_the_seed_flags() {
        // One workspace across all cases, so stale cells from a wider
        // earlier solve sit in every buffer a later one uses.
        // `solve_in` is held to the DP on each case, in its own workspace.
        // Where ties decide, the DP's flags are the seed's, read off its
        // recurrence: strict `>` in item order and the walk back from the
        // table top.
        let mut ws = KnapsackWorkspace::new();
        let mut search = KnapsackWorkspace::new();
        // (case, items, capacity, granularity, the seed's keep flags).
        type Case = (&'static str, Vec<KnapsackItem>, u64, u64, Option<Vec<bool>>);
        let cases: [Case; 9] = [
            (
                "zero-size items",
                vec![item(0, 5.0), item(3, 2.0), item(0, 0.0), item(4, 7.0)],
                5,
                1,
                None,
            ),
            (
                "items wider than the table",
                vec![item(100, 9.0), item(3, 1.0), item(50, 2.0), item(4, 3.0)],
                6,
                1,
                None,
            ),
            (
                "everything fits (overflow 0)",
                vec![item(3, 1.0), item(4, 2.0), item(1, 0.5)],
                100,
                1,
                None,
            ),
            (
                "units = 0",
                vec![item(0, 1.0), item(1, 2.0), item(0, 3.0)],
                0,
                1,
                None,
            ),
            (
                "capacity below one unit",
                vec![item(0, 1.0), item(7, 2.0)],
                5,
                10,
                None,
            ),
            (
                "equal-value ties, equal items",
                vec![item(2, 1.0); 6],
                7,
                1,
                Some(vec![true, true, true, false, false, false]),
            ),
            (
                "equal-value ties, different subsets",
                vec![item(2, 2.0), item(1, 1.0), item(1, 1.0), item(3, 3.0)],
                3,
                1,
                Some(vec![true, true, false, false]),
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
                Some(vec![true, false, false, true, false]),
            ),
            (
                "half the weight fits",
                items_random(30, 5),
                22_000,
                64,
                None,
            ),
        ];
        for (case, items, capacity, granularity, seed_keep) in &cases {
            assert_solve_in_matches_dp(&mut search, &mut ws, items, *capacity, *granularity, case);
            if let Some(seed_keep) = seed_keep {
                assert_eq!(ws.keep(), seed_keep.as_slice(), "{case}: the seed's flags");
            }
        }

        // Overflows from one unit to a thousand.
        let items = items_random(40, 9);
        let total: u64 = items.iter().map(|it| it.weight).sum();
        for overflow in [1u64, 63, 64, 65, 129, 1_000] {
            let case = format!("overflow {overflow}");
            assert_solve_in_matches_dp(&mut search, &mut ws, &items, total - overflow, 1, &case);
        }
    }

    /// `solve_in` against the DP on the same instance: equal keep flags and
    /// bitwise totals. Returns whether the search decided.
    fn assert_solve_in_matches_dp(
        ws: &mut KnapsackWorkspace,
        dp: &mut KnapsackWorkspace,
        items: &[KnapsackItem],
        capacity: u64,
        granularity: u64,
        case: &str,
    ) -> bool {
        let solved = solve_in(ws, items, capacity, granularity);
        let (value, weight) = solve_exact_in(dp, items, capacity, granularity);
        assert_eq!(ws.keep(), dp.keep(), "{case}: keep flags");
        assert_eq!(
            solved.total_value.to_bits(),
            value.to_bits(),
            "{case}: total value"
        );
        assert_eq!(solved.total_weight, weight, "{case}: total weight");
        solved.certified
    }

    /// Weights of 1–100 units (bytes at granularity 1024, so rounding adds
    /// about half a unit an item), values spanning six decades, and a
    /// capacity one incoming object short of the total: an eviction.
    fn eviction_instance(n: usize, seed: u64) -> (Vec<KnapsackItem>, u64) {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 11
        };
        let unit = |x: u64| x as f64 / (1u64 << 53) as f64;
        let items: Vec<KnapsackItem> = (0..n)
            .map(|_| {
                let weight = next() % (100 * 1024) + 1;
                item(
                    weight,
                    10f64.powf(6.0 * unit(next())) * (1.0 + unit(next())),
                )
            })
            .collect();
        let incoming = (next() % 300 + 1) * 1024;
        let total: u64 = items.iter().map(|it| it.weight).sum();
        (items, total.saturating_sub(incoming))
    }

    #[test]
    fn solve_in_matches_dp_on_eviction_shaped_instances() {
        let mut ws = KnapsackWorkspace::new();
        let mut dp = KnapsackWorkspace::new();
        for (n, instances) in [(8usize, 400u64), (128, 200), (1024, 20)] {
            let mut certified = 0;
            for seed in 0..instances {
                let (items, capacity) = eviction_instance(n, seed);
                let case = format!("n={n} seed={seed}");
                certified += u64::from(assert_solve_in_matches_dp(
                    &mut ws, &mut dp, &items, capacity, 1024, &case,
                ));
            }
            assert!(
                certified * 10 >= instances * 9,
                "n={n}: only {certified} of {instances} solves certified"
            );
        }
    }

    /// The search must decline `items` for `reason`, and `solve_in` then
    /// return the DP's answer.
    fn assert_declines(items: &[KnapsackItem], capacity: u64, reason: Decline, case: &str) {
        let mut ws = KnapsackWorkspace::new();
        let certified = assert_solve_in_matches_dp(
            &mut ws,
            &mut KnapsackWorkspace::new(),
            items,
            capacity,
            1,
            case,
        );
        assert!(!certified, "{case}: solve_in reported a certified answer");
        ws.load(items, capacity, 1);
        assert_eq!(certify(&mut ws), Err(reason), "{case}: decline reason");
    }

    #[test]
    fn uncertifiable_instances_fall_back_to_the_dp() {
        assert_declines(&[item(2, 1.0); 6], 7, Decline::Tie, "equal values");
        assert_declines(
            &[
                item(1, 1e300),
                item(1, 1e-300),
                item(1, 1e-300),
                item(1, 1e300),
                item(1, 1e-300),
            ],
            4,
            Decline::Tie,
            "1e300/1e-300 absorption",
        );
        // Evicting item 0 alone is the cheapest cover by far, but the
        // zero-weight item kept beside it is worth less than δ: the DP
        // absorbs it (2.0 + 1e-300 == 2.0) and evicts it too.
        assert_declines(
            &[item(1, 1.0), item(1, 2.0), item(0, 1e-300)],
            1,
            Decline::CheapKept,
            "a kept item worth less than δ",
        );
        assert_declines(
            &[item(3, 1.0), item(3, 1.0 + 1e-14), item(10, 100.0)],
            13,
            Decline::Tie,
            "a second cover within δ",
        );
        // Every weight is even and the need odd, so the LP bound sits a
        // unit under every cover and no node can be pruned.
        let mut state = 7u64;
        let items: Vec<KnapsackItem> = (0..64)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let w = 2 * ((state >> 33) % 100 + 1);
                item(w, w as f64)
            })
            .collect();
        let total: u64 = items.iter().map(|it| it.weight).sum();
        assert_declines(
            &items,
            total - ((total / 2) | 1),
            Decline::Budget,
            "an exhausted node budget",
        );
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
