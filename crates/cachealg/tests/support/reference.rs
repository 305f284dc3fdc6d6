//! Frozen seed implementations of the PACM eviction path, the tests'
//! oracle.
//!
//! This module preserves, verbatim, the seed's knapsack DP and
//! `PacmPolicy::select_victims` (knapsack + fairness repair) exactly as
//! they shipped, with one cut: the seed's size-selected greedy branch is
//! gone, because the engine it is compared against always keeps the DP's
//! set. The library does not ship it. `pacm_equivalence` and the bench
//! crate's `evict_oracle` include it by `#[path]` and assert that the
//! optimized engine returns byte-identical victim lists. The seed DP
//! allocates a full `items × capacity_units` choice matrix, so it is an
//! oracle for small stores only.
//!
//! Do not "improve" this code; its value is that it never changes.

use std::collections::BTreeMap;

use ape_cachealg::pacm::{ALPHA, MIN_RATE};
use ape_cachealg::{
    gini, AppId, CacheStore, FrequencyTracker, KnapsackItem, ObjectMeta, PacmConfig,
};
use ape_dnswire::UrlHash;
use ape_simnet::SimTime;

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

/// The seed's exact DP solver, with the full `Vec<bool>` choice matrix and
/// no prefix clamping. Allocates `O(items × capacity_units)` per call.
pub fn solve_exact_seed(
    items: &[KnapsackItem],
    capacity: u64,
    granularity: u64,
) -> KnapsackSolution {
    assert!(granularity > 0, "granularity must be positive");
    for it in items {
        assert!(
            it.value.is_finite() && it.value >= 0.0,
            "item values must be non-negative and finite"
        );
    }
    let units = (capacity / granularity) as usize;
    let weights: Vec<usize> = items
        .iter()
        .map(|it| (it.weight.div_ceil(granularity)) as usize)
        .collect();

    // dp[w] = best value with capacity w; choice[i][w] = item i taken at w.
    let mut dp = vec![0.0f64; units + 1];
    let mut choice = vec![false; items.len() * (units + 1)];
    for (i, item) in items.iter().enumerate() {
        let wi = weights[i];
        if wi > units {
            continue;
        }
        for w in (wi..=units).rev() {
            let candidate = dp[w - wi] + item.value;
            if candidate > dp[w] {
                dp[w] = candidate;
                choice[i * (units + 1) + w] = true;
            }
        }
    }

    // Walk choices backwards to recover the kept set.
    let mut keep = vec![false; items.len()];
    let mut w = units;
    for i in (0..items.len()).rev() {
        if choice[i * (units + 1) + w] {
            keep[i] = true;
            w -= weights[i];
        }
    }
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

/// The seed's PACM policy: full candidate re-enumeration, allocating DP,
/// and a fairness-repair loop that rebuilds the per-app map every
/// iteration.
#[derive(Debug)]
pub struct ReferencePacm {
    config: PacmConfig,
    freq: FrequencyTracker,
    fairness_enabled: bool,
}

/// Internal view of a cached object during selection.
#[derive(Debug, Clone)]
struct KeptObject {
    key: UrlHash,
    app: AppId,
    size: u64,
    utility: f64,
}

impl ReferencePacm {
    /// Creates a seed-faithful PACM policy.
    ///
    /// # Panics
    ///
    /// Panics if the config's `fairness_theta` is negative.
    pub fn new(config: PacmConfig) -> Self {
        assert!(config.fairness_theta >= 0.0, "theta must be non-negative");
        ReferencePacm {
            freq: FrequencyTracker::new(ALPHA),
            config,
            fairness_enabled: true,
        }
    }

    /// Disables the fairness constraint (θ = ∞ ablation).
    pub fn without_fairness(mut self) -> Self {
        self.fairness_enabled = false;
        self
    }

    /// Observes one client request for `app`.
    pub fn note_request(&mut self, app: AppId) {
        self.freq.record(app);
    }

    /// Closes the current measurement window at `now`.
    pub fn roll_window(&mut self, now: SimTime) {
        self.freq.roll(now);
    }

    /// Utility `U_d` of an object at `now` under current frequencies.
    pub fn utility(&self, meta: &ObjectMeta, now: SimTime) -> f64 {
        let rate = self.freq.rate(meta.app).max(MIN_RATE);
        let e_d = meta.remaining_ttl(now).as_secs_f64();
        let l_d = meta.fetch_latency.as_secs_f64();
        rate * e_d * l_d * meta.priority.get() as f64
    }

    fn clamped_rate(&self, app: AppId) -> f64 {
        self.freq.rate(app).max(MIN_RATE)
    }

    /// Storage-efficiency Gini over a candidate kept set.
    fn fairness(&self, kept: &[&KeptObject]) -> f64 {
        let mut per_app: BTreeMap<AppId, f64> = BTreeMap::new();
        for obj in kept {
            *per_app.entry(obj.app).or_insert(0.0) += obj.size as f64;
        }
        let shares: Vec<f64> = per_app
            .iter()
            .map(|(app, bytes)| bytes / self.clamped_rate(*app))
            .collect();
        gini(&shares)
    }

    /// The seed's `select_victims`, byte for byte, on its DP path.
    pub fn select_victims(
        &mut self,
        store: &CacheStore,
        incoming: &ObjectMeta,
        now: SimTime,
    ) -> Vec<UrlHash> {
        // Candidates sorted by key: hash-map iteration order must not leak
        // into victim selection.
        let mut candidates: Vec<KeptObject> = store
            .iter()
            .map(|e| KeptObject {
                key: e.meta.key,
                app: e.meta.app,
                size: e.meta.size,
                utility: self.utility(&e.meta, now),
            })
            .collect();
        candidates.sort_by_key(|o| o.key);

        let capacity = store.capacity().saturating_sub(incoming.size);
        let items: Vec<KnapsackItem> = candidates
            .iter()
            .map(|o| KnapsackItem {
                weight: o.size,
                value: o.utility,
            })
            .collect();
        let solution = solve_exact_seed(&items, capacity, self.config.granularity);

        let mut kept: Vec<&KeptObject> = candidates
            .iter()
            .zip(&solution.keep)
            .filter(|(_, &k)| k)
            .map(|(o, _)| o)
            .collect();
        let mut victims: Vec<UrlHash> = candidates
            .iter()
            .zip(&solution.keep)
            .filter(|(_, &k)| !k)
            .map(|(o, _)| o.key)
            .collect();

        // Fairness repair: drop the cheapest object of the most over-served
        // app until F(A) ≤ θ (or only one app remains).
        if self.fairness_enabled {
            while self.fairness(&kept) > self.config.fairness_theta {
                let mut per_app: BTreeMap<AppId, f64> = Default::default();
                for obj in &kept {
                    *per_app.entry(obj.app).or_insert(0.0) += obj.size as f64;
                }
                if per_app.len() <= 1 {
                    break;
                }
                let worst_app = per_app
                    .iter()
                    .map(|(app, bytes)| (*app, bytes / self.clamped_rate(*app)))
                    .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite efficiency"))
                    .map(|(app, _)| app)
                    .expect("non-empty per_app");
                let Some(pos) = kept
                    .iter()
                    .enumerate()
                    .filter(|(_, o)| o.app == worst_app)
                    .min_by(|a, b| {
                        a.1.utility
                            .partial_cmp(&b.1.utility)
                            .expect("finite utility")
                            .then(a.1.key.cmp(&b.1.key))
                    })
                    .map(|(i, _)| i)
                else {
                    break;
                };
                victims.push(kept.remove(pos).key);
            }
        }
        victims
    }
}
