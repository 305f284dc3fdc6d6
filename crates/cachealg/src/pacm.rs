//! PACM — Priority-Aware Cache Management (paper §IV-C).
//!
//! When a delegated object arrives and the cache is full, PACM chooses the
//! keep-set `O` maximizing `Σ O_d · U_d` with
//! `U_d = R(A_d) · e_d · l_d · p_d`, subject to
//! `Σ O_d · s_d ≤ C − S` and the fairness bound `F(A) ≤ θ` on per-app
//! storage efficiency `C_a = Σ s_d / R(a)` (Gini coefficient, Eq. 1).
//!
//! The capacity constraint is solved exactly: the knapsack DP's keep set,
//! reached by a certified search where it can be (see below). The
//! fairness constraint couples all apps and cannot ride along in the same
//! one-dimensional DP, so — as documented in `DESIGN.md` — PACM applies a
//! *repair* pass afterwards: while the kept set violates `θ`, the
//! lowest-utility object of the most over-served app is dropped. The repair
//! only ever shrinks the kept set, so the capacity constraint stays
//! satisfied.
//!
//! # The incremental eviction engine
//!
//! `select_victims` is the simulator's hottest path, so this implementation
//! is built around a reusable [`KnapsackWorkspace`] and a set of *exact*
//! pre-solver reductions (see `DESIGN.md` §"PACM hot path" for the
//! exactness argument):
//!
//! * objects with zero utility (expired, zero TTL/latency) or whose rounded
//!   weight exceeds the knapsack capacity are forced victims — the seed DP
//!   provably never keeps them;
//! * when the surviving objects all fit the post-insertion capacity the
//!   keep-everything solution attains the utility upper bound, so the DP is
//!   skipped (an absorption-aware scan reproduces the DP's float behavior
//!   bit for bit);
//! * otherwise [`solve_in`] searches for the cheapest set of survivors to
//!   evict and keeps the rest when that set is certified unique — no other
//!   set comes within the float-error margin δ of it, so the DP would
//!   return the same keep flags;
//! * only when the certificate fails does the DP run, on the surviving
//!   subset, in the workspace.
//!
//! Each app's clamped rate `R(a)` is read once per call, not once per
//! cached object, and the utilities multiply in the same order, so every
//! utility keeps its bits.
//!
//! The fairness repair starts from the store's per-app `(bytes, objects)`
//! totals ([`CacheStore::app_totals`]), updates a copy of them in place,
//! and walks one reusable list of kept objects sorted by `(app, utility,
//! key)` — O(k log k) and allocation-free, where the seed rebuilds its
//! per-app map every iteration (O(k² log k)). The policy keeps no view of
//! the store between calls, so on any store, however it was filled, it
//! picks what a fresh policy with the same frequencies picks.
//!
//! Every reduction preserves the victim set byte for byte; the
//! `pacm_equivalence` property suite pins this against the frozen seed
//! implementation in [`crate::reference`].

use ape_dnswire::UrlHash;
use ape_simnet::SimTime;

use crate::freq::FrequencyTracker;
use crate::gini::gini_in_place;
use crate::knapsack::{solve_in, KnapsackItem, KnapsackWorkspace};
use crate::object::{AppId, ObjectMeta};
use crate::policy::EvictionPolicy;
use crate::store::CacheStore;

/// EWMA smoothing for request frequency (paper §IV-C: 0.7).
pub const ALPHA: f64 = 0.7;

/// Floor applied to `R(a)` in utilities and storage efficiency so
/// never-measured apps neither zero out nor blow up the formulas.
pub const MIN_RATE: f64 = 0.05;

/// App ids below this get a dense per-call rate table; a store holding a
/// larger id reads every rate from the tracker instead.
const DENSE_RATE_IDS: u32 = 1 << 16;

/// Tuning knobs for PACM, defaulting to the paper's settings. The
/// calibration nobody varies is [`ALPHA`] and [`MIN_RATE`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacmConfig {
    /// Fairness threshold θ on the Gini coefficient (paper: 0.4).
    pub fairness_theta: f64,
    /// Bytes per knapsack DP capacity unit.
    pub granularity: u64,
}

impl Default for PacmConfig {
    fn default() -> Self {
        PacmConfig {
            fairness_theta: 0.4,
            granularity: 1024,
        }
    }
}

/// Counters describing how PACM's `select_victims` reached its answers.
///
/// Cumulative over the policy's lifetime; the AP node diffs consecutive
/// snapshots to attribute per-admission eviction cost in metrics/traces.
/// The per-admission deltas surface as the interned `ap.evict_*`
/// counters (`ape_proto::names::id::AP_EVICT_*`) in the metric registry,
/// and the host wall-clock the solver burns is attributed to the
/// `ProfCategory::Evict` row of `repro profile`'s sim-loop self-profile.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvictStats {
    /// `select_victims` invocations.
    pub solver_runs: u64,
    /// Cached objects examined across all invocations.
    pub items_considered: u64,
    /// Invocations decided by the certified cover search ([`solve_in`]).
    pub certified: u64,
    /// Invocations the band DP decided: the search was not certified.
    pub dp_runs: u64,
    /// Invocations short-circuited because the surviving objects fit.
    pub short_circuits: u64,
    /// Objects evicted outright by the pre-solver reductions
    /// (zero utility — e.g. expired — or larger than the capacity).
    pub forced_victims: u64,
    /// Objects evicted by the fairness-repair loop.
    pub repair_evictions: u64,
}

/// Internal view of a cached object during selection.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    key: UrlHash,
    app: AppId,
    size: u64,
    utility: f64,
}

/// One app's share of the kept set during the fairness repair.
#[derive(Debug, Clone, Copy)]
struct KeptApp {
    app: AppId,
    bytes: u64,
    objects: u32,
    /// Position in `PacmPolicy::kept_order` of the app's next victim.
    cursor: usize,
}

/// The PACM eviction policy.
///
/// # Examples
///
/// ```
/// use ape_cachealg::{CacheManager, CacheStore, PacmConfig, PacmPolicy};
///
/// let store = CacheStore::new(5_000_000, 500_000);
/// let manager = CacheManager::new(store, PacmPolicy::new(PacmConfig::default()));
/// assert_eq!(manager.policy().stats().solver_runs, 0);
/// ```
#[derive(Debug)]
pub struct PacmPolicy {
    config: PacmConfig,
    freq: FrequencyTracker,
    /// Disables the fairness repair pass (θ = ∞ ablation).
    fairness_enabled: bool,
    /// Reusable solver scratch (search and DP).
    workspace: KnapsackWorkspace,
    /// Clamped `R(a)` by raw app id for the store's apps, read once per
    /// call; NaN for ids the store holds nothing of.
    rates: Vec<f64>,
    /// Reusable per-call buffers.
    candidates: Vec<Candidate>,
    items: Vec<KnapsackItem>,
    keep: Vec<bool>,
    survivors: Vec<(u32, usize)>,
    kept_apps: Vec<KeptApp>,
    shares: Vec<f64>,
    /// Kept objects sorted by `(app, utility, key)`, built once per repair.
    kept_order: Vec<Candidate>,
    stats: EvictStats,
}

impl PacmPolicy {
    /// Creates a PACM policy.
    ///
    /// # Panics
    ///
    /// Panics if the config's `fairness_theta` is negative.
    pub fn new(config: PacmConfig) -> Self {
        assert!(config.fairness_theta >= 0.0, "theta must be non-negative");
        PacmPolicy {
            freq: FrequencyTracker::new(ALPHA),
            config,
            fairness_enabled: true,
            workspace: KnapsackWorkspace::new(),
            rates: Vec::new(),
            candidates: Vec::new(),
            items: Vec::new(),
            keep: Vec::new(),
            survivors: Vec::new(),
            kept_apps: Vec::new(),
            shares: Vec::new(),
            kept_order: Vec::new(),
            stats: EvictStats::default(),
        }
    }

    /// Disables the fairness constraint (for the ablation bench).
    pub fn without_fairness(mut self) -> Self {
        self.fairness_enabled = false;
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &PacmConfig {
        &self.config
    }

    /// Current smoothed request rate for `app`.
    pub fn rate(&self, app: AppId) -> f64 {
        self.freq.rate(app)
    }

    /// Counters for the eviction engine (cumulative).
    pub fn stats(&self) -> EvictStats {
        self.stats
    }

    /// Buffer-growth events inside the knapsack workspace; flat after
    /// warm-up (`repro bench-evict` reports it as `workspace_allocations`).
    pub fn workspace_allocations(&self) -> u64 {
        self.workspace.allocations()
    }

    /// Utility `U_d` of an object at `now` under current frequencies.
    pub fn utility(&self, meta: &ObjectMeta, now: SimTime) -> f64 {
        utility_at(self.clamped_rate(meta.app), meta, now)
    }

    /// `max(R(a), MIN_RATE)`: the rate floor shared by utilities and
    /// storage efficiency.
    fn clamped_rate(&self, app: AppId) -> f64 {
        self.freq.rate(app).max(MIN_RATE)
    }

    /// The clamped rate of `app` from this call's `rates` table.
    fn call_rate(&self, app: AppId) -> f64 {
        match self.rates.get(app.get() as usize) {
            Some(&rate) if !rate.is_nan() => rate,
            _ => self.clamped_rate(app),
        }
    }

    /// Fairness repair over the kept set, appending victims in place.
    ///
    /// Reproduces the seed loop decision for decision: per iteration,
    /// recompute the Gini of per-app storage efficiency, pick the most
    /// over-served app (last among equals, as `Iterator::max_by`), and
    /// evict its `(utility, key)`-minimal kept object — found by a cursor
    /// over a list sorted once, where the seed rescans.
    fn repair(&mut self, store: &CacheStore, victims: &mut Vec<UrlHash>) {
        // Kept per-app (bytes, objects): the store's totals minus the
        // victims chosen so far. Byte sums are exact u64s; the seed's f64
        // accumulation is integer-exact in the same range (< 2^53).
        self.kept_apps.clear();
        for (&app, &(bytes, objects)) in store.app_totals() {
            self.kept_apps.push(KeptApp {
                app,
                bytes,
                objects,
                cursor: 0,
            });
        }
        for (c, &kept) in self.candidates.iter().zip(&self.keep) {
            if kept {
                continue;
            }
            let slot = self
                .kept_apps
                .binary_search_by_key(&c.app, |a| a.app)
                .expect("the store totals every cached app");
            self.kept_apps[slot].bytes -= c.size;
            self.kept_apps[slot].objects -= 1;
        }
        debug_assert!(
            self.kept_apps.iter().all(|a| a.bytes < (1u64 << 53)),
            "per-app byte totals must stay f64-integer-exact"
        );

        let mut indexed = false;
        loop {
            // Shares in ascending-app order over apps with kept objects —
            // the exact sequence the seed feeds to `gini`.
            self.shares.clear();
            for a in &self.kept_apps {
                if a.objects > 0 {
                    self.shares.push(a.bytes as f64 / self.call_rate(a.app));
                }
            }
            // Loop only while F(A) > θ, like the seed's `while`; Gini is
            // always finite in [0, 1] so `<=` is its exact negation.
            if gini_in_place(&mut self.shares) <= self.config.fairness_theta {
                break;
            }
            if self.kept_apps.iter().filter(|a| a.objects > 0).count() <= 1 {
                break;
            }

            // Most over-served app, last among equal maxima: the seed's own
            // `max_by`, over the same ascending-app sequence.
            let worst = self
                .kept_apps
                .iter()
                .enumerate()
                .filter(|(_, a)| a.objects > 0)
                .map(|(slot, a)| (slot, a.bytes as f64 / self.call_rate(a.app)))
                .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite efficiency"))
                .expect("non-empty per_app")
                .0;

            // Lazily sort the kept objects, once per repair. Each app's run
            // starts where the runs of the apps before it end. `total_cmp`
            // matches the seed's `partial_cmp` selection: utilities are
            // finite, non-negative products (never `-0.0`), and the
            // trailing key makes every entry unique.
            if !indexed {
                self.kept_order.clear();
                self.kept_order.extend(
                    self.candidates
                        .iter()
                        .zip(&self.keep)
                        .filter(|(_, &kept)| kept)
                        .map(|(c, _)| *c),
                );
                self.kept_order.sort_unstable_by(|a, b| {
                    (a.app.cmp(&b.app))
                        .then(a.utility.total_cmp(&b.utility))
                        .then(a.key.cmp(&b.key))
                });
                let mut start = 0;
                for a in &mut self.kept_apps {
                    a.cursor = start;
                    start += a.objects as usize;
                }
                indexed = true;
            }

            let a = &mut self.kept_apps[worst];
            let victim = &self.kept_order[a.cursor];
            debug_assert_eq!(victim.app, a.app, "cursor stays inside its app's run");
            a.cursor += 1;
            a.bytes -= victim.size;
            a.objects -= 1;
            victims.push(victim.key);
            self.stats.repair_evictions += 1;
        }
    }
}

/// `U_d = R(a) · e_d · l_d · p_d` at `now`, given the clamped rate.
fn utility_at(rate: f64, meta: &ObjectMeta, now: SimTime) -> f64 {
    let e_d = meta.remaining_ttl(now).as_secs_f64();
    let l_d = meta.fetch_latency.as_secs_f64();
    rate * e_d * l_d * meta.priority.get() as f64
}

impl EvictionPolicy for PacmPolicy {
    fn note_request(&mut self, app: AppId) {
        self.freq.record(app);
    }

    fn roll_window(&mut self, now: SimTime) {
        self.freq.roll(now);
    }

    fn evict_stats(&self) -> Option<EvictStats> {
        Some(self.stats)
    }

    fn select_victims(
        &mut self,
        store: &CacheStore,
        incoming: &ObjectMeta,
        now: SimTime,
    ) -> Vec<UrlHash> {
        self.stats.solver_runs += 1;

        // Each app's rate once per call, for the apps the store holds.
        let apps = store.app_totals();
        let mut rates = std::mem::take(&mut self.rates);
        rates.clear();
        if let Some((&last, _)) = apps.last_key_value() {
            if last.get() < DENSE_RATE_IDS {
                rates.resize(last.get() as usize + 1, f64::NAN);
                for &app in apps.keys() {
                    rates[app.get() as usize] = self.clamped_rate(app);
                }
            }
        }
        self.rates = rates;

        // Candidates in key order (the store iterates its BTreeMap).
        let mut candidates = std::mem::take(&mut self.candidates);
        candidates.clear();
        candidates.extend(store.iter().map(|e| Candidate {
            key: e.meta.key,
            app: e.meta.app,
            size: e.meta.size,
            utility: utility_at(self.call_rate(e.meta.app), &e.meta, now),
        }));
        self.candidates = candidates;
        debug_assert!(
            self.candidates.windows(2).all(|w| w[0].key < w[1].key),
            "store iteration must be key-ordered"
        );
        let n = self.candidates.len();
        self.stats.items_considered += n as u64;

        let capacity = store.capacity().saturating_sub(incoming.size);
        let granularity = self.config.granularity;
        assert!(granularity > 0, "granularity must be positive");
        let units = (capacity / granularity) as usize;

        // Reduction 1: zero-utility objects (expired) and objects whose
        // rounded weight exceeds the capacity are forced victims — the
        // seed DP's strict-improvement rule never keeps either.
        self.keep.clear();
        self.keep.resize(n, false);
        self.survivors.clear();
        let mut survivor_units = 0usize;
        for (i, c) in self.candidates.iter().enumerate() {
            assert!(
                c.utility.is_finite() && c.utility >= 0.0,
                "item values must be non-negative and finite"
            );
            let wi = c.size.div_ceil(granularity) as usize;
            if c.utility == 0.0 || wi > units {
                continue;
            }
            self.survivors.push((i as u32, wi));
            survivor_units = survivor_units.saturating_add(wi);
        }
        self.stats.forced_victims += (n - self.survivors.len()) as u64;

        if survivor_units <= units {
            // Reduction 2: every survivor fits, so keeping them all attains
            // the utility upper bound — provably optimal, DP skipped. The
            // running-total comparison reproduces the seed DP's float
            // absorption behavior exactly.
            self.stats.short_circuits += 1;
            let mut plateau = 0.0f64;
            for &(i, _) in &self.survivors {
                let candidate = plateau + self.candidates[i as usize].utility;
                if candidate > plateau {
                    self.keep[i as usize] = true;
                    plateau = candidate;
                }
            }
        } else {
            self.items.clear();
            self.items.extend(self.survivors.iter().map(|&(i, _)| {
                let c = &self.candidates[i as usize];
                KnapsackItem {
                    weight: c.size,
                    value: c.utility,
                }
            }));
            if solve_in(&mut self.workspace, &self.items, capacity, granularity).certified {
                self.stats.certified += 1;
            } else {
                self.stats.dp_runs += 1;
            }
            for (&(i, _), &k) in self.survivors.iter().zip(self.workspace.keep()) {
                self.keep[i as usize] = k;
            }
        }

        // The one allocation of a call: the list handed back.
        let mut victims = Vec::with_capacity(self.keep.iter().filter(|&&k| !k).count());
        victims.extend(
            self.candidates
                .iter()
                .zip(&self.keep)
                .filter(|(_, &k)| !k)
                .map(|(c, _)| c.key),
        );

        if self.fairness_enabled {
            self.repair(store, &mut victims);
        }
        victims
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::Priority;
    use crate::policy::{AdmitOutcome, CacheManager};
    use crate::store::Lookup;
    use ape_simnet::SimDuration;

    fn meta_for(url: &str, app: u32, size: u64, priority: Priority, expires_s: u64) -> ObjectMeta {
        ObjectMeta {
            key: UrlHash::of(url),
            app: AppId::new(app),
            size,
            priority,
            expires_at: SimTime::from_secs(expires_s),
            fetch_latency: SimDuration::from_millis(30),
        }
    }

    fn pacm_manager(capacity: u64) -> CacheManager<PacmPolicy> {
        CacheManager::new(
            CacheStore::new(capacity, 500_000),
            PacmPolicy::new(PacmConfig::default()),
        )
    }

    #[test]
    fn utility_follows_paper_formula() {
        let mut policy = PacmPolicy::new(PacmConfig::default());
        let app = AppId::new(1);
        for _ in 0..10 {
            policy.note_request(app);
        }
        policy.roll_window(SimTime::from_secs(60));
        // rate = 7.0 after one window at alpha 0.7.
        let meta = meta_for("u", 1, 1000, Priority::HIGH, 160);
        let now = SimTime::from_secs(60);
        let expected = 7.0 * 100.0 * 0.030 * 2.0;
        assert!((policy.utility(&meta, now) - expected).abs() < 1e-9);
    }

    #[test]
    fn expired_objects_have_zero_utility() {
        let policy = PacmPolicy::new(PacmConfig::default());
        let meta = meta_for("u", 1, 1000, Priority::HIGH, 10);
        assert_eq!(policy.utility(&meta, SimTime::from_secs(20)), 0.0);
    }

    #[test]
    fn high_priority_objects_survive_eviction() {
        let mut m = pacm_manager(10_000);
        // Same app, same size/TTL — only priority differs.
        for i in 0..8 {
            let p = if i < 4 { Priority::HIGH } else { Priority::LOW };
            let out = m.admit(meta_for(&format!("u{i}"), 1, 1200, p, 3600), SimTime::ZERO);
            assert!(matches!(out, AdmitOutcome::Stored { .. }), "u{i}: {out:?}");
        }
        // Cache now holds 9600/10000; admit one more high-priority object.
        let out = m.admit(
            meta_for("fresh", 1, 1200, Priority::HIGH, 3600),
            SimTime::from_secs(1),
        );
        let AdmitOutcome::Stored { evicted, .. } = out else {
            panic!("expected storage");
        };
        assert!(!evicted.is_empty());
        // All victims must be low-priority.
        for key in evicted {
            let idx = (0..8)
                .find(|i| UrlHash::of(&format!("u{i}")) == key)
                .expect("victim among u0..u7");
            assert!(idx >= 4, "evicted high-priority u{idx}");
        }
    }

    #[test]
    fn higher_frequency_apps_survive() {
        let config = PacmConfig {
            fairness_theta: 1.0, // isolate the frequency effect
            ..PacmConfig::default()
        };
        let mut m = CacheManager::new(CacheStore::new(4_000, 500_000), PacmPolicy::new(config));
        m.admit(meta_for("hot", 1, 1500, Priority::LOW, 3600), SimTime::ZERO);
        m.admit(
            meta_for("cold", 2, 1500, Priority::LOW, 3600),
            SimTime::ZERO,
        );
        for _ in 0..20 {
            m.note_request(AppId::new(1));
        }
        m.roll_window(SimTime::from_secs(60));
        let out = m.admit(
            meta_for("new", 3, 1500, Priority::LOW, 3600),
            SimTime::from_secs(61),
        );
        assert_eq!(
            out,
            AdmitOutcome::Stored {
                evicted: vec![UrlHash::of("cold")],
                purged: vec![]
            }
        );
        assert_eq!(
            m.lookup(UrlHash::of("hot"), SimTime::from_secs(62)),
            Lookup::Hit
        );
    }

    #[test]
    fn longer_ttl_and_latency_win_ties() {
        let config = PacmConfig {
            fairness_theta: 1.0,
            ..PacmConfig::default()
        };
        let mut m = CacheManager::new(CacheStore::new(4_000, 500_000), PacmPolicy::new(config));
        let mut short = meta_for("short", 1, 1500, Priority::LOW, 100);
        short.fetch_latency = SimDuration::from_millis(30);
        let mut long = meta_for("long", 1, 1500, Priority::LOW, 3600);
        long.fetch_latency = SimDuration::from_millis(30);
        m.admit(short, SimTime::ZERO);
        m.admit(long, SimTime::ZERO);
        let out = m.admit(
            meta_for("new", 1, 1500, Priority::LOW, 3600),
            SimTime::from_secs(1),
        );
        assert_eq!(
            out,
            AdmitOutcome::Stored {
                evicted: vec![UrlHash::of("short")],
                purged: vec![]
            }
        );
    }

    #[test]
    fn fairness_repair_bounds_gini() {
        // App 1 hoards the cache while app 2 is much more popular; with a
        // tight theta the repair pass must trim app 1's share.
        let config = PacmConfig {
            fairness_theta: 0.2,
            ..PacmConfig::default()
        };
        let mut policy = PacmPolicy::new(config);
        for _ in 0..30 {
            policy.note_request(AppId::new(2));
        }
        policy.roll_window(SimTime::from_secs(60));

        let mut store = CacheStore::new(20_000, 500_000);
        let now = SimTime::from_secs(61);
        for i in 0..6 {
            store.insert(
                meta_for(&format!("hog{i}"), 1, 2500, Priority::LOW, 3600),
                now,
            );
        }
        store.insert(meta_for("fair", 2, 2500, Priority::LOW, 3600), now);
        let incoming = meta_for("new", 2, 3000, Priority::LOW, 3600);
        let victims = policy.select_victims(&store, &incoming, now);
        // Repair must have evicted app-1 objects beyond pure capacity needs.
        let app1_victims = victims
            .iter()
            .filter(|k| (0..6).any(|i| UrlHash::of(&format!("hog{i}")) == **k))
            .count();
        assert!(app1_victims >= 1, "victims: {victims:?}");
        assert!(!victims.contains(&UrlHash::of("fair")));
        assert!(policy.stats().repair_evictions >= 1);
    }

    #[test]
    fn without_fairness_keeps_pure_knapsack() {
        let config = PacmConfig {
            fairness_theta: 0.0, // impossible bound
            ..PacmConfig::default()
        };
        let mut policy = PacmPolicy::new(config).without_fairness();
        let mut store = CacheStore::new(4_000, 500_000);
        store.insert(meta_for("a", 1, 1500, Priority::LOW, 3600), SimTime::ZERO);
        store.insert(meta_for("b", 2, 1500, Priority::LOW, 3600), SimTime::ZERO);
        let incoming = meta_for("new", 3, 1500, Priority::LOW, 3600);
        let victims = policy.select_victims(&store, &incoming, SimTime::ZERO);
        // Pure capacity: exactly one victim required.
        assert_eq!(victims.len(), 1);
    }

    #[test]
    fn select_is_deterministic() {
        let run = || {
            let mut m = pacm_manager(10_000);
            for i in 0..9 {
                m.admit(
                    meta_for(&format!("o{i}"), i % 3, 1100, Priority::LOW, 3600),
                    SimTime::from_secs(i as u64),
                );
            }
            match m.admit(
                meta_for("new", 1, 1100, Priority::HIGH, 3600),
                SimTime::from_secs(20),
            ) {
                AdmitOutcome::Stored { evicted, .. } => evicted,
                other => panic!("unexpected {other:?}"),
            }
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn capacity_respected_after_admission() {
        let mut m = pacm_manager(5_000);
        for i in 0..40 {
            let out = m.admit(
                meta_for(&format!("x{i}"), i % 5, 700, Priority::LOW, 3600),
                SimTime::from_secs(i as u64),
            );
            assert!(matches!(out, AdmitOutcome::Stored { .. }), "x{i}: {out:?}");
            assert!(m.store().used() <= m.store().capacity());
        }
    }

    #[test]
    #[should_panic(expected = "theta")]
    fn negative_theta_rejected() {
        let _ = PacmPolicy::new(PacmConfig {
            fairness_theta: -0.1,
            ..PacmConfig::default()
        });
    }

    #[test]
    fn expired_objects_alone_skip_the_solver() {
        // Three live objects (6000 B) + three expired (3600 B) in a
        // 10 kB store; the incoming 3000 B object needs only the expired
        // space, so the answer is forced: evict exactly the expired set,
        // run no DP.
        let mut policy = PacmPolicy::new(PacmConfig::default());
        let mut store = CacheStore::new(10_000, 500_000);
        for i in 0..3 {
            store.insert(
                meta_for(&format!("live{i}"), 1, 2000, Priority::LOW, 3600),
                SimTime::ZERO,
            );
            store.insert(
                meta_for(&format!("dead{i}"), 2, 1200, Priority::LOW, 10),
                SimTime::ZERO,
            );
        }
        let now = SimTime::from_secs(30);
        let incoming = meta_for("new", 3, 3000, Priority::LOW, 3600);
        let mut victims = policy.select_victims(&store, &incoming, now);
        victims.sort();
        let mut expected: Vec<UrlHash> = (0..3).map(|i| UrlHash::of(&format!("dead{i}"))).collect();
        expected.sort();
        assert_eq!(victims, expected);
        let stats = policy.stats();
        assert_eq!(
            stats.certified + stats.dp_runs,
            0,
            "forced answer must not run a solver"
        );
        assert_eq!(stats.short_circuits, 1);
        assert_eq!(stats.forced_victims, 3);
    }

    #[test]
    fn stats_attribute_solver_paths() {
        let mut m = pacm_manager(5_000);
        for i in 0..12 {
            let _ = m.admit(
                meta_for(&format!("s{i}"), i % 4, 900, Priority::LOW, 3600),
                SimTime::from_secs(i as u64),
            );
        }
        let stats = m.policy().evict_stats().expect("pacm reports stats");
        assert!(stats.solver_runs > 0);
        assert_eq!(
            stats.solver_runs,
            stats.certified + stats.dp_runs + stats.short_circuits,
            "every run resolves through exactly one solver path: {stats:?}"
        );
        assert!(stats.items_considered > 0);
    }
}
