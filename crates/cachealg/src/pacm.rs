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
//! exactness argument). One walk over the store computes every object's
//! utility and rounded units and loads the survivors straight into the
//! workspace:
//!
//! * objects with zero utility (expired, zero TTL/latency) or whose rounded
//!   weight exceeds the knapsack capacity are forced victims — the seed DP
//!   provably never keeps them;
//! * when the surviving objects all fit the post-insertion capacity the
//!   keep-everything solution attains the utility upper bound, so the DP is
//!   skipped (an absorption-aware scan reproduces the DP's float behavior
//!   bit for bit);
//! * otherwise the certified search of [`crate::solve_in`] looks for the
//!   cheapest set of survivors to evict and keeps the rest when that set
//!   is certified unique — no other set comes within the float-error
//!   margin δ of it, so the DP would return the same keep flags;
//! * only when the certificate fails does the plain DP run, the seed's
//!   recurrence over the whole table, on the surviving subset, in the
//!   workspace.
//!
//! Each app's clamped rate `R(a)` is read once per call, not once per
//! cached object, and the utilities multiply in the same order, so every
//! utility keeps its bits.
//!
//! The fairness repair starts from the store's per-app `(bytes, objects)`
//! totals ([`CacheStore::app_totals`]) less the knapsack's victims. Its
//! first check, which most calls pass, compares a sort-free estimate of
//! the Gini with θ and sorts the shares only when the two are within the
//! estimate's float-error margin or the bound is violated. From there the
//! shares stay sorted, each check is the seed's own rank-weighted sum in
//! O(A), the kept objects are bucketed by app once, and only the apps the
//! repair takes from are ordered by `(utility, key)`. The policy keeps no
//! view of the store between calls, so on any store, however it was
//! filled, it picks what a fresh policy with the same frequencies picks.
//!
//! Every reduction preserves the victim set byte for byte; the
//! `pacm_equivalence` property suite pins this against the frozen seed
//! implementation, which lives with the tests (`tests/support/reference.rs`).

use ape_dnswire::UrlHash;
use ape_simnet::SimTime;

use crate::freq::FrequencyTracker;
use crate::gini::{gini_estimate, gini_of_sorted, sorted_gini_estimate};
use crate::knapsack::{solve_loaded, KnapsackWorkspace};
use crate::object::{AppId, ObjectMeta};
use crate::policy::EvictionPolicy;
use crate::store::CacheStore;

/// EWMA smoothing for request frequency (paper §IV-C: 0.7).
pub const ALPHA: f64 = 0.7;

/// Floor applied to `R(a)` in utilities and storage efficiency so
/// never-measured apps neither zero out nor blow up the formulas.
pub const MIN_RATE: f64 = 0.05;

/// App ids below this get a dense id-to-slot table; a store holding a
/// larger id finds each object's app by binary search instead.
const DENSE_APP_IDS: u32 = 1 << 16;

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
/// and the host wall-clock the solver burns is charged to the sim-loop
/// profiler's `ProfCategory::Evict`, which `benchmark/` reads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvictStats {
    /// `select_victims` invocations.
    pub solver_runs: u64,
    /// Cached objects examined across all invocations.
    pub items_considered: u64,
    /// Invocations decided by the certified cover search
    /// ([`crate::solve_in`]).
    pub certified: u64,
    /// Invocations the plain DP decided: the search was not certified.
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
    size: u64,
    utility: f64,
    /// The object's app, as its position in `PacmPolicy::apps`.
    slot: u32,
    /// Loaded into the solver: not a forced victim.
    survives: bool,
    kept: bool,
}

/// One app the store holds, during a call.
#[derive(Debug, Clone, Copy)]
struct AppSlot {
    app: AppId,
    /// `max(R(a), MIN_RATE)`.
    rate: f64,
    /// Kept bytes and objects: the store's totals less the victims so far.
    bytes: u64,
    objects: u32,
    /// Storage efficiency `C_a = bytes / rate`, kept current by the repair.
    share: f64,
    /// Position in `PacmPolicy::kept` of the app's next repair victim.
    next: u32,
    /// Whether the app's run of `kept` is sorted by `(utility, key)`.
    ordered: bool,
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
    /// The store's apps by id, rebuilt every call.
    apps: Vec<AppSlot>,
    /// Slot in `apps` by raw app id while every id is below
    /// [`DENSE_APP_IDS`]; cells of apps the store lacks are stale.
    slot_of: Vec<u32>,
    /// Reusable per-call buffers.
    candidates: Vec<Candidate>,
    /// Storage efficiency of the apps with kept objects, in app order.
    shares: Vec<f64>,
    /// The slots of the apps with kept objects by ascending share, then
    /// ascending slot, and their shares in that order.
    ranked: Vec<u32>,
    ranked_shares: Vec<f64>,
    /// Kept candidates bucketed by app, built once per repair: each its
    /// utility's bits above its index in `candidates`.
    kept: Vec<u128>,
    stats: EvictStats,
}

impl PacmPolicy {
    /// Creates a PACM policy.
    ///
    /// # Panics
    ///
    /// Panics if the config's `fairness_theta` is negative or its
    /// `granularity` is zero.
    pub fn new(config: PacmConfig) -> Self {
        assert!(config.fairness_theta >= 0.0, "theta must be non-negative");
        assert!(config.granularity > 0, "granularity must be positive");
        PacmPolicy {
            freq: FrequencyTracker::new(ALPHA),
            config,
            fairness_enabled: true,
            workspace: KnapsackWorkspace::new(),
            apps: Vec::new(),
            slot_of: Vec::new(),
            candidates: Vec::new(),
            shares: Vec::new(),
            ranked: Vec::new(),
            ranked_shares: Vec::new(),
            kept: Vec::new(),
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
        utility_at(self.freq.rate(meta.app).max(MIN_RATE), meta, now)
    }

    /// Rebuilds `apps` from the store's per-app totals, reading each
    /// clamped rate once by a merge with the tracker's rates (both go by
    /// app id), and returns whether `slot_of` indexes them.
    fn load_apps(&mut self, store: &CacheStore) -> bool {
        self.apps.clear();
        let mut rates = self.freq.rates().peekable();
        for (&app, &(bytes, objects)) in store.app_totals() {
            while rates.next_if(|&(a, _)| a < app).is_some() {}
            let rate = rates.next_if(|&(a, _)| a == app).map_or(0.0, |(_, r)| r);
            self.apps.push(AppSlot {
                app,
                rate: rate.max(MIN_RATE),
                bytes,
                objects,
                share: 0.0,
                next: 0,
                ordered: false,
            });
        }
        let Some(last) = self.apps.last() else {
            return false;
        };
        if last.app.get() >= DENSE_APP_IDS {
            return false;
        }
        let len = last.app.get() as usize + 1;
        if self.slot_of.len() < len {
            self.slot_of.resize(len, 0);
        }
        for (slot, a) in self.apps.iter().enumerate() {
            self.slot_of[a.app.get() as usize] = slot as u32;
        }
        true
    }

    /// The Gini of the kept set's storage efficiency, bit for bit what
    /// [`crate::gini::gini_in_place`] returns on the shares in app order:
    /// the same total, summed in app order, and the same rank-weighted sum
    /// over the same ascending values.
    fn kept_gini(&self) -> f64 {
        if self.ranked.len() <= 1 {
            return 0.0;
        }
        let total: f64 = self
            .apps
            .iter()
            .filter(|a| a.objects > 0)
            .map(|a| a.share)
            .sum();
        if total <= 0.0 {
            return 0.0;
        }
        gini_of_sorted(self.ranked_shares.iter().copied(), total)
    }

    /// Buckets the kept candidates by app: a counting sort on the slot.
    /// Leaves each app's `next` at its bucket.
    fn bucket_kept(&mut self) {
        let mut start = 0;
        for a in &mut self.apps {
            a.next = start;
            start += a.objects;
        }
        self.kept.clear();
        self.kept.resize(start as usize, 0);
        for (i, c) in self.candidates.iter().enumerate() {
            if c.kept {
                let a = &mut self.apps[c.slot as usize];
                self.kept[a.next as usize] = u128::from(c.utility.to_bits()) << 32 | i as u128;
                a.next += 1;
            }
        }
        for a in &mut self.apps {
            a.next -= a.objects;
        }
    }

    /// Fairness repair over the kept set, appending victims in place.
    ///
    /// Reproduces the seed loop decision for decision: while the Gini of
    /// per-app storage efficiency exceeds θ, take the most over-served app
    /// (last among equals, as `Iterator::max_by`) and evict its
    /// `(utility, key)`-minimal kept object. The seed rebuilds its per-app
    /// map and sorts the shares on every check. Here the first check is
    /// the sort-free [`gini_estimate`]. After it the shares stay in
    /// `ranked`, so each later check is the O(A) [`sorted_gini_estimate`],
    /// the worst app is the last entry, and a step moves that entry alone,
    /// by insertion. Within either estimate's margin of θ the exact
    /// [`Self::kept_gini`] decides. The kept objects are bucketed by app
    /// at the first violation, and an app's bucket is ordered when the
    /// repair first takes from it.
    fn repair(&mut self, victims: &mut Vec<UrlHash>) {
        // Byte sums are exact u64s; the seed's f64 accumulation is
        // integer-exact in the same range.
        debug_assert!(
            self.apps.iter().all(|a| a.bytes < (1u64 << 53)),
            "per-app byte totals must stay f64-integer-exact"
        );
        let theta = self.config.fairness_theta;
        self.shares.clear();
        for a in self.apps.iter_mut().filter(|a| a.objects > 0) {
            a.share = a.bytes as f64 / a.rate;
            self.shares.push(a.share);
        }
        let total: f64 = self.shares.iter().sum();
        // One app, or no bytes: the Gini is 0, within any θ.
        if self.shares.len() <= 1 || total <= 0.0 {
            return;
        }
        // The first check, which most calls pass, needs no sort unless
        // the Gini is within float error of θ.
        let (estimate, margin) = gini_estimate(&self.shares, total);
        let clear = (estimate - theta).abs() > margin;
        if clear && estimate <= theta {
            return;
        }

        // Shares are finite and never `-0.0`, so `total_cmp` is the
        // seed's `partial_cmp`.
        let apps = &self.apps;
        self.ranked.clear();
        self.ranked
            .extend((0..apps.len() as u32).filter(|&slot| apps[slot as usize].objects > 0));
        self.ranked.sort_unstable_by(|&x, &y| {
            (apps[x as usize].share.total_cmp(&apps[y as usize].share)).then(x.cmp(&y))
        });
        self.ranked_shares.clear();
        self.ranked_shares
            .extend(self.ranked.iter().map(|&slot| apps[slot as usize].share));
        // Evict only while F(A) > θ, like the seed's `while`; Gini is
        // always finite in [0, 1] so `<=` is its exact negation.
        if !clear && self.kept_gini() <= theta {
            return;
        }
        self.bucket_kept();
        loop {
            if self.ranked.len() <= 1 {
                break;
            }
            let worst = self.ranked.pop().expect("two or more apps");
            self.ranked_shares.pop();
            let a = &mut self.apps[worst as usize];
            let run = &mut self.kept[a.next as usize..][..a.objects as usize];
            if !a.ordered {
                // The seed's `(utility, key)` order: kept utilities are
                // positive, so their bits order as they do, and candidates
                // are in key order.
                run.sort_unstable();
                a.ordered = true;
            }
            let victim = self.candidates[run[0] as u32 as usize];
            a.next += 1;
            a.bytes -= victim.size;
            a.objects -= 1;
            victims.push(victim.key);
            self.stats.repair_evictions += 1;
            if a.objects > 0 {
                a.share = a.bytes as f64 / a.rate;
                let mut at = self.ranked_shares.partition_point(|&s| s < a.share);
                while at < self.ranked.len()
                    && self.ranked_shares[at] == a.share
                    && self.ranked[at] < worst
                {
                    at += 1;
                }
                self.ranked.insert(at, worst);
                self.ranked_shares.insert(at, a.share);
            }
            if !self.violates(theta) {
                break;
            }
        }
    }

    /// Whether the Gini of `ranked` exceeds θ: decided by
    /// [`sorted_gini_estimate`] when it is clear of θ by its margin, and
    /// by the exact [`Self::kept_gini`] otherwise.
    fn violates(&self, theta: f64) -> bool {
        if self.ranked.len() >= 2 {
            let (estimate, margin) = sorted_gini_estimate(&self.ranked_shares);
            if (estimate - theta).abs() > margin {
                return estimate > theta;
            }
        }
        self.kept_gini() > theta
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
        let dense = self.load_apps(store);
        let capacity = store.capacity().saturating_sub(incoming.size);
        let granularity = self.config.granularity;
        let units = (capacity / granularity) as usize;

        // One walk over the store, in key order (it iterates its BTreeMap).
        // Reduction 1: zero-utility objects (expired) and objects whose
        // rounded weight exceeds the capacity are forced victims — the
        // seed DP's strict-improvement rule never keeps either. The rest,
        // the survivors, load straight into the solver's workspace.
        let n = store.len();
        let (apps, slot_of) = (&self.apps, &self.slot_of);
        let (candidates, workspace) = (&mut self.candidates, &mut self.workspace);
        candidates.clear();
        workspace.clear_items(n, units);
        let (mut survivors, mut survivor_units) = (0usize, 0usize);
        for e in store.iter() {
            let meta = &e.meta;
            let slot = if dense {
                slot_of[meta.app.get() as usize]
            } else {
                apps.binary_search_by_key(&meta.app, |a| a.app)
                    .expect("the store totals every cached app") as u32
            };
            let utility = utility_at(apps[slot as usize].rate, meta, now);
            assert!(
                utility.is_finite() && utility >= 0.0,
                "item values must be non-negative and finite"
            );
            let wi = meta.size.div_ceil(granularity) as usize;
            let survives = utility > 0.0 && wi <= units;
            if survives {
                workspace.push_item(utility, wi);
                survivors += 1;
                survivor_units = survivor_units.saturating_add(wi);
            }
            candidates.push(Candidate {
                key: meta.key,
                size: meta.size,
                utility,
                slot,
                survives,
                kept: false,
            });
        }
        debug_assert!(
            self.candidates.windows(2).all(|w| w[0].key < w[1].key),
            "store iteration must be key-ordered"
        );
        self.stats.items_considered += n as u64;
        self.stats.forced_victims += (n - survivors) as u64;

        let survivors = self.candidates.iter_mut().filter(|c| c.survives);
        if survivor_units <= units {
            // Reduction 2: every survivor fits, so keeping them all attains
            // the utility upper bound — provably optimal, DP skipped. The
            // running-total comparison reproduces the seed DP's float
            // absorption behavior exactly.
            self.stats.short_circuits += 1;
            let mut plateau = 0.0f64;
            for c in survivors {
                let candidate = plateau + c.utility;
                if candidate > plateau {
                    c.kept = true;
                    plateau = candidate;
                }
            }
        } else {
            if solve_loaded(&mut self.workspace) {
                self.stats.certified += 1;
            } else {
                self.stats.dp_runs += 1;
            }
            for (c, &k) in survivors.zip(self.workspace.keep()) {
                c.kept = k;
            }
        }

        // The one allocation of a call: the list handed back. Each victim
        // leaves its app's kept totals.
        let mut victims = Vec::with_capacity(self.candidates.iter().filter(|c| !c.kept).count());
        for c in &self.candidates {
            if !c.kept {
                victims.push(c.key);
                let a = &mut self.apps[c.slot as usize];
                a.bytes -= c.size;
                a.objects -= 1;
            }
        }

        if self.fairness_enabled {
            self.repair(&mut victims);
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
    #[should_panic(expected = "granularity")]
    fn zero_granularity_rejected() {
        let _ = PacmPolicy::new(PacmConfig {
            granularity: 0,
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
