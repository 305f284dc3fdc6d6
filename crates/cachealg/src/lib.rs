//! # ape-cachealg — APE-CACHE cache-management algorithms
//!
//! The cache layer of the reproduction, isolated from the network simulator
//! so every policy decision is unit-testable:
//!
//! * [`CacheStore`] — the AP's bounded object cache with TTL expiry and the
//!   paper's 500 KB block list,
//! * [`PacmPolicy`] — Priority-Aware Cache Management (§IV-C): utility
//!   `U_d = R(A_d)·e_d·l_d·p_d`, an exact knapsack keep-set, and a Gini
//!   fairness bound on per-app storage efficiency,
//! * [`LruPolicy`] — the baseline used by Wi-Cache and APE-CACHE-LRU,
//! * [`CacheManager`] — store + policy, the AP's cache-management module.
//!
//! ## Example
//!
//! ```
//! use ape_cachealg::{
//!     AdmitOutcome, AppId, CacheManager, CacheStore, Lookup, ObjectMeta, PacmConfig,
//!     PacmPolicy, Priority,
//! };
//! use ape_dnswire::UrlHash;
//! use ape_simnet::{SimDuration, SimTime};
//!
//! let mut manager = CacheManager::new(
//!     CacheStore::new(5_000_000, 500_000),
//!     PacmPolicy::new(PacmConfig::default()),
//! );
//! let meta = ObjectMeta {
//!     key: UrlHash::of("http://api.movie.example/thumb?id=42"),
//!     app: AppId::new(1),
//!     size: 80_000,
//!     priority: Priority::HIGH,
//!     expires_at: SimTime::from_secs(1800),
//!     fetch_latency: SimDuration::from_millis(35),
//! };
//! assert!(matches!(
//!     manager.admit(meta.clone(), SimTime::ZERO),
//!     AdmitOutcome::Stored { .. }
//! ));
//! assert_eq!(manager.lookup(meta.key, SimTime::from_secs(1)), Lookup::Hit);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod freq;
mod gini;
mod knapsack;
mod lru;
mod object;
pub mod pacm;
mod policy;
mod store;

pub use freq::FrequencyTracker;
pub use gini::{gini, gini_in_place};
pub use knapsack::{solve_exact_in, solve_in, KnapsackItem, KnapsackWorkspace, Solved};
pub use lru::LruPolicy;
pub use object::{AppId, ObjectMeta, Priority};
pub use pacm::{EvictStats, PacmConfig, PacmPolicy};
pub use policy::{AdmitOutcome, CacheManager, EvictionPolicy};
pub use store::{CacheStore, Entry, Lookup};
