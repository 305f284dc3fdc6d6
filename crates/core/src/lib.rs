//! # apecache — AP + Edge caching for millisecond-level app latency
//!
//! A from-scratch Rust reproduction of **APE-CACHE** (ICDCS 2024): a
//! lightweight caching architecture running directly on WiFi access
//! points, interposed between mobile clients and conventional edge caches.
//!
//! The three contributions, and where they live:
//!
//! * **PACM** — priority-aware cache management —
//!   [`ape_cachealg::PacmPolicy`];
//! * **DNS-Cache** — AP cache lookups piggybacked on DNS queries —
//!   [`ape_dnswire`] (wire format) and [`ape_nodes::ApNode`] /
//!   [`ape_nodes::ClientNode`] (runtime);
//! * **declarative programming model** — the client-side `Cacheable`
//!   registry built from app DAG annotations — [`ape_appdag`] +
//!   [`ape_nodes::ClientNode`].
//!
//! This crate is the public face: it assembles the paper's Fig. 9 testbed
//! over the deterministic simulator, runs any of the four evaluated
//! systems (APE-CACHE, APE-CACHE-LRU, Wi-Cache, Edge Cache) under
//! identical workloads, and extracts the measurements behind every table
//! and figure of the paper's evaluation.
//!
//! ## Quickstart
//!
//! ```
//! use apecache::{synthetic_suite, run_system, System, TestbedConfig};
//! use ape_appdag::DummyAppConfig;
//! use ape_simnet::SimDuration;
//! use ape_workload::ScheduleConfig;
//!
//! let apps = synthetic_suite(5, &DummyAppConfig::default(), 7);
//! let mut config = TestbedConfig::new(System::ApeCache, apps);
//! config.schedule = ScheduleConfig { apps: 5, ..ScheduleConfig::default() };
//! let mut result = run_system(&config, SimDuration::from_mins(1));
//! let summary = result.summary();
//! assert!(summary.executions > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod internet;
pub mod router;
mod run;
mod suite;
mod system;
mod testbed;
mod topology;
mod trace;

pub use internet::{measure_cell, measure_table1, table1_paths, PathSpec, Table1Cell};
pub use router::{replay_summary, replay_trace, RouterSample};
pub use run::{collect, collect_topology, parallel_map, run_system, undrained, RunResult, Summary};
pub use suite::{paper_suite, synthetic_suite};
pub use system::System;
pub use testbed::{build, Testbed, TestbedConfig};
pub use topology::{build_topology, grid_neighbors, grid_pos, grid_side, Topology, TopologyConfig};
pub use trace::{Attribution, BucketStat, TraceLog};
