//! `repro profile` — where the host CPU goes when the simulator runs.
//!
//! Runs the standard sweep workload for all four systems with the sim-loop
//! self-profiler on ([`World::enable_profiler`]
//! (ape_simnet::World::enable_profiler)) and renders each system's
//! host-time attribution table: queue pops, node dispatch, link/fault
//! resolution, trace recording, metric recording and cache eviction, with
//! the node callbacks' own logic computed by subtraction. This is the
//! ROADMAP item-2 instrument: before making the loop faster, see which
//! subsystem is actually paying for each simulated minute.
//!
//! The runs execute one after another on the calling thread whatever
//! `--threads` says: attribution taken while sibling runs compete for the
//! host's cores reads contention, not the simulator.
//!
//! Simulation outputs are identical with the profiler on or off (the
//! `profiler_does_not_change_fingerprints` test in `ape-simnet` pins it);
//! only the wall-clock attribution varies run to run, like every number in
//! this crate's benches.

use std::fmt::Write as _;

use ape_appdag::DummyAppConfig;
use apecache::System;

use crate::experiments::{base_config, ReproOptions};

/// Number of apps in the profiled workload (matches the table sweeps).
const PROFILE_APPS: usize = 30;

/// Runs all four systems serially with the self-profiler enabled and
/// renders the per-system host-time tables.
pub fn profile(opts: &ReproOptions) -> String {
    let configs = System::ALL.map(|system| {
        let mut config = base_config(system, opts, &DummyAppConfig::default(), PROFILE_APPS);
        config.profiler = true;
        config
    });
    let serial = ReproOptions {
        threads: 1,
        ..*opts
    };
    let results = serial.run(&configs);

    let mut out = String::from(
        "Sim-loop self-profile: host time by simulator subsystem\n\
         (wall-clock attribution only; simulation outputs are unchanged)\n",
    );
    for result in &results {
        let report = &result.profile;
        let events: u64 = report.calls(ape_simnet::ProfCategory::Dispatch);
        let _ = writeln!(
            out,
            "\n=== {} ({} dispatches, {:.1} ms host loop time) ===",
            result.system.label(),
            events,
            report.loop_nanos() as f64 / 1e6,
        );
        out.push_str(&report.to_string());
    }
    out
}
