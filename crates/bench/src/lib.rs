//! # ape-bench — regenerating every table and figure of the APE-CACHE paper
//!
//! Each public `table*`/`fig*` function reproduces one artifact of the
//! paper's evaluation (§V) and returns it as formatted text; the `repro`
//! binary dispatches on artifact names. The experiment index in
//! `DESIGN.md` maps each artifact to the modules it exercises.
//!
//! None of these functions assert paper-exact numbers — the substrate is a
//! simulator, not the authors' testbed — but the integration tests under
//! `tests/` pin the qualitative shape (who wins, by roughly what factor).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod evict_bench;
mod experiments;
mod faults;
mod fleet_bench;
mod lookup_overhead;
pub mod microbench;
mod profile;
pub mod progmodel;
mod scale_bench;
mod simworld_bench;
mod tracing;

pub use evict_bench::bench_evict;
pub use experiments::{
    ablations, fig11a, fig11c, fig12, fig13a, fig13b, fig13c, fig14, fig2, object_level, speedup,
    table2, table4, table5, table6, ReproOptions, SweepRow,
};
pub use faults::faults;
pub use fleet_bench::bench_fleet;
pub use lookup_overhead::fig11b;
pub use profile::profile;
pub use scale_bench::bench_scale;
pub use simworld_bench::bench_simworld;
pub use tracing::{trace_artifacts, traced_config, TraceArtifacts};

use apecache::measure_table1;

/// Regenerates Table I (Akamai-style CDN measurement from three vantage
/// points) by running DNS resolutions and TCP handshakes through the
/// calibrated mini-Internet.
pub fn table1(opts: &ReproOptions) -> String {
    let mut out = String::from(
        "Table I: Performance Measurement of CDN-style Edge Caching\n\
         (simulated mini-Internet calibrated to the paper's paths)\n\n",
    );
    out.push_str(&format!(
        "{:<20} {:<10} {:>14} {:>10} {:>6}\n",
        "Location", "Site", "DNS res. (ms)", "RTT (ms)", "Hops"
    ));
    for cell in measure_table1(opts.micro_trials, opts.seed) {
        out.push_str(&format!(
            "{:<20} {:<10} {:>14.1} {:>10.1} {:>6}\n",
            cell.region, cell.site, cell.dns_resolution_ms, cell.rtt_ms, cell.hops
        ));
    }
    out
}

/// Regenerates Table VII (programming-effort comparison) from the two
/// shipped programming-model implementations.
pub fn table7() -> String {
    progmodel::table7()
}
