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
// The measurement harness is the one place that reads the host clock; its
// readings are reported beside simulated results and never fed into them.
#![allow(clippy::disallowed_methods)]

mod evict_bench;
mod experiments;
mod faults;
mod lookup_overhead;
pub mod progmodel;
mod scale_bench;
mod tracing;

pub use evict_bench::{bench_evict, evict_document, evict_stores, evict_training};
pub use experiments::{
    ablation_configs, ablations, fig11a, fig11c, fig12, fig13a, fig13b, fig13c, fig14, fig2,
    object_level, table2, table4, table5, table6, ReproOptions, SweepRow,
};
pub use faults::faults;
pub use lookup_overhead::fig11b;
pub use scale_bench::{bench_scale, scale_document};
pub use tracing::{trace_artifacts, traced_config, TraceArtifacts};

use std::io;
use std::path::{Path, PathBuf};

use apecache::measure_table1;

/// Writes a `repro bench-*` artifact over the committed file at the
/// repository root and returns the path written.
pub(crate) fn write_artifact(name: &str, json: &str) -> io::Result<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the repo root");
    write_artifact_under(root, name, json)
}

/// The root must exist: a sweep never creates the directory it writes to.
fn write_artifact_under(root: &Path, name: &str, json: &str) -> io::Result<PathBuf> {
    let path = root.join(name);
    std::fs::write(&path, json)
        .map_err(|err| io::Error::new(err.kind(), format!("{}: {err}", path.display())))?;
    Ok(path)
}

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritable_directory_is_an_error() {
        let root = std::env::temp_dir().join(format!("ape-bench-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("temp dir is creatable");

        let written = write_artifact_under(&root, "BENCH_x.json", "{}").unwrap();
        assert_eq!(written, root.join("BENCH_x.json"));
        assert_eq!(std::fs::read_to_string(&written).unwrap(), "{}");

        let missing = root.join("no-such-dir");
        let err = write_artifact_under(&missing, "BENCH_x.json", "{}").unwrap_err();
        assert!(err.to_string().contains("BENCH_x.json"), "{err}");
        assert!(!missing.exists(), "a sweep must not create its root");
        let _ = std::fs::remove_dir_all(&root);
    }
}
