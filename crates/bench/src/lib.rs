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
mod profile;
pub mod progmodel;
mod scale_bench;
mod tracing;

pub use evict_bench::bench_evict;
pub use experiments::{
    ablations, fig11a, fig11c, fig12, fig13a, fig13b, fig13c, fig14, fig2, object_level, speedup,
    table2, table4, table5, table6, ReproOptions, SweepRow,
};
pub use faults::faults;
pub use lookup_overhead::fig11b;
pub use profile::profile;
pub use scale_bench::bench_scale;
pub use tracing::{trace_artifacts, traced_config, TraceArtifacts};

use std::io;
use std::path::{Path, PathBuf};

use apecache::measure_table1;

/// Writes a `repro bench-*` artifact and returns the path written. A full
/// run replaces the committed file at the repository root; a quick run goes
/// to `target/repro-quick/`, so a smoke never dirties a committed artifact.
pub(crate) fn write_artifact(name: &str, json: &str, quick: bool) -> io::Result<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the repo root");
    write_artifact_under(root, name, json, quick)
}

fn write_artifact_under(root: &Path, name: &str, json: &str, quick: bool) -> io::Result<PathBuf> {
    let dir = if quick {
        root.join("target/repro-quick")
    } else {
        root.to_path_buf()
    };
    let path = dir.join(name);
    let write = || {
        if quick {
            // Only the quick directory is ours to create; the root must exist.
            std::fs::create_dir_all(&dir)?;
        }
        std::fs::write(&path, json)
    };
    write().map_err(|err| io::Error::new(err.kind(), format!("{}: {err}", path.display())))?;
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

    /// A fresh directory under the system temp dir, removed on drop.
    struct TempRoot(PathBuf);

    impl TempRoot {
        fn new(tag: &str) -> TempRoot {
            let dir = std::env::temp_dir().join(format!("ape-bench-{}-{tag}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("temp dir is creatable");
            TempRoot(dir)
        }
    }

    impl Drop for TempRoot {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn quick_and_full_artifacts_never_share_a_path() {
        let root = TempRoot::new("split");
        let full = root.0.join("BENCH_x.json");
        let quick = root.0.join("target/repro-quick/BENCH_x.json");

        let written = write_artifact_under(&root.0, "BENCH_x.json", "quick", true).unwrap();
        assert_eq!(written, quick);
        assert_eq!(std::fs::read_to_string(&quick).unwrap(), "quick");
        assert!(!full.exists(), "a quick run must not create the root file");

        let written = write_artifact_under(&root.0, "BENCH_x.json", "full", false).unwrap();
        assert_eq!(written, full);
        assert_eq!(std::fs::read_to_string(&full).unwrap(), "full");
        assert_eq!(std::fs::read_to_string(&quick).unwrap(), "quick");

        write_artifact_under(&root.0, "BENCH_x.json", "quick again", true).unwrap();
        assert_eq!(std::fs::read_to_string(&full).unwrap(), "full");
    }

    /// `--quick` alone decides where a sweep writes: `--micro-trials 50`
    /// is still a full run, `--quick --micro-trials 100` still a quick one.
    #[test]
    fn quick_is_carried_by_the_flag_not_inferred_from_micro_trials() {
        let full = ReproOptions {
            micro_trials: 50,
            ..ReproOptions::default()
        };
        let quick = ReproOptions {
            micro_trials: 100,
            ..ReproOptions::quick()
        };
        let root = TempRoot::new("flag");
        let at = |opts: &ReproOptions| {
            write_artifact_under(&root.0, "BENCH_x.json", "{}", opts.quick).unwrap()
        };
        assert_eq!(at(&full), root.0.join("BENCH_x.json"));
        assert_eq!(at(&quick), root.0.join("target/repro-quick/BENCH_x.json"));
    }

    #[test]
    fn unwritable_directory_is_an_error() {
        let root = TempRoot::new("unwritable");
        // `target` is a regular file, so the quick directory cannot exist.
        std::fs::write(root.0.join("target"), "").unwrap();
        let err = write_artifact_under(&root.0, "BENCH_x.json", "{}", true).unwrap_err();
        assert!(err.to_string().contains("BENCH_x.json"), "{err}");

        let missing = root.0.join("no-such-dir");
        assert!(write_artifact_under(&missing, "BENCH_x.json", "{}", false).is_err());
        assert!(!missing.exists(), "a full run must not create its root");
    }
}
