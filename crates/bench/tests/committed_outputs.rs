//! The committed run outputs are current: each test regenerates one at
//! the default options and compares it with the file in the repository.
//! A failure names the stale file and how to regenerate it.

use std::path::{Path, PathBuf};
use std::process::Command;

use ape_bench::{evict_document, scale_document, trace_artifacts, ReproOptions};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn committed(path: &str) -> String {
    std::fs::read_to_string(repo_root().join(path))
        .unwrap_or_else(|err| panic!("{path} is not readable: {err}"))
}

/// Panics naming `path`, the first line where `regenerated` leaves the
/// committed text, and the command that rewrites it.
#[track_caller]
fn assert_current(path: &str, committed: &str, regenerated: &str, regenerate: &str) {
    if committed == regenerated {
        return;
    }
    let same = committed
        .lines()
        .zip(regenerated.lines())
        .take_while(|(theirs, ours)| theirs == ours)
        .count();
    let line = |text: &str| text.lines().nth(same).unwrap_or("<end of file>").to_owned();
    panic!(
        "{path} is stale at line {}\n  committed:   {}\n  regenerated: {}\n\
         regenerate it with `{regenerate}`",
        same + 1,
        line(committed),
        line(regenerated),
    );
}

#[test]
fn repro_all_matches_docs() {
    let run = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("all")
        .output()
        .expect("repro runs");
    assert!(run.status.success(), "repro all exited with {}", run.status);
    let path = "docs/repro_all_default.txt";
    assert_current(
        path,
        &committed(path),
        &String::from_utf8(run.stdout).expect("repro prints UTF-8"),
        "cargo run --release -p ape-bench --bin repro -- all > docs/repro_all_default.txt",
    );
}

#[test]
fn default_traced_run_matches_docs_trace() {
    let artifacts = trace_artifacts(&ReproOptions::default());
    let regenerate = "cargo run --release -p ape-bench --bin repro -- --trace-out DIR trace \
                      (the sample is `head -n 1000 DIR/trace.jsonl`)";
    let sample: String = artifacts.jsonl.split_inclusive('\n').take(1000).collect();
    for (path, regenerated) in [
        ("docs/trace/critical-paths.txt", &artifacts.report),
        ("docs/trace/metrics.prom", &artifacts.prometheus),
        ("docs/trace/trace.sample.jsonl", &sample),
    ] {
        assert_current(path, &committed(path), regenerated, regenerate);
    }
}

#[test]
fn bench_scale_matches_committed_file() {
    let path = "BENCH_scale.json";
    assert_current(
        path,
        &committed(path),
        &scale_document(ReproOptions::default().seed),
        "cargo run --release -p ape-bench --bin repro -- bench-scale",
    );
}

/// Everything in a `BENCH_evict.json` cell up to its host timing is a
/// function of the seed: victims, store size and solver counters must
/// repeat the committed file's, cell for cell. `cachealg::reference` is
/// the oracle for the decisions themselves, not the file.
#[test]
fn bench_evict_decisions_match_committed_file() {
    let path = "BENCH_evict.json";
    let regenerate = "cargo run --release -p ape-bench --bin repro -- bench-evict";
    let committed = committed(path);
    let fresh = evict_document(ReproOptions::default().seed);

    let (header, _) = fresh.split_once("\"cells\"").expect("document has cells");
    assert!(
        committed.starts_with(header),
        "{path} is stale: its header is not\n{header}regenerate it with `{regenerate}`"
    );
    let cells: Vec<&str> = fresh
        .lines()
        .filter_map(|line| line.split_once(", \"median_ns\""))
        .map(|(seeded, _)| seeded)
        .collect();
    assert_eq!(cells.len(), 12, "4 store sizes x 3 policies");
    assert_eq!(
        committed.matches("\"median_ns\"").count(),
        cells.len(),
        "{path} is stale: wrong number of cells; regenerate it with `{regenerate}`"
    );
    for cell in cells {
        assert!(
            committed.contains(cell),
            "{path} is stale: no committed cell reads\n{cell}\nregenerate it with `{regenerate}`"
        );
        assert!(
            cell.contains("\"policy\": \"lru\"") || cell.contains("\"workspace_allocations\": 0,"),
            "the PACM workspace grew after warm-up:\n{cell}"
        );
    }
}
