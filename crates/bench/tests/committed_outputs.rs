//! The committed run outputs are current: each test regenerates one at
//! the default options and compares it with the file in the repository.
//! A failure names the stale file and how to regenerate it.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

use ape_bench::{evict_document, scale_document, trace_artifacts, ReproOptions, TraceArtifacts};
use ape_proto::SpanKind;

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

/// The default traced run, made once for the tests that read it.
fn default_trace() -> &'static TraceArtifacts {
    static ARTIFACTS: OnceLock<TraceArtifacts> = OnceLock::new();
    ARTIFACTS.get_or_init(|| trace_artifacts(&ReproOptions::default()))
}

#[test]
fn default_traced_run_matches_docs_trace() {
    let artifacts = default_trace();
    let regenerate = "cargo run --release -p ape-bench --bin repro -- --trace-out DIR trace \
                      (the sample is `head -n 1000 DIR/trace.jsonl`)";
    let sample: String = artifacts.jsonl.split_inclusive('\n').take(1000).collect();
    for (path, regenerated) in [
        ("docs/trace/critical-paths.txt", &artifacts.report),
        ("docs/trace/metrics.txt", &artifacts.metrics),
        ("docs/trace/trace.sample.jsonl", &sample),
    ] {
        assert_current(path, &committed(path), regenerated, regenerate);
    }
}

/// Every span kind is recorded by some system in the default traced run:
/// the vocabulary names no stage that no run takes. A stage row of an
/// attribution table reads `<stage> <count> …`.
#[test]
fn every_span_kind_is_recorded_in_the_default_traced_run() {
    let report = &default_trace().report;
    let recorded = |stage: &str| {
        report.lines().any(|line| {
            let mut cells = line.split_whitespace();
            cells.next() == Some(stage)
                && cells
                    .next()
                    .and_then(|count| count.parse::<u64>().ok())
                    .is_some_and(|count| count > 0)
        })
    };
    let unrecorded: Vec<&str> = SpanKind::ALL
        .iter()
        .map(|kind| kind.as_str())
        .filter(|stage| !recorded(stage))
        .collect();
    assert!(
        unrecorded.is_empty(),
        "no system records {unrecorded:?} in the default traced run"
    );
}

/// The committed outputs EXPERIMENTS.md may quote: the tests above
/// regenerate each one and compare it with the file.
const QUOTABLE: [&str; 4] = [
    "docs/repro_all_default.txt",
    "BENCH_scale.json",
    "BENCH_evict.json",
    "docs/trace/critical-paths.txt",
];

/// Checks every `<!-- quote: PATH -->` marker in `doc`: a fenced block
/// follows it directly, and the block's lines are a contiguous run of
/// PATH's lines, byte for byte. `read` returns a file's text by its path
/// in the repository. Returns the quoted paths in order, or names the
/// first line that is not quoted right.
fn check_quotes(doc: &str, read: impl Fn(&str) -> String) -> Result<Vec<&str>, String> {
    let lines: Vec<&str> = doc.lines().collect();
    let fence = |i: usize| lines.get(i).is_some_and(|line| line.starts_with("```"));
    let mut quoted = Vec::new();
    for (at, line) in lines.iter().enumerate() {
        let marker = line
            .strip_prefix("<!-- quote: ")
            .and_then(|l| l.strip_suffix(" -->"));
        let Some(path) = marker else { continue };
        if !QUOTABLE.contains(&path) {
            return Err(format!(
                "EXPERIMENTS.md:{}: {path} is not in QUOTABLE",
                at + 1
            ));
        }
        let len = (at + 2..lines.len()).take_while(|&i| !fence(i)).count();
        if !fence(at + 1) || len == 0 || !fence(at + 2 + len) {
            return Err(format!(
                "EXPERIMENTS.md:{}: no fenced block after the marker",
                at + 1
            ));
        }
        let block = &lines[at + 2..at + 2 + len];
        let text = read(path);
        let source: Vec<&str> = text.lines().collect();
        let reads = |start: usize, i: usize| source.get(start + i) == Some(&block[i]);
        // The run of PATH the block agrees with on the most lines.
        let start = (0..source.len())
            .rev()
            .max_by_key(|&start| (0..len).filter(|&i| reads(start, i)).count())
            .unwrap_or(0);
        if let Some(i) = (0..len).find(|&i| !reads(start, i)) {
            return Err(format!(
                "EXPERIMENTS.md:{} does not read {path}:{}\n  quoted: {}\n  file:   {}\n\
                 re-paste the block from {path}",
                at + 3 + i,
                start + i + 1,
                block[i],
                source.get(start + i).unwrap_or(&"<end of file>"),
            ));
        }
        quoted.push(path);
    }
    Ok(quoted)
}

/// Every measured number in EXPERIMENTS.md is quoted from a committed
/// output, and each quotable output is quoted.
#[test]
fn experiments_quotes_the_committed_outputs() {
    let doc = committed("EXPERIMENTS.md");
    let quoted = check_quotes(&doc, committed).unwrap_or_else(|err| panic!("{err}"));
    for path in QUOTABLE {
        assert!(
            quoted.contains(&path),
            "EXPERIMENTS.md quotes nothing from {path}"
        );
    }
}

/// `check_quotes` over `doc` and a four-line file, by whatever path.
fn check_fixture(doc: &str) -> Result<usize, String> {
    let file = |_: &str| "Table: hits\nsize  hit\n1 kb  0.631\n2 kb  0.467\n".to_owned();
    check_quotes(doc, file).map(|quoted| quoted.len())
}

/// A page's first two lines: prose, then a marker.
const MARKER: &str = "Prose.\n<!-- quote: BENCH_scale.json -->";

#[test]
fn an_exact_quote_passes() {
    let doc = format!("{MARKER}\n```\nsize  hit\n1 kb  0.631\n```\n");
    assert_eq!(check_fixture(&doc), Ok(1));
}

#[test]
fn a_changed_digit_fails_naming_the_file_and_line() {
    let err = check_fixture(&format!("{MARKER}\n```\nsize  hit\n1 kb  0.681\n```\n"));
    let first = "EXPERIMENTS.md:5 does not read BENCH_scale.json:3\n  quoted: 1 kb  0.681\n";
    assert!(err.as_ref().unwrap_err().starts_with(first), "{err:?}");
}

#[test]
fn lines_not_contiguous_in_the_file_fail() {
    let err = check_fixture(&format!("{MARKER}\n```\nsize  hit\n2 kb  0.467\n```\n"));
    let first = "EXPERIMENTS.md:5 does not read BENCH_scale.json:3\n";
    assert!(err.as_ref().unwrap_err().starts_with(first), "{err:?}");
}

#[test]
fn a_marker_without_a_fenced_block_fails() {
    let expected = Err("EXPERIMENTS.md:2: no fenced block after the marker".to_owned());
    for block in ["\n\n```\n1 kb\n```", "\n```\n1 kb", "\n```\n```"] {
        assert_eq!(check_fixture(&format!("{MARKER}{block}\n")), expected);
    }
}

#[test]
fn a_marker_naming_a_file_outside_the_list_fails() {
    let err = check_fixture("<!-- quote: docs/trace/metrics.txt -->\n```\n1 kb\n```\n");
    let expected = "EXPERIMENTS.md:1: docs/trace/metrics.txt is not in QUOTABLE";
    assert_eq!(err, Err(expected.to_owned()));
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
/// repeat the committed file's, cell for cell. The `evict_oracle` test
/// holds the decisions themselves to the seed engine, not to the file.
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
    assert_eq!(
        cells.len(),
        13,
        "the testbed-shaped PACM cell, then 4 store sizes x 3 policies"
    );
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
