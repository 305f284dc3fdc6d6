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
        ("docs/trace/metrics.prom", &artifacts.prometheus),
        ("docs/trace/trace.sample.jsonl", &sample),
    ] {
        assert_current(path, &committed(path), regenerated, regenerate);
    }
}

/// Every span kind is recorded by some system in the default traced run:
/// the vocabulary names no stage that no run takes.
#[test]
fn every_span_kind_is_recorded_in_the_default_traced_run() {
    let prometheus = &default_trace().prometheus;
    let unrecorded: Vec<&str> = SpanKind::ALL
        .iter()
        .map(|kind| kind.as_str())
        .filter(|stage| {
            let series = format!("stage=\"{stage}\"}} ");
            !prometheus.lines().any(|line| {
                line.starts_with("apecache_trace_stage_latency_ms_count{")
                    && line
                        .split_once(&series)
                        .is_some_and(|(_, count)| count != "0")
            })
        })
        .collect();
    assert!(
        unrecorded.is_empty(),
        "no system records {unrecorded:?} in the default traced run"
    );
}

/// One EXPERIMENTS.md table and the `repro all` block its cells quote.
struct Quote {
    /// The table's header row in EXPERIMENTS.md.
    header: &'static str,
    /// How the block's first line in `docs/repro_all_default.txt` starts.
    block: &'static str,
    /// Value columns of a block row; the rest of the row is its label.
    block_columns: usize,
    /// For each value cell of the table, the block columns its numbers
    /// quote, in order; an empty entry quotes nothing (a paper column).
    columns: &'static [&'static [usize]],
}

const QUOTES: [Quote; 6] = [
    Quote {
        header: "| Cell | Paper (DNS / RTT / hops) | Measured |",
        block: "Table I:",
        block_columns: 3,
        columns: &[&[], &[0, 1, 2]],
    },
    Quote {
        header: "| Size sweep | PACM-Avg | PACM-High | LRU |",
        block: "Table IV:",
        block_columns: 3,
        columns: &[&[0], &[1], &[2]],
    },
    Quote {
        header: "| Frequency (/min) | PACM-Avg | PACM-High | LRU |",
        block: "Table V:",
        block_columns: 3,
        columns: &[&[0], &[1], &[2]],
    },
    Quote {
        header: "| App quantity | PACM-Avg | PACM-High | LRU |",
        block: "Table VI:",
        block_columns: 3,
        columns: &[&[0], &[1], &[2]],
    },
    Quote {
        header: "| System | MovieTrailer avg (paper ≈) | VirtualHome avg |",
        block: "Fig. 12:",
        block_columns: 4,
        columns: &[&[0], &[2]],
    },
    Quote {
        header: "| Variant | hit | high hit | lookup ms | app ms |",
        block: "Design ablations",
        block_columns: 4,
        columns: &[&[0], &[1], &[2], &[3]],
    },
];

/// One EXPERIMENTS.md row whose last measured cell quotes numbers that
/// one block of the output prints.
struct LineQuote {
    /// How the row starts in EXPERIMENTS.md.
    row: &'static str,
    /// How the block's first line in `docs/repro_all_default.txt` starts.
    block: &'static str,
    /// The quoted numbers, in order: how a line of the block starts, and
    /// which of that line's numbers.
    numbers: &'static [(&'static str, usize)],
}

const LINE_QUOTES: [LineQuote; 11] = [
    LineQuote {
        row: "| high-rate CPU |",
        block: "Fig. 2:",
        numbers: &[("high:", 0), ("high:", 1)],
    },
    LineQuote {
        row: "| high-rate memory |",
        block: "Fig. 2:",
        numbers: &[("high:", 2)],
    },
    LineQuote {
        row: "| low-rate |",
        block: "Fig. 2:",
        numbers: &[("low:", 0), ("low:", 2)],
    },
    LineQuote {
        row: "| overall: APE / Wi-Cache / Edge |",
        block: "Object-level caching latency",
        numbers: &[("APE-CACHE ", 2), ("Wi-Cache ", 2), ("Edge Cache ", 2)],
    },
    LineQuote {
        row: "| reduction vs Wi-Cache / Edge |",
        block: "Object-level caching latency",
        numbers: &[("APE-CACHE reduction:", 0), ("APE-CACHE reduction:", 1)],
    },
    LineQuote {
        row: "| extra CPU (peak) |",
        block: "Fig. 14:",
        numbers: &[("APE-CACHE overhead:", 0)],
    },
    LineQuote {
        row: "| extra memory |",
        block: "Fig. 14:",
        numbers: &[("APE-CACHE overhead:", 1)],
    },
    LineQuote {
        row: "| MovieTrailer | declarative |",
        block: "Table VII:",
        numbers: &[("MovieTrailer   APE-CACHE", 0)],
    },
    LineQuote {
        row: "| MovieTrailer | API-based |",
        block: "Table VII:",
        numbers: &[("MovieTrailer   API-based", 0)],
    },
    LineQuote {
        row: "| VirtualHome | declarative |",
        block: "Table VII:",
        numbers: &[("VirtualHome    APE-CACHE", 0)],
    },
    LineQuote {
        row: "| VirtualHome | API-based |",
        block: "Table VII:",
        numbers: &[("VirtualHome    API-based", 0)],
    },
];

/// A row label as both files can spell it: `1–100 kb` in the table is
/// `1~100 kb` in the output, an ablation's leading `-` / `+` and a
/// parenthetical note go, and a Table I location is its city, so
/// `Michigan, US  Apple` in the output is `Michigan–Apple` in the table.
fn row_key(label: &str) -> String {
    let label = label.split(" (").next().unwrap_or(label);
    let label = match label.split_once(", ") {
        Some((city, rest)) => format!("{city}–{}", rest.rsplit(' ').next().unwrap_or(rest)),
        None => label.to_owned(),
    };
    label
        .replace('–', "~")
        .trim_start_matches(['-', '+', ' '])
        .trim()
        .to_owned()
}

/// The numbers in `text` as printed: `+3.5%,` reads `+3.5`, `**26.26**`
/// reads `26.26`, and words, units and `/` separators are skipped.
fn numbers(text: &str) -> Vec<&str> {
    text.split_whitespace()
        .map(|token| token.trim_matches(['*', '%', ',']))
        .filter(|token| {
            token
                .trim_start_matches(['+', '-'])
                .starts_with(|c: char| c.is_ascii_digit())
                && token.parse::<f64>().is_ok()
        })
        .collect()
}

/// The measured numbers of a table cell: the paper's number in
/// parentheses dropped.
fn measured(cell: &str) -> Vec<&str> {
    numbers(cell.split(" (").next().unwrap_or(cell))
}

/// The lines of the output block whose first line starts with `block`,
/// after that line.
fn block_lines<'a>(output: &'a str, block: &'a str) -> impl Iterator<Item = &'a str> {
    output
        .lines()
        .skip_while(move |line| !line.starts_with(block))
        .skip(1)
        .take_while(|line| !line.starts_with("====="))
}

/// The rows of the output block that starts with `quote.block`, as label
/// key and value columns.
fn block_rows(output: &str, quote: &Quote) -> Vec<(String, Vec<String>)> {
    block_lines(output, quote.block)
        .filter_map(|line| {
            let tokens: Vec<&str> = line.split_whitespace().collect();
            let split = tokens.len().checked_sub(quote.block_columns)?;
            let values = &tokens[split..];
            (split > 0 && values.iter().all(|v| v.parse::<f64>().is_ok())).then(|| {
                (
                    row_key(&tokens[..split].join(" ")),
                    values.iter().map(|v| (*v).to_owned()).collect(),
                )
            })
        })
        .collect()
}

/// Every measured cell of EXPERIMENTS.md's Tables I and IV–VI, Fig. 12
/// and ablations tables, its Fig. 2 rows, its §V-B overall and reduction
/// rows, its Fig. 14 overhead rows and Table VII's LoC column reads what
/// the committed `repro all` output prints.
#[test]
fn experiments_tables_quote_the_committed_output() {
    let doc = committed("EXPERIMENTS.md");
    let output = committed("docs/repro_all_default.txt");
    let mut stale = Vec::new();
    for quote in &QUOTES {
        let rows = block_rows(&output, quote);
        assert!(!rows.is_empty(), "no `{}` block in the output", quote.block);
        let table: Vec<&str> = doc
            .lines()
            .skip_while(|line| *line != quote.header)
            .skip(2)
            .take_while(|line| line.starts_with('|'))
            .collect();
        if table.is_empty() {
            stale.push(format!("no table headed `{}`", quote.header));
        }
        for line in table {
            let cells: Vec<&str> = line.trim_matches('|').split('|').collect();
            let key = row_key(cells[0]);
            let Some((_, values)) = rows.iter().find(|(label, _)| *label == key) else {
                stale.push(format!(
                    "{} `{key}`: no such row in the output",
                    quote.block
                ));
                continue;
            };
            for (cell, columns) in cells[1..].iter().zip(quote.columns) {
                let printed: Vec<&str> = columns.iter().map(|&c| values[c].as_str()).collect();
                if !columns.is_empty() && measured(cell) != printed {
                    stale.push(format!(
                        "{} `{key}`: EXPERIMENTS.md reads {:?}, the output {printed:?}",
                        quote.block,
                        measured(cell),
                    ));
                }
            }
        }
    }
    for quote in &LINE_QUOTES {
        let block: Vec<&str> = block_lines(&output, quote.block).collect();
        let printed: Vec<&str> = quote
            .numbers
            .iter()
            .map(|&(start, i)| {
                let line = block
                    .iter()
                    .find(|line| line.starts_with(start))
                    .unwrap_or_else(|| panic!("no `{start}` line in the `{}` block", quote.block));
                numbers(line)[i]
            })
            .collect();
        let Some(row) = doc.lines().find(|row| row.starts_with(quote.row)) else {
            stale.push(format!("no row `{}`", quote.row));
            continue;
        };
        let cells = row.trim_matches('|').split('|');
        let cell = cells
            .rev()
            .find(|cell| !measured(cell).is_empty())
            .unwrap_or(row);
        if measured(cell) != printed {
            stale.push(format!(
                "`{}`: EXPERIMENTS.md reads {:?}, the output {printed:?}",
                quote.row,
                measured(cell),
            ));
        }
    }
    assert!(
        stale.is_empty(),
        "EXPERIMENTS.md quotes stale numbers; copy them from \
         docs/repro_all_default.txt:\n{}",
        stale.join("\n")
    );
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
