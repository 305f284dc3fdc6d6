//! `repro` — regenerate the APE-CACHE paper's tables and figures.
//!
//! ```text
//! repro [--quick] [--minutes N] [--trials N] [--micro-trials N]
//!       [--threads N] [--seed N] [--trace-out DIR] <artifact>...
//!
//! artifacts:
//!   table1 table2 table4 table5 table6 table7
//!   fig2 fig11a fig11b fig11c fig12 fig13a fig13b fig13c fig14
//!   object-level ablations trace profile
//!   bench-evict bench-scale
//!   faults all
//! ```
//!
//! `--quick` shortens the paper artifacts (`--minutes 6 --micro-trials 25`).
//! `--trials N` replicates every sweep point over N seeds (pooled before
//! summarizing); `--threads N` sizes the parallel runner's worker pool
//! (0 = auto). Results are bitwise identical for any `--threads` value.
//!
//! The `trace` artifact runs all four systems with span tracing enabled
//! and prints per-request latency attribution plus critical-path reports;
//! with `--trace-out DIR` it also writes `trace.jsonl` (one span event per
//! line), `metrics.prom` (Prometheus text format), and
//! `critical-paths.txt` to that directory.
//!
//! Two sweeps time the host over an axis `benchmark/` does not have
//! (`benchmark/` is where end-to-end and per-layer cost is measured):
//! `bench-evict` sweeps `select_victims` cost over store population ×
//! eviction policy, and `bench-scale` the multi-AP city — hit ratio and
//! p99 latency vs AP count × roam rate × cooperation mode, every cell of up
//! to 16 APs fingerprint-asserted invariant under a tie-perturbation key.
//! Each always runs its whole grid and replaces the committed
//! `BENCH_<name>.json` at the repo root (`--quick` changes neither); a
//! failed write exits 1.
//! `profile` runs the four systems one after another with the sim-loop
//! self-profiler on and prints per-subsystem host-time attribution. All
//! three time wall-clock and are therefore *not* part of `all`, whose
//! stdout is byte-deterministic (the elapsed-time line goes to stderr).
//!
//! `faults` is the lossy-WiFi resilience sweep (loss rate × caching
//! strategy plus a composed fault-plan replay). Loss makes its RNG draws
//! diverge from the lossless baseline, so like `bench-evict` it is *not*
//! part of `all`.

// Times the whole invocation on the host clock; see the same allow in `ape_bench`.
#![allow(clippy::disallowed_methods)]

use std::path::PathBuf;
use std::time::Instant;

use ape_bench::{
    ablations, bench_evict, bench_scale, faults, fig11a, fig11b, fig11c, fig12, fig13a, fig13b,
    fig13c, fig14, fig2, object_level, profile, table1, table2, table4, table5, table6, table7,
    trace_artifacts, ReproOptions, TraceArtifacts,
};

fn write_trace_files(dir: &std::path::Path, artifacts: &TraceArtifacts) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("trace.jsonl"), &artifacts.jsonl)?;
    std::fs::write(dir.join("metrics.prom"), &artifacts.prometheus)?;
    std::fs::write(dir.join("critical-paths.txt"), &artifacts.report)?;
    Ok(())
}

/// Unwraps a `bench-*` sweep's output; an unwritten artifact exits 1.
fn written(result: std::io::Result<String>) -> String {
    result.unwrap_or_else(|err| {
        eprintln!("failed to write bench artifact: {err}");
        std::process::exit(1);
    })
}

const USAGE: &str = "usage: repro [--quick] [--minutes N] [--trials N] [--micro-trials N]\n\
     \u{20}            [--threads N] [--seed N] [--trace-out DIR] <artifact>...\n\
     artifacts: table1 table2 table4 table5 table6 table7 fig2 fig11a fig11b\n\
     \u{20}          fig11c fig12 fig13a fig13b fig13c fig14 object-level\n\
     \u{20}          ablations trace profile bench-evict\n\
     \u{20}          bench-scale faults all";

/// Renders one artifact.
type Artifact = fn(&ReproOptions) -> String;

/// Every artifact but `trace` (which also takes `--trace-out`), by name.
const ARTIFACTS: [(&str, Artifact); 21] = [
    ("table1", table1),
    ("table2", table2),
    ("table4", table4),
    ("table5", table5),
    ("table6", table6),
    ("table7", |_| table7()),
    ("fig2", fig2),
    ("fig11a", fig11a),
    ("fig11b", fig11b),
    ("fig11c", fig11c),
    ("fig12", fig12),
    ("fig13a", fig13a),
    ("fig13b", fig13b),
    ("fig13c", fig13c),
    ("fig14", fig14),
    ("object-level", object_level),
    ("ablations", ablations),
    ("bench-evict", |opts| written(bench_evict(opts))),
    ("bench-scale", |opts| written(bench_scale(opts))),
    ("profile", profile),
    ("faults", faults),
];

/// What `all` runs, in order: the artifacts whose output is deterministic.
const ALL: [&str; 18] = [
    "table1",
    "table2",
    "fig2",
    "object-level",
    "fig11a",
    "fig11b",
    "fig11c",
    "table4",
    "table5",
    "table6",
    "fig12",
    "fig13a",
    "fig13b",
    "fig13c",
    "fig14",
    "table7",
    "ablations",
    "trace",
];

/// A parsed command line.
#[derive(Debug)]
struct Invocation {
    opts: ReproOptions,
    trace_out: Option<PathBuf>,
    artifacts: Vec<String>,
}

/// Parses the arguments after the program name; `Err` names what is wrong
/// with them. `--quick` picks the base sizes wherever it appears and every
/// explicit size option overrides them; every artifact name is checked
/// here, before the first one runs.
fn parse(args: impl IntoIterator<Item = String>) -> Result<Invocation, String> {
    let mut quick = false;
    let mut sizes: Vec<(String, u64)> = Vec::new();
    let mut trace_out = None;
    let mut artifacts = Vec::new();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--trace-out" => {
                let dir = args.next().ok_or("--trace-out needs a directory")?;
                trace_out = Some(PathBuf::from(dir));
            }
            "--minutes" | "--trials" | "--micro-trials" | "--threads" | "--seed" => {
                let value = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| format!("{arg} needs a number"))?;
                sizes.push((arg, value));
            }
            "--help" | "-h" => return Err("repro: regenerate the paper's artifacts".to_owned()),
            other if other.starts_with('-') => return Err(format!("unknown option: {other}")),
            "all" | "trace" => artifacts.push(arg),
            other if ARTIFACTS.iter().any(|(name, _)| *name == other) => artifacts.push(arg),
            other => return Err(format!("unknown artifact: {other}")),
        }
    }
    if artifacts.is_empty() {
        return Err("no artifact given".to_owned());
    }
    if artifacts.iter().any(|a| a == "all") {
        artifacts = ALL.iter().map(|s| s.to_string()).collect();
    }
    let mut opts = if quick {
        ReproOptions::quick()
    } else {
        ReproOptions::default()
    };
    for (name, value) in sizes {
        let count = usize::try_from(value).map_err(|_| format!("{name} {value} is too large"));
        match name.as_str() {
            "--minutes" => opts.minutes = value,
            "--seed" => opts.seed = value,
            "--trials" => opts.trials = count?,
            "--micro-trials" => opts.micro_trials = count?,
            _ => opts.threads = count?,
        }
    }
    Ok(Invocation {
        opts,
        trace_out,
        artifacts,
    })
}

fn main() {
    let Invocation {
        opts,
        trace_out,
        artifacts,
    } = parse(std::env::args().skip(1)).unwrap_or_else(|err| {
        eprintln!("{err}\n{USAGE}");
        std::process::exit(2);
    });
    let started = Instant::now();
    for artifact in &artifacts {
        let output = match ARTIFACTS.iter().find(|(name, _)| name == artifact) {
            Some((_, run)) => run(&opts),
            // `trace`: the one name `parse` admits that is not in the table.
            None => {
                let artifacts = trace_artifacts(&opts);
                if let Some(dir) = &trace_out {
                    if let Err(err) = write_trace_files(dir, &artifacts) {
                        eprintln!(
                            "failed to write trace artifacts to {}: {err}",
                            dir.display()
                        );
                        std::process::exit(1);
                    }
                }
                artifacts.report
            }
        };
        println!("{output}");
        println!("{}", "=".repeat(72));
    }
    eprintln!(
        "total wall-clock: {:.2} s ({} artifacts, {} runner threads, {} trial(s)/point)",
        started.elapsed().as_secs_f64(),
        artifacts.len(),
        opts.resolved_threads(),
        opts.trials.max(1),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(line: &str) -> Result<Invocation, String> {
        parse(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn quick_sets_sizes_wherever_it_appears_and_explicit_options_win() {
        let after = parsed("--seed 7 --threads 1 --minutes 3 --quick fig2").unwrap();
        let before = parsed("--quick --seed 7 --threads 1 --minutes 3 fig2").unwrap();
        for inv in [&after, &before] {
            let o = inv.opts;
            assert_eq!((o.seed, o.threads, o.minutes), (7, 1, 3));
            // What no option named comes from `--quick`.
            assert_eq!(o.micro_trials, ReproOptions::quick().micro_trials);
            assert_eq!(inv.artifacts, ["fig2"]);
        }
        let full = parsed("--trials 2 --trace-out out trace").unwrap();
        assert_eq!(full.opts.trials, 2);
        assert_eq!(full.opts.minutes, ReproOptions::default().minutes);
        assert_eq!(full.trace_out, Some(PathBuf::from("out")));
    }

    #[test]
    fn every_artifact_is_checked_before_any_runs() {
        assert_eq!(
            parsed("table4 tabel5").unwrap_err(),
            "unknown artifact: tabel5"
        );
        assert!(parsed("--quick").is_err());
        assert!(parsed("--seed x fig2").is_err());
        assert!(parsed("--frobnicate fig2").is_err());
        assert!(parsed("--help").is_err());
        // `all` stands for its list, and every name on it is runnable.
        let all = parsed("fig2 all").unwrap().artifacts;
        assert_eq!(all, ALL);
        assert!(parsed(&ALL.join(" ")).is_ok());
    }
}
