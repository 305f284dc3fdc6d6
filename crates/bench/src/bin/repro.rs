//! `repro` — regenerate the APE-CACHE paper's tables and figures.
//!
//! ```text
//! repro [--quick] [--minutes N] [--trials N] [--micro-trials N]
//!       [--threads N] [--seed N] [--trace-out DIR] <artifact>...
//!
//! artifacts:
//!   table1 table2 table4 table5 table6 table7
//!   fig2 fig11a fig11b fig11c fig12 fig13a fig13b fig13c fig14
//!   object-level ablations speedup trace profile
//!   bench-evict bench-scale
//!   faults all
//! ```
//!
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
//! Each writes `BENCH_<name>.json`: a full run replaces the committed file
//! at the repo root, a `--quick` run goes to `target/repro-quick/`; a
//! failed write exits 1.
//! `profile` runs the four systems one after another with the sim-loop
//! self-profiler on and prints per-subsystem host-time attribution. All
//! three time wall-clock and are therefore *not* part of `all`, whose
//! output is bitwise deterministic.
//!
//! `faults` is the lossy-WiFi resilience sweep (loss rate × caching
//! strategy plus a composed fault-plan replay). Loss makes its RNG draws
//! diverge from the lossless baseline, so like `bench-evict` it is *not*
//! part of `all`.

// Times whole artifacts on the host clock; see the same allow in `ape_bench`.
#![allow(clippy::disallowed_methods)]

use std::path::PathBuf;
use std::time::Instant;

use ape_bench::{
    ablations, bench_evict, bench_scale, faults, fig11a, fig11b, fig11c, fig12, fig13a, fig13b,
    fig13c, fig14, fig2, object_level, profile, speedup, table1, table2, table4, table5, table6,
    table7, trace_artifacts, ReproOptions, TraceArtifacts,
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

fn usage() -> ! {
    eprintln!(
        "usage: repro [--quick] [--minutes N] [--trials N] [--micro-trials N]\n\
         \u{20}            [--threads N] [--seed N] [--trace-out DIR] <artifact>...\n\
         artifacts: table1 table2 table4 table5 table6 table7 fig2 fig11a fig11b\n\
         \u{20}          fig11c fig12 fig13a fig13b fig13c fig14 object-level\n\
         \u{20}          ablations speedup trace profile bench-evict\n\
         \u{20}          bench-scale faults all"
    );
    std::process::exit(2);
}

fn main() {
    let mut opts = ReproOptions::default();
    let mut artifacts: Vec<String> = Vec::new();
    let mut trace_out: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => opts = ReproOptions::quick(),
            "--trace-out" => {
                trace_out = Some(PathBuf::from(args.next().unwrap_or_else(|| usage())))
            }
            "--minutes" => {
                opts.minutes = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--trials" => {
                opts.trials = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--micro-trials" => {
                opts.micro_trials = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--threads" => {
                opts.threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--seed" => {
                opts.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => usage(),
            other => artifacts.push(other.to_owned()),
        }
    }
    if artifacts.is_empty() {
        usage();
    }
    if artifacts.iter().any(|a| a == "all") {
        artifacts = [
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
            "speedup",
            "trace",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }
    let started = Instant::now();
    for artifact in &artifacts {
        let output = match artifact.as_str() {
            "table1" => table1(&opts),
            "table2" => table2(&opts),
            "table4" => table4(&opts),
            "table5" => table5(&opts),
            "table6" => table6(&opts),
            "table7" => table7(),
            "fig2" => fig2(&opts),
            "fig11a" => fig11a(&opts),
            "fig11b" => fig11b(&opts),
            "fig11c" => fig11c(&opts),
            "fig12" => fig12(&opts),
            "fig13a" => fig13a(&opts),
            "fig13b" => fig13b(&opts),
            "fig13c" => fig13c(&opts),
            "fig14" => fig14(&opts),
            "object-level" => object_level(&opts),
            "ablations" => ablations(&opts),
            "speedup" => speedup(&opts),
            "bench-evict" => written(bench_evict(&opts)),
            "bench-scale" => written(bench_scale(&opts)),
            "profile" => profile(&opts),
            "faults" => faults(&opts),
            "trace" => {
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
            other => {
                eprintln!("unknown artifact: {other}");
                usage();
            }
        };
        println!("{output}");
        println!("{}", "=".repeat(72));
    }
    println!(
        "total wall-clock: {:.2} s ({} artifacts, {} runner threads, {} trial(s)/point)",
        started.elapsed().as_secs_f64(),
        artifacts.len(),
        opts.resolved_threads(),
        opts.trials.max(1),
    );
}
