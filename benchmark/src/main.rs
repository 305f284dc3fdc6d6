//! `apebench` — one run of one workload of the repo's benchmark.
//!
//! ```text
//! apebench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//!          [--quick] [--out-dir <dir>]
//! apebench --list
//! ```
//!
//! The last line of standard output is one JSON object with exactly the
//! keys `correct`, `attempted`, `failed` and `metrics`; the line before it
//! carries sample counts and the correctness gates. `run.sh` is the entry
//! point: it rebuilds this package against the working tree first.

mod alloc;
mod host;
mod kernels;
mod metrics;
mod run;
mod spans;
mod stats;
mod trial;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use metrics::{Decl, END_TO_END, PER_LAYER};
use run::Outcome;
use spans::Spans;
use workloads::{Workload, REFERENCE_SECONDS, WORKLOADS};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "usage: apebench --workload <name> --seed <n> --seconds <n> --trace <0|1> \
                     [--quick] [--out-dir <dir>]\n       apebench --list";

/// A parsed command line.
#[derive(Debug)]
struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u32,
    traced: bool,
    quick: bool,
    out_dir: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, 42u64, REFERENCE_SECONDS, false);
    let (mut quick, mut out_dir) = (false, PathBuf::from("benchmark/out"));
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(workloads::find(name).ok_or_else(|| {
                    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?}; known: {}", known.join(", "))
                })?);
            }
            "--seed" => {
                let v = value()?;
                seed = v
                    .parse()
                    .map_err(|_| format!("--seed {v:?} is not a whole number"))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or_else(|| format!("--seconds {v:?} is not a whole number in 1..=600"))?;
            }
            "--trace" => {
                traced = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v:?} is neither 0 nor 1")),
                };
            }
            "--quick" => quick = true,
            "--out-dir" => out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        traced,
        quick,
        out_dir,
    })
}

fn json_decls(decls: &[Decl]) -> String {
    let items: Vec<String> = decls
        .iter()
        .map(|d| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                d.name,
                d.unit,
                d.better.as_str()
            )
        })
        .collect();
    format!("[{}]", items.join(", "))
}

/// The declarations `check.sh` holds against `BENCHMARK.json`.
fn list() -> String {
    let names: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("\"{}\"", w.name))
        .collect();
    format!(
        "{{\"reference_seconds\": {REFERENCE_SECONDS}, \"workloads\": [{}], \
         \"end_to_end\": {}, \"per_layer\": {}}}",
        names.join(", "),
        json_decls(&END_TO_END),
        json_decls(&PER_LAYER)
    )
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The contract's result line: every declared metric of the run's kind,
/// exactly once, with its declared unit.
fn result_line(outcome: &Outcome, decls: &[Decl], correct: bool) -> Result<String, String> {
    let mut members = Vec::with_capacity(decls.len());
    for decl in decls {
        let mut found = outcome
            .metrics
            .iter()
            .filter(|(name, _)| *name == decl.name);
        let value = match (found.next(), found.next()) {
            (Some((_, value)), None) => *value,
            (None, _) => return Err(format!("metric {} was not measured", decl.name)),
            (Some(_), Some(_)) => return Err(format!("metric {} was measured twice", decl.name)),
        };
        if !value.is_finite() {
            return Err(format!("metric {} is {value}", decl.name));
        }
        members.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            decl.name, decl.unit
        ));
    }
    if outcome.metrics.len() != decls.len() {
        return Err(format!(
            "{} metrics measured, {} declared",
            outcome.metrics.len(),
            decls.len()
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        members.join(", ")
    ))
}

/// The line before the result: what the numbers rest on.
fn detail_line(args: &Args, outcome: &Outcome, wall_s: f64) -> String {
    let mut out = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"quick\": {}, \
         \"wall_s\": {wall_s}",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.traced),
        args.quick
    );
    for (key, value) in &outcome.detail {
        let _ = write!(out, ", \"{key}\": {value}");
    }
    let gates: Vec<String> = outcome
        .gates
        .iter()
        .map(|g| {
            format!(
                "{{\"ok\": {}, \"name\": \"{}\"}}",
                g.ok,
                json_escape(&g.name)
            )
        })
        .collect();
    let _ = write!(out, ", \"gates\": [{}]}}", gates.join(", "));
    out
}

fn run(args: &Args) -> Result<bool, String> {
    let started = Instant::now();
    let mut spans = Spans::new();
    let (outcome, decls): (Outcome, &[Decl]) = if args.traced {
        let outcome = run::run_traced(args.workload, args.seed, args.quick, &mut spans)?;
        (outcome, &PER_LAYER)
    } else {
        let outcome = run::run_untraced(
            args.workload,
            args.seed,
            args.seconds,
            args.quick,
            &mut spans,
        )?;
        (outcome, &END_TO_END)
    };
    if args.traced {
        let path = args
            .out_dir
            .join(format!("trace-{}.jsonl", args.workload.name));
        std::fs::create_dir_all(&args.out_dir)
            .and_then(|()| std::fs::write(&path, spans.to_jsonl()))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    for failed in outcome.gates.iter().filter(|g| !g.ok) {
        eprintln!("apebench: gate failed: {}", failed.name);
    }
    let correct = outcome.failed == 0 && outcome.gates.iter().all(|g| g.ok);
    let result = result_line(&outcome, decls, correct)?;
    println!(
        "{}",
        detail_line(args, &outcome, started.elapsed().as_secs_f64())
    );
    println!("{result}");
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--list"] {
        println!("{}", list());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("apebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("apebench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let args = parse_args(&strings(&[
            "--workload",
            "city-coop",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "1",
        ]))
        .expect("valid command line");
        assert_eq!(args.workload.name, "city-coop");
        assert_eq!(
            (args.seed, args.seconds, args.traced, args.quick),
            (7, 15, true, false)
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            &["--seed", "1"][..],
            &["--workload", "nope"],
            &["--workload", "city-coop", "--trace", "2"],
            &["--workload", "city-coop", "--seconds", "0"],
            &["--workload", "city-coop", "--seed"],
            &["--workload", "city-coop", "--frobnicate"],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn result_line_demands_every_declared_metric_once() {
        let decls = [END_TO_END[0], END_TO_END[1]];
        let outcome = |metrics| Outcome {
            metrics,
            attempted: 10,
            failed: 0,
            gates: Vec::new(),
            detail: Vec::new(),
        };
        let line = result_line(
            &outcome(vec![("host_us_per_fetch", 9.5), ("setup_s", 0.25)]),
            &decls,
            true,
        )
        .expect("complete");
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"host_us_per_fetch\": {\"value\": 9.5, \"unit\": \"us/fetch\"}}}"
        );
        assert!(result_line(&outcome(vec![("setup_s", 0.25)]), &decls, true).is_err());
        let twice = vec![
            ("setup_s", 0.25),
            ("setup_s", 0.5),
            ("host_us_per_fetch", 1.0),
        ];
        assert!(result_line(&outcome(twice), &decls, true).is_err());
        let extra = vec![
            ("setup_s", 0.25),
            ("host_us_per_fetch", 1.0),
            ("other", 1.0),
        ];
        assert!(result_line(&outcome(extra), &decls, true).is_err());
        let nan = vec![("setup_s", f64::NAN), ("host_us_per_fetch", 1.0)];
        assert!(result_line(&outcome(nan), &decls, true).is_err());
    }
}
