//! `ape-lint` CLI: `cargo run -p ape-lint -- check`.

use std::process::ExitCode;

use ape_lint::{scan_workspace, workspace_root, Registry};

const USAGE: &str = "\
ape-lint — the sim-safety rules clippy cannot express, for the APE-CACHE workspace

USAGE:
    cargo run -p ape-lint -- check

COMMANDS:
    check            Scan crates/*/src and src/ for rule violations.
                     Exits 1 on any violation.

RULES:
    metric-name      no bare span/trace name literals at instrumentation sites
    span-balance     no span binding that is started/resumed but never ended
    metric-registry  metric names/ids must resolve against ape_proto::names

Hash collections and host-clock reads are gated by the root clippy.toml
(`cargo clippy --workspace --all-targets -- -D warnings`).
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    match args[..] {
        ["check"] => {}
        ["--help" | "-h" | "help"] => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => {
            eprintln!("ape-lint: expected `check`, got `{}`\n", args.join(" "));
            print!("{USAGE}");
            return ExitCode::FAILURE;
        }
    }

    let report = match scan_workspace(&workspace_root(), &Registry::workspace()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ape-lint: scan failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for v in &report.violations {
        println!("{}:{}: [{}] {}", v.file, v.line, v.rule, v.message);
    }
    println!(
        "ape-lint: {} files scanned, {} violation(s)",
        report.files_scanned,
        report.violations.len()
    );
    if report.is_clean() {
        println!("ape-lint: OK");
        ExitCode::SUCCESS
    } else {
        println!("ape-lint: FAIL — fix the violations; there are no waivers");
        ExitCode::FAILURE
    }
}
