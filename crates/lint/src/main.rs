//! `ape-lint` CLI: `cargo run -p ape-lint -- check [--json] [--list-waivers]`
//! plus `fix`.

use std::process::ExitCode;

use ape_lint::{
    apply_fixes, scan_source, scan_workspace, workspace_files, workspace_root, FileContext,
    Registry, Report,
};

const USAGE: &str = "\
ape-lint — determinism & sim-safety analyzer for the APE-CACHE workspace

USAGE:
    cargo run -p ape-lint -- check [--json]
    cargo run -p ape-lint -- check --list-waivers [--json]
    cargo run -p ape-lint -- fix

COMMANDS:
    check            Scan crates/*/src and src/ for rule violations.
                     Exits 1 on any violation that is not waived.
    fix              Apply mechanical rewrites (registry-constant
                     replacement, unused-waiver removal) in place, then
                     report what changed. Re-run `check` afterwards.

OPTIONS:
    --json             Machine-readable report (schema 3; validated in CI
                       against docs/lint-report.schema.json).
    --list-waivers     Print the waiver ledger (file, line, rule, reason)
                       with a used/unused summary instead of violations.

RULES:
    map-iter         no unordered HashMap/HashSet iteration in sim-state crates
    wall-clock       no Instant/SystemTime/ambient randomness outside crates/bench
    metric-name      no bare span/trace name literals at instrumentation sites
    float-fold       no f32/f64 accumulation over unordered collections
    span-balance     no span binding that is started/resumed but never ended
    sim-time-arith   no raw arithmetic or truncating casts on SimTime values
                     outside crates/simnet/src/time.rs
    metric-registry  metric names/ids must resolve against ape_proto::names
    unused-waiver    waivers must still match a violation (unwaivable)

WAIVERS:
    // ape-lint: allow(<rule>) -- <reason>      (same line or line above)
";

fn main() -> ExitCode {
    let mut check = false;
    let mut fix = false;
    let mut json = false;
    let mut list_waivers = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "check" => check = true,
            "fix" => fix = true,
            "--json" => json = true,
            "--list-waivers" => list_waivers = true,
            "--help" | "-h" | "help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("ape-lint: unknown argument `{other}`\n");
                print!("{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    if !check && !fix && !list_waivers {
        print!("{USAGE}");
        return ExitCode::FAILURE;
    }

    let root = workspace_root();
    let reg = Registry::workspace();

    if fix {
        return run_fix(&root, &reg);
    }

    let report = match scan_workspace(&root, &reg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ape-lint: scan failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    if list_waivers {
        print_waivers(&report, json);
        return ExitCode::SUCCESS;
    }

    print_check(&report, json);
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Applies every mechanical fix in place, file by file.
fn run_fix(root: &std::path::Path, reg: &Registry) -> ExitCode {
    let files = match workspace_files(root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("ape-lint: scan failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut changed = 0usize;
    let mut applied = 0usize;
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let source = match std::fs::read_to_string(&file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("ape-lint: cannot read {rel}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let report = scan_source(&rel, &source, FileContext::for_path(&rel), reg);
        let n_fixes = report.fixable().count();
        if let Some(rewritten) = apply_fixes(&source, &report) {
            if let Err(e) = std::fs::write(&file, rewritten) {
                eprintln!("ape-lint: cannot write {rel}: {e}");
                return ExitCode::FAILURE;
            }
            println!("ape-lint: fixed {rel} ({n_fixes} rewrite(s))");
            changed += 1;
            applied += n_fixes;
        }
    }
    if changed == 0 {
        println!("ape-lint: nothing to fix");
    } else {
        println!("ape-lint: applied {applied} rewrite(s) across {changed} file(s); re-run `check`");
    }
    ExitCode::SUCCESS
}

fn print_check(report: &Report, json: bool) {
    if json {
        println!("{}", report.to_json());
        return;
    }
    for v in &report.violations {
        let tag = if v.waived { " (waived)" } else { "" };
        let fixable = if !v.waived && v.fix.is_some() {
            " [fixable]"
        } else {
            ""
        };
        println!(
            "{}:{}: [{}]{}{} {}",
            v.file, v.line, v.rule, tag, fixable, v.message
        );
    }
    let waived = report.violations.iter().filter(|v| v.waived).count();
    println!(
        "ape-lint: {} files scanned, {} violation(s) ({} waived), {} waiver(s)",
        report.files_scanned,
        report.violations.len(),
        waived,
        report.waivers.len()
    );
    if !report.is_clean() {
        println!(
            "ape-lint: FAIL — fix the violations, add `// ape-lint: allow(<rule>) -- <why>`, \
             or try `ape-lint fix` for [fixable] ones"
        );
    } else {
        println!("ape-lint: OK");
    }
}

fn print_waivers(report: &Report, json: bool) {
    if json {
        println!("{}", report.to_json());
        return;
    }
    if report.waivers.is_empty() {
        println!("ape-lint: no waivers in the workspace");
        return;
    }
    for w in &report.waivers {
        let tag = if w.used { "" } else { " (UNUSED)" };
        println!(
            "{}:{}: allow({}){} -- {}",
            w.file, w.line, w.rule, tag, w.reason
        );
    }
    let used = report.waivers.iter().filter(|w| w.used).count();
    println!(
        "ape-lint: {} waiver(s) ({} used, {} unused)",
        report.waivers.len(),
        used,
        report.waivers.len() - used
    );
}
