#!/usr/bin/env python3
"""Runs the whole benchmark set and prints one JSON document.

Called by run.sh (which has already built the package and exported
APEBENCH_BIN). Every workload runs untraced, then traced, each in its own
process; the document carries every declared metric with unit, direction
and bound, the host block, and every correctness gate. `--repeat 2` runs
the set twice on the same tree and adds the A/A table; `--check` validates
the output against BENCHMARK.json (check.sh). Human-readable tables go to
stderr; stdout is the document alone.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
# Simulated-time metrics and the give-up share are functions of the seed
# alone: two runs of one tree must agree on them to the last bit.
EXACT = re.compile(r"^(sim_|fetch_ok_share$)")


def command_output(*cmd):
    try:
        return subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def host_block():
    model = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    nproc = len(os.sched_getaffinity(0))
    load1 = os.getloadavg()[0]
    dirty = command_output("git", "status", "--porcelain")
    block = {
        "nproc": nproc,
        "cpu_model": model,
        "rustc": command_output("rustc", "-V"),
        "git_commit": command_output("git", "rev-parse", "HEAD"),
        "git_dirty": None if dirty == "unknown" else bool(dirty),
        "load_average_1m_at_start": load1,
    }
    if load1 > nproc / 2:
        block["warning"] = (
            f"load average {load1:.2f} is above half of nproc ({nproc}): "
            "host timings below are taken under contention"
        )
        print(f"suite: WARNING: {block['warning']}", file=sys.stderr)
    return block


def run_once(binary, workload, seed, seconds, trace, quick):
    cmd = [
        binary, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--out-dir", os.path.join(HERE, "out"),
    ]
    if quick:
        cmd.append("--quick")
    started = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    wall = time.monotonic() - started
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit(f"suite: {' '.join(cmd)} printed no result (exit {proc.returncode})")
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {"exit": proc.returncode, "process_wall_s": wall, "detail": detail, "result": result}


def declared(bench, kind):
    return {m["name"]: m for m in bench[kind]}


def annotate(result, decls):
    out = {}
    for name, cell in result["metrics"].items():
        decl = decls.get(name, {})
        out[name] = {**cell, **{k: decl[k] for k in ("better", "bound") if k in decl}}
    return out


def check_declarations(binary, bench, problems):
    """BENCHMARK.json and the binary's own tables must be the same tables."""
    listed = json.loads(subprocess.run([binary, "--list"], capture_output=True, text=True, check=True).stdout)
    if [w["name"] for w in bench["workloads"]] != listed["workloads"]:
        problems.append("workload names differ between BENCHMARK.json and apebench --list")
    if bench["run_seconds"] != listed["reference_seconds"]:
        problems.append("run_seconds differs from the seconds the trial counts are sized for")
    for kind in ("end_to_end", "per_layer"):
        ours = [(m["name"], m["unit"], m["better"]) for m in bench[kind]]
        theirs = [(m["name"], m["unit"], m["better"]) for m in listed[kind]]
        if ours != theirs:
            diff = sorted(set(ours) ^ set(theirs))
            problems.append(f"{kind} declarations differ: {diff or 'order only'}")
        for name, _, _ in ours:
            if not NAME.match(name):
                problems.append(f"{kind} name {name!r} is outside [A-Za-z0-9_.-]")


def check_run(workload, kind, result, decls, problems):
    """Every declared metric exactly once with the declared unit, no others."""
    printed = result["metrics"]
    for name in decls:
        if name not in printed:
            problems.append(f"{workload}: {kind} metric {name} was not printed")
    for name, cell in printed.items():
        if name not in decls:
            problems.append(f"{workload}: undeclared {kind} metric {name}")
        elif cell["unit"] != decls[name]["unit"]:
            problems.append(f"{workload}: {name} printed in {cell['unit']}, declared {decls[name]['unit']}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{workload}: result keys are {sorted(result)}")


def worse_by(first, second, better):
    """Relative change from first to second, positive when second is worse."""
    change = (second - first) / abs(first) if first else 0.0
    return change if better == "lower" else 0.0 - change


def aa_table(runs, bench):
    rows = []
    for workload in runs[0]["workloads"]:
        for decl in bench["end_to_end"]:
            name = decl["name"]
            a = runs[0]["workloads"][workload]["end_to_end"][name]["value"]
            b = runs[1]["workloads"][workload]["end_to_end"][name]["value"]
            rows.append({
                "workload": workload, "metric": name, "first": a, "second": b,
                "worse_by": worse_by(a, b, decl["better"]), "bound": decl["bound"],
                "exact": bool(EXACT.match(name)), "bitwise_equal": a == b,
            })
    return rows


def print_aa(rows):
    print("\n| workload | metric | first | second | second worse by | bound | verdict |", file=sys.stderr)
    print("|---|---|---|---|---|---|---|", file=sys.stderr)
    for r in rows:
        if r["exact"]:
            verdict = "bitwise equal" if r["bitwise_equal"] else "DIFFERS (must be bitwise equal)"
        else:
            verdict = "within bound" if r["worse_by"] <= r["bound"] else "OUTSIDE BOUND"
        print(
            f"| {r['workload']} | {r['metric']} | {r['first']:.6g} | {r['second']:.6g} "
            f"| {r['worse_by']:+.2%} | {r['bound']:.1%} | {verdict} |",
            file=sys.stderr,
        )


def layer_contrast(workloads):
    """The contrasts the workloads were chosen for, read off the traced runs."""
    def layer(w, m):
        return workloads[w]["per_layer"][m]["value"] if w in workloads else None
    checks = []
    def check(text, values, ok):
        if all(v is not None for v in values):
            checks.append({"contrast": text, "values": values, "ok": ok(*values)})
    check("cachealg.evict_share >= 0.30 on testbed-pacm",
          [layer("testbed-pacm", "cachealg.evict_share")], lambda a: a >= 0.30)
    check("cachealg.solver_runs_per_fetch == 0 on testbed-lru",
          [layer("testbed-lru", "cachealg.solver_runs_per_fetch")], lambda a: a == 0)
    check("simnet.send_share on city-coop and testbed-lru each exceed testbed-pacm",
          [layer(w, "simnet.send_share") for w in ("city-coop", "testbed-lru", "testbed-pacm")],
          lambda c, l, p: c > p and l > p)
    check("nodes.retries_per_fetch > 0 only on testbed-lossy and city-coop",
          [layer(w, "nodes.retries_per_fetch") for w in ("testbed-lossy", "city-coop", "testbed-pacm", "testbed-lru")],
          lambda lossy, city, pacm, lru: lossy > 0 and city > 0 and pacm == 0 and lru == 0)
    return checks


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--workload", choices=names, action="append", help="run only this workload (repeatable)")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--repeat", type=int, default=1, help="run the set this many times; 2 gives the A/A table")
    ap.add_argument("--quick", action="store_true", help="smoke-test inputs; never for reported numbers")
    ap.add_argument("--check", action="store_true", help="validate the output against BENCHMARK.json")
    args = ap.parse_args()
    binary = os.environ.get("APEBENCH_BIN")
    if not binary:
        raise SystemExit("suite: run me through benchmark/run.sh (APEBENCH_BIN is not set)")
    selected = args.workload or names
    e2e, layers = declared(bench, "end_to_end"), declared(bench, "per_layer")

    doc = {
        "benchmark": "apebench", "seed": args.seed, "seconds": args.seconds, "quick": args.quick,
        "host": host_block(), "runs": [], "gates": [],
    }
    problems = []
    if args.check:
        check_declarations(binary, bench, problems)

    def gate(name, ok):
        doc["gates"].append({"name": name, "ok": bool(ok)})
        if not ok:
            print(f"suite: gate failed: {name}", file=sys.stderr)

    for repeat in range(args.repeat):
        workloads = {}
        for workload in selected:
            print(f"suite: run {repeat + 1}/{args.repeat} {workload} ...", file=sys.stderr)
            untraced = run_once(binary, workload, args.seed, args.seconds, 0, args.quick)
            traced = run_once(binary, workload, args.seed, args.seconds, 1, args.quick)
            for kind, run in (("untraced", untraced), ("traced", traced)):
                ok = run["exit"] == 0 and run["result"]["correct"]
                gate(f"run {repeat + 1} {workload} {kind}: in-run gates hold, exit {run['exit']}", ok)
            gate(
                f"run {repeat + 1} {workload}: traced and untraced trial 0 agree on every simulated result",
                untraced["detail"]["fingerprint_trial0"] == traced["detail"]["fingerprint_trial0"],
            )
            if args.check:
                check_run(workload, "end_to_end", untraced["result"], e2e, problems)
                check_run(workload, "per_layer", traced["result"], layers, problems)
            workloads[workload] = {
                "end_to_end": annotate(untraced["result"], e2e),
                "per_layer": annotate(traced["result"], layers),
                "attempted": untraced["result"]["attempted"],
                "failed": untraced["result"]["failed"],
                "untraced": {"process_wall_s": untraced["process_wall_s"], **untraced["detail"]},
                "traced": {"process_wall_s": traced["process_wall_s"], **traced["detail"]},
            }
        if {"testbed-pacm", "testbed-lru"} <= set(workloads):
            pacm, lru = (workloads[w]["end_to_end"]["sim_hit_ratio"]["value"] for w in ("testbed-pacm", "testbed-lru"))
            gate(f"run {repeat + 1}: testbed-pacm sim_hit_ratio {pacm:.4f} > testbed-lru {lru:.4f}", pacm > lru)
        doc["runs"].append({
            "repeat": repeat + 1, "workloads": workloads,
            "layer_contrast": [] if args.quick else layer_contrast(workloads),
        })

    if args.repeat >= 2:
        doc["aa"] = aa_table(doc["runs"], bench)
        for row in doc["aa"]:
            if row["exact"]:
                gate(f"A/A {row['workload']} {row['metric']} bitwise equal", row["bitwise_equal"])
        print_aa(doc["aa"])
    if args.check:
        doc["check_problems"] = problems
        for problem in problems:
            print(f"suite: check: {problem}", file=sys.stderr)

    json.dump(doc, sys.stdout, indent=1)
    print()
    failed = [g for g in doc["gates"] if not g["ok"]]
    if failed or problems:
        raise SystemExit(f"suite: {len(failed)} gate(s) failed, {len(problems)} check problem(s)")
    print(f"suite: all {len(doc['gates'])} gates hold", file=sys.stderr)


if __name__ == "__main__":
    main()
