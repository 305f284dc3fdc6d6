#!/usr/bin/env bash
# Paired benchmark of the working tree against an earlier commit: builds
# benchmark/'s apebench once for <parent-rev> (from `git archive`) and once
# for the working tree, each into its own scratch target dir, then runs
# alternating pairs (parent first on odd pairs, change first on even ones),
# one process at a time, and prints the per-pair table with medians,
# quartiles and wins for every end-to-end metric. Needs git, cargo, python3.
#
#   scripts/pair.sh <parent-rev> [--workload W] [--pairs N] [--seed S]
#                                [--seconds S]
#
# Defaults: testbed-lru, 10 pairs, seed 42, 16 s. Exits 1 if any sim_*
# metric, fetch_ok_share, attempted or fingerprint_trial0 differs between
# the two builds in any pair (they are functions of the seed alone; a
# fingerprint difference prints both fingerprints and names the fields
# that moved, of clock=, events=, metrics= and trace=), 2 on
# bad usage. Scratch files go to $PAIR_DIR (default
# ${TMPDIR:-/tmp}/ape-pair); the raw result lines stay in
# $PAIR_DIR/runs/<workload>-<seed>.jsonl. Host timing, so CI does not run it.
set -euo pipefail

usage="usage: $0 <parent-rev> [--workload W] [--pairs N] [--seed S] [--seconds S]"
[ $# -ge 1 ] && [ "${1#-}" = "$1" ] || { echo "$usage" >&2; exit 2; }
repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
dir="${PAIR_DIR:-${TMPDIR:-/tmp}/ape-pair}"
rev="$(git -C "$repo" rev-parse --verify "$1^{commit}")" || { echo "$usage" >&2; exit 2; }
shift
workload=testbed-lru pairs=10 seed=42 seconds=16
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || { echo "$usage" >&2; exit 2; }
    case "$1" in
        --workload) workload="$2" ;;
        --pairs) pairs="$2" ;;
        --seed) seed="$2" ;;
        --seconds) seconds="$2" ;;
        *) echo "$usage" >&2; exit 2 ;;
    esac
    shift 2
done

build() { # <source root> <target dir>
    CARGO_TARGET_DIR="$2" cargo build --release --offline --quiet \
        --manifest-path "$1/benchmark/Cargo.toml" >&2
}
mkdir -p "$dir/runs"
parent_src="$dir/src-${rev:0:12}"
if [ ! -d "$parent_src" ]; then
    mkdir -p "$parent_src.tmp"
    git -C "$repo" archive "$rev" | tar -x -C "$parent_src.tmp"
    mv "$parent_src.tmp" "$parent_src"
fi
build "$parent_src" "$dir/target-parent"
build "$repo" "$dir/target-change"
# Copies, so a later build into the same target dir cannot swap a binary
# under a running pair.
cp "$dir/target-parent/release/apebench" "$dir/apebench-parent"
cp "$dir/target-change/release/apebench" "$dir/apebench-change"

log="$dir/runs/$workload-$seed.jsonl"
: > "$log"
run() { # <side> <pair>
    local out
    out="$("$dir/apebench-$1" --out-dir "$dir/out" --workload "$workload" \
        --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 2)"
    printf '{"side": "%s", "pair": %s, "detail": %s, "result": %s}\n' "$1" "$2" \
        "$(sed -n 1p <<<"$out")" "$(sed -n 2p <<<"$out")" >> "$log"
}
for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then run parent "$i"; run change "$i"; else run change "$i"; run parent "$i"; fi
    echo "pair $i/$pairs done" >&2
done

echo "# $workload seed $seed, ${rev:0:7} -> working tree$(git -C "$repo" diff --quiet HEAD 2>/dev/null || echo ' (dirty)'), $pairs pairs"
python3 - "$log" <<'EOF'
import json, re, sys

runs = [json.loads(line) for line in open(sys.argv[1])]
by = {(r["side"], r["pair"]): r for r in runs}
pairs = sorted({r["pair"] for r in runs})
metrics = list(runs[0]["result"]["metrics"])
exact = re.compile(r"^(sim_|fetch_ok_share$)")


def value(side, pair, name):
    return by[(side, pair)]["result"]["metrics"][name]["value"]


def quartiles(xs):
    xs = sorted(xs)

    def at(q):
        pos = q * (len(xs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


timed = [m for m in metrics if not exact.match(m)]
print("| pair | " + " | ".join(f"`{m}`" for m in timed) + " |")
print("|---|" + "---|" * len(timed))
for p in pairs:
    cells = [f"{value('parent', p, m):.4g} → {value('change', p, m):.4g}" for m in timed]
    print(f"| {p} | " + " | ".join(cells) + " |")
print()
print("| metric | parent median [q1–q3] | change median [q1–q3] | shift | change lower in | parent IQR |")
print("|---|---|---|---|---|---|")
for m in metrics:
    par = [value("parent", p, m) for p in pairs]
    chg = [value("change", p, m) for p in pairs]
    pq, cq = quartiles(par), quartiles(chg)
    shift = (cq[1] - pq[1]) / pq[1] * 100 if pq[1] else 0.0
    lower = sum(c < q for c, q in zip(chg, par))
    print(
        f"| `{m}` | {pq[1]:.4g} [{pq[0]:.4g}–{pq[2]:.4g}] | {cq[1]:.4g} [{cq[0]:.4g}–{cq[2]:.4g}] "
        f"| {shift:+.1f} % | {lower} / {len(pairs)} | {pq[2] - pq[0]:.4g} |"
    )

differs = []
for p in pairs:
    a, b = by[("parent", p)], by[("change", p)]
    for m in metrics:
        if exact.match(m) and value("parent", p, m) != value("change", p, m):
            differs.append(f"pair {p}: {m} {value('parent', p, m)!r} != {value('change', p, m)!r}")
    if a["result"]["attempted"] != b["result"]["attempted"]:
        differs.append(f"pair {p}: attempted {a['result']['attempted']} != {b['result']['attempted']}")
    fa, fb = a["detail"]["fingerprint_trial0"], b["detail"]["fingerprint_trial0"]
    if fa != fb:
        fields_a, fields_b = (dict(kv.split("=", 1) for kv in f.split()) for f in (fa, fb))
        moved = [k + "=" for k in fields_a if fields_a[k] != fields_b.get(k)]
        differs.append(f"pair {p}: fingerprint_trial0 differs in {' '.join(moved)}: {fa} -> {fb}")
    for side in ("parent", "change"):
        if not by[(side, p)]["result"]["correct"]:
            differs.append(f"pair {p}: {side} run not correct")
print()
if differs:
    print("SIMULATED RESULTS DIFFER:")
    print("\n".join(differs))
    sys.exit(1)
print(
    f"sim_*, fetch_ok_share, attempted and fingerprint_trial0 equal in all {len(pairs)} pairs "
    f"(fingerprint {runs[0]['detail']['fingerprint_trial0']}, attempted {runs[0]['result']['attempted']})"
)
EOF
