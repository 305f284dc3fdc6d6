#!/usr/bin/env bash
# Paired benchmark of the working tree against an earlier commit: builds
# benchmark/'s apebench once for <parent-rev> (from `git archive`) and once
# for the working tree, each into its own scratch target dir, then runs
# alternating pairs (parent first on odd pairs, change first on even ones),
# one process at a time, and prints the per-pair table with medians,
# quartiles and wins for every end-to-end metric (scripts/pair_report.py).
# Needs git, cargo, python3.
#
#   scripts/pair.sh <parent-rev> [--workload W] [--pairs N] [--seed S]
#                                [--seconds S]
#
# Defaults: testbed-lru, 10 pairs, seed 42, 16 s. Exits 1 if any sim_*
# metric, fetch_ok_share, attempted or fingerprint_trial0 differs between
# the two builds in any pair (they are functions of the seed alone; a
# fingerprint difference prints both fingerprints and names the fields
# that moved, of clock=, events=, metrics= and trace=), 3 if the change's
# median of an end-to-end metric is worse than the parent's by more than
# that metric's `bound` in BENCHMARK.json (read with its `better`), 2 on
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
exec python3 "$repo/scripts/pair_report.py" "$log" "$repo/BENCHMARK.json"
