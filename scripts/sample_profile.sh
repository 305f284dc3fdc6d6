#!/usr/bin/env bash
# Sampling profile of the *untraced* benchmark binary — the repo's answer
# to "no perf in the sandbox". Builds benchmark/'s apebench with frame
# pointers into a scratch target dir, runs one workload under the
# LD_PRELOAD shim (scripts/sample_preload.c: SIGALRM every 200 us, RIP +
# frame-pointer walk) and prints self / inclusive / libc-leaf-by-caller
# tables (scripts/sample_symbolize.py over `nm -C`). Needs gcc, nm, python3.
#
#   scripts/sample_profile.sh [--workload W] [--seed N] [--seconds S]
#                             [--focus FRAME] [--top N] [--callers-of PATTERN]
#                             [--layers]
#
# Defaults: testbed-lru, seed 42, 16 s, --focus run_until (shares of the
# event loop, set-up excluded), top 15. `--callers-of collections::btree`
# adds the btree share of the kept samples by caller, `--layers` the share
# by layer (metrics, send, evict, queue, logic; sample_symbolize.py).
# Scratch files go to $SAMPLE_DIR (default
# ${TMPDIR:-/tmp}/ape-sample-profile). Timing-dependent, so CI
# does not run it; the in-process profiler (the traced benchmark run)
# stays the per-layer instrument, this is the check on it.
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
dir="${SAMPLE_DIR:-${TMPDIR:-/tmp}/ape-sample-profile}"
workload=testbed-lru seed=42 seconds=16 focus=run_until top=15 callers_of= layers=
usage="usage: $0 [--workload W] [--seed N] [--seconds S] [--focus FRAME] [--top N] [--callers-of PATTERN] [--layers]"
while [ $# -gt 0 ]; do
    if [ "$1" = --layers ]; then
        layers=--layers
        shift
        continue
    fi
    [ $# -ge 2 ] || { echo "$usage" >&2; exit 2; }
    case "$1" in
        --workload) workload="$2" ;;
        --seed) seed="$2" ;;
        --seconds) seconds="$2" ;;
        --focus) focus="$2" ;;
        --top) top="$2" ;;
        --callers-of) callers_of="$2" ;;
        *) echo "$usage" >&2; exit 2 ;;
    esac
    shift 2
done

mkdir -p "$dir"
gcc -O2 -shared -fPIC -o "$dir/sample_preload.so" "$repo/scripts/sample_preload.c"
RUSTFLAGS="-C force-frame-pointers=yes" CARGO_TARGET_DIR="$dir/target" \
    cargo build --release --offline --quiet --manifest-path "$repo/benchmark/Cargo.toml" >&2
bin="$dir/target/release/apebench"

SAMPLE_OUT="$dir/samples.txt" LD_PRELOAD="$dir/sample_preload.so" \
    "$bin" --out-dir "$dir/out" --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace 0 | tail -n 1 >&2
rev="$(git -C "$repo" rev-parse --short HEAD 2>/dev/null)" || rev="no git"
[ "$rev" = "no git" ] || git -C "$repo" diff --quiet 2>/dev/null || rev="$rev+dirty"
echo "# $workload seed $seed, $rev"
python3 "$repo/scripts/sample_symbolize.py" "$dir/samples.txt" "$bin" --top "$top" ${focus:+--focus "$focus"} \
    ${callers_of:+--callers-of "$callers_of"} $layers
