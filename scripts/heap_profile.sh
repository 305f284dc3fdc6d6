#!/usr/bin/env bash
# Heap attribution of the *untraced* benchmark binary: which call stacks
# hold the live heap at its peak. Builds benchmark/'s apebench with frame
# pointers into a scratch target dir, runs one workload under the
# LD_PRELOAD shim (scripts/heap_preload.c: interposed malloc / calloc /
# realloc / free / posix_memalign, live requested bytes per call stack,
# snapshot at the peak) and prints owner / inclusive tables
# (scripts/sample_symbolize.py --heap over `nm -C`). Needs gcc, nm, python3.
#
#   scripts/heap_profile.sh [--workload W] [--seed N] [--seconds S]
#                           [--depth N] [--top N]
#
# Defaults: city-coop, seed 42, 16 s, owner depth 2, top 25. Scratch files
# go to $HEAP_DIR (default ${TMPDIR:-/tmp}/ape-heap-profile); nothing is
# written into the repo. The shim adds ~20 % host time and ~5 MB RSS on
# city-coop and CI does not run it; `peak_rss_mb` and `core.metrics_mb`
# stay the benchmark's memory numbers, this names who holds them.
#
# The simulator's own owners, by their first frame: link rows
# (`LinkTable::insert`: a 4-byte key and a 12-byte link each), link
# reservations (`LinkTable::reserve`: the slab of arrivals in flight),
# the event queue (`TimerWheel::{refill, push}`, `EventQueue::insert`)
# and each client's schedule stream (`ClientNode::new`: one boxed share
# per client, no executions).
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
dir="${HEAP_DIR:-${TMPDIR:-/tmp}/ape-heap-profile}"
workload=city-coop seed=42 seconds=16 depth=2 top=25
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2" ;;
        --seed) seed="$2" ;;
        --seconds) seconds="$2" ;;
        --depth) depth="$2" ;;
        --top) top="$2" ;;
        *) echo "usage: $0 [--workload W] [--seed N] [--seconds S] [--depth N] [--top N]" >&2; exit 2 ;;
    esac
    shift 2
done

mkdir -p "$dir"
gcc -O2 -fno-omit-frame-pointer -shared -fPIC -o "$dir/heap_preload.so" "$repo/scripts/heap_preload.c"
RUSTFLAGS="-C force-frame-pointers=yes" CARGO_TARGET_DIR="$dir/target" \
    cargo build --release --offline --quiet --manifest-path "$repo/benchmark/Cargo.toml" >&2
bin="$dir/target/release/apebench"

HEAP_OUT="$dir/heap.txt" LD_PRELOAD="$dir/heap_preload.so" \
    "$bin" --out-dir "$dir/out" --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace 0 | tail -n 1 >&2
rev="$(git -C "$repo" rev-parse --short HEAD 2>/dev/null)" || rev="no git"
[ "$rev" = "no git" ] || git -C "$repo" diff --quiet 2>/dev/null || rev="$rev+dirty"
echo "# $workload seed $seed, $rev"
python3 "$repo/scripts/sample_symbolize.py" "$dir/heap.txt" "$bin" --heap --depth "$depth" --top "$top"
