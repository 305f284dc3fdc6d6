#!/usr/bin/env bash
# The benchmark's one command. Always rebuilds the package against the
# working tree, so a change under crates/ is what gets measured.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run; the last line of stdout is the result object
#       (correct, attempted, failed, metrics) — the form BENCHMARK.json names
#   benchmark/run.sh [--seed N] [--workload W] [--seconds S] [--repeat R]
#       every workload (or W), untraced then traced, each in its own
#       process; prints one JSON document with every metric, the host block
#       and the correctness gates; --repeat 2 adds the A/A table
#
# Exits non-zero if the build or any correctness gate fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
export APEBENCH_BIN="$CARGO_TARGET_DIR/release/apebench"

for arg in "$@"; do
    if [ "$arg" = "--trace" ]; then
        exec "$APEBENCH_BIN" --out-dir "$here/out" "$@"
    fi
done
exec python3 "$here/suite.py" "$@"
