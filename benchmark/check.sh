#!/usr/bin/env bash
# Self-check: a --quick smoke run of every workload (1 trial, 30 sim-min
# testbed / 16-AP city; never used for reported numbers) whose output is
# validated against BENCHMARK.json — every declared metric printed exactly
# once per workload with the declared unit and direction, no undeclared
# names, name charset [A-Za-z0-9_.-]. Takes well under a minute.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec "$here/run.sh" --quick --check "$@" >/dev/null
