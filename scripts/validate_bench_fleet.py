#!/usr/bin/env python3
"""Validate BENCH_fleet.json (the `repro bench-fleet` artifact).

Usage: validate_bench_fleet.py <BENCH_fleet.json>

Checks, beyond well-formedness of the schema:

* the swept populations match the quick/full sweep the artifact claims,
  one cell each, and every cell was timed over at least three trials,
* counts and rates are positive, and min <= median <= max wall-clock,
* each rate is the one its cell's median wall-clock implies.

The build environment has no package registry access, so this is a
hand-rolled structural check rather than a jsonschema dependency.
"""

import json
import sys

SCHEMA = "ape-bench/fleet/v1"
SWEEP_FULL = [10_000, 100_000, 1_000_000]
SWEEP_QUICK = [10_000]

CELL_KEYS = {
    "clients": int,
    "events": int,
    "fetches": int,
    "wall_ms_median": float,
    "wall_ms_min": float,
    "wall_ms_max": float,
    "events_per_sec": int,
    "fetches_per_sec": int,
}


def fail(message):
    raise SystemExit(f"validate_bench_fleet: {message}")


def check_cell(i, cell):
    for key, kind in CELL_KEYS.items():
        if key not in cell:
            fail(f"cells[{i}]: missing key {key!r}")
        value = cell[key]
        if kind is float and isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        if not isinstance(value, kind) or isinstance(value, bool):
            fail(f"cells[{i}].{key}: expected {kind.__name__}, got {value!r}")
        if value <= 0:
            fail(f"cells[{i}].{key}: must be positive, got {value}")
    extra = set(cell) - set(CELL_KEYS)
    if extra:
        fail(f"cells[{i}]: unexpected keys {sorted(extra)}")
    if not cell["wall_ms_min"] <= cell["wall_ms_median"] <= cell["wall_ms_max"]:
        fail(f"cells[{i}]: wall-clock min/median/max out of order")
    for count, rate in (("events", "events_per_sec"), ("fetches", "fetches_per_sec")):
        implied = cell[count] / (cell["wall_ms_median"] / 1e3)
        # wall_ms_median is printed to 0.01 ms; 0.1 % covers that rounding.
        if abs(cell[rate] - implied) > implied * 1e-3 + 1:
            fail(f"cells[{i}].{rate}: {cell[rate]} is not {count}/median ({implied:.0f})")


def main():
    if len(sys.argv) != 2:
        raise SystemExit(__doc__.strip().splitlines()[2])
    with open(sys.argv[1]) as f:
        doc = json.load(f)

    if doc.get("schema") != SCHEMA:
        fail(f"schema: expected {SCHEMA!r}, got {doc.get('schema')!r}")
    quick = doc.get("quick")
    if not isinstance(quick, bool):
        fail(f"quick: expected bool, got {quick!r}")
    trials = doc.get("trials_per_cell")
    if not isinstance(trials, int) or trials < 3:
        fail(f"trials_per_cell: need at least 3, got {trials!r}")
    cells = doc.get("cells")
    if not isinstance(cells, list):
        fail("cells: expected a list")
    for i, cell in enumerate(cells):
        check_cell(i, cell)
    sizes = [c["clients"] for c in cells]
    want = SWEEP_QUICK if quick else SWEEP_FULL
    if sizes != want:
        fail(f"cells: expected populations {want}, got {sizes}")

    print(
        f"validate_bench_fleet: OK — {len(cells)} cells over populations "
        f"{sizes}, quick={quick}, {trials} trials per cell"
    )


if __name__ == "__main__":
    main()
