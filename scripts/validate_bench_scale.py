#!/usr/bin/env python3
"""Validate BENCH_scale.json (the `repro bench-scale` artifact).

Usage: validate_bench_scale.py <BENCH_scale.json>

Checks, beyond well-formedness of the schema:

* the swept (aps, roam, cooperative) matrix is complete and duplicate-free,
  and matches the quick/full sweep the artifact claims,
* ratios are genuine fractions, latencies and fetch counts positive, and
  roams happen exactly in the cells whose roam rate is nonzero on a
  multi-AP grid,
* isolated cells never record peer hits (cooperation is the only source),
* every cell of up to 16 APs carries `tie_invariant: true` (the bench
  asserted its fingerprint under a tie-perturbation key) and no larger
  cell carries the key at all,
* at every grid of 64+ APs the cooperative cell's AP-layer hit ratio
  strictly beats the isolated one — the acceptance criterion the bench
  itself asserts before writing the artifact.

The build environment has no package registry access, so this is a
hand-rolled structural check rather than a jsonschema dependency.
"""

import json
import sys

SCHEMA = "ape-bench/scale/v1"
AP_SWEEP_FULL = (1, 16, 64, 256)
AP_SWEEP_QUICK = (1, 16)
ROAM_FULL = ("none", "low", "high")
ROAM_QUICK = ("none", "high")
TIE_ASSERT_MAX_APS = 16

CELL_KEYS = {
    "aps": int,
    "roam": str,
    "roam_per_minute": float,
    "cooperative": bool,
    "hit_ratio": float,
    "ap_layer_hit_ratio": float,
    "p99_ms": float,
    "fetches": int,
    "roams": int,
    "peer_hits": int,
    "wall_ms": float,
}


def fail(message):
    raise SystemExit(f"validate_bench_scale: {message}")


def check_cell(i, cell):
    for key, kind in CELL_KEYS.items():
        if key not in cell:
            fail(f"cells[{i}]: missing key {key!r}")
        value = cell[key]
        if kind is float and isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        if kind is bool:
            if not isinstance(value, bool):
                fail(f"cells[{i}].{key}: expected bool, got {value!r}")
        elif not isinstance(value, kind) or isinstance(value, bool):
            fail(f"cells[{i}].{key}: expected {kind.__name__}, got {value!r}")
    extra = set(cell) - set(CELL_KEYS) - {"tie_invariant"}
    if extra:
        fail(f"cells[{i}]: unexpected keys {sorted(extra)}")
    expected = True if cell["aps"] <= TIE_ASSERT_MAX_APS else None
    if cell.get("tie_invariant") is not expected:
        fail(f"cells[{i}]: tie_invariant must be true up to {TIE_ASSERT_MAX_APS} APs, absent above")
    if cell["aps"] <= 0 or cell["fetches"] <= 0 or cell["wall_ms"] <= 0:
        fail(f"cells[{i}]: aps/fetches/wall_ms must be positive")
    if cell["p99_ms"] <= 0:
        fail(f"cells[{i}].p99_ms: {cell['p99_ms']}")
    for key in ("hit_ratio", "ap_layer_hit_ratio"):
        if not 0.0 <= cell[key] <= 1.0:
            fail(f"cells[{i}].{key}: {cell[key]} is not a fraction")
    if cell["roam_per_minute"] < 0:
        fail(f"cells[{i}].roam_per_minute: {cell['roam_per_minute']}")
    roaming = cell["roam_per_minute"] > 0 and cell["aps"] > 1
    if (cell["roams"] > 0) != roaming:
        fail(
            f"cells[{i}]: {cell['roams']} roams at rate "
            f"{cell['roam_per_minute']}/min on {cell['aps']} APs"
        )
    if not cell["cooperative"] and cell["peer_hits"] != 0:
        fail(f"cells[{i}]: isolated cell recorded {cell['peer_hits']} peer hits")


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
    if not isinstance(doc.get("sim_seconds"), int) or doc["sim_seconds"] < 120:
        fail(f"sim_seconds: need at least two 60 s windows, got {doc.get('sim_seconds')!r}")
    cells = doc.get("cells")
    if not isinstance(cells, list):
        fail("cells: expected a list")
    for i, cell in enumerate(cells):
        check_cell(i, cell)

    ap_sweep = AP_SWEEP_QUICK if quick else AP_SWEEP_FULL
    roam_sweep = ROAM_QUICK if quick else ROAM_FULL
    by_key = {(c["aps"], c["roam"], c["cooperative"]): c for c in cells}
    if len(by_key) != len(cells):
        fail("cells: duplicate (aps, roam, cooperative) entries")
    for aps in ap_sweep:
        for roam in roam_sweep:
            for cooperative in (True, False):
                if (aps, roam, cooperative) not in by_key:
                    fail(f"missing cell: {aps} APs, roam {roam}, cooperative={cooperative}")
    if len(cells) != len(ap_sweep) * len(roam_sweep) * 2:
        fail(f"cells: expected the full matrix, got {len(cells)} entries")

    for aps in (a for a in ap_sweep if a >= 64):
        for roam in roam_sweep:
            coop = by_key[(aps, roam, True)]
            iso = by_key[(aps, roam, False)]
            if coop["ap_layer_hit_ratio"] <= iso["ap_layer_hit_ratio"]:
                fail(
                    f"{aps} APs, roam {roam}: cooperative AP-layer hit ratio "
                    f"{coop['ap_layer_hit_ratio']} does not beat isolated "
                    f"{iso['ap_layer_hit_ratio']}"
                )

    print(
        f"validate_bench_scale: OK — {len(cells)} cells over grids "
        f"{list(ap_sweep)} x roam {list(roam_sweep)}, quick={quick}"
    )


if __name__ == "__main__":
    main()
