#!/usr/bin/env python3
"""Compare a fresh `repro bench-evict` artifact with the committed one.

Usage: check_bench_evict.py <committed BENCH_evict.json> <fresh BENCH_evict.json>

Every `(policy, objects)` cell's simulated fields — the victim count, the
store size and the per-call solver counters — are a function of the seed
alone, so a fresh run (quick or full) must repeat the committed file's
exactly; a difference means an eviction decision moved. The PACM cells
must also report no workspace growth after warm-up. Timings are not
compared.
"""

import json
import sys

DETERMINISTIC = ("victims", "store_bytes", "solver")


def cells(path):
    doc = json.load(open(path))
    return doc["seed"], {(c["policy"], c["objects"]): c for c in doc["cells"]}


def main(committed_path, fresh_path):
    seed, committed = cells(committed_path)
    fresh_seed, fresh = cells(fresh_path)
    errors = []
    if seed != fresh_seed:
        errors.append(f"seed: committed {seed}, fresh {fresh_seed}")
    if committed.keys() != fresh.keys():
        errors.append(f"cells differ: {sorted(committed.keys() ^ fresh.keys())}")
    for key in sorted(committed.keys() & fresh.keys()):
        for field in DETERMINISTIC:
            if committed[key][field] != fresh[key][field]:
                errors.append(
                    f"{key} {field}: committed {committed[key][field]}, fresh {fresh[key][field]}"
                )
    for path, doc in ((committed_path, committed), (fresh_path, fresh)):
        for key, cell in sorted(doc.items()):
            if cell["solver"] is not None and cell["workspace_allocations"] != 0:
                errors.append(
                    f"{path} {key}: workspace_allocations {cell['workspace_allocations']}, expected 0"
                )
    if errors:
        raise SystemExit("check_bench_evict:\n  " + "\n  ".join(errors))
    print(f"check_bench_evict: {len(committed)} cells match {committed_path}")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    main(sys.argv[1], sys.argv[2])
