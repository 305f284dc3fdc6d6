"""Report of a paired benchmark run, as scripts/pair.sh collects it.

    python3 scripts/pair_report.py <runs.jsonl> <BENCHMARK.json>

Prints the per-pair table of the timed metrics, then medians, quartiles,
wins and each end-to-end metric's bound, and checks that the simulated
results of the two builds are equal. Exits 1 if a sim_* metric,
fetch_ok_share, attempted or fingerprint_trial0 differs in any pair, 3 if
the change's median of an end-to-end metric is worse than the parent's by
more than the `bound` BENCHMARK.json gives it (in the direction of its
`better`), 0 otherwise.
"""

import json
import re
import sys

runs = [json.loads(line) for line in open(sys.argv[1])]
end_to_end = {m["name"]: m for m in json.load(open(sys.argv[2]))["end_to_end"]}
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


def worse_by(name, parent, change):
    """How much worse the change's median is than the parent's, as a share
    of the parent's (negative when it is better)."""
    if not parent:
        return 0.0
    shift = (change - parent) / abs(parent)
    return shift if end_to_end[name]["better"] == "lower" else -shift


timed = [m for m in metrics if not exact.match(m)]
print("| pair | " + " | ".join(f"`{m}`" for m in timed) + " |")
print("|---|" + "---|" * len(timed))
for p in pairs:
    cells = [f"{value('parent', p, m):.4g} → {value('change', p, m):.4g}" for m in timed]
    print(f"| {p} | " + " | ".join(cells) + " |")
print()
print(
    "| metric | parent median [q1–q3] | change median [q1–q3] | shift "
    "| change lower in | parent IQR | bound |"
)
print("|---|---|---|---|---|---|---|")
over_bound = []
for m in metrics:
    par = [value("parent", p, m) for p in pairs]
    chg = [value("change", p, m) for p in pairs]
    pq, cq = quartiles(par), quartiles(chg)
    shift = (cq[1] - pq[1]) / pq[1] * 100 if pq[1] else 0.0
    lower = sum(c < q for c, q in zip(chg, par))
    bound = "—"
    if m in end_to_end:
        limit = end_to_end[m]["bound"]
        bound = f"{limit * 100:g} % ({end_to_end[m]['better']} is better)"
        worse = worse_by(m, pq[1], cq[1])
        if worse > limit:
            bound += " **OVER**"
            over_bound.append(f"{m}: median worse by {worse * 100:.1f} %, bound {limit * 100:g} %")
    print(
        f"| `{m}` | {pq[1]:.4g} [{pq[0]:.4g}–{pq[2]:.4g}] | {cq[1]:.4g} [{cq[0]:.4g}–{cq[2]:.4g}] "
        f"| {shift:+.1f} % | {lower} / {len(pairs)} | {pq[2] - pq[0]:.4g} | {bound} |"
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
if over_bound:
    print("END-TO-END METRICS OVER THEIR BOUND:")
    print("\n".join(over_bound))
    sys.exit(3)
print(f"no end-to-end median is worse than its bound ({len(end_to_end)} metrics)")
