"""``run.py --compare A.json B.json``: is B no worse than A?

For every workload and end-to-end metric (all four are lower-is-better):
both values, the relative difference ``(B - A) / A`` and a verdict
against the bound fixed in ``BENCHMARK.json``:

* ``ok`` — B is not worse than A by more than the bound;
* ``regressed`` — it is, and both files measured the metric steadily;
* ``unresolved`` — it is, but the run-to-run spread recorded in either
  file is wider than the bound, so the difference cannot be told from
  noise (choosing-metrics guide §6.5): measure again on a quieter host.

Then every exact count (simulated statistics, per-layer call counts,
result digests) that differs: a speed-only change must leave them all
identical.  Exit status 1 when anything regressed or differs.
"""

from __future__ import annotations

import json


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def verdict(a: float, b: float, bound: float, spread: float) -> str:
    rel = (b - a) / a
    if rel <= bound:
        return "ok"
    return "unresolved" if spread > bound else "regressed"


def compare(path_a: str, path_b: str, manifest: dict) -> int:
    runs = _load(path_a), _load(path_b)
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    bad = 0
    print(f"{'workload':<16}{'metric':<13}{'A':>12}{'B':>12}{'diff':>9}"
          f"{'bound':>8}  verdict")
    for name in runs[0]["workloads"]:
        recs = [run["workloads"].get(name) for run in runs]
        if recs[1] is None:
            print(f"{name:<16}missing from {path_b}")
            bad += 1
            continue
        for metric, bound in bounds.items():
            if any(metric not in r["end_to_end"] for r in recs):
                continue
            a, b = (r["end_to_end"][metric] for r in recs)
            # cpu_s moves with wall_s; peak_rss_mb has no spread of its own
            key = "wall_s" if metric == "cpu_s" else metric
            spread = max(r["spread"].get(key, 0.0) for r in recs)
            what = verdict(a, b, bound, spread)
            bad += what == "regressed"
            print(f"{name:<16}{metric:<13}{a:>12.4f}{b:>12.4f}"
                  f"{(b - a) / a:>+9.1%}{bound:>8.0%}  {what}"
                  + (f" (spread {spread:.1%})" if what == "unresolved"
                     else ""))
        for rec, path in zip(recs, (path_a, path_b)):
            if rec["ops"]["failed"]:
                print(f"{name:<16}{rec['ops']['failed']} failed "
                      f"operations in {path}")
                bad += 1
        exact = [dict(r["exact"], digest=r["digest"]) for r in recs]
        for key in sorted(set(exact[0]) | set(exact[1])):
            a, b = exact[0].get(key), exact[1].get(key)
            if a != b:
                print(f"{name:<16}exact count differs: {key}: {a} -> {b}")
                bad += 1
    key = "network.shardlink.probe.packet_bytes"
    sizes = [run.get("probes", {}).get(key) for run in runs]
    if None not in sizes and sizes[0] != sizes[1]:
        print(f"probes          exact count differs: {key}: "
              f"{sizes[0]} -> {sizes[1]}")
        bad += 1
    print("all within bounds, exact counts identical" if not bad
          else f"{bad} regression(s) or differing exact count(s)")
    return 1 if bad else 0
