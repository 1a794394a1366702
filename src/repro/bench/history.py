"""Events/sec trend ledger: append-only history of bench runs.

Every :func:`~repro.bench.runner.run_experiment` call can append one line
of metadata to ``benchmarks/history/<experiment>.jsonl`` — a flat,
merge-friendly ledger that accumulates one entry per PR/CI run.  The
ledger is what turns the smoke job's single-point events/sec check into a
*trajectory*: ``python -m repro.bench --trend`` renders the per-run
events/sec series per experiment, and ``benchmarks/smoke.py`` fails when
the freshly measured throughput falls too far below the best recent
ledger entry (a slow-creep regression the 3x absolute tolerance would
miss).

Ledger entry schema (one JSON object per line)::

    {"ts": "2026-08-08T12:00:00Z", "rev": "835a47b",
     "experiment": "fig1", "scheduler": "calendar", "jobs": 2,
     "shards": 0, "events": 371560, "wall_s": 1.64,
     "events_per_s": 226305.0, "cp_s": null, "events_per_s_cp": null,
     "gc_collections": [3, 0, 0], "kwargs": {...}}

``cp_s`` / ``events_per_s_cp`` are numbers only for runs that executed
on the sharded conservative-parallel core: critical-path CPU seconds
(slowest worker + coordinator, see
:func:`repro.sim.shard.critical_path_seconds`) and the events/sec over
that denominator — the aggregate fleet rate, i.e. the projected
wall-clock rate on a machine with one dedicated core per shard.  Serial
runs write ``null`` (rows from before that wrote ``0.0``;
:func:`fleet_rate` reads both as "not applicable").  The raw
``wall_s``/``events_per_s`` stay exactly as measured on the host.

``gc_collections`` is the number of cyclic-collector runs per generation
spent inside the experiment (see docs/architecture.md §9): the event
loop runs with the collector paused, so a row whose counts climb with
the event count means collections are happening inside the loop again.
Rows from before the field existed simply lack it.

Entries are environment-sensitive (they record wall time on whatever
machine ran them), so the *check* compares against the best of a recent
window rather than a single predecessor.  One ledger file can hold runs
of *different configurations* of an experiment (the smoke config next to
a 10k-rank weak-scaling point): entries record their ``kwargs``, and
:func:`trend_check` only compares entries whose configuration matches
the measurement's — a huge sharded sweep can't raise the floor the tiny
CI smoke config is held to.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from typing import Any

#: measured events/sec may be this many times below the best recent ledger
#: entry before the trend check fails (machine-to-machine variance is real;
#: a genuine scheduler regression shows up far beyond this).
TREND_TOLERANCE = 3.0

#: number of most-recent ledger entries the trend check compares against
TREND_WINDOW = 10

_SPARKS = "▁▂▃▄▅▆▇█"


def _git_rev() -> str | None:
    """Current short git revision, or None outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except OSError:  # pragma: no cover - git missing entirely
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def history_path(dir_path: str, eid: str) -> str:
    return os.path.join(dir_path, f"{eid}.jsonl")


def append_entry(dir_path: str, meta: dict[str, Any], *,
                 rev: str | None = None,
                 ts: str | None = None) -> dict[str, Any]:
    """Append one run's metadata to the ledger; returns the entry written.

    ``meta`` is the dict returned by ``run_experiment``.  ``rev`` and
    ``ts`` default to the current git revision and UTC time.
    """
    entry = {
        "ts": ts or time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "rev": rev if rev is not None else _git_rev(),
        "experiment": meta["experiment"],
        "scheduler": meta.get("scheduler"),
        "jobs": meta["jobs"],
        "shards": meta.get("shards", 0),
        "events": meta["events"],
        "wall_s": round(float(meta["wall_s"]), 4),
        "events_per_s": round(float(meta["events_per_s"]), 1),
        "cp_s": _rounded(meta.get("cp_s"), 4),
        "events_per_s_cp": _rounded(meta.get("events_per_s_cp"), 1),
        "gc_collections": meta.get("gc_collections"),
        "kwargs": meta.get("kwargs"),
    }
    os.makedirs(dir_path, exist_ok=True)
    with open(history_path(dir_path, meta["experiment"]), "a") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return entry


def _rounded(value: float | None, ndigits: int) -> float | None:
    return None if value is None else round(float(value), ndigits)


def fleet_rate(entry: dict[str, Any]) -> float | None:
    """Critical-path events/sec of a ledger row or run meta, or None when
    the run was serial (``null``, the older ``0.0``, or no field at all)."""
    return entry.get("events_per_s_cp") or None


def load_history(dir_path: str, eid: str) -> list[dict[str, Any]]:
    """All ledger entries for ``eid``, oldest first ([] if none)."""
    path = history_path(dir_path, eid)
    entries: list[dict[str, Any]] = []
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    entries.append(json.loads(line))
    except OSError:
        return []
    return entries


def trend_check(dir_path: str, eid: str, events_per_s: float,
                tolerance: float = TREND_TOLERANCE,
                window: int = TREND_WINDOW,
                kwargs: dict[str, Any] | None = None,
                require_history: bool = False) -> str | None:
    """Compare a fresh measurement against the recent ledger.

    Returns None when the measurement is acceptable, else a
    human-readable failure message.  The floor is ``best(last window
    entries) / tolerance``.  With ``kwargs`` given, only ledger entries
    recording the same experiment configuration count (entries
    predating config recording match any).  An empty ledger passes by
    default (a fresh checkout has no history); with ``require_history``
    it fails loudly instead — the CI gate sets it so a newly registered
    experiment must arrive with a seeded ledger series rather than
    silently skipping the trend check on every run.
    """
    entries = load_history(dir_path, eid)
    if kwargs is not None:
        entries = [e for e in entries
                   if "kwargs" not in e or e["kwargs"] == kwargs]
    if not entries:
        if require_history:
            return (f"{eid}: no ledger entries for this configuration "
                    f"under {dir_path} — seed the trend ledger "
                    f"(run benchmarks/smoke.py with --history and "
                    f"commit the appended {eid}.jsonl)")
        return None
    recent = entries[-window:]
    best = max(e["events_per_s"] for e in recent)
    floor = best / tolerance
    if events_per_s < floor:
        return (f"{eid}: events/sec trend regression: "
                f"{events_per_s:,.0f} < {floor:,.0f} (best of last "
                f"{len(recent)} ledger entries {best:,.0f} / "
                f"{tolerance}x tolerance)")
    return None


def _sparkline(values: list[float]) -> str:
    lo, hi = min(values), max(values)
    if hi <= lo:
        return _SPARKS[0] * len(values)
    span = hi - lo
    return "".join(
        _SPARKS[int((v - lo) / span * (len(_SPARKS) - 1))] for v in values)


def _ledger_order(found: list[str]) -> list[str]:
    """Stable experiment order for the trend report.

    Registry order first (the paper's figure order, then extensions like
    ``shard_weak``), then any ledger files for experiments no longer in
    the registry, alphabetically — so renders don't reshuffle as ledger
    files appear or experiments are added.
    """
    from repro.bench.figures import ALL_EXPERIMENTS
    present = set(found)
    ordered = [e for e in ALL_EXPERIMENTS if e in present]
    ordered += sorted(present - set(ALL_EXPERIMENTS))
    return ordered


def render_trend(dir_path: str, eids: list[str] | None = None) -> str:
    """Plain-text trend report over the ledger (for ``--trend``)."""
    if eids is None:
        found = [
            f[:-len(".jsonl")] for f in os.listdir(dir_path)
            if f.endswith(".jsonl")] if os.path.isdir(dir_path) else []
        eids = _ledger_order(found)
    lines: list[str] = []
    for eid in eids:
        entries = load_history(dir_path, eid)
        if not entries:
            lines.append(f"{eid}: no history")
            continue
        eps = [float(e["events_per_s"]) for e in entries]
        latest = entries[-1]
        first, last, best = eps[0], eps[-1], max(eps)
        rel = (last / first - 1.0) * 100.0 if first > 0 else 0.0
        fleet = fleet_rate(latest)
        gcs = latest.get("gc_collections")
        lines.append(
            f"{eid}: {len(entries)} runs  {_sparkline(eps)}  "
            f"latest {last:,.0f} ev/s ({rel:+.0f}% vs first, "
            f"best {best:,.0f}) "
            + (f"fleet {fleet:,.0f} ev/s " if fleet is not None else "")
            + (f"gc {'/'.join(map(str, gcs))} " if gcs is not None else "")
            + f"[rev {latest.get('rev') or '?'}, "
            f"{latest.get('scheduler') or '?'} scheduler]")
    if not lines:
        return "no bench history found"
    return "\n".join(lines)
