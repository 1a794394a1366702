"""Parallel experiment runner: fan sweep points across a process pool.

Every figure driver in :mod:`repro.bench.figures` is a loop over independent
sweep points (process counts or message sizes) — each point builds its own
engines, so points can run in separate worker processes with no shared
state.  :func:`run_experiment` splits an experiment into per-point subcalls,
maps them over a ``multiprocessing`` pool, and merges the returned rows in
canonical (input-order) order, so the merged table is **byte-identical** to a
serial run: the simulation itself is deterministic, and each worker is
additionally re-seeded from a stable per-point seed so any library RNG state
matches no matter which worker picks the point up.

Alongside the plain-text table, the runner reports machine-readable metadata
(wall time, heap events simulated, events/sec) that
:func:`write_bench_json` serialises as ``BENCH_<experiment>.json`` — the
format the CI bench-smoke job diffs against the committed baselines.
"""

from __future__ import annotations

import inspect
import json
import multiprocessing.pool as _mp_pool
import os
import random
import time
import zlib
from typing import Any

import numpy as np

from repro.bench.figures import ALL_EXPERIMENTS
from repro.bench.report import Table
from repro.sim.engine import events_scheduled
from repro.sim.scheduler import scheduler_name


def _worker_pool(ctx, processes: int) -> _mp_pool.Pool:
    """A Pool whose workers are *not* daemonic.

    Plain ``Pool`` workers are daemons and may not have children, which
    would forbid a sweep point from forking shard workers — this pool
    lets ``jobs=N`` (across points) compose with ``shards=M`` (within a
    point).  The pool machinery force-sets ``daemon = True`` on each
    worker, so the process class itself must swallow the flag.  The
    context manager still reaps the workers on exit.
    """
    class _NoDaemonProcess(ctx.Process):
        @property
        def daemon(self):
            return False

        @daemon.setter
        def daemon(self, value):
            pass

    class _NoDaemonContext(type(ctx)):
        Process = _NoDaemonProcess

    return _mp_pool.Pool(processes, context=_NoDaemonContext())


def _point_seed(eid: str, index: int) -> int:
    """Stable per-point seed (crc32: identical across processes and runs)."""
    return zlib.crc32(f"{eid}:{index}".encode())


def _run_point(
        payload: tuple[str, dict[str, Any], int, int]) -> dict[str, Any]:
    """Worker body: run one experiment (sub)call and return its table parts.

    Top-level so it pickles under any multiprocessing start method.  A
    nonzero ``shards`` pins ``REPRO_SHARDS`` for the call, so every
    cluster the driver builds (unless it sets ``ClusterConfig.shards``
    itself) executes on the sharded conservative-parallel core.
    """
    eid, kwargs, seed, shards = payload
    random.seed(seed)
    np.random.seed(seed & 0xFFFFFFFF)
    prev = os.environ.get("REPRO_SHARDS")
    if shards:
        os.environ["REPRO_SHARDS"] = str(shards)
    try:
        before = events_scheduled()
        table = ALL_EXPERIMENTS[eid].driver(**kwargs)
        events = events_scheduled() - before
    finally:
        if shards:
            if prev is None:
                del os.environ["REPRO_SHARDS"]
            else:
                os.environ["REPRO_SHARDS"] = prev
    return {
        "title": table.title,
        "columns": table.columns,
        "rows": table.rows,
        "notes": table.notes,
        "events": events,
    }


def _sweep_points(eid: str, kwargs: dict[str, Any]):
    """Resolve the sweep parameter name and its values (from the kwargs or
    the driver's signature default); (None, None) for unsplittable ones."""
    exp = ALL_EXPERIMENTS[eid]
    param = exp.sweep
    if param is None:
        return None, None
    if param in kwargs:
        values = kwargs[param]
    else:
        values = inspect.signature(exp.driver).parameters[param].default
    return param, list(values)


def run_experiment(eid: str, jobs: int = 1, shards: int = 0,
                   **kwargs: Any) -> tuple[Table, dict[str, Any]]:
    """Run one experiment, optionally fanning sweep points over ``jobs``
    worker processes.  Returns ``(table, meta)``.

    The table is byte-identical to a serial
    ``ALL_EXPERIMENTS[eid].driver(**kwargs)`` call regardless of ``jobs``.
    ``meta`` carries ``wall_s`` (parent-side wall time), ``events``
    (scheduler events simulated across all workers), ``events_per_s``,
    ``jobs`` (pool size actually used), ``scheduler`` (the active
    event-scheduler implementation), ``shards`` and the per-point
    ``seeds``.

    ``shards`` selects *within-point* parallelism: each individual sweep
    point runs on the sharded conservative-parallel DES core
    (:mod:`repro.sim.shard`) with that many shard workers — orthogonal to
    ``jobs``, which fans independent points across a pool.  When the
    driver itself takes a ``shards`` keyword (e.g. ``shard_weak``) the
    value is passed straight through; otherwise it is applied via
    ``REPRO_SHARDS`` so every cluster the driver builds picks it up.
    Either way the table stays byte-identical (the sharded core is
    exact), so the merge and baseline contracts hold at any shard count.
    """
    if eid not in ALL_EXPERIMENTS:
        raise KeyError(f"unknown experiment {eid!r}; "
                       f"available: {list(ALL_EXPERIMENTS)}")
    if shards:
        driver_params = inspect.signature(
            ALL_EXPERIMENTS[eid].driver).parameters
        if "shards" in driver_params:
            kwargs["shards"] = shards
    param, values = _sweep_points(eid, kwargs)
    t0 = time.perf_counter()
    if jobs <= 1 or param is None or len(values) <= 1:
        payloads = [(eid, dict(kwargs), _point_seed(eid, 0), shards)]
        results = [_run_point(p) for p in payloads]
        used_jobs = 1
    else:
        payloads = []
        for i, v in enumerate(values):
            sub = dict(kwargs)
            sub[param] = (v,)
            payloads.append((eid, sub, _point_seed(eid, i), shards))
        try:
            import multiprocessing as mp
            ctx = mp.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            import multiprocessing as mp
            ctx = mp.get_context()
        used_jobs = min(jobs, len(payloads))
        with _worker_pool(ctx, used_jobs) as pool:
            results = pool.map(_run_point, payloads)
    wall = time.perf_counter() - t0

    table = Table(results[0]["title"], list(results[0]["columns"]))
    table.notes = results[0]["notes"]
    for r in results:
        table.rows.extend(r["rows"])
    events = sum(r["events"] for r in results)
    meta = {
        "experiment": eid,
        "jobs": used_jobs,
        "shards": shards,
        "wall_s": wall,
        "events": events,
        "events_per_s": events / wall if wall > 0 else 0.0,
        "scheduler": scheduler_name(),
        "seeds": [p[2] for p in payloads],
        "kwargs": {k: _jsonable(v) for k, v in kwargs.items()},
    }
    return table, meta


def _jsonable(v: Any) -> Any:
    """Coerce numpy scalars / sequences to plain JSON-serialisable values."""
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, np.floating):
        return float(v)
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


def bench_payload(table: Table, meta: dict[str, Any]) -> dict[str, Any]:
    """The ``BENCH_<eid>.json`` document for one experiment run."""
    return {
        "experiment": meta["experiment"],
        "title": table.title,
        "columns": list(table.columns),
        "rows": [[_jsonable(v) for v in row] for row in table.rows],
        "notes": table.notes,
        "jobs": meta["jobs"],
        "shards": meta.get("shards", 0),
        "wall_s": meta["wall_s"],
        "events": meta["events"],
        "events_per_s": meta["events_per_s"],
        "scheduler": meta.get("scheduler"),
        "seeds": meta["seeds"],
        "kwargs": meta["kwargs"],
    }


def write_bench_json(dir_path: str, table: Table,
                     meta: dict[str, Any]) -> str:
    """Write ``BENCH_<experiment>.json`` under ``dir_path``; returns path."""
    os.makedirs(dir_path, exist_ok=True)
    path = os.path.join(dir_path, f"BENCH_{meta['experiment']}.json")
    with open(path, "w") as fh:
        json.dump(bench_payload(table, meta), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
