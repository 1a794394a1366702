"""Regenerate every experiment table: ``python -m repro.bench [ids...]``.

With no arguments, runs all experiments in paper order and prints the
tables.  Pass experiment ids — the keys of
:data:`repro.bench.figures.ALL_EXPERIMENTS`; an unknown id prints them —
to run a subset.

Options:

``--jobs N``
    Fan each experiment's sweep points over ``N`` worker processes (see
    :mod:`repro.bench.runner`).  The printed tables are byte-identical to
    a serial run; only wall time changes.
``--shards N``
    Run each individual sweep point on the sharded conservative-parallel
    DES core with ``N`` shard workers (see :mod:`repro.sim.shard`) —
    within-point parallelism, orthogonal to ``--jobs``.  Tables stay
    byte-identical (the sharded core is exact); only wall time changes.
``--json DIR``
    Additionally write a machine-readable ``BENCH_<id>.json`` per
    experiment under ``DIR`` (rows plus wall-time and events/sec metadata).
``--markdown PATH``
    Additionally write the tables as a markdown report.
"""

from __future__ import annotations

import sys
import time

from repro.bench.figures import ALL_EXPERIMENTS
from repro.bench.report import to_markdown
from repro.bench.runner import run_experiment, write_bench_json


def _pop_option(argv: list[str], name: str) -> tuple[list[str], str | None]:
    if name not in argv:
        return argv, None
    i = argv.index(name)
    try:
        value = argv[i + 1]
    except IndexError:
        raise SystemExit(f"{name} needs a value")
    return argv[:i] + argv[i + 2:], value


def main(argv: list[str]) -> int:
    try:
        argv, md_path = _pop_option(argv, "--markdown")
        argv, json_dir = _pop_option(argv, "--json")
        argv, jobs_s = _pop_option(argv, "--jobs")
        argv, shards_s = _pop_option(argv, "--shards")
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    try:
        jobs = int(jobs_s) if jobs_s is not None else 1
    except ValueError:
        print(f"--jobs needs an integer, got {jobs_s!r}", file=sys.stderr)
        return 2
    try:
        shards = int(shards_s) if shards_s is not None else 0
    except ValueError:
        print(f"--shards needs an integer, got {shards_s!r}",
              file=sys.stderr)
        return 2
    ids = argv or list(ALL_EXPERIMENTS)
    unknown = [i for i in ids if i not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiment ids: {unknown}; "
              f"available: {list(ALL_EXPERIMENTS)}", file=sys.stderr)
        return 2
    md_parts = ["# Regenerated experiment tables", ""]
    for eid in ids:
        t0 = time.perf_counter()
        table, meta = run_experiment(eid, jobs=jobs, shards=shards)
        dt = time.perf_counter() - t0
        print(table)
        print(f"[{eid} regenerated in {dt:.1f}s wall; "
              f"{meta['events']:,} events, "
              f"{meta['events_per_s']:,.0f} events/s, "
              f"jobs={meta['jobs']}, shards={meta['shards']}]")
        print()
        md_parts.append(to_markdown(table))
        md_parts.append("")
        if json_dir is not None:
            path = write_bench_json(json_dir, table, meta)
            print(f"wrote {path}")
    if md_path is not None:
        with open(md_path, "w") as fh:
            fh.write("\n".join(md_parts))
        print(f"markdown report written to {md_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
