"""Bench-smoke gate: the byte-identity contract, and nothing else.

Run by the CI ``bench-smoke`` job (and usable locally)::

    PYTHONPATH=src python benchmarks/smoke.py --jobs 2 --json out/ \
        --shards 1,2,4 --baselines benchmarks/baselines

For each scaled-down experiment in :data:`repro.bench.runner.SMOKE_CONFIGS`
this script

1. runs the experiment under every scheduler in ``--schedulers`` (default
   ``calendar,heap``) and fails unless all rendered tables and simulated
   event counts are **byte-identical** — the scheduler equivalence matrix
   for the engine's ``(time, priority, seq)`` ordering contract;
2. runs the first (primary) scheduler with ``--jobs N`` and fails unless
   the parallel table matches the serial one (the runner's merge
   contract), writing ``BENCH_<id>.json`` for that run under ``--json``;
3. with ``--shards LIST`` (e.g. ``--shards 1,2,4``), re-runs the
   experiments in :data:`SHARD_SMOKE` at every listed shard count and
   fails unless each rendered table is byte-identical to the serial run —
   the sharded conservative-parallel core's exactness contract.  Only the
   tables are compared: the sharded core schedules extra boundary-
   machinery events, so raw event counts legitimately differ;
4. compares against the committed baseline in ``--baselines``: the row
   values and the simulated event count must match exactly (the
   simulation is deterministic).

Speed is not judged here: the printed events/sec is informational, and
whether a change is faster or slower is ``BENCHMARK.json``'s question
(``benchmarks/perf/run.py``).

Exits non-zero on the first violated check.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.bench.figures import ALL_EXPERIMENTS
from repro.bench.runner import (
    SMOKE_CONFIGS,
    bench_payload,
    run_experiment,
    write_bench_json,
)
from repro.sim import scheduler

#: experiments exercised by the ``--shards`` equivalence matrix — small
#: cluster-driven sweeps whose tables carry no shard-count column, so
#: byte-equality across shard counts is the exactness contract verbatim
SHARD_SMOKE = ("fig1", "fig4c", "svc_kv", "svc_kv_ft", "svc_pubsub")


def coverage_failures(registry=None, configs=None) -> list[str]:
    """Registry/SMOKE_CONFIGS drift, as loud failure messages.

    Registering an experiment without a smoke config would silently
    exempt it from the baseline gate — this turns the gap
    (in either direction) into a failed check instead.
    """
    registry = ALL_EXPERIMENTS if registry is None else registry
    configs = SMOKE_CONFIGS if configs is None else configs
    failures = []
    for eid in sorted(set(registry) - set(configs)):
        failures.append(
            f"{eid}: registered in ALL_EXPERIMENTS but has no "
            f"SMOKE_CONFIGS entry — add one so CI gives it a committed "
            f"baseline")
    for eid in sorted(set(configs) - set(registry)):
        failures.append(
            f"{eid}: SMOKE_CONFIGS entry for an experiment that is not "
            f"in ALL_EXPERIMENTS — remove it or register the experiment")
    return failures


def baseline_failures(eid: str, base_path: str,
                      now: dict) -> list[str]:
    """Compare one run's payload against a committed baseline file.

    Every malformed-input path (missing file, unparsable JSON, absent
    keys) returns a named failure instead of raising — a new experiment
    whose baseline was never committed must fail the gate with a message
    saying exactly that, not crash it with a KeyError.
    """
    try:
        with open(base_path) as fh:
            base = json.load(fh)
    except OSError as exc:
        return [f"{eid}: missing baseline {base_path} ({exc}); commit "
                f"the BENCH_{eid}.json written by the smoke --json "
                f"output"]
    except ValueError as exc:
        return [f"{eid}: baseline {base_path} is not valid JSON: {exc}"]
    missing = [k for k in ("rows", "events") if k not in base]
    if missing:
        return [f"{eid}: baseline {base_path} lacks required keys "
                f"{missing}; regenerate it"]
    failures = []
    if now["rows"] != base["rows"]:
        failures.append(f"{eid}: table rows differ from baseline "
                        f"{base_path} (determinism regression)")
    if now["events"] != base["events"]:
        failures.append(
            f"{eid}: simulated event count changed "
            f"({base['events']} -> {now['events']}); update the "
            f"baseline if the schedule change is intentional")
    return failures


def _run_with_scheduler(name: str, eid: str, jobs: int, kwargs: dict):
    """Run one experiment with the module default scheduler pinned to
    ``name``.

    The default (not ``Engine(scheduler=...)``) is the right knob here:
    every engine of the experiment is built deep inside the figure
    drivers, and the parallel runner's fork-started workers inherit the
    module state, so every engine in the pool uses the same
    implementation.
    """
    prev = scheduler._DEFAULT
    scheduler._DEFAULT = scheduler.scheduler_name(name)
    try:
        return run_experiment(eid, jobs=jobs, **kwargs)
    finally:
        scheduler._DEFAULT = prev


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--jobs", type=int, default=2,
                    help="pool size for the parallel leg (default 2)")
    ap.add_argument("--json", metavar="DIR", default=None,
                    help="write BENCH_<id>.json files under DIR")
    ap.add_argument("--baselines", metavar="DIR", default=None,
                    help="directory of committed BENCH_<id>.json baselines")
    ap.add_argument("--schedulers", default="calendar,heap",
                    help="comma-separated scheduler equivalence matrix; "
                         "the first entry is the primary (default "
                         "'calendar,heap')")
    ap.add_argument("--shards", default=None,
                    help="comma-separated shard counts (e.g. '1,2,4'): "
                         "re-run the SHARD_SMOKE experiments at each and "
                         "require byte-identical tables")
    args = ap.parse_args(argv)
    schedulers = [s for s in args.schedulers.split(",") if s]
    shard_counts = ([int(s) for s in args.shards.split(",") if s]
                    if args.shards else [])

    failures: list[str] = coverage_failures()
    total_wall = 0.0
    for eid, kwargs in SMOKE_CONFIGS.items():
        if eid not in ALL_EXPERIMENTS:
            continue  # already reported by coverage_failures
        # 1. scheduler equivalence matrix (serial legs)
        serial_table = serial_meta = None
        for sched in schedulers:
            table, meta = _run_with_scheduler(sched, eid, 1, kwargs)
            if serial_table is None:
                serial_table, serial_meta = table, meta
                continue
            if str(table) != str(serial_table):
                failures.append(
                    f"{eid}: {sched} scheduler table differs from "
                    f"{schedulers[0]} (ordering-contract violation)")
            if meta["events"] != serial_meta["events"]:
                failures.append(
                    f"{eid}: {sched} scheduler event count differs from "
                    f"{schedulers[0]} ({meta['events']} vs "
                    f"{serial_meta['events']})")

        # 2. parallel merge contract (primary scheduler)
        par_table, par_meta = _run_with_scheduler(
            schedulers[0], eid, args.jobs, kwargs)
        total_wall += par_meta["wall_s"]
        print(f"[{eid}] serial {serial_meta['wall_s']:.2f}s / "
              f"jobs={par_meta['jobs']} {par_meta['wall_s']:.2f}s, "
              f"{par_meta['events']:,} events, "
              f"{par_meta['events_per_s']:,.0f} events/s "
              f"({par_meta['scheduler']} scheduler, matrix "
              f"{'x'.join(schedulers)})")

        if str(serial_table) != str(par_table):
            failures.append(f"{eid}: parallel table differs from serial")
        if serial_meta["events"] != par_meta["events"]:
            failures.append(
                f"{eid}: event counts differ (serial "
                f"{serial_meta['events']} vs parallel {par_meta['events']})")

        # 3. sharded-core exactness matrix (tables only; the sharded core
        # schedules extra boundary events, so counts may differ)
        if shard_counts and eid in SHARD_SMOKE:
            for n in shard_counts:
                sh_table, sh_meta = _run_with_scheduler(
                    schedulers[0], eid, 1, {**kwargs, "shards": n})
                ok = str(sh_table) == str(serial_table)
                print(f"  shards={n}: {sh_meta['wall_s']:.2f}s, "
                      f"{'byte-identical' if ok else 'MISMATCH'}")
                if not ok:
                    failures.append(
                        f"{eid}: shards={n} table differs from serial "
                        f"(sharded-core exactness violation)")

        if args.json is not None:
            path = write_bench_json(args.json, par_table, par_meta)
            print(f"  wrote {path}")

        if args.baselines is not None:
            failures.extend(baseline_failures(
                eid, f"{args.baselines}/BENCH_{eid}.json",
                bench_payload(par_table, par_meta)))

    print(f"[smoke] total parallel wall {total_wall:.2f}s")
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    print("[smoke] all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
