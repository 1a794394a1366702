"""One workload, one fresh interpreter: set-up, timed, traced, probe passes.

Spawned by ``run.py`` (never imported by it, so the parent stays a small
interpreter and every workload starts from the same cold heap).  Prints
one JSON object on the last line of stdout.

An *operation* is one repetition of the workload — warm-up, timed,
reference or traced.  It fails when any correctness check attached to it
fails: the apps' own ``verify=True``, the per-workload row check, the
digest comparison against the pass's first repetition, or
(``dht_shards2``) row equality with a serial repetition of the same
inputs.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import workloads  # noqa: E402
from repro.sim.engine import events_scheduled  # noqa: E402


class Ops:
    """Attempted / failed operation counts with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0

    def record(self, what: str, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.failures += [f"{what}: {f}" for f in failures]


def _cpu_seconds() -> float:
    """User + system CPU of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def repetition(run, seed: int) -> dict:
    """Run once with the collector quiesced; time wall and CPU."""
    gc.collect()
    events0 = events_scheduled()
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter_ns()
    rows = run(seed)
    wall_ns = time.perf_counter_ns() - t0
    events = events_scheduled() - events0
    return {"rows": rows, "events": events, "wall_ns": wall_ns,
            "wall_s": wall_ns / 1e9, "cpu_s": _cpu_seconds() - cpu0,
            "digest": workloads.digest(rows, events)}


def checked(wl, seed: int, ops: Ops, what: str,
            first: dict | None = None) -> dict:
    """One repetition as one operation: the workload's row checks, and
    the same digest as the pass's first repetition."""
    rep = repetition(wl.run, seed)
    failures = wl.check(rep["rows"])
    if first is not None and rep["digest"] != first["digest"]:
        failures.append(f"digest {rep['digest'][:12]} != first "
                        f"repetition's {first['digest'][:12]}")
    ops.record(what, failures)
    return rep


def check_reference(wl, seed: int, first: dict, ops: Ops) -> dict | None:
    """Serial repetition of a sharded workload's inputs: equal rows."""
    if wl.reference is None:
        return None
    ref = repetition(wl.reference, seed)
    ops.record("serial reference",
               [] if ref["rows"] == first["rows"] else
               ["sharded rows differ from the serial run"])
    return ref


def peak_rss(shards: int) -> dict:
    """ru_maxrss is KiB on Linux; children report the largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return {"peak_rss_mb": own + shards * child, "rss_child_mb": child}


def timed_pass(wl, seed: int, ops: Ops, reps: int, seconds: float,
               reference: bool) -> dict:
    """At least ``reps`` repetitions; more while another one should still
    end within ``seconds`` of repetitions."""
    samples: list[dict] = []
    first = out = None
    spent = fastest = 0.0
    while len(samples) < reps or spent + fastest <= seconds:
        rep = checked(wl, seed, ops, f"timed rep {len(samples)}", first)
        first = first or rep
        # high-water mark after warm-up + one repetition: how many more
        # fit the time budget must not move the memory metric
        out = out or peak_rss(wl.shards)
        samples.append({"wall_s": rep["wall_s"], "cpu_s": rep["cpu_s"]})
        spent = sum(s["wall_s"] for s in samples)
        fastest = min(s["wall_s"] for s in samples)
    if not wl.shards and out["rss_child_mb"]:
        ops.record("fork check", ["a serial workload forked a child"])
    if reference:
        check_reference(wl, seed, first, ops)
    out.update(reps=samples, digest=first["digest"], events=first["events"])
    return out


def traced_pass(wl, seed: int, ops: Ops) -> dict:
    """One untraced reference repetition, then one with spans on."""
    import spans  # not part of any workload's set-up
    plain = checked(wl, seed, ops, "untraced rep")
    cost = spans.calibrate()
    rec = spans.Recorder()
    rec.install()
    try:
        traced = checked(wl, seed, ops, "traced rep", plain)
    finally:
        rec.uninstall()
    if spans.installed():
        ops.record("tracer", ["wrappers still installed after the pass"])
    summary = rec.summary(traced["wall_ns"], cost)
    counts = dict(rec.counts)
    counts["sim.engine.events"] = traced["events"]
    out = {
        "untraced_wall_s": plain["wall_s"],
        "traced_wall_s": traced["wall_s"],
        "events_per_s": traced["events"] / plain["wall_s"],
        "ns_per_event": plain["wall_s"] * 1e9 / traced["events"],
        "layers": summary["layers"],
        "callables": summary["callables"],
        "raw_spans": summary["raw_spans"],
        "spans_total": summary["spans_total"],
        "counts": counts,
        "trace": {
            "overhead_ratio": traced["wall_s"] / plain["wall_s"],
            "span_cost_ns": cost.plain_total_ns,
            "gen_span_cost_ns": cost.gen_total_ns,
            "unattributed_s": summary["unattributed_s"],
            "overhead_s": summary["overhead_s"],
            "attributed_share":
                1.0 - summary["unattributed_s"] / summary["wall_s"],
        },
        "model": wl.model(traced["rows"]) if wl.model else {},
        "rows_sha": traced["digest"],
        "shard": {},
        "digest": plain["digest"],
        "events": plain["events"],
    }
    ref = check_reference(wl, seed, plain, ops)
    if wl.shards:
        run = rec.sharded_runs[-1]
        if run.shards != wl.shards or len(run.cpu_s) != wl.shards:
            ops.record("shard count", [f"{run.shards} workers, wanted "
                                       f"{wl.shards}"])
        out["shard"] = {
            "windows": run.windows, "exchanges": run.exchanges,
            "worker_cpu_s": sum(run.cpu_s),
            "critical_path_s": run.critical_path_s,
            "wait_s": max(traced["wall_s"] - run.critical_path_s, 0.0),
            "speedup_vs_serial": ref["wall_s"] / plain["wall_s"],
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", required=True,
                        choices=("timed", "traced", "probes"))
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--reps", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--reference", action="store_true",
                        help="timed: also run the serial reference check")
    parser.add_argument("--core", type=int, default=None,
                        help="pin this interpreter to one core")
    parser.add_argument("--t-spawn", type=float, default=None,
                        help="time.monotonic() of the parent at spawn")
    parser.add_argument("--with-probes", action="store_true")
    parser.add_argument("--probe-batches", type=int, default=5)
    parser.add_argument("--probe-batch-s", type=float, default=0.2)
    args = parser.parse_args(argv)
    t_spawn = time.monotonic() if args.t_spawn is None else args.t_spawn
    if args.core is not None:
        os.sched_setaffinity(0, {args.core})

    ops = Ops()
    out: dict = {"mode": args.mode, "workload": args.workload,
                 "seed": args.seed, "numpy": numpy.__version__}
    try:
        if args.mode != "probes":
            wl = workloads.WORKLOADS[args.workload]
            ops.record("warm-up", wl.warm(args.seed))
            # interpreter start -> the first timed repetition can begin
            out["setup_s"] = time.monotonic() - t_spawn
            if args.mode == "timed":
                out.update(timed_pass(wl, args.seed, ops, args.reps,
                                      args.seconds, args.reference))
            else:
                out.update(traced_pass(wl, args.seed, ops))
        if args.mode == "probes" or args.with_probes:
            import probes  # not part of any workload's set-up
            out["probes"] = probes.run_probes(
                probes.Budget(args.probe_batches, args.probe_batch_s),
                args.seed, str(ROOT))
    except Exception as exc:
        traceback.print_exc()
        if not ops.failed:
            ops.record(args.mode, [f"{type(exc).__name__}: {exc}"])
    out.update(attempted=ops.attempted, failed=ops.failed,
               failures=ops.failures)
    print(json.dumps(out))
    return 1 if ops.failed else 0


if __name__ == "__main__":
    sys.exit(main())
