"""The repo benchmark: five host-time workloads, one command.

Full run (every pass, every workload, table on stdout, JSON on request)::

    python3 benchmarks/perf/run.py --out before.json
    python3 benchmarks/perf/run.py --workload kv_service --pass timed
    python3 benchmarks/perf/run.py --compare before.json after.json

Driver contract (one workload, one JSON object on the last line)::

    python3 benchmarks/perf/run.py --workload stencil_modes --seed 7 \
        --seconds 21 --trace 0

Three passes, every one in fresh interpreters (``worker.py``):

* **timed** — tracing off, three rounds of interpreters, one per core in
  each round: a reduced-size verifying warm-up, then timed repetitions;
  reports ``wall_s`` (best of all), ``cpu_s``, and ``peak_rss_mb`` /
  ``setup_s`` (median over the interpreters);
* **traced** — one more repetition with spans recorded around each layer's
  public entry points (``spans.py``): per-layer self time, call counts and
  the exact simulated counts;
* **probes** — micro-benchmarks of each layer alone (``probes.py``).

This process stays small on purpose: it imports neither NumPy nor
``repro``, so the children it spawns inherit no heap and no high-water
RSS from it.  See README.md for what each number means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
MANIFEST = ROOT / "BENCHMARK.json"

#: the timed pass of one workload: rounds of fresh interpreters, and how
#: many cores get one each per round
ROUNDS = 3
CORES = 2
#: workloads that fork their own workers (this process imports neither
#: ``workloads`` nor ``repro``, so it cannot ask)
FORKING = ("dht_shards2",)
#: wall-clock allowance for one invocation under the driver contract
DEADLINE_S = 170.0

#: environment of every child: simulator knobs unset, allocator and hash
#: seed pinned (see README "Noise control")
UNSET = ("REPRO_SCHEDULER", "REPRO_SHARDS", "REPRO_SANITIZE")
PINNED = {
    "PYTHONHASHSEED": "0",
    # glibc grows its mmap threshold after the first freed 1 MiB rank
    # address space; later repetitions then calloc from the heap and
    # memset 512 MB.  Pinning it keeps every repetition a first one.
    "MALLOC_MMAP_THRESHOLD_": "131072",
    # NumPy madvises arrays of 4 MiB and more (every 64 MiB rank address
    # space) for transparent huge pages; whether the kernel has 2 MiB
    # pages to give is the host's business, and swings stencil_modes
    # between 39 and 103 MB of RSS and 2.6 and 3.6 s of wall.
    "NUMPY_MADVISE_HUGEPAGE": "0",
}


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in UNSET}
    env.update(PINNED)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def start(mode: str, **options) -> subprocess.Popen:
    """Start ``worker.py`` in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--t-spawn", repr(time.monotonic())]
    for key, value in options.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            cmd.append(flag)
        elif value not in (None, False):
            cmd += [flag, str(value)]
    return subprocess.Popen(cmd, env=child_env(), cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)


def finish(proc: subprocess.Popen, deadline: float) -> dict:
    """Wait for a worker (kill it at the deadline); return its JSON."""
    try:
        stdout, _ = proc.communicate(
            timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    lines = stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"worker exited {proc.returncode} without a "
                           f"result")
    return json.loads(lines[-1])


def spawn(mode: str, deadline: float, **options) -> dict:
    return finish(start(mode, **options), deadline)


def timed_children(name: str, seed: int, deadline: float, reps: int,
                   seconds: float, sharded: bool) -> list[dict]:
    """The timed pass of one workload: ``ROUNDS`` rounds of fresh
    interpreters, in each round one pinned to every core (up to
    ``CORES``) and running at the same time.

    The cores of the reference box are slowed by its neighbours at
    different times (README "Noise control"), so the fastest repetition of
    a pair is far steadier than that of either core.  A workload that
    forks its own workers needs every core: one interpreter per round.
    """
    cores = [None] if sharded \
        else sorted(os.sched_getaffinity(0))[:CORES]
    children = []
    for i in range(ROUNDS):
        procs = [start("timed", workload=name, seed=seed, core=core,
                       reps=-(-reps // (ROUNDS * len(cores))),
                       seconds=seconds / ROUNDS,
                       reference=(i == 0 and core == cores[0]))
                 for core in cores]
        try:
            children += [finish(p, deadline) for p in procs]
        finally:
            for p in procs:
                if p.poll() is None:
                    p.kill()
                    p.wait()
    return children


# -- one workload -----------------------------------------------------------
def measure(name: str, seed: int, passes: set[str], deadline: float,
            reps: int, seconds: float, probe_budget=None) -> dict:
    """Run the requested passes of one workload; merge the children's
    reports into one record."""
    record: dict = {"workload": name, "seed": seed, "end_to_end": {},
                    "spread": {}, "per_layer": {}, "exact": {}}
    children = []
    if "timed" in passes:
        timed = timed_children(name, seed, deadline, reps, seconds,
                               sharded=name in FORKING)
        children += timed
        if all("reps" in c for c in timed):
            record.update(timed_metrics(timed))
    if "traced" in passes:
        options = dict(workload=name, seed=seed)
        if probe_budget:
            options.update(with_probes=True, probe_batches=probe_budget[0],
                           probe_batch_s=probe_budget[1])
        traced = spawn("traced", deadline, **options)
        children.append(traced)
        if "layers" in traced:
            record["per_layer"] = per_layer_metrics(traced)
            record["exact"] = exact_counts(traced)
            record["spans"] = {k: traced[k] for k in (
                "callables", "raw_spans", "spans_total", "traced_wall_s",
                "untraced_wall_s")}
            record["spans"]["layers"] = traced["layers"]
            record["spans"]["trace"] = traced["trace"]
    digests = {c["digest"] for c in children if "digest" in c}
    failures = [f for c in children for f in c["failures"]]
    failed = sum(c["failed"] for c in children)
    if len(digests) > 1:
        failed += 1
        failures.append("result digest differs between interpreters")
    record["digest"] = min(digests) if digests else None
    record["numpy"] = children[0]["numpy"] if children else None
    record["ops"] = {"attempted": sum(c["attempted"] for c in children),
                     "failed": failed, "failures": failures}
    return record


def timed_metrics(timed: list[dict]) -> dict:
    """End-to-end metrics from the timed children of one workload."""
    samples = [r for c in timed for r in c["reps"]]
    best = min(samples, key=lambda r: r["wall_s"])
    walls = [r["wall_s"] for r in samples]
    setups = [c["setup_s"] for c in timed]
    q1, _, q3 = statistics.quantiles(walls, n=4)
    return {
        "end_to_end": {
            "wall_s": best["wall_s"], "cpu_s": best["cpu_s"],
            "peak_rss_mb": statistics.median(c["peak_rss_mb"]
                                             for c in timed),
            "setup_s": statistics.median(setups)},
        "spread": {
            "wall_s": (q3 - q1) / statistics.median(walls),
            "setup_s": (max(setups) - min(setups))
            / statistics.median(setups)},
        "timed": {
            "samples": len(samples), "reps": samples,
            "wall_median_s": statistics.median(walls),
            "wall_iqr_s": q3 - q1, "setup_samples_s": setups,
            "peak_rss_samples_mb": [c["peak_rss_mb"] for c in timed]}}


def per_layer_metrics(traced: dict) -> dict[str, float]:
    """Flatten a traced child's report into named per-layer metrics."""
    out: dict[str, float] = {}
    for layer, row in traced["layers"].items():
        out[f"{layer}.self_s"] = row["self_s"]
        out[f"{layer}.calls"] = row["calls"]
    for key in ("overhead_ratio", "span_cost_ns", "unattributed_s"):
        out[f"trace.{key}"] = traced["trace"][key]
    out.update(traced["counts"])
    out["sim.engine.events_per_s"] = traced["events_per_s"]
    out["sim.engine.ns_per_event"] = traced["ns_per_event"]
    for key in ("windows", "exchanges", "worker_cpu_s", "critical_path_s",
                "wait_s", "speedup_vs_serial"):
        out[f"sim.shard.{key}"] = traced["shard"].get(key, 0.0)
    for key in ("model.p99_us", "model.tput_rps"):
        out[key] = traced["model"].get(key, 0.0)
    out.update(traced.get("probes", {}))
    return out


def exact_counts(traced: dict) -> dict:
    """What must repeat bit for bit between two runs of one commit."""
    out = dict(traced["counts"])
    out.update(traced["model"])
    out["model.rows_sha"] = traced["rows_sha"]
    for key in ("windows", "exchanges"):
        if key in traced["shard"]:
            out[f"sim.shard.{key}"] = traced["shard"][key]
    for layer, row in traced["layers"].items():
        out[f"{layer}.calls"] = row["calls"]
    return out


# -- host -------------------------------------------------------------------
def host_block() -> dict:
    try:
        rev = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    nproc, load = os.cpu_count() or 1, os.getloadavg()[0]
    # only the load *before* says the host was busy: the load afterwards
    # is this benchmark's own (two interpreters abreast)
    return {"nproc": nproc, "python": platform.python_version(),
            "platform": platform.platform(), "git_rev": rev,
            "load1_before": load, "noisy": load > 0.5 * nproc,
            "env_unset": list(UNSET), "env_pinned": PINNED}


# -- output -----------------------------------------------------------------
def load_manifest() -> dict:
    with open(MANIFEST, encoding="utf-8") as fh:
        return json.load(fh)


def units(manifest: dict) -> dict[str, str]:
    return {m["name"]: m["unit"]
            for m in manifest["end_to_end"] + manifest["per_layer"]}


def print_table(result: dict, manifest: dict) -> None:
    unit = units(manifest)
    for name, rec in result["workloads"].items():
        ops = rec["ops"]
        print(f"\n== {name}  (seed {rec['seed']}, ops_attempted "
              f"{ops['attempted']}, ops_failed {ops['failed']})")
        for failure in ops["failures"]:
            print(f"   FAILED {failure}")
        timed = rec.get("timed")
        for metric, value in rec["end_to_end"].items():
            note = ""
            if metric == "wall_s":
                note = (f"   best of {timed['samples']}; median "
                        f"{timed['wall_median_s']:.4f}, IQR "
                        f"{timed['wall_iqr_s']:.4f}")
            elif metric in ("setup_s", "peak_rss_mb"):
                note = (f"   median of {len(timed['setup_samples_s'])} "
                        f"interpreters")
            print(f"   {metric:<34}{value:>16.4f} {unit[metric]}{note}")
        for metric, value in rec["per_layer"].items():
            if value or not metric.startswith("sim.shard."):
                print(f"   {metric:<34}{value:>16.6g} "
                      f"{unit.get(metric, '')}")
        if rec["per_layer"]:
            trace = rec["spans"]["trace"]
            print(f"   {'model.rows_sha':<34}{rec['exact']['model.rows_sha']}")
            print(f"   spans cover {trace['attributed_share']:.1%} of the "
                  f"traced repetition ({rec['spans']['traced_wall_s']:.3f}"
                  f" s, {rec['spans']['spans_total']} spans)")
    if result.get("probes"):
        print("\n== probes (each layer alone; best batch)")
        for metric, value in result["probes"].items():
            print(f"   {metric:<44}{value:>14.6g} {unit.get(metric, '')}")
    host = result["host"]
    print(f"\nhost: {host['nproc']} cores, python {host['python']}, numpy "
          f"{host['numpy']}, rev {host['git_rev'][:12]}, load "
          f"{host['load1_before']:.2f} -> {host['load1_after']:.2f}"
          f"{'  NOISY' if host['noisy'] else ''}")


def contract_line(record: dict, manifest: dict, trace: int) -> str:
    """The driver's result object for one workload."""
    wanted = manifest["per_layer" if trace else "end_to_end"]
    have = record["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in have]
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    ops = record["ops"]
    return json.dumps({
        "correct": ops["failed"] == 0,
        "attempted": ops["attempted"],
        "failed": ops["failed"],
        "metrics": {m["name"]: {"value": have[m["name"]],
                                "unit": m["unit"]} for m in wanted}})


# -- entry ------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", nargs="+", metavar="NAME")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--pass", dest="passes", default="all",
                        choices=("timed", "traced", "probes", "all"))
    parser.add_argument("--reps", type=int, default=5,
                        help="at least this many timed repetitions per "
                             "workload (default 5)")
    parser.add_argument("--out", metavar="FILE",
                        help="write the full result as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--seconds", type=float,
                        help="driver contract: measure at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver contract: 0 = end-to-end metrics, "
                             "1 = per-layer metrics")
    args = parser.parse_args(argv)

    if not MANIFEST.is_file() or not (ROOT / "src" / "repro").is_dir():
        print(f"benchmarks/perf: no simulator source under {ROOT}",
              file=sys.stderr)
        return 2
    manifest = load_manifest()
    if args.compare:
        from compare import compare
        return compare(*args.compare, manifest)

    names = [w["name"] for w in manifest["workloads"]]
    chosen = args.workload or names
    unknown = [w for w in chosen if w not in names]
    if unknown:
        parser.error(f"unknown workload {unknown}; choose from {names}")

    if args.trace is not None:
        if len(chosen) != 1:
            parser.error("--trace takes exactly one --workload")
        seconds = args.seconds or manifest["run_seconds"]
        record = measure(
            chosen[0], args.seed, {"traced" if args.trace else "timed"},
            time.monotonic() + DEADLINE_S, reps=3, seconds=seconds,
            probe_budget=(3, seconds / 400) if args.trace else None)
        for failure in record["ops"]["failures"]:
            print(f"FAILED {failure}", file=sys.stderr)
        print(contract_line(record, manifest, args.trace))
        return 1 if record["ops"]["failed"] else 0

    passes = {"timed", "traced", "probes"} if args.passes == "all" \
        else {args.passes}
    host = host_block()
    result: dict = {"benchmark": "benchmarks/perf", "seed": args.seed,
                    "passes": sorted(passes), "host": host,
                    "workloads": {}, "probes": {}}
    far = time.monotonic() + 3600.0
    numpy_version = None
    if passes & {"timed", "traced"}:
        for name in chosen:
            record = measure(name, args.seed, passes, far, reps=args.reps,
                             seconds=args.seconds or 0.0)
            result["workloads"][name] = record
            numpy_version = record["numpy"]
    if "probes" in passes:
        child = spawn("probes", far, seed=args.seed)
        result["probes"] = child.get("probes", {})
        numpy_version = child["numpy"]
        if child["failed"]:
            result["probe_failures"] = child["failures"]
    host.update(numpy=numpy_version, load1_after=os.getloadavg()[0])
    print_table(result, manifest)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
        print(f"wrote {args.out}")
    failed = sum(r["ops"]["failed"] for r in result["workloads"].values())
    return 1 if failed or result.get("probe_failures") else 0


if __name__ == "__main__":
    sys.exit(main())
