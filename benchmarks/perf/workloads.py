"""The five benchmark workloads: inputs, result rows and correctness checks.

Every workload is a closed host loop — one repetition after another in
one interpreter — over *public* drivers of the simulator.  A repetition
returns its deterministic result rows; the caller hashes them together
with the simulated event count, so any two repetitions of one workload
(and the traced one) must agree bit for bit.

The seed reaches the program only through public ``seed=`` /
``ClusterConfig(seed=)`` parameters.  The stencil and ping-pong drivers
take none and draw no random numbers: their inputs are the same for every
seed, which keeps them comparable across seeds by construction.

Sizes: the drivers and their shape are the ISSUE's, scaled so that one
repetition is 2.1-2.8 s on the 2-core reference box when it is quiet (the
ISSUE sized them at 3-4 s; see README "Deviations").  Each workload also
has a reduced-size *warm-up* that walks the same code paths with the apps'
verification on; it is what ``setup_s`` pays besides the imports.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Callable
from dataclasses import dataclass

from repro.apps.dht import run_dht
from repro.apps.stencil import run_stencil
from repro.bench import figures
from repro.cluster import ClusterConfig

#: stencil_modes: rank counts and row scale handed to fig1
STENCIL_RANKS = (8, 16)
STENCIL_SCALE = 0.16
#: dht_*: 512 ranks on 32 nodes, 32 insert rounds per rank (the wildcard
#: UQ grows past ``_VECTOR_MIN = 16``, so the NumPy match path runs)
DHT_RANKS = 512
DHT_ROUNDS = 32


def _tables(*tables) -> list:
    return [[t.title, t.columns, t.rows] for t in tables]


def _stencil(scale: float) -> list:
    return _tables(figures.fig1_stencil_strong(nranks_list=STENCIL_RANKS,
                                               scale=scale))


def _pingpong(iters: int) -> list:
    return _tables(figures.fig3a_pingpong_put(iters=iters),
                   figures.fig3b_pingpong_get(iters=iters),
                   figures.fig3c_pingpong_shm(iters=iters),
                   figures.fig4a_overlap(iters=iters // 2))


def _services(seed: int, requests: int) -> list:
    return _tables(
        figures.svc_kv(rates=(1e6, 16e6), reqs_per_client=requests,
                       seed=seed),
        figures.svc_pubsub(rates=(5e5, 8e6), msgs_per_pub=requests,
                           seed=seed),
        figures.svc_kv_ft(replications=(2,), reqs_per_client=requests,
                          seed=seed))


def _dht(seed: int, shards: int, nranks: int = DHT_RANKS,
         rounds: int = DHT_ROUNDS) -> list:
    out = run_dht(nranks, rounds=rounds, verify=True,
                  config=ClusterConfig(nranks=nranks, ranks_per_node=16,
                                       space_bytes=1 << 20, seed=seed,
                                       shards=shards))
    return sorted(out.items())


# -- checks beyond the apps' own ``verify=True`` ---------------------------
def check_services(rows: list) -> list[str]:
    """Replication 2 must lose no acked write and serve every request."""
    _title, columns, ft_rows = rows[2]
    failures = []
    for row in ft_rows:
        rec = dict(zip(columns, row))
        if rec["acked_lost"] != 0:
            failures.append(f"svc_kv_ft R={rec['replication']}: "
                            f"{rec['acked_lost']} acked writes lost")
        if rec["availability"] != 1.0:
            failures.append(f"svc_kv_ft R={rec['replication']}: "
                            f"availability {rec['availability']}")
    return failures


def check_dht(rows: list) -> list[str]:
    return [] if dict(rows)["verified"] else ["run_dht did not verify"]


def warm_stencil(seed: int) -> list[str]:
    """A small sweep, then one numerically verified stencil."""
    _stencil(0.02)
    r = run_stencil("na", STENCIL_RANKS[0], rows=25, cols=1280,
                    verify=True)
    if not math.isclose(r["corner"], r["corner_expected"], rel_tol=1e-9):
        return [f"stencil corner {r['corner']!r} != serial reference "
                f"{r['corner_expected']!r}"]
    return []


def services_model(rows: list) -> dict[str, float]:
    """Simulated service statistics at the highest offered KV rate."""
    _title, columns, kv_rows = rows[0]
    last = dict(zip(columns, kv_rows[-1]))
    return {"model.p99_us": last["p99_us"],
            "model.tput_rps": last["tput_rps"]}


def _no_failures(rows: list) -> list[str]:
    return []


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: one repetition: seed -> deterministic result rows
    run: Callable[[int], list]
    #: reduced-size verifying warm-up: seed -> failures
    warm: Callable[[int], list[str]]
    #: inspection of one repetition's rows -> failures
    check: Callable[[list], list[str]] = _no_failures
    #: forked shard workers per repetition (0 = must never fork)
    shards: int = 0
    #: a second repetition whose rows must equal this workload's rows
    reference: Callable[[int], list] | None = None
    model: Callable[[list], dict[str, float]] | None = None


WORKLOADS = {w.name: w for w in (
    Workload(
        "stencil_modes",
        "event-dense serial run, same-timestamp bursts, shallow UQ: "
        "scheduler+engine+fabric+rma/mpi do the work, shard/services idle",
        run=lambda seed: _stencil(STENCIL_SCALE), warm=warm_stencil),
    Workload(
        "pingpong_sweep",
        "~120 two-rank clusters: gets beside puts, shm beside uGNI, FMA "
        "beside BTE, eager beside rendezvous; build and per-op paths rule",
        run=lambda seed: _pingpong(128),
        warm=lambda seed: _no_failures(_pingpong(16))),
    Workload(
        "kv_service",
        "open-loop services past the knee: distinct timestamps, counting "
        "notifications, bench.load and repro.ft with a mid-run node death",
        run=lambda seed: _services(seed, 192),
        warm=lambda seed: check_services(_services(seed, 24)),
        check=check_services, model=services_model),
    Workload(
        "dht_serial",
        "512 ranks, wildcard matching on a UQ up to 32 deep, 512-rank "
        "barriers and cluster build; bypasses sim.shard entirely",
        run=lambda seed: _dht(seed, shards=1),
        warm=lambda seed: check_dht(_dht(seed, 1, nranks=128, rounds=4)),
        check=check_dht),
    Workload(
        "dht_shards2",
        "dht_serial's inputs on two forked workers: the only workload "
        "where sim.shard/shardlink work; the 1->2 worker scaling point",
        run=lambda seed: _dht(seed, shards=2),
        warm=lambda seed: check_dht(_dht(seed, 2, nranks=128, rounds=4)),
        check=check_dht, shards=2,
        reference=lambda seed: _dht(seed, shards=1)),
)}


def digest(rows: list, events: int) -> str:
    """SHA-256 of the deterministic result rows plus the event count."""
    blob = json.dumps({"rows": rows, "events": events}, sort_keys=True,
                      default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()
