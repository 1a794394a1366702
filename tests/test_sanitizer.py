"""Tests for the happens-before synchronization sanitizer.

Three angles:

* a deliberately racy program — a consumer polling the payload bytes
  instead of waiting on a notification — must raise :class:`RaceError`
  deterministically, naming both conflicting accesses;
* the blessing annotations (``Rank.san_acquire`` /
  ``Rank.san_acquire_at``) must make a *protocol-correct* polling loop
  race-free without changing its timing;
* every shipped app must run race-free with the sanitizer on, with and
  without fault injection, and the sanitizer must not perturb the
  simulated schedule (identical timings on/off).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import (run_cholesky, run_overlap, run_particles,
                        run_pingpong, run_stencil, run_tree_reduction)
from repro.cluster import ClusterConfig
from repro.errors import RaceError
from repro.faults import FaultPlan
from tests.conftest import run_cluster


def _cfg(nranks: int, drop: float = 0.0, **kw) -> ClusterConfig:
    faults = FaultPlan(drop_prob=drop, seed=7) if drop else None
    return ClusterConfig(nranks=nranks, sanitize=True, faults=faults, **kw)


# ---------------------------------------------------------------------------
# The racy fixture: ping-pong where the consumer polls the buffer
# ---------------------------------------------------------------------------

def _polling_pingpong(blessed: bool):
    """Rank 0 puts a flag into rank 1's window; rank 1 spins reading it.

    Without an intervening notification or flush-acquire there is no
    happens-before edge from the put's commit to the poll's read — the
    classic bug Notified Access exists to prevent (§III of the paper).
    ``blessed=True`` is the legal variant: the poll uses an unrecorded
    ("raw") view and, once the flag flips, acknowledges the NIC commit
    with ``san_acquire_at`` before touching the payload.
    """

    def program(ctx):
        win = yield from ctx.win_allocate(64)
        yield from win.lock_all()
        yield from ctx.barrier()
        if ctx.rank == 0:
            yield ctx.timeout(3.0)
            yield from win.put(np.ones(1), 1, 0)
            yield from win.flush(1)
            yield from win.unlock_all()
            return None
        mode = "raw" if blessed else "r"
        for _ in range(10_000):
            if win.local(np.float64, count=1, mode=mode)[0] == 1.0:
                break
            yield ctx.timeout(0.5)
        else:
            raise AssertionError("flag never arrived")
        if blessed:
            ctx.san_acquire_at(win, 0)
        value = float(win.local(np.float64, count=1, mode="r")[0])
        yield from win.unlock_all()
        return value

    return program


def test_polling_consumer_races():
    with pytest.raises(RaceError) as exc:
        run_cluster(2, _polling_pingpong(blessed=False), sanitize=True)
    msg = str(exc.value)
    assert "data race on rank 1 memory" in msg
    assert "previous" in msg and "current" in msg
    assert "no happens-before edge" in msg
    # The exception carries both access records for tooling.
    assert exc.value.prev is not None and exc.value.cur is not None


def test_polling_race_is_deterministic():
    msgs = []
    for _ in range(3):
        with pytest.raises(RaceError) as exc:
            run_cluster(2, _polling_pingpong(blessed=False), sanitize=True)
        msgs.append(str(exc.value))
    assert msgs[0] == msgs[1] == msgs[2]


def test_acquire_annotation_blesses_polling():
    results, _ = run_cluster(2, _polling_pingpong(blessed=True),
                             sanitize=True)
    assert results[1] == 1.0


def test_racy_program_runs_when_sanitizer_off(monkeypatch):
    # Opt-in: with sanitize=False the same program completes (the race is
    # benign under the simulator's cooperative scheduling).  Clear the
    # force-enable so this holds under ``pytest --sanitize`` too.
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    results, _ = run_cluster(2, _polling_pingpong(blessed=False))
    assert results[1] == 1.0


def _overlapping_producers(ctx):
    """Two producers put_notify the SAME consumer slot — write/write race."""
    win = yield from ctx.win_allocate(64)
    if ctx.rank == 0:
        req = yield from ctx.na.notify_init(win)
        yield from ctx.barrier()
        for _ in range(2):
            yield from ctx.na.start(req)
            yield from ctx.na.wait(req)
        yield from ctx.na.request_free(req)
        return None
    yield from ctx.barrier()
    yield from ctx.na.put_notify(win, np.full(1, float(ctx.rank)), 0, 0,
                                 tag=0)
    yield from win.flush(0)
    return None


def test_unordered_writes_to_same_slot_race():
    with pytest.raises(RaceError) as exc:
        run_cluster(3, _overlapping_producers, sanitize=True)
    assert "data race on rank 0 memory" in str(exc.value)


# ---------------------------------------------------------------------------
# Shipped apps stay race-free, with and without fault injection
# ---------------------------------------------------------------------------

APP_RUNS = [
    ("pingpong_na", lambda cfg: run_pingpong(
        "na", 64, iters=4, config=cfg(2))),
    ("pingpong_na_get", lambda cfg: run_pingpong(
        "na_get", 64, iters=4, config=cfg(2))),
    ("pingpong_mp", lambda cfg: run_pingpong(
        "mp", 64, iters=4, config=cfg(2))),
    ("pingpong_flush_notify", lambda cfg: run_pingpong(
        "flush_notify", 64, iters=4, config=cfg(2))),
    ("overlap_na", lambda cfg: run_overlap(
        "na", 256, iters=3, config=cfg(2))),
    ("stencil_na", lambda cfg: run_stencil(
        "na", 3, rows=4, cols=6, iters=2, verify=True, config=cfg(3))),
    ("particles_na", lambda cfg: run_particles(
        "na", 3, per_rank=12, steps=3, verify=True, config=cfg(3))),
    ("tree_na", lambda cfg: run_tree_reduction(
        "na", 4, arity=2, reps=2, config=cfg(4))),
    ("cholesky_na", lambda cfg: run_cholesky(
        "na", 2, ntiles=4, b=8, verify=True, config=cfg(2))),
    ("cholesky_onesided", lambda cfg: run_cholesky(
        "onesided", 2, ntiles=4, b=8, verify=True, config=cfg(2))),
]


@pytest.mark.parametrize("drop", [0.0, 0.01])
@pytest.mark.parametrize("name,run", APP_RUNS, ids=[n for n, _ in APP_RUNS])
def test_apps_race_free_under_sanitizer(name, run, drop):
    out = run(lambda n: _cfg(n, drop=drop))
    assert out  # completed and returned metrics — no RaceError raised


# ---------------------------------------------------------------------------
# Zero perturbation: identical schedules with the sanitizer on and off
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", ["na", "mp", "onesided_fence", "raw"])
def test_sanitizer_does_not_perturb_timing(mode, monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    plain = run_pingpong(mode, 128, iters=6,
                         config=ClusterConfig(nranks=2))
    sanitized = run_pingpong(mode, 128, iters=6,
                             config=ClusterConfig(nranks=2, sanitize=True))
    assert plain["half_rtt_us"] == sanitized["half_rtt_us"]


def test_stencil_timing_identical_on_off(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    plain = run_stencil("na", 3, rows=4, cols=6, iters=2,
                        config=ClusterConfig(nranks=3))
    sanitized = run_stencil("na", 3, rows=4, cols=6, iters=2,
                            config=ClusterConfig(nranks=3, sanitize=True))
    assert plain["time_us"] == sanitized["time_us"]
