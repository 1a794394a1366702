"""The GC-quiet event core (docs/architecture.md §9).

``Engine.run`` pauses CPython's automatic cyclic collector while the
scheduler drains, and a shard worker keeps it off from fork to finish.
Three things keep that safe:

* the caller's collector state comes back on every exit path;
* a drained run leaves no cyclic garbage behind, for every rank-program
  family in :mod:`repro.apps` — so nothing accumulates while the
  collector is off, and a change that starts leaking cycles in the hot
  loop fails here instead of silently growing RSS;
* results do not depend on whether the caller had the collector on.

A shard worker's whole life — cluster build, windows, boundary batches —
is held to the same zero-garbage invariant through the counters it
reports at finish.
"""

from __future__ import annotations

import gc
import weakref
from contextlib import contextmanager

import pytest

from repro.apps import (
    run_cholesky,
    run_overlap,
    run_particles,
    run_pingpong,
    run_stencil,
    run_tree_reduction,
)
from repro.apps.dht import _dht_program, run_dht
from repro.apps.services import run_kv, run_kv_ft, run_pubsub
from repro.cluster import ClusterConfig, run_ranks
from repro.errors import DeadlockError, SimulationError
from repro.faults import FaultPlan
from repro.sim.engine import Engine, events_scheduled
from tests.test_shard_equiv import _mixed_program


@contextmanager
def collector(enabled):
    """Run the block with the collector enabled / disabled; put the
    session's own state back afterwards whatever the block did."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def gc_state(request):
    with collector(request.param):
        yield request.param


# ---------------------------------------------------------------------------
# (a) restore matrix
# ---------------------------------------------------------------------------

def _drains(eng):
    eng.process(_sleeper(eng, 3.0))
    eng.run()


def _until_boundary(eng):
    eng.process(_sleeper(eng, 10.0))
    assert eng.run(until=4.0) == 4.0
    assert eng.peek() == 10.0


def _crash(eng):
    def boom():
        yield eng.timeout(1.0)
        raise ValueError("rank program bug")
    eng.process(boom())
    with pytest.raises(SimulationError, match="crashed"):
        eng.run()


def _unobserved_failure(eng):
    eng.event("orphan").fail(RuntimeError("nobody waits"), delay=1.0)
    with pytest.raises(SimulationError, match="never observed"):
        eng.run()


def _deadlock(eng):
    def stuck():
        yield eng.event("never")
    eng.process(stuck())
    with pytest.raises(DeadlockError):
        eng.run()


def _keyboard_interrupt(eng):
    def ctrl_c():
        raise KeyboardInterrupt
    eng.call_at(1.0, ctrl_c)
    with pytest.raises(KeyboardInterrupt):
        eng.run()


def _sleeper(eng, delay):
    yield eng.timeout(delay)


@pytest.mark.parametrize("exit_path", [
    _drains, _until_boundary, _crash, _unobserved_failure, _deadlock,
    _keyboard_interrupt])
def test_run_restores_collector_state(gc_state, exit_path):
    exit_path(Engine())
    assert gc.isenabled() is gc_state


def test_windowed_runs_restore_collector_state(gc_state):
    """A shard worker drives its engine one lookahead window at a time
    through ``run(until=...)``; every window pauses and restores."""
    eng = Engine()
    inside = []

    def ticker():
        for _ in range(20):
            yield eng.timeout(1.0)
            inside.append(gc.isenabled())

    eng.process(ticker())
    for window in range(1, 11):
        eng.run(until=2.0 * window, detect_deadlock=False)
        assert gc.isenabled() is gc_state
    assert inside == [False] * 20


def test_nested_run_leaves_outer_pause_in_place():
    """An engine run from inside another engine's process body finds the
    collector off and must leave it off for the outer loop."""
    outer = Engine()
    seen = []

    def body():
        yield outer.timeout(1.0)
        inner = Engine()
        inner.process(_sleeper(inner, 1.0))
        inner.run()
        seen.append(gc.isenabled())

    outer.process(body())
    outer.run()
    assert seen == [False]


def test_collector_off_inside_run_but_untouched_by_step(gc_state):
    eng = Engine()
    seen = []

    def body():
        yield eng.timeout(1.0)
        seen.append(gc.isenabled())

    eng.process(body())
    eng.run()
    assert seen == [False]

    del seen[:]
    eng.process(body())
    while eng.peek() != float("inf"):
        eng.step()
    assert seen == [gc_state]
    assert gc.isenabled() is gc_state


# ---------------------------------------------------------------------------
# (b) a drained run leaves no cyclic garbage
# ---------------------------------------------------------------------------

def _kv_ft_with_death():
    cfg = ClusterConfig(
        nranks=5, ranks_per_node=1,
        faults=FaultPlan(node_failures={1: 300.0}, detect_us=50.0))
    r = run_kv_ft(nservers=3, nclients=2, replication=2,
                  reqs_per_client=8, rate_rps=20_000.0, nkeys=16,
                  ckpt_every=4, seed=7, config=cfg)
    assert r["failovers"] > 0, "the death must land mid-run"


FAMILIES = {
    **{f"stencil-{m}": (lambda m=m: run_stencil(m, 4, 8, 16, iters=2))
       for m in ("mp", "na", "pscw", "fence")},
    "pingpong-put": lambda: run_pingpong("na", 64, iters=4),
    "pingpong-get": lambda: run_pingpong("na_get", 64, iters=4),
    "pingpong-shm": lambda: run_pingpong("na", 64, iters=4,
                                         same_node=True),
    "overlap": lambda: run_overlap("na", 4096, iters=3),
    "dht": lambda: run_dht(8, rounds=4, verify=True),
    "tree": lambda: run_tree_reduction("na", 8, arity=4, reps=2),
    "particles": lambda: run_particles("na", 4, per_rank=8, steps=3),
    "cholesky": lambda: run_cholesky("na", 2, 3, b=4),
    "kv": lambda: run_kv(nservers=2, nclients=2, replication=2,
                         reqs_per_client=8, rate_rps=500_000.0,
                         nkeys=16, seed=7),
    "pubsub": lambda: run_pubsub(nbrokers=2, npubs=2, nsubs=3, ntopics=4,
                                 fanout=2, msgs_per_pub=8,
                                 rate_rps=500_000.0, batch=2, seed=7),
    "kv_ft-death": _kv_ft_with_death,
}


@pytest.fixture
def run_audit(monkeypatch):
    """Audit every ``Engine.run``: full collection before it, then a
    ``DEBUG_SAVEALL`` collection right after it, while the cluster that
    owns the engine is still alive — so whatever turns up unreachable
    was orphaned by the event loop itself, not by tearing the cluster
    down.  Yields the list of (run index, type name) found."""
    found: list[tuple[int, str]] = []
    runs = [0]
    real_run = Engine.run

    def audited_run(self, until=None, detect_deadlock=True):
        gc.collect()
        result = real_run(self, until, detect_deadlock)
        flags = gc.get_debug()
        kept = gc.garbage[:]
        gc.set_debug(flags | gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            found.extend((runs[0], type(o).__name__)
                         for o in gc.garbage[len(kept):])
        finally:
            gc.set_debug(flags)
            gc.garbage[:] = kept
        runs[0] += 1
        return result

    monkeypatch.setattr(Engine, "run", audited_run)
    yield found
    assert runs[0] > 0, "the family never reached Engine.run"


@pytest.mark.parametrize("family", list(FAMILIES))
def test_drained_run_leaves_no_cyclic_garbage(run_audit, family):
    FAMILIES[family]()
    assert run_audit == []


def test_audit_sees_a_cycle_built_in_the_loop(run_audit):
    """The audit is not vacuous: a process that orphans a cycle inside
    the loop is reported."""
    eng = Engine()

    def leaky():
        yield eng.timeout(1.0)
        ring: list = []
        ring.append(ring)

    eng.process(leaky())
    eng.run()
    assert run_audit == [(0, "list")]


def test_finished_process_is_freed_by_refcount_alone():
    """With the collector off, a finished process dies the moment the
    engine lets go of it: nothing the resume path attaches — a waiter
    callback, a relay, a condition, its wake token — closes a cycle
    through it.  (Its generator stands in for it: events take no weak
    references.)"""
    eng = Engine()
    fired = eng.event()
    fired.succeed()

    def body():
        yield eng.timeout(1.0)                          # pending target
        yield 1.0                                       # wake token
        yield fired                                     # relay resume
        yield eng.any_of([eng.timeout(1.0), eng.event()])
        return "done"

    gen = body()
    alive = weakref.ref(gen)
    proc = eng.process(gen)
    del gen
    with collector(False):
        eng.run()
        assert proc.value == "done"
        del proc
        assert alive() is None


def test_crashed_process_is_freed_by_refcount_alone():
    """The crash path breaks the wake token's cycle too.  The exception
    keeps the frames it passed through, the resume's among them, so the
    waiter that catches it drops its traceback, as a program keeping the
    error would."""
    eng = Engine()

    def body():
        yield 1.0                                       # wake token
        yield eng.timeout(1.0)
        raise ValueError("boom")

    def waiter(proc):
        try:
            yield proc
        except ValueError as exc:
            exc.__traceback__ = None
            return "caught"

    gen = body()
    alive = weakref.ref(gen)
    proc = eng.process(gen)
    guard = eng.process(waiter(proc))
    del gen
    with collector(False):
        eng.run()
        assert guard.value == "caught"
        del proc, guard
        assert alive() is None


@pytest.mark.parametrize("program, args", [
    (_dht_program, (4, True, 0.4)), (_mixed_program, ())],
    ids=["dht", "mixed"])
def test_shard_workers_collect_nothing_and_orphan_nothing(gc_state,
                                                          program, args):
    """No automatic collection between a worker's fork and its finish,
    whatever the coordinator's collector state; and the one explicit
    collection at finish, with the worker's cluster still alive, finds
    nothing unreachable."""
    _, run = run_ranks(8, program, args=args, config=ClusterConfig(
        nranks=8, ranks_per_node=2, shards=2))
    assert run.held_packets > 0, "both the link and the held path ran"
    assert run.link_packets > 0
    assert run.gc_collections == [[0, 0, 0], [0, 0, 0]]
    assert run.gc_unreachable == [0, 0]
    assert gc.isenabled() is gc_state


def _collecting_program(ctx):
    yield from ctx.barrier()
    if ctx.rank == 0:
        gc.collect()
    yield from ctx.barrier()


def test_worker_collections_reach_the_run():
    """What a worker's collector did do is reported, per worker."""
    with collector(False):
        _, run = run_ranks(4, _collecting_program, config=ClusterConfig(
            nranks=4, ranks_per_node=1, shards=2))
        assert run.gc_collections == [[0, 0, 1], [0, 0, 0]]


# ---------------------------------------------------------------------------
# (c) results do not depend on the caller's collector state
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("experiment", [
    lambda: run_stencil("na", 4, 16, 32, iters=2, verify=True),
    lambda: run_dht(64, rounds=4, verify=True),
], ids=["stencil-na", "dht-64"])
def test_rows_and_event_counts_equal_with_collector_on_and_off(experiment):
    def measure(enabled):
        with collector(enabled):
            before = events_scheduled()
            row = experiment()
            return row, events_scheduled() - before

    assert measure(True) == measure(False)
