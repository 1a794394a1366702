"""Properties of fault injection: the ledger, and serial ≡ sharded.

Every fault the injector decides is emitted once, through the fabric's
:class:`~repro.sim.trace.Tracer`, under its fault class (``drop``,
``lost``, ``retry-ok``, ``dup``, ``node-down``, ``stall``, ...).  The
first properties check that those counts *are* the ledger the fates
charge — for arbitrary plans and transfer sequences on a bare injector,
and end to end through the fabric's exactly-once filter — so no second
counter is needed to read retransmissions or suppressed duplicates.

The last one checks that every plan shards exactly: each op's fate is
drawn from its origin rank's stream, so a sharded run under random drop,
duplication, delay and stall plans reproduces the serial run.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, run_ranks
from repro.faults import FaultInjector, FaultPlan
from repro.sim.shard import ShardedRun
from tests.conftest import run_cluster
from tests.test_shard_equiv import _pc_plans, _pc_program

_PROB = st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0])
_TIME = st.floats(min_value=0.0, max_value=100.0, allow_nan=False,
                  allow_infinity=False)


@st.composite
def _plans(draw):
    deaths = draw(st.dictionaries(st.integers(0, 3), _TIME, max_size=2))
    return FaultPlan(drop_prob=draw(_PROB), dup_prob=draw(_PROB),
                     delay_prob=draw(_PROB), stall_prob=draw(_PROB),
                     max_retries=draw(st.integers(0, 4)),
                     node_failures=deaths,
                     seed=draw(st.integers(0, 2**16)))


#: (origin, target, medium, issue time, also reserve an engine?)
_TRANSFERS = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                                st.sampled_from(["ugni", "shm"]), _TIME,
                                st.booleans()), max_size=40)


@given(_plans(), _TRANSFERS)
@settings(max_examples=200, deadline=None)
def test_tracer_fault_counts_are_the_charged_ledger(plan, transfers):
    inj = FaultInjector(plan, root_seed=0)
    fates, down, stalls = [], [], 0
    for origin, target, medium, now, reserve in transfers:
        fates.append(inj.transfer_fate(origin, target, 64, medium, now))
        down.append(inj.rank_down(origin, now) or inj.rank_down(target, now))
        if reserve:
            stalls += inj.nic_stall(origin, "fma", now) > 0.0
    exhausted = sum(f.lost and not d for f, d in zip(fates, down))
    # retransmissions charged: every successful fate's retries, plus the
    # max_retries an op performed before it was abandoned
    charged = (sum(f.retries for f in fates if not f.lost)
               + plan.max_retries * exhausted)
    faults = inj.tracer.faults
    assert faults["drop"] - faults["lost"] == charged
    assert sum(f.retries for f in fates) == charged
    assert faults["lost"] == exhausted
    assert faults["node-down"] == sum(down)
    assert faults["retry-ok"] == sum(1 for f in fates
                                     if f.retries and not f.lost)
    assert faults["dup"] == sum(f.duplicate for f in fates)
    assert faults["stall"] == stalls
    assert inj.tracer.counters["fault"] == sum(faults.values())


def _ring(rounds):
    """Every rank streams notified puts to its right neighbour (one slot
    per round), then all meet in a barrier: puts and sys packets, the
    transfers whose every delivery passes the exactly-once filter."""

    def prog(ctx):
        win = yield from ctx.win_allocate(8 * rounds)
        right, left = (ctx.rank + 1) % ctx.size, (ctx.rank - 1) % ctx.size
        for i in range(rounds):
            req = yield from ctx.na.notify_init(win, source=left, tag=i)
            yield from ctx.na.start(req)
            yield from ctx.na.put_notify(win, np.full(8, i, np.uint8),
                                         right, 8 * i, tag=i)
            yield from ctx.na.wait(req)
        yield from ctx.barrier()
        return win.local(np.uint8, 0, 8 * rounds).tolist()

    return prog


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_injected_duplicate_is_suppressed_end_to_end(seed):
    """``dup-suppressed == dup``: each duplicated delivery reaches the
    target's filter and is dropped there, under drops, delays and stalls
    too.  (A plain get's response is an idempotent copy with no filter,
    so the identity is stated for traffic without one.)"""
    plan = FaultPlan(drop_prob=0.2, dup_prob=0.4, delay_prob=0.2,
                     stall_prob=0.1, seed=seed)
    results, cluster = run_cluster(4, _ring(6), ranks_per_node=1,
                                   faults=plan)
    assert results == [[i for i in range(6) for _ in range(8)]] * 4
    faults = cluster.tracer.faults
    assert faults["dup"] > 0
    assert faults["dup-suppressed"] == faults["dup"]
    assert faults["lost"] == 0


def _pc_amo_sys_program(ctx, sends, jitters):
    """``_pc_program``'s notified puts and wildcard consumers, then one
    atomic and one MP message per rank, each behind a per-rank skew (no
    two inter-node ops issue at the bit-identical time, the exactness
    boundary of docs/architecture.md §11)."""
    seen = yield from _pc_program(ctx, sends, jitters)
    me, n = ctx.rank, ctx.size
    right, left = (me + 1) % n, (me - 1) % n
    win = yield from ctx.win_allocate(64, disp_unit=8)
    yield from win.lock_all()
    yield from ctx.compute(0.0173 * (me + 1))
    old = yield from win.fetch_and_op(me + 1, right, 0, op="sum")
    yield from win.flush(right)
    yield from ctx.compute(0.0119 * (me + 1))
    inc = np.empty(8)
    yield from ctx.comm.sendrecv(np.full(8, float(me)), right, 7, inc,
                                 left, 7)
    yield from win.unlock_all()
    yield from ctx.barrier()
    return (seen, old, win.local(np.int64, count=1, mode="r").tolist(),
            inc.tolist(), round(ctx.now, 9))


_SMALL = st.sampled_from([0.0, 0.1, 0.3])


@st.composite
def _lossy_plans(draw):
    """Random drop / dup / delay / stall plans, plus at most one node
    death long after the last handoff (it arms the waits' detection
    timers and nothing else).  Twelve retries keep an abandoned op out
    of reach."""
    return FaultPlan(drop_prob=draw(_SMALL), dup_prob=draw(_SMALL),
                     delay_prob=draw(_SMALL), stall_prob=draw(_SMALL),
                     max_retries=12,
                     node_failures=draw(st.dictionaries(
                         st.integers(0, 3), st.just(1e6), max_size=1)),
                     seed=draw(st.integers(0, 2**16)))


_EXAMPLE_PROGRAM = (6, 2, 3, [(0, 3, 1, 8), (4, 1, 2, 64), (5, 0, 0, 1),
                              (2, 5, 3, 8), (1, 4, 1, 1)], [0.1, 0.35])


@given(_pc_plans(), _lossy_plans())
@example(_EXAMPLE_PROGRAM, FaultPlan(stall_prob=0.5, seed=3))
@example(_EXAMPLE_PROGRAM, FaultPlan(
    drop_prob=0.3, dup_prob=0.3, delay_prob=0.3, stall_prob=0.3,
    max_retries=12, node_failures={1: 1e6}, seed=11))
@settings(max_examples=10, deadline=None)
def test_every_fault_plan_shards_exactly(program, plan):
    nranks, ranks_per_node, shards, sends, jitters = program

    def go(n):
        results, run = run_ranks(
            nranks, _pc_amo_sys_program, args=(sends, jitters),
            config=ClusterConfig(nranks=nranks,
                                 ranks_per_node=ranks_per_node, shards=n,
                                 faults=plan))
        assert isinstance(run, ShardedRun) == (n > 1)
        return results, run.stats()

    serial = go(1)
    assert go(shards) == serial
