"""One place a rank goes to sleep: :meth:`Nic.block`.

Every blocking verb yields what ``Nic.block`` returns.  Two checks hold
that to account:

* a property over random 2-4-rank programs mixing eager and rendezvous
  send/recv, ``probe``, ``put_notify`` (one or a burst) with ``wait`` /
  ``waitany`` and ``put_counted`` with a counter wait, run on both
  schedulers: at every call of ``Nic.block`` nothing the verb would
  consume is already queued (the no-lost-wakeup invariant) — an MP verb
  finds the protocol inbox empty, a notification wait finds no
  notification pending;
* an AST guard over ``src/``: the arrival events a verb sleeps on
  (``sys_arrival.wait()``, ``notification_arrival()``, ``signal.wait()``)
  appear only as arguments of ``Nic.block``.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mpi.constants import ANY_SOURCE
from repro.network.fabric import Nic
from repro.sim import scheduler
from tests.conftest import run_cluster

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: a tag no step sends: the never-matching request of a ``waitany``
IDLE_TAG = 0xFFF0

KINDS = ("eager", "rndv", "probe", "na_wait", "na_waitany", "na_burst",
         "counter")
#: notifications of one ``na_burst`` step, matched by one counting wait
BURST = 3


@st.composite
def programs(draw):
    """(nranks, steps): each step is (kind, source, dest, wildcard)."""
    nranks = draw(st.integers(min_value=2, max_value=4))
    steps = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        kind = draw(st.sampled_from(KINDS))
        src = draw(st.integers(min_value=0, max_value=nranks - 1))
        dst = (src + draw(st.integers(min_value=1,
                                      max_value=nranks - 1))) % nranks
        steps.append((kind, src, dst, draw(st.booleans())))
    return nranks, steps


def _payload(ctx, kind, i):
    n = ctx.params.eager_max // 8 + 4 if kind == "rndv" else 4
    return np.full(n, float(i))


def _produce(ctx, win, kind, i, dst):
    if kind in ("eager", "rndv", "probe"):
        yield from ctx.endpoint.send(_payload(ctx, kind, i), dst, i)
    elif kind == "counter":
        yield from ctx.counters.put_counted(win, np.full(1, float(i)), dst,
                                            8 * i, tag=i)
    else:
        for _ in range(BURST if kind == "na_burst" else 1):
            yield from ctx.na.put_notify(win, np.full(1, float(i)), dst,
                                         8 * i, tag=i)


def _consume(ctx, win, kind, i, src, wild, counters):
    """Block on step ``i``'s message; returns the value it carried."""
    source = ANY_SOURCE if wild else src
    if kind in ("eager", "rndv", "probe"):
        if kind == "probe":
            st_ = yield from ctx.endpoint.probe(source, i)
            assert (st_.source, st_.tag) == (src, i)
        buf = np.zeros_like(_payload(ctx, kind, i))
        st_ = yield from ctx.endpoint.recv(buf, source, i)
        assert st_.source == src
        return float(buf[-1])
    if kind == "counter":
        req = counters[i]
        yield from ctx.counters.wait(req)
        yield from ctx.counters.request_free(req)
    elif kind != "na_waitany":
        count = BURST if kind == "na_burst" else 1
        req = yield from ctx.na.notify_init(win, source=source, tag=i,
                                            expected_count=count)
        yield from ctx.na.start(req)
        st_ = yield from ctx.na.wait(req)
        assert st_.source == src
        yield from ctx.na.request_free(req)
    else:
        idle = yield from ctx.na.notify_init(win, source=source,
                                             tag=IDLE_TAG)
        req = yield from ctx.na.notify_init(win, source=source, tag=i)
        for r in (idle, req):
            yield from ctx.na.start(r)
        idx, st_ = yield from ctx.na.waitany([idle, req])
        assert idx == 1 and st_.source == src
        ctx.na.cancel(idle)
        for r in (idle, req):
            yield from ctx.na.request_free(r)
    return float(win.local(np.float64, 8 * i, 1, mode="r")[0])


def _program(steps):
    def prog(ctx):
        win = yield from ctx.win_allocate(8 * len(steps))
        # Counter routes exist before any producer can use them.
        counters = {}
        for i, (kind, src, dst, _) in enumerate(steps):
            if kind == "counter" and ctx.rank == dst:
                counters[i] = yield from ctx.counters.counter_init(
                    win, source=src, tag=i)
                yield from ctx.counters.start(counters[i])
        yield from ctx.barrier()
        got = []
        # Every rank walks the steps in one global order, so the earliest
        # unfinished step always has both its ranks at it: no deadlock.
        for i, (kind, src, dst, wild) in enumerate(steps):
            if ctx.rank == src:
                yield from _produce(ctx, win, kind, i, dst)
            elif ctx.rank == dst:
                value = yield from _consume(ctx, win, kind, i, src, wild,
                                            counters)
                got.append((i, value))
        return got
    return prog


def _checked_block(calls: Counter):
    """``Nic.block`` that first asserts nothing consumable is queued."""
    block = Nic.block

    def checked(self, arrival, sources, verb, until=None):
        if verb == "notification":
            assert not self.notification_pending(), \
                f"rank {self.rank} sleeps on a pending notification"
        elif verb != "counter":
            assert not len(self.sys_inbox), \
                f"rank {self.rank} sleeps in {verb} on a queued packet"
        calls[verb] += 1
        return block(self, arrival, sources, verb, until)
    return checked


@settings(max_examples=40, deadline=None)
@given(programs())
# two producers' notifications land together: the second is pending when
# the consumer's first test returns, so its wait must not sleep
@example((4, [("na_wait", 0, 2, False), ("na_wait", 3, 2, True)]))
def test_no_rank_sleeps_on_a_queued_wakeup(program):
    nranks, steps = program
    runs = []
    for name in ("calendar", "heap"):
        calls: Counter = Counter()
        prev = scheduler._DEFAULT
        scheduler._DEFAULT = name
        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(Nic, "block", _checked_block(calls))
                results, cluster = run_cluster(nranks, _program(steps))
        finally:
            scheduler._DEFAULT = prev
        assert cluster.engine._sched.name == name
        runs.append((results, cluster.engine.now, calls))
    results, _, _ = runs[0]
    for rank, got in enumerate(results):
        want = [(i, float(i)) for i, (_, _, dst, _) in enumerate(steps)
                if dst == rank]
        assert got == want
    assert runs[0] == runs[1]


#: attribute-call chains a blocked verb may sleep on
_SLEEPS = (("sys_arrival", "wait"), ("signal", "wait"),
           (None, "notification_arrival"))


def _is_sleep(node: ast.AST) -> bool:
    if not (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)):
        return False
    owner = node.func.value
    owner_name = owner.attr if isinstance(owner, ast.Attribute) else None
    return any(node.func.attr == attr and (want is None or want == owner_name)
               for want, attr in _SLEEPS)


def test_every_sleep_goes_through_nic_block():
    """An arrival event built outside ``Nic.block``'s arguments is a
    hand-written sleep: it races neither failure detection nor a
    deadline."""
    blocked, stray = [], []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        inside = set()
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "block"):
                for arg in node.args:
                    inside.update(id(n) for n in ast.walk(arg))
        for node in ast.walk(tree):
            if _is_sleep(node):
                where = f"{path.relative_to(SRC)}:{node.lineno}"
                (blocked if id(node) in inside else stray).append(where)
    assert not stray, f"sleeps outside Nic.block: {stray}"
    # the guard sees all seven blocking verbs (it matches what they use)
    assert len(blocked) == 7, blocked
