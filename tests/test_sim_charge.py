"""A CPU charge is a float: ``yield delay`` sleeps on the process's tick.

A process that yields a finite, non-negative ``float`` resumes that many
microseconds later through its own reusable wake token, with no event.
It must be indistinguishable from ``yield engine.timeout(delay)``: the
same push at the same instant and priority, so every dispatch keeps its
place, on both schedulers.  An invalid delay is thrown back into the
generator at the ``yield``, like a ``Timeout``'s own refusal.

The library charges its software overheads this way, and an AST guard
keeps a ``yield ....timeout(...)`` from coming back into the layers below
the rank programs (a raced timer, an argument of a tuple, stays an
event).
"""

from __future__ import annotations

import ast
import math
import pathlib
import textwrap

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterConfig
from repro.errors import SimulationError
from repro.network.loggp import LogGPParams, TransportParams
from repro.sim.engine import Engine

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
#: what the guard covers: every layer below the rank programs
GUARDED = ("sim", "network", "core", "mpi", "rma", "memory", "ft",
           "cluster.py")

_EVENTS = 3
_DELAYS = (0.0, 0.5, 1.0, 1.5)      # few values: many same-instant ties

#: one process step: a charge, a wait on shared event k, a race of event
#: k against a timer (a ``_Waker`` resume), or triggering event k
_step = st.one_of(
    st.tuples(st.just("charge"), st.sampled_from(_DELAYS)),
    st.tuples(st.just("wait"), st.integers(0, _EVENTS - 1)),
    st.tuples(st.just("race"), st.integers(0, _EVENTS - 1),
              st.sampled_from(_DELAYS)),
    st.tuples(st.just("trigger"), st.integers(0, _EVENTS - 1)),
)
_programs = st.lists(st.lists(_step, max_size=8), min_size=1, max_size=4)
#: when each shared event is triggered from outside, if no step did first
_late = st.lists(st.sampled_from(_DELAYS + (3.0,)), min_size=_EVENTS,
                 max_size=_EVENTS)


def _dispatch(scheduler: str, programs, late, bare: bool) -> list:
    """Every resume of every process, in order: ``(now, pid, step,
    value)``; then the run's end time and its count of schedule calls."""
    eng = Engine(scheduler=scheduler)
    events = [eng.event(f"e{k}") for k in range(_EVENTS)]
    log: list = []

    def trigger(k, value):
        if not events[k].triggered:
            events[k].succeed(value)

    def body(pid, steps):
        for i, step in enumerate(steps):
            kind = step[0]
            if kind == "charge":
                got = yield (step[1] if bare else eng.timeout(step[1]))
            elif kind == "wait":
                got = yield events[step[1]]
            elif kind == "race":
                got = yield (events[step[1]], eng.timeout(step[2], "timer"))
            else:
                trigger(step[1], (pid, i))
                continue
            log.append((eng.now, pid, i, got))

    for pid, steps in enumerate(programs):
        eng.process(body(pid, steps), name=f"p{pid}")
    for k, when in enumerate(late):
        eng.call_at(when, lambda k=k: trigger(k, "late"))
    eng.run()
    return log + [("end", eng.now, eng.events_scheduled())]


@given(_programs, _late)
def test_a_bare_delay_dispatches_exactly_like_a_timeout(programs, late):
    """Heap and calendar, bare delay and ``Timeout``: one dispatch log."""
    logs = {(scheduler, bare): _dispatch(scheduler, programs, late, bare)
            for scheduler in ("heap", "calendar")
            for bare in (False, True)}
    reference = logs["heap", False]
    assert all(log == reference for log in logs.values())


def test_the_property_sees_ties_and_waker_resumes():
    """The log above is not vacuous: two charges and an event end at one
    instant, the event wakes a race inline (through its ``_Waker``)
    ahead of a plain waiter, and a zero charge from the race goes last."""
    programs = [[("charge", 1.0), ("trigger", 0)],
                [("race", 0, 1.5), ("charge", 0.0)],
                [("charge", 1.0), ("wait", 0)]]
    for bare in (False, True):
        assert _dispatch("calendar", programs, [3.0] * _EVENTS, bare) == [
            (1.0, 0, 0, None), (1.0, 2, 0, None), (1.0, 1, 0, (0, 1)),
            (1.0, 2, 1, (0, 1)), (1.0, 1, 1, None), ("end", 3.0, 16)]


@pytest.mark.parametrize("delay", [-1.0, -1e-300, math.nan, math.inf,
                                   -math.inf],
                         ids=["negative", "tiny-negative", "nan", "inf",
                              "-inf"])
def test_an_invalid_delay_is_thrown_into_the_generator(engine, delay):
    def prog(e):
        with pytest.raises(SimulationError, match="delay"):
            yield delay
        yield 2.0
        return e.now

    p = engine.process(prog(engine))
    engine.run()
    assert p.value == 2.0


def test_an_uncaught_invalid_delay_crashes_the_process(engine):
    def prog(e):
        yield -1.0

    engine.process(prog(engine), name="late")
    with pytest.raises(SimulationError, match="'late' crashed") as err:
        engine.run()
    assert "delay -1.0" in str(err.value.__cause__)


def test_an_int_is_not_a_delay(engine):
    def prog(e):
        with pytest.raises(SimulationError, match="non-event"):
            yield 42
        with pytest.raises(SimulationError, match="non-event"):
            yield True
        return "ok"

    p = engine.process(prog(engine))
    engine.run()
    assert p.value == "ok"


def test_a_numpy_float64_is_a_delay(engine):
    def prog(e):
        got = yield np.float64(1.25)
        yield np.float64(0.0)
        return got, e.now

    p = engine.process(prog(engine))
    engine.run()
    assert p.value == (None, 1.25)


def test_one_token_serves_every_charge_of_a_process(engine):
    def prog(e):
        for _ in range(3):
            yield 1.0
            tokens.add(id(proc._tick))

    tokens: set = set()
    proc = engine.process(prog(engine))
    engine.run()
    assert len(tokens) == 1 and engine.now == 3.0
    assert proc._tick is None           # the cycle is broken at the end


def test_int_parameters_are_float_delays():
    """Costs built from integer parameters still charge: every ``float``
    field of the transport parameters is stored as a float, and
    ``compute`` takes an int."""
    params = TransportParams(o_send=1, mpi_overhead=2, t_init=1,
                             fma=LogGPParams(L=1, G=0, g=1, o_post=0))
    assert type(params.o_send) is float and type(params.fma.g) is float
    assert params.fma_max == 4096 and type(params.fma_max) is int

    def program(ctx):
        yield from ctx.compute(5)
        win = yield from ctx.win_allocate(64)
        yield from win.lock_all()
        if ctx.rank == 0:
            yield from win.put(np.zeros(8), 1)
        yield from win.unlock_all()
        return ctx.now

    ends = Cluster(ClusterConfig(nranks=2, params=params)).run(program)
    assert min(ends) > 5.0


# -- the guard -------------------------------------------------------------
def _yielded_timeouts(tree: ast.AST) -> list[int]:
    """Lines of every ``yield <...>.timeout(...)`` in ``tree``."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Yield)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Attribute)
            and node.value.func.attr == "timeout"]


def test_the_library_charges_with_bare_delays():
    found = []
    for name in GUARDED:
        paths = [SRC / name] if name.endswith(".py") else sorted(
            (SRC / name).rglob("*.py"))
        for path in paths:
            found += [f"{path.relative_to(SRC)}:{line}" for line in
                      _yielded_timeouts(ast.parse(path.read_text()))]
    assert found == []


def test_a_reintroduced_timeout_charge_is_caught():
    charge = textwrap.dedent("""
        def start(self, req):
            req.active = True
            yield self.engine.timeout(self.params.t_start)
            yield self.params.t_start
            yield (arrival, self.engine.timeout(1.0))
    """)
    assert _yielded_timeouts(ast.parse(charge)) == [4]
