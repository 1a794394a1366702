"""``yield (a, b, ...)``: a process waits for the first of several events.

The engine resumes the process straight from the member that fires
first: one waker per wait, no condition event.  Its contract is
``AnyOf``'s minus the condition's own dispatch — the process resumes
once, with the winner's value (or the winner's failure thrown in), a
loser that fires later wakes nothing and costs no push, and a member
already processed resumes the process at the current instant through
the relay, the one URGENT push an ``AnyOf`` would make.
"""

from __future__ import annotations

import contextlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import engine as sim_engine
from repro.sim.engine import AnyOf, Engine


def test_resumes_once_with_the_winner_value(engine):
    a, b = engine.event(), engine.event()
    log = []

    def waiter(e):
        got = yield (a, b)
        log.append((e.now, got))
        # The loser lost its waker the moment the winner fired.
        log.append(("loser callbacks", len(a.callbacks)))
        yield e.timeout(10.0)
        log.append((e.now, "done"))

    def late_loser():
        before = engine.events_scheduled()
        a.settle("a")
        log.append((engine.now, "loser pushes",
                    engine.events_scheduled() - before))

    engine.process(waiter(engine))
    engine.call_at(1.0, lambda: b.succeed("b"))
    engine.call_at(5.0, late_loser)
    engine.run()
    assert log == [(1.0, "b"), ("loser callbacks", 0),
                   (5.0, "loser pushes", 0), (11.0, "done")]
    assert a.processed and a.value == "a"


def test_processed_member_resumes_now_through_the_relay(engine):
    done, pending = engine.event(), engine.event()
    done.succeed("early")
    engine.run()
    log = []

    def waiter(e):
        yield e.timeout(3.0)
        before = e.events_scheduled()
        got = yield (pending, done)
        # Resumed at 3.0 by one relay push, as an AnyOf's own push would.
        log.append((e.now, got, e.events_scheduled() - before))
        yield e.timeout(10.0)
        log.append((e.now, "done"))

    engine.process(waiter(engine))
    engine.call_at(5.0, lambda: pending.settle("late"))
    engine.run()
    assert log == [(3.0, "early", 1), (13.0, "done")]
    assert not pending.callbacks


@pytest.mark.parametrize("processed", [False, True],
                         ids=["fails_while_parked", "failed_before"])
def test_failed_member_is_thrown_in_and_observed(engine, processed):
    bad, other = engine.event(), engine.event()
    log = []

    def waiter(e):
        if processed:
            yield e.timeout(2.0)
        try:
            yield (other, bad)
        except KeyError as exc:
            log.append((e.now, exc.args[0], len(other.callbacks or ())))
        yield e.timeout(10.0)
        log.append((e.now, "done"))

    engine.process(waiter(engine))
    engine.call_at(1.0, lambda: bad.fail(KeyError("boom")))
    engine.call_at(5.0, lambda: other.settle("late"))
    engine.run()                  # no "never observed" report
    when = 2.0 if processed else 1.0
    assert log == [(when, "boom", 0), (when + 10.0, "done")]
    assert not engine._unobserved
    assert not other.callbacks


def test_a_member_listed_twice_resumes_once(engine):
    a, b = engine.event(), engine.event()
    log = []

    def waiter(e):
        log.append((yield (a, b, a)))
        log.append(len(b.callbacks))
        log.append((yield e.timeout(1.0, "tick")))

    engine.process(waiter(engine))
    engine.call_at(1.0, lambda: a.succeed("a"))
    engine.call_at(5.0, lambda: b.settle("b"))
    engine.run()
    assert log == ["a", 0, "tick"]


def test_a_tuple_with_a_non_event_is_thrown_back(engine):
    def waiter(e):
        with pytest.raises(SimulationError, match="non-event"):
            yield (e.event(), 42)
        with pytest.raises(SimulationError, match="non-event"):
            yield ()
        return "ok"

    p = engine.process(waiter(engine))
    engine.run()
    assert p.value == "ok"


@contextlib.contextmanager
def _dispatch_log(log):
    """Log ``(now, kind, name)`` for every event the scheduler dispatches."""
    classes = [sim_engine.Event, sim_engine._Relay, sim_engine._Hook,
               sim_engine._Batch]
    saved = [cls.__dict__["_process"] for cls in classes]

    def logged(original):
        def _process(self):
            log.append((self.engine.now, type(self).__name__, self.name))
            original(self)
        return _process

    for cls, original in zip(classes, saved):
        cls._process = logged(original)
    try:
        yield log
    finally:
        for cls, original in zip(classes, saved):
            cls._process = original


_DELAY = st.sampled_from([0.0, 0.5, 1.0, 2.0])
#: one wait: delays of its two members' hooks, then the pause after it
_ROUND = st.tuples(_DELAY, _DELAY, _DELAY)


def _two_waiters(scheduler, rounds, use_any_of):
    """Two processes, each waiting on pairs fired by their own hooks."""
    log = []
    eng = Engine(scheduler=scheduler)

    def waiter(e, name, plan):
        for i, (da, db, pause) in enumerate(plan):
            a = e.event(f"{name}{i}a")
            b = e.event(f"{name}{i}b")
            e.call_at(e.now + da, lambda ev=a: ev.settle(ev.name))
            e.call_at(e.now + db, lambda ev=b: ev.settle(ev.name))
            if use_any_of:
                got = yield e.any_of([a, b])
                (got,) = got.values()
            else:
                got = yield (a, b)
            log.append((e.now, name, "woke", got))
            yield e.timeout(pause)

    with _dispatch_log(log):
        for name, plan in zip("PQ", rounds):
            eng.process(waiter(eng, name, plan), name=name)
        eng.run()
    return [entry for entry in log
            if not (len(entry) == 3 and entry[1] == AnyOf.__name__)]


@given(st.tuples(st.lists(_ROUND, min_size=1, max_size=4),
                 st.lists(_ROUND, min_size=1, max_size=4)))
def test_dispatch_log_equals_any_of_minus_the_condition(rounds):
    for scheduler in (None, "heap"):
        fast = _two_waiters(scheduler, rounds, use_any_of=False)
        assert fast == _two_waiters(scheduler, rounds, use_any_of=True)
