"""Tests of the DES kernel: events, processes, time, determinism."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim.engine import Engine


def test_time_starts_at_zero(engine):
    assert engine.now == 0.0


def test_timeout_advances_time(engine):
    def prog(e):
        yield e.timeout(2.5)
        return e.now

    p = engine.process(prog(engine))
    engine.run()
    assert p.value == 2.5
    assert engine.now == 2.5


def test_zero_timeout_is_legal(engine):
    def prog(e):
        yield e.timeout(0.0)
        return "ok"

    p = engine.process(prog(engine))
    engine.run()
    assert p.value == "ok"


def test_negative_timeout_rejected(engine):
    with pytest.raises(SimulationError):
        engine.timeout(-1.0)


def test_timeout_carries_value(engine):
    def prog(e):
        got = yield e.timeout(1.0, value="payload")
        return got

    p = engine.process(prog(engine))
    engine.run()
    assert p.value == "payload"


def test_event_succeed_resumes_with_value(engine):
    ev = engine.event()

    def waiter(e):
        got = yield ev
        return got

    def firer(e):
        yield e.timeout(3.0)
        ev.succeed(42)

    p = engine.process(waiter(engine))
    engine.process(firer(engine))
    engine.run()
    assert p.value == 42
    assert engine.now == 3.0


def test_event_fail_raises_in_waiter(engine):
    ev = engine.event()

    def waiter(e):
        try:
            yield ev
        except ValueError as exc:
            return f"caught {exc}"

    def firer(e):
        yield e.timeout(1.0)
        ev.fail(ValueError("boom"))

    p = engine.process(waiter(engine))
    engine.process(firer(engine))
    engine.run()
    assert p.value == "caught boom"


def test_event_double_trigger_rejected(engine):
    ev = engine.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_value_before_trigger_rejected(engine):
    ev = engine.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_fail_requires_exception(engine):
    with pytest.raises(TypeError):
        engine.event().fail("not an exception")


def test_process_return_value(engine):
    def prog(e):
        yield e.timeout(1.0)
        return {"answer": 42}

    p = engine.process(prog(engine))
    engine.run()
    assert p.value == {"answer": 42}


def test_process_requires_generator(engine):
    with pytest.raises(TypeError):
        engine.process(lambda: None)


def test_waiting_on_finished_process(engine):
    def fast(e):
        yield e.timeout(1.0)
        return "fast-result"

    def slow(e, fast_proc):
        yield e.timeout(5.0)
        got = yield fast_proc      # already processed
        return got

    fp = engine.process(fast(engine))
    sp = engine.process(slow(engine, fp))
    engine.run()
    assert sp.value == "fast-result"


def test_uncaught_crash_surfaces_from_run(engine):
    def boom(e):
        yield e.timeout(1.0)
        raise RuntimeError("kapow")

    engine.process(boom(engine))
    with pytest.raises(SimulationError) as ei:
        engine.run()
    assert isinstance(ei.value.__cause__, RuntimeError)


def test_crash_observed_by_waiter_does_not_escalate(engine):
    def boom(e):
        yield e.timeout(1.0)
        raise RuntimeError("kapow")

    def guard(e, proc):
        try:
            yield proc
        except RuntimeError:
            return "handled"

    bp = engine.process(boom(engine))
    gp = engine.process(guard(engine, bp))
    engine.run()
    assert gp.value == "handled"


def test_deadlock_detected(engine):
    def hang(e):
        yield e.event()

    engine.process(hang(engine), name="stuck")
    with pytest.raises(DeadlockError) as ei:
        engine.run()
    assert "stuck" in str(ei.value)


def test_deadlock_detection_optional(engine):
    def hang(e):
        yield e.event()

    engine.process(hang(engine))
    engine.run(detect_deadlock=False)   # drains quietly


def test_run_until_stops_early(engine):
    def prog(e):
        for _ in range(10):
            yield e.timeout(1.0)

    engine.process(prog(engine))
    engine.run(until=4.5, detect_deadlock=False)
    assert engine.now == 4.5


def test_run_until_past_rejected(engine):
    def prog(e):
        yield e.timeout(10.0)

    engine.process(prog(engine))
    engine.run(until=5.0, detect_deadlock=False)
    with pytest.raises(SimulationError):
        engine.run(until=1.0)


def test_same_time_events_fire_in_creation_order(engine):
    order = []

    def prog(e, tag):
        yield e.timeout(1.0)
        order.append(tag)

    for tag in range(5):
        engine.process(prog(engine, tag))
    engine.run()
    assert order == [0, 1, 2, 3, 4]


def test_yield_non_event_crashes_process(engine):
    def bad(e):
        yield "not an event"

    engine.process(bad(engine))
    with pytest.raises(SimulationError):
        engine.run()


def test_peek(engine):
    assert engine.peek() == float("inf")
    engine.timeout(7.0)
    assert engine.peek() == 7.0


def test_nested_yield_from_composition(engine):
    def inner(e):
        yield e.timeout(1.0)
        return 10

    def outer(e):
        a = yield from inner(e)
        b = yield from inner(e)
        return a + b

    p = engine.process(outer(engine))
    engine.run()
    assert p.value == 20
    assert engine.now == 2.0


def test_determinism_two_identical_runs():
    def build():
        eng = Engine()
        log = []

        def prog(e, tag):
            for i in range(3):
                yield e.timeout(0.5 * (tag + 1))
                log.append((e.now, tag, i))

        for tag in range(4):
            eng.process(prog(eng, tag))
        eng.run()
        return log

    assert build() == build()


def test_yield_non_event_recoverable_by_catching(engine):
    """A process may catch the SimulationError thrown for a bogus yield
    and continue with a valid one.

    Regression: the engine used to call ``gen.throw`` and discard the
    generator's next yield, so a recovering process was never rescheduled
    and the run ended in a spurious DeadlockError.
    """
    def sloppy(e):
        try:
            yield "not an event"
        except SimulationError:
            pass
        yield e.timeout(1.0)
        return "recovered"

    p = engine.process(sloppy(engine))
    engine.run()
    assert p.value == "recovered"
    assert engine.now == 1.0


def test_yield_non_event_uncaught_uses_crash_path(engine):
    """An unhandled bogus-yield error goes through the normal crash
    machinery (named process, chained cause), not an ad-hoc raise."""
    def bad(e):
        yield 42

    engine.process(bad(engine), name="bogus")
    with pytest.raises(SimulationError) as ei:
        engine.run()
    assert "bogus" in str(ei.value)
    assert "crashed" in str(ei.value)
    assert isinstance(ei.value.__cause__, SimulationError)
    assert "non-event" in str(ei.value.__cause__)


def test_yield_non_event_crash_observed_by_waiter(engine):
    """A waiter on a process that dies from a bogus yield sees the error
    like any other crash instead of the whole run aborting."""
    def bad(e):
        yield e.timeout(1.0)
        yield object()

    def guard(e, proc):
        try:
            yield proc
        except SimulationError:
            return "handled"

    bp = engine.process(bad(engine))
    gp = engine.process(guard(engine, bp))
    engine.run()
    assert gp.value == "handled"


def test_negative_delay_in_succeed_rejected(engine):
    ev = engine.event()
    with pytest.raises(SimulationError):
        ev.succeed(None, delay=-1.0)
    # the event must not be left half-triggered by the failed call
    assert not ev.triggered
    ev.succeed(None)
    assert ev.triggered


def test_negative_delay_in_fail_rejected(engine):
    ev = engine.event()
    with pytest.raises(SimulationError):
        ev.fail(RuntimeError("x"), delay=-0.5)
    assert not ev.triggered


def test_negative_schedule_delay_rejected(engine):
    with pytest.raises(SimulationError):
        engine.timeout(-2.0)


def test_step_accounts_events_scheduled(engine):
    """Regression: step() must fold the engine's schedule counter into the
    module-level events_scheduled() metric, not only run()'s drain — a
    step-driven simulation used to report zero new events."""
    from repro.sim.engine import events_scheduled

    def prog(e):
        yield e.timeout(1.0)
        yield e.timeout(1.0)

    engine.process(prog(engine))
    before = events_scheduled()
    engine.step()
    assert events_scheduled() > before
    engine.step()
    engine.step()
    assert events_scheduled() == before + engine.events_scheduled()


def test_step_on_empty_engine_names_the_error(engine):
    """Stepping an engine with nothing scheduled is a named kernel error,
    not an ``IndexError`` from the scheduler's internals."""
    with pytest.raises(SimulationError, match="nothing is scheduled"):
        engine.step()

    def prog(e):
        yield e.timeout(1.0)

    engine.process(prog(engine))
    engine.run()
    with pytest.raises(SimulationError, match="nothing is scheduled"):
        engine.step()
    assert engine.now == 1.0


def test_step_runs_one_tick_including_its_cascade(engine):
    """``step()`` dispatches every event of the next pending tick — the
    zero-delay cascade too — and nothing of the tick after it."""
    log = []

    def child(e, tag):
        log.append((tag, e.now))
        yield e.timeout(0.0)
        log.append((tag + "-again", e.now))

    def parent(e):
        yield e.timeout(2.0)
        e.process(child(e, "c"))
        yield e.timeout(1.0)
        log.append(("parent", e.now))

    engine.process(parent(engine))
    engine.step()                          # t=0: kick-off only
    assert log == [] and engine.now == 0.0 and engine.peek() == 2.0
    engine.step()                          # t=2: child and its cascade
    assert log == [("c", 2.0), ("c-again", 2.0)]
    assert engine.now == 2.0 and engine.peek() == 3.0
    engine.step()
    assert log[-1] == ("parent", 3.0)


def test_bounded_run_reports_unobserved_failure(engine):
    """Regression: a failed, never-observed event processed before
    ``until`` must be reported at the bounded-drain boundary instead of
    being silently swallowed by the early return."""
    ev = engine.event("doomed")
    ev.fail(RuntimeError("swallowed?"))
    engine.timeout(10.0)  # keeps the scheduler non-empty past the boundary
    with pytest.raises(SimulationError, match="never observed"):
        engine.run(until=5.0)


def test_bounded_run_defused_failure_not_reported(engine):
    """defuse() is the documented opt-out, for bounded drains too."""
    ev = engine.event()
    ev.fail(RuntimeError("expected"))
    ev.defuse()
    engine.timeout(10.0)
    assert engine.run(until=5.0) == 5.0


def test_failure_observed_within_quantum_not_reported(engine):
    """Pinning the bounded-drain semantics: a failure that finds its
    observer before the quantum ends stays out of the unobserved report;
    one that would only be observed in a later quantum must be defused."""
    ev = engine.event()
    ev.fail(RuntimeError("handled in time"))

    def observer(e):
        yield e.timeout(3.0)     # observes at t=3, inside the quantum
        try:
            yield ev
        except RuntimeError:
            return "saw it"

    p = engine.process(observer(engine))
    engine.timeout(10.0)
    engine.run(until=5.0, detect_deadlock=False)
    engine.run()
    assert p.value == "saw it"
