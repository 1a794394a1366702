"""AllOf / AnyOf composite events."""

import pytest



def test_all_of_waits_for_all(engine):
    evs = [engine.event() for _ in range(3)]

    def waiter(e):
        got = yield e.all_of(evs)
        return got

    def firer(e):
        for i, ev in enumerate(evs):
            yield e.timeout(1.0)
            ev.succeed(i * 10)

    p = engine.process(waiter(engine))
    engine.process(firer(engine))
    engine.run()
    assert engine.now == 3.0
    assert list(p.value.values()) == [0, 10, 20]


def test_any_of_fires_on_first(engine):
    evs = [engine.event() for _ in range(3)]

    def waiter(e):
        got = yield e.any_of(evs)
        return got

    def firer(e):
        yield e.timeout(2.0)
        evs[1].succeed("second")
        yield e.timeout(2.0)
        evs[0].succeed("first")
        evs[2].succeed("third")

    p = engine.process(waiter(engine))
    engine.process(firer(engine))
    engine.run()
    assert p.value == {evs[1]: "second"}


def test_empty_all_of_fires_immediately(engine):
    def waiter(e):
        got = yield e.all_of([])
        return got

    p = engine.process(waiter(engine))
    engine.run()
    assert p.value == {}
    assert engine.now == 0.0


def test_all_of_with_pre_fired_events(engine):
    ev1 = engine.event()
    ev1.succeed("early")

    def waiter(e):
        ev2 = e.timeout(2.0, value="late")
        got = yield e.all_of([ev1, ev2])
        return sorted(got.values())

    p = engine.process(waiter(engine))
    engine.run()
    assert p.value == ["early", "late"]


def test_condition_propagates_failure(engine):
    ev1, ev2 = engine.event(), engine.event()

    def waiter(e):
        try:
            yield e.all_of([ev1, ev2])
        except KeyError:
            return "failed"

    def firer(e):
        yield e.timeout(1.0)
        ev1.fail(KeyError("bad"))

    p = engine.process(waiter(engine))
    engine.process(firer(engine))
    engine.run(detect_deadlock=False)
    assert p.value == "failed"


def test_condition_over_non_event_rejected(engine):
    with pytest.raises(TypeError):
        engine.all_of([1, 2, 3])


def test_all_of_duplicate_events(engine):
    """Regression: all_of([e, e]) used to deadlock — _fired is keyed by
    event so the duplicate could never contribute a second entry, and
    _done() compared against the raw input length."""
    ev = engine.event()

    def waiter(e):
        got = yield e.all_of([ev, ev])
        return got

    def firer(e):
        yield e.timeout(1.0)
        ev.succeed("v")

    p = engine.process(waiter(engine))
    engine.process(firer(engine))
    engine.run()  # must NOT raise DeadlockError
    assert p.value == {ev: "v"}


def test_all_of_mixed_duplicates(engine):
    ev1, ev2 = engine.event(), engine.event()

    def waiter(e):
        got = yield e.all_of([ev1, ev2, ev1, ev2, ev1])
        return sorted(got.values())

    def firer(e):
        yield e.timeout(1.0)
        ev1.succeed("a")
        ev2.succeed("b")

    p = engine.process(waiter(engine))
    engine.process(firer(engine))
    engine.run()
    assert p.value == ["a", "b"]


def test_any_of_duplicate_events(engine):
    ev = engine.event()

    def waiter(e):
        got = yield e.any_of([ev, ev])
        return got

    def firer(e):
        yield e.timeout(1.0)
        ev.succeed("first")

    p = engine.process(waiter(engine))
    engine.process(firer(engine))
    engine.run()
    assert p.value == {ev: "first"}


def test_any_of_detaches_loser_callbacks(engine):
    """Once an AnyOf wins, its _collect must be removed from the losers so
    the condition (and its waiters) are not pinned for the rest of the run."""
    winner, loser = engine.event("w"), engine.event("l")

    def waiter(e):
        got = yield e.any_of([winner, loser])
        return got

    def firer(e):
        yield e.timeout(1.0)
        winner.succeed("won")

    p = engine.process(waiter(engine))
    engine.process(firer(engine))
    engine.run(detect_deadlock=False)
    assert p.value == {winner: "won"}
    assert loser.callbacks == []


def test_failed_condition_detaches_pending_children(engine):
    bad, pending = engine.event("bad"), engine.event("pending")

    def waiter(e):
        try:
            yield e.all_of([bad, pending])
        except KeyError:
            return "failed"

    def firer(e):
        yield e.timeout(1.0)
        bad.fail(KeyError("boom"))

    p = engine.process(waiter(engine))
    engine.process(firer(engine))
    engine.run(detect_deadlock=False)
    assert p.value == "failed"
    assert pending.callbacks == []


def test_unobserved_event_failure_surfaces_at_run_exit(engine):
    """A failed event nobody ever waits on must not vanish silently."""
    from repro.errors import SimulationError

    ev = engine.event("doomed")

    def firer(e):
        yield e.timeout(1.0)
        ev.fail(RuntimeError("swallowed?"))

    engine.process(firer(engine))
    with pytest.raises(SimulationError, match="never observed"):
        engine.run()


def test_defused_failure_is_not_reported(engine):
    ev = engine.event("speculative")
    ev.defuse()

    def firer(e):
        yield e.timeout(1.0)
        ev.fail(RuntimeError("expected loss"))

    engine.process(firer(engine))
    engine.run()  # no SimulationError


def test_late_observation_before_drain(engine):
    from repro.errors import SimulationError

    ev = engine.event("late")

    def firer(e):
        yield e.timeout(1.0)
        ev.fail(RuntimeError("boom"))

    def waiter(e):
        yield e.timeout(2.0)
        try:
            yield ev
        except RuntimeError:
            return "saw it"

    engine.process(firer(engine))
    p = engine.process(waiter(engine))
    engine.run()  # no SimulationError: the failure was observed
    assert p.value == "saw it"
