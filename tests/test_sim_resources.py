"""Store and Signal primitives."""

from repro.sim.resources import Signal, Store


# -- Store -------------------------------------------------------------------
def test_store_fifo_order(engine):
    store = Store(engine)
    got = []

    def consumer(e):
        for _ in range(3):
            item = yield from store.get()
            got.append(item)

    def producer(e):
        for i in "abc":
            yield e.timeout(1.0)
            store.put(i)

    engine.process(consumer(engine))
    engine.process(producer(engine))
    engine.run()
    assert got == ["a", "b", "c"]


def test_store_get_before_put_blocks(engine):
    store = Store(engine)

    def consumer(e):
        item = yield from store.get()
        return (item, e.now)

    def producer(e):
        yield e.timeout(5.0)
        store.put("x")

    c = engine.process(consumer(engine))
    engine.process(producer(engine))
    engine.run()
    assert c.value == ("x", 5.0)


def test_store_try_get(engine):
    store = Store(engine)
    assert store.try_get() == (False, None)
    store.put(9)
    assert store.try_get() == (True, 9)


# -- Signal --------------------------------------------------------------
def test_signal_broadcasts_to_all_waiters(engine):
    sig = Signal(engine)
    got = []

    def waiter(e, i):
        val = yield sig.wait()
        got.append((i, val))

    def firer(e):
        yield e.timeout(1.0)
        sig.fire("ping")

    for i in range(3):
        engine.process(waiter(engine, i))
    engine.process(firer(engine))
    engine.run()
    assert sorted(got) == [(0, "ping"), (1, "ping"), (2, "ping")]


def test_signal_rearms_after_fire(engine):
    sig = Signal(engine)
    got = []

    def waiter(e):
        for _ in range(2):
            val = yield sig.wait()
            got.append(val)

    def firer(e):
        yield e.timeout(1.0)
        sig.fire(1)
        yield e.timeout(1.0)
        sig.fire(2)

    engine.process(waiter(engine))
    engine.process(firer(engine))
    engine.run()
    assert got == [1, 2]



def test_signal_fire_with_no_waiter_schedules_nothing(engine):
    """An unwatched fire costs no push; the next ``wait()`` is a fresh
    pending event, and a fire with that waiter attached wakes it."""
    sig = Signal(engine)
    before = engine.events_scheduled()
    sig.fire("unwatched")
    assert engine.events_scheduled() == before
    got = []

    def waiter(e):
        ev = sig.wait()
        assert not ev.triggered
        got.append((yield ev))

    engine.process(waiter(engine))
    engine.run(detect_deadlock=False)          # the waiter parks
    assert got == []
    sig.fire("watched")
    engine.run()
    assert got == ["watched"]
