"""Property stress tests of the DES kernel itself."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine
from repro.sim.resources import Store


@st.composite
def process_specs(draw):
    """Random set of processes, each a list of (delay, action) steps."""
    nprocs = draw(st.integers(min_value=1, max_value=6))
    specs = []
    for _ in range(nprocs):
        steps = draw(st.lists(
            st.tuples(st.floats(min_value=0.0, max_value=5.0,
                                allow_nan=False),
                      st.sampled_from(["sleep", "put", "get"])),
            min_size=1, max_size=8))
        specs.append(steps)
    return specs


@settings(max_examples=40, deadline=None)
@given(specs=process_specs())
def test_random_schedules_deterministic_and_monotone(specs):
    """Any random workload: time never goes backwards, two runs agree."""
    def build():
        eng = Engine()
        store = Store(eng)
        log = []
        puts = sum(1 for steps in specs for _, a in steps if a == "put")
        gets = [0]

        def proc(e, pid, steps):
            last = 0.0
            for delay, action in steps:
                yield e.timeout(delay)
                assert e.now >= last
                last = e.now
                if action == "put":
                    store.put((pid, e.now))
                elif action == "get" and gets[0] < puts:
                    gets[0] += 1
                    item = yield from store.get()
                    log.append(("got", pid, item, e.now))
                log.append((action, pid, e.now))

        for pid, steps in enumerate(specs):
            eng.process(proc(eng, pid, steps), name=f"p{pid}")
        eng.run()
        return log, eng.now

    try:
        a = build()
    except Exception:
        # A get with no matching put deadlocks; that must also be
        # deterministic.
        import pytest
        with pytest.raises(Exception):
            build()
        return
    b = build()
    assert a == b
