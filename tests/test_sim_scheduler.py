"""Tests of the event schedulers (calendar queue vs reference heap).

The calendar queue must be observationally identical to the binary heap
on the one path the engine consumes it by, ``drain``: same dispatch order
for any push sequence respecting the engine's invariants (times are never
in the past relative to the current tick), same golden event traces
across calendar bucket boundaries, overflow rungs, and rebuild
thresholds.  The randomized half of that oracle lives in
``tests/test_property_scheduler.py``; the golden orders of its named
inputs are pinned here.
"""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.engine import NORMAL, URGENT, Engine
from repro.sim.scheduler import (
    _MIN_SLOTS,
    SCHEDULERS,
    CalendarScheduler,
    HeapScheduler,
    make_scheduler,
    scheduler_name,
)
from tests.test_property_scheduler import (
    BUCKET_EDGES,
    BUCKET_TIMES,
    CRASH_MID_BUCKET,
    FUTURE_URGENT,
    GROW,
    OVERFLOW,
    SAME_TICK_URGENT,
    Script,
    fired,
    same_dispatch,
)


# ---------------------------------------------------------------------------
# registry / selection
# ---------------------------------------------------------------------------
def test_registry_contains_both():
    assert set(SCHEDULERS) == {"heap", "calendar"}


def test_default_is_calendar():
    assert scheduler_name() == "calendar"
    assert isinstance(make_scheduler(), CalendarScheduler)


def test_heap_is_selected_by_name():
    assert scheduler_name("heap") == "heap"
    assert isinstance(make_scheduler("heap"), HeapScheduler)


def test_unknown_scheduler_rejected():
    with pytest.raises(SimulationError, match="unknown scheduler"):
        scheduler_name("splay-tree")


def test_engine_accepts_scheduler_argument():
    assert Engine(scheduler="heap")._sched.name == "heap"
    assert Engine(scheduler="calendar")._sched.name == "calendar"


def test_calendar_rejects_exotic_priority():
    sched = CalendarScheduler()
    with pytest.raises(SimulationError, match="URGENT/NORMAL"):
        sched.push(1.0, 7, object())
    # the heap takes anything orderable
    script = Script(HeapScheduler())
    script.push(1.0, 7)
    script.drain()
    assert fired(script.log) == [(1.0, 0)]


# ---------------------------------------------------------------------------
# golden dispatch orders of the property tests' named inputs
# ---------------------------------------------------------------------------
def test_same_tick_urgent_preempts_older_normals():
    """A same-time URGENT pushed mid-bucket (higher seq) must still beat
    NORMAL entries pushed earlier (lower seq) — the heap's
    ``(t, 0, big) < (t, 1, small)`` tuple order."""
    log = same_dispatch(**SAME_TICK_URGENT)
    assert fired(log) == [(5.0, 0), (5.0, 2), (5.0, 1)]


def test_seq_counts_match():
    """Both implementations consume one sequence number per push."""
    heap, cal = HeapScheduler(), CalendarScheduler()
    for sched in (heap, cal):
        for i in range(7):
            sched.push(float(i % 3), NORMAL, i)
    assert heap._seq == cal._seq == 7


def test_peek_between_drains():
    for name in SCHEDULERS:
        script = Script(make_scheduler(name))
        assert script.sched.peek() == float("inf")
        script.push(9.0, NORMAL)
        script.push(3.0, URGENT)
        assert script.sched.peek() == 3.0
        assert script.drain(until=3.0) is True
        assert script.sched.peek() == 9.0
        assert script.drain() is False
        assert script.sched.peek() == float("inf")
        assert fired(script.log) == [(3.0, 1), (9.0, 0)], name


def test_golden_order_across_bucket_boundaries():
    """Timestamps straddling calendar slot boundaries fire in time order."""
    log = same_dispatch(**BUCKET_EDGES)
    n = len(BUCKET_TIMES)
    assert fired(log) == [(t, n - 1 - i) for i, t in enumerate(BUCKET_TIMES)]


def test_overflow_rung_and_rebuild():
    """Events far beyond the horizon land in the ladder rung and surface
    in order after the year-exhausted rebuild."""
    script = Script(CalendarScheduler())
    for when, prio in OVERFLOW["initial"]:
        script.push(when, prio)
    assert script.sched._over              # beyond-horizon: ladder top
    script.drain()
    far = [when for when, _ in OVERFLOW["initial"]]
    assert fired(script.log) == [(t, i) for i, t in enumerate(far)]
    assert script.sched._base == far[0]    # rebuild re-seeded the geometry
    assert fired(same_dispatch(**OVERFLOW)) == fired(script.log)


def test_grow_rebuild_threshold():
    """Pushing more than 2*nslots distinct timestamps grows the calendar."""
    script = Script(CalendarScheduler())
    assert script.sched._nslots == _MIN_SLOTS
    for when, prio in GROW["initial"]:
        script.push(when, prio)
    assert script.sched._nslots > _MIN_SLOTS
    script.drain()
    n = len(GROW["initial"])
    assert fired(script.log) == [(i * 0.001, i) for i in range(n)]
    assert fired(same_dispatch(**GROW)) == fired(script.log)


def test_golden_trace_crossing_rebuild_threshold():
    """Engine-level golden trace whose schedule crosses the grow-rebuild
    threshold: identical on both schedulers, and stable."""
    def run(scheduler):
        eng = Engine(scheduler=scheduler)
        log = []

        def prog(e, tag, delay):
            for i in range(3):
                yield e.timeout(delay)
                log.append((round(e.now, 6), tag, i))

        for tag in range(40):              # 120 timeouts, > 2*32 distinct
            eng.process(prog(eng, tag, 0.37 + tag * 0.013), name=f"p{tag}")
        eng.run()
        return log

    heap_log = run("heap")
    cal_log = run("calendar")
    assert heap_log == cal_log
    assert cal_log == run("calendar")      # deterministic


def test_future_urgent_escape_hatch():
    """URGENT at a non-active future time (the rare path) still orders
    before NORMAL at that time and after everything earlier."""
    log = same_dispatch(**FUTURE_URGENT)
    assert fired(log) == [(5.0, 2), (10.0, 1), (10.0, 0)]


def test_crash_mid_bucket_resumes_in_order():
    """An exception escaping mid-bucket leaves the rest of the bucket —
    including the URGENT the crashing event pushed — pending, reported by
    ``peek``, and dispatched in order by the next drain."""
    log = same_dispatch(**CRASH_MID_BUCKET)
    assert log == [(1.0, 0), ("boom", 0, 1.0, 1.0),
                   (1.0, 3), (1.0, 1), (1.0, 2), (3.0, 4),
                   ("stop", False, 3.0, float("inf"))]


def test_urgent_only_timestamp_via_engine():
    """A timestamp whose only events are URGENT (kick-off relays before
    run()) drains correctly on the calendar's escape-hatch path."""
    eng = Engine(scheduler="calendar")
    log = []

    def prog(e, tag):
        log.append((e.now, tag))
        yield e.timeout(1.0)

    eng.process(prog(eng, "a"))
    eng.process(prog(eng, "b"))
    eng.run()
    assert log == [(0.0, "a"), (0.0, "b")]


# ---------------------------------------------------------------------------
# engine-level equivalence and drain/step interop
# ---------------------------------------------------------------------------
def _branchy_program(eng):
    """A workload exercising conditions and zero-delay cascades."""
    log = []

    def worker(e, tag, period):
        for i in range(4):
            yield e.timeout(period)
            log.append(("tick", tag, e.now))

    def coordinator(e, procs):
        done = yield e.all_of(procs[:2])
        log.append(("all", len(done), e.now))
        first = yield e.any_of(procs[2:])
        log.append(("any", len(first), e.now))

    procs = [eng.process(worker(eng, t, 0.5 + 0.25 * t), name=f"w{t}")
             for t in range(4)]
    eng.process(coordinator(eng, procs), name="coord")
    return log


def test_full_program_identical_on_both_schedulers():
    logs = []
    for name in ("heap", "calendar"):
        eng = Engine(scheduler=name)
        log = _branchy_program(eng)
        eng.run()
        logs.append((log, eng.now))
    assert logs[0] == logs[1]


def test_bounded_run_and_resume_equivalent():
    """run(until=...) quantums then a final drain: same trace on both."""
    def run(scheduler):
        eng = Engine(scheduler=scheduler)
        log = _branchy_program(eng)
        t = 0.0
        while True:
            t += 0.7
            now = eng.run(until=t, detect_deadlock=False)
            log.append(("quantum", now))
            if eng.peek() == float("inf"):
                break
        return log

    assert run("heap") == run("calendar")


def test_step_then_run_interop():
    """step()-driven ticks interleaved with run() drain cleanly and
    identically on both schedulers."""
    def run(scheduler):
        eng = Engine(scheduler=scheduler)
        log = _branchy_program(eng)
        for _ in range(5):
            eng.step()
            log.append(("stepped-to", eng.now))
        eng.run()
        return log, eng.now

    assert run("heap") == run("calendar")
