"""Tests of the event schedulers (calendar queue vs reference heap).

The calendar queue must be observationally identical to the binary heap
on the one path the engine consumes it by, ``drain``: same dispatch order
for any push sequence respecting the engine's invariants (times are never
in the past relative to the current tick), same golden event traces
across bucket boundaries, far-future times and repeated timestamps, and
the same named error for a non-finite time.  The randomized half of that
oracle lives in
``tests/test_property_scheduler.py``; the golden orders of its named
inputs are pinned here.
"""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.engine import NORMAL, URGENT, Engine
from repro.sim.scheduler import (
    SCHEDULERS,
    CalendarScheduler,
    HeapScheduler,
    make_scheduler,
    scheduler_name,
)
from tests.test_property_scheduler import (
    BUCKET_EDGES,
    BUCKET_TIMES,
    CRASH_LAST_IN_BUCKET,
    CRASH_MID_BUCKET,
    FAR_FUTURE,
    FUTURE_URGENT,
    REPEATS,
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


#: every engine call that schedules at a caller-computed time
SCHEDULE_SITES = {
    "timeout": lambda eng, t: eng.timeout(t),
    "succeed": lambda eng, t: eng.event("e").succeed(delay=t),
    "fail": lambda eng, t: eng.event("e").fail(RuntimeError(), delay=t),
    "call_at": lambda eng, t: eng.call_at(t, lambda: None),
    "call_at_batch": lambda eng, t: eng.call_at_batch(t, [lambda: None]),
}


@pytest.mark.parametrize("when", [float("nan"), float("inf")],
                         ids=["nan", "inf"])
@pytest.mark.parametrize("site", list(SCHEDULE_SITES))
@pytest.mark.parametrize("scheduler", ["heap", "calendar"])
def test_non_finite_time_is_a_named_error(scheduler, site, when):
    """A NaN would corrupt either heap's order and ``inf`` reads as
    "nothing scheduled": both are refused where they are scheduled, and
    what was already pending is untouched."""
    eng = Engine(scheduler=scheduler)
    ran = []
    eng.call_at(1.0, lambda: ran.append(eng.now))
    with pytest.raises(SimulationError, match=f"non-finite time {when!r}"):
        SCHEDULE_SITES[site](eng, when)
    assert eng.peek() == 1.0
    assert eng.run() == 1.0 and ran == [1.0]


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


def test_far_future_times_pop_in_order():
    """Timestamps far beyond anything drained so far, pushed latest
    first, surface in ascending order."""
    script = Script(CalendarScheduler())
    for when, prio in FAR_FUTURE["initial"]:
        script.push(when, prio)
    script.drain()
    far = sorted(when for when, _ in FAR_FUTURE["initial"])
    n = len(far)
    assert fired(script.log) == [(t, n - 1 - i) for i, t in enumerate(far)]
    assert fired(same_dispatch(**FAR_FUTURE)) == fired(script.log)


def test_one_heap_entry_per_pending_timestamp():
    """A push at an already-pending time lands in its bucket: the heap
    holds each distinct pending timestamp once, and is empty once the
    drain is done."""
    sched = CalendarScheduler()
    script = Script(sched)
    for when, prio in REPEATS["initial"]:
        script.push(when, prio)
    distinct = {when for when, _ in REPEATS["initial"]}
    assert len(sched._heap) == len(sched._times) == len(distinct) == 37
    assert sched.peek() == min(distinct)
    script.drain()
    assert sched._heap == [] and sched._times == {}
    times = [when for when, _ in fired(script.log)]
    assert times == sorted(times) and len(times) == len(REPEATS["initial"])
    assert fired(same_dispatch(**REPEATS)) == fired(script.log)


def test_golden_trace_over_many_distinct_times():
    """Engine-level golden trace over 120 distinct timestamps: identical
    on both schedulers, and stable."""
    def run(scheduler):
        eng = Engine(scheduler=scheduler)
        log = []

        def prog(e, tag, delay):
            for i in range(3):
                yield e.timeout(delay)
                log.append((round(e.now, 6), tag, i))

        for tag in range(40):              # 120 timeouts
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


def test_crash_on_last_event_of_bucket_moves_peek_on():
    """An exception escaping on a bucket's last event leaves nothing to
    resume: ``peek`` reports the next timestamp at once, exactly as the
    heap does."""
    log = same_dispatch(**CRASH_LAST_IN_BUCKET)
    assert log == [(1.0, 0), (1.0, 1), ("boom", 1, 1.0, 4.0), (4.0, 2),
                   ("stop", False, 4.0, float("inf"))]


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
