"""Heap ≡ calendar on the path every run takes: ``drain``.

The engine consumes events only through its scheduler's ``drain`` (``run``
unbounded or to ``until``, ``step`` to the next tick), so that is where the
calendar queue is held to the reference heap.  A :class:`Script` feeds one
schedule to one scheduler through a stub engine whose events push further
events from inside ``_process`` — the way relays, hooks and timeouts do —
and logs every dispatch, every drain boundary and every ``peek``; the two
schedulers must produce the same log.

After every dispatch and every drain boundary the stub also checks the
calendar's index invariant: one heap entry per pending timestamp, so a
push at an already-pending time can never reach the heap.

The named inputs below (``SAME_TICK_URGENT`` …) are the corner cases the
calendar's design argues about; they ride along as explicit examples of
the properties, and ``tests/test_sim_scheduler.py`` pins their golden
orders.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.engine import NORMAL, URGENT
from repro.sim.scheduler import CalendarScheduler, HeapScheduler


class Clock:
    """What ``drain`` needs of its engine."""

    def __init__(self) -> None:
        self.now = 0.0
        self._crashed = None


class Boom(Exception):
    """Escapes ``drain`` mid-bucket, like a crash escalation or a race."""


class _Ev:
    __slots__ = ("script", "k")

    def __init__(self, script: Script, k: int):
        self.script = script
        self.k = k

    def _process(self) -> None:
        self.script.fire(self.k)


class Script:
    """One schedule driven through one scheduler's ``drain``.

    Events are numbered in push order.  Event ``k`` logs ``(now, k)`` when
    it fires, pushes ``children[k]`` — ``(delay, priority)`` pairs relative
    to ``now`` — from inside its ``_process``, then raises :class:`Boom`
    if ``k`` is in ``boom`` (once: a scheduler that re-dispatches it logs
    a difference instead of looping).
    """

    def __init__(self, sched, children=None, boom=()):
        self.sched = sched
        self.clock = Clock()
        self.children = children or {}
        self.boom = set(boom)
        self.log: list[tuple] = []
        self.pushed = 0

    def push(self, when: float, prio: int) -> None:
        self.sched.push(when, prio, _Ev(self, self.pushed))
        self.pushed += 1

    def fire(self, k: int) -> None:
        now = self.clock.now
        self.log.append((now, k))
        for delay, prio in self.children.get(k, ()):
            self.push(now + delay, prio)
        self.check_index()
        if k in self.boom:
            self.boom.discard(k)
            raise Boom(k)

    def check_index(self) -> None:
        """The calendar's heap holds each pending timestamp exactly once
        (the heap oracle has no such index)."""
        heap = getattr(self.sched, "_heap", None)
        if heap is not None:
            times = self.sched._times
            assert len(heap) == len(times)
            assert set(heap) == times.keys()

    def drain(self, until: float | None = None) -> bool:
        """Drain to ``until``; after a :class:`Boom`, drain on — the bucket
        it escaped from must resume exactly where it stopped."""
        while True:
            try:
                stopped = self.sched.drain(self.clock, until)
            except Boom as exc:
                self.check_index()
                self.log.append(("boom", exc.args[0], self.clock.now,
                                 self.sched.peek()))
                continue
            self.check_index()
            self.log.append(("stop", stopped, self.clock.now,
                             self.sched.peek()))
            return stopped


def dispatch(sched, initial, children=None, boom=(), quanta=(),
             outside=()) -> list[tuple]:
    """The log of ``initial`` — ``(when, priority)`` pairs pushed before
    the first drain — drained in bounded ``quanta``, then to the end.
    After quantum ``i`` the caller pushes ``outside[i]`` relative to the
    boundary, as a shard worker's inbox does between windows."""
    script = Script(sched, children, boom)
    for when, prio in initial:
        script.push(when, prio)
    for i, quantum in enumerate(quanta):
        script.drain(script.clock.now + quantum)
        for delay, prio in (outside[i] if i < len(outside) else ()):
            script.push(script.clock.now + delay, prio)
    script.drain()
    return script.log


def same_dispatch(initial, **script) -> list[tuple]:
    """``dispatch`` on the heap and on the calendar; they must agree."""
    heap = dispatch(HeapScheduler(), initial, **script)
    calendar = dispatch(CalendarScheduler(), initial, **script)
    assert calendar == heap
    return calendar


def fired(log: list[tuple]) -> list[tuple[float, int]]:
    """The dispatches of a log, without its boundaries."""
    return [entry for entry in log if entry[0] not in ("stop", "boom")]


# -- named corner cases -------------------------------------------------------
#: a same-tick URGENT pushed mid-bucket (higher seq) beats older NORMALs
SAME_TICK_URGENT = dict(initial=[(5.0, NORMAL), (5.0, NORMAL)],
                        children={0: [(0.0, URGENT)]})
#: an URGENT at a non-active future time (the escape hatch)
FUTURE_URGENT = dict(initial=[(10.0, NORMAL), (10.0, URGENT), (5.0, NORMAL)])
#: distinct timestamps, some a rounding step apart, pushed latest first
BUCKET_TIMES = [0.5, 1.0, 1.0000001, 31.9, 32.0, 33.5, 100.0, 1000.0]
BUCKET_EDGES = dict(initial=[(t, NORMAL) for t in reversed(BUCKET_TIMES)])
#: far-future timestamps only, pushed latest first
FAR_FUTURE = dict(initial=[(1e6 + i * 0.25, NORMAL)
                           for i in reversed(range(50))])
#: 37 distinct timestamps, each hit again and again out of order, URGENT
#: and NORMAL: every repeat must land in its bucket, not the heap
REPEATS = dict(initial=[((i * 7) % 37 * 0.125, (URGENT, NORMAL)[i % 3 > 0])
                        for i in range(111)])
#: a crash on the first of three same-tick NORMALs that has just pushed a
#: same-tick URGENT, resumed by an unbounded drain
CRASH_MID_BUCKET = dict(initial=[(1.0, NORMAL)] * 3,
                        children={0: [(0.0, URGENT), (2.0, NORMAL)]},
                        boom={0})
#: a crash on the last event of a bucket: nothing of it is left to resume,
#: so ``peek`` must already report the next timestamp
CRASH_LAST_IN_BUCKET = dict(initial=[(1.0, NORMAL), (1.0, NORMAL),
                                     (4.0, NORMAL)],
                            children={}, boom={1})
#: quanta that stop inside a cascade's future and re-fill from outside
QUANTA = dict(initial=[(0.0, URGENT), (1.0, NORMAL), (3.0, NORMAL)],
              children={1: [(0.5, NORMAL), (0.0, URGENT)]},
              quanta=[0.7, 0.7, 0.7, 5.0],
              outside=[[(0.0, URGENT), (0.2, NORMAL)], [], [(40.0, URGENT)]])

# -- strategies ---------------------------------------------------------------
PRIO = st.sampled_from([URGENT, NORMAL])
TIMES = st.one_of(
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False,
              allow_infinity=False),
    # same-timestamp collisions (the calendar's home turf) and far-future
    # times
    st.sampled_from([0.0, 1.0, 1.5, 2.0, 31.9, 32.0, 40.0, 1e6,
                     1e6 + 0.25]))
DELAYS = st.one_of(
    st.sampled_from([0.0, 0.0, 0.5, 1.0, 32.0, 1e6]),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False,
              allow_infinity=False))
INITIAL = st.lists(st.tuples(TIMES, PRIO), min_size=1, max_size=120)
CHILDREN = st.dictionaries(
    st.integers(min_value=0, max_value=160),
    st.lists(st.tuples(DELAYS, PRIO), min_size=1, max_size=3),
    max_size=40)
QUANTUM = st.floats(min_value=0.05, max_value=12.0, allow_nan=False)


@settings(max_examples=120, deadline=None)
@given(initial=INITIAL)
@example(**FUTURE_URGENT)
@example(**BUCKET_EDGES)
@example(**FAR_FUTURE)
@example(**REPEATS)
def test_drain_dispatch_identical(initial):
    """A schedule built before the drain dispatches identically."""
    same_dispatch(initial)


@settings(max_examples=120, deadline=None)
@given(initial=INITIAL, children=CHILDREN)
@example(**SAME_TICK_URGENT)
@example(initial=[(0.0, NORMAL)],
         children={0: [(1e6, URGENT), (0.0, NORMAL)], 2: [(0.0, URGENT)]})
def test_equivalent_under_mid_drain_pushes(initial, children):
    """Events that push from inside ``_process`` — same-tick cascades,
    future URGENTs, far-future times — dispatch identically."""
    same_dispatch(initial, children=children)


@settings(max_examples=100, deadline=None)
@given(initial=INITIAL, children=CHILDREN,
       quanta=st.lists(QUANTUM, max_size=8),
       outside=st.lists(st.lists(st.tuples(DELAYS, PRIO), max_size=3),
                        max_size=8))
@example(**QUANTA)
def test_bounded_quanta_identical(initial, children, quanta, outside):
    """``drain(until=...)`` stops at the same boundary with the same
    ``peek``, and resumes identically, with pushes between quanta."""
    same_dispatch(initial, children=children, quanta=quanta,
                  outside=outside)


@settings(max_examples=100, deadline=None)
@given(initial=INITIAL, children=CHILDREN,
       boom=st.sets(st.integers(min_value=0, max_value=200), max_size=12),
       quanta=st.lists(QUANTUM, max_size=4))
@example(**CRASH_MID_BUCKET, quanta=[])
@example(**CRASH_LAST_IN_BUCKET, quanta=[])
@example(initial=[(1.0, NORMAL)] * 2, children={1: [(0.0, URGENT)]},
         boom={1, 2}, quanta=[0.5])
def test_crash_mid_bucket_then_resume_identical(initial, children, boom,
                                                quanta):
    """An exception escaping mid-bucket leaves the same ``peek`` and the
    same remaining dispatch order on both schedulers."""
    same_dispatch(initial, children=children, boom=boom, quanta=quanta)
