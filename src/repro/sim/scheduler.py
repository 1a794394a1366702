"""Event schedulers for the DES engine: binary heap and bucket queue.

The engine's ordering contract (docs/architecture.md §9) is that events
fire in ``(time, priority, schedule-sequence)`` order.  Both schedulers
here implement that contract exactly, behind the same three calls —
``push``, ``peek`` and ``drain`` — and the engine consumes events only
through ``drain``.

**HeapScheduler** is the classic binary heap of ``(time, prio, seq,
event)`` tuples: O(log n) per operation, with heapq doing the work in C.
It is the reference the calendar queue is checked against —
``Engine(scheduler="heap")`` selects it for tests and probes, and the
bench-smoke gate runs whole experiments on both and requires
byte-identical tables and event counts.

**CalendarScheduler** (what every run uses) is specialised for the
traffic LogGP models generate: dense bursts of events at *identical*
timestamps (every commit/notification/ack hook of one transfer lands on
the same microsecond).  It is two-level:

* The bottom level is a dict mapping each pending **timestamp** to a
  FIFO list of its NORMAL-priority events.  Because the
  schedule-sequence counter is monotone, append order *is* seq order at
  that time — pushing at an already-pending timestamp is one dict probe
  plus one list append, with no tuple allocation and no heap sift.
  URGENT events are kept out of these lists entirely: in practice they
  are only ever scheduled *at the current time* (process kick-off,
  already-fired resume relays, process completion, condition triggers),
  so they go to a single active-tick side list, with a rarely-used
  ``{timestamp: [events]}`` escape hatch for a future-time URGENT.
  Draining a timestamp walks the URGENT side list, then the NORMAL
  list, re-checking URGENT after every event: a newly pushed same-time
  URGENT entry (higher seq) must fire before older NORMAL entries
  (lower seq), exactly as the heap orders ``(t, 0, big-seq) <
  (t, 1, small-seq)``.  Both walks use plain list iterators, which by
  definition pick up elements appended mid-iteration — the same-tick
  cascade costs no re-scan.

* The top level is a ``heapq`` of the *distinct* pending timestamps,
  one entry per key of the bucket dict: a new timestamp costs one C
  ``heappush`` of a float, a drained bucket one ``heappop``, and
  ``peek`` is ``heap[0]``.  A bucket's time stays at the heap's root
  while it drains (nothing is ever scheduled before the current tick),
  so it leaves the heap and the dict together.

Ordering proof sketch: (1) across timestamps, the heap holds every
pending time exactly once and its root is the minimum, so buckets drain
in ascending time.  (2) within a timestamp, the URGENT-first re-checking
drain above reproduces ``(priority, seq)`` order.  (1) + (2) compose to
the full ``(time, priority, seq)`` contract, which the hypothesis tests
in ``tests/test_property_scheduler.py`` check against the heap by
comparing the dispatch sequences of ``drain``.

The calendar scheduler only supports the engine's two priorities
(``URGENT == 0``, ``NORMAL == 1``); the heap accepts arbitrary ints.
Both refuse a non-finite time with a :class:`SimulationError`: a NaN
would corrupt either heap's order and ``inf`` is ``peek``'s "nothing
scheduled".  ``peek`` is exact between drains; while ``drain`` is
mid-bucket it reports the bucket as still pending.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any

from repro.errors import SimulationError

#: Events scheduled with URGENT priority fire before NORMAL ones at equal
#: time.  These are the canonical definitions; ``repro.sim.engine``
#: re-exports them.
URGENT = 0
NORMAL = 1

_INF = float("inf")


def _non_finite(when: float, event: Any) -> SimulationError:
    return SimulationError(
        f"cannot schedule {event!r} at non-finite time {when!r}")


class HeapScheduler:
    """The classic binary-heap event list (``heapq`` of 4-tuples)."""

    name = "heap"

    __slots__ = ("_q", "_seq")

    def __init__(self) -> None:
        self._q: list[tuple[float, int, int, Any]] = []
        self._seq = 0

    # -- scheduling ---------------------------------------------------------
    def push(self, when: float, prio: int, event: Any) -> None:
        self._seq = seq = self._seq + 1
        if when - when:                 # nan or ±inf
            raise _non_finite(when, event)
        heappush(self._q, (when, prio, seq, event))

    def peek(self) -> float:
        q = self._q
        return q[0][0] if q else _INF

    # -- run loop -----------------------------------------------------------
    def drain(self, engine, until: float | None) -> bool:
        """Process events until empty or past ``until``.

        Returns True if stopped at the ``until`` boundary (events remain),
        False if the queue fully drained.  Advances ``engine.now`` and
        raises through :meth:`Engine._raise_crash` on a process crash.
        """
        q = self._q
        pop = heappop
        if until is None:
            while q:
                when, _prio, _seq, event = pop(q)
                engine.now = when
                event._process()
                if engine._crashed is not None:
                    engine._raise_crash()
            return False
        while q:
            if q[0][0] > until:
                engine.now = until
                return True
            when, _prio, _seq, event = pop(q)
            engine.now = when
            event._process()
            if engine._crashed is not None:
                engine._raise_crash()
        return False


class CalendarScheduler:
    """Same-tick FIFO buckets under a heap of distinct timestamps.

    See the module docstring for the design and the ordering argument.
    """

    name = "calendar"

    __slots__ = ("_seq", "_times", "_tget", "_heap", "_awhen", "_an",
                 "_au", "_fu")

    def __init__(self) -> None:
        self._seq = 0
        #: timestamp -> [normal events]; append order within a list is
        #: schedule-seq order (the counter is monotone).  The dict itself is
        #: never reassigned, so its bound ``get`` can be cached.
        self._times: dict[float, list] = {}
        self._tget = self._times.get
        #: the keys of ``_times``, once each, as a heap
        self._heap: list[float] = []
        #: the bucket being drained: its timestamp (or None), its normal
        #: list, and the persistent active-tick URGENT side list.
        self._awhen: float | None = None
        self._an: list | None = None
        self._au: list = []
        #: rare escape hatch: URGENT events at a non-active future time
        self._fu: dict[float, list] = {}

    # -- scheduling ---------------------------------------------------------
    def push(self, when: float, prio: int, event: Any) -> None:
        self._seq += 1
        if prio == 1:
            if when == self._awhen:
                # Zero-delay cascade into the bucket being drained (the
                # succeed()/hook storm of the current tick): skip the dict
                # probe, the live list is at hand.
                self._an.append(event)
                return
            b = self._tget(when)
            if b is not None:
                b.append(event)
                return
            if when - when:             # nan or ±inf
                raise _non_finite(when, event)
            self._times[when] = [event]
            heappush(self._heap, when)
        elif prio == 0:
            if when == self._awhen:
                self._au.append(event)
                return
            f = self._fu.get(when)
            if f is not None:
                f.append(event)
                return
            if when not in self._times:
                # Keep the time index single: an urgent-only timestamp
                # still owns a (empty) normal bucket and a heap entry.
                if when - when:
                    raise _non_finite(when, event)
                self._times[when] = []
                heappush(self._heap, when)
            self._fu[when] = [event]
        else:
            raise SimulationError(
                f"calendar scheduler supports only URGENT/NORMAL "
                f"priorities, got {prio!r}")

    def peek(self) -> float:
        heap = self._heap
        return heap[0] if heap else _INF

    # -- run loop -----------------------------------------------------------
    def drain(self, engine, until: float | None) -> bool:
        """Batch-drain whole timestamp buckets (see HeapScheduler.drain).

        This is the same-tick batch commit: all events at one timestamp —
        typically a burst of transport-completion hooks plus the relay
        cascade they trigger — are dispatched by iterating two lists, with
        no per-event scheduler transaction.  List iterators see elements
        appended mid-iteration, so same-tick pushes land in the live bucket
        and are dispatched in the same pass; the URGENT side list is checked
        after every event so a fresh URGENT still preempts older NORMALs.
        Consumed-prefix counters live in locals and prune the lists if an
        exception (a crash escalation, a sanitizer race) escapes, leaving
        the bucket exactly resumable: the next drain starts with it, and
        ``peek`` reports its time meanwhile — or, if nothing of it is
        left, the bucket is closed so ``peek`` moves on.
        """
        times = self._times
        heap = self._heap
        au = self._au
        fu = self._fu
        # A bucket an exception left behind: its time is <= engine.now <=
        # until, so it resumes without a boundary check.
        when = self._awhen
        while True:
            if when is None:
                if not heap:
                    return False
                when = heap[0]
                if until is not None and when > until:
                    engine.now = until
                    return True
                # Activate the bucket.  au is empty between buckets and
                # everything in fu[when] was pushed before activation, so
                # the escape-hatch merge preserves seq order.
                self._awhen = when
                self._an = times[when]
                if fu:
                    f = fu.pop(when, None)
                    if f:
                        au.extend(f)
            n = self._an
            engine.now = when
            ui = 0
            ni = 0
            try:
                if au:
                    for event in au:
                        ui += 1
                        event._process()
                        if engine._crashed is not None:
                            engine._raise_crash()
                    au.clear()
                    ui = 0
                for event in n:
                    ni += 1
                    event._process()
                    if engine._crashed is not None:
                        engine._raise_crash()
                    if au:
                        for ev in au:
                            ui += 1
                            ev._process()
                            if engine._crashed is not None:
                                engine._raise_crash()
                        au.clear()
                        ui = 0
            except BaseException:
                if ui:
                    del au[:ui]
                if ni:
                    del n[:ni]
                if not (au or n):
                    heappop(heap)
                    del times[when]
                    self._awhen = None
                raise
            # Drop the exhausted bucket: au is exhausted-and-cleared by the
            # loop above and the drain cursors are locals, so this is the
            # heap pop and the dict delete (``_an`` may go stale; every
            # reader checks ``_awhen`` first).
            heappop(heap)
            del times[when]
            self._awhen = None
            when = None


#: registry for Engine(scheduler=...)
SCHEDULERS = {
    "heap": HeapScheduler,
    "calendar": CalendarScheduler,
}

#: what ``Engine()`` builds.  Only the bench-smoke gate re-points it, for
#: the length of one whole-experiment leg of its calendar ≡ heap matrix.
_DEFAULT = "calendar"


def scheduler_name(name: str | None = None) -> str:
    """Resolve a scheduler name: explicit arg, else the default."""
    name = name or _DEFAULT
    if name not in SCHEDULERS:
        raise SimulationError(
            f"unknown scheduler {name!r}; available: {sorted(SCHEDULERS)}")
    return name


def make_scheduler(name: str | None = None):
    """Build the scheduler selected by ``name`` (default: the calendar)."""
    return SCHEDULERS[scheduler_name(name)]()
