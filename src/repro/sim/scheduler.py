"""Event schedulers for the DES engine: binary heap and calendar queue.

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

**CalendarScheduler** (what every run uses) is a calendar queue with a
ladder-style overflow rung, specialised for the traffic LogGP models
generate: dense bursts of events at *identical* timestamps (every
commit/notification/ack hook of one transfer lands on the same
microsecond).  It is two-level:

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

* The top level indexes *distinct* timestamps into a calendar: an array
  of ``nslots`` buckets each covering ``width`` microseconds starting at
  ``base``.  A slot's timestamp list stays unsorted until the drain
  reaches it (one sort per slot, on mostly-small lists); timestamps
  beyond the calendar horizon fall into an unsorted overflow rung (the
  "ladder top").  When the year is exhausted the calendar **rebuilds**
  from the overflow: ``base`` becomes the earliest pending timestamp,
  ``width`` the mean gap between pending timestamps, and ``nslots`` the
  next power of two at or above their count (clamped to
  [``_MIN_SLOTS``, ``_MAX_SLOTS``]) — so the steady state is O(1)
  amortised per distinct timestamp.  A rebuild is also triggered while
  pushing, when the pending-timestamp count outgrows ``2 * nslots``.

Ordering proof sketch for the calendar: (1) across timestamps, every
pending time lives in exactly one of {sorted bottom list, a calendar
slot, overflow}; slot index is monotone in time and each slot is sorted
before consumption, so timestamps pop in ascending order.  (2) within a
timestamp, the URGENT-first re-checking drain above reproduces
``(priority, seq)`` order.  (1) + (2) compose to the full ``(time,
priority, seq)`` contract, which the hypothesis tests in
``tests/test_property_scheduler.py`` check against the heap by comparing
the dispatch sequences of ``drain``.

The calendar scheduler only supports the engine's two priorities
(``URGENT == 0``, ``NORMAL == 1``); the heap accepts arbitrary ints.
``peek`` is exact outside ``drain``; while ``drain`` is mid-bucket it
conservatively reports the bucket as still pending.
"""

from __future__ import annotations

from bisect import insort
from heapq import heappop, heappush
from typing import Any

from repro.errors import SimulationError

#: Events scheduled with URGENT priority fire before NORMAL ones at equal
#: time.  These are the canonical definitions; ``repro.sim.engine``
#: re-exports them.
URGENT = 0
NORMAL = 1

_INF = float("inf")

#: calendar geometry bounds (slots are cheap: one empty list each)
_MIN_SLOTS = 32
_MAX_SLOTS = 65536


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
    """Calendar queue over distinct timestamps with same-tick FIFO buckets.

    See the module docstring for the design and the ordering argument.
    """

    name = "calendar"

    __slots__ = ("_seq", "_times", "_tget", "_slots", "_base", "_width",
                 "_nslots", "_cur_slot", "_cur", "_pos", "_over",
                 "_awhen", "_an", "_au", "_fu")

    def __init__(self) -> None:
        self._seq = 0
        #: timestamp -> [normal events]; append order within a list is
        #: schedule-seq order (the counter is monotone).  The dict itself is
        #: never reassigned, so its bound ``get`` can be cached.
        self._times: dict[float, list] = {}
        self._tget = self._times.get
        self._nslots = _MIN_SLOTS
        self._slots: list[list[float]] = [[] for _ in range(_MIN_SLOTS)]
        self._base = 0.0
        self._width = 1.0
        self._cur_slot = -1          # slot currently mirrored by the bottom
        self._cur: list[float] = []  # sorted due timestamps (bottom rung)
        self._pos = 0                # consumption pointer into _cur
        self._over: list[float] = []  # beyond-horizon timestamps (ladder top)
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
            self._times[when] = [event]
            # Inlined _place(): this runs once per distinct timestamp and
            # the call frame is measurable at fig1 rates.
            idx = int((when - self._base) / self._width)
            if idx <= self._cur_slot:
                # Due in the active slot (or earlier, after float
                # truncation): keep the bottom rung sorted.  Everything
                # before ``_pos`` has been consumed and is <= now <= when,
                # so inserting from ``_pos`` preserves order.
                insort(self._cur, when, lo=self._pos)
            elif idx < self._nslots:
                self._slots[idx].append(when)
            else:
                self._over.append(when)
            if len(self._times) > (self._nslots << 1) \
                    and self._nslots < _MAX_SLOTS:
                self._rebuild()
        elif prio == 0:
            if when == self._awhen:
                self._au.append(event)
                return
            f = self._fu.get(when)
            if f is not None:
                f.append(event)
                return
            self._fu[when] = [event]
            if when not in self._times:
                # Keep the time index single: an urgent-only timestamp
                # still owns a (empty) normal bucket and a calendar entry.
                self._times[when] = []
                self._place(when)
        else:
            raise SimulationError(
                f"calendar scheduler supports only URGENT/NORMAL "
                f"priorities, got {prio!r}")

    def _place(self, when: float) -> None:
        """Index a newly pending timestamp into the calendar."""
        idx = int((when - self._base) / self._width)
        if idx <= self._cur_slot:
            insort(self._cur, when, lo=self._pos)
        elif idx < self._nslots:
            self._slots[idx].append(when)
        else:
            self._over.append(when)
        if len(self._times) > (self._nslots << 1) \
                and self._nslots < _MAX_SLOTS:
            self._rebuild()

    def _rebuild(self) -> None:
        """Re-seed the calendar from every pending timestamp.

        Runs when the year is exhausted (all remaining timestamps sit in
        the overflow rung) and when the pending-timestamp population
        outgrows the slot array.  Geometry follows the classic calendar
        queue: width = mean gap, nslots = next power of two >= count.
        """
        times = self._cur[self._pos:]
        for j in range(self._cur_slot + 1, self._nslots):
            times.extend(self._slots[j])
        times.extend(self._over)
        d = len(times)
        self._cur = []
        self._pos = 0
        self._cur_slot = -1
        self._over = []
        if d == 0:
            # Nothing pending: keep the old geometry.  A stale ``base`` is
            # self-healing — far-future indexes land in the overflow rung
            # and the next exhausted-year rebuild recomputes everything.
            self._slots = [[] for _ in range(self._nslots)]
            return
        times.sort()
        base = times[0]
        span = times[-1] - base
        nslots = 1 << max(d - 1, 1).bit_length()
        if nslots < _MIN_SLOTS:
            nslots = _MIN_SLOTS
        elif nslots > _MAX_SLOTS:
            nslots = _MAX_SLOTS
        width = (span / d) if span > 0.0 else 1.0
        self._base = base
        self._width = width
        self._nslots = nslots
        slots: list[list[float]] = [[] for _ in range(nslots)]
        last = nslots - 1
        for t in times:
            idx = int((t - base) / width)
            if idx > last:
                # ``span/width == d <= nslots`` so only float-rounding edges
                # land here; clamping is monotone, so order is preserved.
                idx = last
            slots[idx].append(t)
        self._slots = slots

    # -- consumption --------------------------------------------------------
    def _advance(self) -> float | None:
        """Consume and return the next pending timestamp, or None."""
        pos = self._pos
        cur = self._cur
        if pos < len(cur):
            self._pos = pos + 1
            return cur[pos]
        if not self._times:
            return None
        while True:
            slots = self._slots
            j = self._cur_slot + 1
            n = self._nslots
            while j < n:
                lst = slots[j]
                if lst:
                    lst.sort()
                    self._cur = lst
                    self._pos = 1
                    self._cur_slot = j
                    return lst[0]
                j += 1
            # Year exhausted: everything pending is in the overflow rung.
            if not self._over:
                raise SimulationError(
                    "calendar scheduler index lost a pending timestamp "
                    "(internal invariant violation)")
            self._cur_slot = n
            self._rebuild()

    def peek(self) -> float:
        if self._awhen is not None and (self._au or self._an):
            return self._awhen
        if self._pos < len(self._cur):
            return self._cur[self._pos]
        for j in range(self._cur_slot + 1, self._nslots):
            lst = self._slots[j]
            if lst:
                return min(lst)
        if self._over:
            return min(self._over)
        return _INF

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
        ``peek`` reports its time meanwhile.
        """
        times = self._times
        au = self._au
        fu = self._fu
        # A bucket an exception left behind: its time is <= engine.now <=
        # until, so it resumes without a boundary check.
        when = self._awhen
        while True:
            if when is None:
                # Inlined bottom-rung advance (one frame per bucket saved).
                cur = self._cur
                pos = self._pos
                if pos < len(cur):
                    when = cur[pos]
                    self._pos = pos + 1
                else:
                    when = self._advance()
                    if when is None:
                        return False
                if until is not None and when > until:
                    self._pos -= 1      # un-consume: stays at _cur[_pos]
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
                raise
            # Drop the exhausted bucket: au is exhausted-and-cleared by the
            # loop above and the drain cursors are locals, so this is just
            # the dict delete (``_an`` may go stale; every reader checks
            # ``_awhen`` first).
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
