"""The vector-clock happens-before tracker.

Actors
------
Each rank is an actor; in addition every remote operation (put, get,
accumulate, notified flush) becomes a fresh actor the moment it is issued:
the NIC commits it asynchronously, so it is ordered after the origin's past
but *not* before the origin's future.  The operation's clock is the
origin's released clock plus its own component.

Edges
-----
* issue: op clock := release(origin)
* in-order channel (shm / FMA): at commit, the op joins the channel clock
  and becomes the new channel clock — a later op on the same
  (origin, target, channel) carries every earlier one.
* notification match / counter wait / flush / fence / send-recv match:
  the waiting rank joins the matched operation's (or packet's) clock.
* AMO: the op joins the target location's clock and becomes its new value,
  so lock/unlock chains through a lock word transfer happens-before.

Conflicting shadow accesses with no such path raise
:class:`repro.errors.RaceError`.
"""

from __future__ import annotations

import itertools
import sys
from collections.abc import Iterable

from repro.errors import RaceError
from repro.sanitizer.clocks import join_into
from repro.sanitizer.shadow import (ATOMIC, READ, WRITE,  # noqa: F401
                                    Access, Shadow)


def _short(path: str) -> str:
    parts = path.replace("\\", "/").split("/")
    return "/".join(parts[-3:]) if len(parts) > 3 else path


def call_site(skip: int = 1) -> str | None:
    """First caller frame outside the library (apps count as user code)."""
    try:
        frame = sys._getframe(skip + 1)
    except ValueError:  # pragma: no cover - shallow stack
        return None
    while frame is not None:
        fn = frame.f_code.co_filename.replace("\\", "/")
        if "/repro/" not in fn or "/repro/apps/" in fn:
            return f"{_short(fn)}:{frame.f_lineno} ({frame.f_code.co_name})"
        frame = frame.f_back
    return None


class OpClock:
    """Clock state of one in-flight remote operation."""

    __slots__ = ("actor", "vc", "site")

    def __init__(self, actor: int, vc: dict[int, int],
                 site: str | None):
        self.actor = actor
        self.vc = vc
        self.site = site


class Sanitizer:
    """Happens-before tracker shared by one cluster."""

    def __init__(self, engine, nranks: int, tracer=None):
        self.engine = engine
        self.nranks = nranks
        self.tracer = tracer
        self._vc: list[dict[int, int]] = [{r: 1} for r in range(nranks)]
        self._tick: list[int] = [1] * nranks
        self._ids = itertools.count(nranks)
        self.shadows: list[Shadow] = [Shadow() for _ in range(nranks)]
        #: last-committed-op clock per (rank, addr); feeds AMO chains and
        #: the explicit polling annotation (``Rank.san_acquire_at``).
        self._loc: dict[tuple[int, int], dict[int, int]] = {}
        #: in-order delivery clock per (origin, target, channel name)
        self._chan: dict[tuple[int, int, str], dict[int, int]] = {}

    # -- clock plumbing -----------------------------------------------------
    def release(self, rank: int) -> dict[int, int]:
        """Snapshot ``rank``'s clock and advance its own component."""
        snap = dict(self._vc[rank])
        self._tick[rank] += 1
        self._vc[rank][rank] = self._tick[rank]
        return snap

    def acquire(self, rank: int,
                vc: dict[int, int] | None) -> None:
        if vc:
            join_into(self._vc[rank], vc)

    def acquire_op(self, rank: int, op: OpClock | None) -> None:
        if op is not None:
            join_into(self._vc[rank], op.vc)

    def acquire_many(self, rank: int,
                     clocks: Iterable[dict[int, int] | None]) -> None:
        for vc in clocks:
            if vc:
                join_into(self._vc[rank], vc)

    def acquire_loc(self, rank: int, owner: int, addr: int) -> None:
        """Join the clock of the last op committed at ``(owner, addr)``.

        The blessing for polling protocols: after observing a flag value,
        the observer is ordered after the operation that stored it (and,
        through channel/flush edges, after the data it guards).
        """
        vc = self._loc.get((owner, addr))
        if vc:
            join_into(self._vc[rank], vc)

    # -- operation lifecycle ------------------------------------------------
    def op_begin(self, origin: int,
                 site: str | None = None) -> OpClock:
        vc = self.release(origin)
        actor = next(self._ids)
        vc[actor] = 1
        return OpClock(actor, vc, site if site is not None else call_site())

    def op_child(self, parent: OpClock) -> OpClock:
        """A dependent second leg (e.g. the local delivery of a get)."""
        vc = dict(parent.vc)
        actor = next(self._ids)
        vc[actor] = 1
        return OpClock(actor, vc, parent.site)

    def op_commit(self, op: OpClock, origin: int, target: int, addr: int,
                  nbytes: int, kind: int = WRITE, chan: str | None = None,
                  record: bool = True) -> None:
        """The op's data is visible at ``target``: finalize its clock and
        record its byte range in the target shadow."""
        if chan is not None:
            key = (origin, target, chan)
            prev = self._chan.get(key)
            if prev:
                join_into(op.vc, prev)
            self._chan[key] = op.vc
        if not nbytes:
            return
        self._loc[(target, addr)] = op.vc
        if record:
            self._record(target, Access(
                kind, target, addr, nbytes, op.actor, 1,
                self.engine.now, op.site), op.vc)

    def amo_commit(self, op: OpClock, origin: int, target: int,
                   addr: int, nbytes: int) -> None:
        """An atomic executes at the target: acquire-then-store the
        location clock so AMO chains (locks, counters) carry edges."""
        prev = self._loc.get((target, addr))
        if prev:
            join_into(op.vc, prev)
        self._loc[(target, addr)] = op.vc
        self._record(target, Access(
            ATOMIC, target, addr, nbytes, op.actor, 1,
            self.engine.now, op.site), op.vc)

    # -- CPU-side accesses --------------------------------------------------
    def cpu_access(self, rank: int, addr: int, nbytes: int,
                   kind: int, site: str | None = None) -> None:
        if not nbytes:
            return
        self._record(rank, Access(
            kind, rank, addr, nbytes, rank, self._tick[rank],
            self.engine.now, site if site is not None else call_site()),
            self._vc[rank])

    # -- conflict reporting -------------------------------------------------
    def _record(self, rank: int, rec: Access,
                vc: dict[int, int]) -> None:
        prev = self.shadows[rank].record(rec, vc)
        if prev is None:
            return
        if self.tracer is not None:
            self.tracer.emit(self.engine.now, "race", rec.rank, prev.rank,
                             rec.nbytes, prev_site=prev.site,
                             cur_site=rec.site, addr=rec.addr)
        raise RaceError(prev, rec, (
            "data race on rank %d memory:\n"
            "  previous: %s\n"
            "  current:  %s\n"
            "  no happens-before edge orders actor %s before actor %s "
            "(missing notification match, counter wait, flush, or fence "
            "between them)" % (rank, prev.describe(), rec.describe(),
                               prev.actor, rec.actor)))
