"""The Unexpected Queue (UQ) and notification matching (§IV-B).

Notifications polled off the hardware CQs that do not match the querying
request are appended to a single per-rank UQ, preserving arrival order.
The UQ is backed by a ring of 64-byte slots in the rank's address space;
the head pointer lives on the same cache line as the first slot, which is
what bounds a cold lookup to one miss for the queue (plus one for the
request structure) — the paper's two-compulsory-miss argument.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import islice

import numpy as np

from repro.errors import MatchingError
from repro.memory.address import Region
from repro.memory.cache import CACHE_LINE, CacheModel
from repro.mpi.constants import ANY_SOURCE, ANY_TAG, wildcard_match

#: default UQ capacity in entries
UQ_SLOTS = 512

#: below this many queued entries a scalar scan beats the numpy setup cost
_VECTOR_MIN = 16


@dataclass(slots=True)
class UqEntry:
    """One queued notification."""

    win_id: int
    source: int
    tag: int
    nbytes: int
    time: float
    slot_addr: int
    #: originating op's sanitizer clock (carried from the CQ entry)
    san: object = None


class UnexpectedQueue:
    """Arrival-ordered notification queue with cache accounting."""

    __slots__ = ("region", "cache", "slots", "_entries", "_cols", "_win",
                 "_src", "_tag", "_fresh", "_freed", "appended", "matched")

    def __init__(self, region: Region, cache: CacheModel,
                 slots: int = UQ_SLOTS):
        need = slots * CACHE_LINE
        if region.nbytes < need:
            raise MatchingError(
                f"UQ region of {region.nbytes} B too small for "
                f"{slots} slots")
        self.region = region
        self.cache = cache
        self.slots = slots
        self._entries: list[UqEntry] = []
        # Mirror columns of (win_id, source, tag) kept index-aligned with
        # ``_entries`` so a lookup can compare the whole queue in one
        # vectorized pass instead of a Python loop per entry — the §V
        # high-fan-in case queues thousands of wildcard notifications.
        # Below ``_VECTOR_MIN`` entries nothing reads them, so they are
        # built when the queue first reaches that depth (most never do)
        # and double on demand up to ``slots``.
        self._cols: np.ndarray | None = None
        self._win = self._src = self._tag = self._cols
        # Free slots, lowest index first (keeps the layout compact): every
        # slot at or above ``_fresh`` has never been handed out, every
        # free slot below it sits in the ``_freed`` heap.  Not a rotating
        # cursor: entries are removed in match order, not FIFO order, so
        # after wraparound a cursor would hand a live entry's slot to a
        # new one and corrupt the per-slot cache accounting.
        self._fresh = 0
        self._freed: list[int] = []
        self.appended = 0
        self.matched = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def head_addr(self) -> int:
        """The head pointer shares the cache line of slot 0 (§V)."""
        return self.region.addr

    def append(self, win_id: int, source: int, tag: int, nbytes: int,
               time: float, san: object = None) -> UqEntry:
        if self._freed:
            slot = heapq.heappop(self._freed)
        elif self._fresh < self.slots:
            slot = self._fresh
            self._fresh += 1
        else:
            raise MatchingError(
                f"unexpected queue overflow ({self.slots} slots)")
        slot_addr = self.region.addr + slot * CACHE_LINE
        entry = UqEntry(win_id, source, tag, nbytes, time, slot_addr,
                        san=san)
        n = len(self._entries)
        self._entries.append(entry)
        if self._cols is not None:
            if n == len(self._win):
                self._grow(n)
            self._win[n] = win_id
            self._src[n] = source
            self._tag[n] = tag
        elif n + 1 == _VECTOR_MIN:
            self._cols = np.array([(e.win_id, e.source, e.tag)
                                   for e in self._entries],
                                  dtype=np.int64).T.copy()
            self._win, self._src, self._tag = self._cols
        self.appended += 1
        self.cache.touch(slot_addr, CACHE_LINE, label="na-uq-append")
        return entry

    def _grow(self, n: int) -> None:
        """Double the mirror columns (all ``n`` of them in use)."""
        cols = np.empty((3, min(2 * n, self.slots)), dtype=np.int64)
        cols[:, :n] = self._cols
        self._cols = cols
        self._win, self._src, self._tag = cols

    def _index(self, win_id: int, source: int, tag: int) -> int:
        """Index of the oldest entry a request for the triple matches, or
        -1: a scalar scan of a short queue, else :meth:`_first_match`."""
        entries = self._entries
        if len(entries) >= _VECTOR_MIN:
            return self._first_match(win_id, source, tag)
        for i, e in enumerate(entries):
            if e.win_id == win_id and wildcard_match(source, tag, e.source,
                                                     e.tag):
                return i
        return -1

    def _first_match(self, win_id: int, source: int, tag: int) -> int:
        """:meth:`_index` as one vectorized compare over the mirror
        columns: the matching rule evaluated for the whole queue at once."""
        n = len(self._entries)
        mask = self._win[:n] == win_id
        if source != ANY_SOURCE:
            mask &= self._src[:n] == source
        if tag != ANY_TAG:
            mask &= self._tag[:n] == tag
        hits = np.flatnonzero(mask)
        return int(hits[0]) if hits.size else -1

    def _remove_at(self, idx: int) -> UqEntry:
        entries = self._entries
        entry = entries.pop(idx)
        n = len(entries)
        if idx < n and self._cols is not None:
            # Close the gap in the mirror columns (numpy buffers
            # overlapping slice assignment, so in-place shift is safe).
            cols = self._cols
            cols[:, idx:n] = cols[:, idx + 1:n + 1]
        self.matched += 1
        heapq.heappush(
            self._freed,
            (entry.slot_addr - self.region.addr) // CACHE_LINE)
        return entry

    def find_and_remove(self, req) -> UqEntry | None:
        """Oldest entry matching ``req``; touches scanned lines."""
        # Touching the head (pointer + first slots) is the one compulsory
        # queue miss; scanning further entries touches their slots.
        self.cache.touch(self.head_addr, 8, label="na-uq-head")
        entries = self._entries
        if not entries:
            return None
        idx = self._index(req.win.id, req.source, req.tag)
        # The scan reads every slot up to and including the match (or the
        # whole queue on a miss), in arrival order: one cache call.
        stop = idx + 1 if idx >= 0 else len(entries)
        self.cache.touch_each([e.slot_addr for e in islice(entries, stop)],
                              CACHE_LINE, label="na-uq-scan")
        if idx < 0:
            return None
        return self._remove_at(idx)

    def peek_match(self, win_id: int, source: int,
                   tag: int) -> UqEntry | None:
        """Probe-style lookup without consuming (no cache charging)."""
        idx = self._index(win_id, source, tag)
        return self._entries[idx] if idx >= 0 else None
