"""Completion queues and 32-bit immediate-value encoding.

uGNI lets an access carry a 4-byte immediate that is returned in a completion
queue at the destination.  Like foMPI-NA we pack the source rank in the high
16 bits and the tag in the low 16 bits — this is where the paper's limit on
significant tag bits comes from, and the library enforces it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import NetworkError
from repro.sim.engine import Engine
from repro.sim.resources import Signal

#: consumed slots a completion queue keeps before it cuts its list back
_CUT_BACK = 64

#: Maximum encodable rank / tag (16 bits each inside the 32-bit immediate).
MAX_IMM_RANK = 0xFFFF
MAX_IMM_TAG = 0xFFFF


def encode_immediate(source: int, tag: int) -> int:
    """Pack (source, tag) into a 32-bit immediate, like foMPI-NA on uGNI."""
    if not 0 <= source <= MAX_IMM_RANK:
        raise NetworkError(f"source rank {source} exceeds 16-bit immediate")
    if not 0 <= tag <= MAX_IMM_TAG:
        raise NetworkError(
            f"tag {tag} exceeds the {MAX_IMM_TAG:#x} significant tag bits "
            "supported by the 32-bit immediate")
    return (source << 16) | tag


def decode_immediate(imm: int) -> tuple[int, int]:
    """Unpack a 32-bit immediate into (source, tag)."""
    return (imm >> 16) & 0xFFFF, imm & 0xFFFF


@dataclass(slots=True)
class CqEntry:
    """One completion-queue entry.

    ``kind`` is ``"put"``, ``"get"``, ``"amo"``, or ``"ctrl"``.  For
    destination-CQ entries, ``immediate`` carries the packed (source, tag)
    and ``win_id`` names the exposed window the access targeted.  ``inline``
    carries the payload for shared-memory inline transfers.
    """

    kind: str
    source: int
    target: int
    nbytes: int
    time: float
    immediate: int | None = None
    win_id: int | None = None
    target_addr: int | None = None
    inline: Any | None = None     # numpy payload for shm inline transfer
    san: Any | None = None        # originating op's sanitizer clock


class CompletionQueue:
    """A FIFO of :class:`CqEntry` with an arrival signal.

    Bounded if ``capacity`` is given — posting to a full bounded CQ raises,
    modelling the overrun failure mode of real hardware CQs (the paper's
    shared-memory ring is bounded; §IV-C).  Queues that one waiter drains
    together share one ``arrival`` signal (a NIC's CQ and shm ring).

    The entries are a list read from a head index: an empty queue holds no
    storage, a short one a few slots (a deque block is 64), and a drained
    or half-consumed list is cut back, so a poll stays O(1) amortized
    (docs/architecture.md §9).
    """

    __slots__ = ("engine", "name", "capacity", "_entries", "_head",
                 "arrival")

    def __init__(self, engine: Engine, name: str = "",
                 capacity: int | None = None,
                 arrival: Signal | None = None):
        self.engine = engine
        self.name = name
        self.capacity = capacity
        #: ``_entries[_head:]`` are queued, oldest first
        self._entries: list[CqEntry | None] = []
        self._head = 0
        self.arrival = arrival or Signal(engine)

    def __len__(self) -> int:
        return len(self._entries) - self._head

    def post(self, entry: CqEntry) -> None:
        entries = self._entries
        if (self.capacity is not None
                and len(entries) - self._head >= self.capacity):
            raise NetworkError(
                f"completion queue {self.name!r} overrun "
                f"(capacity {self.capacity})")
        entries.append(entry)
        self.arrival.fire(entry)

    def poll(self) -> CqEntry | None:
        """Pop the oldest entry, or None if empty (non-blocking)."""
        entries = self._entries
        head = self._head
        if head == len(entries):
            return None
        entry = entries[head]
        head += 1
        if head == len(entries):
            entries.clear()
            head = 0
        else:
            entries[head - 1] = None
            if head >= _CUT_BACK and 2 * head >= len(entries):
                del entries[:head]
                head = 0
        self._head = head
        return entry

    def wait_arrival(self):
        """Event that fires at the next post (yield it from a process)."""
        return self.arrival.wait()

    def drain(self) -> list[CqEntry]:
        out = self._entries[self._head:]
        self._entries.clear()
        self._head = 0
        return out
