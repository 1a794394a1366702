"""Completion queues and 32-bit immediate-value encoding.

uGNI lets an access carry a 4-byte immediate that is returned in a completion
queue at the destination.  Like foMPI-NA we pack the source rank in the high
16 bits and the tag in the low 16 bits — this is where the paper's limit on
significant tag bits comes from, and the library enforces it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any

from repro.errors import NetworkError
from repro.sim.engine import Engine
from repro.sim.resources import Signal

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
    shared-memory ring is bounded; §IV-C).
    """

    def __init__(self, engine: Engine, name: str = "",
                 capacity: int | None = None):
        self.engine = engine
        self.name = name
        self.capacity = capacity
        self._entries: deque[CqEntry] = deque()
        self.arrival = Signal(engine, name=f"cq:{name}")

    def __len__(self) -> int:
        return len(self._entries)

    def post(self, entry: CqEntry) -> None:
        if self.capacity is not None and len(self._entries) >= self.capacity:
            raise NetworkError(
                f"completion queue {self.name!r} overrun "
                f"(capacity {self.capacity})")
        self._entries.append(entry)
        self.arrival.fire(entry)

    def poll(self) -> CqEntry | None:
        """Pop the oldest entry, or None if empty (non-blocking)."""
        if self._entries:
            return self._entries.popleft()
        return None

    def wait_arrival(self):
        """Event that fires at the next post (yield it from a process)."""
        return self.arrival.wait()

    def drain(self) -> list[CqEntry]:
        out = list(self._entries)
        self._entries.clear()
        return out
