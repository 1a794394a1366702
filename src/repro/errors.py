"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """The simulation kernel detected an illegal state.

    Examples: running an engine into the past, deadlock (no runnable events
    while processes are still blocked), or stepping an engine with nothing
    scheduled.
    """


class DeadlockError(SimulationError):
    """All processes are blocked and the event queue is empty."""

    def __init__(self, blocked: list[str]):
        self.blocked = list(blocked)
        names = ", ".join(blocked) if blocked else "<unknown>"
        super().__init__(f"simulation deadlock; blocked processes: {names}")


class AllocationError(ReproError):
    """An address-space or window allocation could not be satisfied."""


class RmaEpochError(ReproError):
    """An RMA call was made outside a legal synchronization epoch.

    MPI-3 requires e.g. that ``put`` only happens inside an access epoch
    (after ``fence``, ``start``, or ``lock``); violations raise this error
    instead of silently corrupting memory, mirroring a debug MPI build.
    """


class MatchingError(ReproError):
    """Illegal use of the notification/message matching engine.

    Examples: starting an already-started persistent request, waiting on an
    inactive request, or freeing an active one.
    """


class NetworkError(ReproError):
    """Transport-level failure (e.g. undeliverable packet, bad route)."""


class FaultError(NetworkError):
    """An injected fault the transport could not recover from.

    Raised by the fault-injection layer: retry exhaustion on a lossy link,
    an operation addressed to a failed node, or an invalid
    :class:`~repro.faults.FaultPlan`.  Waiters on the affected operation's
    events get this thrown in, so an unsurvivable fault crashes the rank
    program loudly instead of hanging it.
    """


class BufferError_(ReproError):
    """A user buffer does not fit the described transfer."""


class RaceError(ReproError):
    """The synchronization sanitizer found two conflicting accesses.

    Two accesses conflict when they touch overlapping bytes of the same
    address space, at least one writes, and no happens-before path (a chain
    of notification matches, counter waits, flushes, fences, or message
    matches) orders one before the other.  ``prev`` and ``cur`` are
    :class:`repro.sanitizer.shadow.Access` records; the message names both
    source sites so the missing synchronization edge can be added.
    """

    def __init__(self, prev=None, cur=None, msg: str = ""):
        super().__init__(msg)
        self.prev = prev
        self.cur = cur
