"""Message/notification status objects (the MPI_Status analogue)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.mpi.constants import ANY_SOURCE, ANY_TAG


@dataclass(slots=True)
class Status:
    """Completion information of a receive or a matched notification.

    For a completed counting notification request, this describes **only the
    last matching notified access**, as the paper specifies (§III-B).
    """

    source: int = ANY_SOURCE
    tag: int = ANY_TAG
    count: int = 0           # payload bytes of the (last) matching access
    cancelled: bool = False
