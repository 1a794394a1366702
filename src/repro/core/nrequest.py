"""Persistent notification requests (§III-B, "Persistent Requests").

A request is a 32-byte structure — two 8-byte values (window, rank), two
4-byte values (tag, type), and two 4-byte values (count, matched) — allocated
in the owning rank's simulated address space so that the matching engine's
touches of it are measured against the cache model.
"""

from __future__ import annotations

from repro.errors import MatchingError
from repro.memory.address import Region
from repro.mpi.constants import ANY_SOURCE, ANY_TAG, wildcard_match
from repro.mpi.status import Status


class NotifyRequest:
    """A persistent request matching ``expected_count`` notified accesses."""

    __slots__ = ("win", "source", "tag", "expected", "matched", "active",
                 "region", "addr", "last_status", "freed", "starts",
                 "completions", "match_log")

    def __init__(self, win, source: int, tag: int, expected: int,
                 region: Region):
        if expected < 1:
            raise MatchingError(
                f"expected_count must be >= 1, got {expected}")
        if tag != ANY_TAG and not 0 <= tag <= 0xFFFF:
            raise MatchingError(
                f"tag {tag} outside the 16 significant tag bits")
        if source != ANY_SOURCE and not 0 <= source < win.shared.nranks:
            raise MatchingError(f"source rank {source} out of range")
        self.win = win
        self.source = source
        self.tag = tag
        self.expected = expected
        self.matched = 0
        self.active = False
        self.region = region
        self.addr = region.addr
        self.last_status: Status | None = None
        self.freed = False
        self.starts = 0
        self.completions = 0
        #: (source, tag, arrival_time) per matched notification of the
        #: current start epoch.  The times are NIC *arrival* clocks, not
        #: observation times: a consumer that tests lazily still reads
        #: the true completion instant — what latency accounting must
        #: use to stay invariant to same-timestamp scheduling order
        #: (the sharded core's tie-break freedom).
        self.match_log: list[tuple[int, int, float]] = []

    @property
    def completed(self) -> bool:
        return self.matched >= self.expected

    def matches(self, win_id: int, source: int, tag: int) -> bool:
        """Does a notification (win, source, tag) match this request?"""
        return win_id == self.win.id and wildcard_match(
            self.source, self.tag, source, tag)

    def _check_usable(self) -> None:
        if self.freed:
            raise MatchingError("use of a freed notification request")

    def __repr__(self) -> str:  # pragma: no cover
        src = "ANY" if self.source == ANY_SOURCE else self.source
        tag = "ANY" if self.tag == ANY_TAG else self.tag
        return (f"<NotifyRequest win={self.win.id} source={src} tag={tag} "
                f"matched={self.matched}/{self.expected} "
                f"active={self.active}>")
