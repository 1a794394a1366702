"""Request objects for nonblocking point-to-point operations."""

from __future__ import annotations

import itertools

import numpy as np

from repro.mpi.constants import wildcard_match
from repro.mpi.status import Status
from repro.sim.engine import Engine, Event

_req_ids = itertools.count(1)


class Request:
    """A nonblocking operation handle; completed via the progress engine.

    :attr:`completion` is built on first ask.  Every reader asks only while
    the request is not done and attaches at once, so :meth:`complete`
    schedules it only when someone waits (:meth:`Event.settle`); asked
    after completion, it is already processed and carries the status.
    """

    __slots__ = ("req_id", "engine", "done", "status", "_completion")

    def __init__(self, engine: Engine):
        self.req_id = next(_req_ids)
        self.engine = engine
        self.done = False
        self.status: Status | None = None
        self._completion: Event | None = None

    @property
    def completion(self) -> Event:
        ev = self._completion
        if ev is None:
            ev = self._completion = Event(self.engine, "req")
            if self.done:
                ev.settle(self.status)
        return ev

    def complete(self, status: Status | None = None) -> None:
        if self.done:
            return
        self.done = True
        self.status = status or Status()
        if self._completion is not None:
            self._completion.settle(self.status)


class SendRequest(Request):
    """Tracks an in-flight send (eager or rendezvous)."""

    __slots__ = ("dest", "tag", "nbytes", "data", "protocol", "rts_acked")

    def __init__(self, engine: Engine, dest: int, tag: int,
                 data: np.ndarray, protocol: str):
        # Request.__init__ flattened: one request per message sent
        self.req_id = next(_req_ids)
        self.engine = engine
        self.done = False
        self.status = None
        self._completion = None
        self.dest = dest
        self.tag = tag
        self.data = data
        self.nbytes = int(data.nbytes)
        self.protocol = protocol      # "eager" | "rndv"
        self.rts_acked = False


class RecvRequest(Request):
    """A posted receive awaiting a match."""

    __slots__ = ("buf", "source", "tag", "matched_from", "matched_tag")

    def __init__(self, engine: Engine, buf: np.ndarray, source: int,
                 tag: int):
        # Request.__init__ flattened: one request per message received
        self.req_id = next(_req_ids)
        if not isinstance(buf, np.ndarray):
            raise TypeError("receive buffer must be a numpy array")
        self.engine = engine
        self.done = False
        self.status = None
        self._completion = None
        self.buf = buf
        self.source = source
        self.tag = tag
        self.matched_from: int | None = None
        self.matched_tag: int | None = None

    def matches(self, source: int, tag: int) -> bool:
        return wildcard_match(self.source, self.tag, source, tag)
