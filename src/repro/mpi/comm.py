"""The world communicator: the per-rank facade over the message-passing
endpoint (communicator rank = world rank)."""

from __future__ import annotations

from collections.abc import Generator

import numpy as np

from repro.errors import MatchingError
from repro.mpi.constants import ANY_SOURCE, ANY_TAG, PROC_NULL
from repro.mpi.endpoint import MpiEndpoint
from repro.mpi.request import RecvRequest, Request, SendRequest
from repro.mpi.status import Status


class Communicator:
    """One rank's view of the world communicator.

    All blocking operations are generators: ``yield from comm.send(...)``.
    """

    __slots__ = ("endpoint", "rank", "size")

    def __init__(self, endpoint: MpiEndpoint):
        self.endpoint = endpoint
        self.rank = endpoint.rank
        self.size = endpoint.ctx.size

    def _world(self, peer: int) -> int:
        """Validate a peer rank (PROC_NULL passes through)."""
        if peer != PROC_NULL and not 0 <= peer < self.size:
            raise MatchingError(
                f"peer rank {peer} out of range [0, {self.size})")
        return peer

    def _source(self, source: int) -> int:
        """Validate a receive's source: a peer rank or ``ANY_SOURCE`` (a
        send's ``dest`` never is)."""
        return source if source == ANY_SOURCE else self._world(source)

    # -- point to point ----------------------------------------------------
    def send(self, data: np.ndarray, dest: int, tag: int = 0):
        yield from self.endpoint.send(data, self._world(dest), tag)

    def isend(self, data: np.ndarray, dest: int,
              tag: int = 0) -> Generator[object, object, SendRequest]:
        return (yield from self.endpoint.isend(data, self._world(dest),
                                               tag))

    def recv(self, buf: np.ndarray, source: int = ANY_SOURCE,
             tag: int = ANY_TAG) -> Generator[object, object, Status]:
        return (yield from self.endpoint.recv(buf, self._source(source),
                                              tag))

    def irecv(self, buf: np.ndarray, source: int = ANY_SOURCE,
              tag: int = ANY_TAG) -> Generator[object, object, RecvRequest]:
        return (yield from self.endpoint.irecv(buf, self._source(source),
                                               tag))

    def sendrecv(self, senddata: np.ndarray, dest: int, sendtag: int,
                 recvbuf: np.ndarray, source: int,
                 recvtag: int) -> Generator[object, object, Status]:
        """Deadlock-free combined send+recv."""
        ep = self.endpoint
        rreq = yield from ep.irecv(recvbuf, self._source(source), recvtag)
        sreq = yield from ep.isend(senddata, self._world(dest), sendtag)
        yield from ep.wait(sreq)
        status = yield from ep.wait(rreq)
        return status

    def wait(self, req: Request) -> Generator[object, object, Status]:
        return (yield from self.endpoint.wait(req))

    def waitall(self, reqs: list[Request]):
        return (yield from self.endpoint.waitall(reqs))

    def probe(self, source: int = ANY_SOURCE,
              tag: int = ANY_TAG) -> Generator[object, object, Status]:
        return (yield from self.endpoint.probe(self._source(source), tag))

    def iprobe(self, source: int = ANY_SOURCE,
               tag: int = ANY_TAG) -> Generator[object, object,
                                                Status | None]:
        return (yield from self.endpoint.iprobe(self._source(source), tag))

    # -- collectives (thin wrappers over repro.mpi.collectives) --------------
    def barrier(self):
        from repro.mpi.collectives import barrier
        yield from barrier(self)

    def bcast(self, buf: np.ndarray, root: int = 0):
        from repro.mpi.collectives import bcast
        yield from bcast(self, buf, root)

    def reduce(self, sendbuf: np.ndarray, recvbuf: np.ndarray | None,
               root: int = 0, op=np.add):
        from repro.mpi.collectives import reduce
        yield from reduce(self, sendbuf, recvbuf, root, op)

    def allreduce(self, sendbuf: np.ndarray, recvbuf: np.ndarray, op=np.add):
        from repro.mpi.collectives import allreduce
        yield from allreduce(self, sendbuf, recvbuf, op)
