"""Communicators: the per-rank facade over the message-passing endpoints.

Beyond the world communicator, :meth:`Communicator.split` creates
sub-communicators (MPI_Comm_split): each gets its own *context id* so its
traffic can never match another communicator's, ranks are renumbered within
the group, and all collectives work unchanged on the sub-communicator.
"""

from __future__ import annotations

from collections.abc import Generator

import numpy as np

from repro.errors import MatchingError
from repro.mpi.constants import ANY_SOURCE, ANY_TAG, PROC_NULL
from repro.mpi.endpoint import MpiEndpoint
from repro.mpi.request import RecvRequest, Request, SendRequest
from repro.mpi.status import Status

#: context ids allocated per split call: (call_idx + 1) * stride + color idx
_CONTEXT_STRIDE = 1 << 12


class Communicator:
    """One rank's view of a communicator (world or split).

    All blocking operations are generators: ``yield from comm.send(...)``.
    ``group`` lists the member *world* ranks in communicator-rank order: a
    ``range`` for the world communicator (every rank holds one, so a list
    would cost O(P²) slots per cluster and O(P) per rank translation), a
    ``list`` with a ``{world: local}`` index beside it for a split.
    """

    def __init__(self, endpoint: MpiEndpoint, endpoints: list[MpiEndpoint],
                 group: list[int] | None = None, context: int = 0):
        self.endpoint = endpoint
        self._endpoints = endpoints
        self.context = context
        #: the world communicator's ranks are world ranks: its statuses
        #: pass through untranslated
        self._is_world = group is None
        if group is None:
            self.group = range(len(endpoints))
            self._local_of = self.group.index  # O(1) on a range
        else:
            self.group = list(group)
            self._local_of = {
                w: i for i, w in enumerate(self.group)}.__getitem__
        try:
            self.rank = self._local_of(endpoint.rank)
        except (KeyError, ValueError):
            raise MatchingError(
                f"world rank {endpoint.rank} is not in the group") from None
        self.size = len(self.group)
        self._split_calls = 0

    # -- rank translation ---------------------------------------------------
    def _world(self, peer: int) -> int:
        """Communicator rank -> world rank (PROC_NULL passes through)."""
        if peer == PROC_NULL:
            return PROC_NULL
        if not 0 <= peer < self.size:
            raise MatchingError(
                f"peer rank {peer} out of range [0, {self.size})")
        return self.group[peer]

    def _local(self, world_rank: int) -> int:
        """World rank -> communicator rank (for statuses)."""
        if world_rank in (PROC_NULL, ANY_SOURCE):
            return world_rank
        try:
            return self._local_of(world_rank)
        except (KeyError, ValueError):  # pragma: no cover - context-bound
            raise MatchingError(
                f"message from world rank {world_rank} outside the group")

    def _xlate_status(self, status: Status) -> Status:
        if self._is_world or status.source < 0:
            return status
        return Status(source=self._local(status.source), tag=status.tag,
                      count=status.count, cancelled=status.cancelled)

    # -- point to point ----------------------------------------------------
    def send(self, data: np.ndarray, dest: int, tag: int = 0):
        yield from self.endpoint.send(data, self._world(dest), tag,
                                      context=self.context)

    def isend(self, data: np.ndarray, dest: int,
              tag: int = 0) -> Generator[object, object, SendRequest]:
        req = yield from self.endpoint.isend(data, self._world(dest), tag,
                                             context=self.context)
        return req

    def ssend(self, data: np.ndarray, dest: int, tag: int = 0):
        """Synchronous send: completes only once the receive matched."""
        yield from self.endpoint.ssend(data, self._world(dest), tag,
                                       context=self.context)

    def recv(self, buf: np.ndarray, source: int = ANY_SOURCE,
             tag: int = ANY_TAG) -> Generator[object, object, Status]:
        src = source if source == ANY_SOURCE else self._world(source)
        status = yield from self.endpoint.recv(buf, src, tag,
                                               context=self.context)
        return self._xlate_status(status)

    def irecv(self, buf: np.ndarray, source: int = ANY_SOURCE,
              tag: int = ANY_TAG) -> Generator[object, object, RecvRequest]:
        src = source if source == ANY_SOURCE else self._world(source)
        req = yield from self.endpoint.irecv(buf, src, tag,
                                             context=self.context)
        return req

    def sendrecv(self, senddata: np.ndarray, dest: int, sendtag: int,
                 recvbuf: np.ndarray, source: int,
                 recvtag: int) -> Generator[object, object, Status]:
        """Deadlock-free combined send+recv."""
        ep = self.endpoint
        src = source if source == ANY_SOURCE else self._world(source)
        rreq = yield from ep.irecv(recvbuf, src, recvtag,
                                   context=self.context)
        sreq = yield from ep.isend(senddata, self._world(dest), sendtag,
                                   context=self.context)
        yield from ep.wait(sreq)
        status = yield from ep.wait(rreq)
        return self._xlate_status(status)

    def wait(self, req: Request) -> Generator[object, object, Status]:
        status = yield from self.endpoint.wait(req)
        return self._xlate_status(status)

    def waitall(self, reqs: list[Request]):
        statuses = yield from self.endpoint.waitall(reqs)
        return [self._xlate_status(s) for s in statuses]

    def waitany(self, reqs: list[Request]
                ) -> Generator[object, object, tuple[int, Status]]:
        """Block until any request completes; returns (index, status)."""
        if not reqs:
            raise MatchingError("waitany over an empty request list")
        while True:
            for i, req in enumerate(reqs):
                if req.done:
                    assert req.status is not None
                    return i, self._xlate_status(req.status)
            yield from self.endpoint.progress()
            done = [i for i, r in enumerate(reqs) if r.done]
            if done:
                continue
            if len(self.endpoint.nic.sys_inbox):
                continue
            yield (self.endpoint.nic.sys_arrival.wait(),
                   *[r.completion for r in reqs])

    def probe(self, source: int = ANY_SOURCE,
              tag: int = ANY_TAG) -> Generator[object, object, Status]:
        src = source if source == ANY_SOURCE else self._world(source)
        status = yield from self.endpoint.probe(src, tag,
                                                context=self.context)
        return self._xlate_status(status)

    def iprobe(self, source: int = ANY_SOURCE,
               tag: int = ANY_TAG) -> Generator[object, object,
                                                Status | None]:
        src = source if source == ANY_SOURCE else self._world(source)
        status = yield from self.endpoint.iprobe(src, tag,
                                                 context=self.context)
        return self._xlate_status(status) if status is not None else None

    # -- sub-communicators --------------------------------------------------
    def split(self, color: int,
              key: int | None = None,
              ) -> Generator[object, object, "Communicator" | None]:
        """MPI_Comm_split: collective; ranks with equal ``color`` form a
        new communicator, ordered by ``(key, parent rank)``.

        ``color < 0`` (MPI_UNDEFINED) opts out and returns None.
        """
        from repro.mpi.collectives import allgather
        self._split_calls += 1
        call_idx = self._split_calls
        if key is None:
            key = self.rank
        mine = np.array([float(color), float(key)], dtype=np.float64)
        table = np.zeros((self.size, 2))
        yield from allgather(self, mine, table)
        colors = table[:, 0].astype(int)
        keys = table[:, 1].astype(int)
        if color < 0:
            return None
        members = [r for r in range(self.size) if colors[r] == color]
        members.sort(key=lambda r: (keys[r], r))
        world_group = [self.group[r] for r in members]
        # Deterministic context id: same on every member without a
        # registry (everyone sees the same gathered colors).
        unique_colors = sorted({int(c) for c in colors if c >= 0})
        ctx_id = (self.context * 37 + call_idx) * _CONTEXT_STRIDE \
            + unique_colors.index(color) + 1
        return Communicator(self.endpoint, self._endpoints,
                            group=world_group, context=ctx_id)

    def dup(self) -> Generator[object, object, "Communicator"]:
        """MPI_Comm_dup: same group, fresh context."""
        comm = yield from self.split(0, key=self.rank)
        assert comm is not None
        return comm

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


    # -- typed point-to-point (derived datatypes) -----------------------------
    def send_typed(self, buf: np.ndarray, datatype, dest: int,
                   tag: int = 0, count: int = 1):
        """Send ``count`` elements of a derived ``datatype`` out of the
        contiguous base buffer ``buf`` (pack cost charged at the sender)."""
        packed = datatype.pack(buf, count)
        cost = datatype.pack_cost(self.endpoint.params, count)
        if cost:
            yield self.endpoint.engine.timeout(cost)
        yield from self.send(packed, dest, tag)

    def recv_typed(self, buf: np.ndarray, datatype, source: int = ANY_SOURCE,
                   tag: int = ANY_TAG,
                   count: int = 1) -> Generator[object, object, Status]:
        """Receive into ``count`` elements of ``datatype``'s layout over the
        contiguous base buffer ``buf`` (unpack cost charged here)."""
        packed = np.empty(count * datatype.size, dtype=np.uint8)
        status = yield from self.recv(packed, source, tag)
        cost = datatype.pack_cost(self.endpoint.params, count)
        if cost:
            yield self.endpoint.engine.timeout(cost)
        datatype.unpack(packed, buf, count)
        return status
