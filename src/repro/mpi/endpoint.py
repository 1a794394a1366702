"""The per-rank message-passing engine: protocols, matching, progress.

All blocking calls are generators (use ``yield from``); CPU costs are charged
by yielding engine timeouts, so a rank's sends, receives, copies, and
matching serialize on its (single) CPU exactly like a real MPI process.

Protocol notes
--------------
*Eager* (``nbytes <= eager_max``): one wire packet carries the payload.  If a
matching receive is posted at arrival, the payload is copied once into the
user buffer; otherwise it is copied into a bounce buffer and again on match —
the copy overheads and cache pollution the paper charges against message
passing (§IV).

*Rendezvous*: RTS → (match) → CTS → DATA.  The DATA leg is zero-copy (the
"NIC" writes the posted user buffer directly).  The CTS is answered either
inside the sender's next progress call, or — when the cluster runs with
``async_progress=True`` (Cray-like helper agent, [8] in the paper) — by the
fabric hook after ``async_progress_delay`` without involving the sender's
CPU.

Matching is arrival-ordered on ``(source, tag)`` with wildcards.  (True MPI
orders by *send* order per source; the two differ only for concurrent
mixed-protocol sends between one pair, which no benchmark here issues.)
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Generator
from dataclasses import dataclass

import numpy as np

from repro.errors import MatchingError
from repro.mpi.constants import (ANY_SOURCE, ANY_TAG, CTS_BYTES,
                                 EAGER_HEADER, PROC_NULL, RTS_BYTES,
                                 wildcard_match)
from repro.mpi.request import RecvRequest, Request, SendRequest
from repro.mpi.status import Status
from repro.network.fabric import SysPacket

#: bytes of bounce-buffer backing reserved per endpoint (cache accounting)
BOUNCE_BYTES = 512 * 1024
#: CPU cost of posting a receive request, µs
T_POST = 0.05


@dataclass
class _Unexpected:
    """An arrived-but-unmatched message: eager payload or RTS record."""

    kind: str                 # "eager" | "rts"
    source: int
    tag: int
    nbytes: int
    data: np.ndarray | None = None   # eager payload snapshot
    send_id: int | None = None       # rendezvous send handle


class MpiEndpoint:
    """Message-passing state of one rank."""

    __slots__ = ("ctx", "rank", "engine", "fabric", "nic", "params",
                 "posted", "unexpected", "_pending_sends", "_rndv_recvs",
                 "ctrl_counts", "_bounce", "_bounce_off", "eager_copies",
                 "bounce_copies", "rndv_sends", "_san")

    def __init__(self, ctx):
        self.ctx = ctx
        self.rank = ctx.rank
        self.engine = ctx.engine
        self.fabric = ctx.fabric
        self.nic = ctx.nic
        self.params = ctx.params
        self.posted: list[RecvRequest] = []
        self.unexpected: list[_Unexpected] = []
        self._pending_sends: dict[int, SendRequest] = {}
        self._rndv_recvs: dict[int, RecvRequest] = {}
        #: control-message counters used by the RMA PSCW implementation
        self.ctrl_counts: Counter = Counter()
        #: bounce-buffer region for unexpected eager data (cache pollution)
        self._bounce = ctx.space.alloc(BOUNCE_BYTES)
        self._bounce_off = 0
        # statistics
        self.eager_copies = 0
        self.bounce_copies = 0
        self.rndv_sends = 0
        self._san = getattr(ctx.cluster, "sanitizer", None)

    # ------------------------------------------------------------------
    # timing helpers
    # ------------------------------------------------------------------
    def _copy_cost(self, nbytes: int) -> float:
        return self.params.copy_o + nbytes * self.params.copy_G

    def _touch_bounce(self, nbytes: int, label: str) -> None:
        """Charge cache pollution for a bounce-buffer copy.

        The copy streams through the bounce region from its current
        offset, or from its start when it would run past the end; a
        message larger than the region wraps around inside it.
        """
        if nbytes <= 0:
            return
        size = self._bounce.nbytes
        if self._bounce_off + nbytes > size:
            self._bounce_off = 0
        while nbytes > size:
            self.ctx.cache.touch(self._bounce.addr, size, label=label)
            nbytes -= size
        self.ctx.cache.touch(self._bounce.addr + self._bounce_off, nbytes,
                             label=label)
        self._bounce_off += nbytes

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def isend(self, data: np.ndarray, dest: int,
              tag: int) -> Generator[object, object, SendRequest]:
        """Nonblocking send; returns a :class:`SendRequest`."""
        if tag < 0:
            raise MatchingError(f"send tag must be non-negative, got {tag}")
        if dest == PROC_NULL:
            req = SendRequest(self.engine, dest, tag,
                              np.empty(0, np.uint8), "null")
            req.complete(Status())
            return req
        data = np.ascontiguousarray(data)
        nbytes = int(data.nbytes)
        yield self.params.mpi_overhead
        if nbytes <= self.params.eager_max:
            req = SendRequest(self.engine, dest, tag, data, "eager")
            h = self.fabric.send_sys(
                self.rank, dest, "eager", nbytes + EAGER_HEADER,
                payload={"tag": tag, "nbytes": nbytes}, data=data,
                remote_done=False)
            if h.cpu_busy:
                yield h.cpu_busy
            h.local_done.add_callback(lambda _e: req.complete(Status()))
            if h.local_done.processed:
                req.complete(Status())
        else:
            req = SendRequest(self.engine, dest, tag, data, "rndv")
            self.rndv_sends += 1
            self._pending_sends[req.req_id] = req
            h = self.fabric.send_sys(
                self.rank, dest, "rts", RTS_BYTES,
                payload={"tag": tag, "nbytes": nbytes,
                         "send_id": req.req_id},
                local_done=False, remote_done=False)
            if h.cpu_busy:
                yield h.cpu_busy
        return req

    def send(self, data: np.ndarray, dest: int,
             tag: int) -> Generator[object, object, None]:
        req = yield from self.isend(data, dest, tag)
        yield from self.wait(req)

    def _send_rndv_data(self, sreq: SendRequest, recv_id: int) -> None:
        """Issue the DATA leg after a CTS (callable outside rank CPU)."""
        h = self.fabric.send_sys(
            self.rank, sreq.dest, "rdata", sreq.nbytes,
            payload={"recv_id": recv_id, "tag": sreq.tag,
                     "send_id": sreq.req_id},
            data=sreq.data, local_done=False)
        h.remote_done.add_callback(lambda _e: sreq.complete(Status()))
        self._pending_sends.pop(sreq.req_id, None)

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------
    def irecv(self, buf: np.ndarray, source: int = ANY_SOURCE,
              tag: int = ANY_TAG) -> Generator[object, object, RecvRequest]:
        """Nonblocking receive into ``buf`` (a numpy array)."""
        req = RecvRequest(self.engine, buf, source, tag)
        if source == PROC_NULL:
            req.complete(Status(source=PROC_NULL, tag=tag, count=0))
            return req
        yield T_POST
        # Check the unexpected queue first, in arrival order.
        for i, um in enumerate(self.unexpected):
            if req.matches(um.source, um.tag):
                del self.unexpected[i]
                yield from self._deliver_unexpected(req, um)
                return req
        self.posted.append(req)
        return req

    def recv(self, buf: np.ndarray, source: int = ANY_SOURCE,
             tag: int = ANY_TAG) -> Generator[object, object, Status]:
        req = yield from self.irecv(buf, source, tag)
        status = yield from self.wait(req)
        return status

    def _deliver_unexpected(self, req: RecvRequest, um: _Unexpected):
        """Complete/advance a receive matched against an unexpected entry."""
        if um.kind == "eager":
            self._fits(req, um.nbytes)
            # Matching overhead plus the second copy: bounce -> user buffer.
            yield self.params.mpi_overhead + self._copy_cost(um.nbytes)
            self._touch_bounce(um.nbytes, "eager-unexpected-out")
            self._write_user(req.buf, um.data, um.nbytes)
            req.complete(Status(source=um.source, tag=um.tag,
                                count=um.nbytes))
        else:
            yield from self._clear_to_send(req, um.source, um.tag, um.nbytes,
                                           um.send_id)

    @staticmethod
    def _fits(req: RecvRequest, nbytes: int) -> None:
        if nbytes > req.buf.nbytes:
            raise MatchingError(
                f"message of {nbytes} B overflows receive buffer "
                f"of {req.buf.nbytes} B")

    def _clear_to_send(self, req: RecvRequest, source: int, tag: int,
                       nbytes: int, send_id: int):
        """Match a rendezvous RTS to ``req``: answer with a CTS naming
        the receive, whose buffer the data leg will write."""
        self._fits(req, nbytes)
        self._rndv_recvs[req.req_id] = req
        req.matched_from, req.matched_tag = source, tag
        h = self.fabric.send_sys(
            self.rank, source, "cts", CTS_BYTES,
            payload={"send_id": send_id, "recv_id": req.req_id},
            local_done=False, remote_done=False)
        if h.cpu_busy:
            yield h.cpu_busy

    @staticmethod
    def _write_user(buf: np.ndarray, raw: np.ndarray | None,
                    nbytes: int) -> None:
        if raw is None or nbytes == 0:
            return
        flat = buf.reshape(-1).view(np.uint8)
        flat[:nbytes] = raw[:nbytes]

    # ------------------------------------------------------------------
    # progress engine
    # ------------------------------------------------------------------
    def progress(self) -> Generator[object, object, int]:
        """Drain the protocol inbox; returns the number of packets handled.

        Returns with the inbox empty: a packet that lands while one is
        handled is taken in the same pass, so a caller may sleep at once.
        """
        handled = 0
        while True:
            ok, pkt = self.nic.sys_inbox.try_get()
            if not ok:
                break
            handled += 1
            yield from self._handle_packet(pkt)
        return handled

    def _handle_packet(self, pkt: SysPacket):
        if self._san is not None:
            # Receiving any protocol message orders this rank after the
            # sender's released clock (send/recv match, PSCW control,
            # collectives built on them).
            self._san.acquire(self.rank, pkt.san_clock)
        if pkt.ptype == "eager":
            yield from self._on_eager(pkt)
        elif pkt.ptype == "rts":
            yield from self._on_rts(pkt)
        elif pkt.ptype == "cts":
            if not pkt.payload.get("async_handled"):
                self._on_cts(pkt)
        elif pkt.ptype == "rdata":
            self._on_rdata(pkt)
        elif pkt.ptype.startswith("pscw-") or pkt.ptype.startswith("ctrl-"):
            self.ctrl_counts[(pkt.ptype, pkt.source)] += 1
        else:
            raise MatchingError(f"unknown protocol packet {pkt.ptype!r}")

    def _match_posted(self, source: int, tag: int) -> RecvRequest | None:
        for i, req in enumerate(self.posted):
            if req.matches(source, tag):
                del self.posted[i]
                return req
        return None

    def _on_eager(self, pkt: SysPacket):
        tag, nbytes = pkt.payload["tag"], pkt.payload["nbytes"]
        req = self._match_posted(pkt.source, tag)
        if req is not None:
            self._fits(req, nbytes)
            # Matching overhead plus the copy: NIC eager buffer -> user.
            yield self.params.mpi_overhead + self._copy_cost(nbytes)
            self._touch_bounce(nbytes, "eager-copy")
            self.eager_copies += 1
            self._write_user(req.buf, pkt.data, nbytes)
            req.complete(Status(source=pkt.source, tag=tag, count=nbytes))
        else:
            # Copy into the bounce buffer for later matching.
            yield self._copy_cost(nbytes)
            self._touch_bounce(nbytes, "eager-bounce-in")
            self.bounce_copies += 1
            self.unexpected.append(_Unexpected(
                "eager", pkt.source, tag, nbytes, data=pkt.data))

    def _on_rts(self, pkt: SysPacket):
        tag, nbytes = pkt.payload["tag"], pkt.payload["nbytes"]
        send_id = pkt.payload["send_id"]
        req = self._match_posted(pkt.source, tag)
        if req is not None:
            yield from self._clear_to_send(req, pkt.source, tag, nbytes,
                                           send_id)
        else:
            self.unexpected.append(_Unexpected(
                "rts", pkt.source, tag, nbytes, send_id=send_id))

    def _on_cts(self, pkt: SysPacket) -> None:
        """Answer a CTS: start the zero-copy data leg (no generator — this
        is also called from the async-progress fabric hook)."""
        sreq = self._pending_sends.get(pkt.payload["send_id"])
        if sreq is None:
            raise MatchingError(
                f"CTS for unknown send id {pkt.payload['send_id']}")
        if self._san is not None:
            # Also reached via the async-progress hook, which bypasses
            # _handle_packet; acquiring twice is idempotent.
            self._san.acquire(self.rank, pkt.san_clock)
        self._send_rndv_data(sreq, pkt.payload["recv_id"])

    def _on_rdata(self, pkt: SysPacket) -> None:
        req = self._rndv_recvs.pop(pkt.payload["recv_id"], None)
        if req is None:
            raise MatchingError(
                f"rendezvous data for unknown recv id "
                f"{pkt.payload['recv_id']}")
        # Zero-copy: the NIC wrote the user buffer; no CPU copy is charged.
        self._write_user(req.buf, pkt.data, pkt.nbytes)
        req.complete(Status(source=pkt.source, tag=pkt.payload["tag"],
                            count=pkt.nbytes))

    # ------------------------------------------------------------------
    # completion
    # ------------------------------------------------------------------
    def wait(self, req: Request) -> Generator[object, object, Status]:
        """Block until ``req`` completes; returns its :class:`Status`.

        A receive sleeps on the arrival signal alone: only this rank's
        own progress completes it, and that cannot run while the rank
        sleeps.  A send also wakes on its completion (its ack, or the data
        leg an async CTS answer started).  Either raises
        :class:`~repro.errors.FaultError` once its peer is detected dead
        (:meth:`~repro.network.fabric.Nic.block`).
        """
        nic = self.nic
        inbox = nic.sys_inbox
        while not req.done:
            if len(inbox):
                yield from self.progress()
                if req.done:
                    break
            if isinstance(req, RecvRequest):
                yield nic.block(nic.sys_arrival.wait(), [req.source],
                                "receive")
            else:
                yield nic.block((nic.sys_arrival.wait(), req.completion),
                                [req.dest], "send")
        assert req.status is not None
        return req.status

    def waitall(self, reqs: list[Request]) -> Generator[object, object,
                                                        list[Status]]:
        for req in reqs:
            yield from self.wait(req)
        return [r.status for r in reqs]  # type: ignore[misc]

    # ------------------------------------------------------------------
    # probe
    # ------------------------------------------------------------------
    def iprobe(self, source: int = ANY_SOURCE,
               tag: int = ANY_TAG) -> Generator[object, object,
                                                Status | None]:
        """Nonblocking probe of the unexpected queue (after progress)."""
        yield from self.progress()
        for um in self.unexpected:
            if wildcard_match(source, tag, um.source, um.tag):
                return Status(source=um.source, tag=um.tag, count=um.nbytes)
        return None

    def probe(self, source: int = ANY_SOURCE,
              tag: int = ANY_TAG) -> Generator[object, object, Status]:
        """Blocking probe; the message stays queued for a later recv."""
        while True:
            st = yield from self.iprobe(source, tag)
            if st is not None:
                return st
            yield self.nic.block(self.nic.sys_arrival.wait(), [source],
                                 "probe")

    # ------------------------------------------------------------------
    def ctrl_wait(self, ptype: str, sources: list[int],
                  count_each: int = 1) -> Generator[object, object, None]:
        """Wait until ``count_each`` control packets of ``ptype`` arrived
        from every rank in ``sources`` (consumes the counts)."""
        need = {s: count_each for s in sources if s != self.rank}
        while True:
            yield from self.progress()
            for s in list(need):
                have = self.ctrl_counts[(ptype, s)]
                if have >= need[s]:
                    self.ctrl_counts[(ptype, s)] -= need[s]
                    del need[s]
            if not need:
                return
            yield self.nic.block(self.nic.sys_arrival.wait(), list(need),
                                 ptype)
