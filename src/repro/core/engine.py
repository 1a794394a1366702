"""The per-rank Notified Access engine: notified ops and request progress.

Requests are advanced **only inside test and wait** (§IV-B): test searches
the UQ first, then polls the hardware destination completion queues,
appending non-matching notifications to the UQ for later matching.  Wait
and waitany are loops around test that sleep in :meth:`NotifyEngine.park`
— and nowhere else — when nothing is pending.

Timing constants are calibrated so a single-notification matched test costs
the paper's receive overhead ``o_r = 0.07 µs`` (Table/model of §V-A); the
API-call costs ``t_init``, ``t_free``, ``t_start``, ``t_na`` come straight
from :class:`~repro.network.loggp.TransportParams`.
"""

from __future__ import annotations

from collections.abc import Generator

import numpy as np

from repro.core.matching import UQ_SLOTS, UnexpectedQueue
from repro.core.nrequest import NotifyRequest
from repro.errors import MatchingError
from repro.memory.cache import CACHE_LINE
from repro.mpi.constants import ANY_SOURCE, ANY_TAG
from repro.mpi.status import Status
from repro.network.cq import decode_immediate, encode_immediate
from repro.network.fabric import OpHandle
from repro.rma.window import Window

#: fixed cost of one test call (request load + branchwork), µs
T_TEST_BASE = 0.03
#: cost of polling one CQ entry, µs
T_POLL = 0.02
#: cost of processing a matching notification, µs
T_MATCH = 0.02
#: cost of appending a non-matching notification to the UQ, µs
T_APPEND = 0.03
#: cost of scanning one UQ entry, µs
T_SCAN = 0.005


class NotifyEngine:
    """Notified Access operations and matching for one rank."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.rank = ctx.rank
        self.engine = ctx.engine
        self.params = ctx.params
        uq_region = ctx.space.alloc(UQ_SLOTS * CACHE_LINE)
        self.uq = UnexpectedQueue(uq_region, ctx.cache)
        self.live_requests = 0
        self.notified_ops = 0
        self._san = getattr(ctx.cluster, "sanitizer", None)
        # The matching-path constants are calibrated so a single matched
        # test costs the paper's o_r with the default parameters; o_recv
        # scales the whole path for other platforms (e.g. the NoC preset).
        self._scale = self.params.o_recv / (T_TEST_BASE + T_POLL + T_MATCH)

    # ------------------------------------------------------------------
    # notified accesses (origin side)
    # ------------------------------------------------------------------
    def put_notify(self, win: Window, data: np.ndarray, target: int,
                   target_disp: int = 0,
                   tag: int = 0) -> Generator[object, object, OpHandle]:
        """Put with remote notification — one network transaction.

        Supports zero-byte payloads (``data`` empty): only the notification
        is delivered, the credit-message idiom of §III-B.
        """
        data = np.ascontiguousarray(data)
        nbytes = int(data.nbytes)
        addr = win.shared.target_addr(target, target_disp, nbytes)
        imm = encode_immediate(self.rank, tag)
        yield self.engine.timeout(self.params.o_send)   # t_na, pre-injection
        h = self.ctx.fabric.put(self.rank, target, addr, data,
                                win_id=win.id, immediate=imm)
        win.record_pending(target, h)
        self.notified_ops += 1
        if h.cpu_busy:
            yield self.engine.timeout(h.cpu_busy)
        return h

    def get_notify(self, win: Window, buf_region, target: int,
                   target_disp: int = 0, nbytes: int | None = None,
                   tag: int = 0,
                   local_offset: int = 0) -> Generator[object, object,
                                                       OpHandle]:
        """Get with a notification delivered to the **target** (data owner).

        The notification tells the target its buffer has been read and can
        be reused — consumer-managed buffering (§VI-B).
        """
        if nbytes is None:
            nbytes = buf_region.nbytes - local_offset
        addr = win.shared.target_addr(target, target_disp, nbytes)
        imm = encode_immediate(self.rank, tag)
        yield self.engine.timeout(self.params.o_send)   # t_na, pre-injection
        h = self.ctx.fabric.get(self.rank, target, addr, nbytes,
                                buf_region.addr + local_offset,
                                win_id=win.id, immediate=imm)
        win.record_pending(target, h)
        self.notified_ops += 1
        if h.cpu_busy:
            yield self.engine.timeout(h.cpu_busy)
        return h

    def accumulate_notify(self, win: Window, data: np.ndarray, target: int,
                          target_disp: int = 0, op: str = "sum",
                          tag: int = 0,
                          dtype=np.float64) -> Generator[object, object,
                                                         OpHandle]:
        """Notified MPI_Accumulate (the paper: "similar functions can be
        created for MPI's accumulate operations")."""
        data = np.ascontiguousarray(data)
        nbytes = int(data.nbytes)
        addr = win.shared.target_addr(target, target_disp, nbytes)
        imm = encode_immediate(self.rank, tag)
        yield self.engine.timeout(self.params.o_send)   # t_na, pre-injection
        h = self.ctx.fabric.put(self.rank, target, addr, data,
                                win_id=win.id, immediate=imm,
                                accumulate=op, acc_dtype=dtype)
        win.record_pending(target, h)
        self.notified_ops += 1
        if h.cpu_busy:
            yield self.engine.timeout(h.cpu_busy)
        return h

    # ------------------------------------------------------------------
    # request lifecycle (target side)
    # ------------------------------------------------------------------
    def notify_init(self, win: Window, source: int = ANY_SOURCE,
                    tag: int = ANY_TAG, expected_count: int = 1
                    ) -> Generator[object, object, NotifyRequest]:
        """Allocate a persistent notification request (MPI_Notify_init)."""
        region = self.ctx.space.alloc(self.params.request_bytes, align=64)
        req = NotifyRequest(win, source, tag, expected_count, region)
        self.live_requests += 1
        yield self.engine.timeout(self.params.t_init)
        return req

    def start(self, req: NotifyRequest) -> Generator[object, object, None]:
        """(Re)activate a persistent request (MPI_Start)."""
        req._check_usable()
        if req.active and not req.completed:
            raise MatchingError("MPI_Start on an active, incomplete request")
        req.matched = 0
        req.last_status = None
        req.match_log.clear()
        req.active = True
        req.starts += 1
        # Resetting the matched counter touches the request structure.
        self.ctx.cache.touch(req.addr, self.params.request_bytes,
                             label="na-request")
        yield self.engine.timeout(self.params.t_start)

    def cancel(self, req: NotifyRequest) -> None:
        """Deactivate a request that will not be waited on again
        (MPI_Cancel), so it can be restarted or freed.  What it matched
        in this start epoch stays consumed; a later notification it would
        have matched parks in the UQ like any other unmatched arrival.
        """
        req._check_usable()
        req.active = False

    def request_free(self,
                     req: NotifyRequest) -> Generator[object, object, None]:
        """Free a persistent request (MPI_Request_free)."""
        req._check_usable()
        if req.active and not req.completed:
            raise MatchingError("freeing an active, incomplete request")
        req.freed = True
        req.region.free()
        self.live_requests -= 1
        yield self.engine.timeout(self.params.t_free)

    # ------------------------------------------------------------------
    # progress
    # ------------------------------------------------------------------
    def test(self, req: NotifyRequest) -> Generator[object, object, bool]:
        """One matching pass; True when the request is complete (§IV-B)."""
        req._check_usable()
        if not req.active:
            raise MatchingError("test on an inactive request (call start)")
        cost = T_TEST_BASE * self._scale
        # 1. Load the request structure itself (first compulsory miss).
        self.ctx.cache.touch(req.addr, self.params.request_bytes,
                             label="na-request")
        if req.completed:
            yield self.engine.timeout(cost)
            return True
        # 2. Search the UQ for already-arrived matching notifications
        #    (second compulsory miss: the queue head).
        scanned_before = len(self.uq)
        while not req.completed:
            entry = self.uq.find_and_remove(req)
            if entry is None:
                break
            req.matched += 1
            req.last_status = Status(source=entry.source, tag=entry.tag,
                                     count=entry.nbytes)
            req.match_log.append((entry.source, entry.tag, entry.time))
            if self._san is not None:
                # Matching a notification is the acquire side of the
                # notified access: the consumer is now ordered after it.
                self._san.acquire_op(self.rank, entry.san)
            cost += T_MATCH * self._scale
        cost += scanned_before * T_SCAN * self._scale
        # 3. Poll the hardware destination queues for new notifications.
        nic = self.ctx.nic
        while not req.completed:
            cqe = nic.poll_notification()
            if cqe is None:
                cost += T_POLL * self._scale  # one empty poll
                break
            cost += T_POLL * self._scale
            source, tag = decode_immediate(cqe.immediate)
            if req.matches(cqe.win_id, source, tag):
                req.matched += 1
                req.last_status = Status(source=source, tag=tag,
                                         count=cqe.nbytes)
                req.match_log.append((source, tag, cqe.time))
                if self._san is not None:
                    self._san.acquire_op(self.rank, cqe.san)
                cost += T_MATCH * self._scale
            else:
                self.uq.append(cqe.win_id, source, tag, cqe.nbytes,
                               cqe.time, san=cqe.san)
                cost += T_APPEND * self._scale
        yield self.engine.timeout(cost)
        if req.completed:
            req.completions += 1
            return True
        return False

    def _death_timer(self, reqs: list[NotifyRequest]):
        """Fail-fast support for waits that could block on a dead peer.

        With node failures planned, a blocking wait races its arrival
        event against a timer to the next failure-*detection* instant
        (``death + detect_us``) so it re-examines its sources promptly
        instead of stalling to deadlock detection.  Raises
        :class:`~repro.errors.FaultError` naming the dead rank when every
        source the wait can still match is a detected-dead rank — no
        surviving node can ever complete it.  Wildcard (``ANY_SOURCE``)
        requests never fail here: any live rank may still match them, so
        failover for those lives in :mod:`repro.ft`.  Fault-free runs
        (no injector, or no ``node_failures``) take none of this path.
        """
        faults = self.ctx.fabric.faults
        if faults is None or not faults.plan.node_failures:
            return None
        now = self.engine.now
        dead = [r.source for r in reqs
                if r.source != ANY_SOURCE and faults.detected(r.source, now)]
        if dead and len(dead) == len(reqs):
            raise faults.dead_wait_error("notification", self.rank, dead[0])
        nxt = faults.next_detection(now)
        if nxt is None:
            return None
        return self.engine.timeout(nxt - now)

    def park(self, reqs: list[NotifyRequest],
             until: float | None = None) -> Generator[object, object, None]:
        """The one place a matching loop goes to sleep.

        Returns at once when the NIC already holds a notification or the
        clock reached ``until``; otherwise blocks on the next arrival,
        raced against :meth:`_death_timer` of ``reqs`` and the ``until``
        deadline.  The caller tests again after every return.
        """
        nic = self.ctx.nic
        if nic.notification_pending():
            return
        now = self.engine.now
        if until is not None and now >= until:
            return
        timer = self._death_timer(reqs)
        waits = [nic.notification_arrival()]
        if timer is not None:
            waits.append(timer)
        if until is not None:
            waits.append(self.engine.timeout(until - now))
        yield waits[0] if len(waits) == 1 else self.engine.any_of(waits)

    def wait(self, req: NotifyRequest) -> Generator[object, object, Status]:
        """Block until the request completes; returns the status of the
        **last** matching notified access.

        Raises :class:`~repro.errors.FaultError` at the failure-detection
        latency when the request's (specific) source rank has died and the
        request cannot complete — see :meth:`_death_timer`.
        """
        reqs = [req]
        while True:
            done = yield from self.test(req)
            if done:
                assert req.last_status is not None
                return req.last_status
            yield from self.park(reqs)

    def probe(self, win: Window, source: int = ANY_SOURCE,
              tag: int = ANY_TAG) -> Generator[object, object,
                                               Status | None]:
        """Nonblocking probe of queued notifications (the paper notes probe
        semantics "can be added trivially")."""
        # Pull anything pending off the hardware queues into the UQ first.
        nic = self.ctx.nic
        cost = T_TEST_BASE * self._scale
        while True:
            cqe = nic.poll_notification()
            if cqe is None:
                break
            s, t = decode_immediate(cqe.immediate)
            self.uq.append(cqe.win_id, s, t, cqe.nbytes, cqe.time,
                           san=cqe.san)
            cost += (T_POLL + T_APPEND) * self._scale
        yield self.engine.timeout(cost)
        entry = self.uq.peek_match(win.id, source, tag)
        if entry is None:
            return None
        if self._san is not None:
            self._san.acquire_op(self.rank, entry.san)
        return Status(source=entry.source, tag=entry.tag,
                      count=entry.nbytes)

    # ------------------------------------------------------------------
    # multi-request completion
    # ------------------------------------------------------------------
    def testany(self, reqs: list[NotifyRequest]
                ) -> Generator[object, object, int | None]:
        """One matching pass over ``reqs``; returns the index of the first
        completed request, or None.

        A test of one request drains non-matching notifications into the
        UQ, where the other requests' tests find them — so a testany sweep
        costs one CQ drain plus per-request structure checks.
        """
        if not reqs:
            raise MatchingError("testany over an empty request list")
        for i, req in enumerate(reqs):
            done = yield from self.test(req)
            if done:
                return i
        return None

    def waitany(self, reqs: list[NotifyRequest], until: float | None = None
                ) -> Generator[object, object, tuple[int, Status] | None]:
        """Block until any request completes; returns (index, status), or
        None once the clock has reached ``until`` with nothing complete.

        A sweep's test of a later request can park a notification in the
        UQ that an *earlier* request of the same sweep matches; the NIC
        is then empty and sleeping on it would lose the wakeup, so a
        sweep that appended to the UQ is repeated instead.

        Fails fast (:class:`~repro.errors.FaultError`) only when *every*
        request is source-specific to a detected-dead rank; as long as one
        request could still be matched by a live rank the wait stays up.
        """
        uq = self.uq
        while until is None or self.engine.now < until:
            appended = uq.appended
            idx = yield from self.testany(reqs)
            if idx is not None:
                status = reqs[idx].last_status
                assert status is not None
                return idx, status
            if uq.appended == appended:
                yield from self.park(reqs, until)
        return None

    def waitall(self, reqs: list[NotifyRequest]
                ) -> Generator[object, object, list[Status]]:
        """Block until every request completes; returns their statuses."""
        for req in reqs:
            yield from self.wait(req)
        return [req.last_status for req in reqs]  # type: ignore[misc]

    # ------------------------------------------------------------------
    # §III's rejected alternative: notified synchronization
    # ------------------------------------------------------------------
    def flush_notify(self, win: Window, target: int,
                     tag: int = 0) -> Generator[object, object, None]:
        """A *notified flush*: notify the target that all previous accesses
        to it have completed (§III's alternative design).

        The paper rejects this as the primary mechanism because it always
        needs at least two network transfers per producer-consumer handoff
        where a notified access needs one, and because the piggy-backed
        ordering is only free on in-order paths.  Both effects are modelled:

        * if every pending access to ``target`` took the same in-order path
          (the FMA engine, or intra-node), the zero-byte notification is
          simply pipelined behind them — two transfers, no round trip;
        * otherwise (any BTE transfer — a separately queued engine, like an
          adaptively routed network) ordering cannot be piggy-backed and the
          implementation must first wait for remote completion, adding the
          round trip the paper warns about.
        """
        # A window sweeps out completed FMA-sized handles only: a BTE one
        # stays until the flush, so this still sees the path out of order.
        pending = win._pending.get(target, [])
        same_node = self.ctx.machine.same_node(self.rank, target)
        in_order = all(
            (h.nbytes <= self.params.fma_max or same_node)
            for h in pending)
        if not in_order:
            yield from win.flush(target)
        yield from self.put_notify(win, np.empty(0, dtype=np.uint8),
                                   target, 0, tag=tag)
