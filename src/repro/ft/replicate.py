"""Replicated windows: mirrored notified puts with notification failover.

The write path of Besta & Hoefler's RMA fault-tolerance scheme: every
update is mirrored to R replica ranks as a notified put, and the writer
waits for R zero-byte credit acks (one counting
:class:`~repro.core.nrequest.NotifyRequest` with ``expected_count=R``)
before considering the write durable.  When the fault injector kills a
replica before it acked, :meth:`ReplicatedWindow.wait_acks` re-points
the outstanding credit at the next live rank of the replica chain — the
waiter never sees the failover unless the chain runs dry, in which case
it fails fast with :class:`~repro.errors.FaultError` naming the dead
rank instead of hanging.

Everything is put-class-only (mirrored notified puts out, zero-byte
credit acks back), so replicated workloads keep the sharded core's
byte-identical guarantee under node-failure-only fault plans.

Tag discipline: a credit request's tag must be unique among the writer's
outstanding replicated puts.  After a failover both the original (dead)
replica's ack and the replacement's ack can arrive for the same tag when
the original acked right before dying; the extra credit lands in the
unexpected queue and must not alias a *future* request — unique tags
(e.g. a per-writer request counter) guarantee that.
"""

from __future__ import annotations

from collections.abc import Callable, Generator, Sequence

import numpy as np

from repro.errors import FaultError
from repro.ft.detector import FailureDetector
from repro.rma.window import Window


class ReplicatedPut:
    """One mirrored write: its replica set and failover bookkeeping."""

    __slots__ = ("primary", "targets", "data", "disp", "tag", "failovers",
                 "issued_at")

    def __init__(self, primary: int, targets: list[int], data: np.ndarray,
                 disp: int, tag: int, issued_at: float):
        self.primary = primary
        #: current replica set; failover replaces dead members in place
        self.targets = targets
        self.data = data
        self.disp = disp
        self.tag = tag
        self.failovers = 0
        self.issued_at = issued_at


class ReplicatedWindow:
    """Facade mirroring every notified put to R replica ranks.

    ``chain(primary)`` gives the full replica preference order for a
    primary rank (primary first); the facade writes to the first R ranks
    of the chain not yet detected dead, and failover walks further down
    the same chain.  The chain must be a pure function of its argument
    (no RNG, no wall-clock state) so replica choice is deterministic.
    """

    def __init__(self, ctx, win: Window,
                 chain: Callable[[int], Sequence[int]],
                 replication: int,
                 detector: FailureDetector | None = None):
        if replication < 1:
            raise FaultError(f"replication must be >= 1, got {replication}")
        self.ctx = ctx
        self.win = win
        self.chain = chain
        self.replication = replication
        self.det = detector if detector is not None else FailureDetector(ctx)

    # ------------------------------------------------------------------
    def targets(self, primary: int) -> list[int]:
        """The replica set for ``primary`` as of now: first R live ranks
        of the chain.  Raises :class:`FaultError` when the whole chain is
        detected dead (replication exhausted before issue)."""
        live = self.det.live(self.chain(primary))
        if not live:
            raise FaultError(
                f"replication exhausted: every replica in rank "
                f"{primary}'s chain is detected dead")
        return list(live[:self.replication])

    def put_notify(self, data: np.ndarray, primary: int, disp: int,
                   tag: int, targets: Sequence[int] | None = None
                   ) -> Generator[object, object, ReplicatedPut]:
        """Mirror one notified put to the primary's live replica set.

        Returns the :class:`ReplicatedPut` to later pass to
        :meth:`wait_acks` together with the writer's credit request
        (``expected_count`` must equal ``len(put.targets)``).  Pass
        ``targets`` to pin a replica set computed earlier (e.g. before
        sizing the credit request) — time passes between the two steps,
        and a detection landing in between must not skew the set.
        """
        targets = (list(targets) if targets is not None
                   else self.targets(primary))
        raw = np.ascontiguousarray(data).copy()
        for t in targets:
            yield from self.ctx.na.put_notify(self.win, raw, t, disp,
                                              tag=tag)
        return ReplicatedPut(primary, targets, raw, disp, tag,
                             self.ctx.now)

    # ------------------------------------------------------------------
    def _replacement(self, put: ReplicatedPut, now: float) -> int | None:
        """Next live chain member not already in the replica set."""
        for r in self.chain(put.primary):
            if r not in put.targets and not self.det.detected(r, now):
                return r
        return None

    def wait_acks(self, req, put: ReplicatedPut
                  ) -> Generator[object, object, object]:
        """Wait for the put's credit acks, failing over dead replicas.

        ``req`` is the writer's counting credit request
        (``expected_count == len(put.targets)``, wildcard source).  The
        loop sleeps like ``na.wait`` (``na.park``: arrivals raced against
        the next detection instant): when a replica that has not acked
        is detected dead, the mirrored put is re-issued to the next live
        chain member (which acks the same tag), keeping the expected
        credit count reachable.  When no live replacement exists the wait
        raises :class:`FaultError` naming the dead rank — fail fast, not
        a hang.  Returns the status of the count-crossing ack.
        """
        na = self.ctx.na
        while True:
            done = yield from na.test(req)
            if done:
                return req.last_status
            now = self.ctx.now
            acked = {s for s, _, _ in req.match_log}
            dead = [t for t in put.targets
                    if t not in acked and self.det.detected(t, now)]
            if dead:
                for t in dead:
                    repl = self._replacement(put, now)
                    if repl is None:
                        when = self.det.death_time(t)
                        raise FaultError(
                            f"replication exhausted for tag {put.tag} on "
                            f"rank {self.ctx.rank}: replica rank {t} is "
                            f"down since t={when:g}us and no live "
                            f"replacement remains in the chain")
                    put.targets[put.targets.index(t)] = repl
                    put.failovers += 1
                    yield from na.put_notify(self.win, put.data, repl,
                                             put.disp, tag=put.tag)
                continue
            yield from na.park([req])
