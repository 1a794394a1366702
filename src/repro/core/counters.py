"""Hardware completion counters — the §VIII extension.

Some networks (e.g. Blue Gene/Q) increment a memory counter from the NIC
after an access completes.  The paper sketches how Notified Access could use
this: for *deterministic* matches (no wildcards), the target sets up a
static counter during ``notify_init`` and tells the source about it; test
and wait then "simply check this counter at lowest overheads".

This module implements that design:

* :class:`CounterCell` — an 8-byte counter in the target's address space,
  incremented by the fabric at data-commit time (no CQ entry at all);
* :meth:`CounterEngine.counter_init` — allocates the cell and registers the
  route with the source (charged one wire round trip, the init-time contact
  §VIII describes);
* :meth:`CounterEngine.put_counted` — a put that bumps the registered remote
  counter on commit;
* :meth:`CounterEngine.start` / ``test`` / ``wait`` — completion by reading
  the local counter word: a single potential cache miss and a fraction of
  the queue-matching cost.

Wildcards are rejected: counter routing is static by design.
"""

from __future__ import annotations

from collections.abc import Generator
from functools import partial

import numpy as np

from repro.errors import MatchingError
from repro.mpi.constants import ANY_SOURCE, ANY_TAG
from repro.mpi.status import Status
from repro.rma.window import Window

#: CPU cost of one counter check (a load and a compare), µs
T_COUNTER_TEST = 0.01


class CounterCell:
    """An 8-byte completion counter living in a rank's address space."""

    __slots__ = ("region", "addr", "space", "signal", "increments",
                 "clocks")

    def __init__(self, ctx):
        self.region = ctx.space.alloc(8, align=64)
        self.addr = self.region.addr
        self.space = ctx.space
        from repro.sim.resources import Signal
        self.signal = Signal(ctx.engine, name=f"ctr:{ctx.rank}")
        self.increments = 0
        #: per-increment sanitizer clock of the committing put (or None)
        self.clocks: list = []
        self._store(0)

    def _store(self, value: int) -> None:
        self.space.mem[self.addr:self.addr + 8].view(np.int64)[0] = value

    @property
    def value(self) -> int:
        return int(self.space.mem[self.addr:self.addr + 8].view(
            np.int64)[0])

    def increment(self, nbytes: int, san_clock=None) -> None:
        """Called by the fabric at commit time (the NIC-side update)."""
        self._store(self.value + 1)
        self.increments += 1
        self.clocks.append(san_clock)
        self.signal.fire(nbytes)

    def free(self) -> None:
        self.region.free()


class CounterRequest:
    """A persistent completion-counter request (deterministic matching)."""

    __slots__ = ("win", "source", "tag", "expected", "cell", "consumed",
                 "active", "freed")

    def __init__(self, win: Window, source: int, tag: int, expected: int,
                 cell: CounterCell):
        self.win = win
        self.source = source
        self.tag = tag
        self.expected = expected
        self.cell = cell
        self.consumed = 0         # counter value already claimed
        self.active = False
        self.freed = False

    @property
    def completed(self) -> bool:
        return self.cell.value - self.consumed >= self.expected

    def _check_usable(self) -> None:
        if self.freed:
            raise MatchingError("use of a freed counter request")


class CounterEngine:
    """Per-rank driver for counter-based notified accesses."""

    __slots__ = ("ctx", "rank", "engine", "params", "routes")

    def __init__(self, ctx):
        self.ctx = ctx
        self.rank = ctx.rank
        self.engine = ctx.engine
        self.params = ctx.params
        #: routes this rank may increment: (win_id, target, tag) -> cell
        self.routes: dict[tuple[int, int, int], CounterCell] = {}

    # -- target side --------------------------------------------------------
    def counter_init(self, win: Window, source: int, tag: int,
                     expected_count: int = 1
                     ) -> Generator[object, object, CounterRequest]:
        """Set up a static counter and register it with ``source``.

        Charged ``t_init`` plus one wire round trip — the init-time contact
        with the source that §VIII describes.  Wildcards are rejected:
        counter routing is static.
        """
        if source in (ANY_SOURCE,) or tag in (ANY_TAG,):
            raise MatchingError(
                "completion counters need deterministic matches "
                "(no wildcards), per §VIII")
        if not 0 <= source < win.shared.nranks:
            raise MatchingError(f"source rank {source} out of range")
        if not 0 <= tag <= 0xFFFF:
            raise MatchingError(f"tag {tag} outside 16 significant bits")
        if expected_count < 1:
            raise MatchingError("expected_count must be >= 1")
        cell = CounterCell(self.ctx)
        req = CounterRequest(win, source, tag, expected_count, cell)
        # Register the route at the source (modelled as a control round
        # trip; the registry write itself is instantaneous bookkeeping).
        src_engine = self.ctx.cluster.ranks[source].counters
        src_engine.routes[(win.id, self.rank, tag)] = cell
        same = self.ctx.machine.same_node(self.rank, source)
        rtt = (2 * self.params.shm.L if same else 2 * self.params.fma.L)
        yield self.params.t_init + (0.0 if source == self.rank else rtt)
        return req

    def start(self, req: CounterRequest) -> Generator[object, object, None]:
        req._check_usable()
        if req.active:
            raise MatchingError("start on an already-active request")
        req.active = True
        yield self.params.t_start

    def test(self, req: CounterRequest) -> Generator[object, object, bool]:
        """One counter check: a load and a compare (§VIII: "lowest
        overheads")."""
        req._check_usable()
        if not req.active:
            raise MatchingError("test on an inactive request")
        self.ctx.cache.touch(req.cell.addr, 8, label="na-counter")
        yield T_COUNTER_TEST
        return req.completed

    def wait(self, req: CounterRequest) -> Generator[object, object, Status]:
        """Block until the counter crosses its threshold.

        Counter routes are always source-specific (wildcards are rejected
        at init), so a dead source raises :class:`~repro.errors.FaultError`
        naming it at ``death + detect_us``
        (:meth:`~repro.network.fabric.Nic.block`).
        """
        while True:
            done = yield from self.test(req)
            if done:
                san = getattr(self.ctx.cluster, "sanitizer", None)
                if san is not None:
                    # Acquire exactly the increments this wait consumes:
                    # the counter proves those commits, nothing more.
                    lo = req.consumed
                    san.acquire_many(self.rank,
                                     req.cell.clocks[lo:lo + req.expected])
                req.consumed += req.expected
                req.active = False   # satisfied; start() re-arms it
                return Status(source=req.source, tag=req.tag)
            yield self.ctx.nic.block(req.cell.signal.wait(), [req.source],
                                     "counter")

    def request_free(self,
                     req: CounterRequest) -> Generator[object, object, None]:
        req._check_usable()
        if req.active:
            raise MatchingError("freeing an active counter request")
        src_engine = self.ctx.cluster.ranks[req.source].counters
        src_engine.routes.pop((req.win.id, self.rank, req.tag), None)
        req.cell.free()
        req.freed = True
        yield self.params.t_free

    # -- origin side --------------------------------------------------------
    def put_counted(self, win: Window, data: np.ndarray, target: int,
                    target_disp: int = 0,
                    tag: int = 0) -> Generator[object, object, object]:
        """A put whose commit increments the registered remote counter."""
        cell = self.routes.get((win.id, target, tag))
        if cell is None:
            raise MatchingError(
                f"no counter registered at rank {target} for "
                f"(win={win.id}, tag={tag}); call counter_init there first")
        # NIC-side counter update at commit time (never for a transfer
        # the fault layer declared lost).
        data = np.ascontiguousarray(data)
        return (yield from win._issue(
            self.ctx.fabric.put, target,
            win.shared.target_addr(target, target_disp, data.nbytes),
            (data,), commit=partial(cell.increment, data.nbytes)))
