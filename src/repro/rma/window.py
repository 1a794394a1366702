"""RMA windows: allocation, accesses, and synchronization epochs.

A window is created collectively (every rank calls :func:`win_allocate` in
the same order).  Each rank's window memory is a region of its address
space, preceded by a 64-byte header holding the passive-target lock word.

Epoch rules follow MPI-3 semantics: accesses are legal only inside a fence
epoch, a PSCW access epoch (towards the ranks in the started group), or a
held lock.  Notified accesses are exempt — per §III of the paper they "form
their own epoch and do not interact with normal remote accesses" — but they
still count as pending operations for ``flush``.
"""

from __future__ import annotations

import itertools
from collections.abc import Generator

import numpy as np

from repro.errors import RmaEpochError
from repro.memory.address import Region
from repro.network.fabric import OpHandle

#: window header bytes (lock word and padding) before the user data
WIN_HEADER = 64
#: ctrl-message sizes for PSCW (bytes)
PSCW_MSG_BYTES = 16
#: fewest ops a window records between two sweeps of completed handles
_SWEEP_MIN = 4

_EPOCH_NONE = "none"
_EPOCH_FENCE = "fence"
_EPOCH_PSCW = "pscw"
_EPOCH_LOCK = "lock"
_EPOCH_LOCK_ALL = "lock_all"


class WindowRegistry:
    """Cluster-level coordination of collective window allocation.

    Window identity is positional: every rank's *n*-th ``win_allocate`` call
    names the same window, exactly like the matching requirement on MPI
    collectives.
    """

    def __init__(self, nranks: int):
        self.nranks = nranks
        self._call_idx = [0] * nranks
        self._shared: dict[int, "_SharedWin"] = {}
        self._ids = itertools.count(1)

    def attach(self, rank: int) -> "_SharedWin":
        idx = self._call_idx[rank]
        self._call_idx[rank] += 1
        shared = self._shared.get(idx)
        if shared is None:
            shared = _SharedWin(win_id=next(self._ids), nranks=self.nranks)
            self._shared[idx] = shared
        return shared


class _SharedWin:
    """State shared by all ranks of one window."""

    def __init__(self, win_id: int, nranks: int):
        self.win_id = win_id
        self.nranks = nranks
        self.bases: dict[int, int] = {}     # rank -> user-data base address
        self.header: dict[int, int] = {}    # rank -> header (lock word) addr
        self.sizes: dict[int, int] = {}
        self.disp_units: dict[int, int] = {}

    def register(self, rank: int, region: Region, disp_unit: int) -> None:
        self.header[rank] = region.addr
        self.bases[rank] = region.addr + WIN_HEADER
        self.sizes[rank] = region.nbytes - WIN_HEADER
        self.disp_units[rank] = disp_unit

    def target_addr(self, target: int, disp: int, nbytes: int) -> int:
        base = self.bases[target]
        off = disp * self.disp_units[target]
        if off < 0 or off + nbytes > self.sizes[target]:
            raise RmaEpochError(
                f"access [{off}, {off + nbytes}) outside window of "
                f"{self.sizes[target]} bytes at rank {target}")
        return base + off


def win_allocate(ctx, nbytes: int,
                 disp_unit: int = 1) -> Generator[object, object, "Window"]:
    """Collectively allocate a window of ``nbytes`` local bytes per rank."""
    shared = ctx.cluster.win_registry.attach(ctx.rank)
    region = ctx.space.alloc(nbytes + WIN_HEADER)
    region.ndarray()[:] = 0
    shared.register(ctx.rank, region, disp_unit)
    win = Window(ctx, shared, region)
    # Window creation is collective: synchronize like MPI_Win_allocate.
    yield from ctx.comm.barrier()
    return win


class Window:
    """One rank's handle on a collectively allocated window."""

    def __init__(self, ctx, shared: _SharedWin, region: Region):
        self.ctx = ctx
        self.shared = shared
        self.region = region
        self.id = shared.win_id
        self.rank = ctx.rank
        #: target -> the handles a flush of it waits on, keyed in order of
        #: the first op since the target's last flush.  A sweep may empty a
        #: list but keeps its key, so every flush yields exactly when it
        #: would if no handle were ever dropped.
        self._pending: dict[int, list[OpHandle]] = {}
        #: targets whose list held handles at or since the last sweep
        self._holding: set[int] = set()
        #: ops to record before the next sweep.  A sanitized window never
        #: sweeps (the countdown starts at 0 and steps past it): the
        #: tracker acquires through every handle at the flush.
        self._sweep_in = 0 if self._san is not None else _SWEEP_MIN
        self._epoch = _EPOCH_NONE
        self._access_group: set[int] | None = None
        self._locked: set[int] = set()
        self.freed = False

    # -- local memory --------------------------------------------------
    def local(self, dtype=np.uint8, offset: int = 0,
              count: int | None = None,
              mode: str = "rw") -> np.ndarray:
        """NumPy view of this rank's window memory.

        ``mode`` ("rw", "r", or "raw") is the sanitizer access annotation,
        see :meth:`repro.memory.address.Region.ndarray`.
        """
        return self.region.ndarray(dtype, offset=WIN_HEADER + offset,
                                   count=count, mode=mode)

    @property
    def _san(self):
        return getattr(self.ctx.cluster, "sanitizer", None)

    @property
    def local_size(self) -> int:
        return self.shared.sizes[self.rank]

    # -- epoch bookkeeping ----------------------------------------------
    def _check_access(self, target: int) -> None:
        if self.freed:
            raise RmaEpochError("access on a freed window")
        if self._epoch == _EPOCH_FENCE:
            return
        if self._epoch == _EPOCH_PSCW:
            if self._access_group is not None and target in self._access_group:
                return
            raise RmaEpochError(
                f"PSCW access epoch does not include target {target}")
        if self._epoch in (_EPOCH_LOCK, _EPOCH_LOCK_ALL):
            if self._epoch == _EPOCH_LOCK and target not in self._locked:
                raise RmaEpochError(f"no lock held on target {target}")
            return
        raise RmaEpochError(
            "RMA access outside an epoch (call fence, start, lock, or "
            "lock_all first)")

    def record_pending(self, target: int, handle: OpHandle) -> None:
        self._pending.setdefault(target, []).append(handle)
        self._holding.add(target)
        self._sweep_in -= 1
        if self._sweep_in == 0:
            self._sweep()

    def _sweep(self) -> None:
        """Drop the handles no flush can still wait on.

        That is an op whose remote leg succeeded (no local leg completes
        after its remote one), unless it is BTE-sized: ``flush_notify``
        must still see that the target's path is out of order.  A lost op
        stays, so that its flush raises.  Only targets recorded since the
        last sweep, or still holding handles, are visited, and the next
        sweep waits for as many ops as this one kept: O(1) per op however
        many targets the window has seen.
        """
        pending = self._pending
        fma_max = self.ctx.params.fma_max
        holding = set()
        kept = 0
        for target in self._holding:
            handles = pending.get(target)
            if handles:
                handles[:] = [h for h in handles
                              if not h.remote_done.processed or h.failed
                              or h.nbytes > fma_max]
                if handles:
                    holding.add(target)
                    kept += len(handles)
        self._holding = holding
        self._sweep_in = max(kept, _SWEEP_MIN)

    def _issue(self, fn, *args, **kw):
        """Charge o_send (the software call cost, before injection), run the
        fabric operation, then charge the engine's CPU occupancy."""
        yield self.ctx.engine.timeout(self.ctx.params.o_send)
        h = fn(*args, **kw)
        if h.cpu_busy:
            yield self.ctx.engine.timeout(h.cpu_busy)
        return h

    # -- data movement ----------------------------------------------------
    def put(self, data: np.ndarray, target: int,
            target_disp: int = 0) -> Generator[object, object, OpHandle]:
        """One-sided write of ``data`` to ``target`` at ``target_disp``."""
        self._check_access(target)
        nbytes = int(np.ascontiguousarray(data).nbytes)
        addr = self.shared.target_addr(target, target_disp, nbytes)
        h = yield from self._issue(self.ctx.fabric.put, self.rank, target,
                                   addr, data, win_id=self.id)
        self.record_pending(target, h)
        return h

    def get(self, buf_region: Region, target: int, target_disp: int = 0,
            nbytes: int | None = None,
            local_offset: int = 0) -> Generator[object, object, OpHandle]:
        """One-sided read from ``target`` into ``buf_region``."""
        self._check_access(target)
        if nbytes is None:
            nbytes = buf_region.nbytes - local_offset
        addr = self.shared.target_addr(target, target_disp, nbytes)
        h = yield from self._issue(self.ctx.fabric.get, self.rank, target,
                                   addr, nbytes,
                                   buf_region.addr + local_offset,
                                   win_id=self.id)
        self.record_pending(target, h)
        return h

    def accumulate(self, data: np.ndarray, target: int,
                   target_disp: int = 0, op: str = "sum",
                   dtype=np.float64) -> Generator[object, object, OpHandle]:
        """MPI_Accumulate: element-wise remote update."""
        self._check_access(target)
        nbytes = int(np.ascontiguousarray(data).nbytes)
        addr = self.shared.target_addr(target, target_disp, nbytes)
        h = yield from self._issue(self.ctx.fabric.put, self.rank, target,
                                   addr, data, win_id=self.id,
                                   accumulate=op, acc_dtype=dtype)
        self.record_pending(target, h)
        return h

    def fetch_and_op(self, operand: int, target: int, target_disp: int = 0,
                     op: str = "sum",
                     dtype=np.int64) -> Generator[object, object, int]:
        """Atomic fetch-and-op on one element; returns the old value."""
        self._check_access(target)
        itemsize = np.dtype(dtype).itemsize
        addr = self.shared.target_addr(target, target_disp, itemsize)
        h = yield from self._issue(self.ctx.fabric.amo, self.rank, target,
                                   addr, op, operand, dtype=dtype,
                                   win_id=self.id)
        old = yield h.remote_done
        if self._san is not None:
            # The fetched value orders this rank after the atomic (and,
            # through the location clock, after whoever stored the value).
            self._san.acquire_op(self.rank, h.san_remote)
        return old

    def compare_and_swap(self, operand: int, compare: int, target: int,
                         target_disp: int = 0,
                         dtype=np.int64) -> Generator[object, object, int]:
        """Atomic CAS on one element; returns the old value."""
        self._check_access(target)
        itemsize = np.dtype(dtype).itemsize
        addr = self.shared.target_addr(target, target_disp, itemsize)
        h = yield from self._issue(self.ctx.fabric.amo, self.rank, target,
                                   addr, "cas", operand, compare=compare,
                                   dtype=dtype, win_id=self.id)
        old = yield h.remote_done
        if self._san is not None:
            self._san.acquire_op(self.rank, h.san_remote)
        return old

    # -- completion --------------------------------------------------------
    def flush(self, target: int) -> Generator[object, object, None]:
        """Wait for remote completion of all pending ops to ``target``."""
        handles = self._pending.pop(target, None)
        if handles is not None:
            yield self.ctx.engine.all_of([h.remote_done for h in handles])
            san = self._san
            if san is not None:
                # Remote completion acknowledged: this rank is ordered
                # after every flushed op's commit.
                for h in handles:
                    san.acquire_op(self.rank, h.san_remote)

    def flush_local(self, target: int) -> Generator[object, object, None]:
        """Wait for local completion only (origin buffers reusable).

        Handles whose remote completion already arrived are pruned so that
        per-message flush_local loops (e.g. the stencil) stay O(1).
        """
        handles = self._pending.get(target)
        if handles is not None:
            yield self.ctx.engine.all_of([h.local_done for h in handles])
            san = self._san
            if san is not None:
                # Only the *local* legs (a get's delivery into origin
                # memory).  A put's remote commit is deliberately NOT
                # acquired: flush_local does not order it.
                for h in handles:
                    san.acquire_op(self.rank, h.san_local)
            handles[:] = [h for h in handles
                          if not h.remote_done.processed]
            if not handles:
                self._pending.pop(target, None)

    def flush_all(self) -> Generator[object, object, None]:
        targets = list(self._pending)
        for t in targets:
            yield from self.flush(t)

    def flush_local_all(self) -> Generator[object, object, None]:
        for t in list(self._pending):
            yield from self.flush_local(t)

    # -- active target: fence -----------------------------------------------
    def fence(self) -> Generator[object, object, None]:
        """Collective fence: completes pending ops and synchronizes all."""
        if self.freed:
            raise RmaEpochError("fence on a freed window")
        yield from self.flush_all()
        yield from self.ctx.comm.barrier()
        self._epoch = _EPOCH_FENCE
        self._access_group = None

    def fence_end(self) -> Generator[object, object, None]:
        """Close the fence epoch (MPI_Win_fence with MPI_MODE_NOSUCCEED)."""
        yield from self.flush_all()
        yield from self.ctx.comm.barrier()
        self._epoch = _EPOCH_NONE

    # -- active target: PSCW ---------------------------------------------
    def post(self, origins: list[int]) -> Generator[object, object, None]:
        """Expose this window to ``origins`` (MPI_Win_post)."""
        for o in origins:
            if o == self.rank:
                continue
            h = self.ctx.fabric.send_sys(
                self.rank, o, f"pscw-post-{self.id}", PSCW_MSG_BYTES)
            if h.cpu_busy:
                yield self.ctx.engine.timeout(h.cpu_busy)

    def start(self, targets: list[int]) -> Generator[object, object, None]:
        """Open an access epoch towards ``targets`` (MPI_Win_start)."""
        if self._epoch not in (_EPOCH_NONE,):
            raise RmaEpochError(f"start inside epoch {self._epoch!r}")
        yield from self.ctx.endpoint.ctrl_wait(
            f"pscw-post-{self.id}", [t for t in targets if t != self.rank])
        self._epoch = _EPOCH_PSCW
        self._access_group = set(targets)

    def complete(self) -> Generator[object, object, None]:
        """Close the access epoch (MPI_Win_complete)."""
        if self._epoch != _EPOCH_PSCW:
            raise RmaEpochError("complete without a started access epoch")
        yield from self.flush_all()
        for t in sorted(self._access_group or ()):
            if t == self.rank:
                continue
            h = self.ctx.fabric.send_sys(
                self.rank, t, f"pscw-complete-{self.id}", PSCW_MSG_BYTES)
            if h.cpu_busy:
                yield self.ctx.engine.timeout(h.cpu_busy)
        self._epoch = _EPOCH_NONE
        self._access_group = None

    def wait(self, origins: list[int]) -> Generator[object, object, None]:
        """Close the exposure epoch (MPI_Win_wait)."""
        yield from self.ctx.endpoint.ctrl_wait(
            f"pscw-complete-{self.id}",
            [o for o in origins if o != self.rank])

    # -- passive target ------------------------------------------------------
    def lock(self, target: int,
             exclusive: bool = False) -> Generator[object, object, None]:
        """Open a passive-target epoch; exclusive locks spin on a CAS."""
        if self._epoch not in (_EPOCH_NONE, _EPOCH_LOCK):
            raise RmaEpochError(f"lock inside epoch {self._epoch!r}")
        if exclusive:
            lock_addr = self.shared.header[target]
            while True:
                h = yield from self._issue(
                    self.ctx.fabric.amo, self.rank, target, lock_addr,
                    "cas", self.rank + 1, compare=0, win_id=self.id)
                old = yield h.remote_done
                if old == 0:
                    if self._san is not None:
                        # Lock acquired: ordered after the unlock whose 0
                        # this CAS observed (via the lock-word clock).
                        self._san.acquire_op(self.rank, h.san_remote)
                    break
        self._locked.add(target)
        self._epoch = _EPOCH_LOCK

    def unlock(self, target: int,
               exclusive: bool = False) -> Generator[object, object, None]:
        if target not in self._locked:
            raise RmaEpochError(f"unlock without lock on target {target}")
        yield from self.flush(target)
        if exclusive:
            lock_addr = self.shared.header[target]
            h = yield from self._issue(self.ctx.fabric.amo, self.rank,
                                       target, lock_addr, "replace", 0,
                                       win_id=self.id)
            yield h.remote_done
            if self._san is not None:
                self._san.acquire_op(self.rank, h.san_remote)
        self._locked.discard(target)
        if not self._locked:
            self._epoch = _EPOCH_NONE

    def lock_all(self) -> Generator[object, object, None]:
        """Shared lock on every target (the foMPI passive-target mode)."""
        if self._epoch != _EPOCH_NONE:
            raise RmaEpochError(f"lock_all inside epoch {self._epoch!r}")
        self._epoch = _EPOCH_LOCK_ALL
        return
        yield  # pragma: no cover - generator marker

    def unlock_all(self) -> Generator[object, object, None]:
        if self._epoch != _EPOCH_LOCK_ALL:
            raise RmaEpochError("unlock_all without lock_all")
        yield from self.flush_all()
        self._epoch = _EPOCH_NONE

    # -- teardown ------------------------------------------------------------
    def free(self) -> Generator[object, object, None]:
        """Collective window free."""
        if self._epoch not in (_EPOCH_NONE, _EPOCH_FENCE):
            raise RmaEpochError(f"free inside epoch {self._epoch!r}")
        yield from self.flush_all()
        yield from self.ctx.comm.barrier()
        self.region.free()
        self.freed = True


def win_create(ctx, region: Region,
               disp_unit: int = 1) -> Generator[object, object, "Window"]:
    """Collectively create a window over an **existing** region
    (MPI_Win_create semantics, vs ``win_allocate``'s fresh memory).

    The first ``WIN_HEADER`` bytes of the region are reserved for the
    window header (lock word); user data starts after it, so the region
    must be at least ``WIN_HEADER`` bytes larger than the exposed memory.
    """
    if region.nbytes <= WIN_HEADER:
        raise RmaEpochError(
            f"region of {region.nbytes} B too small for a window "
            f"(needs > {WIN_HEADER} B of header)")
    shared = ctx.cluster.win_registry.attach(ctx.rank)
    region.ndarray()[:WIN_HEADER] = 0
    shared.register(ctx.rank, region, disp_unit)
    win = Window(ctx, shared, region)
    yield from ctx.comm.barrier()
    return win
