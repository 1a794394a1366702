"""Epoch checkpoints: window bytes + notification match state.

A checkpoint captures, per rank, (1) the raw bytes of a set of windows
and (2) the match state of outstanding
:class:`~repro.core.nrequest.NotifyRequest` objects — matched count,
activity, last status, and the match log.  Restoring writes both back,
so a rank resumes matching exactly where the epoch boundary left it:
the same waits complete on the same future notifications, deterministic
by construction (the snapshot is plain data, no RNG, no wall clock).

:func:`checkpoint` is a *collective*: it brackets the snapshot in
barriers so every rank captures the same epoch cut.  The caller must
quiesce its own traffic first (flush outstanding puts, match or drain
in-flight notifications) — a snapshot taken under unsynchronized remote
writes is a data race, and the synchronization sanitizer reports it as
such (the whole-window read carries a ``mode="r"`` annotation).

Checkpoints are charged like a local memcpy of the captured bytes
(``shm`` gap per byte plus a fixed base), so checkpoint frequency is a
measurable cost, not a free action.

For shipping a checkpoint to a buddy rank over the fabric, :func:`pack`
serializes the window bytes into one ``uint8`` payload suitable for a
single notified put, and :func:`unpack_windows` splits it back given
the (globally known) window sizes.  The kv service's ft mode uses this
to mirror each server's applied state to a buddy (see
``repro.apps.services.kv``).
"""

from __future__ import annotations

from collections.abc import Generator, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ReproError
from repro.rma.window import Window

#: fixed software cost of cutting one checkpoint, µs
T_CKPT_BASE = 0.5


@dataclass
class RequestState:
    """Snapshot of one NotifyRequest's match state."""

    matched: int
    expected: int
    active: bool
    starts: int
    completions: int
    last_status: object
    match_log: tuple


@dataclass
class Checkpoint:
    """One rank's epoch snapshot (windows by id + request states)."""

    epoch: int
    rank: int
    taken_at: float
    windows: dict[int, np.ndarray] = field(default_factory=dict)
    requests: list[tuple[object, RequestState]] = field(default_factory=list)

    @property
    def nbytes(self) -> int:
        return sum(int(a.nbytes) for a in self.windows.values())


def _snapshot_request(req) -> RequestState:
    return RequestState(matched=req.matched, expected=req.expected,
                        active=req.active, starts=req.starts,
                        completions=req.completions,
                        last_status=req.last_status,
                        match_log=tuple(req.match_log))


def _copy_cost(ctx, nbytes: int) -> float:
    return T_CKPT_BASE + nbytes * ctx.params.shm.G


def checkpoint(ctx, windows: Sequence[Window], requests: Sequence = (),
               epoch: int = 0, collective: bool = True
               ) -> Generator[object, object, Checkpoint]:
    """Cut an epoch checkpoint of ``windows`` and ``requests``.

    With ``collective=True`` (the default) the snapshot is bracketed in
    barriers: the entry barrier makes every rank's pre-epoch traffic
    visible before anyone snapshots, the exit barrier keeps post-epoch
    traffic out of everyone's snapshot.  Set ``collective=False`` for a
    local snapshot inside an already-synchronized protocol (e.g. the kv
    server's buddy shipping, which quiesces per-request instead).
    """
    if collective:
        yield from ctx.barrier()
    snap = Checkpoint(epoch=epoch, rank=ctx.rank, taken_at=ctx.now)
    total = 0
    for win in windows:
        data = win.local(np.uint8, 0, win.local_size, mode="r").copy()
        snap.windows[win.id] = data
        total += int(data.nbytes)
    for req in requests:
        snap.requests.append((req, _snapshot_request(req)))
    yield _copy_cost(ctx, total)
    snap.taken_at = ctx.now
    if collective:
        yield from ctx.barrier()
    return snap


def restore(ctx, snap: Checkpoint, windows: Sequence[Window],
            collective: bool = True) -> Generator[object, object, None]:
    """Deterministically restore a checkpoint cut by :func:`checkpoint`.

    ``windows`` must be the same windows (by id) the snapshot captured;
    request references travel inside the snapshot.  Restoring rewrites
    window bytes (a tracked ``rw`` access) and resets each request's
    match state — matched count, activity, last status, match log — to
    the epoch boundary.
    """
    if collective:
        yield from ctx.barrier()
    total = 0
    by_id = {w.id: w for w in windows}
    for win_id, data in snap.windows.items():
        win = by_id.get(win_id)
        if win is None:
            raise ReproError(
                f"restore: window id {win_id} not among the given windows")
        if win.local_size != data.nbytes:
            raise ReproError(
                f"restore: window {win_id} is {win.local_size} bytes, "
                f"snapshot has {data.nbytes}")
        win.local(np.uint8, 0, win.local_size, mode="rw")[:] = data
        total += int(data.nbytes)
    for req, st in snap.requests:
        req.matched = st.matched
        req.expected = st.expected
        req.active = st.active
        req.starts = st.starts
        req.completions = st.completions
        req.last_status = st.last_status
        req.match_log[:] = list(st.match_log)
    yield _copy_cost(ctx, total)
    if collective:
        yield from ctx.barrier()


def pack(snap: Checkpoint) -> np.ndarray:
    """Window bytes of a checkpoint as one contiguous uint8 payload.

    Windows concatenate in ascending window-id order; the layout is a
    pure function of the (globally known) window registry, so no header
    is needed on the wire.
    """
    parts = [snap.windows[i] for i in sorted(snap.windows)]
    if not parts:
        return np.empty(0, np.uint8)
    return np.concatenate(parts).astype(np.uint8, copy=False)


def unpack_windows(raw: np.ndarray, sizes: Sequence[int]) -> list[np.ndarray]:
    """Split a :func:`pack` payload back into per-window byte arrays."""
    raw = np.ascontiguousarray(raw).view(np.uint8).ravel()
    if int(raw.nbytes) != int(sum(sizes)):
        raise ReproError(
            f"packed checkpoint is {raw.nbytes} bytes, expected "
            f"{sum(sizes)}")
    out, pos = [], 0
    for s in sizes:
        out.append(raw[pos:pos + s].copy())
        pos += s
    return out
