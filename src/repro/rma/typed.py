"""Typed (derived-datatype) RMA and Notified Access operations.

These mirror the full signatures of the paper's interface —
``MPI_Put_notify(origin_addr, origin_count, origin_type, target_rank,
target_disp, target_count, target_type, win, tag)`` — for non-contiguous
layouts.  The origin packs (CPU pack cost charged unless the type is
contiguous); the wire moves the packed bytes in one transaction; the target
side is scattered by the NIC via the fabric's scatter-gather list.
"""

from __future__ import annotations

from collections.abc import Generator

import numpy as np

from repro.errors import RmaEpochError
from repro.memory.address import Region
from repro.mpi.datatypes import Datatype
from repro.network.cq import encode_immediate
from repro.network.fabric import OpHandle
from repro.rma.window import Window


def _target_blocks(win: Window, target: int, target_disp: int,
                   ttype: Datatype, count: int) -> list[tuple[int, int]]:
    """Absolute (addr, nbytes) blocks of ``count`` x ``ttype`` at target.
    :meth:`Window._issue` checks their span against the window."""
    shared = win.shared
    base = shared.bases[target] + target_disp * shared.disp_units[target]
    return [(base + c * ttype.extent + off, n)
            for c in range(count) for off, n in ttype.blocks]


def _pack(ctx, buf: np.ndarray, origin_type: Datatype, ttype: Datatype,
          count: int) -> Generator[object, object, np.ndarray]:
    """Pack ``count`` x ``origin_type`` from ``buf``, charging the CPU
    pack cost (none for a contiguous type)."""
    if origin_type.size != ttype.size:
        raise RmaEpochError(
            f"origin type packs {origin_type.size} B/element but target "
            f"type holds {ttype.size}")
    packed = origin_type.pack(buf, count)
    cost = origin_type.pack_cost(ctx.params, count)
    if cost:
        yield cost
    return packed


def put_typed(win: Window, buf: np.ndarray, origin_type: Datatype,
              target: int, target_disp: int = 0,
              target_type: Datatype | None = None, count: int = 1
              ) -> Generator[object, object, OpHandle]:
    """Typed one-sided write: pack ``count`` x ``origin_type`` from ``buf``
    and scatter into ``count`` x ``target_type`` at the target."""
    ttype = target_type or origin_type
    packed = yield from _pack(win.ctx, buf, origin_type, ttype, count)
    return (yield from win._issue(
        win.ctx.fabric.put, target,
        win._access(target, target_disp, count * ttype.extent), (packed,),
        {"scatter": _target_blocks(win, target, target_disp, ttype,
                                   count)}))


def get_typed(win: Window, buf: np.ndarray, origin_type: Datatype,
              origin_region: Region, target: int, target_disp: int = 0,
              target_type: Datatype | None = None, count: int = 1
              ) -> Generator[object, object, OpHandle]:
    """Typed one-sided read: gather ``count`` x ``target_type`` remotely
    and scatter into ``origin_region`` with ``origin_type``'s layout.

    ``buf`` must be the NumPy view of ``origin_region`` (layout reference);
    the data lands in the region's memory.
    """
    ttype = target_type or origin_type
    if origin_type.size != ttype.size:
        raise RmaEpochError("origin/target type sizes differ")
    ctx = win.ctx
    scatter = [(origin_region.addr + c * origin_type.extent + off, n)
               for c in range(count) for off, n in origin_type.blocks]
    h = yield from win._issue(
        ctx.fabric.get, target,
        win._access(target, target_disp, count * ttype.extent),
        (ttype.size * count, 0),
        {"gather": _target_blocks(win, target, target_disp, ttype, count),
         "scatter": scatter})
    cost = origin_type.pack_cost(ctx.params, count)
    if cost:
        yield cost
    return h


def put_notify_typed(ctx, win: Window, buf: np.ndarray,
                     origin_type: Datatype, target: int,
                     target_disp: int = 0,
                     target_type: Datatype | None = None,
                     count: int = 1,
                     tag: int = 0) -> Generator[object, object, OpHandle]:
    """The paper's full ``MPI_Put_notify`` signature with derived types."""
    ttype = target_type or origin_type
    packed = yield from _pack(ctx, buf, origin_type, ttype, count)
    return (yield from win._issue(
        ctx.fabric.put, target,
        win.shared.target_addr(target, target_disp, count * ttype.extent),
        (packed,),
        {"scatter": _target_blocks(win, target, target_disp, ttype, count)},
        immediate=encode_immediate(ctx.rank, tag)))
