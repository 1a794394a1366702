"""Overwriting notifications — the GASPI/GPI-2 scheme of §VII.

The paper's related-work taxonomy distinguishes three notification designs:

* **counting** identifiers (Split-C signaling stores, LAPI counters; our
  :mod:`repro.core.counters`) — scalable, but carry no value;
* **overwriting** identifiers (GASPI ``write_notify``; this module) — carry
  a value, but act as atomic registers: a second write to the same
  notification id before it is consumed *overwrites* the first, and arrival
  order across ids is lost;
* **queueing** (the paper's contribution) — values *and* arrival order,
  without per-producer slot coordination.

Here a target exposes an array of notification registers next to its
window.  ``write_notify`` delivers data and a nonzero value into one
register in a single transaction (in-order on the fabric, like GPI-2 on a
reliable network); the consumer polls/resets registers.  The lost-update
hazard and the O(#registers) scan cost are real and tested — they are the
reasons the paper gives for the queueing design.
"""

from __future__ import annotations

from collections.abc import Generator
from functools import partial

import numpy as np

from repro.errors import MatchingError
from repro.mpi.constants import ANY_SOURCE
from repro.rma.window import Window
from repro.sim.resources import Signal

#: CPU cost of scanning one notification register, µs
T_SLOT_SCAN = 0.008
#: CPU cost of consuming (reset) a fired register, µs
T_SLOT_RESET = 0.01


class NotificationSpace:
    """A target's array of overwriting notification registers."""

    def __init__(self, ctx, num: int):
        if num < 1:
            raise MatchingError("need at least one notification register")
        self.ctx = ctx
        self.num = num
        self.region = ctx.space.alloc(num * 8, align=64)
        # The registers *are* the synchronization primitive: they are
        # polled by design, so the sanitizer tracks them via per-slot
        # clocks instead of shadow accesses.
        self.region.san_ignore = True
        self.region.ndarray(np.int64)[:] = 0
        self.signal = Signal(ctx.engine, name=f"gaspi:{ctx.rank}")
        self.overwrites = 0           # lost updates observed at delivery
        #: clock of the write last delivered into each register —
        #: overwritten like the value itself (the §VII lost update)
        self.slot_clocks: list = [None] * num

    def _regs(self) -> np.ndarray:
        return self.region.ndarray(np.int64)

    def deliver(self, slot: int, value: int, san_clock=None) -> None:
        """Fabric-side register write (overwrites silently)."""
        regs = self._regs()
        if regs[slot] != 0:
            self.overwrites += 1       # the §VII lost-update hazard
        regs[slot] = value
        self.slot_clocks[slot] = san_clock
        self.signal.fire(slot)


class OverwriteEngine:
    """GASPI-style notified writes for one rank."""

    __slots__ = ("ctx", "rank", "engine", "params", "spaces")

    def __init__(self, ctx):
        self.ctx = ctx
        self.rank = ctx.rank
        self.engine = ctx.engine
        self.params = ctx.params
        #: notification spaces this rank exposes, keyed by window id
        self.spaces: dict[int, NotificationSpace] = {}

    # -- target side --------------------------------------------------------
    def notification_init(self, win: Window,
                          num: int) -> Generator[object, object,
                                                 NotificationSpace]:
        """Expose ``num`` notification registers for ``win``."""
        if win.id in self.spaces:
            raise MatchingError(
                f"window {win.id} already has a notification space")
        space = NotificationSpace(self.ctx, num)
        self.spaces[win.id] = space
        # Registration is collective-free in GASPI (segment-relative ids);
        # only the local setup cost is charged.
        yield self.params.t_init
        return space

    def waitsome(self, space: NotificationSpace, lo: int = 0,
                 num: int | None = None
                 ) -> Generator[object, object, tuple[int, int]]:
        """Block until some register in ``[lo, lo+num)`` is nonzero;
        returns ``(slot, value)`` and resets the register.

        The scan cost is proportional to the registers examined — the
        per-expected-notification storage/scan overhead §VII attributes to
        overwriting interfaces.
        """
        if num is None:
            num = space.num - lo
        if lo < 0 or num < 1 or lo + num > space.num:
            raise MatchingError(f"register range [{lo}, {lo + num}) "
                                f"outside space of {space.num}")
        while True:
            regs = space._regs()
            window = regs[lo:lo + num]
            hits = np.nonzero(window)[0]
            scanned = int(hits[0]) + 1 if hits.size else num
            yield T_SLOT_SCAN * scanned
            if hits.size:
                slot = lo + int(hits[0])
                # Read the value after the scan-time charge: overwriting
                # semantics — a racing second write is absorbed.
                value = int(regs[slot])
                regs[slot] = 0
                san = getattr(self.ctx.cluster, "sanitizer", None)
                if san is not None:
                    # Consuming the register orders the consumer after the
                    # write that (last) set it.
                    san.acquire(self.rank, space.slot_clocks[slot])
                yield T_SLOT_RESET
                return slot, value
            # A register may have fired while the scan time was charged;
            # re-check before arming the signal, or the wakeup is lost.
            if np.any(space._regs()[lo:lo + num]):
                continue
            yield self.ctx.nic.block(space.signal.wait(), (ANY_SOURCE,),
                                     "register")

    # -- origin side --------------------------------------------------------
    def write_notify(self, win: Window, data: np.ndarray, target: int,
                     target_disp: int, slot: int,
                     value: int = 1) -> Generator[object, object, object]:
        """GASPI ``gaspi_write_notify``: data plus a register update, one
        transaction, ordered with respect to its own data."""
        if value == 0:
            raise MatchingError("notification value 0 means 'empty'")
        tgt_engine: OverwriteEngine = \
            self.ctx.cluster.ranks[target].gaspi
        space = tgt_engine.spaces.get(win.id)
        if space is None:
            raise MatchingError(
                f"rank {target} exposes no notification space for window "
                f"{win.id}")
        if not 0 <= slot < space.num:
            raise MatchingError(f"register {slot} outside space of "
                                f"{space.num}")
        # The register update commits with the data (one transaction), so
        # a transfer the fault layer lost fires no register.
        data = np.ascontiguousarray(data)
        return (yield from win._issue(
            self.ctx.fabric.put, target,
            win.shared.target_addr(target, target_disp, data.nbytes),
            (data,), commit=partial(space.deliver, slot, value)))
