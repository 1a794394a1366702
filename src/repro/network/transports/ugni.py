"""uGNI-like inter-node engines: FMA and BTE.

*FMA* (Fast Memory Access) is CPU-driven: the origin CPU writes the payload
through the FMA window, so the injection time is charged to the CPU.  It is
the fast path for small transfers.

*BTE* (Block Transfer Engine) is offloaded: the CPU only posts a descriptor
(``o_post``); the NIC DMA engine streams the data.  It wins for large
transfers and is what gives One Sided / Notified Access their near-perfect
computation/communication overlap in Figure 4a.

Both engines can attach a 32-bit immediate delivered to the destination
completion queue — the mechanism Notified Access is built on (§IV-B).
"""

from __future__ import annotations

from repro.network.loggp import LogGPParams
from repro.network.transports.base import InjectEngine, TransferPlan
from repro.sim.engine import Engine


class FmaEngine:
    """CPU-driven small-transfer engine."""

    #: FMA transfers between one pair commit in issue order (uGNI FMA
    #: ordering); the sanitizer chains commit clocks along this channel
    san_channel: str | None = "fma"
    kind = "fma"

    __slots__ = ("params", "_inject", "engine")

    def __init__(self, engine: Engine, params: LogGPParams):
        self.params = params
        self._inject = InjectEngine(engine, params)
        self.engine = engine

    def plan(self, nbytes: int, extra_delay: float = 0.0,
             not_before: float | None = None) -> TransferPlan:
        start, end = self._inject.inject(nbytes, not_before=not_before)
        # The CPU drives the injection: busy from now until injection ends.
        cpu_busy = max(end - self.engine.now, 0.0)
        return TransferPlan(cpu_busy=cpu_busy, inject_end=end,
                            commit_at=end + self.params.L + extra_delay)

    @property
    def stats(self) -> tuple[int, int]:
        return self._inject.injected, self._inject.bytes_injected


class BteEngine:
    """Offloaded block-transfer engine."""

    #: BTE DMA completions are unordered with respect to other transfers;
    #: no channel clock — only flush/notification edges order them
    san_channel: str | None = None
    kind = "bte"

    __slots__ = ("params", "_inject", "engine")

    def __init__(self, engine: Engine, params: LogGPParams):
        self.params = params
        self._inject = InjectEngine(engine, params)
        self.engine = engine

    def plan(self, nbytes: int, extra_delay: float = 0.0,
             not_before: float | None = None) -> TransferPlan:
        # CPU posts a descriptor and is immediately free again.
        start, end = self._inject.inject(nbytes, not_before=not_before)
        return TransferPlan(cpu_busy=self.params.o_post, inject_end=end,
                            commit_at=end + self.params.L + extra_delay)

    @property
    def stats(self) -> tuple[int, int]:
        return self._inject.injected, self._inject.bytes_injected
