"""XPMEM-like intra-node transport with the paper's notification ring.

Per §IV-C, each process owns a bounded ring buffer of cache-line-sized
notification entries in a shared segment.  A small put's payload rides
*inside* the notification line (*inline transfer*, one cache-line move);
larger accesses are an optimized memcpy + memory fence followed by the
notification.  All of it is CPU work at the origin — there is no offload
engine intra-node, which is why shared-memory puts cannot be overlapped
with computation the way BTE transfers can.
"""

from __future__ import annotations

from repro.network.loggp import LogGPParams, TransportParams
from repro.network.transports.base import TransferPlan
from repro.sim.engine import Engine


class ShmTransport:
    """Prices intra-node copies performed by the origin CPU (plus a
    ``stall``: a busy ring or contended segment, drawn by the fabric)."""

    #: deliveries into one segment commit in ring order; the sanitizer
    #: chains commit clocks along this channel (per origin/target pair)
    san_channel: str | None = "shm"
    kind = "shm"

    __slots__ = ("engine", "params", "shm", "inline_puts")

    def __init__(self, engine: Engine, params: TransportParams):
        self.engine = engine
        self.params = params
        self.shm: LogGPParams = params.shm
        self.inline_puts = 0

    def is_inline(self, nbytes: int) -> bool:
        return nbytes <= self.params.inline_max

    def plan_put(self, nbytes: int, stall: float = 0.0) -> TransferPlan:
        """Price a put; the CPU is busy for the whole copy."""
        now = self.engine.now
        if self.is_inline(nbytes):
            # Payload travels inside the notification cache line: one line
            # write plus the fixed segment-access latency.
            self.inline_puts += 1
            busy = self.shm.L + stall
        else:
            # memcpy into the target segment, then an sfence, then the
            # notification line write.
            busy = self.shm.L + nbytes * self.shm.G + stall
        end = now + busy
        return TransferPlan(cpu_busy=busy, inject_end=end, commit_at=end)

    def plan_get(self, nbytes: int, stall: float = 0.0) -> TransferPlan:
        """Price a get: the origin CPU copies out of the remote segment."""
        now = self.engine.now
        busy = self.shm.L + nbytes * self.shm.G + stall
        end = now + busy
        return TransferPlan(cpu_busy=busy, inject_end=end, commit_at=end)

    def plan_amo(self, stall: float = 0.0) -> TransferPlan:
        """Price an atomic op on the remote segment (one line round trip)."""
        now = self.engine.now
        busy = 2 * self.shm.L + stall
        end = now + busy
        return TransferPlan(cpu_busy=busy, inject_end=end, commit_at=end)
