"""Failure detection oracle over the fault injector's node-death plan.

A real RMA fault-tolerance layer learns about dead peers from a failure
detector (timeouts, OS notifications, out-of-band heartbeats).  Here the
ground truth is the :class:`~repro.faults.FaultPlan`'s ``node_failures``
table, and the detector exposes it with the same visibility latency the
transport uses to fail in-flight operations: a death at virtual time
``t`` becomes *detectable* at ``t + detect_us``.  All recovery decisions
(replica selection, failover, crash-exit deadlines) consult this oracle,
so they are pure functions of (plan, virtual time) — deterministic, and
byte-identical between serial and sharded runs.
"""

from __future__ import annotations

from collections.abc import Iterable


class FailureDetector:
    """Per-rank view of planned node deaths and their detection times."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.faults = ctx.fabric.faults

    @property
    def detect_us(self) -> float:
        """Failure-detection latency (0 when no plan is active)."""
        return 0.0 if self.faults is None else self.faults.plan.detect_us

    def death_time(self, rank: int) -> float | None:
        """When ``rank`` dies (µs), or None if it never does."""
        return None if self.faults is None else self.faults.death_time(rank)

    def detection_time(self, rank: int) -> float | None:
        """When ``rank``'s death becomes visible (µs), or None."""
        return (None if self.faults is None
                else self.faults.detection_time(rank))

    def is_down(self, rank: int, now: float | None = None) -> bool:
        """Has ``rank`` actually died by ``now`` (ground truth)?"""
        when = self.death_time(rank)
        if when is None:
            return False
        return (self.ctx.now if now is None else now) >= when

    def detected(self, rank: int, now: float | None = None) -> bool:
        """Has ``rank``'s death been *detected* by ``now``?

        This is what recovery code must use: between death and
        detection the failure is invisible, exactly like the window in
        which the transport still accepts (and loses) operations to the
        dead node.
        """
        at = self.detection_time(rank)
        if at is None:
            return False
        return (self.ctx.now if now is None else now) >= at

    def live(self, ranks: Iterable[int],
             now: float | None = None) -> list[int]:
        """The ranks not yet detected dead, in the given order."""
        t = self.ctx.now if now is None else now
        return [r for r in ranks if not self.detected(r, t)]
