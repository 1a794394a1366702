"""Event tracing and counters.

The network layer records one :class:`TraceRecord` per wire transaction; the
protocol-audit tests (Figure 2 of the paper) count transactions on the
critical path of each synchronization scheme directly from this trace.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class TraceRecord:
    """One traced occurrence.

    ``kind`` is a short category string (``"wire"``, ``"cq"``, ``"match"``,
    ``"copy"``, ...), ``detail`` carries kind-specific fields.
    """

    time: float
    kind: str
    src: int
    dst: int
    nbytes: int = 0
    detail: dict[str, Any] = field(default_factory=dict)


class Tracer:
    """Accumulates trace records and summary counters.

    Tracing is cheap but not free; construct with ``enabled=False`` (the
    default for benchmarks) to reduce overhead to a single branch.
    Counters are always maintained — they are O(1) and the transaction-count
    experiments rely on them.  They are the one ledger of what a run
    counted by kind: ``wire`` transactions (Figure 2), injected ``fault``
    events (by fault class in :attr:`faults`) and sanitizer ``race``
    reports.
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.records: list[TraceRecord] = []
        self.counters: Counter[str] = Counter()
        self.bytes_by_kind: Counter[str] = Counter()
        #: injected-fault events by fault type ("drop", "dup", "stall", ...)
        self.faults: Counter[str] = Counter()

    def emit(self, time: float, kind: str, src: int, dst: int,
             nbytes: int = 0, **detail: Any) -> None:
        self.counters[kind] += 1
        self.bytes_by_kind[kind] += nbytes
        if kind == "fault":
            self.faults[detail.get("fault", "unknown")] += 1
        if self.enabled:
            self.records.append(
                TraceRecord(time, kind, src, dst, nbytes, detail))

    def wire(self, time: float, src: int, dst: int, nbytes: int, op: str,
             medium: str, notified: bool | None = None,
             lost: bool = False) -> None:
        """Count one wire transaction, as ``emit(..., "wire", ...)`` does.

        The detail dict (``op``, ``medium``, then ``notified`` and
        ``lost`` where given) is built only when records are kept: with
        tracing off, a wire transaction allocates nothing here.
        """
        self.counters["wire"] += 1
        self.bytes_by_kind["wire"] += nbytes
        if self.enabled:
            detail: dict[str, Any] = {"op": op, "medium": medium}
            if notified is not None:
                detail["notified"] = notified
            if lost:
                detail["lost"] = True
            self.records.append(
                TraceRecord(time, "wire", src, dst, nbytes, detail))

    def wire_transactions(self) -> int:
        """Total wire-level transactions (the unit Figure 2 counts)."""
        return self.counters["wire"]
