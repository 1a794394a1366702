"""Shared transport machinery: FIFO injection engines and transfer plans."""

from __future__ import annotations

from dataclasses import dataclass

from repro.network.loggp import LogGPParams
from repro.sim.engine import Engine


@dataclass(slots=True)
class TransferPlan:
    """The priced timeline of one transfer, in absolute engine time (µs).

    ``cpu_busy`` is the CPU time the *caller* must charge (the origin process
    yields a timeout of this length); the remaining fields are absolute times
    at which the fabric schedules callbacks.  The ack is not priced here: the
    target half derives it from the commit the target NIC reserved.
    """

    cpu_busy: float        # origin CPU occupancy starting now
    inject_end: float      # when the injecting engine frees up
    commit_at: float       # data committed at the destination memory


class InjectEngine:
    """A FIFO-serialized injection resource (an FMA window or a BTE queue).

    No simulation processes are spawned per message: the engine tracks its
    ``next_free`` time and each injection is priced as
    ``start = max(now, next_free)``, ``busy = g + nbytes * G``.
    """

    __slots__ = ("engine", "params", "next_free", "injected",
                 "bytes_injected")

    def __init__(self, engine: Engine, params: LogGPParams):
        self.engine = engine
        self.params = params
        self.next_free = 0.0
        self.injected = 0
        self.bytes_injected = 0

    def inject(self, nbytes: int,
               not_before: float | None = None) -> tuple[float, float]:
        """Reserve the engine for one message; returns (start, end).

        ``not_before`` floors the start time — used when pricing a future
        injection, e.g. the response leg of a get served at the target.
        """
        floor = self.engine.now if not_before is None else not_before
        start = max(floor, self.next_free)
        end = start + self.params.serialization(nbytes)
        self.next_free = end
        self.injected += 1
        self.bytes_injected += nbytes
        return start, end
