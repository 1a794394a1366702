"""Discrete-event simulation kernel.

A small, deterministic, generator-based DES in the style of SimPy, written
from scratch for this reproduction.  Simulated processes are Python
generators that ``yield`` :class:`~repro.sim.engine.Event` objects; the
:class:`~repro.sim.engine.Engine` advances virtual time (a float, in
microseconds) and resumes processes when the events they wait on trigger.

Determinism: the scheduler (same-tick buckets under a heap of distinct
timestamps, :mod:`repro.sim.scheduler`) orders by ``(time, priority,
sequence)`` where ``sequence`` is a global monotone counter, so same-time
events always fire in insertion order and repeated runs are bit-identical.
"""

from repro.sim.engine import AllOf, AnyOf, Engine, Event, Process, Timeout
from repro.sim.resources import Signal, Store
from repro.sim.rng import RngStream
from repro.sim.trace import Tracer, TraceRecord

__all__ = [
    "Engine",
    "Event",
    "Process",
    "Timeout",
    "AllOf",
    "AnyOf",
    "Store",
    "Signal",
    "RngStream",
    "Tracer",
    "TraceRecord",
]
