"""Fault-tolerant RMA: replication, checkpoints, and failover.

The paper's notified-access protocols assume a reliable fabric; this
package layers the recovery patterns of Besta & Hoefler's "Fault
Tolerance for RMA" on top of the existing core, using only the paper's
own primitives:

* :class:`~repro.ft.replicate.ReplicatedWindow` mirrors every
  ``put``/``put_notify`` to R replica ranks and transparently re-points
  waiters at a live replica when the fault injector kills a node
  (notification failover), failing fast with
  :class:`~repro.errors.FaultError` when replication is exhausted;
* :func:`~repro.ft.checkpoint.checkpoint` /
  :func:`~repro.ft.checkpoint.restore` snapshot window bytes plus
  outstanding :class:`~repro.core.nrequest.NotifyRequest` match state at
  epoch boundaries, with deterministic restore;
* :class:`~repro.ft.detector.FailureDetector` exposes the injector's
  node-death plan as the failure-detection oracle every recovery
  decision consults (deaths become visible ``detect_us`` after they
  happen, matching when the transport fails in-flight operations).

Everything here is put-class-only (mirrored notified puts + zero-byte
credit acks), the same discipline as ``repro.apps.services`` — so
replicated workloads stay byte-identical between the serial core and
the sharded conservative-parallel core under any fault plan.
"""

from repro.ft.checkpoint import (
    Checkpoint,
    RequestState,
    checkpoint,
    pack,
    restore,
    unpack_windows,
)
from repro.ft.detector import FailureDetector
from repro.ft.replicate import ReplicatedPut, ReplicatedWindow

__all__ = [
    "Checkpoint",
    "FailureDetector",
    "ReplicatedPut",
    "ReplicatedWindow",
    "RequestState",
    "checkpoint",
    "pack",
    "restore",
    "unpack_windows",
]
