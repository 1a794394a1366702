"""A message-passing runtime in the style of MPI point-to-point semantics.

Implements the two transfer protocols the paper compares against (Figure 2b):

* **eager** — the payload travels with the first packet; if no receive is
  posted it is copied into a bounce buffer and again into the user buffer on
  match (the copy overhead and cache pollution the paper attributes to
  message passing),
* **rendezvous** — RTS / CTS / DATA, zero-copy but three transactions on the
  critical path, and requiring target-side progress (or an async-progress
  agent, as in Cray MPI).

Matching follows MPI semantics: posted-receive queue and unexpected-message
queue, ordered matching on ``(source, tag)`` with ``ANY_SOURCE``/``ANY_TAG``
wildcards, non-overtaking between same (source, tag) pairs.
"""

from repro.mpi.collectives import (
    allreduce,
    barrier,
    bcast,
    reduce,
    vendor_reduce,
)
from repro.mpi.comm import Communicator
from repro.mpi.constants import ANY_SOURCE, ANY_TAG, PROC_NULL
from repro.mpi.endpoint import MpiEndpoint
from repro.mpi.request import RecvRequest, Request, SendRequest
from repro.mpi.status import Status

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "PROC_NULL",
    "Status",
    "Request",
    "SendRequest",
    "RecvRequest",
    "MpiEndpoint",
    "Communicator",
    "barrier",
    "bcast",
    "reduce",
    "allreduce",
    "vendor_reduce",
]
