"""Network substrate: LogGP-parameterized RDMA fabric.

The fabric models exactly the mechanisms the paper's implementation uses:

* **uGNI-like inter-node transport** (:mod:`repro.network.transports.ugni`)
  with an *FMA* engine (CPU-driven injection of small transfers) and a *BTE*
  engine (offloaded block transfers), both able to attach a 32-bit immediate
  value that is delivered to the target's *destination completion queue*.
* **XPMEM-like intra-node transport** (:mod:`repro.network.transports.shm`)
  with a bounded, cache-line-entry notification ring per process and the
  paper's *inline transfer* protocol for small puts.
* **Completion queues** (:mod:`repro.network.cq`) at source (local/remote
  completion, used by ``flush``) and destination (notifications).

Timing follows the LogGP model (Alexandrov et al.); default parameters are
the paper's Table I values.
"""

from repro.network.cq import (
    CompletionQueue,
    CqEntry,
    decode_immediate,
    encode_immediate,
)
from repro.network.fabric import Fabric, Nic, SysPacket
from repro.network.loggp import (
    LogGPParams,
    TransportParams,
    noc_params,
)
from repro.network.topology import Machine

__all__ = [
    "LogGPParams",
    "TransportParams",
    "noc_params",
    "Machine",
    "CompletionQueue",
    "CqEntry",
    "encode_immediate",
    "decode_immediate",
    "Fabric",
    "Nic",
    "SysPacket",
]
