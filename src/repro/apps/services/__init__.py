"""Production-style service workloads on Notified Access.

Serving applications driven by the open-loop generator in
:mod:`repro.bench.load`:

* :func:`~repro.apps.services.kv.run_kv` — sharded key-value store
  (mirrored notified puts with counting credit acks, notified-put RPC
  gets with retry, buddy checkpoints, crash-exiting servers under
  node-failure injection); :func:`~repro.apps.services.kv_ft.run_kv_ft`
  is the same driver with the failure experiments' defaults;
* :func:`~repro.apps.services.pubsub.run_pubsub` — pub/sub broker
  (publisher fan-out, counting-notification batch wakeup on
  subscribers, ``replication=`` mirror brokers for durability under
  broker deaths).

Each role has one program; the :mod:`repro.ft` layer is always
underneath, and a fault plan in the cluster configuration is the only
difference between a fault-free run and a failure experiment.
"""

from repro.apps.services.kv import build_kv_workload, run_kv
from repro.apps.services.kv_ft import run_kv_ft
from repro.apps.services.pubsub import build_pubsub_workload, run_pubsub

__all__ = [
    "build_kv_workload",
    "build_pubsub_workload",
    "run_kv",
    "run_kv_ft",
    "run_pubsub",
]
